"""Traced campaign: run the gridgroups CLI in this process with a span around
every call into each module's public functions.

    python3 perfbench/tracer.py SPANS_FILE classify --rows 3 --cols 7 ...

Functions are wrapped under the names their callers imported them by (for
example `wordprob.todd_coxeter`, which GroupToolbox calls), so the program
itself is unchanged.  Spans stay in memory, one buffer per thread, each with
its parent span, and are written to SPANS_FILE when the CLI returns, together
with the work counters read from the wrapped calls' return values and the
process's own and its workers' CPU time.  A name that the program no longer
has is an error, so a layer that stops being measured cannot read as free.
Spans inside forked worker processes are not collected.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
from array import array
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.tallies: dict[str, list[int]] = {}
        self.buffers: list[tuple[array, array, array, array]] = []
        self._local = threading.local()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            # (name id, parent index, start, end) per span, plus the open-span stack
            buf = self._local.buf = (array("i"), array("i"), array("d"), array("d"), [])
            self.buffers.append(buf[:4])
        return buf

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, nid: int):
        """Start a span: (ends array, open-span stack, span index)."""
        names, parents, starts, ends, stack = self._buffer()
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(perf_counter())
        return ends, stack, idx

    @staticmethod
    def _target(owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"perfbench tracer: {owner.__name__}.{attr} no longer "
                                 "exists; update perfbench/tracer.py")
        return fn

    def _name(self, owner, attr: str, span: str):
        """(function, span id); an error when the program has no such name."""
        fn = self._target(owner, attr)
        self.names.append(span)
        return fn, len(self.names) - 1

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        fn, nid = self._name(owner, attr, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ends, stack, idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, span: str, items: str) -> None:
        """A span around each step of a generator: its busy time, not the
        time its consumer spends between items."""
        fn, nid = self._name(owner, attr, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                ends, stack, idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
                self.count(items)
                yield item

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls without a span, for a function called so often (inside
        its callers' loops) that a span's cost would distort their time."""
        fn = self._target(owner, attr)
        tally = self.tallies[counter] = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def write(self, path: str, meta: dict) -> None:
        """Spans as four flat arrays after a one-line JSON header."""
        names, parents, starts, ends = (array(t) for t in "iidd")
        for bn, bp, bs, be in self.buffers:
            base = len(starts)
            names.extend(bn)
            parents.extend(p + base if p >= 0 else -1 for p in bp)
            starts.extend(bs)
            ends.extend(be)
        for counter, (n,) in self.tallies.items():
            self.count(counter, n)
        header = dict(meta, names=self.names, counters=self.counters, spans=len(starts))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (names, parents, starts, ends):
                arr.tofile(fh)


def read_spans(path: str):
    """(header, names, parents, starts, ends) as written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for t in "iidd":
            arr = array(t)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


def install(tracer: Tracer) -> None:
    from gridgroups import abelian, classify, cli, enumerate, rewrite, smallgroups, wordprob

    def tc_result(run):
        tracer.count("coset.tc_calls")
        tracer.count("coset.cosets_defined", run.cosets_defined)
        tracer.count("coset.tc_complete", run.status == "complete")

    def kb_result(kb):
        tracer.count("rewrite.kb_calls")
        tracer.count("rewrite.rules", kb.stats.rules)
        tracer.count("rewrite.pairs_processed", kb.stats.pairs_processed)
        tracer.count("rewrite.discarded", kb.stats.discarded)
        tracer.count("rewrite.confluent", bool(kb.confluent))

    def word_result(v):
        tracer.count("wordprob.word_equal_calls")
        tracer.count("wordprob.decided", v.outcome != "unknown")

    def hom_result(found):
        tracer.count("wordprob.hom_calls")
        tracer.count("wordprob.hom_hits", found is not None)

    def class_result(rec):
        tracer.count("classify.classes")
        tracer.count("classify." + rec.verdict.kind)

    def counted(name):
        return lambda _result: tracer.count(name)

    # enumeration, as the CLI drives it (serial stream, or frontier + resume)
    tracer.wrap_generator(cli, "enumerate_pairings", "enumerate", "enumerate.leaves")
    tracer.wrap_generator(cli, "resume", "enumerate", "enumerate.leaves")
    tracer.wrap(cli, "split_frontier", "enumerate.split")
    tracer.wrap(enumerate, "has_smaller_stacked_image", "grid.canonical")
    # the per-class pipeline
    tracer.wrap(cli, "classify_matrix", "classify", class_result)
    tracer.wrap(cli, "record_to_json", "classify.record_json")
    tracer.wrap(classify, "orbit_canonical_form", "grid.canonical")
    tracer.wrap(classify, "row_connected", "grid.connected")
    tracer.wrap(classify, "column_connected", "grid.connected")
    tracer.wrap(classify, "proper_invariant_subgrids", "grid.subgrid",
                counted("grid.subgrid_calls"))
    tracer.wrap(classify, "presentation_from_matrix", "present.build")
    tracer.wrap(wordprob, "simplify_presentation", "present.simplify",
                counted("present.simplify_calls"))
    tracer.wrap(abelian, "smith_normal_form", "abelian.snf", counted("abelian.snf_calls"))
    for module in (classify, wordprob, smallgroups):
        tracer.wrap(module, "todd_coxeter", "coset.tc", tc_result)
    tracer.wrap(classify, "fingerprint", "coset.fingerprint")
    tracer.wrap(smallgroups, "fingerprint", "coset.fingerprint")
    tracer.wrap(wordprob, "RewriteSystem", "rewrite.kb", kb_result)
    # reduce runs inside completion's inner loops: a span there adds about
    # 1.5 us a call (0.3 us for a count; Xeon vCPU, Python 3.11), about 9 %
    # of rewrite.kb on mirror-5x5, so those calls are only counted, and spans
    # cover the reductions callers ask for once a system is built
    tracer.count_calls(rewrite.RewriteSystem, "reduce", "rewrite.reduce_calls")
    tracer.wrap(rewrite.RewriteSystem, "reduce_word", "rewrite.reduce")
    tracer.wrap(rewrite.RewriteSystem, "language", "rewrite.language")
    tracer.wrap(wordprob.GroupToolbox, "word_equal", "wordprob.word_equal", word_result)
    tracer.wrap(wordprob, "search_hom", "wordprob.hom", hom_result)
    tracer.wrap(classify, "identify_small_group", "smallgroups.identify")
    tracer.wrap(classify, "verify_direct_finiteness", "groupring.dfc",
                counted("groupring.dfc_calls"))
    tracer.wrap(classify, "torsion_quotient_report", "classify.torsion")


def main(argv) -> int:
    if len(argv) < 2:
        sys.exit("usage: tracer.py SPANS_FILE <gridgroups arguments>")
    common.require_source()
    from gridgroups import cli
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[1:])
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    tracer.write(argv[0], {"parent_cpu_s": own.ru_utime + own.ru_stime,
                           "worker_cpu_s": kids.ru_utime + kids.ru_stime})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
