"""Batch front end: enumeration and classification campaigns, summary
tables, the mod-p labs, checkpoint management, and cross-check exports.

Outputs are byte-deterministic for a given configuration: records are JSON
Lines keyed by the canonical matrix, tables are plain text or CSV, and
worker parallelism only changes wall time, never file contents.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

from .classify import (_forces_syntactic, classify_matrix, record_to_json,
                       structural_flags)
# split_frontier stays bound here: the campaign tracer (perfbench/tracer.py)
# wraps the enumeration entry points under their names on this module
from .enumerate import (EnumerationBudgetExceeded, EnumerationConfig,  # noqa: F401
                        SearchCheckpoint, enumerate_pairings, read_checkpoint,
                        resume, split_frontier, write_checkpoint)
from .grid import GridDims, GridError, PairingMatrix, format_matrix, parse_matrix
from .groupring import (GroupRingError, check_prime, matrix_unit_lab, rank2_inverse,
                        rank2_zero_divisor)
from .present import format_word, presentation_from_matrix
from .wordprob import Budgets

_BUDGET_FLAGS = ("max_cosets", "kb_max_rules", "kb_max_len", "torsion_word_len")


def _budgets_from_args(args) -> Budgets:
    """Budgets(), with the budget flags given on the command line."""
    return Budgets(**{name: getattr(args, name) for name in _BUDGET_FLAGS
                      if getattr(args, name) is not None})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _prime(text: str) -> int:
    value = _positive_int(text)
    try:
        check_prime(value)
    except GroupRingError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


@contextmanager
def _output(path: Optional[str], mode: str = "w"):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, mode) as fh:
            yield fh


# ---------------------------------------------------------------------------
# campaigns: enumerate, classify and resume

_FILTERS = ("none", "connected", "subgrid-free", "mirror", "non-mirror")
LEAVES_PER_TASK = 32  # consecutive classes per worker task


class InputError(Exception):
    """Bad input from outside the program: reported in one line, no traceback."""


@contextmanager
def _checked_input():
    """Where the input is read and checked, before a campaign starts: a
    GridError or OSError there is bad input, not a fault of the program."""
    try:
        yield
    except (GridError, OSError) as exc:
        raise InputError(exc) from None


def _open_input(path: str):
    """An input file opened for reading; one that cannot be opened is bad input."""
    with _checked_input():
        return open(path)


def _class_line(budgets: Budgets, class_filter: str, mat: PairingMatrix) -> str:
    """The record line of one class, or "" when it fails the filter.
    Structural flags the filter computed are handed on to classify_matrix."""
    flags = None
    if class_filter in ("connected", "subgrid-free"):
        flags = structural_flags(mat)
        if class_filter == "connected":
            passes = flags["row_connected"] and flags["column_connected"]
        else:
            passes = flags["no_proper_invariant_subgrid"]
    elif class_filter in ("mirror", "non-mirror"):
        passes = _forces_syntactic(mat) == (class_filter == "mirror")
    else:
        passes = True
    if not passes:
        return ""
    return record_to_json(classify_matrix(mat, budgets, flags=flags)) + "\n"


def _matrix_lines(mats: Iterable[PairingMatrix]) -> Iterator[str]:
    for mat in mats:
        yield format_matrix(mat).replace("\n", " / ") + "\n"


def _run_campaign(out_path: Optional[str], lines: Iterable[str],
                  checkpoint: Optional[tuple[SearchCheckpoint, str]] = None) -> int:
    """The output loop of every campaign.

    With a `(checkpoint, path)` the output is appended to, and after each
    line it is flushed and the checkpoint rewritten with the output's
    length (when it is a file), so the checkpoint never counts a line that
    is not in the file.  It is rewritten once more when the stream ends,
    for the items done after the last line.  A resume killed between the
    two writes leaves a line past that length, which the next resume cuts
    off first."""
    if checkpoint is None:
        with _output(out_path) as out:
            out.writelines(lines)
        return 0
    cp, cp_path = checkpoint
    with _output(out_path, "a") as out:
        sized = out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode)
        if not sized:
            cp.output_bytes = None
        elif cp.output_bytes is None:
            cp.output_bytes = os.fstat(out.fileno()).st_size
            write_checkpoint(cp, cp_path)
        else:
            out.truncate(cp.output_bytes)
        for line in lines:
            out.write(line)
            out.flush()
            if sized:
                cp.output_bytes = os.fstat(out.fileno()).st_size
            write_checkpoint(cp, cp_path)
        write_checkpoint(cp, cp_path)
    return 0


def _read_matrices(fh) -> Iterator[PairingMatrix]:
    """The matrices of an open enumerate output file, one per line."""
    with fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                mat = parse_matrix(line.strip().replace(" / ", "\n"))
            except ValueError as exc:
                raise InputError(f"{fh.name} line {number}: not a matrix line ({exc})") from None
            if not isinstance(mat, PairingMatrix):
                raise InputError(f"{fh.name} line {number}: matrix is not complete")
            yield mat


def cmd_enumerate(args) -> int:
    with _checked_input():
        dims = GridDims(args.rows, args.cols).require_odd()
    config = EnumerationConfig(max_nodes=args.max_nodes)
    try:
        return _run_campaign(args.out, _matrix_lines(enumerate_pairings(dims, config)))
    except EnumerationBudgetExceeded as exc:
        then = "pass --checkpoint to make the run resumable"
        if args.checkpoint:
            write_checkpoint(exc.checkpoint, args.checkpoint)
            then = f"checkpoint written to {args.checkpoint}"
        print(f"budget exhausted; {then}", file=sys.stderr)
        return 3


def cmd_classify(args) -> int:
    with _checked_input():
        if args.from_file:
            mats = _read_matrices(open(args.from_file))
        else:
            # a mirror-form class's first column holds labels 1..cols-1, so
            # the search need not go below any other first-column label
            bound = args.cols if args.filter == "mirror" else None
            mats = enumerate_pairings(GridDims(args.rows, args.cols).require_odd(),
                                      EnumerationConfig(first_column_below=bound))
    line = partial(_class_line, args.budgets, args.filter)
    if args.workers == 1:
        return _run_campaign(args.out, map(line, mats))
    # the parent enumerates or reads the classes and imap returns the lines
    # in stream order.  The parent reads ahead of the workers, so an
    # InputError from a bad input line can end the run before the lines of
    # the classes read before it are written
    import multiprocessing as mp

    with mp.Pool(args.workers) as pool:
        return _run_campaign(args.out, pool.imap(line, mats, chunksize=LEAVES_PER_TASK))


def cmd_resume(args) -> int:
    with _checked_input():
        cp = read_checkpoint(args.checkpoint)
        if cp.output_bytes is not None and args.out != "-":
            size = os.path.getsize(args.out) if os.path.isfile(args.out) else 0
            if size < cp.output_bytes:
                raise InputError(f"{args.out} holds {size} bytes, but the checkpoint "
                                 f"counts {cp.output_bytes}: not the output it was resumed into")
    lines = (map(partial(_class_line, args.budgets, "none"), resume(cp)) if args.classify
             else _matrix_lines(resume(cp)))
    return _run_campaign(args.out, lines, checkpoint=(cp, args.checkpoint))


# ---------------------------------------------------------------------------
# table

@dataclass
class SummaryTable:
    dims: tuple[int, int]
    total: int = 0
    degenerate: int = 0
    undecided: int = 0
    infinite_abelian: int = 0
    infinite_nonabelian: int = 0
    infinite_unknown: int = 0
    finite_by_order: dict = None
    name_freq: dict = None
    dfc_failures: int = 0

    def __post_init__(self):
        self.finite_by_order = {}
        self.name_freq = {}

    @property
    def finite_total(self) -> int:
        return sum(a + n for a, n in self.finite_by_order.values())

    @property
    def finite_abelian(self) -> int:
        return sum(a for a, _ in self.finite_by_order.values())

    @property
    def finite_nonabelian(self) -> int:
        return sum(n for _, n in self.finite_by_order.values())

    @property
    def nondegenerate(self) -> int:
        return (self.finite_total + self.infinite_abelian
                + self.infinite_nonabelian + self.infinite_unknown)


def _record_problem(doc) -> Optional[str]:
    """Why a JSON value lacks a field that `table` or `export-gap` reads, or
    None when it has them all."""
    if not (isinstance(doc, dict) and "dims" in doc and "matrix" in doc
            and isinstance(doc.get("verdict"), dict) and "kind" in doc["verdict"]):
        return "needs dims, matrix and verdict.kind"
    dims, verdict = doc["dims"], doc["verdict"]
    if not (isinstance(dims, list) and len(dims) == 2
            and all(isinstance(n, int) for n in dims)):
        return f"dims must be two integers, got {json.dumps(dims)}"
    if not isinstance(doc["matrix"], str):
        return "matrix must be a string"
    kind = verdict["kind"]
    if kind not in ("degenerate", "finite", "infinite", "undecided"):
        return f"unknown verdict kind {json.dumps(kind)}"
    if kind == "finite" and not ("order" in verdict
                                 and isinstance(verdict.get("fingerprint"), dict)
                                 and "derived_order" in verdict["fingerprint"]):
        return "a finite verdict needs order and fingerprint.derived_order"
    if kind == "degenerate" and not (isinstance(verdict.get("witness"), list)
                                     and len(verdict["witness"]) == 3):
        return "a degenerate verdict needs a witness of three parts"
    return None


def _records(lines: Iterable[str]) -> Iterator[tuple[str, dict]]:
    """The records of a classify output, one JSON object per nonblank line,
    each after its place, "<file> line <n>"."""
    name = getattr(lines, "name", "records")
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{name} line {number}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise InputError(f"{where}: not a JSON record ({exc})") from None
        problem = _record_problem(doc)
        if problem is not None:
            raise InputError(f"{where}: not a classification record ({problem})")
        yield where, doc


def summarize(lines: Iterable[str]) -> dict[tuple[int, int], SummaryTable]:
    tables: dict[tuple[int, int], SummaryTable] = {}
    for _, doc in _records(lines):
        dims = tuple(doc["dims"])
        tab = tables.setdefault(dims, SummaryTable(dims))
        tab.total += 1
        kind = doc["verdict"]["kind"]
        if kind == "degenerate":
            tab.degenerate += 1
        elif kind == "undecided":
            tab.undecided += 1
        elif kind == "infinite":
            ab = doc["verdict"].get("abelian")
            if ab is True:
                tab.infinite_abelian += 1
            elif ab is False:
                tab.infinite_nonabelian += 1
            else:
                tab.infinite_unknown += 1
        else:
            order = doc["verdict"]["order"]
            abelian = doc["verdict"]["fingerprint"]["derived_order"] == 1
            a, n = tab.finite_by_order.get(order, (0, 0))
            tab.finite_by_order[order] = (a + 1, n) if abelian else (a, n + 1)
            name = doc["verdict"].get("name") or "unidentified"
            tab.name_freq[name] = tab.name_freq.get(name, 0) + 1
            if doc.get("dfc") and not (doc["dfc"]["ab_is_one"] and doc["dfc"]["ba_is_one"]):
                tab.dfc_failures += 1
    return tables


def format_table_text(tab: SummaryTable) -> str:
    lines = [f"rank {tab.dims[0]}x{tab.dims[1]}",
             f"  classes enumerated:    {tab.total}",
             f"  degenerate:            {tab.degenerate}",
             f"  nondegenerate:         {tab.nondegenerate}",
             f"  finite:                {tab.finite_total} "
             f"(abelian {tab.finite_abelian}, nonabelian {tab.finite_nonabelian})",
             f"  infinite:              {tab.infinite_abelian + tab.infinite_nonabelian + tab.infinite_unknown} "
             f"(abelian {tab.infinite_abelian}, nonabelian {tab.infinite_nonabelian}, "
             f"unknown {tab.infinite_unknown})",
             f"  undecided:             {tab.undecided}",
             f"  direct finiteness failures: {tab.dfc_failures}"]
    if tab.finite_by_order:
        lines.append("  finite orders (order: abelian/nonabelian):")
        for order in sorted(tab.finite_by_order):
            a, n = tab.finite_by_order[order]
            lines.append(f"    {order:4d}: {a:6d} {n:6d}")
    if tab.name_freq:
        lines.append("  group frequencies:")
        for name in sorted(tab.name_freq, key=lambda k: (-tab.name_freq[k], k)):
            lines.append(f"    {name:20s} {tab.name_freq[name]:6d}")
    return "\n".join(lines) + "\n"


def format_table_csv(tables: dict[tuple[int, int], SummaryTable]) -> str:
    rows = ["rows,cols,total,degenerate,nondegenerate,finite,finite_abelian,"
            "finite_nonabelian,infinite_abelian,infinite_nonabelian,"
            "infinite_unknown,undecided,dfc_failures"]
    for dims in sorted(tables):
        t = tables[dims]
        rows.append(",".join(str(v) for v in (
            dims[0], dims[1], t.total, t.degenerate, t.nondegenerate,
            t.finite_total, t.finite_abelian, t.finite_nonabelian,
            t.infinite_abelian, t.infinite_nonabelian, t.infinite_unknown,
            t.undecided, t.dfc_failures)))
    return "\n".join(rows) + "\n"


def cmd_table(args) -> int:
    with _open_input(args.records) as fh:
        tables = summarize(fh)
    with _output(args.out) as out:
        if args.csv:
            out.write(format_table_csv(tables))
        else:
            for dims in sorted(tables):
                out.write(format_table_text(tables[dims]))
    return 0


# ---------------------------------------------------------------------------
# lab

def cmd_lab(args) -> int:
    with _output(args.out) as out:
        for p in args.primes:
            rep = matrix_unit_lab(p)
            out.write(f"characteristic {p}:\n")
            for c in rep.checks:
                detail = f" ({c.detail})" if c.detail else ""
                out.write(f"  [{c.status:4s}] {c.branch}: {c.name}{detail}\n")
        out.write("rank-2 spot checks:\n")
        for (p, r, n) in [(5, 2, 2), (2, 1, 4), (3, 1, 2)]:
            res = rank2_inverse(p, r, n)
            desc = f"inverse {res.coeffs}" if res != "not invertible" else res
            out.write(f"  1 - {r}*g in F{p}[Z{n}]: {desc}\n")
        for (p, r, n) in [(2, 1, 2), (3, 1, 3), (5, 4, 2)]:
            out.write(f"  annihilator of 1 - {r}*g in F{p}[Z{n}]: "
                      f"{rank2_zero_divisor(p, r, n)}\n")
    return 0


# ---------------------------------------------------------------------------
# export-gap

def export_cas_script(doc: dict) -> str:
    """External computer-algebra script re-deriving one record's verdict."""
    mat = parse_matrix(doc["matrix"])
    pres = presentation_from_matrix(mat)
    gens = ", ".join(f'"{n}"' for n in pres.names)
    lines = [f"# class {doc['matrix'].replace(chr(10), ' / ')}",
             f"f := FreeGroup({gens});;",
             "AssignGeneratorVariables(f);;"]
    rels = ", ".join(format_word(r, pres.names) for r in pres.relators)
    lines.append(f"rels := [{rels}];;")
    lines.append("g := f / rels;;")
    kind = doc["verdict"]["kind"]
    if kind == "finite":
        lines.append(f"Print(Size(g), \"\\n\");  # expected {doc['verdict']['order']}")
    elif kind == "degenerate":
        w = doc["verdict"]["witness"]
        lines.append(f"# degeneracy witness: {w[0]} = {w[1]} ({w[2]})")
        lines.append("Print(Size(SimplifiedFpGroup(g)), \"\\n\");")
    elif kind == "undecided":
        lines.append("# marked for manual analysis: degeneracy undecided here")
        lines.append("Print(AbelianInvariants(g), \"\\n\");")
    else:
        lines.append("Print(AbelianInvariants(g), \"\\n\");  # infinite class")
    return "\n".join(lines) + "\n"


def cmd_export_gap(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    count = 0
    with _open_input(args.records) as fh:
        for where, doc in _records(fh):
            try:
                script = export_cas_script(doc)
            except ValueError as exc:  # GridError and PresentationError among them
                raise InputError(f"{where}: not a matrix ({exc})") from None
            path = os.path.join(args.outdir, f"class_{count:06d}.g")
            with open(path, "w") as out:
                out.write(script)
            count += 1
    print(f"wrote {count} scripts to {args.outdir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gridgroups",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        for name in _BUDGET_FLAGS:
            p.add_argument("--" + name.replace("_", "-"), type=_positive_int)

    p = sub.add_parser("enumerate", help="stream canonical pairing matrices")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--max-nodes", type=_positive_int, default=None)
    p.add_argument("--checkpoint", default=None,
                   help="write a resumable checkpoint on budget overrun")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify every class of a rank")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--from", dest="from_file", default=None,
                   help="classify matrices from an enumerate output file")
    p.add_argument("--out", default="-")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes classifying runs of consecutive classes")
    p.add_argument("--filter", choices=_FILTERS, default="none",
                   help="restrict to classes passing a structural filter")
    add_budget_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("resume", help="continue an interrupted enumeration")
    p.add_argument("checkpoint")
    p.add_argument("--out", default="-")
    p.add_argument("--classify", action="store_true")
    add_budget_flags(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("table", help="summarise a record file")
    p.add_argument("records")
    p.add_argument("--out", default="-")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("lab", help="matrix-unit and rank-2 verification labs")
    p.add_argument("primes", nargs="*", type=_prime, default=[2, 3, 5])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_lab)

    p = sub.add_parser("export-gap", help="write cross-check scripts per class")
    p.add_argument("records")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_export_gap)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "max_cosets" in vars(args):  # a command that takes budget flags
        args.budgets = _budgets_from_args(args)
    if args.command == "classify":
        if args.from_file is None and None in (args.rows, args.cols):
            parser.error("classify needs --from FILE or both --rows and --cols")
        if args.from_file is not None and (args.rows, args.cols) != (None, None):
            parser.error("--rows and --cols choose a rank to search; they do not apply to --from")
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except InputError as exc:
        parser.exit(1, f"gridgroups {args.command}: error: {exc}\n")
    except BrokenPipeError:
        # the reader closed standard output early (as `| head` does): stop
        # quietly, and point the descriptor at devnull so that the
        # interpreter's last flush of what is left buffered cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
