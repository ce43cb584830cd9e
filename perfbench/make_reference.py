"""Rebuild the per-class references in perfbench/data/ from the current code.

    python3 perfbench/make_reference.py

Each reference lists every class a workload can draw, keyed by its canonical
matrix, with the record fields the benchmark checks (see common.signature)
and the class's classification time, which the sampler stratifies by.  The
references are meant to be built once, at the commit that defines the
benchmark, so later changes are checked against that commit's verdicts.
rank-3x7 also pins the summary-table row.  degenerate-3x9 covers all
215 824 rank-3x9 classes (about 10 CPU minutes); mirror-5x5 holds the whole
rank-5x5 mirror-form pool.
"""

from __future__ import annotations

import argparse
import json
import lzma
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


def _budgets():
    from gridgroups.wordprob import Budgets
    return Budgets(max_cosets=common.MAX_COSETS, kb_max_rules=common.KB_MAX_RULES)


def _classify_flats(task):
    """Worker: (dims, flats) -> [(key, record line, ms)] in input order."""
    common.require_source()
    from gridgroups.classify import classify_matrix, record_to_json
    from gridgroups.grid import GridDims, PairingMatrix
    dims, flats = task
    budgets = _budgets()
    out = []
    for flat in flats:
        t0 = time.perf_counter()
        line = record_to_json(classify_matrix(PairingMatrix(GridDims(*dims), flat), budgets))
        out.append((common.class_key(flat), line, (time.perf_counter() - t0) * 1e3))
    return out


def _expand_nodes(task):
    """Worker: (dims, depth, nodes) -> flats of every leaf below the nodes."""
    common.require_source()
    from gridgroups.enumerate import SearchCheckpoint, resume
    from gridgroups.grid import GridDims
    dims, depth, nodes = task
    return [m.flat for m in resume(SearchCheckpoint(GridDims(*dims), depth, list(nodes)))]


def _chunks(seq, size):
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def _classes(pool, dims, depth, nodes, keep=None, chunk=40):
    flats = [f for part in pool.imap(_expand_nodes,
                                     [(dims, depth, c) for c in _chunks(nodes, chunk)])
             for f in part]
    if keep is not None:
        flats = [f for f in flats if keep(f)]
    rows = [r for part in pool.imap(_classify_flats,
                                    [(dims, c) for c in _chunks(flats, 200)])
            for r in part]
    return rows


def _write(workload, rows, extra):
    sigs: dict[str, int] = {}
    classes = []
    for key, line, ms in rows:
        s = sigs.setdefault(common.signature(json.loads(line)), len(sigs))
        classes.append([key, s, float(f"{ms:.2g}")])
    doc = {"workload": workload,
           "budgets": {"max_cosets": common.MAX_COSETS, "kb_max_rules": common.KB_MAX_RULES},
           **extra, "signatures": list(sigs), "classes": classes}
    os.makedirs(common.DATA, exist_ok=True)
    with lzma.open(common.reference_path(workload), "wb", preset=9) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode())
    print(f"{workload}: {len(classes)} classes, {len(sigs)} signatures", file=sys.stderr)


def build(workload: str, pool) -> None:
    from gridgroups.cli import format_table_csv, summarize
    from gridgroups.enumerate import split_frontier
    from gridgroups.grid import GridDims
    if workload == "rank-3x7":
        dims = (3, 7)
        cp = split_frontier(GridDims(*dims), 0)
        rows = _classes(pool, dims, 0, cp.frontier)
        table = format_table_csv(summarize(line for _, line, _ in rows))
        _write(workload, rows, {"table_row": table.splitlines()[1]})
    elif workload == "degenerate-3x9":
        dims = (3, 9)
        cp = split_frontier(GridDims(*dims), common.SPLIT_3x9)
        _write(workload, _classes(pool, dims, common.SPLIT_3x9, cp.frontier), {})
    elif workload == "mirror-5x5":
        dims = (5, 5)
        cp = split_frontier(GridDims(*dims), common.SPLIT_5x5)
        nodes = [f for f in cp.frontier if all(1 <= f[c] <= 4 for c in (5, 10, 15))]
        rows = _classes(pool, dims, common.SPLIT_5x5, nodes, chunk=8,
                        keep=lambda f: common.is_mirror(f, 5, 5))
        _write(workload, rows, {})
    else:
        raise SystemExit(f"unknown workload {workload}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    common.require_source()
    os.environ["PYTHONPATH"] = common.child_env()["PYTHONPATH"]
    with mp.get_context("spawn").Pool(os.cpu_count() or 1) as pool:
        for workload in ("rank-3x7", "degenerate-3x9", "mirror-5x5"):
            build(workload, pool)
    return 0


if __name__ == "__main__":
    sys.exit(main())
