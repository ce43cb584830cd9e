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
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .classify import (_forces_syntactic, classify_matrix, record_to_json,
                       structural_flags)
from .enumerate import (EnumerationBudgetExceeded, EnumerationConfig,
                        SearchCheckpoint, enumerate_pairings, read_checkpoint,
                        resume, split_frontier, write_checkpoint)
from .grid import GridDims, PairingMatrix, format_matrix, parse_matrix
from .groupring import matrix_unit_lab, rank2_inverse, rank2_zero_divisor
from .present import format_word, presentation_from_matrix
from .wordprob import Budgets

PROFILE_ENV = "GRIDGROUPS_PROFILE"

_PROFILES = {
    "default": Budgets(),
    "quick": Budgets(max_cosets=20_000, kb_max_rules=1500, hom_nodes=20_000),
    "deep": Budgets(max_cosets=1_000_000, kb_max_rules=20_000, kb_max_len=60,
                    hom_nodes=500_000),
}


_BUDGET_FLAGS = ("max_cosets", "kb_max_rules", "kb_max_len", "torsion_word_len")


def _budgets_from_args(args, base: Budgets) -> Budgets:
    return replace(base, **{name: getattr(args, name) for name in _BUDGET_FLAGS
                            if getattr(args, name) is not None})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _out_stream(path: Optional[str], mode: str = "w"):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, mode), True


# ---------------------------------------------------------------------------
# enumerate

def cmd_enumerate(args) -> int:
    dims = GridDims(args.rows, args.cols)
    out, close = _out_stream(args.out)
    try:
        config = EnumerationConfig(max_nodes=args.max_nodes,
                                   split_depth=args.split_depth)
        try:
            for mat in enumerate_pairings(dims, config):
                out.write(format_matrix(mat).replace("\n", " / ") + "\n")
        except EnumerationBudgetExceeded as exc:
            if args.checkpoint:
                write_checkpoint(exc.checkpoint, args.checkpoint)
                print(f"budget exhausted; checkpoint written to {args.checkpoint}",
                      file=sys.stderr)
                return 3
            raise
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# classify

_FILTERS = ("none", "connected", "subgrid-free", "mirror", "non-mirror")


def _filtered(mats: Iterable[PairingMatrix],
              name: str) -> Iterable[tuple[PairingMatrix, Optional[dict]]]:
    """The classes that pass the filter, each with its structural flags when
    the filter computed them (classify_matrix then reuses them)."""
    for mat in mats:
        flags = None
        if name in ("connected", "subgrid-free"):
            flags = structural_flags(mat.pairing())
            if name == "connected":
                passes = flags["row_connected"] and flags["column_connected"]
            else:
                passes = flags["no_proper_invariant_subgrid"]
        elif name in ("mirror", "non-mirror"):
            passes = _forces_syntactic(mat) == (name == "mirror")
        else:
            passes = True
        if passes:
            yield mat, flags


def _classify_worker(task):
    text, budgets_tuple, flags = task
    mat = parse_matrix(text)
    budgets = Budgets(*budgets_tuple)
    return record_to_json(classify_matrix(mat, budgets, flags=flags))


def _iter_records(dims: GridDims, budgets: Budgets, workers: int,
                  split_depth: Optional[int], class_filter: str = "none") -> Iterable[str]:
    if workers <= 1:
        for mat, flags in _filtered(enumerate_pairings(dims), class_filter):
            yield record_to_json(classify_matrix(mat, budgets, flags=flags))
        return
    import multiprocessing as mp

    depth = split_depth if split_depth is not None else min(dims.cols + 2,
                                                            dims.cell_count)
    cp = split_frontier(dims, depth)
    budgets_tuple = (budgets.max_cosets, budgets.kb_max_rules, budgets.kb_max_len,
                     budgets.torsion_word_len, budgets.order_cap,
                     budgets.hom_degree, budgets.hom_nodes)
    mats = (PairingMatrix(dims, flat)
            for item in cp.frontier for flat in _expand_item(dims, cp, item))
    tasks = ((format_matrix(mat), budgets_tuple, flags)
             for mat, flags in _filtered(mats, class_filter))
    with mp.Pool(workers) as pool:
        # chunked imap preserves frontier order: the merged stream is the
        # same as the serial one
        yield from pool.imap(_classify_worker, tasks, chunksize=16)


def _expand_item(dims, cp, item):
    one = SearchCheckpoint(dims, cp.split_depth, [item])
    for mat in resume(one):
        yield mat.flat


def cmd_classify(args) -> int:
    budgets = args.budgets
    out, close = _out_stream(args.out)
    try:
        if args.from_file:
            with open(args.from_file) as fh:
                mats = (parse_matrix(line.strip().replace(" / ", "\n"))
                        for line in fh if line.strip())
                for mat, flags in _filtered(mats, args.filter):
                    out.write(record_to_json(classify_matrix(mat, budgets, flags=flags))
                              + "\n")
            return 0
        dims = GridDims(args.rows, args.cols)
        for line in _iter_records(dims, budgets, args.workers, args.split_depth,
                                  args.filter):
            out.write(line + "\n")
    finally:
        if close:
            out.close()
    return 0


def cmd_resume(args) -> int:
    cp = read_checkpoint(args.checkpoint)
    budgets = args.budgets
    # append: an earlier resume of this checkpoint wrote the records before
    # the ones still to come
    out, close = _out_stream(args.out, "a")
    try:
        for mat in resume(cp):
            if args.classify:
                out.write(record_to_json(classify_matrix(mat, budgets)) + "\n")
            else:
                out.write(format_matrix(mat).replace("\n", " / ") + "\n")
            # the checkpoint never counts a record that is not yet in the file
            out.flush()
            write_checkpoint(cp, args.checkpoint)
    finally:
        if close:
            out.close()
    return 0


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


def summarize(lines: Iterable[str]) -> dict[tuple[int, int], SummaryTable]:
    tables: dict[tuple[int, int], SummaryTable] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
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
    with open(args.records) as fh:
        tables = summarize(fh)
    out, close = _out_stream(args.out)
    try:
        if args.csv:
            out.write(format_table_csv(tables))
        else:
            for dims in sorted(tables):
                out.write(format_table_text(tables[dims]))
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# lab

def cmd_lab(args) -> int:
    out, close = _out_stream(args.out)
    try:
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
    finally:
        if close:
            out.close()
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
    rels = ", ".join(format_word(r, pres.names).replace("*", "*") or "One(f)"
                     for r in pres.relators)
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
    with open(args.records) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            path = os.path.join(args.outdir, f"class_{count:06d}.g")
            with open(path, "w") as out:
                out.write(export_cas_script(doc))
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
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--split-depth", type=int, default=None)
    p.add_argument("--checkpoint", default=None,
                   help="write a resumable checkpoint on budget overrun")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify every class of a rank")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--from", dest="from_file", default=None,
                   help="classify matrices from an enumerate output file")
    p.add_argument("--out", default="-")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--split-depth", type=int, default=None)
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
    p.add_argument("primes", nargs="*", type=int, default=[2, 3, 5])
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
        profile = os.environ.get(PROFILE_ENV, "default")
        if profile not in _PROFILES:
            parser.error(f"unknown {PROFILE_ENV} {profile!r}; "
                         f"valid profiles: {', '.join(_PROFILES)}")
        args.budgets = _budgets_from_args(args, _PROFILES[profile])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
