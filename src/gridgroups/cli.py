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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .classify import (_forces_syntactic, classify_matrix, record_to_json,
                       structural_flags)
# split_frontier stays bound here: the campaign tracer (perfbench/tracer.py)
# wraps the enumeration entry points under their names on this module
from .enumerate import (EnumerationBudgetExceeded, EnumerationConfig,  # noqa: F401
                        SearchCheckpoint, enumerate_pairings, read_checkpoint,
                        resume, split_frontier, write_checkpoint)
from .grid import GridDims, GridError, PairingMatrix, format_matrix, parse_matrix
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


def _leaf_lines(mats: Iterable[PairingMatrix], budgets: Optional[Budgets],
                class_filter: str = "none") -> Iterator[str]:
    """One output line per class that passes the filter: its record, or its
    matrix when there are no budgets to classify with.  Structural flags the
    filter computed are handed on to classify_matrix."""
    for mat in mats:
        flags = None
        if class_filter in ("connected", "subgrid-free"):
            flags = structural_flags(mat.pairing())
            if class_filter == "connected":
                passes = flags["row_connected"] and flags["column_connected"]
            else:
                passes = flags["no_proper_invariant_subgrid"]
        elif class_filter in ("mirror", "non-mirror"):
            passes = _forces_syntactic(mat) == (class_filter == "mirror")
        else:
            passes = True
        if not passes:
            continue
        if budgets is None:
            yield format_matrix(mat).replace("\n", " / ") + "\n"
        else:
            yield record_to_json(classify_matrix(mat, budgets, flags=flags)) + "\n"


def _task_lines(budgets: Budgets, class_filter: str, mats: list[PairingMatrix]) -> list[str]:
    """Worker task: the lines of a run of consecutive classes."""
    return list(_leaf_lines(mats, budgets, class_filter))


def _tasks(mats: Iterable[PairingMatrix]) -> Iterator[list[PairingMatrix]]:
    it = iter(mats)
    while task := list(islice(it, LEAVES_PER_TASK)):
        yield task


def _worker_lines(mats: Iterable[PairingMatrix], budgets: Budgets, class_filter: str,
                  workers: int) -> Iterator[str]:
    """_leaf_lines computed by a pool of workers.  The parent enumerates and
    sends runs of LEAVES_PER_TASK classes; imap returns the workers' blocks
    in task order, so the lines come out in the serial order."""
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        for block in pool.imap(partial(_task_lines, budgets, class_filter), _tasks(mats)):
            yield from block


def _run_campaign(out_path: Optional[str], lines: Iterable[str],
                  checkpoint: Optional[tuple[SearchCheckpoint, str]] = None,
                  mode: str = "w") -> int:
    """The output loop of every campaign.  With a `(checkpoint, path)` the
    output is flushed before the checkpoint is rewritten after each line,
    so the checkpoint never counts a line that is not yet in the file."""
    with _output(out_path, mode) as out:
        for line in lines:
            out.write(line)
            if checkpoint is not None:
                out.flush()
                write_checkpoint(*checkpoint)
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
        if not 0 <= (args.split_depth or 0) <= dims.cell_count:
            raise GridError(f"split depth {args.split_depth} out of range 0..{dims.cell_count}")
    config = EnumerationConfig(max_nodes=args.max_nodes, split_depth=args.split_depth)
    try:
        return _run_campaign(args.out, _leaf_lines(enumerate_pairings(dims, config), None))
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
            mats = enumerate_pairings(GridDims(args.rows, args.cols).require_odd())
    if args.workers > 1:
        lines = _worker_lines(mats, args.budgets, args.filter, args.workers)
    else:
        lines = _leaf_lines(mats, args.budgets, args.filter)
    return _run_campaign(args.out, lines)


def cmd_resume(args) -> int:
    with _checked_input():
        cp = read_checkpoint(args.checkpoint)
    lines = _leaf_lines(resume(cp), args.budgets if args.classify else None)
    # append: an earlier resume of this checkpoint wrote the lines before
    # the ones still to come
    return _run_campaign(args.out, lines, checkpoint=(cp, args.checkpoint), mode="a")


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
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes classifying runs of enumerated classes")
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
    if args.command == "classify":
        if args.from_file is None and None in (args.rows, args.cols):
            parser.error("classify needs --from FILE or both --rows and --cols")
        if args.from_file is not None and args.workers > 1:
            parser.error("--workers splits a rank's search tree; it does not apply to --from")
    try:
        return args.func(args)
    except InputError as exc:
        parser.exit(1, f"gridgroups {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
