"""Every count of acceptance criteria 5-7, next to its reference constant.

    PYTHONPATH=src python tests/criteria_report.py RECORDS

RECORDS is the output of `gridgroups classify` at rank 3x11 (criterion 5)
or 5x5 (criteria 6 and 7), at the acceptance budgets.  The script counts
what test_criterion_05_rank_3x11 and test_criterion_06_and_07_rank_5x5
assert, and prints each count beside the constant of reference_tables.py
that the test compares it with.  Unlike the tests it does not stop at the
first mismatch, so one mismatch does not hide the rest.  Exit status 1 when
any row mismatches.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gridgroups.classify import _forces_syntactic  # noqa: E402
from gridgroups.grid import format_matrix, orbit_canonical_form, parse_matrix  # noqa: E402

from reference_tables import (NON_AMENABLE_5x5, RANK_3x11_CLASSES,  # noqa: E402
                              RANK_3x11_INFINITE, RANK_3x11_INFINITE_INVARIANTS,
                              RANK_5x5_BY_ORDER, RANK_5x5_FINITE_ABELIAN,
                              RANK_5x5_FINITE_NONABELIAN, RANK_5x5_FINITE_TOTAL,
                              RANK_5x5_FREQ, RANK_5x5_INFINITE_ABELIAN,
                              RANK_5x5_MIRROR_NONDEG_AT_LEAST,
                              RANK_5x5_MIRROR_NOT_DEGENERATE)

DEGENERATE = '"kind": "degenerate"'  # as record_to_json writes it


def scan(path: str, keep: set[str]) -> tuple[list[dict], int, tuple[int, int]]:
    """The records of `path` that are not degenerate, or whose matrix text
    is in `keep`; the number of records; the dims of the first.  A
    degenerate line is parsed only when it holds a matrix of `keep`."""
    docs = []
    total = 0
    dims = None
    needles = [json.dumps(text) for text in keep]
    with open(path) as fh:
        for line in fh:
            total += 1
            if dims is None:
                dims = tuple(json.loads(line)["dims"])
            if DEGENERATE in line and not any(n in line for n in needles):
                continue
            docs.append(json.loads(line))
    return docs, total, dims


def _row(check: str, run, reference, ok: bool) -> tuple[str, str, str, str]:
    return check, str(run), str(reference), "ok" if ok else "MISMATCH"


def rows_3x11(docs: list[dict]) -> list[tuple]:
    kinds = Counter(d["verdict"]["kind"] for d in docs)
    inv = {(d["abelian_invariants"]["free_rank"], tuple(d["abelian_invariants"]["torsion"]))
           for d in docs if d["verdict"]["kind"] == "infinite"}
    nondeg = kinds["finite"] + kinds["infinite"]
    return [
        _row("crit. 5: undecided", kinds["undecided"], 0, kinds["undecided"] == 0),
        _row("crit. 5: finite + infinite", nondeg, RANK_3x11_CLASSES,
             nondeg == RANK_3x11_CLASSES),
        _row("crit. 5: infinite", kinds["infinite"], RANK_3x11_INFINITE,
             kinds["infinite"] == RANK_3x11_INFINITE),
        _row("crit. 5: invariants of the infinite", sorted(inv),
             sorted(RANK_3x11_INFINITE_INVARIANTS), inv == RANK_3x11_INFINITE_INVARIANTS),
    ]


def rows_5x5(docs: list[dict], curated: list[str]) -> list[tuple]:
    mirror, rest = [], []
    for d in docs:
        (mirror if _forces_syntactic(parse_matrix(d["matrix"])) else rest).append(d)
    rows = []
    not_deg = [d for d in mirror if d["verdict"]["kind"] != "degenerate"]
    proven = [d for d in not_deg if d["verdict"]["kind"] != "undecided"]
    rows.append(_row("crit. 6: mirror-form classes not degenerate", len(not_deg),
                     RANK_5x5_MIRROR_NOT_DEGENERATE,
                     len(not_deg) == RANK_5x5_MIRROR_NOT_DEGENERATE))
    rows.append(_row("crit. 6: of those, proved nondegenerate", len(proven),
                     f">= {RANK_5x5_MIRROR_NONDEG_AT_LEAST}",
                     len(proven) >= RANK_5x5_MIRROR_NONDEG_AT_LEAST))

    undecided = sum(d["verdict"]["kind"] == "undecided" for d in rest)
    rows.append(_row("crit. 7: undecided, not in mirror form", undecided, 0, undecided == 0))
    fins = [d for d in rest if d["verdict"]["kind"] == "finite"]
    abelian = [d for d in fins if d["verdict"]["fingerprint"]["derived_order"] == 1]
    for check, run, ref in (("finite in total", len(fins), RANK_5x5_FINITE_TOTAL),
                            ("finite abelian", len(abelian), RANK_5x5_FINITE_ABELIAN),
                            ("finite nonabelian", len(fins) - len(abelian),
                             RANK_5x5_FINITE_NONABELIAN)):
        rows.append(_row("crit. 7: " + check, run, ref, run == ref))
    freq = Counter(d["verdict"]["name"] for d in fins)
    for name, ref in RANK_5x5_FREQ.items():
        rows.append(_row(f"crit. 7: named {name}", freq[name], ref, freq[name] == ref))
    by_order = Counter((d["verdict"]["order"], d["verdict"]["fingerprint"]["derived_order"] == 1)
                       for d in fins)
    for order, ref in RANK_5x5_BY_ORDER.items():
        run = (by_order[order, True], by_order[order, False])
        rows.append(_row(f"crit. 7: order {order} (abelian, nonabelian)", run, ref, run == ref))
    inf_ab = sum(d["verdict"]["kind"] == "infinite" and d["verdict"]["abelian"] is True
                 for d in rest)
    rows.append(_row("crit. 7: infinite abelian, not in mirror form", inf_ab,
                     RANK_5x5_INFINITE_ABELIAN, inf_ab == RANK_5x5_INFINITE_ABELIAN))
    for i, text in enumerate(curated):
        doc = next((d for d in docs if d["matrix"] == text), None)
        annotated = doc is not None and any("non-amenable" in a for a in doc["annotations"])
        rows.append(_row(f"crit. 7: NON_AMENABLE_5x5[{i}] annotated",
                         "yes" if annotated else "no", "yes", annotated))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: criteria_report.py RECORDS")
    curated = [format_matrix(orbit_canonical_form(parse_matrix(t))) for t in NON_AMENABLE_5x5]
    docs, total, dims = scan(argv[0], set(curated))
    if dims == (3, 11):
        rows = rows_3x11(docs)
    elif dims == (5, 5):
        rows = rows_5x5(docs, curated)
    else:
        sys.exit(f"criteria_report.py: records of rank {dims}; criteria 5-7 "
                 "read rank 3x11 or 5x5")
    print(f"{argv[0]}: {total} records of rank {dims[0]}x{dims[1]}, "
          f"{len(docs)} read in full")
    header = ("check", "run", "reference", "")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if any(r[3] != "ok" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
