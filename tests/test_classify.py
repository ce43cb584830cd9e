import hashlib
import itertools
import json
import lzma
import os
import random
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

from gridgroups import classify as classify_module
from gridgroups import abelian, groupring, smallgroups, wordprob
from gridgroups.abelian import AbelianInvariants
from gridgroups.classify import (ClassificationRecord, classify_matrix,
                                 family_pairing, family_record,
                                 record_to_json, structural_flags,
                                 torsion_quotient_report)
from gridgroups.coset import todd_coxeter
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import (GridDims, GridError, GridSymmetry, PairingMatrix,
                             apply_symmetry, format_matrix,
                             orbit_canonical_form, parse_matrix)
from gridgroups.present import (Presentation, eliminate_generators,
                                family_pairs, first_family_repeat,
                                generator_families, parse_word,
                                presentation_from_matrix)
from gridgroups.wordprob import Budgets, GroupToolbox

from oracles import (nested_family_pairs, reference_degeneracy_partial,
                     reference_first_family_repeat, reference_first_pass,
                     reference_torsion_quotient_report, reference_word_equal)
from reference_tables import (MIRROR_5x5_SLICE, NON_AMENABLE_5x5, RANK_3x3,
                              RANK_3x5, RANK_3x7_INFINITE,
                              RANK_3x9_CLOSED_ONLY_ELIMINATED, mirror_5x5_text)

QUICK = Budgets(max_cosets=20_000, kb_max_rules=1500)

MIRROR_POOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "data", "mirror-5x5.json.xz")

# the 33 classes of the full rank 5x5, in campaign order, that are proved
# infinite by a confluent system with infinitely many normal forms: every
# class whose first pass does not close and that is nondegenerate of free
# rank 0, at the acceptance budgets
CONFLUENT_5x5 = os.path.join(os.path.dirname(__file__), "data", "confluent-5x5.txt")
# sha256 of their records at the acceptance budgets, one line each
CONFLUENT_5x5_SHA256 = "dfd57b0e18c22587f47b32b5614a29d1328caf82567bead457b11c3aa96b5ec7"
# the three of them whose raw system is not confluent: the second
# completion, of the simplified presentation, proves them infinite
NEED_SECOND_COMPLETION = [
    "x 1 2 3 4\n1 5 3 2 6\n7 6 4 8 5\n9 10 11 12 7\n10 9 12 11 8",
    "x 1 2 3 4\n1 5 3 2 6\n7 6 4 8 9\n10 11 5 12 7\n11 10 12 9 8",
    "x 1 2 3 4\n1 5 3 2 6\n7 6 4 8 9\n10 11 9 12 7\n11 10 12 5 8",
]

# a degenerate class of free rank 0 whose group closes over the eliminated
# presentation, so that its first pass makes no run over the raw one
DEGENERATE_FREE_RANK_0 = "x 1 2 3 4\n1 2 5 6 7\n3 6 4 7 5"
# a class whose presentation eliminates to no generators at all
ELIMINATES_TO_NO_GENERATORS = "x 1 2 3 4\n1 2 5 6 7\n3 5 7 4 6"
# the 3x7 class of the alternating group A4, finite on its first pass
FINITE_A4 = "x 1 2 3 4 5 6\n1 2 7 4 8 9 10\n5 10 8 6 9 7 3"


class TestClassify:
    def test_order_four_class(self):
        rec = classify_matrix(parse_matrix(RANK_3x3[1][0]), QUICK)
        assert rec.verdict.kind == "finite"
        assert rec.verdict.order == 4
        assert rec.verdict.name == "Z4"
        assert rec.dfc.ab_is_one and rec.dfc.ba_is_one

    def test_infinite_nonabelian_class(self):
        rec = classify_matrix(parse_matrix(RANK_3x7_INFINITE[0][0]), QUICK,
                              assume_canonical=False)
        assert rec.verdict.kind == "infinite"
        assert rec.verdict.abelian is False
        assert (rec.abelian_invariants.free_rank,
                rec.abelian_invariants.torsion) == RANK_3x7_INFINITE[0][1]

    def test_degenerate_class_carries_witness(self):
        # the first 3x5 canonical class is degenerate: check the witness names
        mats = list(enumerate_pairings(GridDims(3, 5)))
        recs = [classify_matrix(m, QUICK) for m in mats]
        degs = [r for r in recs if r.verdict.kind == "degenerate"]
        assert len(degs) == 67
        for rec in degs[:5]:
            g1, g2, how = rec.verdict.witness
            assert g1 != g2
            assert how

    def test_degenerate_witness_is_checkable(self):
        # re-validate a witness by an independent high-budget prover pass
        rec = None
        for m in enumerate_pairings(GridDims(3, 5)):
            rec = classify_matrix(m, QUICK)
            if rec.verdict.kind == "degenerate":
                break
        pres = presentation_from_matrix(rec.matrix)
        g1, g2, _ = rec.verdict.witness
        tb = GroupToolbox(pres, Budgets(max_cosets=100_000))
        w1 = parse_word(g1, pres.names) if g1 != "1" else ()
        w2 = parse_word(g2, pres.names) if g2 != "1" else ()
        assert tb.word_equal(w1, w2).outcome == "equal"

    def test_classify_accepts_pairing_view(self):
        # a class given as the cell pairs of a symmetry image is classified
        # through its canonical form
        mat = parse_matrix(RANK_3x3[2][0])
        moved = apply_symmetry(mat, GridSymmetry((0, 2, 1), (0, 2, 1)))
        given = PairingMatrix.from_pairs(moved.dims, moved.cells_by_label().values())
        rec = classify_matrix(given, QUICK, assume_canonical=False)
        assert rec.verdict.order == 5
        assert rec.matrix == orbit_canonical_form(mat)

    def test_low_coset_budget_leaves_finite_classes_undecided(self):
        """A confluent system proves a class of free rank 0 infinite, never
        finite.  So with too few cosets to close a table, 25 of the 27
        finite classes of ranks 3x3-3x7 are undecided, the other two keep
        their verdict, and at 20 000 cosets every one gets back the verdict
        and dfc it has at the acceptance budgets."""
        finite = [rec for cols in (3, 5, 7) for mat in enumerate_pairings(GridDims(3, cols))
                  if (rec := classify_matrix(mat, QUICK)).verdict.kind == "finite"]
        assert len(finite) == 27
        low = Budgets(max_cosets=6, kb_max_rules=1500)
        undecided = 0
        for rec in finite:
            got = classify_matrix(rec.matrix, low)
            if got.verdict.kind == "undecided":
                undecided += 1
                assert got.verdict.evidence \
                    == f"enumeration and rewriting budgets exhausted: {low}"
                assert got.dfc is None
            else:
                assert (got.verdict, got.dfc) == (rec.verdict, rec.dfc), format_matrix(rec.matrix)
            got = classify_matrix(rec.matrix, replace(low, max_cosets=20_000))
            assert (got.verdict, got.dfc) == (rec.verdict, rec.dfc), format_matrix(rec.matrix)
        assert undecided == 25

    def test_confluent_infinite_classes_of_rank_5x5(self, monkeypatch):
        """The confluent branch's only traffic in the full rank 5x5: the
        records are pinned, three classes need the second completion, and
        no other class builds it."""
        built = []
        real = GroupToolbox.rewriting_simplified

        def counting(toolbox):
            built.append(toolbox.presentation)
            return real.func(toolbox)

        second = cached_property(counting)
        second.__set_name__(GroupToolbox, "rewriting_simplified")
        monkeypatch.setattr(GroupToolbox, "rewriting_simplified", second)
        with open(CONFLUENT_5x5) as fh:
            mats = [parse_matrix(line.strip().replace(" / ", "\n")) for line in fh]
        assert len(mats) == 33
        digest = hashlib.sha256()
        needing = []
        for mat in mats:
            del built[:]
            rec = classify_matrix(mat, QUICK)
            digest.update((record_to_json(rec) + "\n").encode())
            assert rec.verdict.evidence == "confluent system with infinitely many normal forms"
            if built:
                needing.append(mat)
                assert built == [presentation_from_matrix(mat)]
                assert (rec.verdict.kind, rec.verdict.abelian) == ("infinite", False)
        assert digest.hexdigest() == CONFLUENT_5x5_SHA256
        assert needing == [parse_matrix(text) for text in NEED_SECOND_COMPLETION]

    def test_flags_on_the_3x3_classes(self):
        # the first class pins b1 = a1 and b2 = a2 outright, so it forces the
        # support sums equal; the two cyclic classes have distinct supports
        expected_forces = [True, False, False]
        for (text, _, _), forces in zip(RANK_3x3, expected_forces):
            rec = classify_matrix(parse_matrix(text), QUICK, assume_canonical=False)
            assert rec.row_connected and rec.column_connected
            assert rec.no_proper_invariant_subgrid
            assert rec.forces_a_eq_b is forces

class TestForces:
    """The flag as the record defines it: false off the square; on it, read
    from a closed table, true in mirror form for an open class, else null."""

    MIRROR = "x 1 2 3 4\n1 5 6 7 8\n2 6 5 8 7\n3 9 10 11 12\n4 10 9 12 11"

    def test_mirror_form_forces(self):
        rec = classify_matrix(parse_matrix(self.MIRROR), QUICK)
        assert rec.verdict.kind == "infinite"
        assert rec.forces_a_eq_b is True

    def test_mirror_form_detected_after_row_renumbering(self):
        # first-row labels pair into the first column but not index-matched
        from gridgroups.classify import _forces_syntactic
        from gridgroups.grid import GridSymmetry, apply_symmetry, consecutive_renumbering
        moved = consecutive_renumbering(apply_symmetry(
            parse_matrix(self.MIRROR), GridSymmetry((0, 2, 1, 4, 3), (0, 1, 2, 3, 4))))
        assert _forces_syntactic(moved)
        assert classify_matrix(moved, QUICK, assume_canonical=False).forces_a_eq_b is True

    def test_open_class_off_mirror_form_is_unknown(self):
        # infinite, and not in mirror form: nothing decides the flag
        mat = parse_matrix("x 1 2 3 4\n1 5 3 6 7\n5 7 6 2 8\n9 10 4 11 12\n10 12 11 8 9")
        rec = classify_matrix(mat, QUICK)
        assert rec.verdict.kind == "infinite"
        assert rec.forces_a_eq_b is None

    def test_small_cyclic_class_does_not_force(self):
        rec = classify_matrix(parse_matrix(RANK_3x3[2][0]), QUICK, assume_canonical=False)
        assert rec.forces_a_eq_b is False

    def test_non_square_rejected(self):
        rec = classify_matrix(parse_matrix(RANK_3x5[0][0]), QUICK, assume_canonical=False)
        assert rec.forces_a_eq_b is False


class TestTorsionQuotient:
    def test_finite_group_trivial_quotient(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[1][0]))
        rep = torsion_quotient_report(GroupToolbox(pres, QUICK), GridDims(3, 3))
        assert rep.quotient_abelian is True
        assert rep.collision is not None

    def test_first_infinite_class_collapses_to_free_part(self):
        mat = parse_matrix(RANK_3x3[0][0])
        rep = torsion_quotient_report(GroupToolbox(presentation_from_matrix(mat), QUICK),
                                      GridDims(3, 3))
        assert rep.quotient_abelian is True
        assert rep.collision is not None
        assert rep.torsion_words  # some torsion was found and adjoined

    def test_infinite_nonabelian_3x7_class(self):
        mat = parse_matrix(RANK_3x7_INFINITE[0][0])
        rep = torsion_quotient_report(GroupToolbox(presentation_from_matrix(mat), QUICK),
                                      GridDims(3, 7))
        assert rep.quotient_abelian is True
        assert rep.collision is not None

    def test_family_quotient_collapses_the_first_generator(self):
        # the square family's torsion-free core is free; its map kills a1,
        # so a1 must collide with the identity among the tracked images
        mat = family_pairing(2)
        budgets = Budgets(max_cosets=4000, kb_max_rules=2500)
        rep = torsion_quotient_report(GroupToolbox(presentation_from_matrix(mat), budgets),
                                      GridDims(5, 5))
        assert rep.quotient_abelian is True
        assert rep.collision is not None
        fam, g1, g2 = rep.collision
        assert fam in ("a", "b")

    def test_reused_toolbox_matches_fresh_toolbox_oracle(self):
        """The report built on the class's toolbox, after classify_matrix has
        used it, equals the report on fresh toolboxes, on every infinite
        class of ranks 3x3, 3x5 and 3x7 and on the smallest family member."""
        family_budgets = Budgets(max_cosets=4000, kb_max_rules=2500)
        cases = [(mat, QUICK) for rows, cols in ((3, 3), (3, 5), (3, 7))
                 for mat in enumerate_pairings(GridDims(rows, cols))]
        cases.append((orbit_canonical_form(family_pairing(2)), family_budgets))
        infinite = 0
        for mat, budgets in cases:
            rec = classify_matrix(mat, budgets)
            if rec.verdict.kind != "infinite":
                continue
            infinite += 1
            dims = GridDims(*mat.dims)
            pres = presentation_from_matrix(mat)
            expected = reference_torsion_quotient_report(pres, dims, budgets)
            assert rec.ic == expected, format_matrix(mat)
            assert torsion_quotient_report(GroupToolbox(pres, budgets), dims) == expected
        assert infinite == 4  # one at 3x3, none at 3x5, two at 3x7, the family member

    def test_no_presentation_is_completed_twice(self, monkeypatch):
        completions = Counter()
        real = wordprob.RewriteSystem

        def counting(pres, max_rules):
            completions[pres.relators, max_rules] += 1
            return real(pres, max_rules=max_rules)

        monkeypatch.setattr(wordprob, "RewriteSystem", counting)
        rec = classify_matrix(parse_matrix(RANK_3x7_INFINITE[0][0]), QUICK,
                              assume_canonical=False)
        assert rec.verdict.kind == "infinite" and rec.ic is not None
        assert completions and max(completions.values()) == 1

    def test_one_smith_form_per_presentation(self, monkeypatch):
        """A class takes at most one Smith form for each distinct
        presentation that its path builds a toolbox on.  On an infinite
        class the first pass reads the toolbox's abelianisation, and the
        torsion-quotient report works on that toolbox; on a finite class the
        fingerprint of the closed table reads the same invariants."""
        smallgroups.catalog()  # its fingerprints take Smith forms of their own
        forms = []
        presentations = set()
        real_snf = abelian.smith_normal_form
        real_toolbox = classify_module.GroupToolbox

        def counting(*args, **kwargs):
            forms.append(args[0])
            return real_snf(*args, **kwargs)

        def recording(pres, budgets):
            presentations.add(pres)
            return real_toolbox(pres, budgets)

        monkeypatch.setattr(abelian, "smith_normal_form", counting)
        monkeypatch.setattr(classify_module, "GroupToolbox", recording)
        for text, kind in ((RANK_3x7_INFINITE[0][0], "infinite"),
                           (mirror_5x5_text(MIRROR_5x5_SLICE[0]), "infinite"),
                           (FINITE_A4, "finite")):
            forms.clear()
            presentations.clear()
            rec = classify_matrix(parse_matrix(text), QUICK, assume_canonical=False)
            assert rec.verdict.kind == kind and rec.ic is not None, text
            assert 0 < len(forms) <= len(presentations), text

    def test_no_presentation_is_enumerated_twice_to_one_limit(self, monkeypatch):
        """Counted per (presentation, limit) over the toolbox's runs and the
        first pass's own, over an infinite class and over a degenerate class
        of free rank 0, whose first pass enumerates the eliminated
        presentation and makes no run over the raw one."""
        runs = Counter()
        real = wordprob.todd_coxeter

        def counting(pres, max_cosets, watch=None):
            # the first pass enumerates a Tietze pass: its presentation counts
            runs[getattr(pres, "presentation", pres).relators, max_cosets] += 1
            return real(pres, max_cosets=max_cosets, watch=watch)

        monkeypatch.setattr(wordprob, "todd_coxeter", counting)
        monkeypatch.setattr(classify_module, "todd_coxeter", counting)
        rec = classify_matrix(parse_matrix(RANK_3x7_INFINITE[0][0]), QUICK,
                              assume_canonical=False)
        assert rec.verdict.kind == "infinite" and rec.ic is not None
        assert runs and max(runs.values()) == 1
        runs.clear()
        mat = parse_matrix(DEGENERATE_FREE_RANK_0)
        rec = classify_matrix(mat, QUICK)
        assert rec.verdict.kind == "degenerate"
        assert rec.abelian_invariants.free_rank == 0
        raw = presentation_from_matrix(mat).relators
        assert runs and all(relators != raw for relators, _ in runs)
        assert max(runs.values()) == 1

    def test_final_test_enumerates_further_when_the_first_pass_is_undecided(
            self, monkeypatch):
        """With a two-coset first pass and a four-rule rewriting budget, only
        the enumeration to max_cosets proves the first 3x3 class's quotient
        abelian, so the report's final test must go past its first pass.
        Every report still equals the fresh-toolbox oracle, which enumerates
        to max_cosets at once.  The first case also searches only 100
        homomorphism nodes."""
        monkeypatch.setattr("gridgroups.classify.TC_FIRST_PASS", 2)
        family_budgets = Budgets(max_cosets=4000, kb_max_rules=2500)
        nodes = wordprob.HOM_NODES
        cases = [(parse_matrix(RANK_3x3[0][0]),
                  Budgets(max_cosets=20_000, kb_max_rules=4), 100),
                 (parse_matrix(RANK_3x3[0][0]), QUICK, nodes)]
        cases += [(parse_matrix(text), QUICK, nodes) for text, _ in RANK_3x7_INFINITE]
        cases.append((family_pairing(2), family_budgets, nodes))
        reports = []
        for mat, budgets, hom_nodes in cases:
            monkeypatch.setattr(wordprob, "HOM_NODES", hom_nodes)
            mat = orbit_canonical_form(mat)
            rec = classify_matrix(mat, budgets)
            assert rec.verdict.kind == "infinite", format_matrix(mat)
            expected = reference_torsion_quotient_report(
                presentation_from_matrix(mat), GridDims(*mat.dims), budgets)
            assert rec.ic == expected, format_matrix(mat)
            reports.append(rec.ic)
        assert reports[0].quotient_abelian is True


class TestFirstPass:
    """The first pass that enumerates an eliminated presentation, or stops
    once its watched pair has met, against the unwatched first pass over the
    raw presentation that it replaced (`oracles.reference_first_pass`): the
    same record bytes."""

    @staticmethod
    def records(monkeypatch, mats):
        """Each matrix's record from the first pass and from the oracle, and
        the statuses the first pass ended in.  A stopped first pass must
        decide its class at once: degenerate, with the watched pair as the
        witness, and no further coset run."""
        real = classify_module._first_pass
        ended = Counter()
        runs = []
        stop = []  # the witness a stopped first pass must give, and the runs made by then

        def first_pass(toolbox, dims):
            run = real(toolbox, dims)
            ended[run.status] += 1
            if run.status == "stopped":
                w1, w2 = classify_module._first_unseparated(toolbox.abelianization, dims)
                for fam in generator_families(dims):  # the first that holds both
                    name = {w: n for n, w in fam}
                    if w1 in name and w2 in name:
                        break
                stop.append(((name[w1], name[w2], "coincidence in partial coset enumeration"),
                             len(runs)))
            return run

        def counting(*args, **kwargs):
            runs.append(args)
            return todd_coxeter(*args, **kwargs)

        monkeypatch.setattr(classify_module, "_first_pass", first_pass)
        for module in (classify_module, wordprob, smallgroups, groupring):
            monkeypatch.setattr(module, "todd_coxeter", counting)
        fast = []
        for mat in mats:
            stop.clear()
            fast.append(classify_matrix(mat, QUICK))
            if stop:
                witness, made = stop[0]
                assert fast[-1].verdict.kind == "degenerate", format_matrix(mat)
                assert fast[-1].verdict.witness == witness, format_matrix(mat)
                assert len(runs) == made, format_matrix(mat)
        monkeypatch.setattr(classify_module, "_first_pass", reference_first_pass)
        return fast, [classify_matrix(m, QUICK) for m in mats], ended

    def assert_same_records(self, monkeypatch, mats):
        fast, reference, ended = self.records(monkeypatch, mats)
        for mat, rec, ref in zip(mats, fast, reference):
            assert record_to_json(rec) == record_to_json(ref), format_matrix(mat)
        return ended

    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_every_class_of_rank_3xn(self, monkeypatch, cols):
        ended = self.assert_same_records(monkeypatch,
                                         list(enumerate_pairings(GridDims(3, cols))))
        assert ended["stopped"] > 0 or cols == 3

    def test_a_slice_of_the_5x5_mirror_classes(self, monkeypatch):
        mats = [parse_matrix(mirror_5x5_text(key)) for key in MIRROR_5x5_SLICE]
        ended = self.assert_same_records(monkeypatch, mats)
        assert ended["stopped"] > 0 and ended["exhausted"] > 0

    def test_a_class_that_eliminates_to_no_generators(self, monkeypatch):
        mat = parse_matrix(ELIMINATES_TO_NO_GENERATORS)
        pres = presentation_from_matrix(mat)
        assert eliminate_generators(pres).presentation.generator_count == 0
        toolbox = GroupToolbox(pres, QUICK)
        run = classify_module._first_pass(toolbox, GridDims(3, 5))
        assert run.status == "complete" and run.table.coset_count == 1
        assert toolbox.abelianization.invariants == AbelianInvariants(0, ())
        self.assert_same_records(monkeypatch, [mat])

    def test_classes_that_close_only_when_eliminated(self, monkeypatch):
        """The raw presentation does not close within max_cosets, so the
        oracle proves a1 = a2 by rewriting; the eliminated one closes, and
        the record changes in the witness's provenance alone."""
        mats = [parse_matrix(text) for text in RANK_3x9_CLOSED_ONLY_ELIMINATED]
        fast, reference, ended = self.records(monkeypatch, mats)
        assert ended == {"complete": len(mats)}
        for mat, rec, ref in zip(mats, fast, reference):
            assert rec.verdict.witness == ("a1", "a2", "same element of the closed coset table")
            assert ref.verdict.witness == ("a1", "a2", "common rewriting reduct")
            assert record_to_json(rec) == record_to_json(ref).replace(
                "common rewriting reduct", "same element of the closed coset table"), \
                format_matrix(mat)


# the ten mirror-form 5x5 classes whose witness is not a coincidence: eight
# common rewriting reducts and two identities after generator elimination
MIRROR_5x5_PROVED_WITHOUT_COINCIDENCE = [
    "x 1 2 3 4\n1 5 6 7 8\n2 6 5 8 7\n3 9 10 11 12\n4 10 11 12 9",
    "x 1 2 3 4\n1 5 6 7 8\n2 6 5 8 7\n3 9 10 11 12\n4 10 12 9 11",
    "x 1 2 3 4\n1 5 6 7 8\n2 6 5 8 7\n3 9 10 11 12\n4 11 12 9 10",
    "x 1 2 3 4\n1 5 6 7 8\n2 6 5 8 7\n3 9 10 11 12\n4 11 12 10 9",
    "x 1 2 3 4\n1 5 6 7 8\n2 6 7 8 5\n3 9 10 11 12\n4 12 9 10 11",
    "x 1 2 3 4\n1 5 6 7 8\n2 6 7 8 5\n3 9 10 11 12\n4 12 11 10 9",
    "x 1 2 3 4\n1 5 6 7 8\n2 7 5 8 6\n3 9 10 11 12\n4 11 12 9 10",
    "x 1 2 3 4\n1 5 6 7 8\n2 7 8 5 6\n3 9 10 11 12\n4 11 12 10 9",
    "x 1 2 3 4\n1 5 6 7 8\n2 7 8 5 6\n3 9 10 11 12\n4 12 11 10 9",
    "x 1 2 3 4\n1 5 6 7 8\n2 7 8 6 5\n3 9 10 11 12\n4 11 12 10 9",
]


def _open_first_passes(mats, budgets=QUICK):
    """(matrix, toolbox, first pass) of each class whose first pass does not
    close, on a fresh toolbox as classify_matrix makes it."""
    out = []
    for mat in mats:
        dims = GridDims(*mat.dims)
        toolbox = GroupToolbox(presentation_from_matrix(mat), budgets)
        run = classify_module._first_pass(toolbox, dims)
        if run.status != "complete":
            out.append((mat, toolbox, run))
    return out


def _mirror_pool_slice(count, seed):
    with lzma.open(MIRROR_POOL, "rt") as fh:
        keys = [key for key, *_ in json.load(fh)["classes"]]
    return [parse_matrix(mirror_5x5_text(key))
            for key in sorted(random.Random(seed).sample(keys, count))]


def _word_pairs(rng, pres, count):
    """Seeded pairs of short words; about half of them equal in the group,
    the second word being the first with a relator put in."""
    n = pres.generator_count

    def word(length):
        return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length))

    for _ in range(count):
        w1 = word(rng.randint(0, 4))
        if rng.random() < 0.5:
            cut = rng.randint(0, len(w1))
            w2 = w1[:cut] + rng.choice(pres.relators) + w1[cut:]
        else:
            w2 = word(rng.randint(0, 4))
        yield w1, w2


class TestProofLadder:
    """The degeneracy pass and word_equal share GroupToolbox's search-free
    stages (decide_without_search), in one pair order (family_pairs).  The
    oracles are the two copies of those stages that they replaced, which
    asked the abelianisation at different points."""

    CORPORA = {
        "open-3x7": lambda: _open_first_passes(enumerate_pairings(GridDims(3, 7))),
        "mirror-5x5-slice": lambda: _open_first_passes(_mirror_pool_slice(120, 14)),
        "mirror-5x5-rewriting": lambda: _open_first_passes(
            parse_matrix(text) for text in MIRROR_5x5_PROVED_WITHOUT_COINCIDENCE),
        # budgets so small that word_equal's searches prove the rewriting
        # classes degenerate, and leave a 3x7 class's pairs open
        "low-budgets": lambda: _open_first_passes(
            [parse_matrix(text) for text in MIRROR_5x5_PROVED_WITHOUT_COINCIDENCE]
            + list(enumerate_pairings(GridDims(3, 7))),
            Budgets(max_cosets=300, kb_max_rules=40)),
    }
    # the homomorphism nodes a corpus searches, where not wordprob.HOM_NODES
    HOM_NODES = {"low-budgets": 300}
    # each corpus's size, and the witness evidence that must occur in it
    EXPECTED = {
        "open-3x7": (127, {"coincidence in partial coset enumeration"}),
        "mirror-5x5-slice": (120, {"coincidence in partial coset enumeration"}),
        "mirror-5x5-rewriting": (10, {"common rewriting reduct",
                                      "identical after generator elimination"}),
        "low-budgets": (137, {"common reduct after generator elimination",
                                         "open pairs"}),
    }

    def cases(self, corpus, monkeypatch):
        """The corpus, made and then read at its own homomorphism nodes."""
        monkeypatch.setattr(wordprob, "HOM_NODES",
                            self.HOM_NODES.get(corpus, wordprob.HOM_NODES))
        return self.CORPORA[corpus]()

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_witness_and_open_pairs_match_the_replaced_pass(self, corpus, monkeypatch):
        cases = self.cases(corpus, monkeypatch)
        size, must = self.EXPECTED[corpus]
        assert len(cases) == size
        evidence = set()
        for mat, toolbox, run in cases:
            dims = GridDims(*mat.dims)
            got = classify_module._degeneracy_partial(toolbox, dims, run)
            assert got == reference_degeneracy_partial(toolbox, dims, run), \
                format_matrix(mat)
            if got[0] is not None:
                evidence.add(got[0][2])
            elif got[1]:
                evidence.add("open pairs")
        assert must <= evidence

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_word_equal_matches_the_replaced_ladder(self, corpus, monkeypatch):
        """Same outcome, and for `equal` the same evidence; a `distinct`
        may cite the abelianisation where the old ladder cited confluent
        normal forms."""
        rng = random.Random(7)
        outcomes = Counter()
        for mat, toolbox, _ in self.cases(corpus, monkeypatch):
            toolbox.coset_run(min(classify_module.TC_FIRST_PASS, toolbox.budgets.max_cosets))
            for w1, w2 in _word_pairs(rng, toolbox.presentation, 4):
                got = toolbox.word_equal(w1, w2)
                want = reference_word_equal(toolbox, w1, w2)
                assert got.outcome == want.outcome, (format_matrix(mat), w1, w2)
                if got.outcome == "equal":
                    assert got.evidence == want.evidence, (format_matrix(mat), w1, w2)
                outcomes[got.outcome] += 1
        assert outcomes["equal"] > 0 and outcomes["distinct"] > 0

    @pytest.mark.parametrize("rows", range(3, 8))
    @pytest.mark.parametrize("cols", range(3, 8))
    def test_family_pairs_match_nested_loops(self, rows, cols):
        dims = GridDims(rows, cols)
        assert list(family_pairs(dims)) == nested_family_pairs(dims)
        assert len(family_pairs(dims)) == (rows * (rows - 1) + cols * (cols - 1)) // 2

    def test_first_family_repeat_matches_the_replaced_loops(self):
        """Seeded random keys, from all distinct to all equal in each family,
        give the same repeat as the loops it replaced, on 3x3 through 7x7."""
        rng = random.Random(11)
        for rows, cols in itertools.product(range(3, 8), repeat=2):
            dims = GridDims(rows, cols)
            a_fam, b_fam = generator_families(dims)
            found = Counter()
            for spread_a, spread_b in itertools.product((1, 3, rows + cols, 1000), repeat=2):
                for _ in range(10):
                    # both families' identity word takes its key from a's draw
                    keys = {w: rng.randrange(spread_b) for _, w in b_fam}
                    keys.update((w, rng.randrange(spread_a)) for _, w in a_fam)
                    got = first_family_repeat(dims, keys.__getitem__)
                    assert got == reference_first_family_repeat(dims, keys.__getitem__), keys
                    found[None if got is None else got[0]] += 1
            assert found["a"] and found["b"] and found[None], dims


class TestFamily:
    def test_smallest_family_member(self):
        mat = family_pairing(2)
        assert mat.dims == (5, 5)
        rec = classify_matrix(mat, QUICK, assume_canonical=False)
        assert rec.abelian_invariants == AbelianInvariants(1, (2,))
        assert rec.row_connected and rec.column_connected

    @pytest.mark.parametrize("n,rank", [(2, 1), (3, 2), (4, 3)])
    def test_family_abelianisation(self, n, rank):
        mat = family_pairing(n)
        pres = presentation_from_matrix(mat)
        from gridgroups.abelian import abelian_invariants
        assert abelian_invariants(pres) == AbelianInvariants(rank, (2,))

    def test_relabelling_relations_hold_for_smallest_member(self):
        mat = family_pairing(2)
        pres = presentation_from_matrix(mat)
        tb = GroupToolbox(pres, Budgets(max_cosets=4000, kb_max_rules=2500))
        names = pres.names
        b1 = parse_word("b1", names)
        a1 = parse_word("a1", names)
        assert tb.word_equal(b1, a1).outcome == "equal"
        assert tb.word_equal(parse_word("b2", names),
                             parse_word("a2", names)).outcome == "equal"
        # b4 = t b3 with t = a3^-1 a4
        lhs = parse_word("b4", names)
        rhs = parse_word("a3^-1*a4*b3", names)
        assert tb.word_equal(lhs, rhs).outcome == "equal"

    def test_reduced_generating_relations_hold_for_smallest_member(self):
        # under s = a1^-1 a2 and t = a3^-1 a4, the reduced relation set of
        # the family (involutions, centrality, twisted conjugation) holds
        mat = family_pairing(2)
        pres = presentation_from_matrix(mat)
        tb = GroupToolbox(pres, Budgets(max_cosets=4000, kb_max_rules=2500))
        w = lambda text: parse_word(text, pres.names)
        one = ()
        for lhs, rhs in [
            ("a1^-1*a2*a1^-1*a2", "1"),            # s^2 = 1
            ("a3^-1*a4*a3^-1*a4", "1"),            # t^2 = 1
            ("a1*a1^-1*a2*a1^-1*a2^-1*a1", "1"),   # [a1, s] = 1
            ("a3^-1*a1^-1*a2*a3", "a1"),           # a3^-1 s a3 = a1
            ("a3^-1*a1*a3", "a1*a1^-1*a2"),        # a3^-1 a1 a3 = a1 s = a2
        ]:
            v = tb.word_equal(w(lhs), w(rhs))
            assert v.outcome == "equal", (lhs, rhs, v)

    def test_family_annotation_from_size_three_up(self):
        assert family_record(2, QUICK).record.annotations == ()
        fr = family_record(3, QUICK)
        assert any("non-amenable" in a for a in fr.record.annotations)

    def test_too_small_rejected(self):
        with pytest.raises(GridError):
            family_pairing(1)

    def test_numbering_is_pinned(self):
        # labels run in traversal order; these are the matrices' text digests
        expected = {
            2: "128a6dfe8be0739b3db38d9f8f548bb41e9f61168e6ede8854f38710ed9ec074",
            3: "3add5ce5bd601a138a7e9a59ebfbc7fbc4e4d3ed97aeb7a44874a1826e995d28",
            4: "54be49611f78889fa7fc23acf633a178ed6ad91772a8e4159830d1d391d6814d",
            5: "fff0b1c1579b307dada633b8eb37355275006889fce8e2b45c96a2c560fe1f6a",
        }
        for n, digest in expected.items():
            text = format_matrix(family_pairing(n))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n


class TestFilterFlags:
    def test_recomputation_matches_classify(self):
        for m in enumerate_pairings(GridDims(3, 5)):
            rec = classify_matrix(m, QUICK)
            assert structural_flags(rec.matrix) == dict(
                row_connected=rec.row_connected,
                column_connected=rec.column_connected,
                no_proper_invariant_subgrid=rec.no_proper_invariant_subgrid)

    def test_family_pairing_fully_connected(self):
        rec = classify_matrix(family_pairing(3), QUICK, assume_canonical=False)
        flags = structural_flags(rec.matrix)
        assert flags["row_connected"] and flags["column_connected"]
        assert rec.row_connected and rec.column_connected

    def test_quotient_abelian_records_carry_a_collision(self):
        for dims in [(3, 3), (3, 7)]:
            for m in enumerate_pairings(GridDims(*dims)):
                rec = classify_matrix(m, QUICK)
                if rec.ic is not None and rec.ic.quotient_abelian:
                    assert rec.ic.collision is not None, rec.matrix


class TestAnnotations:
    def test_curated_non_amenable_classes(self):
        for text in NON_AMENABLE_5x5:
            canon = orbit_canonical_form(parse_matrix(text))
            rec = classify_matrix(canon, QUICK)
            assert any("non-amenable" in a for a in rec.annotations)


class TestRecordSerialisation:
    def test_json_round_trips_key_fields(self):
        rec = classify_matrix(parse_matrix(RANK_3x3[1][0]), QUICK)
        doc = json.loads(record_to_json(rec))
        assert doc["dims"] == [3, 3]
        assert doc["verdict"]["order"] == 4
        assert doc["flags"]["forces_a_eq_b"] is False
        assert doc["dfc"] == {"ab_is_one": True, "ba_is_one": True}
        assert parse_matrix(doc["matrix"]).flat == rec.matrix.flat

    def test_byte_determinism(self):
        a = record_to_json(classify_matrix(parse_matrix(RANK_3x3[0][0]), QUICK))
        b = record_to_json(classify_matrix(parse_matrix(RANK_3x3[0][0]), QUICK))
        assert a == b


class TestBudgetMonotonicity:
    def test_doubling_budgets_never_flips_small_rank_verdicts(self):
        low = Budgets(max_cosets=4000, kb_max_rules=600)
        high = Budgets(max_cosets=8000, kb_max_rules=1200)
        for dims in [(3, 3), (3, 5)]:
            for m in enumerate_pairings(GridDims(*dims)):
                a = classify_matrix(m, low).verdict
                b = classify_matrix(m, high).verdict
                if a.kind != "undecided":
                    assert a.kind == b.kind
                    if a.kind == "finite":
                        assert a.order == b.order
