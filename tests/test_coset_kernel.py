"""The eager-coincidence coset enumerator against the union-find kernel it
replaced (`oracles.reference_todd_coxeter`): same status, same number of
cosets defined, the same action table, and for partial runs the same
quotient graph and the same proved equalities."""

import pytest

from gridgroups.abelian import Abelianization, AbelianInvariants
from gridgroups.classify import TC_FIRST_PASS
from gridgroups.coset import UNDEF, todd_coxeter
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import GridDims, parse_matrix
from gridgroups.present import Presentation, presentation_from_matrix

from oracles import reference_todd_coxeter
from reference_tables import HAND_PROOFS, RANK_3x3, RANK_3x5
from test_fpgroup import _hand_proof_presentation


def assert_same_run(pres, max_cosets, subgroup=()):
    new = todd_coxeter(pres, subgroup, max_cosets=max_cosets)
    old = reference_todd_coxeter(pres, subgroup, max_cosets=max_cosets)
    assert new.status == old.status
    assert new.cosets_defined == old.cosets_defined
    if old.status == "complete":
        assert new.table.action == old.action
        return new
    graph = new.graph
    live = graph.live()
    quotient = old.graph.quotient()
    assert live == sorted(quotient)
    for c in live:
        row = graph.neigh[c]
        assert row == quotient[c]
        assert all(x == UNDEF or graph.label[x] == x for x in row)
    words = [()] + [(g,) for g in range(1, pres.generator_count + 1)]
    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            assert new.equal_words(w1, w2) == old.equal_words(w1, w2)
    return new


def _class_presentations(cols):
    return [presentation_from_matrix(m) for m in enumerate_pairings(GridDims(3, cols))]


@pytest.fixture(scope="module")
def rank_3x5():
    return _class_presentations(5)


@pytest.fixture(scope="module")
def rank_3x7():
    return _class_presentations(7)


@pytest.mark.parametrize("max_cosets", [TC_FIRST_PASS, 20_000])
def test_every_3x5_class(rank_3x5, max_cosets):
    for pres in rank_3x5:
        assert_same_run(pres, max_cosets)


@pytest.mark.parametrize("max_cosets", [TC_FIRST_PASS, 20_000])
def test_every_3x7_class(rank_3x7, max_cosets):
    statuses = set()
    for pres in rank_3x7:
        statuses.add(assert_same_run(pres, max_cosets).status)
    assert "complete" in statuses and "exhausted" in statuses


SMALL = [
    presentation_from_matrix(parse_matrix(RANK_3x3[0][0])),   # infinite
    presentation_from_matrix(parse_matrix(RANK_3x5[4][0])),   # Dih4
    presentation_from_matrix(parse_matrix(RANK_3x5[6][0])),   # Q8
    Presentation(("x", "y"), ((1,) * 4, (2, 2), (1, 2, 1, 2))),
]


@pytest.mark.parametrize("pres", SMALL)
def test_exhaustion_at_every_budget(pres):
    for max_cosets in range(1, 61):
        assert_same_run(pres, max_cosets)


@pytest.mark.parametrize("subgroup", [[(2,)], [(1,)], [(1, 2)], [(1, 1), (2,)], [(1, -1)]])
def test_subgroup_cases(subgroup):
    dih4 = Presentation(("x", "y"), ((1,) * 4, (2, 2), (1, 2, 1, 2)))
    for max_cosets in (3, 5, 200_000):
        assert_same_run(dih4, max_cosets, subgroup)


@pytest.mark.parametrize("matrix_text,labels,word_text,power", HAND_PROOFS)
def test_hand_presentations(matrix_text, labels, word_text, power):
    pres = _hand_proof_presentation(matrix_text, labels)
    for max_cosets in (50, 2000):
        assert_same_run(pres, max_cosets)


def test_hand_written_presentations():
    for pres in [Presentation(("x",), ((1,) * 5,)), Presentation(("x",), ((1,),)),
                 Presentation(("x", "y"), ((1, 1), (2, 2, 2))),
                 Presentation(("x", "y"), ((2, 2),)),
                 Presentation(("x", "y"), ((1,) * 8, (2, 2), (1, 2, -1, -2))),
                 Presentation(("x",), ((1,) * 11,))]:
        for max_cosets in (6, 100, 200_000):
            assert_same_run(pres, max_cosets)


def test_first_pass_on_one_coset_means_trivial_abelianisation(rank_3x5, rank_3x7):
    """classify_matrix skips the Smith form when the first pass closes on
    one coset; the Smith form agrees that the group is trivial."""
    trivial = 0
    for pres in rank_3x5 + rank_3x7:
        run = todd_coxeter(pres, max_cosets=TC_FIRST_PASS)
        if run.status == "complete" and run.table.coset_count == 1:
            trivial += 1
            assert Abelianization(pres).invariants == AbelianInvariants(0, ())
    assert trivial > 0
