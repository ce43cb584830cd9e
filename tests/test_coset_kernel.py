"""The eager-coincidence coset enumerator against the union-find kernel it
replaced (`oracles.reference_todd_coxeter`): same status, same number of
cosets defined, the same action table, and for partial runs the same
quotient graph and the same proved equalities.  Watched runs, which may
stop once their pair meets, against the unwatched run of the same kernel."""

from itertools import combinations

import pytest

from gridgroups.abelian import Abelianization, AbelianInvariants
from gridgroups.classify import TC_FIRST_PASS
from gridgroups.coset import UNDEF, CosetTable, todd_coxeter
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import GridDims, parse_matrix
from gridgroups.present import (Presentation, eliminate_generators, free_reduce,
                                generator_families, presentation_from_matrix)

from oracles import reference_todd_coxeter
from reference_tables import HAND_PROOFS, RANK_3x3, RANK_3x5
from test_fpgroup import _hand_proof_presentation


def assert_same_run(pres, max_cosets):
    new = todd_coxeter(pres, max_cosets=max_cosets)
    old = reference_todd_coxeter(pres, max_cosets=max_cosets)
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


def assert_same_outcome(run, plain):
    """Two runs of one presentation end alike: status, cosets defined, and
    the table or the whole graph."""
    assert run.status == plain.status
    assert run.cosets_defined == plain.cosets_defined
    if plain.status == "complete":
        assert run.table.action == plain.table.action
    else:
        assert run.graph == plain.graph


def assert_watched_run(pres, max_cosets, pair, plain=None):
    """A watched run equals the unwatched one (`plain`) when it does not
    stop; when it stops, its pair has met, the pair is equal in the
    unwatched run at the same limit too, and the stopped run defined no
    more cosets than that run.  Returns whether the run stopped."""
    if plain is None:
        plain = todd_coxeter(pres, max_cosets=max_cosets)
    run = todd_coxeter(pres, max_cosets=max_cosets, watch=pair)
    if run.status != "stopped":
        assert_same_outcome(run, plain)
        return False
    # as given, and free-reduced, as the run traces them
    for words in (pair, [free_reduce(w) for w in pair]):
        assert run.equal_words(*words)
        assert plain.equal_words(*words)
    assert run.cosets_defined <= plain.cosets_defined
    return True


def pairs_of(groups):
    """Every pair of two words drawn from one group."""
    return [pair for group in groups for pair in combinations(group, 2)]


def family_watch(dims):
    return pairs_of([w for _, w in fam] for fam in generator_families(dims))


def _class_presentations(cols):
    return [presentation_from_matrix(m) for m in enumerate_pairings(GridDims(3, cols))]


@pytest.fixture(scope="module")
def rank_3x5():
    return _class_presentations(5)


@pytest.fixture(scope="module")
def rank_3x7():
    return _class_presentations(7)


def assert_every_class(presentations, max_cosets, cols):
    """Each class's run against the reference kernel, and a run watching a
    pair of its generator family words against that run.  The classes take
    the pairs in turn, so that every pair is watched."""
    pairs = family_watch(GridDims(3, cols))
    statuses, stopped = set(), []
    for k, pres in enumerate(presentations):
        run = assert_same_run(pres, max_cosets)
        statuses.add(run.status)
        stopped.append(assert_watched_run(pres, max_cosets, pairs[k % len(pairs)], plain=run))
    assert any(stopped) and not all(stopped)
    return statuses


@pytest.mark.parametrize("max_cosets", [TC_FIRST_PASS, 20_000])
def test_every_3x5_class(rank_3x5, max_cosets):
    assert_every_class(rank_3x5, max_cosets, 5)


@pytest.mark.parametrize("max_cosets", [TC_FIRST_PASS, 20_000])
def test_every_3x7_class(rank_3x7, max_cosets):
    statuses = assert_every_class(rank_3x7, max_cosets, 7)
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


HAND_WRITTEN = [Presentation(("x",), ((1,) * 5,)), Presentation(("x",), ((1,),)),
                Presentation(("x", "y"), ((1, 1), (2, 2, 2))),
                Presentation(("x", "y"), ((2, 2),)),
                Presentation(("x", "y"), ((1,) * 8, (2, 2), (1, 2, -1, -2))),
                Presentation(("x",), ((1,) * 11,))]


def test_watched_runs_at_every_budget():
    """Each pair of single letters with the identity, and each pair of
    words of two letters over the first two generators, whose tracing goes
    past row 0."""
    stopped = []
    hand_proofs = [_hand_proof_presentation(text, labels) for text, labels, _, _ in HAND_PROOFS]
    for pres in SMALL + HAND_WRITTEN + hand_proofs:
        gens = range(1, pres.generator_count + 1)
        pairs = pairs_of([[()] + [(g,) for g in gens],
                          [(g, h) for g in gens[:2] for h in gens[:2]]
                          + [(g, -h) for g in gens[:2] for h in gens[:2]]])
        plains = [todd_coxeter(pres, max_cosets=m) for m in range(1, 61)]
        stopped.append(any([assert_watched_run(pres, max_cosets, pair, plain)
                            for pair in pairs
                            for max_cosets, plain in enumerate(plains, 1)]))
    assert any(stopped) and not all(stopped)


def test_a_closed_run_never_stops():
    """x and x^-1 meet in the first scan of <x | x^2>, with coset 1 still
    unscanned, so the run stops there.  A run with every live coset
    scanned reports its outcome, as <x | x> does after its only scan."""
    run = todd_coxeter(Presentation(("x",), ((1, 1),)), watch=((1,), (-1,)))
    assert run.status == "stopped" and run.cosets_defined == 2
    run = todd_coxeter(Presentation(("x",), ((1,),)), watch=((), (1,)))
    assert run.status == "complete" and run.table.coset_count == 1


def test_a_stopped_run_proves_its_pair_as_given():
    """<x, y | y^2> watching (y y, x x^-1) stops once y^2 meets the
    identity, with no edge for x defined at coset 0: equal_words must
    free-reduce the pair as the run did to trace it."""
    pair = ((2, 2), (1, -1))
    run = todd_coxeter(Presentation(("x", "y"), ((2, 2),)), max_cosets=50, watch=pair)
    assert run.status == "stopped"
    assert run.graph.neigh[0][0] == UNDEF
    assert run.equal_words(*pair) is True


@pytest.mark.parametrize("matrix_text,labels,word_text,power", HAND_PROOFS)
def test_hand_presentations(matrix_text, labels, word_text, power):
    pres = _hand_proof_presentation(matrix_text, labels)
    for max_cosets in (50, 2000):
        assert_same_run(pres, max_cosets)


def test_hand_written_presentations():
    for pres in HAND_WRITTEN:
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


def test_first_pass_on_the_eliminated_presentation(rank_3x5, rank_3x7):
    """todd_coxeter on the greedy elimination's pass, as classify's first
    pass calls it, against the construction it replaced: the run of the
    pass's presentation, its closed table then rebuilt on the pass.  Same
    status and cosets defined, the same action, and the same element for
    every generator word of both families and each single letter."""
    closed = 0
    for cols, presentations in ((5, rank_3x5), (7, rank_3x7)):
        a_fam, b_fam = generator_families(GridDims(3, cols))
        for pres in presentations:
            eliminated = eliminate_generators(pres)
            run = todd_coxeter(eliminated, max_cosets=TC_FIRST_PASS)
            old = todd_coxeter(eliminated.presentation, max_cosets=TC_FIRST_PASS)
            assert (run.status, run.cosets_defined) == (old.status, old.cosets_defined)
            if old.status != "complete":
                continue
            closed += 1
            t = old.table
            table = CosetTable(t.ngens, t.action, eliminated)
            assert run.table.action == table.action
            words = [w for _, w in a_fam + b_fam] \
                + [w for g in range(1, pres.generator_count + 1) for w in ((g,), (-g,))]
            assert [run.table.element(w) for w in words] == [table.element(w) for w in words]
    assert closed > 0
