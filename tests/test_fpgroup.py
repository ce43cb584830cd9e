import random
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gridgroups import classify as classify_module
from gridgroups.abelian import (Abelianization, AbelianInvariants,
                                abelian_invariants, smith_normal_form)
from gridgroups.classify import family_pairing
from gridgroups.coset import CosetTable, fingerprint, todd_coxeter
from gridgroups.enumerate import EnumerationConfig, enumerate_pairings
from gridgroups.grid import GridDims, format_matrix, parse_matrix
from gridgroups.present import (Presentation, PresentationError, concat,
                                eliminate_generators, format_presentation,
                                format_word, free_reduce, generator_families, invert,
                                parse_presentation, parse_word,
                                presentation_from_matrix, simplify_presentation)
from gridgroups import rewrite as rewrite_module
from gridgroups.rewrite import RewriteSystem
from gridgroups.smallgroups import catalog, identify_small_group
from gridgroups.wordprob import Budgets, GroupToolbox, hom_targets, search_hom

from oracles import (AllPairsRewriteSystem, BucketRewriteSystem, TailBuckets,
                     closure_search_hom, composed_eval, invariant_factors_by_minors,
                     invariants_from_order_counts, reference_eliminate_generators,
                     reference_fingerprint, reference_simplify_presentation)
from reference_tables import (HAND_PROOFS, MIRROR_5x5_SLICE, RANK_3x3, RANK_3x5,
                              RANK_3x7_INFINITE, mirror_5x5_text)


def _hand_proof_presentation(matrix_text, labels):
    """Relators of the named labels only, with the two support families
    identified (the mirror form pins b_k = a_k)."""
    mat = parse_matrix(matrix_text)
    rows, cols = mat.dims
    where = {}
    for idx, v in enumerate(mat.flat):
        if v > 0:
            where.setdefault(v, []).append(divmod(idx, cols))
    rels = []
    for label in labels:
        (i, j), (k, l) = where[label]

        def gen(x):
            return (x,) if x else ()

        rels.append(concat(gen(i), gen(j), invert(gen(l)), invert(gen(k))))
    return Presentation(tuple(f"a{i}" for i in range(1, rows)), tuple(rels))


class TestWords:
    def test_free_reduction(self):
        assert free_reduce((1, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, -1)) == ()

    def test_parse_format_round_trip(self):
        names = ("a1", "b2")
        for text in ("a1*b2*a1^-1", "a1^3", "b2^-2*a1", "1"):
            w = parse_word(text, names)
            assert format_word(w, names) == text

    def test_presentation_text_round_trip(self):
        pres = Presentation(("a1", "b1"), ((1, 2, -1, -2), (2, 2)))
        text = format_presentation(pres)
        assert parse_presentation(text) == pres
        assert format_presentation(parse_presentation(text)) == text

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(PresentationError):
            Presentation(("x",), ((2,),))


class TestPresentationFromPairing:
    def test_identity_elision(self):
        # the pair {(0,1),(1,0)} alone forces b1 = a1
        mat = parse_matrix(RANK_3x3[0][0])
        pres = presentation_from_matrix(mat)
        assert pres.names == ("a1", "a2", "b1", "b2")
        assert pres.relators[0] == (3, -1)  # b1 * a1^-1

    def test_second_class_is_order_four_cyclic(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[1][0]))
        run = todd_coxeter(pres)
        assert run.status == "complete"
        assert run.table.coset_count == 4
        t = run.table
        x = t.element((2,))          # a2 generates
        assert t.element((1,)) == t.mult(x, x)   # a1 = a2^2

    def test_dihedral_class(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x5[4][0]))
        run = todd_coxeter(pres)
        assert run.table.coset_count == 8
        name, _ = identify_small_group(fingerprint(run.table, abelian_invariants(pres)))
        assert name == "Dih4"

    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_built_presentations_need_no_check(self, cols):
        """The presentations the program builds itself skip Presentation's
        free reduction and range check: on every class of rank 3 x cols the
        grid presentation and its eliminated presentation equal their
        validated copies, and the grid relators are the family words'."""
        a_fam, b_fam = generator_families(GridDims(3, cols))
        for mat in enumerate_pairings(GridDims(3, cols)):
            pres = presentation_from_matrix(mat)
            eliminated = eliminate_generators(pres).presentation
            for built in (pres, eliminated):
                assert Presentation(built.names, built.relators) == built, format_matrix(mat)
            cells = mat.cells_by_label()
            assert pres.relators == tuple(
                free_reduce(a_fam[i][1] + b_fam[j][1] + invert(a_fam[k][1] + b_fam[l][1]))
                for (i, j), (k, l) in (cells[label] for label in sorted(cells)))


class TestToddCoxeter:
    def test_cyclic_order_five(self):
        run = todd_coxeter(Presentation(("x",), ((1,) * 5,)))
        assert run.status == "complete" and run.table.coset_count == 5

    def test_trivial_presentation(self):
        run = todd_coxeter(Presentation(("x",), ((1,),)))
        assert run.table.coset_count == 1

    def test_subgroup_index(self):
        dih4 = Presentation(("x", "y"), ((1,) * 4, (2, 2), (1, 2, 1, 2)))
        run = todd_coxeter(dih4, subgroup=[(2,)])
        assert run.status == "complete" and run.table.coset_count == 4

    def test_budget_is_a_status_not_an_error(self):
        free = presentation_from_matrix(parse_matrix(RANK_3x3[0][0]))
        run = todd_coxeter(free, max_cosets=50)
        assert run.status == "exhausted"
        assert run.table is None

    def test_closed_table_traces_all_relators_to_identity(self):
        for text, _, _ in RANK_3x5[:4]:
            pres = presentation_from_matrix(parse_matrix(text))
            run = todd_coxeter(pres)
            assert run.table.check_closed()

    def test_partial_run_certifies_equalities(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[0][0]))
        run = todd_coxeter(pres, max_cosets=200)
        assert run.status == "exhausted"
        # b1 = a1 is a defining relation: the partial graph already knows it
        assert run.equal_words((3,), (1,)) is True
        assert run.equal_words((1,), (2,)) is None


class TestSmith:
    def test_known_diagonal(self):
        mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        diag, _ = smith_normal_form(mat)
        # gcds of k x k minors: 2, 4, 624 -> invariant factors 2, 2, 156
        assert diag == [2, 2, 156]
        assert diag == invariant_factors_by_minors(mat)

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_minor_gcd_oracle(self, rows):
        diag, _ = smith_normal_form(rows)
        expect = invariant_factors_by_minors(rows)
        got = [abs(d) for d in diag if d != 0]
        assert got == expect

    def test_divisibility_chain(self):
        diag, _ = smith_normal_form([[4, 0], [0, 6]])
        assert diag == [2, 12]

    def test_column_transform_tracks_coordinates(self):
        pres = Presentation(("x", "y"), ((1, 1, 2, 2),))  # x^2 y^2 = 1
        ab = Abelianization(pres)
        assert ab.invariants == AbelianInvariants(1, (2,))
        # x^2 = y^-2 in the quotient, while x and y^-1 differ by torsion
        assert ab.image((1, 1)) == ab.image((-2, -2))
        assert ab.image((1,)) != ab.image((-2,))
        assert ab.image((1, 2)) != ab.image(())


class TestAbelianInvariants:
    def test_first_class_rank_one_torsion_two(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[0][0]))
        assert abelian_invariants(pres) == AbelianInvariants(1, (2,))

    def test_free_group(self):
        assert abelian_invariants(Presentation(("x", "y"), ())) == AbelianInvariants(2, ())

    @given(st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_adding_relators_only_shrinks(self, seed):
        import random
        rng = random.Random(seed)
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[0][0]))
        word = tuple(rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
                     for _ in range(rng.randint(1, 4)))
        try:
            bigger = Presentation(pres.names, pres.relators + (word,))
        except PresentationError:
            return
        a = abelian_invariants(pres)
        b = abelian_invariants(bigger)
        assert b.free_rank <= a.free_rank
        oa, ob = a.group_order(), b.group_order()
        if oa is not None and ob is not None:
            assert oa % ob == 0 or b.free_rank < a.free_rank or ob <= oa

    @pytest.mark.parametrize("cols", [3, 5])
    def test_images_through_eliminated_generators(self, cols):
        """The abelianisation of an eliminated presentation, reading words
        over the original generators through their images, has the raw
        invariants, separates the same words and gives the same words free
        coordinates all zero, on every class of rank 3 x cols."""
        for mat in enumerate_pairings(GridDims(3, cols)):
            text = format_matrix(mat)
            pres = presentation_from_matrix(mat)
            raw = Abelianization(pres)
            eliminated = eliminate_generators(pres)
            through = Abelianization(eliminated.presentation, eliminated.images)
            assert through.invariants == raw.invariants, text
            n = pres.generator_count
            words = [()] + [(g,) for g in range(-n, n + 1) if g] \
                + [(g, h) for g in range(1, n + 1) for h in (1, -2, n)]
            tor = len(raw.invariants.torsion)
            for w in words:
                assert (not any(through.image(w)[tor:])) \
                    == (not any(raw.image(w)[tor:])), (text, w)
            for i, w1 in enumerate(words):
                for w2 in words[i + 1:]:
                    assert (through.image(w1) == through.image(w2)) \
                        == (raw.image(w1) == raw.image(w2)), (text, w1, w2)

    def test_order_counts_round_trip(self):
        # the oracle behind reference_fingerprint: Z4 x Z2 from its element orders
        inv = invariants_from_order_counts({1: 1, 2: 3, 4: 4})
        assert inv == AbelianInvariants(0, (2, 4))
        inv = invariants_from_order_counts({1: 1, 2: 1, 3: 2, 6: 2})
        assert inv == AbelianInvariants(0, (6,))


def check_simplification(pres):
    """simplify_presentation gives the presentation and images of the pass
    it replaced, which substituted into every image on each round."""
    sp = simplify_presentation(pres)
    new = sp.presentation
    assert Presentation(new.names, new.relators) == new  # built without the check
    assert sp == reference_simplify_presentation(pres)


class TestSimplify:
    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_every_class_of_rank_3xn(self, cols):
        for mat in enumerate_pairings(GridDims(3, cols)):
            check_simplification(presentation_from_matrix(mat))

    def test_the_mirror_pool(self):
        mats = list(enumerate_pairings(GridDims(5, 5), EnumerationConfig(first_column_below=5)))
        assert len(mats) == 1889
        for mat in mats:
            check_simplification(presentation_from_matrix(mat))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=8),
                 min_size=1, max_size=4))))
    def test_random_presentations(self, gens_and_relators):
        n, relators = gens_and_relators
        check_simplification(Presentation(tuple(f"x{k}" for k in range(1, n + 1)),
                                          tuple(tuple(r) for r in relators)))

    def test_images_are_consistent(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x3[1][0]))
        sp = simplify_presentation(pres)
        run = todd_coxeter(pres)
        run2 = todd_coxeter(sp.presentation)
        assert run.table.coset_count == run2.table.coset_count == 4
        # each original generator's image word evaluates to the same element
        t2 = run2.table
        names2 = sp.presentation.names
        for orig_idx, image in enumerate(sp.images):
            elt_order = run.table.order_of(run.table.element((orig_idx + 1,)))
            assert t2.order_of(t2.element(image)) == elt_order


def check_elimination(pres, limit=2000):
    """eliminate_generators gives the presentation and images of the pass it
    replaced, and presents the same group: it keeps the abelian
    invariants; in a closed table of the eliminated presentation every
    original relator, read through the images, is trivial; in a closed table
    of the raw one every eliminated relator is trivial and every generator
    equals its image; and the orders agree.  Whether the eliminated
    presentation closed."""
    sp = eliminate_generators(pres)
    new = sp.presentation
    back = [pres.names.index(name) + 1 for name in new.names]

    def original(word):
        return tuple(back[x - 1] if x > 0 else -back[-x - 1] for x in word)

    assert Presentation(new.names, new.relators) == new  # built without the check
    assert sp == reference_eliminate_generators(pres)
    assert Abelianization(new).invariants == Abelianization(pres).invariants
    assert [sp.images[g - 1] for g in back] == [(k,) for k in range(1, len(back) + 1)]
    run = todd_coxeter(new, max_cosets=limit)
    raw = todd_coxeter(pres, max_cosets=limit)
    if run.status == "complete":
        table = CosetTable(run.table.ngens, run.table.action, new, sp.images)
        assert all(table.element(rel) == 0 for rel in pres.relators)
    if raw.status == "complete":
        t = raw.table
        assert all(t.element(original(rel)) == 0 for rel in new.relators)
        assert all(t.element((g,)) == t.element(original(sp.images[g - 1]))
                   for g in range(1, pres.generator_count + 1))
        if run.status == "complete":
            assert run.table.coset_count == t.coset_count
    return run.status == "complete"


class TestEliminate:
    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_every_class_of_rank_3xn(self, cols):
        mats = list(enumerate_pairings(GridDims(3, cols)))
        closed = sum(check_elimination(presentation_from_matrix(m)) for m in mats)
        assert closed > len(mats) // 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=8),
                 min_size=1, max_size=4))))
    def test_random_presentations(self, gens_and_relators):
        n, relators = gens_and_relators
        pres = Presentation(tuple(f"x{k}" for k in range(1, n + 1)),
                            tuple(tuple(r) for r in relators))
        check_elimination(pres, limit=500)

    def test_no_generator_left(self):
        # y = 1 and x = y: the trivial group, presented with no generator
        pres = parse_presentation("gens x y\nx*y^-1\ny^2*x\ny")
        sp = eliminate_generators(pres)
        assert sp.presentation.generator_count == 0
        assert sp.images == ((), ())
        assert check_elimination(pres)

    def test_one_coset_table_reads_no_image(self):
        """A word's element in a one-coset table is the identity coset, read
        without the images; a bigger table reads each letter's image once."""
        reads = []

        class Images(tuple):
            def __getitem__(self, index):
                reads.append(index)
                return tuple.__getitem__(self, index)

        pres = parse_presentation("gens x y\nx*y^-1\ny^2*x\ny")
        sp = eliminate_generators(pres)
        run = todd_coxeter(sp.presentation)
        one = CosetTable(run.table.ngens, run.table.action, sp.presentation,
                         Images(sp.images))
        assert one.coset_count == 1
        assert one.element((1, 2, -1)) == 0 and reads == []
        pres = parse_presentation("gens x y\nx^3\ny*x^-1")
        sp = eliminate_generators(pres)
        run = todd_coxeter(sp.presentation)
        three = CosetTable(run.table.ngens, run.table.action, sp.presentation,
                           Images(sp.images))
        assert three.coset_count == 3
        assert three.element((1, 2, 2)) == 0 and three.element((2,)) != 0
        assert sorted(reads) == [0, 1]


class TestWordProblem:
    def test_syntactic_equality(self):
        tb = GroupToolbox(Presentation(("x",), ((1, 1, 1, 1),)))
        assert tb.word_equal((1, -1, 1), (1,)).outcome == "equal"

    def test_cyclic_reduction_case(self):
        tb = GroupToolbox(Presentation(("x",), ((1, 1, 1, 1),)))
        v = tb.word_equal((1,), (1, 1, 1, 1, 1))
        assert v.outcome == "equal"

    def test_symmetry_and_consistency(self):
        tb = GroupToolbox(Presentation(("x",), ((1, 1, 1, 1),)))
        pairs = [((1,), (1, 1)), ((1, 1), (1, 1)), ((1,), (1, 1, 1, 1, 1))]
        for w1, w2 in pairs:
            a, b = tb.word_equal(w1, w2), tb.word_equal(w2, w1)
            assert a.outcome == b.outcome

    def test_distinct_by_abelianisation(self):
        pres = Presentation(("x", "y"), ((1, 1), (2, 2, 2)))
        tb = GroupToolbox(pres, Budgets(max_cosets=6))
        assert tb.coset_run().status != "complete"
        v = tb.word_equal((1,), (2,))
        assert v.outcome == "distinct"

    @pytest.mark.parametrize("matrix_text,labels,word_text,power", HAND_PROOFS)
    def test_hand_proved_identities(self, matrix_text, labels, word_text, power):
        pres = _hand_proof_presentation(matrix_text, labels)
        tb = GroupToolbox(pres, Budgets(max_cosets=2000, kb_max_rules=4000))
        word = parse_word(word_text, pres.names)
        v = tb.word_equal(free_reduce(word * power), ())
        assert v.outcome == "equal", v

    def test_one_coset_run_per_limit(self):
        """Each limit gets a run of its own, made once, and a call that names
        no limit reads the last limit named; a lower limit asked after a
        higher one is not answered by the higher run."""
        tb = GroupToolbox(Presentation(("x", "y"), ((1, 1), (2, 2, 2))), Budgets(max_cosets=100))
        default = tb.coset_run()
        assert default.cosets_defined > 50
        lower = tb.coset_run(50)
        assert lower is not default and lower.cosets_defined <= 50
        assert tb.coset_run() is lower
        assert tb.coset_run(100) is default
        assert tb.coset_run() is default
        assert tb.coset_run(50) is lower

    def test_artifacts_are_built_once(self):
        pres = Presentation(("x", "y", "z"), ((1, 2, -3), (1, 1), (2, 2, 2)))
        tb = GroupToolbox(pres, Budgets(max_cosets=100))
        for name in ("eliminated", "abelianization", "simplified", "survivors",
                     "rewriting", "rewriting_simplified"):
            assert getattr(tb, name) is getattr(tb, name), name
        # each simplified generator is the original generator of its name
        assert [pres.names[g - 1] for g in tb.survivors] \
            == list(tb.simplified.presentation.names)
        assert len(tb.survivors) < pres.generator_count

    def test_a_stopped_run_is_not_cached(self):
        """Only a caller that watches sees a stopped run: the toolbox does
        not keep it, so the next call enumerates afresh, and its run equals
        the unwatched run to that limit."""
        pres = Presentation(("x", "y"), ((1, 1), (2, 2, 2), (1, 2, 1, 2)))  # Sym3
        for limit in (5, 100):
            tb = GroupToolbox(pres, Budgets(max_cosets=1000))
            stopped = tb.coset_run(limit, watch=((-2,), (1, 2, 1)))  # y^-1 = xyx
            assert stopped.status == "stopped" and stopped.cosets_defined == 5
            run = tb.coset_run(limit)
            plain = todd_coxeter(pres, max_cosets=limit)
            assert run.status == plain.status == ("complete" if limit == 100 else "exhausted")
            assert run.cosets_defined == plain.cosets_defined
            if run.status == "complete":
                assert run.table.action == plain.table.action
            else:
                assert run.graph == plain.graph
            assert tb.coset_run() is run
        # a stopped run leaves the working limit as it was: the next call
        # that names no limit enumerates to the budgets' limit, not to 5
        tb = GroupToolbox(pres, Budgets(max_cosets=1000))
        assert tb.coset_run(5, watch=((-2,), (1, 2, 1))).status == "stopped"
        assert tb.coset_run().status == "complete"

    def test_hom_targets_are_built_once(self):
        """hom_targets makes its targets once for each degree, and no
        table: a target builds its own on first use, once."""
        entries = catalog()
        fresh = hom_targets.__wrapped__(6)
        assert [t.name for t in fresh] == [e.name for e in entries] + ["Sym3", "Sym4",
                                                                       "Sym5", "Sym6"]
        assert [t.size for t in fresh] \
            == [e.table.coset_count for e in entries] + [6, 24, 120, 720]
        assert not any("tables" in vars(t) for t in fresh)
        for target in (fresh[0], fresh[-4]):
            assert target.tables is target.tables
        first, second = hom_targets(6), hom_targets(6)
        assert all(a is b for a, b in zip(first, second))

    def test_table_evaluation_matches_composition(self):
        """Every target, Sym3-Sym6 included, evaluates a word through its
        table to the value of composing it, one product a letter."""
        import random
        rng = random.Random(11)
        letters = (1, -1, 2, -2, 3, -3)
        words = [w for n in range(5) for w in product(letters, repeat=n)]
        for target in hom_targets(6):
            tuples = [(target.identity,) * 3, (0, 1, 2)] \
                + [tuple(rng.randrange(target.size) for _ in range(3)) for _ in range(4)]
            for images in tuples:
                for w in words:
                    assert target.eval_word(w, images) == composed_eval(target, w, images), \
                        (target.name, images, w)


def _separates_x(target, images):
    return images[0] != target.identity


class TestSearchHom:
    PRESENTATIONS = [
        Presentation(("x", "y"), ((1, 1), (2, 2, 2), (1, 2, 1, 2))),  # Sym3
        Presentation(("x", "y", "z"), ((1, 2, -1, -2), (3, 3), (1, 3, 1, 3, 1, 3))),
        Presentation(("x",), ((1,),)),  # trivial: no separating image anywhere
    ]

    @pytest.mark.parametrize("pres", PRESENTATIONS)
    def test_same_order_and_charges_as_the_closure_search(self, pres):
        targets = hom_targets(4)
        for budget in list(range(1, 120)) + [500, 5000, 50_000]:
            assert search_hom(pres, targets, _separates_x, budget) \
                == closure_search_hom(pres, targets, _separates_x, budget), budget

    def test_a_call_leaves_no_reference_cycle(self):
        import gc
        targets = hom_targets(4)
        gc.collect()
        gc.disable()
        try:
            for pres in self.PRESENTATIONS:
                search_hom(pres, targets, _separates_x, 5000)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestElementOrder:
    def test_identity_word(self):
        tb = GroupToolbox(Presentation(("x",), ((1, 1, 1),)))
        assert tb.element_order(()).value == 1

    def test_inverse_has_same_order(self):
        tb = GroupToolbox(Presentation(("x", "y"), ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2))))
        for w in [(1,), (2,), (1, 2)]:
            assert tb.element_order(w).value == tb.element_order(invert(w)).value

    def test_infinite_order_detected(self):
        tb = GroupToolbox(Presentation(("x", "y"), ((2, 2),)), Budgets(max_cosets=100))
        o = tb.element_order((1,))
        assert o.kind == "infinite"

    def test_order_two_in_first_mirror_block_group(self):
        # the mirror-form 5x5 class whose group has a1*a2^-1 of order 2
        rels = ((1, 1, -3, -3), (1, 2, -1, -2), (1, 3, -2, -3), (1, 4, -3, -2),
                (2, 2, -4, -4), (2, 4, -1, -4), (3, 1, -2, -4), (3, 4, -3, -4))
        tb = GroupToolbox(Presentation(("a1", "a2", "a3", "a4"), rels),
                          Budgets(max_cosets=3000))
        o = tb.element_order((1, -2))
        assert (o.kind, o.value) == ("finite", 2)


class TestIdentify:
    def test_quaternion_pattern(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x5[6][0]))
        fp = fingerprint(todd_coxeter(pres).table, abelian_invariants(pres))
        assert fp.element_orders == ((1, 1), (2, 1), (4, 6))
        assert identify_small_group(fp) == ("Q8", [])

    def test_dihedral_pattern_five_involutions(self):
        pres = presentation_from_matrix(parse_matrix(RANK_3x5[4][0]))
        fp = fingerprint(todd_coxeter(pres).table, abelian_invariants(pres))
        assert dict(fp.element_orders)[2] == 5
        assert identify_small_group(fp)[0] == "Dih4"

    def test_cyclic_eleven(self):
        pres = Presentation(("x",), ((1,) * 11,))
        fp = fingerprint(todd_coxeter(pres).table, abelian_invariants(pres))
        assert identify_small_group(fp)[0] == "Z11"

    def test_catalog_fingerprints_are_pairwise_distinct(self):
        keys = [e.fp.key() for e in catalog()]
        assert len(keys) == len(set(keys))

    def test_order_sixteen_split_extensions_separate(self):
        entries = {e.name: e.fp for e in catalog()}
        a = entries["(Z4xZ2):Z2a"]
        b = entries["(Z4xZ2):Z2b"]
        assert a.abelianization != b.abelianization

    def test_fingerprint_matches_the_derived_subgroup_oracle(self):
        """The fingerprint's abelianisation from the Smith form, and its
        derived order |G| / |G^ab|, against the fingerprint read from the
        derived subgroup (`oracles.reference_fingerprint`), on every catalog
        group, every closed first-pass table of ranks 3x3 to 3x7 and the
        random two-generator presentations of one seed that close."""
        budgets = Budgets(max_cosets=20_000, kb_max_rules=1500)
        checked = 0
        for entry in catalog():
            own = fingerprint(entry.table, abelian_invariants(entry.table.presentation))
            assert entry.fp == own == reference_fingerprint(entry.table)
            checked += 1
        for cols in (3, 5, 7):
            dims = GridDims(3, cols)
            for mat in enumerate_pairings(dims):
                run = classify_module._first_pass(
                    GroupToolbox(presentation_from_matrix(mat), budgets), dims)
                if run.status == "complete":
                    inv = abelian_invariants(run.table.presentation)
                    assert fingerprint(run.table, inv) == reference_fingerprint(run.table), \
                        format_matrix(mat)
                    checked += 1
        rng = random.Random(1)
        closed = 0
        for _ in range(1000):
            relators = tuple(tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 8)))
                             for _ in range(rng.randint(2, 3)))
            pres = Presentation(("x", "y"), relators)
            run = todd_coxeter(pres, max_cosets=300)
            if run.status == "complete":
                assert fingerprint(run.table, abelian_invariants(pres)) \
                    == reference_fingerprint(run.table), relators
                closed += 1
        assert checked > 3000 and closed > 500

    def test_abelian_names_from_invariants(self):
        pres = Presentation(("x", "y"), ((1,) * 8, (2, 2), (1, 2, -1, -2)))
        fp = fingerprint(todd_coxeter(pres).table, abelian_invariants(pres))
        assert identify_small_group(fp)[0] == "Z8 x Z2"


class TestRewritingExtras:
    def test_partial_system_stays_sound(self):
        # budget too small to complete, but reductions still prove equality
        pres = Presentation(("x",), ((1, 1, 1, 1, 1, 1),))
        rs = RewriteSystem(pres, max_rules=3)
        assert not rs.confluent
        assert rs.reduce_word((1,) * 7) == rs.reduce_word((1,))

    def test_language_counts_elements(self):
        rs = RewriteSystem(Presentation(("x", "y"),
                                        ((1, 1, 1), (2, 2), (1, 2, 1, 2))))
        assert rs.confluent
        assert rs.language() == ("finite", 6)

    def test_language_leaves_the_recursion_limit_alone(self):
        import sys
        before = sys.getrecursionlimit()
        rs = RewriteSystem(Presentation(("x", "y"),
                                        ((1, 1, 1), (2, 2), (1, 2, 1, 2))))
        rs.language()
        assert sys.getrecursionlimit() == before

    def test_language_matches_recursive_oracle(self):
        from oracles import reference_language
        systems = [RewriteSystem(Presentation(("x", "y"), rels), max_rules=500)
                   for rels in (((1, 1, 1), (2, 2), (1, 2, 1, 2)),   # Sym3
                                ((2, 2),),                           # Z * Z2
                                ((1, 2, -1, -2),),                   # Z x Z
                                ((1,) * 4, (2, 2), (1, 2, 1, 2)))]   # Dih4
        systems += [RewriteSystem(presentation_from_matrix(parse_matrix(t)), max_rules=500)
                    for t, _, _ in RANK_3x3]
        confluent = [rs for rs in systems if rs.confluent]
        assert {rs.language()[0] for rs in confluent} == {"finite", "infinite"}
        for rs in confluent:
            assert rs.language() == reference_language(rs)

    def test_language_deeper_than_the_recursion_limit(self):
        """The cyclic group of order 2k+1 under shortlex: its automaton has
        a chain of k+1 states, longer here than the default limit."""
        import sys
        from oracles import reference_language
        k = 1500
        rs = RewriteSystem(Presentation(("x",), ((1, 1, 1),)))
        x, X = b"\x00", b"\x01"
        # the confluent system itself: completing x^(2k+1) from scratch
        # takes minutes at this length
        rs._rules = {x + X: b"", X + x: b"", x * (k + 1): X * k, X * (k + 1): x * k}
        rs._index()
        before = sys.getrecursionlimit()
        assert k > before
        assert rs.language() == ("finite", 2 * k + 1)
        assert sys.getrecursionlimit() == before
        assert reference_language(rs) == ("finite", 2 * k + 1)
        assert sys.getrecursionlimit() == before


def _completion_corpus():
    """(name, presentation, max_rules): small groups, every class of ranks
    3x3 and 3x5, the infinite 3x7 classes, the smallest square-family member,
    and a slow 5x5 mirror-form class under a small rule budget, which it
    exhausts, and a larger one, under which the length budget discards
    rules."""
    corpus = [(name, Presentation(("x", "y"), rels), 500) for name, rels in (
        ("Sym3", ((1, 1, 1), (2, 2), (1, 2, 1, 2))),
        ("Dih4", ((1,) * 4, (2, 2), (1, 2, 1, 2))),
        ("Z * Z2", ((2, 2),)),
        ("Z x Z", ((1, 2, -1, -2),)))]
    for rows, cols in ((3, 3), (3, 5)):
        corpus += [(f"{rows}x{cols} #{k}", presentation_from_matrix(mat), 1500)
                   for k, mat in enumerate(enumerate_pairings(GridDims(rows, cols)))]
    corpus += [(f"3x7 infinite #{k}", presentation_from_matrix(parse_matrix(text)), 1500)
               for k, (text, _) in enumerate(RANK_3x7_INFINITE)]
    corpus.append(("family n=2", presentation_from_matrix(family_pairing(2)), 1500))
    slow = presentation_from_matrix(parse_matrix(
        "x 1 2 3 4\n1 5 6 7 8\n2 6 9 10 11\n3 10 7 12 5\n4 11 8 9 12"))
    corpus += [(f"5x5 mirror, {max_rules} rules", slow, max_rules) for max_rules in (200, 600)]
    return corpus


class TestTrieIndex:
    """The trie of reversed left sides against the tail buckets it replaced."""

    def test_every_reduction_matches_the_bucket_oracle(self):
        class CrossChecked(RewriteSystem):
            def __init__(self, *args, **kwargs):
                self._buckets = TailBuckets()
                self.calls = self.skip_calls = 0
                super().__init__(*args, **kwargs)

            def _index(self):
                super()._index()
                self._buckets = TailBuckets(self._rules.items())

            def _add_index(self, lhs, rhs):
                super()._add_index(lhs, rhs)
                self._buckets.add(lhs, rhs)

            def _remove_index(self, lhs):
                super()._remove_index(lhs)
                self._buckets.remove(lhs)

            def reduce(self, letters, skip=None):
                got = super().reduce(letters, skip)
                assert got == self._buckets.reduce(letters, skip), (letters, skip)
                self.calls += 1
                self.skip_calls += skip is not None
                return got

        calls = skip_calls = 0
        outcomes = set()
        for name, pres, max_rules in _completion_corpus():
            rs = CrossChecked(pres, max_rules=max_rules)
            calls += rs.calls
            skip_calls += rs.skip_calls
            outcomes.add((rs.confluent, rs.stats.discarded > 0,
                          rs.stats.rules >= max_rules))
        assert calls > 100_000 and skip_calls > 1000
        # confluent systems, one that discards long rules, one out of rules
        assert outcomes == {(True, False, False), (False, True, False),
                            (False, False, True)}

    def test_completion_matches_bucket_driven_completion(self):
        for name, pres, max_rules in _completion_corpus():
            got = RewriteSystem(pres, max_rules=max_rules)
            want = BucketRewriteSystem(pres, max_rules=max_rules)
            assert got.stats == want.stats, name
            assert got.confluent == want.confluent, name
            assert list(got._rules.items()) == list(want._rules.items()), name

    def test_overlapping_left_sides_keep_the_bucket_tie_break(self):
        """While interreduction runs, several left sides can end at one
        position: the earliest-added one of length >= 2 wins, and a
        one-letter rule only after all of those."""
        rs = RewriteSystem(Presentation(("x", "y"), ()))
        # the longest left side ending in "\x03\x00\x02" came first; the
        # shortest ending in "\x02\x00\x02" did
        rs._rules = {b"\x03\x00\x02": b"\x02", b"\x00\x02": b"\x01", b"\x02": b"",
                     b"\x02\x00\x02": b"\x00\x01", b"\x00": b"", b"\x01\x02": b""}
        rs._index()
        words = [bytes(w) for n in range(6) for w in product(range(4), repeat=n)]
        # deletions in place: inner nodes first, then one that prunes a branch
        for removed in (None, b"\x00\x02", b"\x02", b"\x03\x00\x02"):
            if removed is not None:
                del rs._rules[removed]
                rs._remove_index(removed)
            oracle = TailBuckets(rs._rules.items())
            for w in words:
                for skip in (None, *rs._rules):
                    assert rs.reduce(w, skip) == oracle.reduce(w, skip), (removed, w, skip)


def _traced_completion(cls, pres, max_rules, monkeypatch):
    """A completion with every pair put on its queue, and every reduction
    with its result, in order."""
    queued, reduced = [], []

    class LoggedQueue(deque):
        def append(self, item):
            queued.append(item)
            super().append(item)

    class Traced(cls):
        def reduce(self, letters, skip=None):
            out = super().reduce(letters, skip)
            reduced.append((letters, skip, out))
            return out

    with monkeypatch.context() as m:
        m.setattr(rewrite_module, "deque", LoggedQueue)
        rs = Traced(pres, max_rules=max_rules)
    return rs, queued, reduced


class TestOverlapIndex:
    """Critical pairs from the new left side's letter index against the
    all-pairs scan it replaced (`oracles.AllPairsRewriteSystem`): the same
    pairs queued in the same order, the same reductions, the same rules in
    order, the same stats and the same verdict."""

    @staticmethod
    def assert_same_completion(name, pres, max_rules, monkeypatch):
        got, got_queued, got_reduced = _traced_completion(
            RewriteSystem, pres, max_rules, monkeypatch)
        want, want_queued, want_reduced = _traced_completion(
            AllPairsRewriteSystem, pres, max_rules, monkeypatch)
        assert got_queued == want_queued, name
        assert got_reduced == want_reduced, name
        assert list(got._rules.items()) == list(want._rules.items()), name
        assert got.stats == want.stats, name
        assert got.confluent == want.confluent, name
        return got

    def test_the_completion_corpus(self, monkeypatch):
        outcomes = set()
        for name, pres, max_rules in _completion_corpus():
            rs = self.assert_same_completion(name, pres, max_rules, monkeypatch)
            outcomes.add((rs.confluent, rs.stats.discarded > 0,
                          rs.stats.rules >= max_rules))
        assert outcomes == {(True, False, False), (False, True, False),
                            (False, False, True)}

    def test_the_5x5_mirror_slice(self, monkeypatch):
        for key in MIRROR_5x5_SLICE:
            pres = presentation_from_matrix(parse_matrix(mirror_5x5_text(key)))
            self.assert_same_completion(key, pres, 1500, monkeypatch)
