import random

import pytest

from gridgroups.coset import todd_coxeter
from gridgroups.grid import parse_matrix
from gridgroups.groupring import (GroupRingElement, GroupRingError, LabReport,
                                  NOT_INVERTIBLE, SubgroupContext, _rank_mod_p,
                                  _solve_mod_p,
                                  conditional_expectation, gr_add, gr_basis,
                                  gr_mul, gr_one, gr_scal, gr_sub, gr_zero,
                                  matrix_unit_lab, matrix_units, rank2_inverse,
                                  rank2_zero_divisor, verify_direct_finiteness)
from gridgroups.present import Presentation, presentation_from_matrix

from oracles import reference_rank_mod_p, reference_solve_mod_p
from reference_tables import RANK_3x3, RANK_3x5

Z4 = todd_coxeter(Presentation(("x",), ((1, 1, 1, 1),))).table
DIH4 = todd_coxeter(Presentation(("x", "y"), ((1,) * 4, (2, 2), (1, 2, 1, 2)))).table


def rnd_element(p, table, rng, size=3):
    return GroupRingElement(p, table, {rng.randrange(table.coset_count):
                                       rng.randrange(1, p) for _ in range(size)})


class TestArithmetic:
    def test_unit_law(self):
        x = GroupRingElement(2, Z4, {0: 1, 1: 1})
        assert gr_mul(x, gr_one(2, Z4)).coeffs == x.coeffs

    def test_char_two_squaring(self):
        g = Z4.element((1,))
        x = gr_add(gr_one(2, Z4), gr_basis(2, Z4, g))       # 1 + g
        sq = gr_mul(x, x)                                    # 1 + g^2
        assert sq.coeffs == {0: 1, Z4.element((1, 1)): 1}

    def test_published_inverse_pair_in_the_order_four_class(self):
        x1, x2, x3 = (Z4.element(w) for w in ((1,), (1, 1), (1, 1, 1)))
        a = GroupRingElement(2, Z4, {0: 1, x2: 1, x1: 1})
        b = GroupRingElement(2, Z4, {0: 1, x2: 1, x3: 1})
        assert gr_mul(a, b).is_one() and gr_mul(b, a).is_one()

    def test_mismatched_rings_rejected(self):
        with pytest.raises(GroupRingError):
            gr_add(gr_one(2, Z4), gr_one(3, Z4))
        with pytest.raises(GroupRingError):
            gr_mul(gr_one(2, Z4), gr_one(2, DIH4))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ring_axioms_on_random_elements(self, p):
        rng = random.Random(p)
        for _ in range(25):
            x, y, z = (rnd_element(p, DIH4, rng) for _ in range(3))
            assert gr_mul(gr_mul(x, y), z).coeffs == gr_mul(x, gr_mul(y, z)).coeffs
            lhs = gr_mul(x, gr_add(y, z))
            rhs = gr_add(gr_mul(x, y), gr_mul(x, z))
            assert lhs.coeffs == rhs.coeffs
            assert gr_mul(gr_one(p, DIH4), x).coeffs == x.coeffs

    def test_rank_submultiplicative(self):
        rng = random.Random(7)
        for _ in range(25):
            x, y = rnd_element(3, DIH4, rng), rnd_element(3, DIH4, rng)
            assert gr_mul(x, y).rank <= x.rank * y.rank

    def test_rank_one_units(self):
        g = DIH4.element((1,))
        x = gr_basis(5, DIH4, g, 2)
        inv = gr_basis(5, DIH4, DIH4.inverse(g), pow(2, 3, 5))
        assert gr_mul(x, inv).is_one()


class TestConditionalExpectation:
    H = SubgroupContext.generated_by(DIH4, [DIH4.element((1,))])

    def test_inside_support_fixed(self):
        x = GroupRingElement(2, DIH4, {DIH4.element((1,)): 1, 0: 1})
        assert conditional_expectation(x, self.H).coeffs == x.coeffs

    def test_outside_support_killed(self):
        x = gr_basis(2, DIH4, DIH4.element((2,)))
        assert conditional_expectation(x, self.H).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(3)
        for _ in range(20):
            x, y = rnd_element(2, DIH4, rng), rnd_element(2, DIH4, rng)
            ex = conditional_expectation(x, self.H)
            assert conditional_expectation(ex, self.H).coeffs == ex.coeffs
            lhs = conditional_expectation(gr_add(x, y), self.H)
            assert lhs.coeffs == gr_add(ex, conditional_expectation(y, self.H)).coeffs

    def test_bimodule_property(self):
        rng = random.Random(11)
        helems = sorted(self.H.elements)
        for _ in range(20):
            a = GroupRingElement(2, DIH4, {rng.choice(helems): 1 for _ in range(2)})
            b = GroupRingElement(2, DIH4, {rng.choice(helems): 1 for _ in range(2)})
            x = rnd_element(2, DIH4, rng)
            lhs = conditional_expectation(gr_mul(gr_mul(a, x), b), self.H)
            rhs = gr_mul(gr_mul(a, conditional_expectation(x, self.H)), b)
            assert lhs.coeffs == rhs.coeffs

    def test_right_inverse_moves_into_generated_subgroup(self):
        # with ab = 1, restricting b to the subgroup generated by a's
        # support leaves a right inverse
        mat = parse_matrix(RANK_3x5[4][0])
        table = todd_coxeter(presentation_from_matrix(mat)).table
        rows, cols = mat.dims
        a_sup = [0] + [table.element((i,)) for i in range(1, rows)]
        b_sup = [0] + [table.element((rows - 1 + j,)) for j in range(1, cols)]
        a = GroupRingElement(2, table, {g: 1 for g in a_sup})
        b = GroupRingElement(2, table, {g: 1 for g in b_sup})
        assert gr_mul(a, b).is_one()
        H = SubgroupContext.generated_by(table, a_sup)
        eb = conditional_expectation(b, H)
        assert gr_mul(a, eb).is_one()

    def test_non_subgroup_rejected(self):
        with pytest.raises(GroupRingError):
            SubgroupContext(DIH4, frozenset({0, DIH4.element((1,))}))


class TestRank2:
    def test_inverse_example(self):
        inv = rank2_inverse(5, 2, 2)
        assert inv.coeffs == (3, 1)

    def test_unit_coefficient_cases(self):
        assert rank2_inverse(2, 1, 4) == NOT_INVERTIBLE
        assert rank2_inverse(3, 1, 2) == NOT_INVERTIBLE

    def test_zero_coefficient_rejected(self):
        with pytest.raises(GroupRingError):
            rank2_inverse(5, 0, 3)

    def test_zero_divisors(self):
        assert rank2_zero_divisor(2, 1, 2) == (1, 1)
        assert rank2_zero_divisor(3, 1, 3) == (1, 1, 1)
        assert rank2_zero_divisor(5, 4, 2) == (1, 4)

    def test_zero_divisor_requires_torsion_coefficient(self):
        with pytest.raises(GroupRingError):
            rank2_zero_divisor(5, 2, 2)

    @pytest.mark.parametrize("p,r,n", [(7, 2, 3), (11, 3, 5), (13, 5, 4)])
    def test_inverse_verified_by_convolution(self, p, r, n):
        res = rank2_inverse(p, r, n)
        if res == NOT_INVERTIBLE:
            assert pow(r, n, p) == 1
        else:
            assert len(res.coeffs) == n  # verification happened inside


class TestDirectFiniteness:
    @pytest.mark.parametrize("text", [t for t, _, _ in RANK_3x3[1:]])
    def test_small_square_classes(self, text):
        mat = parse_matrix(text)
        table = todd_coxeter(presentation_from_matrix(mat)).table
        rep = verify_direct_finiteness(mat.dims, table)
        assert rep.ab_is_one and rep.ba_is_one

    @pytest.mark.parametrize("text", [t for t, _, _ in RANK_3x5])
    def test_all_3x5_classes(self, text):
        mat = parse_matrix(text)
        table = todd_coxeter(presentation_from_matrix(mat)).table
        rep = verify_direct_finiteness(mat.dims, table)
        assert rep.ab_is_one and rep.ba_is_one

    def test_corrupted_relations_flagged(self):
        # drop one relator: the support sums no longer multiply to one
        mat = parse_matrix(RANK_3x3[1][0])
        pres = presentation_from_matrix(mat)
        broken = Presentation(pres.names, pres.relators[:-1])
        run = todd_coxeter(broken, max_cosets=50_000)
        if run.status == "complete":
            rep = verify_direct_finiteness(mat.dims, run.table)
            assert not rep.ab_is_one


class TestLabs:
    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_symmetric_branch_runs(self, p):
        rep = matrix_unit_lab(p)
        s3 = [c for c in rep.checks if c.branch == "S3"]
        assert all(c.status == "pass" for c in s3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_dihedral_branch_runs(self, p):
        rep = matrix_unit_lab(p)
        dih = [c for c in rep.checks if c.branch == "Dih4"]
        assert all(c.status == "pass" for c in dih)

    def test_characteristic_case_split(self):
        rep2 = matrix_unit_lab(2)
        assert any(c.branch == "Dih4" and c.status == "skip" for c in rep2.checks)
        rep3 = matrix_unit_lab(3)
        assert any(c.branch == "S3" and c.status == "skip" for c in rep3.checks)
        assert rep2.all_passed() and rep3.all_passed()

    def test_matrix_units_multiply_like_matrix_units(self):
        for p, branch in [(2, "S3"), (5, "S3"), (3, "Dih4"), (7, "Dih4")]:
            table, (e11, e12, e21, e22) = matrix_units(p, branch)
            assert gr_mul(e11, e11).coeffs == e11.coeffs
            assert gr_mul(e12, e21).coeffs == e11.coeffs
            assert gr_mul(e21, e12).coeffs == e22.coeffs
            assert gr_mul(e11, e22).is_zero()
            assert gr_mul(e12, e12).is_zero()
            q = gr_add(e11, e22)
            assert gr_mul(q, q).coeffs == q.coeffs

    @pytest.mark.parametrize("p, branch", [(3, "S3"), (2, "Dih4")])
    def test_matrix_units_give_the_labs_reason(self, p, branch):
        # the characteristic the lab skips for the branch: no projection exists
        reason = next(c.detail for c in matrix_unit_lab(p).checks
                      if c.branch == branch and c.status == "skip")
        assert reason == f"division by {p} unavailable in characteristic {p}"
        with pytest.raises(GroupRingError) as exc:
            matrix_units(p, branch)
        assert str(exc.value) == reason

    @pytest.mark.parametrize("branch", ["foo", "s3", "Dih5", ""])
    def test_matrix_units_reject_an_unknown_branch(self, branch):
        with pytest.raises(GroupRingError, match="unknown branch"):
            matrix_units(5, branch)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_matrix_units_reject_a_non_prime(self, p):
        # as the lab does: over Z/9 the Dih4 system used to come back with
        # e21 = e22 = 0, and over Z/1 with all four units zero
        with pytest.raises(GroupRingError, match="not prime"):
            matrix_units(p, "Dih4")


class TestLinearAlgebraModP:
    """Rank and solve share one row reduction; the oracles are the two
    Gauss-Jordan loops it replaced."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ranks_and_solutions_match_the_replaced_eliminations(self, p):
        rng = random.Random(100 + p)
        inconsistent = solved = 0
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            # entries outside 0..p-1, and often rank-deficient
            rows = [[rng.randint(-2 * p, 2 * p) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.5 and n > 1:
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1 % (n - 1)])]
            assert _rank_mod_p(rows, p) == reference_rank_mod_p(rows, p)
            rhs = [rng.randint(-p, p) for _ in range(m)]
            sol = _solve_mod_p(rows, rhs, p)
            assert sol == reference_solve_mod_p(rows, rhs, p)
            if sol is None:
                inconsistent += 1
            else:
                solved += 1
                assert all(sum(x * row[i] for x, row in zip(sol, rows)) % p == rhs[i] % p
                           for i in range(m))
        assert inconsistent > 0 and solved > 0

    def test_rank_of_no_rows(self):
        assert _rank_mod_p([], 3) == reference_rank_mod_p([], 3) == 0


class TestCornerEmbedding:
    def test_two_by_two_matrices_over_the_group_ring_stay_finite(self):
        # embed M2(F2[Z2]) unitally into F2[Z2 x S3] via the matrix units and
        # transport a one-sided inverse pair across
        p = 2
        _, units = matrix_units(p, "S3")
        big = todd_coxeter(Presentation(
            ("t", "a", "b"),
            ((1, 1), (1, 2, -1, -2), (1, 3, -1, -3),
             (2, 2, 2), (3, 3), (2, 3, 2, 3)))).table
        assert big.coset_count == 12

        def lift(zp_poly, unit):
            # zp_poly: coefficients (c0, c1) of c0 + c1*t; unit lives in F2[S3]
            out = {}
            for eps, c in enumerate(zp_poly):
                if not c:
                    continue
                for s3_elt, d in unit.coeffs.items():
                    w = ((1,) * eps) + tuple(
                        x + 1 if x > 0 else x - 1 for x in _s3_word(s3_elt))
                    g = big.element(w)
                    out[g] = (out.get(g, 0) + c * d) % p
            return GroupRingElement(p, big, out)

        from gridgroups.groupring import _group_table, _S3
        s3 = _group_table("S3", _S3)

        def _s3_word(elt):
            return s3.element_words()[elt]

        e11, e12, e21, e22 = units

        def embed(mat2, scalar):
            acc = gr_zero(p, big)
            for entry, unit in zip(mat2, (e11, e12, e21, e22)):
                acc = gr_add(acc, lift(entry, unit))
            corner_unit = gr_add(lift((1, 0), e11), lift((1, 0), e22))
            comp = gr_sub(gr_one(p, big), corner_unit)
            return gr_add(acc, gr_scal(scalar, comp))

        # c = [[1, 1+t],[0, 1]] squares to the identity in characteristic two
        c = ((1, 0), (1, 1), (0, 0), (1, 0))
        a = embed(c, 1)
        assert gr_mul(a, a).is_one()