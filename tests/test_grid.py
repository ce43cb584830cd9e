import json
import lzma
import os
import random
import re
from functools import cache
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from gridgroups.grid import (SENTINEL, GridDims, GridError, GridSymmetry,
                             OddDimensionError, PairingMatrix, PartialPairingMatrix,
                             all_symmetries, apply_symmetry, column_connected,
                             consecutive_renumbering, format_matrix,
                             has_smaller_stacked_image, is_consecutive,
                             is_stacked, orbit_canonical_form,
                             parse_matrix, proper_invariant_subgrids,
                             row_connected, _renumber_flat)

from gridgroups import grid as grid_module
from gridgroups.classify import family_pairing, structural_flags
from gridgroups.enumerate import (SearchCheckpoint, enumerate_pairings, resume,
                                  split_frontier)

from oracles import (brute_force_pairing_matrices, brute_canonical, explicit_orbit,
                     reference_canonical_flat, reference_validate_flat,
                     scan_proper_invariant_subgrids, seed_grid_invariant_subgrids)
from reference_tables import NON_AMENABLE_5x5, RANK_3x3, mirror_5x5_text

MIRROR_POOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "data", "mirror-5x5.json.xz")


M1 = parse_matrix(RANK_3x3[0][0])
M2 = parse_matrix(RANK_3x3[1][0])
M3 = parse_matrix(RANK_3x3[2][0])


def _pair_set(mat):
    """The partition a matrix encodes, as a set of cell pairs."""
    return {frozenset(cells) for cells in mat.cells_by_label().values()}


def symmetries_st(dims):
    rows, cols = dims
    return st.tuples(st.permutations(range(1, rows)), st.permutations(range(1, cols))).map(
        lambda rc: GridSymmetry((0,) + tuple(rc[0]), (0,) + tuple(rc[1])))


class TestDims:
    def test_cell_count_and_max_label(self):
        d = GridDims(3, 5)
        assert d.cell_count == 14
        assert d.max_label == 7

    def test_odd_required_for_mod2_pipeline(self):
        with pytest.raises(OddDimensionError):
            GridDims(4, 5).require_odd()
        with pytest.raises(OddDimensionError):
            GridDims(3, 6).require_odd()
        assert GridDims(3, 3).require_odd() == (3, 3)

    def test_even_dims_usable_for_partial_machinery(self):
        m = PartialPairingMatrix(GridDims(4, 4), [-1] + [0] * 15)
        assert m.filled_count == 0
        assert is_stacked(m)


class TestValidation:
    def test_sentinel_required(self):
        with pytest.raises(GridError):
            PairingMatrix(GridDims(3, 3), [1, 1, 2, 1, 3, 4, 2, 4, 3])

    def test_row_repeat_rejected(self):
        with pytest.raises(GridError):
            PartialPairingMatrix(GridDims(3, 3), [-1, 1, 1, 0, 0, 0, 0, 0, 0])

    def test_column_repeat_rejected(self):
        with pytest.raises(GridError):
            PartialPairingMatrix(GridDims(3, 3), [-1, 1, 0, 0, 1, 0, 0, 0, 0])

    def test_label_used_thrice_rejected(self):
        with pytest.raises(GridError):
            PartialPairingMatrix(GridDims(3, 3), [-1, 1, 2, 2, 0, 1, 0, 1, 0])

    def test_complete_requires_every_label_twice(self):
        with pytest.raises(GridError):
            PairingMatrix(GridDims(3, 3), [-1, 1, 2, 1, 3, 4, 2, 3, 4])

    @pytest.mark.parametrize("dims", [(3, 3), (3, 5), (5, 5), (4, 4)])
    def test_one_pass_matches_the_three_pass_validator(self, dims):
        """Seeded corruptions of valid matrices (cells overwritten, swapped
        or zeroed, a truncated list) raise the message the three-pass
        validator raises, or pass where it passes."""
        dims = GridDims(*dims)
        rows, cols = dims
        rng = random.Random(f"validate-{rows}x{cols}")
        if rows % 2 and cols % 2:
            bases = [list(m.flat) for m in islice(enumerate_pairings(dims), 20)]
        else:  # no complete pairing: start from partial matrices
            bases = [[SENTINEL] + list(range(1, cols)) + [0] * (rows * cols - cols)]
        outcomes = set()
        for _ in range(3000):
            flat = list(rng.choice(bases))
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                i = rng.randrange(len(flat))
                if kind < 0.5:
                    flat[i] = rng.randint(-2, dims.max_label + 2)
                elif kind < 0.8:
                    j = rng.randrange(1, len(flat))
                    flat[i], flat[j] = flat[j], flat[i]
                elif kind < 0.97:
                    flat[i] = 0
                else:
                    del flat[i]
            for complete in (True, False):
                want = got = None
                try:
                    reference_validate_flat(dims, flat, complete)
                except GridError as exc:
                    want = str(exc)
                try:
                    grid_module._validate_flat(dims, flat, complete)
                except GridError as exc:
                    got = str(exc)
                assert got == want, (flat, complete)
                outcomes.add(re.sub(r"[-\d, \[\]]+", " ", want or "valid").strip())
        assert {"valid", "label used more than twice", "label repeated in row",
                "label repeated in column"} <= outcomes


class TestLexCompare:
    def test_published_pair_differs_at_first_cell_of_last_row(self):
        assert M1.flat < M2.flat
        assert M1.flat[6] == 2 and M2.flat[6] == 4


class TestRenumbering:
    def test_fixed_point(self):
        assert consecutive_renumbering(M1) == M1

    def test_sequence_relabels_by_first_appearance(self):
        # not a legal pairing matrix (row repeats), so check at sequence level
        assert _renumber_flat([-1, 5, 7, 5, 9, 9, 7, 3, 3]) == [-1, 1, 2, 1, 3, 3, 2, 4, 4]

    def test_idempotent(self):
        m = apply_symmetry(M3, GridSymmetry((0, 2, 1), (0, 1, 2)))
        once = consecutive_renumbering(m)
        assert consecutive_renumbering(once) == once

    @given(sym=symmetries_st((3, 3)))
    def test_preserves_partition(self, sym):
        moved = apply_symmetry(M1, sym)
        m = consecutive_renumbering(moved)
        assert _pair_set(m) == _pair_set(moved)


class TestSymmetry:
    def test_identity(self):
        assert apply_symmetry(M1, GridSymmetry.identity(M1.dims)) == M1

    def test_round_trip(self):
        g = GridSymmetry((0, 2, 1), (0, 2, 1))
        assert apply_symmetry(apply_symmetry(M1, g), g.inverse()) == M1

    @given(sym=symmetries_st((3, 3)))
    def test_inverse_round_trip(self, sym):
        assert apply_symmetry(apply_symmetry(M2, sym), sym.inverse()) == M2

    def test_row_swap_gives_orbit_mate_with_different_numbering(self):
        g = GridSymmetry((0, 2, 1), (0, 1, 2))
        mate = consecutive_renumbering(apply_symmetry(M1, g))
        assert mate != M1
        assert orbit_canonical_form(mate) == orbit_canonical_form(M1)

    def test_must_fix_index_zero(self):
        with pytest.raises(GridError):
            GridSymmetry((1, 0, 2), (0, 1, 2))


class TestStackedConsecutive:
    def test_empty_is_stacked(self):
        m = PartialPairingMatrix(GridDims(3, 3), [-1] + [0] * 8)
        assert is_stacked(m) and is_consecutive(m)

    def test_gap_is_not_stacked(self):
        m = PartialPairingMatrix(GridDims(3, 3), [-1, 1, 2, 1, 0, 3, 0, 0, 0])
        assert not is_stacked(m)

    def test_stunted_leaf_shape(self):
        m = parse_matrix("x 1 2\n1 2 3\n3 4 0")
        assert is_stacked(m) and is_consecutive(m)
        assert m.filled_count == 7


class TestCanonicalForm:
    def test_fixed_point(self):
        c = orbit_canonical_form(M1)
        assert orbit_canonical_form(c) == c

    @given(sym=symmetries_st((3, 3)))
    def test_constant_on_orbits(self, sym):
        moved = consecutive_renumbering(apply_symmetry(M3, sym))
        assert orbit_canonical_form(moved) == orbit_canonical_form(M3)

    def test_published_representatives_pairwise_inequivalent(self):
        forms = {orbit_canonical_form(parse_matrix(t)).flat for t, _, _ in RANK_3x3}
        assert len(forms) == 3

    @pytest.mark.slow
    def test_matches_explicit_orbit_minimum_on_all_3x3(self):
        for mat in brute_force_pairing_matrices(3, 3):
            assert orbit_canonical_form(mat).flat == brute_canonical(mat)

    def test_smaller_image_test_agrees_with_canonical_form_on_3x3(self):
        for mat in brute_force_pairing_matrices(3, 3):
            m = consecutive_renumbering(mat)
            has = has_smaller_stacked_image(m.flat, 3, 3)
            assert has == (m.flat != brute_canonical(mat))

    def test_smaller_image_on_partial_matches_explicit_search(self):
        # stacked prefixes of full 3x3 matrices, checked against brute force
        from gridgroups.grid import _renumber_flat as renum
        for mat in brute_force_pairing_matrices(3, 3):
            flat = consecutive_renumbering(mat).flat
            for k in range(3, 9):
                prefix = list(flat[:k + 1]) + [0] * (8 - k)
                if prefix != _renumber_flat(prefix):
                    continue
                expected = _explicit_has_smaller(prefix, 3, 3, k)
                assert has_smaller_stacked_image(prefix, 3, 3, k) == expected, (prefix, k)


def _explicit_has_smaller(flat, rows, cols, k):
    dims = GridDims(rows, cols)
    base = PartialPairingMatrix(dims, flat)
    for g in all_symmetries(dims):
        img = apply_symmetry(base, g)
        if not is_stacked(img):
            continue
        if _renumber_flat(img.flat) < list(flat):
            return True
    return False


def _random_symmetry(dims, rng):
    rows, cols = dims
    rp, cp = list(range(1, rows)), list(range(1, cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return GridSymmetry((0, *rp), (0, *cp))


def _random_image(mat, rng):
    """The renumbered image of `mat` under a seeded random grid symmetry."""
    return consecutive_renumbering(apply_symmetry(mat, _random_symmetry(mat.dims, rng)))


def _leaf_slice(dims, depth, step, count):
    """The first `count` leaves under every `step`-th node `depth` cells deep."""
    cp = split_frontier(GridDims(*dims), depth)
    return list(islice(resume(SearchCheckpoint(cp.dims, depth, cp.frontier[::step])), count))


def _mirror_pool():
    with lzma.open(MIRROR_POOL, "rt") as fh:
        return [parse_matrix(mirror_5x5_text(key)) for key, *_ in json.load(fh)["classes"]]


# each corpus's builder and size
CANONICAL_FORM_CORPORA = {
    "leaves-3x3-3x7": (lambda: [m for cols in (3, 5, 7)
                                for m in enumerate_pairings(GridDims(3, cols))], 3482),
    "mirror-5x5-pool": (_mirror_pool, 1889),
    "slice-3x9": (lambda: _leaf_slice((3, 9), 19, 64, 200), 200),
    "slice-5x7": (lambda: _leaf_slice((5, 7), 14, 50, 30), 30),
    "family-2-3": (lambda: [family_pairing(2), family_pairing(3)], 2),
    "curated-5x5": (lambda: [parse_matrix(text) for text in NON_AMENABLE_5x5], 2),
}


class TestCanonicalDescent:
    """orbit_canonical_form descends through the pruning test's witnesses;
    `oracles.reference_canonical_flat` is the separate search it replaced."""

    @pytest.mark.parametrize("corpus", sorted(CANONICAL_FORM_CORPORA))
    def test_matches_the_reference_search_on_random_images(self, corpus):
        build, size = CANONICAL_FORM_CORPORA[corpus]
        mats = build()
        assert len(mats) == size
        rng = random.Random(13)
        for mat in mats:
            image = _random_image(mat, rng)
            assert orbit_canonical_form(image).flat == reference_canonical_flat(image), \
                format_matrix(image)

    def test_every_completion_of_a_witness_is_smaller_on_3x5(self):
        """Each complete 3x5 matrix the test finds not canonical leaves one
        witness; completed with the unused rows and columns in ascending
        order, or in a seeded random order, it renumbers strictly smaller.
        A matrix the test passes leaves none."""
        rng = random.Random(5)
        smaller = 0
        for mat in brute_force_pairing_matrices(3, 5):
            witness = []
            if not has_smaller_stacked_image(mat.flat, 3, 5, witness=witness):
                assert witness == [], format_matrix(mat)
                continue
            (rowmap, colmap), = witness
            for shuffled in (False, True):
                rest_rows = [r for r in range(3) if r not in rowmap]
                rest_cols = [c for c in range(5) if c not in colmap]
                if shuffled:
                    rng.shuffle(rest_rows)
                    rng.shuffle(rest_cols)
                free = iter(rest_cols)
                to_image = GridSymmetry(tuple(rowmap) + tuple(rest_rows),
                                        tuple(next(free) if c < 0 else c for c in colmap))
                image = consecutive_renumbering(apply_symmetry(mat, to_image.inverse()))
                assert image.flat < mat.flat, (format_matrix(mat), rowmap, colmap, shuffled)
            smaller += 1
        assert smaller > 3000

    def test_a_witness_that_gives_no_smaller_image_raises(self, monkeypatch):
        def identity_witness(flat, rows, cols, witness):
            witness.append((list(range(rows)), list(range(cols))))
            return True

        monkeypatch.setattr(grid_module, "has_smaller_stacked_image", identity_witness)
        with pytest.raises(RuntimeError):
            orbit_canonical_form(M1)


class TestPairing:
    def test_round_trip(self):
        assert PairingMatrix.from_pairs(M1.dims, M1.cells_by_label().values()) == M1

    def test_round_trips_every_leaf_of_3x3_to_3x7(self):
        """A leaf, and a seeded random image of it, come back from their cell
        pairs as their consecutive renumbering."""
        rng = random.Random(3)
        leaves = 0
        for cols in (3, 5, 7):
            for leaf in enumerate_pairings(GridDims(3, cols)):
                for mat in (leaf, apply_symmetry(leaf, _random_symmetry(leaf.dims, rng))):
                    back = PairingMatrix.from_pairs(mat.dims, mat.cells_by_label().values())
                    assert back == consecutive_renumbering(mat), format_matrix(mat)
                leaves += 1
        assert leaves == 3482

    def test_equality_is_orbit_equality(self):
        g = GridSymmetry((0, 2, 1), (0, 2, 1))
        assert orbit_canonical_form(apply_symmetry(M2, g)) == orbit_canonical_form(M2)
        assert orbit_canonical_form(M1) != orbit_canonical_form(M2)
        assert len({orbit_canonical_form(m) for m in (M1, M2, M3)}) == 3

    def test_never_pairs_within_row_or_column(self):
        for mat in brute_force_pairing_matrices(3, 3):
            for (i, j), (k, l) in mat.cells_by_label().values():
                assert i != k and j != l

    def test_rejects_row_sharing_pair(self):
        pairs = [((0, 1), (0, 2)), ((1, 0), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 0))]
        with pytest.raises(GridError, match="repeated in row"):
            PairingMatrix.from_pairs(GridDims(3, 3), pairs)

    @pytest.mark.parametrize("pairs, message", [
        # M1's pairs are ((0,1),(1,0)), ((0,2),(2,0)), ((1,1),(2,2)) and
        # ((1,2),(2,1)); each case but the first breaks them one way
        ([((0, 1), (2, 1)), ((0, 2), (1, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 0))],
         "repeated in column"),
        ([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 2))],
         "used twice"),
        ([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 1), (1, 1)), ((1, 2), (2, 1))],
         "used twice"),
        ([((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))],
         "outside the grid or the corner"),
        ([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 1), (3, 2)), ((1, 2), (2, 1))],
         "outside the grid"),
        ([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))],
         "unfilled cell"),
    ], ids=["column", "cell-twice", "same-cell", "corner", "outside", "uncovered"])
    def test_rejects_invalid_pairs(self, pairs, message):
        with pytest.raises(GridError, match=message):
            PairingMatrix.from_pairs(GridDims(3, 3), pairs)


@cache
def _subgrid_corpus():
    """Every class of ranks 3x3-3x7, the first 300 classes of 5x5, and every
    symmetry image of three 5x5 classes that have proper invariant subgrids."""
    mats = brute_force_pairing_matrices(3, 3)
    for dims in [(3, 5), (3, 7)]:
        mats.extend(enumerate_pairings(GridDims(*dims)))
    mats.extend(islice(enumerate_pairings(GridDims(5, 5)), 300))
    # the 5x5 prefix has no subgrids (the first class with one is at
    # index 103 048), so add every symmetry image of three 5x5 classes that
    # do; in the third, rows 3 and 4 close to the whole grid, and the images
    # that number them first test the full-row shortcut
    for text in ["x 1 2 5 6\n1 3 4 7 8\n2 4 3 9 10\n5 7 9 11 12\n6 8 10 12 11",
                 "x 1 2 3 4\n1 2 5 4 3\n5 6 7 8 9\n6 10 11 9 12\n7 11 10 12 8",
                 "x 1 2 3 4\n1 5 6 7 8\n2 6 5 9 10\n3 7 10 11 12\n11 8 12 4 9"]:
        mat = parse_matrix(text)
        mats.extend(apply_symmetry(mat, g) for g in all_symmetries(mat.dims))
    return mats


class TestConnectivity:
    def test_first_class_fully_connected(self):
        assert row_connected(M1) and column_connected(M1)

    def test_block_diagonal_disconnected(self):
        # rows 3 and 4 pair only with each other: the row projection splits
        mat = parse_matrix(
            "x 1 2 3 4\n1 2 5 6 7\n6 4 7 5 3\n8 9 10 11 12\n12 8 9 10 11")
        assert not row_connected(mat)
        assert column_connected(mat)

    def test_subgrid_free_implies_connected(self):
        # the lemma that lets structural_flags skip the connectivity tests
        subgrid_free = 0
        for mat in _subgrid_corpus():
            if not proper_invariant_subgrids(mat):
                assert row_connected(mat) and column_connected(mat), mat
                subgrid_free += 1
        assert subgrid_free > 0

    def test_structural_flags_match_the_predicates(self):
        for mat in _subgrid_corpus():
            assert structural_flags(mat) == dict(
                row_connected=row_connected(mat),
                column_connected=column_connected(mat),
                no_proper_invariant_subgrid=not seed_grid_invariant_subgrids(mat)), mat


class TestInvariantSubgrids:
    def test_block_construction_detected(self):
        # the top-left 3x3 corner pairs only within itself
        mat = parse_matrix(
            "x 1 2 5 6\n1 3 4 7 8\n2 4 3 9 10\n5 7 9 11 12\n6 8 10 12 11")
        subs = proper_invariant_subgrids(mat)
        assert (frozenset({0, 1, 2}), frozenset({0, 1, 2})) in subs
        # connected despite the invariant subgrid: the implication is one-way
        assert row_connected(mat) and column_connected(mat)

    def test_all_3x3_classes_subgrid_free(self):
        for text, _, _ in RANK_3x3:
            assert proper_invariant_subgrids(parse_matrix(text)) == []

    def test_closures_agree_with_subset_scan(self):
        with_subgrid = 0
        for mat in _subgrid_corpus():
            closures = proper_invariant_subgrids(mat)
            scanned = scan_proper_invariant_subgrids(mat)
            assert bool(closures) == bool(scanned), mat
            assert all(sub in scanned for sub in closures), mat
            assert all(any(r <= rs and c <= cs for r, c in closures)
                       for rs, cs in scanned), mat
            with_subgrid += bool(scanned)
        assert with_subgrid > 0

    def test_row_seeds_agree_with_every_seed(self):
        """The row seeds {0,i} x {0} against the closures of every seed
        {0,i} x {0,j}: empty together, each row-seed closure is one of the
        old ones, and each old one contains a row-seed closure."""
        with_subgrid = 0
        for mat in _subgrid_corpus():
            new = proper_invariant_subgrids(mat)
            old = seed_grid_invariant_subgrids(mat)
            assert bool(new) == bool(old), mat
            assert all(sub in old for sub in new), mat
            assert all(any(r <= rs and c <= cs for r, c in new) for rs, cs in old), mat
            with_subgrid += bool(old)
        assert with_subgrid > 0


class TestTextFormat:
    def test_round_trip_exact(self):
        text = "x 1 2\n1 3 4\n2 4 3"
        assert format_matrix(parse_matrix(text)) == text

    def test_partial_round_trip(self):
        text = "x 1 2\n1 2 3\n3 4 0"
        m = parse_matrix(text)
        assert format_matrix(m) == text
        assert parse_matrix(format_matrix(m)) == m
