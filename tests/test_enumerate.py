import io
import json
import lzma
import os

import pytest

from gridgroups import enumerate as enumerate_module
from gridgroups.classify import _forces_syntactic
from gridgroups.enumerate import (BranchValueSet, CheckpointError,
                                  EnumerationBudgetExceeded, EnumerationConfig,
                                  SearchCheckpoint, branch_values,
                                  enumerate_pairings, format_checkpoint,
                                  parse_checkpoint, read_checkpoint, resume,
                                  split_frontier, write_checkpoint)
from gridgroups.grid import (GridDims, GridError, OddDimensionError,
                             PairingMatrix, PartialPairingMatrix, _validate_flat,
                             all_symmetries, apply_symmetry,
                             consecutive_renumbering, has_smaller_stacked_image,
                             is_consecutive, is_stacked, parse_matrix,
                             smaller_in_next_row)

from oracles import brute_force_pairing_matrices, reference_canonical_flat

MIRROR_POOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "data", "mirror-5x5.json.xz")


def leaves(rows, cols, **cfg):
    config = EnumerationConfig(**cfg) if cfg else None
    return list(enumerate_pairings(GridDims(rows, cols), config))


class TestBranchValues:
    def test_empty_matrix_offers_only_the_first_label(self):
        m = PartialPairingMatrix(GridDims(3, 3), [-1] + [0] * 8)
        bv = branch_values(m)
        assert bv.half_pairs == ()
        assert bv.fresh == 1

    def test_fresh_absent_at_label_ceiling(self):
        # all four labels of the 3x3 grid already placed once or twice
        m = parse_matrix("x 1 2\n3 4 0\n0 0 0")
        bv = branch_values(m)
        assert bv.fresh is None

    def test_dominated_half_pair_is_pruned(self):
        # at cell (1,0) of [x 1 2 / . . .], placing 2 is a column swap away
        # from a lex-smaller matrix, so only 1 and the fresh 3 survive
        m = parse_matrix("x 1 2\n0 0 0\n0 0 0")
        bv = branch_values(m)
        assert 2 not in bv.half_pairs
        assert bv.half_pairs == (1,)
        assert bv.fresh == 3

    def test_half_pair_survives_when_no_symmetry_dominates(self):
        # at cell (1,1) of [x 1 2 / 1 . .] the only usable half-pair is 2;
        # checking the four row/column swaps by hand shows no stacked image
        # renumbers smaller, so 2 stays alongside the fresh label
        m = parse_matrix("x 1 2\n1 0 0\n0 0 0")
        bv = branch_values(m)
        assert bv.half_pairs == (2,)
        assert bv.fresh == 3

    def test_complete_matrix_has_no_branch_point(self):
        with pytest.raises(GridError):
            branch_values(PartialPairingMatrix(GridDims(3, 3),
                                               parse_matrix("x 1 2\n1 3 4\n2 4 3").flat))


class TestEnumerate:
    def test_3x3_stream(self):
        got = leaves(3, 3)
        assert [m.flat for m in got] == [
            (-1, 1, 2, 1, 3, 4, 2, 4, 3),
            (-1, 1, 2, 1, 3, 4, 4, 2, 3),
            (-1, 1, 2, 3, 2, 4, 4, 3, 1),
        ]

    def test_even_dims_rejected(self):
        with pytest.raises(OddDimensionError):
            leaves(3, 4)

    def test_soundness_and_normal_forms(self):
        for m in leaves(3, 5):
            assert isinstance(m, PairingMatrix)
            assert is_stacked(m) and is_consecutive(m)

    def test_emitted_are_canonical_and_lex_sorted(self):
        got = [m.flat for m in leaves(3, 5)]
        assert got == sorted(got)
        for flat in got[:10]:
            m = PairingMatrix(GridDims(3, 5), flat)
            assert reference_canonical_flat(m) == flat

    def test_no_two_emitted_matrices_share_an_orbit(self):
        got = leaves(3, 5)
        assert len({reference_canonical_flat(m) for m in got}) == len(got)

    def test_canonicity_invariant_under_explicit_symmetries_3x3(self):
        for m in leaves(3, 3):
            for g in all_symmetries(m.dims):
                img = apply_symmetry(m, g)
                assert consecutive_renumbering(img).flat >= m.flat

    def test_determinism(self):
        a = [m.flat for m in leaves(3, 5)]
        b = [m.flat for m in leaves(3, 5)]
        assert a == b

    def test_completeness_against_brute_force_3x3(self):
        expected = {reference_canonical_flat(m) for m in brute_force_pairing_matrices(3, 3)}
        assert {m.flat for m in leaves(3, 3)} == expected

    @pytest.mark.slow
    def test_completeness_against_brute_force_3x5(self):
        expected = {reference_canonical_flat(m) for m in brute_force_pairing_matrices(3, 5)}
        assert {m.flat for m in leaves(3, 5)} == expected

    def test_no_node_that_completes_a_row_has_a_smaller_image(self):
        """A fresh label that completes a row gets the full test like a
        half-pair, so no node whose rows are whole has a smaller stacked
        image; one that had one would have no leaf below it."""
        for rows, cols, bound in ((5, 5, 5), (3, 7, None), (3, 9, None)):
            for depth in range(2 * cols - 1, (rows - 1) * cols, cols):
                for flat in split_frontier(GridDims(rows, cols), depth, bound).frontier:
                    assert not has_smaller_stacked_image(flat, rows, cols, depth), flat


def _slice(dims, depth, step):
    """Every `step`-th node `depth` cells deep, as a checkpoint to resume."""
    cp = split_frontier(GridDims(*dims), depth)
    return SearchCheckpoint(cp.dims, depth, cp.frontier[::step])


class TestStabiliserTest:
    """Inside a row the search tests a child against the stabiliser of the
    rows above (`smaller_in_next_row`); a child that completes a row gets it
    together with the full test restricted to symmetries that move the new
    row.  Both must give has_smaller_stacked_image's verdict at every node."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = {"partial": 0, "whole": 0, "smaller": 0}
        dims = {}

        def oracle(flat, base, part_len, stab):
            got = smaller_in_next_row(flat, base, part_len, stab)
            rows, cols = dims["rows"], dims["cols"]
            filled = base + part_len - 1
            want = has_smaller_stacked_image(list(flat), rows, cols, filled)
            if part_len < cols:
                calls["partial"] += 1
                assert got == want, (flat, part_len)
            else:
                calls["whole"] += 1
                moved = has_smaller_stacked_image(list(flat), rows, cols, filled,
                                                  moved_last_row=True)
                assert (got or moved) == want, flat
            calls["smaller"] += got
            return got

        monkeypatch.setattr(enumerate_module, "smaller_in_next_row", oracle)

        def run(rows, cols, depth=None, step=None):
            dims.update(rows=rows, cols=cols)
            if depth is None:
                return [m.flat for m in enumerate_pairings(GridDims(rows, cols))]
            return [m.flat for m in resume(_slice((rows, cols), depth, step))]
        run.calls = calls
        return run

    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_every_node_of_3xc(self, checked, cols):
        assert checked(3, cols) == [m.flat for m in leaves(3, cols)]
        assert checked.calls["partial"] > 0 and checked.calls["whole"] > 0
        if cols > 3:
            assert checked.calls["smaller"] > 0

    def test_a_3x9_frontier_slice(self, checked):
        got = checked(3, 9, 19, 64)
        assert len(got) > 1000 and checked.calls["smaller"] > 100

    def test_a_5x5_frontier_slice(self, checked):
        got = checked(5, 5, 14, 1000)
        assert len(got) > 1000 and checked.calls["smaller"] > 10

    @pytest.mark.parametrize("dims, depth, step", [((3, 5), 9, 1), ((5, 5), 14, 40)])
    def test_recorded_ties_are_the_stabiliser(self, dims, depth, step):
        # the column maps of the symmetries that renumber a whole-row node to
        # itself, found by applying every symmetry
        rows, cols = dims
        whole = (depth + 1) // cols - 1
        checked = 0
        for flat in split_frontier(GridDims(*dims), depth).frontier[::step]:
            ties = []
            if has_smaller_stacked_image(flat, rows, cols, depth, ties=ties):
                continue  # a fresh label completed the row, and it is not canonical
            node = PartialPairingMatrix(GridDims(*dims), flat)
            want = set()
            for g in all_symmetries(node.dims):
                if max(g.row_perm[:whole + 1]) > whole:
                    continue
                if consecutive_renumbering(apply_symmetry(node, g)).flat == flat:
                    colmap = tuple(sorted(range(cols), key=g.col_perm.__getitem__))
                    want.add((g.row_perm[:whole + 1], colmap))
            assert sorted(colmap for colmap, _ in ties) == sorted(c for _, c in want)
            checked += len(ties) > 1
        assert checked > 0


class TestTrustedLeaves:
    @pytest.mark.parametrize("cols", [3, 5, 7])
    def test_every_leaf_passes_full_validation(self, cols):
        # the search builds its leaves without re-checking them
        dims = GridDims(3, cols)
        count = 0
        for stream in (enumerate_pairings(dims), resume(split_frontier(dims, cols + 2))):
            for m in stream:
                assert type(m) is PairingMatrix and type(m.dims) is GridDims
                assert type(m.flat) is tuple
                _validate_flat(m.dims, m.flat, complete=True)
                count += 1
        assert count == 2 * len(leaves(3, cols))


class TestFirstColumnBound:
    def test_3x3_bounded_stream_is_the_mirror_stream(self):
        bounded = [m.flat for m in leaves(3, 3, first_column_below=3)]
        assert bounded == [m.flat for m in leaves(3, 3) if _forces_syntactic(m)]
        assert bounded

    def test_only_the_bounded_leaves_are_cut(self):
        def below(flat, cols, bound):
            return all(flat[r * cols] < bound for r in range(1, len(flat) // cols))
        for rows, cols, bound in ((3, 5, 5), (3, 5, 4), (3, 7, 7)):
            want = [m.flat for m in leaves(rows, cols) if below(m.flat, cols, bound)]
            assert [m.flat for m in leaves(rows, cols, first_column_below=bound)] == want
            cp = split_frontier(GridDims(rows, cols), cols + 3, bound)
            config = EnumerationConfig(first_column_below=bound)
            assert [m.flat for m in resume(cp, config)] == want

    def test_5x5_bounded_stream_is_the_mirror_pool(self):
        # the pool holds every rank-5x5 mirror-form class in enumeration order
        with lzma.open(MIRROR_POOL, "rt") as fh:
            keys = [key for key, *_ in json.load(fh)["classes"]]
        digits = "0123456789abcdefghijklmnopqrstuvwxyz"
        got = ["".join(digits[v] for v in m.flat[1:])
               for m in leaves(5, 5, first_column_below=5)]
        assert len(got) == 1889
        assert got == keys


class TestSplitResume:
    def test_depth_zero_single_empty_item(self):
        cp = split_frontier(GridDims(3, 3), 0)
        assert len(cp.frontier) == 1
        assert cp.frontier[0] == (-1,) + (0,) * 8

    def test_full_depth_frontier_is_the_leaf_set(self):
        cp = split_frontier(GridDims(3, 3), 8)
        assert cp.frontier == [m.flat for m in leaves(3, 3)]

    def test_resume_from_zero_equals_enumerate(self):
        cp = split_frontier(GridDims(3, 5), 0)
        assert [m.flat for m in resume(cp)] == [m.flat for m in leaves(3, 5)]

    def test_split_concatenation_reproduces_stream(self):
        cp = split_frontier(GridDims(3, 5), 4)
        assert [m.flat for m in resume(cp)] == [m.flat for m in leaves(3, 5)]

    def test_subtrees_disjoint_and_exhaustive(self):
        cp = split_frontier(GridDims(3, 5), 6)
        seen = []
        for i, item in enumerate(cp.frontier):
            one = SearchCheckpoint(cp.dims, cp.split_depth, [item])
            seen.extend(m.flat for m in resume(one))
        assert len(seen) == len(set(seen))
        assert sorted(seen) == sorted(m.flat for m in leaves(3, 5))

    def test_interrupt_and_resume_concatenation(self):
        cp = split_frontier(GridDims(3, 5), 0)
        stream = resume(cp)
        first = [next(stream).flat for _ in range(5)]
        stream.close()
        rest = [m.flat for m in resume(cp)]
        assert first + rest == [m.flat for m in leaves(3, 5)]

    def test_resume_exhausted_checkpoint_is_empty(self):
        cp = split_frontier(GridDims(3, 3), 0)
        list(resume(cp))
        assert cp.exhausted()
        assert list(resume(cp)) == []

    def test_budget_overrun_checkpoint_resumes_exactly(self):
        try:
            got = []
            for m in resume(split_frontier(GridDims(3, 5), 4), EnumerationConfig(max_nodes=60)):
                got.append(m.flat)
            raise AssertionError("budget should have run out")
        except EnumerationBudgetExceeded as exc:
            cp = exc.checkpoint
        rest = [m.flat for m in resume(cp)]
        assert got + rest == [m.flat for m in leaves(3, 5)]

    def test_budgeted_retries_always_advance(self):
        # the one item of this split takes 24 771 nodes, and two of its
        # consecutive leaves lie 2 405 nodes apart: neither walking past the
        # emitted leaves nor the way to the next one may eat a retry's budget
        cp = split_frontier(GridDims(3, 7), 2)
        config = EnumerationConfig(max_nodes=2000)
        stream, retries = [], 0
        while True:
            before = (sum(cp.emitted), sum(cp.done))
            try:
                stream.extend(m.flat for m in resume(cp, config))
                break
            except EnumerationBudgetExceeded as exc:
                cp = exc.checkpoint
            assert (sum(cp.emitted), sum(cp.done)) > before
            retries += 1
        assert retries > 1
        assert len(stream) == 3403
        assert stream == [m.flat for m in leaves(3, 7)]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        cp = split_frontier(GridDims(3, 5), 5)
        cp.emitted[0] = 2
        cp.done[0] = False
        path = tmp_path / "cp.txt"
        write_checkpoint(cp, path)
        back = read_checkpoint(path)
        assert back.dims == cp.dims
        assert back.split_depth == cp.split_depth
        assert back.frontier == cp.frontier
        assert back.emitted == cp.emitted
        assert back.done == cp.done
        assert format_checkpoint(back) == format_checkpoint(cp)

    def test_output_length_makes_a_v2_checkpoint(self):
        cp = split_frontier(GridDims(3, 5), 5)
        v1 = format_checkpoint(cp)
        assert v1.startswith("gridgroups-checkpoint v1\n")
        cp.output_bytes = 1234
        v2 = format_checkpoint(cp)
        assert v2 == v1.replace("v1", "v2", 1).replace("items 2\n", "items 2\noutput 1234\n")
        assert parse_checkpoint(v2) == cp
        assert parse_checkpoint(v1).output_bytes is None
        for bad in ("output -1", "output x", "outputs 5", "item 0 emitted 0 done 0"):
            with pytest.raises(CheckpointError):
                parse_checkpoint(v2.replace("output 1234", bad))

    def test_corrupted_header_rejected(self):
        with pytest.raises(CheckpointError):
            parse_checkpoint("bogus\n")

    def test_structurally_invalid_item_rejected(self):
        cp = split_frontier(GridDims(3, 3), 4)
        text = format_checkpoint(cp).replace("depth 4", "depth 5")
        with pytest.raises(CheckpointError):
            parse_checkpoint(text)

    @pytest.mark.parametrize("old, new, message", [
        ("emitted 0 done 0", "emitted -1 done 0", "negative emitted count"),
        ("emitted 0 done 0", "emitted 0 done 7", "done must be 0 or 1, got 7"),
        ("emitted 0 done 0", "emitted 0 done -1", "done must be 0 or 1, got -1"),
        ("dims 3 3", "dims 3 4", "need odd row/column counts"),
    ])
    def test_counts_and_dims_are_checked_when_read(self, old, new, message):
        """A checkpoint whose counts `resume` would misread, or whose dims
        `enumerate` rejects, is an error rather than a silent empty run."""
        text = format_checkpoint(split_frontier(GridDims(3, 3), 2))
        assert old in text
        with pytest.raises(CheckpointError, match=message):
            parse_checkpoint(text.replace(old, new, 1))

    def test_frontier_is_in_emission_order(self):
        """Every split lists its items strictly increasing, the search's
        emission order, so a frontier that lists an item twice, which
        `resume` would replay, or out of order is an error."""
        splits = [(3, 3, 8, None), (3, 3, 8, 3), (3, 5, 12, None), (3, 7, 12, None),
                  (5, 5, 12, None), (5, 5, 12, 5)]
        for rows, cols, deepest, bound in splits:
            for depth in range(deepest + 1):
                frontier = split_frontier(GridDims(rows, cols), depth, bound).frontier
                assert all(a < b for a, b in zip(frontier, frontier[1:]))
        cp = split_frontier(GridDims(3, 5), 6)
        assert len(cp.frontier) > 1
        for frontier in (cp.frontier[:1] * 2, cp.frontier[::-1]):
            with pytest.raises(CheckpointError, match="strictly increasing"):
                SearchCheckpoint(cp.dims, cp.split_depth, frontier)

    def test_counts_are_checked_when_built(self):
        cp = split_frontier(GridDims(3, 3), 2)
        with pytest.raises(CheckpointError, match="negative emitted count"):
            SearchCheckpoint(cp.dims, cp.split_depth, cp.frontier,
                             [-1] * len(cp.frontier))
