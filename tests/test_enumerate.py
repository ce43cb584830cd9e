import io

import pytest

from gridgroups.enumerate import (BranchValueSet, CheckpointError,
                                  EnumerationBudgetExceeded, EnumerationConfig,
                                  SearchCheckpoint, branch_values,
                                  enumerate_pairings, format_checkpoint,
                                  parse_checkpoint, read_checkpoint, resume,
                                  split_frontier, write_checkpoint)
from gridgroups.grid import (GridDims, GridError, OddDimensionError,
                             PairingMatrix, PartialPairingMatrix,
                             all_symmetries, apply_symmetry,
                             consecutive_renumbering, is_consecutive,
                             is_stacked, orbit_canonical_form, parse_matrix)

from oracles import brute_force_pairing_matrices


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
        m = parse_matrix("x 1 2\n3 4 0\n0 0 0", partial=True)
        bv = branch_values(m)
        assert bv.fresh is None

    def test_dominated_half_pair_is_pruned(self):
        # at cell (1,0) of [x 1 2 / . . .], placing 2 is a column swap away
        # from a lex-smaller matrix, so only 1 and the fresh 3 survive
        m = parse_matrix("x 1 2\n0 0 0\n0 0 0", partial=True)
        bv = branch_values(m)
        assert 2 not in bv.half_pairs
        assert bv.half_pairs == (1,)
        assert bv.fresh == 3

    def test_half_pair_survives_when_no_symmetry_dominates(self):
        # at cell (1,1) of [x 1 2 / 1 . .] the only usable half-pair is 2;
        # checking the four row/column swaps by hand shows no stacked image
        # renumbers smaller, so 2 stays alongside the fresh label
        m = parse_matrix("x 1 2\n1 0 0\n0 0 0", partial=True)
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
            assert orbit_canonical_form(m).flat == flat

    def test_no_two_emitted_matrices_share_an_orbit(self):
        got = leaves(3, 5)
        assert len({orbit_canonical_form(m).flat for m in got}) == len(got)

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
        expected = {orbit_canonical_form(m).flat for m in brute_force_pairing_matrices(3, 3)}
        assert {m.flat for m in leaves(3, 3)} == expected

    @pytest.mark.slow
    def test_completeness_against_brute_force_3x5(self):
        expected = {orbit_canonical_form(m).flat for m in brute_force_pairing_matrices(3, 5)}
        assert {m.flat for m in leaves(3, 5)} == expected


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
            for m in enumerate_pairings(GridDims(3, 5),
                                        EnumerationConfig(max_nodes=60, split_depth=4)):
                got.append(m.flat)
            raise AssertionError("budget should have run out")
        except EnumerationBudgetExceeded as exc:
            cp = exc.checkpoint
        rest = [m.flat for m in resume(cp)]
        assert got + rest == [m.flat for m in leaves(3, 5)]

    def test_budgeted_retries_always_advance(self):
        # the one item of this split takes 54 515 nodes, and two of its
        # consecutive leaves lie 4 977 nodes apart: neither walking past the
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
