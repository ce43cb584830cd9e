"""Orderly depth-first search emitting one pairing matrix per symmetry orbit.

The tree is rooted at the empty matrix and fills cells in row-major order.
At the first unfilled cell the branch values are the usable half-pair labels
that survive the canonicity test plus (except in the last row, where it can
never be paired) one fresh label.  Every complete leaf is its own orbit
canonical form, so the stream is duplicate-free by construction; stunted
branches simply yield nothing.

Work splitting cuts the tree at a fixed depth: the frontier nodes can be
expanded independently, in any order, on any worker, and the concatenation
of their subtree streams in frontier order reproduces the plain stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .grid import (
    SENTINEL,
    GridDims,
    GridError,
    PairingMatrix,
    PartialPairingMatrix,
    _CanonWorkspace,
    has_smaller_stacked_image,
    is_consecutive,
    is_stacked,
)


class CheckpointError(GridError):
    """Malformed or internally inconsistent checkpoint data."""


@dataclass(frozen=True)
class BranchValueSet:
    """Values usable at the next cell: surviving half-pairs plus a fresh label."""

    half_pairs: tuple[int, ...]
    fresh: Optional[int]

    def values(self) -> tuple[int, ...]:
        return self.half_pairs + ((self.fresh,) if self.fresh is not None else ())


@dataclass
class EnumerationConfig:
    max_nodes: Optional[int] = None
    split_depth: Optional[int] = None


@dataclass
class SearchCheckpoint:
    dims: GridDims
    split_depth: int
    frontier: list[tuple[int, ...]]
    emitted: list[int] = field(default_factory=list)
    done: list[bool] = field(default_factory=list)
    # the byte length of the output file holding the emitted lines, when a
    # resume into a file has recorded it
    output_bytes: Optional[int] = None

    def __post_init__(self):
        if not self.emitted:
            self.emitted = [0] * len(self.frontier)
        if not self.done:
            self.done = [False] * len(self.frontier)
        if not (len(self.frontier) == len(self.emitted) == len(self.done)):
            raise CheckpointError("frontier/progress length mismatch")
        for flat in self.frontier:
            m = PartialPairingMatrix(self.dims, flat)
            if m.filled_count != self.split_depth:
                raise CheckpointError("frontier item depth mismatch")
            if not is_stacked(m) or not is_consecutive(m):
                raise CheckpointError("frontier item is not a search node")

    def exhausted(self) -> bool:
        return all(self.done)


class EnumerationBudgetExceeded(Exception):
    """Node budget ran out; `checkpoint` resumes where the run stopped."""

    def __init__(self, checkpoint: SearchCheckpoint):
        super().__init__("enumeration node budget exceeded")
        self.checkpoint = checkpoint


class _Cursor:
    """Mutable search state over a flat row-major matrix."""

    __slots__ = ("rows", "cols", "flat", "filled", "counts", "row_mask",
                 "col_mask", "singles", "max_used", "cell_count", "max_label",
                 "workspace")

    def __init__(self, dims: GridDims, flat=None):
        self.rows, self.cols = dims
        self.cell_count = dims.cell_count
        self.max_label = dims.max_label
        self.workspace = _CanonWorkspace(self.rows, self.cols)
        self.flat = [0] * (self.rows * self.cols)
        self.flat[0] = SENTINEL
        self.counts = [0] * (self.max_label + 2)
        self.row_mask = [0] * self.rows
        self.col_mask = [0] * self.cols
        self.singles = 0
        self.max_used = 0
        self.filled = 0
        if flat is not None:
            for v in flat[1:]:
                if v == 0:
                    break
                self.place(v)

    def place(self, label: int) -> None:
        idx = self.filled + 1
        self.flat[idx] = label
        i, j = divmod(idx, self.cols)
        bit = 1 << label
        self.row_mask[i] |= bit
        self.col_mask[j] |= bit
        self.counts[label] += 1
        if self.counts[label] == 1:
            self.singles += 1
            self.max_used += 1
        else:
            self.singles -= 1
        self.filled += 1

    def unplace(self) -> None:
        self.filled -= 1
        idx = self.filled + 1
        label = self.flat[idx]
        self.flat[idx] = 0
        i, j = divmod(idx, self.cols)
        bit = 1 << label
        self.row_mask[i] &= ~bit
        self.col_mask[j] &= ~bit
        self.counts[label] -= 1
        if self.counts[label] == 0:
            self.singles -= 1
            self.max_used -= 1
        else:
            self.singles += 1

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.flat)


def _branch_values(cur: _Cursor, defer_last_row: bool = False) -> BranchValueSet:
    idx = cur.filled + 1
    i, j = divmod(idx, cur.cols)
    rows, cols = cur.rows, cur.cols
    remaining_after = cur.cell_count - cur.filled - 1

    if i == rows - 1:
        # singles stranded in the last row can never find a partner
        mask = cur.row_mask[i]
        for s in range(1, cur.max_used + 1):
            if cur.counts[s] == 1 and mask >> s & 1:
                return BranchValueSet((), None)

    def count_feasible(singles_after: int, used_after: int) -> bool:
        spare = remaining_after - singles_after
        return spare >= 0 and spare % 2 == 0 and spare <= 2 * (cur.max_label - used_after)

    # Dominated branches in the last row die at the complete-leaf test anyway,
    # and branching there is nearly forced, so the per-cell test may be
    # deferred to the leaf without changing the emitted set.
    test_here = not (defer_last_row and i == rows - 1 and remaining_after > 0)

    half: list[int] = []
    if count_feasible(cur.singles - 1, cur.max_used):
        excluded = cur.row_mask[i] | cur.col_mask[j]
        for h in range(1, cur.max_used + 1):
            if cur.counts[h] != 1 or excluded >> h & 1:
                continue
            if test_here:
                cur.place(h)
                keep = not has_smaller_stacked_image(cur.flat, rows, cols, cur.filled,
                                                     workspace=cur.workspace)
                cur.unplace()
                if keep:
                    half.append(h)
            else:
                half.append(h)

    fresh = None
    if (cur.max_used < cur.max_label and i < rows - 1
            and count_feasible(cur.singles + 1, cur.max_used + 1)):
        fresh = cur.max_used + 1
    return BranchValueSet(tuple(half), fresh)


def branch_values(mat: PartialPairingMatrix) -> BranchValueSet:
    """Branch set at the first unfilled cell of a stacked, renumbered node."""
    if mat.is_complete():
        raise GridError("matrix is complete; no branch point")
    if not is_stacked(mat) or not is_consecutive(mat):
        raise GridError("branch values require a stacked, consecutively numbered matrix")
    return _branch_values(_Cursor(mat.dims, mat.flat))


class _Budget:
    __slots__ = ("left", "free")

    def __init__(self, max_nodes: Optional[int]):
        self.left = max_nodes
        self.free = False  # while set, nodes are not charged

    def spend(self) -> bool:
        if self.left is None or self.free:
            return True
        if self.left <= 0:
            return False
        self.left -= 1
        return True


class _BudgetHit(Exception):
    pass


def _iter_leaves(cur: _Cursor, budget: _Budget) -> Iterator[tuple[int, ...]]:
    if cur.filled == cur.cell_count:
        yield cur.snapshot()
        return
    bv = _branch_values(cur, defer_last_row=True)
    for v in bv.values():
        if not budget.spend():
            raise _BudgetHit
        cur.place(v)
        yield from _iter_leaves(cur, budget)
        cur.unplace()


def _iter_frontier(cur: _Cursor, depth: int, budget: _Budget) -> Iterator[tuple[int, ...]]:
    if cur.filled == depth:
        yield cur.snapshot()
        return
    if cur.filled == cur.cell_count:
        return
    bv = _branch_values(cur)
    for v in bv.values():
        if not budget.spend():
            raise _BudgetHit
        cur.place(v)
        yield from _iter_frontier(cur, depth, budget)
        cur.unplace()


def split_frontier(dims: GridDims, depth: int) -> SearchCheckpoint:
    """All depth-`depth` nodes of the pruned tree, in emission order."""
    dims = GridDims(*dims).require_odd()
    if not 0 <= depth <= dims.cell_count:
        raise GridError(f"split depth {depth} out of range 0..{dims.cell_count}")
    cur = _Cursor(dims)
    frontier = list(_iter_frontier(cur, depth, _Budget(None)))
    return SearchCheckpoint(dims, depth, frontier)


def resume(cp: SearchCheckpoint,
           config: Optional[EnumerationConfig] = None) -> Iterator[PairingMatrix]:
    """Continue emission after the positions recorded in the checkpoint.

    The checkpoint is updated in place as leaves are emitted, so a caller may
    persist it at any time.  A node-budget overrun raises
    EnumerationBudgetExceeded carrying the updated checkpoint.  The budget
    is charged from the first new leaf or finished item on: walking again
    past the emitted leaves, and on to the next leaf, is free, so every
    call gets further than the checkpoint whatever its budget.
    """
    budget = _Budget(config.max_nodes if config else None)
    budget.free = True
    dims = cp.dims
    for i in range(len(cp.frontier)):
        if cp.done[i]:
            continue
        cur = _Cursor(dims, cp.frontier[i])
        skip = cp.emitted[i]
        try:
            for flat in _iter_leaves(cur, budget):
                if skip:
                    skip -= 1
                    continue
                budget.free = False
                cp.emitted[i] += 1
                yield PairingMatrix(dims, flat)
        except _BudgetHit:
            raise EnumerationBudgetExceeded(cp) from None
        cp.done[i] = True
        budget.free = False


def enumerate_pairings(dims: GridDims,
                       config: Optional[EnumerationConfig] = None) -> Iterator[PairingMatrix]:
    """Depth-first stream of all orbit-canonical complete pairing matrices.

    Emission order is the lexicographic order of the leaves and is identical
    from run to run.  With a node budget the stream ends in
    EnumerationBudgetExceeded whose checkpoint resumes the run.
    """
    dims = GridDims(*dims).require_odd()
    if config is None:
        config = EnumerationConfig()
    if config.max_nodes is None and config.split_depth is None:
        cur = _Cursor(dims)
        for flat in _iter_leaves(cur, _Budget(None)):
            yield PairingMatrix(dims, flat)
        return
    depth = config.split_depth if config.split_depth is not None else min(
        dims.cols + 1, dims.cell_count)
    cp = split_frontier(dims, depth)
    yield from resume(cp, config)


# ---------------------------------------------------------------------------
# Checkpoint file format

# v2 adds an `output <bytes>` line after `items`; a checkpoint with no
# output length is still written, and read, as v1
_CP_HEADERS = ("gridgroups-checkpoint v1", "gridgroups-checkpoint v2")


def format_checkpoint(cp: SearchCheckpoint) -> str:
    lines = [_CP_HEADERS[cp.output_bytes is not None],
             f"dims {cp.dims.rows} {cp.dims.cols}",
             f"depth {cp.split_depth}",
             f"items {len(cp.frontier)}"]
    if cp.output_bytes is not None:
        lines.append(f"output {cp.output_bytes}")
    for idx, flat in enumerate(cp.frontier):
        lines.append(f"item {idx} emitted {cp.emitted[idx]} done {int(cp.done[idx])}")
        for r in range(cp.dims.rows):
            row = flat[r * cp.dims.cols:(r + 1) * cp.dims.cols]
            lines.append(" ".join("x" if v == SENTINEL else str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_checkpoint(text: str) -> SearchCheckpoint:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0] not in _CP_HEADERS:
        raise CheckpointError("missing checkpoint header")
    output_bytes = None
    try:
        _, r, c = lines[1].split()
        dims = GridDims(int(r), int(c))
        depth = int(lines[2].split()[1])
        count = int(lines[3].split()[1])
        pos = 4
        if lines[0] == _CP_HEADERS[1]:
            key, value = lines[4].split()
            if key != "output" or int(value) < 0:
                raise ValueError(f"expected an output length, got {lines[4]!r}")
            output_bytes = int(value)
            pos = 5
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint preamble: {exc}") from None
    frontier, emitted, done = [], [], []
    for k in range(count):
        try:
            toks = lines[pos].split()
            if toks[0] != "item" or int(toks[1]) != k:
                raise CheckpointError(f"expected item {k} at line {pos + 1}")
            emitted.append(int(toks[3]))
            done.append(bool(int(toks[5])))
            pos += 1
            flat = []
            for _ in range(dims.rows):
                flat.extend(SENTINEL if t == "x" else int(t) for t in lines[pos].split())
                pos += 1
            frontier.append(tuple(flat))
        except (IndexError, ValueError) as exc:
            raise CheckpointError(f"bad checkpoint item {k}: {exc}") from None
    return SearchCheckpoint(dims, depth, frontier, emitted, done, output_bytes)


def write_checkpoint(cp: SearchCheckpoint, path) -> None:
    import os
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(format_checkpoint(cp))
    os.replace(tmp, path)


def read_checkpoint(path) -> SearchCheckpoint:
    with open(path) as fh:
        return parse_checkpoint(fh.read())
