"""Orderly depth-first search emitting one pairing matrix per symmetry orbit.

The tree is rooted at the empty matrix and fills cells in row-major order.
At the first unfilled cell the branch values are the usable half-pair labels
that survive the canonicity test plus (except in the last row, where it can
never be paired) one fresh label.  Every complete leaf is its own orbit
canonical form, so the stream is duplicate-free by construction; stunted
branches simply yield nothing.

Every cell is tested.  A node that completes a row r >= 1 runs the full
test (`has_smaller_stacked_image`) and records the row stabiliser: the
symmetries that renumber rows 0..r to themselves.  Inside row r+1 a child
is then tested against that stabiliser alone (`smaller_in_next_row`), which
is exact because every other symmetry already renumbers the whole rows
larger.  A child that completes a row gets the full test again, and a leaf
only the part of it that moves its last row up.  Row 1, and any row whose
stabiliser exceeds STABILISER_CAP, is tested with the full test at each cell
(this is the orderly generation of Read, "Every one a winner", 1978, with
the prefix's stabiliser carried down the tree as in McKay, "Isomorph-free
exhaustive generation", 1998).

Work splitting cuts the tree at a fixed depth: the frontier nodes can be
expanded independently, in any order, on any worker, and the concatenation
of their subtree streams in frontier order reproduces the plain stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .grid import (
    SENTINEL,
    GridDims,
    GridError,
    PairingMatrix,
    PartialPairingMatrix,
    _CanonWorkspace,
    format_matrix,
    has_smaller_stacked_image,
    is_consecutive,
    is_stacked,
    row_stabiliser,
    smaller_in_next_row,
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
    # when set, the first-column cells below row 0 take only labels below
    # it; with the number of columns on a square grid this leaves exactly
    # the mirror-form classes, whose first column holds labels 1..cols-1
    first_column_below: Optional[int] = None


@dataclass
class SearchCheckpoint:
    dims: GridDims
    split_depth: int
    frontier: list[tuple[int, ...]]
    # the resume position: items finish in frontier order, so `item` counts
    # the finished ones and `leaves` the leaves of the next already emitted
    item: int = 0
    leaves: int = 0
    # the byte length of the output file holding the emitted lines, when a
    # resume into a file has recorded it
    output_bytes: Optional[int] = None

    def __post_init__(self):
        if min(self.item, self.leaves) < 0 or (self.item, self.leaves) > (len(self.frontier), 0):
            raise CheckpointError(f"position {self.item} {self.leaves} is outside "
                                  f"the {len(self.frontier)} frontier items")
        try:
            self.dims.require_odd()
        except GridError as exc:
            raise CheckpointError(f"bad checkpoint dims: {exc}") from None
        if any(a >= b for a, b in zip(self.frontier, self.frontier[1:])):
            raise CheckpointError("frontier items are not in strictly increasing order")
        for flat in self.frontier:
            m = PartialPairingMatrix(self.dims, flat)
            if m.filled_count != self.split_depth:
                raise CheckpointError("frontier item depth mismatch")
            if not is_stacked(m) or not is_consecutive(m):
                raise CheckpointError("frontier item is not a search node")


class EnumerationBudgetExceeded(Exception):
    """Node budget ran out; `checkpoint` resumes where the run stopped."""

    def __init__(self, checkpoint: SearchCheckpoint):
        super().__init__("enumeration node budget exceeded")
        self.checkpoint = checkpoint


# Largest row stabiliser the in-row test walks; a larger one leaves each cell
# of the next row to the full test.  After row 0 the stabiliser is every
# column permutation, so row 1 always uses the full test.  On a slice of
# 3x9 a cap of 8 took 2.1 s, 64 took 1.2 s and 512 or no cap 0.7 s.
STABILISER_CAP = 512


class _Cursor:
    """Mutable search state over a flat row-major matrix."""

    __slots__ = ("rows", "cols", "flat", "filled", "counts", "row_mask",
                 "col_mask", "singles", "max_used", "cell_count", "max_label",
                 "workspace", "stab", "first_column_below")

    def __init__(self, dims: GridDims, flat=None, first_column_below: Optional[int] = None):
        self.rows, self.cols = dims
        self.cell_count = dims.cell_count
        self.max_label = dims.max_label
        self.workspace = _CanonWorkspace(self.rows, self.cols)
        self.first_column_below = first_column_below
        self.flat = [0] * (self.rows * self.cols)
        self.flat[0] = SENTINEL
        self.counts = [0] * (self.max_label + 2)
        self.row_mask = [0] * self.rows
        self.col_mask = [0] * self.cols
        self.singles = 0
        self.max_used = 0
        self.filled = 0
        # stab[r]: the stabiliser of the whole rows 0..r on the current path,
        # or None where the in-row test does not apply
        self.stab: list[Optional[list]] = [None] * self.rows
        if flat is not None:
            for v in flat[1:]:
                if v == 0:
                    break
                self.place(v)
            whole = (self.filled + 1) // self.cols - 1
            if 1 <= whole < self.rows - 1:
                self.stab[whole] = self.full_test(whole * self.cols + self.cols - 1, True)[1]

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

    def full_test(self, filled: int, record: bool = False,
                  moved: bool = False) -> tuple[bool, Optional[list]]:
        """has_smaller_stacked_image on the first `filled` cells, and with
        `record`, when it is False, the stabiliser of those whole rows (None
        over the cap)."""
        ties: Optional[list] = [] if record else None
        if has_smaller_stacked_image(self.flat, self.rows, self.cols, filled,
                                     workspace=self.workspace, ties=ties,
                                     moved_last_row=moved):
            return True, None
        if not record:
            return False, None
        stab = row_stabiliser(ties, self.cols, max(self.flat[:filled + 1]))
        return False, (stab if len(stab) <= STABILISER_CAP else None)


def _children(cur: _Cursor) -> list[tuple[int, Optional[list]]]:
    """The children of the node at the cursor in branch order, each with the
    stabiliser to carry down when it completes a row (None otherwise).

    The branch values are the usable half-pair labels that survive the
    canonicity test, then (except in the last row, where it could never be
    paired) one fresh label.  A fresh label is kept untested unless it
    completes a row: then it gets the full test, which also gives its
    stabiliser, and is dropped when the rows have a smaller image, since
    its subtree yields no leaf.  Inside a row after row 1
    a half-pair is tested against the stabiliser of the rows above
    (`smaller_in_next_row`); a child that completes a row, and every cell
    without a stabiliser, gets the full test.
    """
    idx = cur.filled + 1
    rows, cols = cur.rows, cur.cols
    i, j = divmod(idx, cols)
    remaining_after = cur.cell_count - cur.filled - 1

    if i == rows - 1:
        # singles stranded in the last row can never find a partner
        mask = cur.row_mask[i]
        for s in range(1, cur.max_used + 1):
            if cur.counts[s] == 1 and mask >> s & 1:
                return []

    def count_feasible(singles_after: int, used_after: int) -> bool:
        spare = remaining_after - singles_after
        return spare >= 0 and spare % 2 == 0 and spare <= 2 * (cur.max_label - used_after)

    completes = j == cols - 1
    record = completes and 1 <= i < rows - 1  # the next row reads this row's stabiliser
    stab = cur.stab[i - 1] if i >= 2 else None
    # the mirror-form bound on labels in the first column
    below = cur.first_column_below if j == 0 else None
    top = cur.max_used if below is None else min(cur.max_used, below - 1)
    out: list[tuple[int, Optional[list]]] = []
    if count_feasible(cur.singles - 1, cur.max_used):
        excluded = cur.row_mask[i] | cur.col_mask[j]
        for h in range(1, top + 1):
            if cur.counts[h] != 1 or excluded >> h & 1:
                continue
            cur.place(h)
            child = None
            if stab is not None and smaller_in_next_row(cur.flat, i * cols, j + 1, stab):
                smaller = True
            elif stab is not None and not completes:
                smaller = False
            else:
                # a leaf whose row passed the stabiliser test only needs the
                # symmetries that move its last row up
                smaller, child = cur.full_test(cur.filled, record,
                                               moved=stab is not None and not record)
            cur.unplace()
            if not smaller:
                out.append((h, child))

    fresh = cur.max_used + 1
    if (fresh <= cur.max_label and i < rows - 1
            and (below is None or fresh < below)
            and count_feasible(cur.singles + 1, fresh)):
        smaller, child = False, None
        if record:
            cur.place(fresh)
            smaller, child = cur.full_test(cur.filled, True)
            cur.unplace()
        if not smaller:
            out.append((fresh, child))
    return out


def branch_values(mat: PartialPairingMatrix) -> BranchValueSet:
    """Branch set at the first unfilled cell of a stacked, renumbered node."""
    if mat.is_complete():
        raise GridError("matrix is complete; no branch point")
    if not is_stacked(mat) or not is_consecutive(mat):
        raise GridError("branch values require a stacked, consecutively numbered matrix")
    cur = _Cursor(mat.dims, mat.flat)
    values = [v for v, _ in _children(cur)]
    fresh = cur.max_used + 1
    return BranchValueSet(tuple(v for v in values if v != fresh),
                          fresh if fresh in values else None)


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


def _iter_nodes(cur: _Cursor, depth: int, budget: _Budget) -> Iterator[tuple[int, ...]]:
    """The nodes `depth` cells deep below the cursor's node, in branch order."""
    if cur.filled == depth:
        yield cur.snapshot()
        return
    row, col = divmod(cur.filled + 1, cur.cols)
    for v, stab in _children(cur):
        if not budget.spend():
            raise _BudgetHit
        cur.place(v)
        if col == cur.cols - 1:
            cur.stab[row] = stab
        yield from _iter_nodes(cur, depth, budget)
        cur.unplace()


def split_frontier(dims: GridDims, depth: int,
                   first_column_below: Optional[int] = None) -> SearchCheckpoint:
    """All depth-`depth` nodes of the pruned tree, in emission order."""
    dims = GridDims(*dims).require_odd()
    if not 0 <= depth <= dims.cell_count:
        raise GridError(f"split depth {depth} out of range 0..{dims.cell_count}")
    cur = _Cursor(dims, first_column_below=first_column_below)
    return SearchCheckpoint(dims, depth, list(_iter_nodes(cur, depth, _Budget(None))))


def resume(cp: SearchCheckpoint,
           config: Optional[EnumerationConfig] = None) -> Iterator[PairingMatrix]:
    """Continue emission from the position recorded in the checkpoint.

    The position is updated in place as leaves are emitted, so a caller may
    persist the checkpoint at any time.  A node-budget overrun raises
    EnumerationBudgetExceeded carrying the updated checkpoint.  The budget
    is charged from the first new leaf or finished item on: walking again
    past the emitted leaves, and on to the next leaf, is free, so every
    call gets further than the checkpoint whatever its budget.
    """
    if config is None:
        config = EnumerationConfig()
    budget = _Budget(config.max_nodes)
    budget.free = True
    dims = cp.dims
    while cp.item < len(cp.frontier):
        cur = _Cursor(dims, cp.frontier[cp.item], config.first_column_below)
        skip = cp.leaves
        try:
            for flat in _iter_nodes(cur, cur.cell_count, budget):
                if skip:
                    skip -= 1
                    continue
                budget.free = False
                cp.leaves += 1
                yield PairingMatrix._trusted(dims, flat)
        except _BudgetHit:
            raise EnumerationBudgetExceeded(cp) from None
        cp.item += 1
        cp.leaves = 0
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
    # a budgeted run checkpoints at items just below row 0
    depth = 0 if config.max_nodes is None else min(dims.cols + 1, dims.cell_count)
    yield from resume(split_frontier(dims, depth, config.first_column_below), config)


# ---------------------------------------------------------------------------
# Checkpoint file format

_CP_HEADER = "gridgroups-checkpoint v3"
_CP_KEYS = ("dims", "depth", "items", "position", "output")  # the lines after the header


def format_checkpoint(cp: SearchCheckpoint) -> str:
    lines = [_CP_HEADER,
             f"dims {cp.dims.rows} {cp.dims.cols}",
             f"depth {cp.split_depth}",
             f"items {len(cp.frontier)}",
             f"position {cp.item} {cp.leaves}",
             f"output {'-' if cp.output_bytes is None else cp.output_bytes}"]
    for idx, flat in enumerate(cp.frontier):
        lines += (f"item {idx}", format_matrix(PartialPairingMatrix(cp.dims, flat)))
    return "\n".join(lines) + "\n"


def parse_checkpoint(text: str) -> SearchCheckpoint:
    lines = text.splitlines()
    header = lines[0] if lines else ""
    if header != _CP_HEADER:
        if header.startswith("gridgroups-checkpoint "):
            raise CheckpointError(f"{header} is an old checkpoint format; "
                                  f"only {_CP_HEADER} is read")
        raise CheckpointError("missing checkpoint header")
    try:
        keys, values = zip(*(line.split(None, 1) for line in lines[1:len(_CP_KEYS) + 1]))
        if keys != _CP_KEYS:
            raise ValueError(f"expected the lines {', '.join(_CP_KEYS)} after the header")
        (r, c), (depth,), (count,), (item, leaves), (output,) = (v.split() for v in values)
        dims = GridDims(int(r), int(c))
        depth, count, item, leaves = map(int, (depth, count, item, leaves))
        output_bytes = None if output == "-" else int(output)
        if output_bytes is not None and output_bytes < 0:
            raise ValueError(f"negative output length {output_bytes}")
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint preamble: {exc}") from None
    frontier, pos = [], len(_CP_KEYS) + 1
    for k in range(count):
        try:
            if lines[pos] != f"item {k}":
                raise CheckpointError(f"expected item {k} at line {pos + 1}")
            rows = lines[pos + 1:pos + 1 + dims.rows]
            frontier.append(tuple(SENTINEL if t == "x" else int(t)
                                  for row in rows for t in row.split()))
            pos += 1 + dims.rows
        except (IndexError, ValueError) as exc:
            raise CheckpointError(f"bad checkpoint item {k}: {exc}") from None
    return SearchCheckpoint(dims, depth, frontier, item, leaves, output_bytes)


def write_checkpoint(cp: SearchCheckpoint, path) -> None:
    import os
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(format_checkpoint(cp))
    os.replace(tmp, path)


def read_checkpoint(path) -> SearchCheckpoint:
    with open(path) as fh:
        return parse_checkpoint(fh.read())
