"""Pairing matrices on grids: encoding, symmetry action, canonical forms.

A pairing matrix records a partition of the cells of an R x C grid (minus
the corner cell (0,0)) into unordered pairs, subject to the rule that the
two cells of a pair never share a row or a column.  Labels 1..(R*C-1)/2
mark the pairs; the corner carries the sentinel -1.  Partial matrices use
0 for cells not yet filled.

The symmetry group permuting rows 1..R-1 and columns 1..C-1 acts on these
matrices.  Orbit representatives are normalised two ways: *stacked*
(filled cells form a row-major prefix, starting after the sentinel) and
*consecutively numbered* (labels appear in first-use order).  The
canonical form of a complete matrix is the lexicographically least
consecutively renumbered matrix in its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple, Optional, Sequence

SENTINEL = -1


class GridError(ValueError):
    """Structurally invalid grid data."""


class OddDimensionError(GridError):
    """Raised by mod-2 pipeline entry points for even row or column counts."""


class GridDims(NamedTuple):
    rows: int
    cols: int

    @property
    def cell_count(self) -> int:
        """Number of cells available to the pairing (the corner is excluded)."""
        return self.rows * self.cols - 1

    @property
    def max_label(self) -> int:
        return self.cell_count // 2

    def validate(self) -> "GridDims":
        if self.rows < 2 or self.cols < 2:
            raise GridError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        return self

    def require_odd(self) -> "GridDims":
        """Entry points working over the two-element field need odd ranks."""
        self.validate()
        if self.rows % 2 == 0 or self.cols % 2 == 0:
            raise OddDimensionError(
                f"full pairings need odd row/column counts, got {self.rows}x{self.cols}"
            )
        return self


def _validate_flat(dims: GridDims, flat: Sequence[int], complete: bool) -> None:
    """One pass over the cells in row-major order.  A bad cell (unfilled,
    out of range, a label's third use) raises at once; then the first row,
    then the first column that holds both cells of a label.  A complete
    matrix that passes uses each label exactly twice: its rows*cols-1 cells
    hold labels 1..(rows*cols-1)//2, none more than twice."""
    rows, cols = dims
    if len(flat) != rows * cols:
        raise GridError(f"expected {rows * cols} entries, got {len(flat)}")
    if flat[0] != SENTINEL:
        raise GridError("corner cell must hold the sentinel -1")
    max_label = dims.max_label
    first: dict[int, int] = {}  # label -> index of its first cell
    second: set[int] = set()
    bad_row = bad_col = None  # (row, label) and (column, label) of the first repeats
    for idx in range(1, rows * cols):
        v = flat[idx]
        if v == 0:
            if complete:
                raise GridError(f"unfilled cell at index {idx} in complete matrix")
            continue
        if not 1 <= v <= max_label:
            raise GridError(f"label {v} out of range 1..{max_label}")
        prev = first.setdefault(v, idx)
        if prev == idx:
            continue
        if v in second:
            raise GridError(f"label {v} used more than twice")
        second.add(v)
        r, c = divmod(idx, cols)
        if bad_row is None and prev // cols == r:
            bad_row = (r, v)
        if prev % cols == c and (bad_col is None or c < bad_col[0]):
            bad_col = (c, v)
    if bad_row is not None:
        raise GridError(f"label {bad_row[1]} repeated in row {bad_row[0]}")
    if bad_col is not None:
        raise GridError(f"label {bad_col[1]} repeated in column {bad_col[0]}")


class _Matrix:
    __slots__ = ("dims", "flat", "_cells")

    def __init__(self, dims: GridDims, flat: Sequence[int]):
        self.dims = GridDims(*dims).validate()
        self.flat = tuple(flat)
        self._cells = None

    def rows(self) -> list[tuple[int, ...]]:
        cols = self.dims.cols
        return [self.flat[r * cols:(r + 1) * cols] for r in range(self.dims.rows)]

    def cells_by_label(self) -> dict[int, list[tuple[int, int]]]:
        """Each label's cells in row-major order, labels by first occurrence.
        Computed once per matrix and shared: callers only read it."""
        cells = self._cells
        if cells is None:
            cols = self.dims.cols
            cells = self._cells = {}
            for idx, v in enumerate(self.flat):
                if v > 0:
                    cells.setdefault(v, []).append(divmod(idx, cols))
        return cells

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.dims == other.dims and self.flat == other.flat

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.dims, self.flat))

    def __repr__(self) -> str:
        body = "/".join(" ".join(str(v) for v in row) for row in self.rows())
        return f"{type(self).__name__}({self.dims.rows}x{self.dims.cols}: {body})"


class PairingMatrix(_Matrix):
    """A completely filled pairing matrix."""

    def __init__(self, dims: GridDims, flat: Sequence[int]):
        super().__init__(dims, flat)
        _validate_flat(self.dims, self.flat, complete=True)

    @classmethod
    def _trusted(cls, dims: GridDims, flat: tuple[int, ...]) -> "PairingMatrix":
        """A leaf the orderly search built, valid by construction: not re-checked."""
        mat = cls.__new__(cls)
        mat.dims = dims
        mat.flat = flat
        mat._cells = None
        return mat

    @classmethod
    def from_pairs(cls, dims: GridDims, pairs) -> "PairingMatrix":
        """The consecutively numbered matrix of a partition given as cell
        pairs: labels are assigned in traversal order.  The validator checks
        everything the pairs do not: each label used twice, never twice in a
        row or column, and every cell filled."""
        dims = GridDims(*dims).validate()
        rows, cols = dims
        partner: dict[tuple[int, int], tuple[int, int]] = {}
        for a, b in pairs:
            for (i, j), other in ((a, b), (b, a)):
                if not (0 <= i < rows and 0 <= j < cols) or i == j == 0:
                    raise GridError(f"cell {(i, j)} is outside the grid or the corner")
                if (i, j) in partner:
                    raise GridError(f"cell {(i, j)} used twice")
                partner[i, j] = other
        flat = [SENTINEL] + [0] * (rows * cols - 1)
        nxt = 1
        for idx in range(1, rows * cols):
            other = partner.get(divmod(idx, cols))
            if flat[idx] or other is None:
                continue
            flat[idx] = flat[other[0] * cols + other[1]] = nxt
            nxt += 1
        return cls(dims, flat)


class PartialPairingMatrix(_Matrix):
    """A pairing matrix under construction; 0 marks unfilled cells."""

    def __init__(self, dims: GridDims, flat: Sequence[int]):
        super().__init__(dims, flat)
        _validate_flat(self.dims, self.flat, complete=False)

    @property
    def filled_count(self) -> int:
        return sum(1 for v in self.flat[1:] if v != 0)

    def is_complete(self) -> bool:
        return all(v != 0 for v in self.flat[1:])


@dataclass(frozen=True)
class GridSymmetry:
    """Row/column permutations fixing index 0 (the identity row and column)."""

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self):
        for name, perm in (("row_perm", self.row_perm), ("col_perm", self.col_perm)):
            if sorted(perm) != list(range(len(perm))):
                raise GridError(f"{name} is not a permutation: {perm}")
            if perm and perm[0] != 0:
                raise GridError(f"{name} must fix index 0")

    @staticmethod
    def identity(dims: GridDims) -> "GridSymmetry":
        return GridSymmetry(tuple(range(dims.rows)), tuple(range(dims.cols)))

    def inverse(self) -> "GridSymmetry":
        rinv = [0] * len(self.row_perm)
        cinv = [0] * len(self.col_perm)
        for i, v in enumerate(self.row_perm):
            rinv[v] = i
        for j, v in enumerate(self.col_perm):
            cinv[v] = j
        return GridSymmetry(tuple(rinv), tuple(cinv))


def apply_symmetry(mat: _Matrix, sym: GridSymmetry):
    """Permute rows/columns; the result need not be stacked."""
    rows, cols = mat.dims
    if len(sym.row_perm) != rows or len(sym.col_perm) != cols:
        raise GridError("symmetry size does not match matrix dimensions")
    flat = mat.flat
    out = [0] * (rows * cols)
    rp, cp = sym.row_perm, sym.col_perm
    for i in range(rows):
        base = i * cols
        nbase = rp[i] * cols
        for j in range(cols):
            out[nbase + cp[j]] = flat[base + j]
    cls = PairingMatrix if isinstance(mat, PairingMatrix) else PartialPairingMatrix
    return cls(mat.dims, out)


def all_symmetries(dims: GridDims) -> Iterator[GridSymmetry]:
    """Every row/column permutation fixing index 0.  Factorial size: test use."""
    from itertools import permutations

    for rp in permutations(range(1, dims.rows)):
        for cp in permutations(range(1, dims.cols)):
            yield GridSymmetry((0,) + rp, (0,) + cp)


def _renumber_flat(flat: Sequence[int]) -> list[int]:
    out = [SENTINEL]
    mapping: dict[int, int] = {}
    nxt = 1
    for v in flat[1:]:
        if v == 0:
            out.append(0)
        else:
            m = mapping.get(v)
            if m is None:
                m = mapping[v] = nxt
                nxt += 1
            out.append(m)
    return out


def consecutive_renumbering(mat: _Matrix):
    """Relabel by first appearance along the traversal; structure is unchanged."""
    cls = PairingMatrix if isinstance(mat, PairingMatrix) else PartialPairingMatrix
    return cls(mat.dims, _renumber_flat(mat.flat))


def is_consecutive(mat: _Matrix) -> bool:
    return list(mat.flat) == _renumber_flat(mat.flat)


def is_stacked(mat: _Matrix) -> bool:
    seen_zero = False
    for v in mat.flat[1:]:
        if v == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonicity machinery.
#
# One search answers both questions: assign row images and column images
# lazily while walking the image's traversal sequence, tracking the
# renumbering as it is forced.  It is the orderly search's pruning test,
# and the canonical form descends through the symmetries it finds.
# Facts used throughout (stacked + consecutively numbered input, with the
# first row fully filled): row 0 reads 1..C-1, label L < C sits in row 0 at
# column L, and every image's renumbered first row is again 1..C-1.


class _CanonWorkspace:
    """Reusable scratch arrays for the canonicity search (one per searcher)."""

    __slots__ = ("rows", "cols", "colmap", "colinv", "rowmap", "rows_used", "renum")

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        self.colmap = [-1] * cols   # image column -> source column
        self.colinv = [-1] * cols   # source column -> image column
        self.rowmap = [0] * rows    # image row -> source row
        self.rows_used = bytearray(rows)
        self.renum: dict[int, int] = {}


_shared_workspace = cache(_CanonWorkspace)  # one for each (rows, cols)


def has_smaller_stacked_image(flat: Sequence[int], rows: int, cols: int,
                              filled: Optional[int] = None,
                              workspace: Optional[_CanonWorkspace] = None,
                              ties: Optional[list] = None,
                              moved_last_row: bool = False,
                              witness: Optional[list] = None) -> bool:
    """True if some symmetry image is stacked and renumbers lex-less.

    `flat` must be stacked and consecutively numbered.  This is the pruning
    test of the orderly search: a matrix failing it is not the orbit
    representative and its subtree is skipped.  Hot path: state changes are
    inlined rather than factored into helpers.

    With a `ties` list and a prefix of whole rows, the search also appends
    each symmetry whose image equals the prefix, as its column map (image
    column -> source column) and its renumbering of the labels >= cols.
    Every column is bound by then, and a search that returns False has
    visited every tie, so the list is then the prefix's whole stabiliser.

    With `moved_last_row` and a prefix of whole rows, only the symmetries
    that move the last whole row to another row are tried: the ones that
    keep it in place are the ones `smaller_in_next_row` tests.

    With a `witness` list, a True return appends the partial symmetry bound
    at the strict drop: the image row -> source row map of the rows reached
    and the image column -> source column map, -1 where a column is unbound.
    Every position before the drop already matches, so on a complete matrix
    any completion of the two maps renumbers strictly smaller.
    """
    if filled is None:
        filled = sum(1 for v in flat[1:] if v != 0)
    if filled <= cols - 1:
        return False  # only row 0: every stacked image renumbers identically
    ws = workspace or _shared_workspace(rows, cols)

    beyond = filled - (cols - 1)
    n_full = beyond // cols
    part_len = beyond % cols
    part_row = 1 + n_full if part_len else 0
    if moved_last_row and n_full < 2:
        return False

    colmap = ws.colmap
    colinv = ws.colinv
    rowmap = ws.rowmap
    rows_used = ws.rows_used
    renum = ws.renum
    for c in range(cols):
        colmap[c] = -1
        colinv[c] = -1
    colmap[0] = 0
    colinv[0] = 0
    for r in range(rows):
        rows_used[r] = 0
    rows_used[0] = 1
    renum.clear()

    # Stackedness bookkeeping.  Only the partial source row restricts column
    # choices: its image columns below part_len must read source columns
    # below part_len.  st = [free image cols < part_len, free source cols
    # < part_len, violation count, next fresh renumber value].
    st = [part_len - 1 if part_len else 0, part_len - 1 if part_len else 0, 0, cols]

    def step(pos: int, target: int, i: int, srccol: int) -> bool:
        """Resolve the image value read from source cell (i, srccol);
        recurse while it matches, report success on a feasible strict drop."""
        label = flat[i * cols + srccol]
        if label == 0:
            return False
        if label < cols:
            v = colinv[label]
            if v < 0:
                # The label's renumber value is the image column its first-row
                # cell lands in, which is still free: any free column below
                # the target realises a strictly smaller image if one is
                # feasible.
                lim = target if target < cols else cols
                acol_lt = 1 if 1 <= label < part_len else 0
                for c in range(1, lim):
                    if colmap[c] >= 0:
                        continue
                    if part_len:
                        b0 = st[0] - (1 if c < part_len else 0)
                        b1 = st[1] - acol_lt
                        b2 = st[2] + (1 if (c < part_len and label >= part_len) else 0)
                        if b2 or b1 < b0:
                            continue
                    if witness is not None:  # the drop binds image column c to the label
                        bound = colmap[:]
                        bound[c] = label
                        witness.append((rowmap[:(pos + 1) // cols + 1], bound))
                    return True
                if target < cols and colmap[target] < 0:
                    colmap[target] = label
                    colinv[label] = target
                    if part_len:
                        if target < part_len:
                            st[0] -= 1
                            if label >= part_len:
                                st[2] += 1
                        if 1 <= label < part_len:
                            st[1] -= 1
                        found = st[2] == 0 and st[1] >= st[0] and dfs(pos + 1)
                        if target < part_len:
                            st[0] += 1
                            if label >= part_len:
                                st[2] -= 1
                        if 1 <= label < part_len:
                            st[1] += 1
                    else:
                        found = dfs(pos + 1)
                    colmap[target] = -1
                    colinv[label] = -1
                    return found
                return False
        else:
            v = renum.get(label, -1)
            if v < 0:
                if st[3] != target:
                    return False  # fresh values can only ever match exactly
                renum[label] = target
                st[3] += 1
                found = dfs(pos + 1)
                st[3] -= 1
                del renum[label]
                return found
        if v == target:
            return dfs(pos + 1)
        if v > target or (part_len and (st[2] or st[1] < st[0])):
            return False
        if witness is not None:
            witness.append((rowmap[:(pos + 1) // cols + 1], colmap[:]))
        return True

    def dfs(pos: int) -> bool:
        if pos == filled:
            if ties is not None:
                ties.append((tuple(colmap), dict(renum)))
            return False  # image equals the original: not smaller
        q = pos - cols + 1
        r = 1 + q // cols
        c = q % cols
        target = flat[pos + 1]

        if c == 0:
            if r <= n_full:
                # with moved_last_row, source row n_full must fill an image
                # row above n_full: the last of them takes it if none has
                lo = 1
                if moved_last_row and r == n_full - 1 and not rows_used[n_full]:
                    lo = n_full
                for i in range(lo, n_full + 1):
                    if rows_used[i]:
                        continue
                    rows_used[i] = 1
                    rowmap[r] = i
                    if step(pos, target, i, 0):
                        rows_used[i] = 0
                        return True
                    rows_used[i] = 0
                return False
            rowmap[r] = part_row
            return step(pos, target, part_row, 0)

        srccol = colmap[c]
        i = rowmap[r]
        if srccol >= 0:
            return step(pos, target, i, srccol)
        base = i * cols
        c_lt = 1 if c < part_len else 0
        for j in range(1, cols):
            if colinv[j] >= 0 or flat[base + j] == 0:
                continue
            colmap[c] = j
            colinv[j] = c
            if part_len:
                j_lt = 1 if j < part_len else 0
                st[0] -= c_lt
                st[1] -= j_lt
                if c_lt and not j_lt:
                    st[2] += 1
                found = st[2] == 0 and st[1] >= st[0] and step(pos, target, i, j)
                st[0] += c_lt
                st[1] += j_lt
                if c_lt and not j_lt:
                    st[2] -= 1
            else:
                found = step(pos, target, i, j)
            colmap[c] = -1
            colinv[j] = -1
            if found:
                return True
        return False

    found = dfs(cols - 1)
    del dfs, step  # the two closures refer to each other: free them now, not in a gc pass
    return found


def row_stabiliser(ties: list, cols: int, used: int) -> list:
    """The ties a whole-row prefix recorded, as `smaller_in_next_row` reads
    them: (column map, label map, column-prefix flags), identity left out.

    The label map sends each of the prefix's labels 1..used to its value in
    the renumbered image; flags[p] says the column map sends columns 0..p-1
    onto themselves, so the image of a next row filled up to p is stacked.
    """
    stab = []
    identity = list(range(used + 1))
    for colmap, renum in ties:
        lab = identity[:]
        for c in range(1, cols):
            lab[colmap[c]] = c
        for label, v in renum.items():
            lab[label] = v
        if lab == identity:
            continue  # fixes every column and label: the next row's image is the row
        flags = [True] * (cols + 1)
        top = 0
        for p in range(1, cols + 1):
            top = max(top, colmap[p - 1])
            flags[p] = top < p
        stab.append((colmap, lab, flags))
    return stab


def smaller_in_next_row(flat: Sequence[int], base: int, part_len: int,
                        stab: list) -> bool:
    """has_smaller_stacked_image for a matrix of whole rows plus a next row
    filled in its first `part_len` < cols cells starting at `base`, given
    the whole rows' stabiliser from `row_stabiliser`.  With part_len ==
    cols it tests only the symmetries that keep the new row in place.

    The whole rows passed the full test, so a symmetry outside their
    stabiliser already renumbers them larger, and a stacked image must keep
    the partial row in place.  So only the stabiliser's elements that send
    columns 0..part_len-1 onto themselves can give a smaller image, and
    they differ from the original only in the partial row.  There, labels
    of the whole rows take their label-map values and labels new in the
    row take fresh values in image order, as in the original.
    """
    for colmap, lab, flags in stab:
        if not flags[part_len]:
            continue
        fresh = used = len(lab) - 1
        for c in range(part_len):
            v = flat[base + colmap[c]]
            if v > used:
                fresh += 1
                v = fresh
            else:
                v = lab[v]
            t = flat[base + c]
            if v != t:
                if v < t:
                    return True
                break
    return False


def orbit_canonical_form(mat: PairingMatrix) -> PairingMatrix:
    """Lexicographically least consecutively renumbered matrix in the orbit.

    Two complete matrices encode equivalent pairings exactly when their
    canonical forms are identical.  The form is found by descent through
    the pruning test: while it finds a smaller image, its witness, with the
    unused rows and columns assigned in ascending order, gives one, and the
    descent moves there.  A matrix the test passes is the form.
    """
    rows, cols = mat.dims
    current = consecutive_renumbering(mat)
    witness: list = []
    while has_smaller_stacked_image(current.flat, rows, cols, witness=witness):
        rowmap, colmap = witness.pop()
        rowmap += [r for r in range(rows) if r not in rowmap]
        free = iter([j for j in range(cols) if j not in colmap])
        colmap = [next(free) if j < 0 else j for j in colmap]
        to_image = GridSymmetry(tuple(rowmap), tuple(colmap)).inverse()
        image = consecutive_renumbering(apply_symmetry(current, to_image))
        if image.flat >= current.flat:
            raise RuntimeError(f"canonicity witness gives no smaller image of {current!r}")
        current = image
    return current


def cell_partners(mat: PairingMatrix) -> dict[tuple[int, int], tuple[int, int]]:
    """Each cell's partner: the other cell holding its label."""
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in mat.cells_by_label().values():
        partner[a] = b
        partner[b] = a
    return partner


def _projected_components(mat: PairingMatrix, axis: int, size: int) -> int:
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in mat.cells_by_label().values():
        ra, rb = find(a[axis]), find(b[axis])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return len({find(x) for x in range(size)})


def row_connected(mat: PairingMatrix) -> bool:
    return _projected_components(mat, 0, mat.dims.rows) == 1


def column_connected(mat: PairingMatrix) -> bool:
    return _projected_components(mat, 1, mat.dims.cols) == 1


def proper_invariant_subgrids(mat: PairingMatrix) -> list[tuple[frozenset, frozenset]]:
    """Proper sub-rectangles through (0,0) that the pairing never leaves.

    Every such subgrid holds a cell (i, 0) with i >= 1: a cell (0, j) pairs
    into another row, so no invariant subgrid but the corner has row 0
    alone.  Invariant subgrids are closed under intersection, so each seed
    {0,i} x {0} has a least invariant subgrid around it: its closure under
    "a cell inside pulls in its partner's row and column".  The result
    lists the distinct proper closures of the rows-1 seeds, sorted by rows
    then columns, so it is empty exactly when no proper invariant subgrid
    exists, and every proper invariant subgrid contains one of its members.
    An empty result is the strongest structural filter: if the rows split,
    row 0's component times all columns is a proper invariant subgrid, and
    likewise for columns, so such pairings are row and column connected.
    """
    rows, cols = mat.dims
    partner = cell_partners(mat)
    # the rows whose seed's closure is the whole grid; a closure that
    # reaches one of them is the whole grid too
    full_rows: set[int] = set()
    found = set()
    for i in range(1, rows):
        rset, cset = {0, i}, {0}
        pending = [(i, 0)]
        full = False
        while pending and not full:
            r, c = partner[pending.pop()]
            if r not in rset:
                full = r in full_rows
                rset.add(r)
                pending.extend([(r, k) for k in cset])
            if c not in cset:
                cset.add(c)
                pending.extend([(k, c) for k in rset])
            full = full or (len(rset) == rows and len(cset) == cols)
        if full:
            full_rows.add(i)
        else:
            found.add((frozenset(rset), frozenset(cset)))
    return sorted(found, key=lambda rc: (sorted(rc[0]), sorted(rc[1])))


# ---------------------------------------------------------------------------
# Text format: one row per line, space separated, "x" for the corner.

def format_matrix(mat: _Matrix) -> str:
    lines = []
    for row in mat.rows():
        lines.append(" ".join("x" if v == SENTINEL else str(v) for v in row))
    return "\n".join(lines)


def parse_matrix(text: str):
    rows = []
    for line in text.strip().splitlines():
        toks = line.split()
        if toks:
            rows.append([SENTINEL if t == "x" else int(t) for t in toks])
    if not rows:
        raise GridError("empty matrix text")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise GridError("ragged matrix text")
    flat = [v for row in rows for v in row]
    dims = GridDims(len(rows), cols)
    if any(v == 0 for v in flat[1:]):
        return PartialPairingMatrix(dims, flat)
    return PairingMatrix(dims, flat)
