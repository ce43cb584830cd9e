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
from typing import Iterator, NamedTuple, Optional, Sequence

LESS, EQUAL, GREATER = -1, 0, 1

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
    rows, cols = dims
    if len(flat) != rows * cols:
        raise GridError(f"expected {rows * cols} entries, got {len(flat)}")
    if flat[0] != SENTINEL:
        raise GridError("corner cell must hold the sentinel -1")
    max_label = dims.max_label
    counts: dict[int, int] = {}
    for idx in range(1, rows * cols):
        v = flat[idx]
        if v == 0:
            if complete:
                raise GridError(f"unfilled cell at index {idx} in complete matrix")
            continue
        if not 1 <= v <= max_label:
            raise GridError(f"label {v} out of range 1..{max_label}")
        counts[v] = counts.get(v, 0) + 1
        if counts[v] > 2:
            raise GridError(f"label {v} used more than twice")
    if complete and any(c != 2 for c in counts.values()):
        bad = sorted(v for v, c in counts.items() if c != 2)
        raise GridError(f"labels {bad} not used exactly twice")
    for r in range(rows):
        seen: set[int] = set()
        for c in range(cols):
            v = flat[r * cols + c]
            if v > 0:
                if v in seen:
                    raise GridError(f"label {v} repeated in row {r}")
                seen.add(v)
    for c in range(cols):
        seen = set()
        for r in range(rows):
            v = flat[r * cols + c]
            if v > 0:
                if v in seen:
                    raise GridError(f"label {v} repeated in column {c}")
                seen.add(v)


class _Matrix:
    __slots__ = ("dims", "flat")

    def __init__(self, dims: GridDims, flat: Sequence[int]):
        self.dims = GridDims(*dims).validate()
        self.flat = tuple(flat)

    def entry(self, i: int, j: int) -> int:
        return self.flat[i * self.dims.cols + j]

    def rows(self) -> list[tuple[int, ...]]:
        cols = self.dims.cols
        return [self.flat[r * cols:(r + 1) * cols] for r in range(self.dims.rows)]

    def cells_by_label(self) -> dict[int, list[tuple[int, int]]]:
        """Each label's cells in row-major order, labels by first occurrence."""
        cols = self.dims.cols
        cells: dict[int, list[tuple[int, int]]] = {}
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

    def pairing(self) -> "Pairing":
        return Pairing.from_matrix(self)


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


# ---------------------------------------------------------------------------
# Row-major traversal order (skipping the sentinel corner)

def lex_compare(a: _Matrix, b: _Matrix) -> int:
    """Lexicographic comparison of the row-major sequences starting at (0,1)."""
    if a.dims != b.dims:
        raise GridError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.flat < b.flat:
        return LESS
    if a.flat > b.flat:
        return GREATER
    return EQUAL


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
# Both the orderly-search pruning test and the canonical form rest on the
# same search: assign row images and column images lazily while walking the
# image's traversal sequence, tracking the renumbering as it is forced.
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


_WS_CACHE: dict[tuple[int, int], _CanonWorkspace] = {}


def has_smaller_stacked_image(flat: Sequence[int], rows: int, cols: int,
                              filled: Optional[int] = None,
                              workspace: Optional[_CanonWorkspace] = None) -> bool:
    """True if some symmetry image is stacked and renumbers lex-less.

    `flat` must be stacked and consecutively numbered.  This is the pruning
    test of the orderly search: a matrix failing it is not the orbit
    representative and its subtree is skipped.  Hot path: state changes are
    inlined rather than factored into helpers.
    """
    if filled is None:
        filled = sum(1 for v in flat[1:] if v != 0)
    if filled <= cols - 1:
        return False  # only row 0: every stacked image renumbers identically
    ws = workspace
    if ws is None:
        ws = _WS_CACHE.get((rows, cols))
        if ws is None:
            ws = _WS_CACHE[(rows, cols)] = _CanonWorkspace(rows, cols)

    beyond = filled - (cols - 1)
    n_full = beyond // cols
    part_len = beyond % cols
    part_row = 1 + n_full if part_len else 0

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
            bcol = colinv[label]
            if bcol >= 0:
                if bcol < target:
                    return part_len == 0 or (st[2] == 0 and st[1] >= st[0])
                if bcol == target:
                    return dfs(pos + 1)
                return False
            # The label's renumber value is the image column its first-row
            # cell lands in, which is still free: any free column below the
            # target realises a strictly smaller image if one is feasible.
            lim = target if target < cols else cols
            acol_lt = 1 if 1 <= label < part_len else 0
            for c in range(1, lim):
                if colmap[c] >= 0:
                    continue
                if part_len:
                    b0 = st[0] - (1 if c < part_len else 0)
                    b1 = st[1] - acol_lt
                    b2 = st[2] + (1 if (c < part_len and label >= part_len) else 0)
                    if b2 == 0 and b1 >= b0:
                        return True
                else:
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
        if v < target:
            return part_len == 0 or (st[2] == 0 and st[1] >= st[0])
        if v == target:
            return dfs(pos + 1)
        return False

    def dfs(pos: int) -> bool:
        if pos == filled:
            return False  # image equals the original: not smaller
        q = pos - cols + 1
        r = 1 + q // cols
        c = q % cols
        target = flat[pos + 1]

        if c == 0:
            if r <= n_full:
                for i in range(1, n_full + 1):
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

    return dfs(cols - 1)


def _canonical_flat(flat: Sequence[int], rows: int, cols: int) -> tuple[int, ...]:
    """Lex-least renumbered symmetry image of a complete matrix."""
    from itertools import permutations

    flat = tuple(_renumber_flat(flat))
    total = rows * cols - 1
    best: Optional[list[int]] = None

    for perm in permutations(range(1, rows)):
        rowmap = (0,) + perm
        colmap: list = [None] * cols
        colmap[0] = 0
        colinv: list = [None] * cols
        colinv[0] = 0
        renum: dict[int, int] = {}
        next_new = [cols]
        out: list[int] = []

        def options(srccol: int, i: int):
            """Candidate (value, action) pairs for the image cell reading
            source column `srccol` of source row `i`."""
            label = flat[i * cols + srccol]
            if label < cols:
                bcol = colinv[label]
                if bcol is not None:
                    yield bcol, None
                else:
                    # Free first-row label: the smallest free image column is
                    # the only lex-competitive placement.
                    for cc in range(1, cols):
                        if colmap[cc] is None:
                            yield cc, ("col", cc, label)
                            break
            else:
                v = renum.get(label)
                if v is not None:
                    yield v, None
                else:
                    yield next_new[0], ("new", label)

        def dfs(pos: int, tight: bool) -> None:
            nonlocal best
            if pos == total:
                cand = list(range(1, cols)) + out
                if best is None or cand < best:
                    best = cand
                return
            q = pos - (cols - 1)
            r, c = 1 + q // cols, q % cols
            i = rowmap[r]

            def run(v: int, action) -> None:
                now_tight = tight
                if best is not None and now_tight:
                    bv = best[cols - 1 + len(out)]
                    if v > bv:
                        return
                    if v < bv:
                        now_tight = False
                out.append(v)
                if action is None:
                    dfs(pos + 1, now_tight)
                elif action[0] == "new":
                    renum[action[1]] = v
                    next_new[0] += 1
                    dfs(pos + 1, now_tight)
                    next_new[0] -= 1
                    del renum[action[1]]
                else:
                    _, cc, label = action
                    colmap[cc] = label
                    colinv[label] = cc
                    dfs(pos + 1, now_tight)
                    colinv[label] = None
                    colmap[cc] = None
                out.pop()

            srccol = 0 if c == 0 else colmap[c]
            if srccol is not None:
                for v, action in options(srccol, i):
                    run(v, action)
                return
            # Column still unassigned: collect candidates under each trial
            # binding so the recorded actions stay consistent with the state
            # they will run in.
            choices = []
            for j in range(1, cols):
                if colinv[j] is not None:
                    continue
                colmap[c] = j
                colinv[j] = c
                for v, action in options(j, i):
                    choices.append((v, j, action))
                colinv[j] = None
                colmap[c] = None
            choices.sort(key=lambda t: (t[0], t[1]))
            for v, j, action in choices:
                colmap[c] = j
                colinv[j] = c
                run(v, action)
                colinv[j] = None
                colmap[c] = None

        # The first row of every image renumbers to 1..C-1, so a previous
        # best means the comparison starts tied.
        dfs(cols - 1, best is not None)

    assert best is not None
    return (SENTINEL,) + tuple(best)


def orbit_canonical_form(mat: PairingMatrix) -> PairingMatrix:
    """Lexicographically least consecutively renumbered matrix in the orbit.

    Two complete matrices encode equivalent pairings exactly when their
    canonical forms are identical.
    """
    rows, cols = mat.dims
    return PairingMatrix(mat.dims, _canonical_flat(mat.flat, rows, cols))


# ---------------------------------------------------------------------------
# Partition view

class Pairing:
    """The partition itself: unordered cell pairs covering the grid minus (0,0).

    Equality and hashing go through the canonical matrix form, so two
    Pairings compare equal exactly when they are related by a grid symmetry.
    """

    __slots__ = ("dims", "pairs", "_canon")

    def __init__(self, dims: GridDims, pairs):
        self.dims = GridDims(*dims).validate()
        norm = []
        seen: set[tuple[int, int]] = set()
        for pair in pairs:
            (a, b) = pair
            a, b = tuple(a), tuple(b)
            if a == b:
                raise GridError(f"degenerate pair {pair}")
            lo, hi = (a, b) if a < b else (b, a)
            norm.append((lo, hi))
            for cell in (lo, hi):
                if cell in seen:
                    raise GridError(f"cell {cell} used twice")
                seen.add(cell)
        expect = {(i, j) for i in range(self.dims.rows) for j in range(self.dims.cols)}
        expect.discard((0, 0))
        if seen != expect:
            raise GridError("pairs do not cover the grid minus the corner")
        for (i, j), (k, l) in norm:
            if i == k or j == l:
                raise GridError(f"pair {((i, j), (k, l))} shares a row or column")
        self.pairs = frozenset(norm)
        self._canon = None

    @staticmethod
    def from_matrix(mat: PairingMatrix) -> "Pairing":
        return Pairing(mat.dims, [tuple(cells) for cells in mat.cells_by_label().values()])

    def to_matrix(self) -> PairingMatrix:
        """Consecutively numbered matrix: labels assigned in traversal order."""
        rows, cols = self.dims
        flat = [0] * (rows * cols)
        flat[0] = SENTINEL
        partner: dict[tuple[int, int], tuple[int, int]] = {}
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
        nxt = 1
        for idx in range(1, rows * cols):
            if flat[idx]:
                continue
            cell = divmod(idx, cols)
            other = partner[cell]
            flat[idx] = nxt
            flat[other[0] * cols + other[1]] = nxt
            nxt += 1
        return PairingMatrix(self.dims, flat)

    def canonical_matrix(self) -> PairingMatrix:
        if self._canon is None:
            self._canon = orbit_canonical_form(self.to_matrix())
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pairing):
            return NotImplemented
        return self.dims == other.dims and self.canonical_matrix().flat == other.canonical_matrix().flat

    def __hash__(self) -> int:
        return hash((self.dims, self.canonical_matrix().flat))

    def __repr__(self) -> str:
        return f"Pairing({self.dims.rows}x{self.dims.cols}, {len(self.pairs)} pairs)"


def _projected_components(pairing: Pairing, axis: int, size: int) -> int:
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairing.pairs:
        ra, rb = find(a[axis]), find(b[axis])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return len({find(x) for x in range(size)})


def row_connected(pairing: Pairing) -> bool:
    return _projected_components(pairing, 0, pairing.dims.rows) == 1


def column_connected(pairing: Pairing) -> bool:
    return _projected_components(pairing, 1, pairing.dims.cols) == 1


def proper_invariant_subgrids(pairing: Pairing) -> list[tuple[frozenset, frozenset]]:
    """Proper sub-rectangles through (0,0) that the pairing never leaves.

    Every such subgrid contains a seed {0,i} x {0,j}, and invariant subgrids
    are closed under intersection, so each seed has a least invariant
    subgrid around it: its closure under "a cell inside pulls in its
    partner's row and column".  The result lists the distinct proper
    closures, sorted by rows then columns, so it is empty exactly
    when no proper invariant subgrid exists, and every proper invariant
    subgrid contains one of its members.  An empty result is the strongest
    structural filter: such pairings are in particular row and column
    connected.
    """
    rows, cols = pairing.dims
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in pairing.pairs:
        partner[a] = b
        partner[b] = a
    # full_cols[i] holds j when the closure of seed (i, j) is the whole grid;
    # a closure that reaches such a seed is the whole grid too
    full_cols: list[set[int]] = [set() for _ in range(rows)]
    found = set()
    for i in range(1, rows):
        for j in range(1, cols):
            rset, cset = {0, i}, {0, j}
            reach = set(full_cols[i])
            pending = [(0, j), (i, 0), (i, j)]
            full = False
            while pending and not full:
                r, c = partner[pending.pop()]
                if r not in rset:
                    rset.add(r)
                    reach |= full_cols[r]
                    pending.extend([(r, k) for k in cset])
                if c not in cset:
                    cset.add(c)
                    pending.extend([(k, c) for k in rset])
                full = (not reach.isdisjoint(cset)
                        or (len(rset) == rows and len(cset) == cols))
            if full:
                full_cols[i].add(j)
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


def parse_matrix(text: str, partial: bool = False):
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
    if partial or any(v == 0 for v in flat[1:]):
        return PartialPairingMatrix(dims, flat)
    return PairingMatrix(dims, flat)
