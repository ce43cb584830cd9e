"""Integer Smith normal form and abelianized presentation invariants.

The Smith form of a presentation's relation matrix is the program's only
abelianisation: the records' invariants, the fingerprints' and the word
problem's abelian images all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .present import Presentation, Word


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Diagonalise an integer matrix by row/column operations.

    Returns (diag, V) where diag holds the invariant factors d1 | d2 | ...
    (nonnegative, zeros trailing) and V is the accumulated column transform:
    for the input A there are unimodular U, V with U A V diagonal, and the
    class of a row vector x in Z^n / rowspace(A) has coordinates x V.
    Entries are exact Python ints; coefficient growth is harmless.
    """
    A = [list(row) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    both = A + V  # column operations act on both; rows change only in place

    def col_add(dst: int, src: int, q: int) -> None:
        for row in both:
            row[dst] += q * row[src]

    def col_swap(i: int, j: int) -> None:
        for row in both:
            row[i], row[j] = row[j], row[i]

    def col_neg(i: int) -> None:
        for row in both:
            row[i] = -row[i]

    t = 0
    while t < m and t < n:
        # pivot: smallest nonzero magnitude in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (piv is None or abs(v) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            A[i], A[t] = A[t], A[i]
        if j != t:
            col_swap(j, t)
        if A[t][t] < 0:
            col_neg(t)
        dirty = False
        for i in range(t + 1, m):
            v = A[i][t]
            if v:
                q = v // A[t][t]
                if q:
                    for k in range(t, n):
                        A[i][k] -= q * A[t][k]
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            v = A[t][j]
            if v:
                q = v // A[t][t]
                if q:
                    col_add(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the block for true invariant factors
        d = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for k in range(t, n):
                A[t][k] += A[offender][k]
            continue
        t += 1

    diag = [A[k][k] for k in range(min(m, n))]
    return diag, V


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # d1 | d2 | ..., each >= 2

    def group_order(self):
        """Order of the abelian group, or None when infinite."""
        if self.free_rank:
            return None
        order = 1
        for d in self.torsion:
            order *= d
        return order


class Abelianization:
    """Abelianised presentation with coordinates for word images.

    The abelianisation of a presentation with eliminated generators takes
    `images`, for each original generator a word over the presentation's
    generators, and `image` then reads words over the original generators
    through them."""

    def __init__(self, pres: Presentation, images: Optional[Sequence[Word]] = None):
        n = pres.generator_count
        rows = []
        for rel in pres.relators:
            vec = [0] * n
            for x in rel:
                vec[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(vec)
        if not rows:
            rows = [[0] * n] if n else []
        diag, V = smith_normal_form(rows)
        self._n = n
        self._V = V
        self._images = images
        self._diag = [abs(d) for d in diag] + [0] * (n - len(diag))
        self.invariants = AbelianInvariants(
            free_rank=sum(1 for d in self._diag if d == 0),
            torsion=tuple(d for d in self._diag if d > 1),
        )

    def image(self, word: Word) -> tuple[int, ...]:
        """Canonical coordinates of a word's class in the abelianisation.

        Positions with invariant factor 1 are dropped; torsion positions are
        reduced mod their factor; free positions stay exact integers.
        """
        n = self._n
        vec = [0] * n
        if self._images is not None:  # the images' letters, in any order
            word = [y if x > 0 else -y for x in word for y in self._images[abs(x) - 1]]
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        V = self._V
        out = []
        for j in range(n):
            d = self._diag[j]
            if d == 1:
                continue
            coord = 0
            for i in range(n):
                if vec[i]:
                    coord += vec[i] * V[i][j]
            out.append(coord % d if d else coord)
        return tuple(out)


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    return Abelianization(pres).invariants

