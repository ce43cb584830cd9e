"""Independent reference implementations used only to check the fast paths.

Everything here is deliberately naive: exhaustive matchings, explicit orbit
expansion, determinant-based invariant factors.  Tests freeze expected
values computed by these oracles and compare the real code against them.
"""

from itertools import combinations, permutations

from gridgroups.grid import (GridDims, Pairing, PairingMatrix, all_symmetries,
                             apply_symmetry, consecutive_renumbering)


def brute_force_pairing_matrices(rows, cols):
    """Every complete pairing matrix, via exhaustive cell matching."""
    cells = [(i, j) for i in range(rows) for j in range(cols) if (i, j) != (0, 0)]
    out = []

    def rec(unmatched, pairs):
        if not unmatched:
            out.append(Pairing(GridDims(rows, cols), pairs).to_matrix())
            return
        first = unmatched[0]
        rest = unmatched[1:]
        for k, other in enumerate(rest):
            if other[0] == first[0] or other[1] == first[1]:
                continue
            rec(rest[:k] + rest[k + 1:], pairs + [(first, other)])

    rec(cells, [])
    return out


def explicit_orbit(mat: PairingMatrix):
    """All renumbered symmetry images; the canonical form is its minimum."""
    return {consecutive_renumbering(apply_symmetry(mat, g)).flat
            for g in all_symmetries(mat.dims)}


def brute_canonical(mat: PairingMatrix):
    return min(explicit_orbit(mat))


def gcd_all(values):
    from math import gcd
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def invariant_factors_by_minors(matrix):
    """d_1..d_r with d_1*...*d_k = gcd of all k x k minors (exact, tiny only)."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0

    def det(rows_idx, cols_idx):
        k = len(rows_idx)
        if k == 0:
            return 1
        sub = [[matrix[i][j] for j in cols_idx] for i in rows_idx]
        if k == 1:
            return sub[0][0]
        total = 0
        for c in range(k):
            minor = [row[:c] + row[c + 1:] for row in sub[1:]]
            sign = -1 if c % 2 else 1
            total += sign * sub[0][c] * _det_list(minor)
        return total

    def _det_list(sub):
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0]
        total = 0
        for c in range(k):
            minor = [row[:c] + row[c + 1:] for row in sub[1:]]
            sign = -1 if c % 2 else 1
            total += sign * sub[0][c] * _det_list(minor)
        return total

    gcds = [1]
    for k in range(1, min(m, n) + 1):
        vals = []
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                vals.append(det(rows_idx, cols_idx))
        g = gcd_all(vals)
        gcds.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        factors.append(gcds[k] // gcds[k - 1])
    return factors


def scan_proper_invariant_subgrids(pairing: Pairing):
    """Every proper invariant subgrid through (0,0), by testing each row and
    column subset that holds index 0 and at least one other index."""
    rows, cols = pairing.dims
    out = []
    for rbits in range(1, 1 << (rows - 1)):
        rset = frozenset({0} | {i + 1 for i in range(rows - 1) if rbits >> i & 1})
        for cbits in range(1, 1 << (cols - 1)):
            cset = frozenset({0} | {j + 1 for j in range(cols - 1) if cbits >> j & 1})
            if len(rset) == rows and len(cset) == cols:
                continue
            if all((i in rset and j in cset) == (k in rset and l in cset)
                   for (i, j), (k, l) in pairing.pairs):
                out.append((rset, cset))
    out.sort(key=lambda rc: (sorted(rc[0]), sorted(rc[1])))
    return out


def naive_group_from_table(table):
    """Multiplication dict from a coset table, for cross-checks."""
    n = table.coset_count
    return {(i, j): table.mult(i, j) for i in range(n) for j in range(n)}
