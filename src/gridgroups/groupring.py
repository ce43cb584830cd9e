"""Arithmetic in F_p[G] for finite G, with the rank-2 formulas and the
matrix-unit labs used to sanity-check the theory at desk scale.

Group elements are coset numbers of a complete regular coset table; ring
elements are sparse coefficient maps with zero entries dropped eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

from .coset import CosetTable, todd_coxeter
from .present import Presentation, Word, generator_families


class GroupRingError(ValueError):
    pass


def check_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
        raise GroupRingError(f"{p} is not prime")


@dataclass(frozen=True)
class GroupRingElement:
    p: int
    table: CosetTable
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {g: c % self.p for g, c in self.coeffs.items()}
        object.__setattr__(self, "coeffs", {g: c for g, c in clean.items() if c})
        n = self.table.coset_count
        if any(not 0 <= g < n for g in self.coeffs):
            raise GroupRingError("support element out of range")

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*[{g}]" for g, c in sorted(self.coeffs.items()))


def gr_zero(p: int, table: CosetTable) -> GroupRingElement:
    return GroupRingElement(p, table, {})


def gr_one(p: int, table: CosetTable) -> GroupRingElement:
    return GroupRingElement(p, table, {0: 1})


def gr_basis(p: int, table: CosetTable, g: int, c: int = 1) -> GroupRingElement:
    return GroupRingElement(p, table, {g: c})


def _same_ring(x: GroupRingElement, y: GroupRingElement) -> None:
    if x.p != y.p or x.table is not y.table:
        raise GroupRingError("elements live in different group rings")


def gr_add(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    _same_ring(x, y)
    out = dict(x.coeffs)
    for g, c in y.coeffs.items():
        out[g] = (out.get(g, 0) + c) % x.p
    return GroupRingElement(x.p, x.table, out)


def gr_neg(x: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(x.p, x.table, {g: -c for g, c in x.coeffs.items()})


def gr_sub(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    return gr_add(x, gr_neg(y))


def gr_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    _same_ring(x, y)
    table = x.table
    out: dict[int, int] = {}
    for g, c in x.coeffs.items():
        for h, d in y.coeffs.items():
            k = table.mult(g, h)
            out[k] = (out.get(k, 0) + c * d) % x.p
    return GroupRingElement(x.p, table, out)


def gr_scal(k: int, x: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(x.p, x.table, {g: k * c for g, c in x.coeffs.items()})


# ---------------------------------------------------------------------------
# Conditional expectation onto a subgroup

@dataclass(frozen=True)
class SubgroupContext:
    table: CosetTable
    elements: frozenset[int]

    def __post_init__(self):
        t = self.table
        if 0 not in self.elements:
            raise GroupRingError("subgroup must contain the identity")
        for g in self.elements:
            if t.inverse(g) not in self.elements:
                raise GroupRingError("subgroup not closed under inverses")
            for h in self.elements:
                if t.mult(g, h) not in self.elements:
                    raise GroupRingError("subgroup not closed under products")

    @staticmethod
    def generated_by(table: CosetTable, gens: Sequence[int]) -> "SubgroupContext":
        return SubgroupContext(table, frozenset(table.subgroup_closure(list(gens))))


def conditional_expectation(x: GroupRingElement, ctx: SubgroupContext) -> GroupRingElement:
    if ctx.table is not x.table:
        raise GroupRingError("subgroup context belongs to a different group")
    return GroupRingElement(x.p, x.table,
                            {g: c for g, c in x.coeffs.items() if g in ctx.elements})


# ---------------------------------------------------------------------------
# Rank-2 invertibility in F_p[Z_n]

NOT_INVERTIBLE = "not invertible"


def _cyclic_convolve(u: list[int], v: list[int], p: int, n: int) -> list[int]:
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[(i + j) % n] = (out[(i + j) % n] + a * b) % p
    return out


@dataclass(frozen=True)
class Rank2Inverse:
    p: int
    n: int
    coeffs: tuple[int, ...]  # inverse of 1 - r*g as coefficients of 1, g, .., g^(n-1)


def rank2_inverse(p: int, r: int, n: int):
    """Inverse of 1 - r*g in F_p[Z_n] when r^n != 1; the sentinel otherwise.

    The returned coefficients are re-verified by an actual convolution.
    """
    check_prime(p)
    if n < 2:
        raise GroupRingError("the cyclic order must be at least 2")
    r %= p
    if r == 0:
        raise GroupRingError("the coefficient must be a nonzero residue")
    rn = pow(r, n, p)
    if rn == 1:
        return NOT_INVERTIBLE
    scale = pow((1 - rn) % p, p - 2, p)
    coeffs = tuple(scale * pow(r, i, p) % p for i in range(n))
    a = [1] + [0] * (n - 1)
    a[1 % n] = (a[1 % n] - r) % p
    prod = _cyclic_convolve(a, list(coeffs), p, n)
    if prod != [1] + [0] * (n - 1):
        raise GroupRingError("internal check failed: computed inverse is wrong")
    return Rank2Inverse(p, n, coeffs)


def rank2_zero_divisor(p: int, r: int, n: int) -> tuple[int, ...]:
    """Two-sided annihilator 1 + r g + ... + r^(n-1) g^(n-1) of 1 - r*g
    when r^n = 1; verified by convolution both ways."""
    check_prime(p)
    if n < 2:
        raise GroupRingError("the cyclic order must be at least 2")
    r %= p
    if r == 0:
        raise GroupRingError("the coefficient must be a nonzero residue")
    if pow(r, n, p) != 1:
        raise GroupRingError("r^n != 1: the element is invertible, not a zero divisor")
    b = [pow(r, i, p) for i in range(n)]
    a = [1] + [0] * (n - 1)
    a[1 % n] = (a[1 % n] - r) % p
    zero = [0] * n
    if _cyclic_convolve(a, b, p, n) != zero or _cyclic_convolve(b, a, p, n) != zero:
        raise GroupRingError("internal check failed: products are not zero")
    return tuple(b)


# ---------------------------------------------------------------------------
# Direct-finiteness verification for a pairing's group

@dataclass(frozen=True)
class DirectFinitenessReport:
    ab_is_one: bool
    ba_is_one: bool


def verify_direct_finiteness(dims, table: CosetTable) -> DirectFinitenessReport:
    """Multiply the two support sums of a `dims` grid both ways in the mod-2
    group ring.

    The left product equal to one is a construction sanity check; the right
    product is the verdict under test.  Requires distinct generator images
    (a degenerate pairing does not define the intended element pair).
    The generators are read through the table's `element`, so a table over
    eliminated generators must be built on their Tietze pass.
    """
    rows, cols = dims
    a_elems, b_elems = ([table.element(w) for _, w in fam]
                        for fam in generator_families(dims))
    if len(set(a_elems)) != rows or len(set(b_elems)) != cols:
        raise GroupRingError("generator images collide: pairing is degenerate")
    a = GroupRingElement(2, table, {g: 1 for g in a_elems})
    b = GroupRingElement(2, table, {g: 1 for g in b_elems})
    return DirectFinitenessReport(ab_is_one=gr_mul(a, b).is_one(),
                                  ba_is_one=gr_mul(b, a).is_one())


# ---------------------------------------------------------------------------
# Small linear algebra over F_p

def _row_reduce_mod_p(mat: list[list[int]], ncols: int, p: int) -> list[int]:
    """Bring the rows of `mat`, entries in 0..p-1, to reduced row echelon
    form mod p in place, eliminating in its first `ncols` columns only; the
    pivot columns, in order (row k holds the k-th pivot)."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    mat = [[v % p for v in r] for r in rows]
    return len(_row_reduce_mod_p(mat, len(mat[0]) if mat else 0, p))


def _solve_mod_p(rows: list[list[int]], rhs: list[int], p: int) -> Optional[list[int]]:
    """One solution of rows^T x = rhs mod p, or None: the rows are the
    unknowns' vectors."""
    n = len(rows)
    aug = [[row[i] % p for row in rows] + [rhs[i] % p] for i in range(len(rows[0]))]
    pivots = _row_reduce_mod_p(aug, n, p)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [0] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    return x


# ---------------------------------------------------------------------------
# Matrix-unit labs

@dataclass(frozen=True)
class LabCheck:
    branch: str
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class LabReport:
    p: int
    checks: tuple[LabCheck, ...]

    def all_passed(self) -> bool:
        return all(c.status in ("pass", "skip") for c in self.checks)


def _mat_mul(a, b, p):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p,
            (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p), \
           ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p,
            (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p)


_S3 = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))
_DIH4 = Presentation(("c", "d"), ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)))

_S3_REP = {"a": ((-1, -1), (1, 0)), "b": ((0, 1), (1, 0))}
_DIH4_REP = {"c": ((0, -1), (1, 0)), "d": ((1, 0), (0, -1))}


@cache
def _group_table(key: str, pres: Presentation) -> CosetTable:
    run = todd_coxeter(pres, max_cosets=2000)
    assert run.status == "complete"
    return run.table


def _rep_matrix(word: Word, rep: dict[str, tuple], pres: Presentation, p: int):
    mat = ((1, 0), (0, 1))
    for x in word:
        name = pres.names[abs(x) - 1]
        m = rep[name]
        if x < 0:
            det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
            dinv = pow(det, p - 2, p)
            m = ((m[1][1] * dinv % p, -m[0][1] * dinv % p),
                 (-m[1][0] * dinv % p, m[0][0] * dinv % p))
        mat = _mat_mul(mat, m, p)
    return ((mat[0][0] % p, mat[0][1] % p), (mat[1][0] % p, mat[1][1] % p))


def _corner(branch: str, p: int):
    """The branch's group table, its projection Q, the corner elements Q·g·Q
    and the representation matrices, both for every group element g."""
    pres, rep = (_S3, _S3_REP) if branch == "S3" else (_DIH4, _DIH4_REP)
    table = _group_table(branch, pres)
    if branch == "S3":
        inv3 = pow(3, p - 2, p)
        a, a2 = table.element((1,)), table.element((1, 1))
        q = GroupRingElement(p, table, {0: 2 * inv3, a: -inv3, a2: -inv3})
    else:
        inv2 = pow(2, p - 2, p)
        q = GroupRingElement(p, table, {0: inv2, table.element((1, 1)): -inv2})
    n = table.coset_count
    corner = [gr_mul(gr_mul(q, gr_basis(p, table, g)), q) for g in range(n)]
    mats = [_rep_matrix(w, rep, pres, p) for w in table.element_words()]
    return table, q, corner, mats


def _corner_checks(branch: str, p: int) -> list[LabCheck]:
    table, q, corner, mats = _corner(branch, p)
    n = table.coset_count
    checks = []
    qq = gr_mul(q, q)
    checks.append(LabCheck(branch, "projection squares to itself",
                           "pass" if qq.coeffs == q.coeffs else "fail"))
    # corner dimension: span of Q g Q over the group basis
    dim = _rank_mod_p([[x.coeffs.get(e, 0) for e in range(n)] for x in corner], p)
    checks.append(LabCheck(branch, "corner has dimension 4",
                           "pass" if dim == 4 else "fail", f"dim={dim}"))
    flat = [[m[0][0], m[0][1], m[1][0], m[1][1]] for m in mats]
    span = _rank_mod_p(flat, p)
    checks.append(LabCheck(branch, "representation spans the 2x2 matrices",
                           "pass" if span == 4 else "fail", f"rank={span}"))
    q_mat = ((0, 0), (0, 0))
    for g, c in q.coeffs.items():
        m = mats[g]
        q_mat = ((q_mat[0][0] + c * m[0][0], q_mat[0][1] + c * m[0][1]),
                 (q_mat[1][0] + c * m[1][0], q_mat[1][1] + c * m[1][1]))
    q_mat = ((q_mat[0][0] % p, q_mat[0][1] % p), (q_mat[1][0] % p, q_mat[1][1] % p))
    checks.append(LabCheck(branch, "projection represents the identity matrix",
                           "pass" if q_mat == ((1, 0), (0, 1)) else "fail"))
    return checks


# the characteristic in which each branch's projection would divide by zero
_SKIPPED_CHARACTERISTIC = {"S3": 3, "Dih4": 2}


def _skip_reason(branch: str, p: int) -> Optional[str]:
    """Why the branch's corner cannot be built in characteristic p, or None."""
    if p == _SKIPPED_CHARACTERISTIC.get(branch):
        return f"division by {p} unavailable in characteristic {p}"
    return None


def matrix_unit_lab(p: int) -> LabReport:
    """Characteristic case split of the 2x2 matrix-unit construction.

    The symmetric-group corner runs unless p = 3; the dihedral corner runs
    unless p = 2.  Inapplicable branches are reported as skipped.
    """
    check_prime(p)
    checks: list[LabCheck] = []
    for branch in ("S3", "Dih4"):
        reason = _skip_reason(branch, p)
        if reason is None:
            checks.extend(_corner_checks(branch, p))
        else:
            checks.append(LabCheck(branch, "all", "skip", reason))
    return LabReport(p, tuple(checks))


def matrix_units(p: int, branch: str = "S3") -> tuple[CosetTable, list[GroupRingElement]]:
    """Elements e11, e12, e21, e22 of the corner representing the 2x2 units.
    p is a prime and the branch is "S3" or "Dih4".  In the characteristic
    the lab skips for the branch it raises GroupRingError with the lab's
    reason."""
    check_prime(p)
    if branch not in _SKIPPED_CHARACTERISTIC:
        raise GroupRingError(f"unknown branch {branch!r}: expected S3 or Dih4")
    reason = _skip_reason(branch, p)
    if reason is not None:
        raise GroupRingError(reason)
    table, _, corner, mats = _corner(branch, p)
    n = table.coset_count
    units = []
    for target in (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))):
        # solve sum_g x_g * pi(QgQ) = target entrywise
        pis = []
        for g in range(n):
            acc = [[0, 0], [0, 0]]
            for e, c in corner[g].coeffs.items():
                mg = mats[e]
                for i in range(2):
                    for j in range(2):
                        acc[i][j] = (acc[i][j] + c * mg[i][j]) % p
            pis.append([acc[0][0], acc[0][1], acc[1][0], acc[1][1]])
        flat_target = [target[0][0], target[0][1], target[1][0], target[1][1]]
        sol = _solve_mod_p(pis, flat_target, p)
        if sol is None:
            raise GroupRingError("matrix unit system is unsolvable")
        acc_coeffs: dict[int, int] = {}
        for g, xg in enumerate(sol):
            if xg:
                for e, c in corner[g].coeffs.items():
                    acc_coeffs[e] = (acc_coeffs.get(e, 0) + xg * c) % p
        units.append(GroupRingElement(p, table, acc_coeffs))
    return table, units
