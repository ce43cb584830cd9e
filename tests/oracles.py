"""Independent reference implementations used only to check the fast paths.

Everything here is deliberately naive: exhaustive matchings, explicit orbit
expansion, determinant-based invariant factors, or else the implementation
that a faster one replaced (the separate canonical-form search, the
union-find coset enumerator, the tail-bucket
rewriting index, the all-pairs critical-pair scan, the recursive normal-form
count, the torsion-quotient report on fresh toolboxes, the unwatched first
coset pass, the closure homomorphism search, word evaluation by composing
`mult` and `inv`, the fingerprint read from the derived subgroup and the
element orders of the quotient by it, the degeneracy pass and the word-problem
ladder that each wrote out the search-free proof stages, the two Gauss-Jordan
eliminations mod p, the two repeat-order loops, the invariant-subgrid
closures of every seed {0,i} x {0,j}, the three-pass matrix validator, the
greedy elimination that substituted into every relator and composed its
images at once).  Tests freeze expected values computed by these
oracles and compare the real code against them.
"""

from collections import deque
from functools import cache
from itertools import combinations, permutations

from gridgroups.abelian import AbelianInvariants
from gridgroups.coset import GroupFingerprint
from gridgroups.grid import (SENTINEL, GridDims, GridError, PairingMatrix,
                             all_symmetries, apply_symmetry, cell_partners,
                             consecutive_renumbering)
from gridgroups.present import (MAX_REPLACEMENT_LENGTH, Presentation,
                                SimplifiedPresentation, _cyclic_key, _substitute,
                                concat, cyclic_reduce, invert)
from gridgroups.rewrite import RewriteSystem


def brute_force_pairing_matrices(rows, cols):
    """Every complete pairing matrix, via exhaustive cell matching."""
    cells = [(i, j) for i in range(rows) for j in range(cols) if (i, j) != (0, 0)]
    out = []

    def rec(unmatched, pairs):
        if not unmatched:
            out.append(PairingMatrix.from_pairs(GridDims(rows, cols), pairs))
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


def reference_canonical_flat(mat: PairingMatrix):
    """orbit_canonical_form's flat before it descended through the pruning
    test's witnesses: a separate lex-least search over every row
    permutation, which binds columns and fresh labels greedily along the
    traversal and prunes against the best image so far."""
    rows, cols = mat.dims
    flat = consecutive_renumbering(mat).flat
    total = rows * cols - 1
    best = None

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


def scan_proper_invariant_subgrids(mat: PairingMatrix):
    """Every proper invariant subgrid through (0,0), by testing each row and
    column subset that holds index 0 and at least one other index."""
    rows, cols = mat.dims
    pairs = list(mat.cells_by_label().values())
    out = []
    for rbits in range(1, 1 << (rows - 1)):
        rset = frozenset({0} | {i + 1 for i in range(rows - 1) if rbits >> i & 1})
        for cbits in range(1, 1 << (cols - 1)):
            cset = frozenset({0} | {j + 1 for j in range(cols - 1) if cbits >> j & 1})
            if len(rset) == rows and len(cset) == cols:
                continue
            if all((i in rset and j in cset) == (k in rset and l in cset)
                   for (i, j), (k, l) in pairs):
                out.append((rset, cset))
    out.sort(key=lambda rc: (sorted(rc[0]), sorted(rc[1])))
    return out


def seed_grid_invariant_subgrids(mat: PairingMatrix):
    """The distinct proper closures of every seed {0,i} x {0,j}, i, j >= 1,
    sorted by rows then columns: the (rows-1)(cols-1)-seed list that the
    row-seed closures replaced."""
    rows, cols = mat.dims
    partner = cell_partners(mat)
    # full_cols[i] holds j when the closure of seed (i, j) is the whole grid;
    # a closure that reaches such a seed is the whole grid too
    full_cols = [set() for _ in range(rows)]
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


def reference_validate_flat(dims, flat, complete):
    """The matrix validator as three passes: the cells, then each row, then
    each column; it raises GridError with the message of the first fault."""
    rows, cols = dims
    if len(flat) != rows * cols:
        raise GridError(f"expected {rows * cols} entries, got {len(flat)}")
    if flat[0] != SENTINEL:
        raise GridError("corner cell must hold the sentinel -1")
    max_label = dims.max_label
    counts = {}
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
        seen = set()
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


def reference_eliminate_generators(pres):
    """The greedy Tietze pass that calls the substitution on every relator
    and composes the original generators' images as it returns."""
    n = pres.generator_count
    relators = [cyclic_reduce(r) if r[0] == -r[-1] else r for r in pres.relators if r]
    eliminated = []
    while True:
        for rel in sorted(relators, key=len):
            once = [abs(x) for x in rel if rel.count(x) + rel.count(-x) == 1]
            if once:
                break
        else:
            break
        g = max(once)
        relators.remove(rel)
        pos = rel.index(g) if g in rel else rel.index(-g)
        rot = rel[pos:] + rel[:pos]
        repl = invert(rot[1:]) if rot[0] == g else rot[1:]
        eliminated.append((g, repl))
        inv_repl = invert(repl)
        kept = []
        for r in relators:
            r = _substitute(r, g, repl, inv_repl)
            while len(r) > 1 and r[0] == -r[-1]:
                r = r[1:-1]
            if r:
                kept.append(r)
        relators = kept
    images = [(i + 1,) for i in range(n)]
    inverses = [(-i - 1,) for i in range(n)]
    for g, repl in reversed(eliminated):
        image = concat(*(images[x - 1] if x > 0 else inverses[-x - 1] for x in repl))
        images[g - 1], inverses[g - 1] = image, invert(image)
    done = {g for g, _ in eliminated}
    keep = [i for i in range(n) if i + 1 not in done]
    remap = {}
    for new, old in enumerate(keep, 1):
        remap[old + 1], remap[-old - 1] = new, -new
    return SimplifiedPresentation(
        Presentation(tuple(pres.names[i] for i in keep),
                     tuple(tuple(map(remap.__getitem__, r)) for r in relators)),
        tuple(tuple(map(remap.__getitem__, w)) for w in images))


def reference_simplify_presentation(pres):
    """The canonical greedy Tietze pass that substitutes into every
    original generator's image on each round and renumbers the survivors
    at the end."""
    n = pres.generator_count
    relators = [cyclic_reduce(r) for r in pres.relators]
    images = [(i + 1,) for i in range(n)]
    alive = [True] * n

    def normalize():
        nonlocal relators
        seen = {}
        for r in relators:
            r = cyclic_reduce(r)
            if r:
                seen.setdefault(_cyclic_key(r), r)
        relators = sorted(seen.values(), key=lambda w: (len(w), w))

    normalize()
    while True:
        choice = None
        for ri, rel in enumerate(relators):
            counts = {}
            for x in rel:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g, cnt in counts.items():
                if cnt == 1 and len(rel) - 1 <= MAX_REPLACEMENT_LENGTH:
                    if choice is None or len(rel) < len(relators[choice[0]]) or (
                            len(rel) == len(relators[choice[0]]) and g < choice[1]):
                        choice = (ri, g)
            if choice is not None and len(relators[choice[0]]) <= 2:
                break
        if choice is None:
            break
        ri, g = choice
        rel = relators[ri]
        pos = next(k for k, x in enumerate(rel) if abs(x) == g)
        rot = rel[pos:] + rel[:pos]
        if rot[0] == g:
            repl = invert(rot[1:])  # g * w = 1  =>  g = w^-1
        else:
            repl = rot[1:]          # g^-1 * w = 1  =>  g = w
        del relators[ri]
        inv_repl = invert(repl)
        relators = [_substitute(r, g, repl, inv_repl) for r in relators]
        images = [_substitute(w, g, repl, inv_repl) for w in images]
        alive[g - 1] = False
        normalize()

    keep = [i for i in range(n) if alive[i]]
    remap = {old + 1: new + 1 for new, old in enumerate(keep)}

    def remap_word(w):
        return tuple(remap[x] if x > 0 else -remap[-x] for x in w)

    new_pres = Presentation(tuple(pres.names[i] for i in keep),
                            tuple(remap_word(r) for r in relators))
    return SimplifiedPresentation(new_pres, tuple(remap_word(w) for w in images))


def naive_group_from_table(table):
    """Multiplication dict from a coset table, for cross-checks."""
    n = table.coset_count
    return {(i, j): table.mult(i, j) for i in range(n) for j in range(n)}


def derived_subgroup(table):
    """The elements of the derived subgroup of a closed regular table: the
    closure of the generators' commutators under conjugation."""
    gens = table.generator_elements()
    comms = set()
    for x in gens:
        for y in gens:
            comms.add(table.mult(table.mult(table.mult(table.inverse(x), table.inverse(y)), x), y))
    sub = table.subgroup_closure(sorted(comms))
    while True:
        extra = set()
        for h in gens:
            hinv = table.inverse(h)
            for s in sub:
                t = table.mult(table.mult(hinv, s), h)
                if t not in sub:
                    extra.add(t)
        if not extra:
            return sub
        sub = table.subgroup_closure(sorted(sub | extra))


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _ppart(o, p):
    r = 1
    while o % p == 0:
        o //= p
        r *= p
    return r


def invariants_from_order_counts(order_counts):
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p, counting elements whose order's p-part divides p^k
    recovers the partition of the Sylow p-subgroup; matching the prime
    powers largest-with-largest yields the divisibility chain.
    """
    total = sum(order_counts.values())
    if total == 1:
        return AbelianInvariants(0, ())
    per_prime = []
    for p in _prime_factors(total):
        def count_div(k):
            cap = p ** k
            return sum(c for o, c in order_counts.items() if _ppart(o, p) <= cap)

        coprime = count_div(0)
        sigma = [0]
        k = 1
        while True:
            q, r = divmod(count_div(k), coprime)
            if r:
                raise ValueError("order counts are not those of an abelian group")
            e = 0
            while p ** e < q:
                e += 1
            if p ** e != q:
                raise ValueError("order counts are not those of an abelian group")
            if e == sigma[-1]:
                break
            sigma.append(e)
            k += 1
        parts_ge = [sigma[k] - sigma[k - 1] for k in range(1, len(sigma))]
        height = parts_ge[0] if parts_ge else 0
        exponents = [sum(1 for g in parts_ge if g >= i) for i in range(1, height + 1)]
        per_prime.append(sorted((p ** e for e in exponents), reverse=True))
    width = max((len(ps) for ps in per_prime), default=0)
    factors = []
    for col in range(width):
        f = 1
        for ps in per_prime:
            if col < len(ps):
                f *= ps[col]
        factors.append(f)
    factors.sort()
    check = 1
    for f in factors:
        check *= f
    if check != total:
        raise ValueError("factor product does not match the group order")
    return AbelianInvariants(0, tuple(f for f in factors if f > 1))


def table_abelianization(table, derived):
    """The abelian invariants of a closed regular table, from the element
    orders of its quotient by the derived subgroup `derived`."""
    n = table.coset_count
    coset_of = [-1] * n
    for e in range(n):
        if coset_of[e] != -1:
            continue
        members = sorted(table.mult(e, s) for s in derived)
        lead = members[0]
        for m in members:
            coset_of[m] = lead
    counts = {}
    for e in range(n):
        if coset_of[e] != e:
            continue
        k, c = 1, e
        while coset_of[c] != 0:
            c = coset_of[table.mult(c, e)]
            k += 1
        counts[k] = counts.get(k, 0) + 1
    return invariants_from_order_counts(counts)


def reference_fingerprint(table):
    """coset.fingerprint as it was before it read the Smith form: the
    abelianisation and the derived order from the derived subgroup."""
    derived = derived_subgroup(table)
    counts = table.order_counts()
    return GroupFingerprint(
        order=table.coset_count,
        abelianization=table_abelianization(table, derived),
        element_orders=tuple(sorted(counts.items())),
        center_order=table.center_order(),
        derived_order=len(derived),
    )


class _ReferenceGraph:
    """Coset graph whose entries may name merged cosets (resolved by find)."""

    __slots__ = ("nd", "neigh", "label", "defined")

    def __init__(self, nd):
        self.nd = nd
        self.neigh = []
        self.label = []
        self.defined = 0

    def find(self, c):
        label = self.label
        while label[c] != c:
            label[c] = label[label[c]]
            c = label[c]
        return c

    def add(self):
        c = len(self.label)
        self.label.append(c)
        self.neigh.append([-1] * self.nd)
        self.defined += 1
        return c

    def quotient(self):
        """Live coset -> its row with every entry resolved to a live coset."""
        return {c: [self.find(x) if x != -1 else -1 for x in self.neigh[c]]
                for c in range(len(self.label)) if self.label[c] == c}


class ReferenceEnumeration:
    def __init__(self, status, action, graph, cosets_defined):
        self.status = status
        self.action = action
        self.graph = graph
        self.cosets_defined = cosets_defined

    def equal_words(self, w1, w2):
        """True when both words reach the same vertex of the partial graph."""
        a = self._trace(w1)
        b = self._trace(w2)
        if a is not None and a == b:
            return True
        return None

    def _trace(self, word):
        g = self.graph
        c = g.find(0)
        for x in word:
            nxt = g.neigh[c][(x - 1) * 2 if x > 0 else (-x - 1) * 2 + 1]
            if nxt == -1:
                return None
            c = g.find(nxt)
        return c


class _Exhausted(Exception):
    pass


def reference_todd_coxeter(pres, subgroup=(), max_cosets=200_000):
    """Fill-as-you-scan enumeration with a union-find over coset numbers.

    Coincidences are merged lazily: the table may keep pointing at merged
    cosets, and every scan step resolves its entry through find.  Returns a
    ReferenceEnumeration whose action table (complete runs) or graph
    (partial runs) the eager-coincidence kernel must reproduce exactly.
    """
    from gridgroups.present import free_reduce

    UNDEF = -1
    ngens = pres.generator_count
    nd = 2 * ngens

    def paths(words):
        return [tuple((x - 1) * 2 if x > 0 else (-x - 1) * 2 + 1 for x in w)
                for w in words]

    rel_paths = paths(pres.relators)
    sub_paths = paths([free_reduce(w) for w in subgroup])
    g = _ReferenceGraph(nd)
    g.add()
    neigh = g.neigh
    find = g.find
    pending = []

    def merge(a, b):
        pending.append((a, b))
        label = g.label
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            label[y] = x
            row_x, row_y = neigh[x], neigh[y]
            for d in range(nd):
                ny = row_y[d]
                if ny != UNDEF:
                    nx = row_x[d]
                    if nx == UNDEF:
                        row_x[d] = ny
                    else:
                        pending.append((nx, ny))

    def scan_and_fill(alpha, path):
        if not path:
            return
        f = alpha
        i = 0
        b = alpha
        r = len(path) - 1
        while True:
            while i <= r:
                nxt = neigh[f][path[i]]
                if nxt == UNDEF:
                    break
                f = find(nxt)
                i += 1
            if i > r:
                if f != b:
                    merge(f, b)
                return
            while r >= i:
                nxt = neigh[b][path[r] ^ 1]
                if nxt == UNDEF:
                    break
                b = find(nxt)
                r -= 1
            if r < i:
                merge(f, b)
                return
            if r == i:
                d = path[i]
                neigh[f][d] = b
                back = neigh[b][d ^ 1]
                if back == UNDEF:
                    neigh[b][d ^ 1] = f
                else:
                    merge(back, f)
                return
            if g.defined >= max_cosets:
                raise _Exhausted
            c = g.add()
            d = path[i]
            neigh[f][d] = c
            neigh[c][d ^ 1] = f
            f = c
            i += 1

    status = "complete"
    try:
        for path in sub_paths:
            scan_and_fill(0, path)
        alpha = 0
        while alpha < len(g.label):
            if g.label[alpha] == alpha:
                for path in rel_paths:
                    scan_and_fill(alpha, path)
                    if g.label[alpha] != alpha:
                        break
            alpha += 1
    except _Exhausted:
        status = "exhausted"

    if status == "complete":
        live = [c for c in range(len(g.label)) if g.label[c] == c]
        if any(neigh[c][d] == UNDEF for c in live for d in range(nd)):
            status = "open"
    if status != "complete":
        return ReferenceEnumeration(status, None, g, g.defined)
    renum = {c: k for k, c in enumerate(live)}
    action = [[renum[find(neigh[c][d])] for d in range(nd)] for c in live]
    return ReferenceEnumeration("complete", action, None, g.defined)


class TailBuckets:
    """The rule index that the trie replaced: rules bucketed by the final two
    letters of the left side (the final letter alone for one-letter rules),
    each bucket in the order its rules were added."""

    def __init__(self, rules=()):
        self.by_tail = {}
        for lhs, rhs in rules:
            self.add(lhs, rhs)

    def add(self, lhs, rhs):
        self.by_tail.setdefault(bytes(lhs[-2:]), []).append((len(lhs), lhs, rhs))

    def remove(self, lhs):
        bucket = self.by_tail[bytes(lhs[-2:])]
        bucket[:] = [entry for entry in bucket if entry[1] != lhs]

    def reduce(self, letters, skip=None):
        by_tail = self.by_tail
        stack = bytearray()
        pending = deque(letters)
        while pending:
            stack.append(pending.popleft())
            while True:
                n = len(stack)
                cands = by_tail.get(bytes(stack[-2:])) if n >= 2 else None
                hit = None
                if cands:
                    for L, lhs, rhs in cands:
                        if L <= n and lhs != skip and stack[-L:] == lhs:
                            hit = (L, rhs)
                            break
                if hit is None and n >= 1:
                    cands = by_tail.get(bytes(stack[-1:]))
                    if cands:
                        for L, lhs, rhs in cands:
                            if L <= n and lhs != skip and stack[-L:] == lhs:
                                hit = (L, rhs)
                                break
                if hit is None:
                    break
                L, rhs = hit
                del stack[-L:]
                if rhs:
                    pending.extendleft(reversed(rhs))
                if not stack:
                    break
        return bytes(stack)


class BucketRewriteSystem(RewriteSystem):
    """Completion in which every reduction goes through TailBuckets."""

    def __init__(self, *args, **kwargs):
        self._buckets = TailBuckets()
        super().__init__(*args, **kwargs)

    def _index(self):
        self._buckets = TailBuckets(self._rules.items())

    def _add_index(self, lhs, rhs):
        self._buckets.add(lhs, rhs)

    def _remove_index(self, lhs):
        self._buckets.remove(lhs)

    def reduce(self, letters, skip=None):
        return self._buckets.reduce(letters, skip)


class AllPairsRewriteSystem(RewriteSystem):
    """Completion with the critical-pair scan that the overlap index
    replaced: every overlap length k of every pair of left sides, sliced and
    compared, with the membership checks of the original loop."""

    def _overlaps(self, new):
        rules = self._rules
        for lhs in list(rules):
            if new not in rules:
                break
            for x, y in ((new, lhs), (lhs, new)):
                if x not in rules or y not in rules:
                    continue
                for k in range(1, min(len(x), len(y))):
                    if x[-k:] == y[:k]:
                        yield rules[x] + y[k:], x[:-k] + rules[y]


def reference_language(kb):
    """Recursive normal-form language analysis of a confluent system:
    ("finite", order) or ("infinite", None).  Recurses once per automaton
    state, so it lifts the interpreter's recursion limit while it runs."""
    import sys
    from collections import deque

    nd = 2 * kb.presentation.generator_count
    goto = [{}]
    fail = [0]
    terminal = [False]
    for pat in kb._rules:
        node = 0
        for ch in pat:
            node = goto[node].setdefault(ch, len(goto))
            if node >= len(fail):
                goto.append({})
                fail.append(0)
                terminal.append(False)
        terminal[node] = True
    queue = deque(goto[0].values())
    while queue:
        node = queue.popleft()
        if terminal[fail[node]]:
            terminal[node] = True
        for ch, nxt in goto[node].items():
            f = fail[node]
            while f and ch not in goto[f]:
                f = fail[f]
            fail[nxt] = goto[f].get(ch, 0) if goto[f].get(ch, 0) != nxt else 0
            queue.append(nxt)

    def step(node, ch):
        while True:
            if ch in goto[node]:
                return goto[node][ch]
            if node == 0:
                return 0
            node = fail[node]

    color = [0] * len(goto)
    counts = {}

    def visit(node):
        if color[node] == 1:
            return None
        if node in counts:
            return counts[node]
        color[node] = 1
        total = 1
        for ch in range(nd):
            nxt = step(node, ch)
            if terminal[nxt]:
                continue
            sub = visit(nxt)
            if sub is None:
                total = None
                break
            total += sub
        color[node] = 2
        counts[node] = total
        return total

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(goto) + 100))
    try:
        total = visit(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return ("infinite", None) if total is None else ("finite", total)


def reference_torsion_quotient_report(pres, dims, budgets, max_iterations=4):
    """The torsion-quotient report with a fresh toolbox for every
    presentation it studies, so nothing the class's pipeline built is reused:
    each iteration and the final abelian test complete their presentation
    from scratch."""
    from gridgroups.classify import TC_FIRST_PASS, TorsionQuotientReport, _short_words
    from gridgroups.present import (Presentation, format_word, free_reduce,
                                    generator_families)
    from gridgroups.wordprob import GroupToolbox

    current = pres
    found = []
    iterations = 0
    for _ in range(max_iterations):
        toolbox = GroupToolbox(current, budgets)
        run = toolbox.coset_run(min(TC_FIRST_PASS, budgets.max_cosets))
        if run.status == "complete":
            a_fam, _ = generator_families(dims)
            coll = ("a", "1", a_fam[1][0]) if len(a_fam) > 1 else None
            return TorsionQuotientReport(tuple(found), iterations, True, coll)
        existing = {free_reduce(r) for r in current.relators}
        new_relators = []
        for word in _short_words(toolbox, budgets.torsion_word_len):
            if free_reduce(word) in existing:
                continue
            order = toolbox.element_order(word)
            if order.kind == "finite" and order.value and order.value > 1:
                new_relators.append((word, order.value))
        if not new_relators:
            break
        current = Presentation(current.names,
                               current.relators + tuple(w for w, _ in new_relators))
        found.extend((format_word(w, current.names), k) for w, k in new_relators)
        iterations += 1

    toolbox = GroupToolbox(current, budgets)
    quotient_abelian = toolbox.is_abelian()
    collision = None
    families = tuple(zip("ab", generator_families(dims)))
    if quotient_abelian:
        ab = toolbox.abelianization
        tor = len(ab.invariants.torsion)
        for famname, fam in families:
            seen = {}
            for name, word in fam:
                free_part = tuple(ab.image(word)[tor:])
                if free_part in seen:
                    collision = (famname, seen[free_part], name)
                    break
                seen[free_part] = name
            if collision:
                break
    else:
        for famname, named in families:
            for i in range(len(named)):
                for k in range(i + 1, len(named)):
                    v = toolbox.word_equal(named[i][1], named[k][1])
                    if v.outcome == "equal":
                        collision = (famname, named[i][0], named[k][0])
                        break
                if collision:
                    break
            if collision:
                break
    return TorsionQuotientReport(tuple(found), iterations, quotient_abelian, collision)


def reference_first_pass(toolbox, dims):
    """classify's first pass as it was before runs were watched: one
    unwatched run to TC_FIRST_PASS over the raw presentation, enumerated
    again to max_cosets when it leaves a group with free rank 0 open.  A
    stand-in for classify._first_pass."""
    from gridgroups.classify import TC_FIRST_PASS

    budgets = toolbox.budgets
    first = toolbox.coset_run(min(TC_FIRST_PASS, budgets.max_cosets))
    if first.status != "complete" and toolbox.abelianization.invariants.free_rank == 0 \
            and budgets.max_cosets > TC_FIRST_PASS:
        first = toolbox.coset_run(budgets.max_cosets)
    return first


def closure_search_hom(pres, targets, predicate, node_budget):
    """wordprob.search_hom as it was with a self-referencing closure (one
    reference cycle per call): the same search order and node charges."""
    n = pres.generator_count
    relators = pres.relators
    budget = [node_budget]
    max_gen = [max((abs(x) for x in rel), default=0) for rel in relators]
    by_depth = [[] for _ in range(n + 1)]
    for rel, m in zip(relators, max_gen):
        by_depth[m].append(rel)

    for target in targets:
        images = [0] * n

        def assign(depth):
            if budget[0] <= 0:
                return False
            if depth == n:
                return predicate(target, images)
            for cand in range(target.size):
                budget[0] -= 1
                if budget[0] <= 0:
                    return False
                images[depth] = cand
                if all(target.eval_word(rel, images) == target.identity
                       for rel in by_depth[depth + 1]):
                    if assign(depth + 1):
                        return True
            return False

        if assign(0):
            return target.name, list(images)
        if budget[0] <= 0:
            return None
    return None


@cache
def composition_ops(name):
    """(mult, inv) of the hom target called `name`, by composition, as
    wordprob evaluated the symmetric groups before every target read a
    table: SymK composes the permutations of range(k), listed in
    lexicographic order, and a product a·b applies a, then b; a catalog
    group reads its closed coset table one product at a time."""
    from gridgroups.smallgroups import catalog

    if name.startswith("Sym"):
        k = int(name[3:])
        elems = [tuple(p) for p in permutations(range(k))]
        index = {p: i for i, p in enumerate(elems)}

        def mult(a, b):
            pa, pb = elems[a], elems[b]
            return index[tuple(pb[pa[i]] for i in range(k))]

        def inv(a):
            q = [0] * k
            for i, v in enumerate(elems[a]):
                q[v] = i
            return index[tuple(q)]

        return mult, inv
    table = next(e.table for e in catalog() if e.name == name)
    return table.mult, table.inverse


def composed_eval(target, word, images):
    """A word's value under generator images, one product and, for an
    inverse letter, one inverse per letter, through composition_ops."""
    mult, inv = composition_ops(target.name)
    acc = target.identity
    for x in word:
        g = images[x - 1] if x > 0 else inv(images[-x - 1])
        acc = mult(acc, g)
    return acc


def reference_word_equal(toolbox, w1, w2):
    """GroupToolbox.word_equal with its own copy of the search-free stages,
    which asked the abelianisation only after the completion: the same
    outcomes, and the same evidence for every `equal`."""
    from gridgroups.present import concat, free_reduce, invert
    from gridgroups.wordprob import HOM_DEGREE, WordVerdict, hom_targets, search_hom

    w1, w2 = free_reduce(w1), free_reduce(w2)
    if w1 == w2:
        return WordVerdict("equal", "identical after free reduction")
    run = toolbox.coset_run()
    if run.status == "complete":
        a, b = run.table.element(w1), run.table.element(w2)
        if a == b:
            return WordVerdict("equal", "same coset in closed table")
        return WordVerdict("distinct",
                           f"separated in the regular action on {run.table.coset_count} cosets")
    if run.equal_words(w1, w2):
        return WordVerdict("equal", "coincidence in partial coset enumeration")
    if toolbox.simplify_word(w1) == toolbox.simplify_word(w2):
        return WordVerdict("equal", "identical after generator elimination")
    kb = toolbox.rewriting
    if kb.reduce_word(w1) == kb.reduce_word(w2):
        return WordVerdict("equal", "common rewriting reduct")
    if kb.confluent:
        return WordVerdict("distinct", "distinct confluent normal forms")
    if toolbox.abelianization.image(w1) != toolbox.abelianization.image(w2):
        return WordVerdict("distinct", "separated in the abelianisation")
    diff = concat(toolbox.simplify_word(w1), invert(toolbox.simplify_word(w2)))
    sep = search_hom(toolbox.simplified.presentation, hom_targets(HOM_DEGREE),
                     lambda t, imgs: t.eval_word(diff, imgs) != t.identity,
                     toolbox.budgets.hom_nodes)
    if sep is not None:
        return WordVerdict("distinct", f"separated by homomorphism to {sep[0]} "
                                       f"with generator images {sep[1]}")
    kb2 = toolbox.rewriting_simplified
    q1 = kb2.reduce_word(toolbox.simplify_word(w1))
    q2 = kb2.reduce_word(toolbox.simplify_word(w2))
    if q1 == q2:
        return WordVerdict("equal", "common reduct after generator elimination")
    if kb2.confluent:
        return WordVerdict("distinct",
                           "distinct confluent normal forms (eliminated generators)")
    return WordVerdict("unknown", "budgets exhausted")


def reference_degeneracy_partial(toolbox, dims, run):
    """classify._degeneracy_partial with its own copy of the search-free
    stages and nested loops over each family's pairs; the pairs it leaves
    open go to reference_word_equal."""
    from gridgroups.present import generator_families

    image = toolbox.abelianization.image
    kb = None
    undecided = []
    for named in generator_families(dims):
        for i in range(len(named)):
            for k in range(i + 1, len(named)):
                n1, w1 = named[i]
                n2, w2 = named[k]
                if run.equal_words(w1, w2):
                    return (n1, n2, "coincidence in partial coset enumeration"), []
                if image(w1) != image(w2):
                    continue
                if toolbox.simplify_word(w1) == toolbox.simplify_word(w2):
                    return (n1, n2, "identical after generator elimination"), []
                if kb is None:
                    kb = toolbox.rewriting
                if kb.reduce_word(w1) == kb.reduce_word(w2):
                    return (n1, n2, "common rewriting reduct"), []
                if not kb.confluent:
                    undecided.append((n1, n2, w1, w2))
    still = []
    for n1, n2, w1, w2 in undecided:
        v = reference_word_equal(toolbox, w1, w2)
        if v.outcome == "equal":
            return (n1, n2, v.evidence), []
        if v.outcome == "unknown":
            still.append((n1, n2))
    return None, still


def nested_family_pairs(dims):
    """The pairs of each family by the nested loops that family_pairs
    replaced."""
    from gridgroups.present import generator_families

    out = []
    for famname, named in zip("ab", generator_families(dims)):
        for i in range(len(named)):
            for k in range(i + 1, len(named)):
                out.append((famname, named[i], named[k]))
    return out


def reference_first_family_repeat(dims, key):
    """The repeat-order loop that first_family_repeat replaced in the
    closed-table degeneracy witness and the torsion report's abelian
    collision."""
    from gridgroups.present import generator_families

    for famname, fam in zip("ab", generator_families(dims)):
        seen = {}
        for name, word in fam:
            k = key(word)
            if k in seen:
                return (famname, seen[k], name)
            seen[k] = name
    return None


def reference_rank_mod_p(rows, p):
    """The rank of a matrix mod p, by its own Gauss-Jordan loop."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col] % p, p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col] % p
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def reference_solve_mod_p(rows, rhs, p):
    """One solution of rows^T x = rhs mod p, or None, by its own
    Gauss-Jordan loop on the augmented matrix."""
    m = len(rows[0])
    n = len(rows)
    aug = [[rows[j][i] % p for j in range(n)] + [rhs[i] % p] for i in range(m)]
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(rank, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], p - 2, p)
        aug[rank] = [v * inv % p for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(v - f * w) % p for v, w in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, m):
        if aug[i][n]:
            return None
    x = [0] * n
    for k, col in enumerate(pivots):
        x[col] = aug[k][n]
    return x
