"""Coset enumeration over a finite presentation, plus finite-group probes.

The enumerator is the fill-as-you-scan (HLT) variant with eager coincidence
processing, as in Holt, Eick and O'Brien, *Handbook of Computational Group
Theory* (2005), section 5.1: scanning a relator from a coset defines missing
edges outright, and when a path closes inconsistently the two cosets merge
at once.  The larger number dies; its row is unlinked from the table and
relinked at the survivors, queueing the coincidences that follow.  Between
scans every live row therefore holds only live cosets or UNDEF.  Runs are
budgeted by the total number of cosets ever defined.  An overrun is a
status, not an error, and the partial graph still certifies word
equalities: two words tracing to the same vertex are provably equal in the
group.

A run may also watch a pair of words.  After each coset's relator scan no
coincidence is pending, and if the two words then trace to the same coset
while some live coset is still unscanned, the run stops for good: it
returns with status "stopped", keeping its graph, which proves the pair
equal.  Nothing continues a stopped run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .abelian import AbelianInvariants
from .present import (Presentation, SimplifiedPresentation, Word, free_reduce,
                      letters_to_word, word_to_letters)

UNDEF = -1


@dataclass
class _Graph:
    """A partial coset graph: one row per coset ever defined, and for each
    coset the smaller one it merged into (itself while live)."""

    neigh: list[list[int]]
    label: list[int]

    def live(self) -> list[int]:
        return [c for c, rep in enumerate(self.label) if rep == c]


class EnumerationExhausted(Exception):
    pass


@dataclass
class CosetEnumeration:
    """Outcome of a run: complete table, or a partial graph worth keeping."""

    # "complete" | "exhausted" | "open" | "stopped": the watched pair met
    status: str
    table: Optional["CosetTable"]
    graph: Optional[_Graph]
    cosets_defined: int

    def equal_words(self, w1: Word, w2: Word) -> Optional[bool]:
        """Sound equality from the run: True is a proof, None no conclusion."""
        if self.table is not None:
            return self.table.element(w1) == self.table.element(w2)
        # free-reduced, as a watched run traces its pair: a partial graph
        # may lack the edges that a cancelling pair of letters walks
        return _paths_meet(self.graph.neigh, word_to_letters(free_reduce(w1)),
                           word_to_letters(free_reduce(w2))) or None


def _trace_partial(neigh: list[list[int]], path) -> Optional[int]:
    """The coset a path of edge directions reaches from coset 0, or None
    where it meets an undefined edge."""
    c = 0
    for d in path:
        c = neigh[c][d]
        if c == UNDEF:
            return None
    return c


def _paths_meet(neigh: list[list[int]], p1, p2) -> bool:
    """Whether both paths trace from coset 0 to the same coset."""
    end = _trace_partial(neigh, p1)
    return end is not None and end == _trace_partial(neigh, p2)


def todd_coxeter(pres: Presentation | SimplifiedPresentation, max_cosets: int = 200_000,
                 watch: Optional[tuple[Word, Word]] = None) -> CosetEnumeration:
    """Enumerate the cosets of the trivial subgroup: a complete run yields
    the regular action, and the coset count is the group order.
    `max_cosets` bounds the total number of cosets defined.  A Tietze pass
    is enumerated on its presentation, and a closed table is built on the
    pass (see CosetTable).

    With `watch`, a pair of words, the run stops once the two trace to the
    same coset (see the module docstring); a run whose live cosets are all
    scanned reports its outcome instead.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    presentation = pres.presentation if isinstance(pres, SimplifiedPresentation) else pres
    ngens = presentation.generator_count
    nd = 2 * ngens
    for w in watch or ():
        for x in w:
            if not 1 <= abs(x) <= ngens:
                raise ValueError(f"letter {x} out of range for {ngens} generators")
    # each word as its edge directions, in tuples: the scans index them,
    # which is faster on a tuple than on bytes
    paths = [tuple(word_to_letters(w)) for w in presentation.relators]
    watch_paths = [tuple(word_to_letters(free_reduce(w))) for w in watch] if watch else None
    neigh: list[list[int]] = [[UNDEF] * nd]
    label = [0]
    alpha = 0

    def find(c: int) -> int:
        root = c
        while label[root] != root:
            root = label[root]
        while label[c] != root:
            label[c], c = root, label[c]
        return root

    def coincidence(a: int, b: int) -> None:
        """Merge two live cosets, and everything their merge forces."""
        if a > b:
            a, b = b, a
        label[b] = a
        dead = [b]
        for y in dead:  # grows while it is walked
            # unlink each edge of the dead row and relink it at the
            # survivors, or queue the coincidence that the edge forces
            mu = label[y]
            for d, target in enumerate(neigh[y]):
                if target == UNDEF:
                    continue
                neigh[target][d ^ 1] = UNDEF
                if label[mu] != mu:
                    mu = find(mu)
                nu = target
                if label[nu] != nu:
                    nu = find(nu)
                other = neigh[mu][d]
                if other == UNDEF:
                    other = neigh[nu][d ^ 1]
                    if other == UNDEF:  # both ends free: relink the edge
                        neigh[mu][d] = nu
                        neigh[nu][d ^ 1] = mu
                        continue
                    nu = mu  # nu's inverse edge is taken: its end is mu
                # else mu's edge is taken: its end is nu
                if label[other] != other:
                    other = find(other)
                if nu != other:
                    if nu > other:
                        nu, other = other, nu
                    label[other] = nu
                    dead.append(other)

    status = "complete"
    try:
        # every relator from each live coset in turn, until that coset dies
        while alpha < len(neigh):
            if label[alpha] == alpha:
                for path in paths:
                    f = b = alpha
                    i = 0
                    r = len(path) - 1
                    while True:
                        while i <= r:
                            nxt = neigh[f][path[i]]
                            if nxt == UNDEF:
                                break
                            f = nxt
                            i += 1
                        if i > r:
                            if f != b:
                                coincidence(f, b)
                            break
                        while r >= i:
                            nxt = neigh[b][path[r] ^ 1]
                            if nxt == UNDEF:
                                break
                            b = nxt
                            r -= 1
                        if r < i:
                            if f != b:
                                coincidence(f, b)
                            break
                        d = path[i]
                        if r == i:  # one gap left: a deduction closes it
                            neigh[f][d] = b
                            neigh[b][d ^ 1] = f
                            break
                        c = len(neigh)
                        if c >= max_cosets:
                            raise EnumerationExhausted
                        row = [UNDEF] * nd
                        row[d ^ 1] = f
                        neigh.append(row)
                        label.append(c)
                        neigh[f][d] = c
                        f = c
                        i += 1
                    if label[alpha] != alpha:
                        break
                if watch_paths and _paths_meet(neigh, *watch_paths) and any(
                        label[c] == c for c in range(alpha + 1, len(neigh))):
                    status = "stopped"
                    break
            alpha += 1
    except EnumerationExhausted:
        status = "exhausted"

    graph = _Graph(neigh, label)
    if status == "complete":
        live = graph.live()
        if any(UNDEF in neigh[c] for c in live):
            status = "open"  # some generator never constrained: cannot close
    if status != "complete":
        return CosetEnumeration(status, None, graph, len(neigh))

    renum = {c: k for k, c in enumerate(live)}
    action = [[renum[x] for x in neigh[c]] for c in live]
    table = CosetTable(ngens, action, pres)
    return CosetEnumeration("complete", table, None, len(neigh))


class CosetTable:
    """Completed enumeration: each generator acts as a permutation of cosets.

    `trace` reads words over the table's own generators.  A table of a
    Tietze pass's presentation may be built on the pass itself, and
    `element` then reads words over the original generators through it.
    """

    def __init__(self, ngens: int, action: list[list[int]],
                 pres: Presentation | SimplifiedPresentation):
        self.ngens = ngens
        self.action = action
        if isinstance(pres, SimplifiedPresentation):
            self.tietze, self.presentation = pres, pres.presentation
        else:
            self.tietze, self.presentation = None, pres
        self._orders: Optional[list[int]] = None

    @property
    def coset_count(self) -> int:
        return len(self.action)

    def trace(self, coset: int, word: Word) -> int:
        return self._follow(coset, word_to_letters(word))

    def _follow(self, coset: int, letters: bytes) -> int:
        action = self.action
        for d in letters:
            coset = action[coset][d]
        return coset

    def element(self, word: Word) -> int:
        """The coset of a word, over the original generators when the table
        is on a Tietze pass; a one-coset table reads no image."""
        if len(self.action) == 1:
            return 0
        if self.tietze is not None:
            word = self.tietze.image(word)
        return self.trace(0, word)

    def check_closed(self) -> bool:
        """Every relator acts trivially from every coset."""
        return all(self.trace(c, rel) == c
                   for rel in self.presentation.relators
                   for c in range(self.coset_count))

    # -- group structure on cosets (regular action: trivial subgroup) -------

    def element_words(self) -> list[Word]:
        """A shortest word reaching each coset from 0, in search order."""
        return [letters_to_word(p) for p in self._element_letters]

    @cached_property
    def _element_letters(self) -> list[bytes]:
        """element_words in the doubled alphabet."""
        steps = [bytes((d,)) for d in range(2 * self.ngens)]
        paths: list[Optional[bytes]] = [None] * self.coset_count
        paths[0] = b""
        queue = [0]
        qi = 0
        while qi < len(queue):
            c = queue[qi]
            qi += 1
            for d, step in enumerate(steps):
                nxt = self.action[c][d]
                if paths[nxt] is None:
                    paths[nxt] = paths[c] + step
                    queue.append(nxt)
        if any(p is None for p in paths):
            raise ValueError("coset table is not transitive")
        return paths  # type: ignore[return-value]

    def mult(self, i: int, j: int) -> int:
        return self._follow(i, self._element_letters[j])

    @cached_property
    def _inverses(self) -> list[int]:
        # the inverse of a path: its letters reversed, each inverted
        return [self._follow(0, bytes(d ^ 1 for d in reversed(p)))
                for p in self._element_letters]

    def inverse(self, i: int) -> int:
        return self._inverses[i]

    def order_of(self, i: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.coset_count
        if self._orders[i] == 0:
            k, c = 1, i
            while c != 0:
                c = self.mult(c, i)
                k += 1
            self._orders[i] = k
        return self._orders[i]

    def order_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for i in range(self.coset_count):
            o = self.order_of(i)
            counts[o] = counts.get(o, 0) + 1
        return counts

    def generator_elements(self) -> list[int]:
        return [self.action[0][2 * k] for k in range(self.ngens)]

    def center_order(self) -> int:
        gens = self.generator_elements()
        count = 0
        for z in range(self.coset_count):
            if all(self.mult(z, h) == self.mult(h, z) for h in gens):
                count += 1
        return count

    def subgroup_closure(self, elements: Sequence[int]) -> set[int]:
        seen = {0}
        frontier = [0]
        gens = [e for e in elements if e != 0]
        while frontier:
            nxt = []
            for x in frontier:
                for h in gens:
                    y = self.mult(x, h)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism probe computed from a complete regular coset table."""

    order: int
    abelianization: AbelianInvariants
    element_orders: tuple[tuple[int, int], ...]  # (order, count) ascending
    center_order: int
    derived_order: int

    def key(self):
        return (self.order, self.abelianization.torsion, self.element_orders,
                self.center_order, self.derived_order)


def fingerprint(table: CosetTable, invariants: AbelianInvariants) -> GroupFingerprint:
    """The table's fingerprint.  `invariants` are the group's abelian
    invariants, from the Smith form of any presentation of it, and the
    derived subgroup's order is |G| / |G^ab|, which holds for a finite
    group G."""
    counts = table.order_counts()
    return GroupFingerprint(
        order=table.coset_count,
        abelianization=invariants,
        element_orders=tuple(sorted(counts.items())),
        center_order=table.center_order(),
        derived_order=table.coset_count // invariants.group_order(),
    )
