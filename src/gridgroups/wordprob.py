"""Budgeted word-problem toolbox for one presentation.

Verdicts carry checkable evidence: an `equal` comes from a closed coset
table, a coincidence in a partial enumeration, or a rewriting proof; a
`distinct` from separated images in a finite structure (the coset table,
the abelianisation, or a found finite quotient).  Budgets are counted in
deterministic units, never wall-clock time, so the undecided set is stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional, Sequence

from .abelian import Abelianization
from .coset import CosetEnumeration, CosetTable, todd_coxeter
from .present import (Presentation, SimplifiedPresentation, Word, concat,
                      free_reduce, invert, simplify_presentation)
from .rewrite import RewriteSystem
from .smallgroups import catalog


@dataclass(frozen=True)
class Budgets:
    max_cosets: int = 200_000
    kb_max_rules: int = 5000
    kb_max_len: int = 40
    torsion_word_len: int = 4
    order_cap: int = 12
    hom_degree: int = 6          # symmetric-group targets up to S6
    hom_nodes: int = 50_000


@dataclass(frozen=True)
class WordVerdict:
    outcome: str   # "equal" | "distinct" | "unknown"
    evidence: str

    @property
    def decided(self) -> bool:
        return self.outcome != "unknown"


@dataclass(frozen=True)
class ElementOrder:
    kind: str      # "finite" | "infinite" | "unknown"
    value: Optional[int]
    evidence: str


class _HomTarget:
    """Finite multiplication structure used for separating homomorphisms."""

    def __init__(self, name: str, size: int, mult, inv, identity: int):
        self.name = name
        self.size = size
        self.mult = mult
        self.inv = inv
        self.identity = identity

    def eval_word(self, word: Word, images: Sequence[int]) -> int:
        acc = self.identity
        mult, inv = self.mult, self.inv
        for x in word:
            g = images[x - 1] if x > 0 else inv(images[-x - 1])
            acc = mult(acc, g)
        return acc


def _table_target(name: str, table: CosetTable) -> _HomTarget:
    n = table.coset_count
    rows = [[table.mult(i, j) for j in range(n)] for i in range(n)]
    invs = [table.inverse(i) for i in range(n)]
    return _HomTarget(name, n, lambda a, b: rows[a][b], lambda a: invs[a], 0)


def _symmetric_target(k: int) -> _HomTarget:
    elems = [tuple(p) for p in permutations(range(k))]
    index = {p: i for i, p in enumerate(elems)}
    invs = []
    for p in elems:
        q = [0] * k
        for i, v in enumerate(p):
            q[v] = i
        invs.append(index[tuple(q)])

    def mult(a: int, b: int) -> int:
        pa, pb = elems[a], elems[b]
        return index[tuple(pb[pa[i]] for i in range(k))]

    return _HomTarget(f"Sym{k}", len(elems), mult, lambda a: invs[a],
                      index[tuple(range(k))])


_SYM_CACHE: dict[int, _HomTarget] = {}


def hom_targets(max_degree: int) -> list[_HomTarget]:
    out = [_table_target(e.name, e.table) for e in catalog()]
    for k in range(3, max_degree + 1):
        if k not in _SYM_CACHE:
            _SYM_CACHE[k] = _symmetric_target(k)
        out.append(_SYM_CACHE[k])
    return out


def search_hom(pres: Presentation, targets: Sequence[_HomTarget],
               predicate: Callable[[_HomTarget, list[int]], bool],
               node_budget: int) -> Optional[tuple[str, list[int]]]:
    """First homomorphism (by deterministic search order) whose generator
    images satisfy the predicate; None when the budget or space runs out."""
    n = pres.generator_count
    relators = pres.relators
    budget = [node_budget]
    # check relators as soon as their support is assigned
    max_gen = [max((abs(x) for x in rel), default=0) for rel in relators]
    by_depth: list[list[Word]] = [[] for _ in range(n + 1)]
    for rel, m in zip(relators, max_gen):
        by_depth[m].append(rel)

    for target in targets:
        images = [0] * n

        def assign(depth: int) -> bool:
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


class GroupToolbox:
    """Caches the expensive artifacts of one presentation."""

    def __init__(self, pres: Presentation, budgets: Budgets = Budgets()):
        self.presentation = pres
        self.budgets = budgets
        self._ab: Optional[Abelianization] = None
        self._simplified: Optional[SimplifiedPresentation] = None
        self._tc: Optional[CosetEnumeration] = None
        self._tc_limit = 0
        self._kb: Optional[RewriteSystem] = None
        self._kb_simplified: Optional[RewriteSystem] = None

    # -- cached artifacts ----------------------------------------------------

    @property
    def abelianization(self) -> Abelianization:
        if self._ab is None:
            self._ab = Abelianization(self.presentation)
        return self._ab

    @property
    def simplified(self) -> SimplifiedPresentation:
        if self._simplified is None:
            self._simplified = simplify_presentation(self.presentation)
        return self._simplified

    def coset_run(self, max_cosets: Optional[int] = None) -> CosetEnumeration:
        """Cached enumeration; an explicit higher budget re-runs an
        incomplete one, otherwise the cache is reused as is."""
        if self._tc is None:
            limit = max_cosets if max_cosets is not None else self.budgets.max_cosets
            self._tc_limit = limit
            self._tc = todd_coxeter(self.presentation, max_cosets=limit)
        elif (max_cosets is not None and max_cosets > self._tc_limit
              and self._tc.status != "complete"):
            self._tc_limit = max_cosets
            self._tc = todd_coxeter(self.presentation, max_cosets=max_cosets)
        return self._tc

    @property
    def rewriting(self) -> RewriteSystem:
        # completion runs over the raw presentation: its relators are short,
        # which keeps rule growth tame (eliminating generators lengthens
        # relators and slows completion badly)
        if self._kb is None:
            self._kb = RewriteSystem(self.presentation,
                                     max_rules=self.budgets.kb_max_rules,
                                     max_len=self.budgets.kb_max_len)
        return self._kb

    @property
    def rewriting_simplified(self) -> RewriteSystem:
        """Completion over the eliminated-generator presentation.

        Occasionally confluent when the raw system is not (few generators,
        e.g. virtually cyclic groups); used as a second chance for
        finiteness/infiniteness certificates.  Words must be translated with
        simplify_word before reduction here.
        """
        if self._kb_simplified is None:
            self._kb_simplified = RewriteSystem(self.simplified.presentation,
                                                max_rules=self.budgets.kb_max_rules,
                                                max_len=self.budgets.kb_max_len)
        return self._kb_simplified

    def simplify_word(self, word: Word) -> Word:
        images = self.simplified.images
        return concat(*(images[x - 1] if x > 0 else invert(images[-x - 1])
                        for x in word))

    # -- the word problem ------------------------------------------------------

    def word_equal(self, w1: Word, w2: Word) -> WordVerdict:
        w1, w2 = free_reduce(w1), free_reduce(w2)
        if w1 == w2:
            return WordVerdict("equal", "identical after free reduction")

        run = self.coset_run()
        if run.status == "complete":
            a, b = run.table.element(w1), run.table.element(w2)
            if a == b:
                return WordVerdict("equal", "same coset in closed table")
            return WordVerdict("distinct",
                               f"separated in the regular action on {run.table.coset_count} cosets")
        if run.equal_words(w1, w2):
            return WordVerdict("equal", "coincidence in partial coset enumeration")

        if self.simplify_word(w1) == self.simplify_word(w2):
            return WordVerdict("equal", "identical after generator elimination")
        kb = self.rewriting
        r1, r2 = kb.reduce_word(w1), kb.reduce_word(w2)
        if r1 == r2:
            return WordVerdict("equal", "common rewriting reduct")
        if kb.confluent:
            return WordVerdict("distinct", "distinct confluent normal forms")

        if self.abelianization.image(w1) != self.abelianization.image(w2):
            return WordVerdict("distinct", "separated in the abelianisation")

        diff = concat(self.simplify_word(w1), invert(self.simplify_word(w2)))
        sep = search_hom(self.simplified.presentation,
                         hom_targets(self.budgets.hom_degree),
                         lambda t, imgs: t.eval_word(diff, imgs) != t.identity,
                         self.budgets.hom_nodes)
        if sep is not None:
            return WordVerdict("distinct",
                               f"separated by homomorphism to {sep[0]} "
                               f"with generator images {sep[1]}")

        kb2 = self.rewriting_simplified  # last resort: may be costly to build
        q1 = kb2.reduce_word(self.simplify_word(w1))
        q2 = kb2.reduce_word(self.simplify_word(w2))
        if q1 == q2:
            return WordVerdict("equal", "common reduct after generator elimination")
        if kb2.confluent:
            return WordVerdict("distinct",
                               "distinct confluent normal forms (eliminated generators)")
        return WordVerdict("unknown", "budgets exhausted")

    def element_order(self, word: Word) -> ElementOrder:
        word = free_reduce(word)
        if not word:
            return ElementOrder("finite", 1, "empty word")
        run = self.coset_run()
        if run.status == "complete":
            return ElementOrder("finite", run.table.order_of(run.table.element(word)),
                                "order in the regular action")
        img = self.abelianization.image(word)
        free_coords = img[len(self.abelianization.invariants.torsion):]
        if any(free_coords):
            return ElementOrder("infinite", None, "infinite order in the abelianisation")
        identity: Word = ()
        for k in range(1, self.budgets.order_cap + 1):
            v = self.word_equal(free_reduce(word * k), identity)
            if v.outcome == "equal":
                for j in range(1, k):
                    vj = self.word_equal(free_reduce(word * j), identity)
                    if vj.outcome != "distinct":
                        return ElementOrder("unknown", None,
                                            f"power {k} is trivial but minimality undecided")
                return ElementOrder("finite", k, f"power proof at exponent {k}")
        return ElementOrder("unknown", None, "no trivial power within the cap")

    def is_abelian(self) -> Optional[bool]:
        """True/False with proof, None when budgets cannot decide.

        Commutators of the surviving simplified generators suffice: they
        still generate, and there are far fewer pairs to test.
        """
        names = self.simplified.presentation.names
        original = self.presentation.names
        back = {k + 1: original.index(names[k]) + 1 for k in range(len(names))}
        n = len(names)
        unknown = False
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                comm = tuple(back[x] if x > 0 else -back[-x] for x in (i, j, -i, -j))
                v = self.word_equal(comm, ())
                if v.outcome == "distinct":
                    return False
                if v.outcome != "equal":
                    unknown = True
        return None if unknown else True