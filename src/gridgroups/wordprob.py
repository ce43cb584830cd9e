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
from functools import cache, cached_property
from itertools import permutations
from math import factorial
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .abelian import Abelianization
from .coset import CosetEnumeration, CosetTable, todd_coxeter
from .present import (Presentation, SimplifiedPresentation, Word, concat,
                      eliminate_generators, free_reduce, invert,
                      simplify_presentation)
from .rewrite import RewriteSystem
from .smallgroups import catalog


@dataclass(frozen=True)
class Budgets:
    max_cosets: int = 200_000
    kb_max_rules: int = 5000


ORDER_CAP = 12   # the highest power element_order tries
HOM_DEGREE = 6   # symmetric-group targets up to Sym6
HOM_NODES = 50_000  # search nodes for one separating homomorphism


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
    """A finite group that separating homomorphisms map into: elements are
    0 .. size-1, 0 the identity, and words are evaluated through the
    multiplication table `rows[a][b]` and the inverse list `invs`.  `build`
    makes both on first use, so a target the search never reaches costs
    nothing (Sym6's table has 720 x 720 entries)."""

    identity = 0

    def __init__(self, name: str, size: int,
                 build: Callable[[], tuple[list[list[int]], list[int]]]):
        self.name = name
        self.size = size
        self._build = build

    @cached_property
    def tables(self) -> tuple[list[list[int]], list[int]]:
        return self._build()

    def eval_word(self, word: Word, images: Sequence[int]) -> int:
        rows, invs = self.tables
        acc = 0
        for x in word:
            acc = rows[acc][images[x - 1] if x > 0 else invs[images[-x - 1]]]
        return acc


def _table_target(name: str, table: CosetTable) -> _HomTarget:
    n = table.coset_count
    return _HomTarget(name, n, lambda: (
        [[table.mult(i, j) for j in range(n)] for i in range(n)],
        [table.inverse(i) for i in range(n)]))


def _symmetric_target(k: int) -> _HomTarget:
    """Sym(k) on the permutations of range(k) in lexicographic order, the
    identity first; a·b applies a, then b."""
    def build():
        elems = list(permutations(range(k)))
        index = {p: i for i, p in enumerate(elems)}
        rows = [[index[after(b)] for b in elems]
                for after in (itemgetter(*a) for a in elems)]
        invs = [index[tuple(sorted(range(k), key=p.__getitem__))] for p in elems]
        return rows, invs

    return _HomTarget(f"Sym{k}", factorial(k), build)


@cache
def hom_targets(max_degree: int) -> tuple[_HomTarget, ...]:
    """The catalog's groups, then the symmetric groups of degree 3 to
    `max_degree`; made once for each degree, their tables on first use."""
    return (*(_table_target(e.name, e.table) for e in catalog()),
            *map(_symmetric_target, range(3, max_degree + 1)))


def _extend_images(target: _HomTarget, images: list[int], depth: int,
                   by_depth: list[list[Word]], word: Word, budget: list[int]) -> bool:
    """Assign generator images from `depth` on, depth first, checking each
    relator once its support is assigned; True once `word` maps off the
    identity."""
    if budget[0] <= 0:
        return False
    if depth == len(images):
        return target.eval_word(word, images) != target.identity
    for cand in range(target.size):
        budget[0] -= 1
        if budget[0] <= 0:
            return False
        images[depth] = cand
        if all(target.eval_word(rel, images) == target.identity
               for rel in by_depth[depth + 1]):
            if _extend_images(target, images, depth + 1, by_depth, word, budget):
                return True
    return False


def search_hom(pres: Presentation, targets: Sequence[_HomTarget], word: Word,
               node_budget: int) -> Optional[tuple[str, list[int]]]:
    """First homomorphism (by deterministic search order) under which `word`
    is not the identity; None when the budget or space runs out."""
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
        if _extend_images(target, images, 0, by_depth, word, budget):
            return target.name, images
        if budget[0] <= 0:
            return None
    return None


class GroupToolbox:
    """Caches the expensive artifacts of one presentation, and one coset run
    for each limit it is asked at."""

    def __init__(self, pres: Presentation, budgets: Budgets = Budgets()):
        self.presentation = pres
        self.budgets = budgets
        self._runs: dict[int, CosetEnumeration] = {}
        self._limit: Optional[int] = None  # the limit coset_run() reads

    # -- cached artifacts ----------------------------------------------------

    @cached_property
    def eliminated(self) -> SimplifiedPresentation:
        """The cheap greedy elimination (`eliminate_generators`), which the
        first coset pass enumerates."""
        return eliminate_generators(self.presentation)

    @cached_property
    def abelianization(self) -> Abelianization:
        """The Smith form of the eliminated presentation, reading words over
        the original generators through their images.  Its callers ask only
        whether two images, or their free coordinates, are equal; an
        isomorphism of abelianisations keeps both, so it answers as the raw
        presentation's would, from a smaller matrix."""
        return Abelianization(self.eliminated)

    @cached_property
    def simplified(self) -> SimplifiedPresentation:
        return simplify_presentation(self.presentation)

    def coset_run(self, max_cosets: Optional[int] = None,
                  watch: Optional[tuple[Word, Word]] = None) -> CosetEnumeration:
        """The enumeration to `max_cosets`, else to the limit of the last
        call, else to the budgets' limit; made once for each limit, and that
        limit then serves the calls that name none.  A run made with `watch`
        may come back stopped (see `todd_coxeter`): it goes to the caller
        and is never cached, so a later call enumerates afresh."""
        limit = max_cosets if max_cosets is not None \
            else self._limit or self.budgets.max_cosets
        run = self._runs.get(limit)
        if run is None:
            run = todd_coxeter(self.presentation, max_cosets=limit, watch=watch)
            if run.status == "stopped":
                return run
            self._runs[limit] = run
        self._limit = limit
        return run

    @cached_property
    def rewriting(self) -> RewriteSystem:
        # completion runs over the raw presentation: its relators are short,
        # which keeps rule growth tame (eliminating generators lengthens
        # relators and slows completion badly)
        return RewriteSystem(self.presentation, max_rules=self.budgets.kb_max_rules)

    @cached_property
    def rewriting_simplified(self) -> RewriteSystem:
        """Completion over the eliminated-generator presentation.

        Occasionally confluent when the raw system is not (few generators,
        e.g. virtually cyclic groups); word_equal's last resort, and a
        second chance to prove a group of free rank 0 infinite.  Words must
        be read through the pass (`simplified.image`) before reduction here.
        """
        return RewriteSystem(self.simplified.presentation,
                             max_rules=self.budgets.kb_max_rules)

    # -- the word problem ------------------------------------------------------

    def decide_without_search(self, run: CosetEnumeration, w1: Word,
                              w2: Word) -> Optional[WordVerdict]:
        """The verdict of the stages that search nothing, or None: a
        coincidence in `run` (an open enumeration of this presentation), then
        the abelianisation (before any completion is built), generator
        elimination, a common rewriting reduct, confluent normal forms."""
        if run.equal_words(w1, w2):
            return WordVerdict("equal", "coincidence in partial coset enumeration")
        image = self.abelianization.image
        if image(w1) != image(w2):
            return WordVerdict("distinct", "separated in the abelianisation")
        if self.simplified.image(w1) == self.simplified.image(w2):
            return WordVerdict("equal", "identical after generator elimination")
        kb = self.rewriting
        if kb.reduce_word(w1) == kb.reduce_word(w2):
            return WordVerdict("equal", "common rewriting reduct")
        if kb.confluent:
            return WordVerdict("distinct", "distinct confluent normal forms")
        return None

    def word_equal(self, w1: Word, w2: Word) -> WordVerdict:
        """Free reduction, a closed coset table, decide_without_search over
        an open one, then the searches: a separating homomorphism, and
        completion of the eliminated presentation."""
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
        verdict = self.decide_without_search(run, w1, w2)
        if verdict is not None:
            return verdict

        u1, u2 = self.simplified.image(w1), self.simplified.image(w2)
        sep = search_hom(self.simplified.presentation, hom_targets(HOM_DEGREE),
                         concat(u1, invert(u2)), HOM_NODES)
        if sep is not None:
            return WordVerdict("distinct",
                               f"separated by homomorphism to {sep[0]} "
                               f"with generator images {sep[1]}")

        kb2 = self.rewriting_simplified  # last resort: may be costly to build
        if kb2.reduce_word(u1) == kb2.reduce_word(u2):
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
        for k in range(1, ORDER_CAP + 1):
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
        gens = self.simplified.kept
        unknown = False
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                v = self.word_equal((x, y, -x, -y), ())
                if v.outcome == "distinct":
                    return False
                if v.outcome != "equal":
                    unknown = True
        return None if unknown else True