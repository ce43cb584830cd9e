"""Words and finite presentations, with Tietze-style simplification.

Words are tuples of nonzero ints: letter k > 0 is generator k-1, letter
-k its inverse.  Presentations stay immutable; simplification returns a
new presentation together with rewriting words for the old generators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Optional

Word = tuple[int, ...]


class PresentationError(ValueError):
    pass


def word_to_letters(word: Word) -> bytes:
    """The doubled alphabet of coset tables and rewriting: generator g is
    letter 2g, its inverse 2g+1."""
    return bytes((x - 1) * 2 if x > 0 else (-x - 1) * 2 + 1 for x in word)


def letters_to_word(letters: bytes) -> Word:
    return tuple(b // 2 + 1 if b % 2 == 0 else -(b // 2 + 1) for b in letters)


def free_reduce(seq: Iterable[int]) -> Word:
    out: list[int] = []
    for x in seq:
        if x == 0:
            raise PresentationError("zero letter in word")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def concat(*words: Sequence[int]) -> Word:
    return free_reduce(chain.from_iterable(words))


def cyclic_reduce(word: Word) -> Word:
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _cyclic_key(word: Word) -> Word:
    """Least rotation of the word or its inverse: relator dedup key."""
    if not word:
        return word
    best = None
    for w in (word, invert(word)):
        for s in range(len(w)):
            rot = w[s:] + w[:s]
            if best is None or rot < best:
                best = rot
    return best


@dataclass(frozen=True)
class Presentation:
    names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n:
            raise PresentationError("duplicate generator names")
        reduced = []
        for rel in self.relators:
            w = free_reduce(rel)
            for x in w:
                if not 1 <= abs(x) <= n:
                    raise PresentationError(f"letter {x} out of range for {n} generators")
            reduced.append(w)
        object.__setattr__(self, "relators", tuple(reduced))

    @classmethod
    def _trusted(cls, names: tuple[str, ...], relators: tuple[Word, ...]) -> "Presentation":
        """A presentation the program built, with distinct names and freely
        reduced relators in range by construction: not re-checked."""
        pres = cls.__new__(cls)
        object.__setattr__(pres, "names", names)
        object.__setattr__(pres, "relators", relators)
        return pres

    @property
    def generator_count(self) -> int:
        return len(self.names)


_TERM = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(\^(-?\d+))?$")


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse letter/exponent syntax, e.g. "a1*b2*a1^-1"; "1" is the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    index = {n: i + 1 for i, n in enumerate(names)}
    out: list[int] = []
    for term in text.split("*"):
        m = _TERM.match(term.strip())
        if not m:
            raise PresentationError(f"bad term {term!r}")
        name, _, exp = m.groups()
        if name not in index:
            raise PresentationError(f"unknown generator {name!r}")
        e = int(exp) if exp else 1
        letter = index[name] if e >= 0 else -index[name]
        out.extend([letter] * abs(e))
    return free_reduce(out)


def format_word(word: Word, names: Sequence[str]) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        x = word[i]
        j = i
        while j < len(word) and word[j] == x:
            j += 1
        run = j - i
        name = names[abs(x) - 1]
        exp = run if x > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


def format_presentation(pres: Presentation) -> str:
    lines = ["gens " + " ".join(pres.names)]
    lines.extend(format_word(r, pres.names) for r in pres.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gens"):
        raise PresentationError("presentation text must start with a 'gens' line")
    names = tuple(lines[0].split()[1:])
    relators = tuple(parse_word(ln, names) for ln in lines[1:])
    return Presentation(names, relators)


# ---------------------------------------------------------------------------
# Pairing -> presentation

GeneratorFamily = tuple[tuple[str, Word], ...]


@cache
def generator_families(dims) -> tuple[GeneratorFamily, GeneratorFamily]:
    """The (name, word) of each element of a rows x cols grid group's two
    families: row i is a_i, column j is b_j, and index 0 is the identity
    ("1", ()), which leads each family.  Generators are numbered a1..a_{R-1},
    then b1..b_{C-1}.  Built once per dims."""
    rows, cols = dims
    a_fam = (("1", ()),) + tuple((f"a{i}", (i,)) for i in range(1, rows))
    b_fam = (("1", ()),) + tuple((f"b{j}", (rows - 1 + j,)) for j in range(1, cols))
    return a_fam, b_fam


@cache
def family_pairs(dims) -> tuple[tuple[str, tuple[str, Word], tuple[str, Word]], ...]:
    """Each family's pairs (i < k, by i then k) as (family "a" or "b",
    (name, word), (name, word)), a's first: the order that picks a class's
    degeneracy witness."""
    return tuple((fam, named[i], named[k])
                 for fam, named in zip("ab", generator_families(dims))
                 for i in range(len(named)) for k in range(i + 1, len(named)))


def first_family_repeat(dims, key: Callable[[Word], Hashable]
                        ) -> Optional[tuple[str, str, str]]:
    """The first repeat, walking the a family and then the b family in
    generator order: (family "a" or "b", earlier name, name) for the first
    name whose key equals that of an earlier name of its family, or None.
    This is the other witness order, for keys read off all at once (closed
    table elements, abelian images); family_pairs serves proofs per pair."""
    for fam, named in zip("ab", generator_families(dims)):
        seen: dict = {}
        for name, word in named:
            earlier = seen.setdefault(key(word), name)
            if earlier != name:
                return fam, earlier, name
    return None


@cache
def _cell_words(dims) -> tuple[tuple[str, ...], tuple[tuple[Word, ...], ...],
                               tuple[tuple[Word, ...], ...]]:
    """The generator names, and the word a_i b_j of each cell (i, j) and its
    inverse, indexed by row then column (see generator_families).  Built
    once per dims."""
    a_fam, b_fam = generator_families(dims)
    names = tuple(name for name, _ in a_fam[1:] + b_fam[1:])
    words = tuple(tuple(a + b for _, b in b_fam) for _, a in a_fam)
    return names, words, tuple(tuple(invert(w) for w in row) for row in words)


def presentation_from_matrix(mat) -> Presentation:
    """Group presented by a complete pairing matrix.

    Each label's two cells (i,j), (k,l) contribute the relator
    a_i b_j (a_k b_l)^-1, ordered by label (see generator_families).  Two
    cells of a pair share no row or column, so the relator is freely
    reduced as it stands.
    """
    names, words, inverses = _cell_words(mat.dims)
    cells = mat.cells_by_label()
    relators = []
    for label in sorted(cells):
        if len(cells[label]) != 2:
            raise PresentationError(f"label {label} does not occur twice")
        (i, j), (k, l) = cells[label]
        relators.append(words[i][j] + inverses[k][l])
    return Presentation._trusted(names, tuple(relators))


# ---------------------------------------------------------------------------
# Tietze simplification

@dataclass(frozen=True)
class SimplifiedPresentation:
    """A Tietze pass: the presentation it leaves, with for each of its
    generators the original generator it is (`kept`), and the pass's
    `steps`, each an eliminated original generator and the word over the
    original generators that replaced it, in order.  The original
    generators' images are composed from the steps on first read, so a
    reader that needs none of them (a one-coset table) never pays for them."""
    presentation: Presentation
    kept: tuple[int, ...]
    steps: tuple[tuple[int, Word], ...]

    @cached_property
    def images(self) -> tuple[Word, ...]:
        """For each original generator, its word over the kept generators."""
        images: list[Word] = [()] * (len(self.kept) + len(self.steps))
        for new, old in enumerate(self.kept, 1):
            images[old - 1] = (new,)
        for g, repl in reversed(self.steps):
            # repl names only kept generators and generators eliminated after g
            images[g - 1] = _read_through(images, repl)
        return tuple(images)

    def image(self, word: Word) -> Word:
        """A word over the original generators, read through the images:
        the freely reduced word over the kept generators."""
        return _read_through(self.images, word)


def _read_through(images: Sequence[Word], word: Word) -> Word:
    """The word with each letter replaced by its generator's image, or the
    image's inverse, freely reduced."""
    return concat(*(images[x - 1] if x > 0 else invert(images[-x - 1]) for x in word))


def _substitute(word: Word, gen: int, repl: Word, inv_repl: Word) -> Word:
    """The word with gen replaced by repl (inv_repl is its inverse), freely
    reduced."""
    if gen not in word and -gen not in word:
        return word
    out: list[int] = []
    for x in word:
        if x == gen or x == -gen:
            for y in repl if x == gen else inv_repl:
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        elif out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


MAX_REPLACEMENT_LENGTH = 2000  # simplify_presentation's longest substituted word


def simplify_presentation(pres: Presentation) -> SimplifiedPresentation:
    """Eliminate generators occurring exactly once in some relator.

    Deterministic greedy Tietze pass: always eliminates via the shortest
    usable relator.  Returns the pass (see SimplifiedPresentation).
    """
    relators = [cyclic_reduce(r) for r in pres.relators]
    eliminated: list[tuple[int, Word]] = []  # (generator, its word), in order

    def normalize() -> None:
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
            counts: dict[int, int] = {}
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
        eliminated.append((g, repl))
        inv_repl = invert(repl)
        relators = [_substitute(r, g, repl, inv_repl) for r in relators]
        normalize()
    return _survivors(pres, relators, eliminated)


def eliminate_generators(pres: Presentation) -> SimplifiedPresentation:
    """A cheap greedy Tietze pass, for coset enumeration.

    It takes a shortest relator that has a generator occurring once, and of
    those generators the highest: in a grid group's presentation the column
    generators come last, and each occurs in fewer relators than a row
    generator.  It substitutes it only into the relators that contain it,
    and composes the images of the original generators on their first read.
    Unlike simplify_presentation it keeps no canonical order and removes no
    duplicate relators, so it is faster, but it gives a different
    presentation of the same group.
    """
    # a presentation's relators are freely reduced, so none of these is empty
    relators = [cyclic_reduce(r) if r[0] == -r[-1] else r for r in pres.relators if r]
    eliminated: list[tuple[int, Word]] = []  # (generator, its word), in order
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
            if g in r or -g in r:  # the others stay cyclically reduced
                r = _substitute(r, g, repl, inv_repl)
                while len(r) > 1 and r[0] == -r[-1]:
                    r = r[1:-1]
                if not r:
                    continue
            kept.append(r)
        relators = kept

    return _survivors(pres, relators, eliminated)


def _survivors(pres: Presentation, relators: list[Word],
               eliminated: list[tuple[int, Word]]) -> SimplifiedPresentation:
    """The end of a Tietze pass: its relators, freely reduced words over the
    generators it did not eliminate, renumbered onto those survivors."""
    done = {g for g, _ in eliminated}
    kept = tuple(g for g in range(1, pres.generator_count + 1) if g not in done)
    remap: dict[int, int] = {}
    for new, old in enumerate(kept, 1):
        remap[old], remap[-old] = new, -new
    return SimplifiedPresentation(
        Presentation._trusted(tuple(pres.names[g - 1] for g in kept),
                              tuple(tuple(map(remap.__getitem__, r)) for r in relators)),
        kept, tuple(eliminated))
