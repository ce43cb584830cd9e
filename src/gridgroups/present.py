"""Words and finite presentations, with Tietze-style simplification.

Words are tuples of nonzero ints: letter k > 0 is generator k-1, letter
-k its inverse.  Presentations stay immutable; simplification returns a
new presentation together with rewriting words for the old generators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    out: list[int] = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


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


def generator_families(dims) -> tuple[GeneratorFamily, GeneratorFamily]:
    """The (name, word) of each element of a rows x cols grid group's two
    families: row i is a_i, column j is b_j, and index 0 is the identity
    ("1", ()), which leads each family.  Generators are numbered a1..a_{R-1},
    then b1..b_{C-1}."""
    rows, cols = dims
    a_fam = (("1", ()),) + tuple((f"a{i}", (i,)) for i in range(1, rows))
    b_fam = (("1", ()),) + tuple((f"b{j}", (rows - 1 + j,)) for j in range(1, cols))
    return a_fam, b_fam


def presentation_from_matrix(mat) -> Presentation:
    """Group presented by a complete pairing matrix.

    Each label's two cells (i,j), (k,l) contribute the relator
    a_i b_j (a_k b_l)^-1, ordered by label (see generator_families).
    """
    a_fam, b_fam = generator_families(mat.dims)
    names = tuple(name for name, _ in a_fam[1:] + b_fam[1:])
    cells = mat.cells_by_label()
    relators = []
    for label in sorted(cells):
        if len(cells[label]) != 2:
            raise PresentationError(f"label {label} does not occur twice")
        (i, j), (k, l) = cells[label]
        relators.append(concat(a_fam[i][1], b_fam[j][1], invert(b_fam[l][1]),
                               invert(a_fam[k][1])))
    return Presentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# Tietze simplification

@dataclass(frozen=True)
class SimplifiedPresentation:
    presentation: Presentation
    images: tuple[Word, ...]  # old generator index -> word over new generators


def _substitute(word: Word, gen: int, repl: Word) -> Word:
    if not any(abs(x) == gen for x in word):
        return word
    inv_repl = invert(repl)
    out: list[int] = []
    for x in word:
        chunk = repl if x == gen else inv_repl if x == -gen else (x,)
        for y in chunk:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def simplify_presentation(pres: Presentation, max_length: int = 2000) -> SimplifiedPresentation:
    """Eliminate generators occurring exactly once in some relator.

    Deterministic greedy Tietze pass: always eliminates via the shortest
    usable relator.  Returns the reduced presentation plus words expressing
    every original generator in the surviving ones.
    """
    n = pres.generator_count
    relators = [cyclic_reduce(r) for r in pres.relators]
    images: list[Word] = [(i + 1,) for i in range(n)]
    alive = [True] * n

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
                if cnt == 1 and (len(rel) - 1) <= max_length:
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
        relators = [_substitute(r, g, repl) for r in relators]
        images = [_substitute(w, g, repl) for w in images]
        alive[g - 1] = False
        normalize()

    keep = [i for i in range(n) if alive[i]]
    remap = {old + 1: new + 1 for new, old in enumerate(keep)}

    def remap_word(w: Word) -> Word:
        return tuple(remap[x] if x > 0 else -remap[-x] for x in w)

    new_pres = Presentation(tuple(pres.names[i] for i in keep),
                            tuple(remap_word(r) for r in relators))
    return SimplifiedPresentation(new_pres, tuple(remap_word(w) for w in images))
