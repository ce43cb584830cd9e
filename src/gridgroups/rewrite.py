"""Bounded Knuth-Bendix completion for group presentations.

Words live over a doubled alphabet (letter 2g for a generator, 2g+1 for its
inverse) ordered shortlex.  Completion is budgeted by rule count and rule
length; a finished run with nothing discarded is confluent, in which case
irreducible words are exactly the group elements.  Partial systems remain
sound for proving equalities: words with a common reduct are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .present import Presentation, Word, letters_to_word, word_to_letters


def _shortlex_orient(a: bytes, b: bytes) -> Optional[tuple[bytes, bytes]]:
    if a == b:
        return None
    if (len(a), a) > (len(b), b):
        return a, b
    return b, a


@dataclass
class RewriteStats:
    rules: int
    pairs_processed: int
    discarded: int


class RewriteSystem:
    """Shortlex rewriting system derived from a presentation."""

    def __init__(self, pres: Presentation, max_rules: int = 5000, max_len: int = 40):
        self.presentation = pres
        self.max_rules = max_rules
        self.max_len = max_len
        self.confluent = False
        self.stats = RewriteStats(0, 0, 0)
        self._rules: dict[bytes, bytes] = {}
        self._by_tail: dict[bytes, list[tuple[int, bytes, bytes]]] = {}
        nd = 2 * pres.generator_count
        seeds = []
        for d in range(0, nd, 2):
            seeds.append((bytes((d, d + 1)), b""))
            seeds.append((bytes((d + 1, d)), b""))
        for rel in pres.relators:
            if rel:
                seeds.append((word_to_letters(rel), b""))
        self._complete(seeds)

    # -- reduction ----------------------------------------------------------
    # rules are bucketed by the final two letters of the left side (final
    # letter alone for one-letter rules), which keeps the per-step candidate
    # lists short even in large systems

    def _index(self) -> None:
        self._by_tail = {}
        for lhs, rhs in self._rules.items():
            self._add_index(lhs, rhs)

    def _add_index(self, lhs: bytes, rhs: bytes) -> None:
        key = bytes(lhs[-2:])
        self._by_tail.setdefault(key, []).append((len(lhs), lhs, rhs))

    def reduce(self, letters: bytes, skip: Optional[bytes] = None) -> bytes:
        by_tail = self._by_tail
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

    def reduce_word(self, word: Word) -> Word:
        return letters_to_word(self.reduce(word_to_letters(word)))

    # -- completion ---------------------------------------------------------

    def _complete(self, seeds: list[tuple[bytes, bytes]]) -> None:
        rules = self._rules
        queue: deque[tuple[bytes, bytes]] = deque()
        for a, b in seeds:
            ab = _shortlex_orient(a, b)
            if ab and ab not in queue:
                queue.append(ab)
        discarded = 0
        pairs = 0
        pairs_cap = 8 * self.max_rules
        overflow = False

        def add_rule(lhs: bytes, rhs: bytes) -> None:
            nonlocal discarded, overflow
            if len(lhs) > self.max_len:
                discarded += 1
                return
            if len(rules) >= self.max_rules:
                overflow = True
                return
            rules[lhs] = rhs
            self._add_index(lhs, rhs)
            # interreduce: only rules actually containing the new left side
            # can change (cheap substring screen before any rewriting)
            stale = []
            for l2, r2 in rules.items():
                if l2 == lhs or (lhs not in l2 and lhs not in r2):
                    continue
                nl, nr = self.reduce(l2, skip=l2), self.reduce(r2)
                if nl != l2 or nr != r2:
                    stale.append((l2, nl, nr))
            for l2, nl, nr in stale:
                del rules[l2]
                ab = _shortlex_orient(nl, nr)
                if ab:
                    queue.append(ab)
            if stale:
                self._index()

        while queue and not overflow:
            a, b = queue.popleft()
            pairs += 1
            if pairs > pairs_cap:
                overflow = True
                break
            a, b = self.reduce(a), self.reduce(b)
            ab = _shortlex_orient(a, b)
            if ab is None:
                continue
            add_rule(*ab)
            if overflow:
                break
            # critical pairs of the new rule against everything (both roles)
            lhs_new = ab[0]
            for lhs in list(rules):
                if lhs_new not in rules:
                    break
                for x, y in ((lhs_new, lhs), (lhs, lhs_new)):
                    if x not in rules or y not in rules:
                        continue
                    for k in range(1, min(len(x), len(y))):
                        if x[-k:] == y[:k]:
                            # overlap word: x + y[k:]  reduces two ways
                            left = rules[x] + y[k:]
                            right = x[:-k] + rules[y]
                            c1, c2 = self.reduce(left), self.reduce(right)
                            if c1 != c2:
                                queue.append(_shortlex_orient(c1, c2))

        self.stats = RewriteStats(len(rules), pairs, discarded)
        self.confluent = not queue and not overflow and discarded == 0
        self._index()

    # -- normal form language -----------------------------------------------

    def language(self) -> tuple[str, Optional[int]]:
        """("finite", order) or ("infinite", None); needs a confluent system."""
        if not self.confluent:
            raise ValueError("language analysis requires a confluent system")
        nd = 2 * self.presentation.generator_count
        lhss = list(self._rules)
        # Aho-Corasick automaton over the forbidden factors
        goto: list[dict[int, int]] = [{}]
        fail = [0]
        terminal = [False]
        for pat in lhss:
            node = 0
            for ch in pat:
                node = goto[node].setdefault(ch, len(goto))
                if node >= len(fail):
                    goto.append({})
                    fail.append(0)
                    terminal.append(False)
            terminal[node] = True
        # BFS to set failure links
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

        def step(node: int, ch: int) -> int:
            while True:
                if ch in goto[node]:
                    return goto[node][ch]
                if node == 0:
                    return 0
                node = fail[node]

        # walk the product of the automaton with the free monoid, skipping
        # terminal states; a reachable cycle means infinitely many forms.
        # Depth-first with an explicit stack: one frame per open state
        # (state, next letter, irreducible words readable from it so far).
        GRAY, BLACK = 1, 2
        color = [0] * len(goto)
        counts = [0] * len(goto)
        color[0] = GRAY
        stack = [[0, 0, 1]]  # the empty continuation counts once
        while stack:
            frame = stack[-1]
            node, ch = frame[0], frame[1]
            if ch == nd:
                stack.pop()
                color[node] = BLACK
                counts[node] = frame[2]
                if stack:
                    stack[-1][2] += frame[2]
                continue
            frame[1] = ch + 1
            nxt = step(node, ch)
            if terminal[nxt]:
                continue
            if color[nxt] == GRAY:
                return "infinite", None
            if color[nxt] == BLACK:
                frame[2] += counts[nxt]
                continue
            color[nxt] = GRAY
            stack.append([nxt, 0, 1])
        return "finite", counts[0]

    def normal_forms(self, limit: int) -> list[bytes]:
        """Irreducible words in shortlex order, up to `limit` of them."""
        if not self.confluent:
            raise ValueError("normal forms require a confluent system")
        nd = 2 * self.presentation.generator_count
        out: list[bytes] = [b""]
        frontier: list[bytes] = [b""]
        while frontier and len(out) < limit:
            nxt: list[bytes] = []
            for w in frontier:
                for ch in range(nd):
                    cand = w + bytes((ch,))
                    if self.reduce(cand) == cand:
                        out.append(cand)
                        nxt.append(cand)
                        if len(out) >= limit:
                            return out
            frontier = nxt
        return out
