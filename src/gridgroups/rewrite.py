"""Bounded Knuth-Bendix completion for group presentations.

Words live over a doubled alphabet (letter 2g for a generator, 2g+1 for its
inverse) ordered shortlex.  Completion is budgeted by rule count and rule
length; a finished run with nothing discarded is confluent, in which case
irreducible words are exactly the group elements.  Partial systems remain
sound for proving equalities: words with a common reduct are equal.

The critical pairs of a new rule come from an index of its left side, from
each letter to the overlap lengths at which it sits there, so a rule costs
two lookups instead of a compare for every overlap length.  The pairs are
queued in the order of the plain scan over every length, and that order
decides what completion finds under its budgets.
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


_ONE_LETTER = 1 << 62  # trie priority of one-letter rules: after every other


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
        self._trie: dict = {}
        self._seq = 0
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
    # the left sides live in a trie, each inserted back to front: after a
    # letter is pushed, one walk down the trie from the top of the stack
    # meets every left side that ends there.  Outside interreduction no left
    # side is a factor of another, so at most one ends at a position and the
    # walk stops right after it; while stale rules await deletion several
    # may, and the earliest-added rule of length >= 2 wins, a one-letter
    # rule only after those.  A node maps a letter to the edge
    # [child node, rule or None], a rule being (priority, length, lhs,
    # reversed rhs).

    def _index(self) -> None:
        """Rebuild the trie from `_rules`."""
        self._trie = {}
        self._seq = 0
        for lhs, rhs in self._rules.items():
            self._add_index(lhs, rhs)

    def _add_index(self, lhs: bytes, rhs: bytes) -> None:
        node = self._trie
        for ch in reversed(lhs):
            edge = node.get(ch)
            if edge is None:
                edge = node[ch] = [{}, None]
            node = edge[0]
        self._seq += 1
        edge[1] = (self._seq if len(lhs) > 1 else _ONE_LETTER, len(lhs), lhs, rhs[::-1])

    def _remove_index(self, lhs: bytes) -> None:
        path = []
        node = self._trie
        for ch in reversed(lhs):
            path.append((node, ch))
            edge = node[ch]
            node = edge[0]
        edge[1] = None
        for parent, ch in reversed(path):  # prune the edges that lead nowhere
            child, rule = parent[ch]
            if child or rule is not None:
                break
            del parent[ch]

    def reduce(self, letters: bytes, skip: Optional[bytes] = None) -> bytes:
        # the stack below its top letter is always irreducible: each push
        # needs one walk, and a rewrite, which only pops, needs none
        trie = self._trie
        stack = bytearray()
        pending = bytearray(letters[::-1])  # next letter last
        while pending:
            stack.append(pending.pop())
            node = trie
            hit = None
            for ch in reversed(stack):
                edge = node.get(ch)
                if edge is None:
                    break
                node, rule = edge
                if rule is not None and (hit is None or rule[0] < hit[0]) \
                        and rule[2] != skip:
                    hit = rule
            if hit is not None:
                del stack[-hit[1]:]
                pending += hit[3]
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
                self._remove_index(l2)
                ab = _shortlex_orient(nl, nr)
                if ab:
                    queue.append(ab)

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
            for left, right in self._overlaps(ab[0]):
                c1, c2 = self.reduce(left), self.reduce(right)
                if c1 != c2:
                    queue.append(_shortlex_orient(c1, c2))

        self.stats = RewriteStats(len(rules), pairs, discarded)
        self.confluent = not queue and not overflow and discarded == 0

    def _overlaps(self, new: bytes):
        """The two one-step reducts of each overlap word of the rule with
        left side `new` against every rule: rules in order, `new` first as
        x and then as y (itself included, so twice), the overlap length k
        ascending, where x[-k:] == y[:k] and the overlap word is x + y[k:].

        Such a k has y[0] == x[-k] and x[-1] == y[k-1].  So `new` is indexed
        once, letter to the ascending k where the letter sits in it, and a
        rule costs two lookups instead of a slice compare for every k.  The
        order, and so the queue, is that of the plain scan over every k."""
        rules = self._rules
        if new not in rules:  # discarded as too long
            return
        rhs_new = rules[new]
        as_x: dict[int, list[int]] = {}  # y[0] -> the k with new[-k] == y[0]
        as_y: dict[int, list[int]] = {}  # x[-1] -> the k with new[k-1] == x[-1]
        for k in range(1, len(new)):
            as_x.setdefault(new[-k], []).append(k)
            as_y.setdefault(new[k - 1], []).append(k)
        # between yields the caller only reduces and queues: no rule changes
        for lhs, rhs in rules.items():
            for k in as_x.get(lhs[0], ()):
                if k >= len(lhs):
                    break
                if new[-k:] == lhs[:k]:
                    yield rhs_new + lhs[k:], new[:-k] + rhs
            for k in as_y.get(lhs[-1], ()):
                if k >= len(lhs):
                    break
                if lhs[-k:] == new[:k]:
                    yield rhs + new[k:], lhs[:-k] + rhs_new

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
