"""Words in the right-angled Coxeter group of a simple graph.

Generators are the vertices; every generator is an involution and two
generators commute exactly when they are adjacent.  Elements are kept in a
canonical normal form: the ShortLex-least word among all reduced words of the
element (all reduced words of one element differ only by swapping adjacent
commuting letters, so they form a single commutation class).

Reduction happens in two steps.  Appending a letter ``a`` to a reduced word
either cancels (there is an occurrence of ``a`` separated from the end only by
letters commuting with ``a``; the word with that occurrence removed is again
reduced) or extends the word.  The ShortLex-least representative of the
resulting commutation class is then extracted greedily: repeatedly pull out
the smallest letter whose occurrences can be moved to the front, i.e. which
has no earlier non-commuting letter.

Balls of elements are listed without reducing any word.  The normal forms are
the language of a finite automaton (Hermiller & Meier 1995; Brink & Howlett
1993 for general Coxeter groups) whose state after a normal form ``w`` is a
pair of letter masks: ``E``, the letters ``a`` with ``|w.a| < |w|``, and
``F``, the letters ``a`` that commute with a suffix of ``w`` starting with a
letter larger than ``a`` (moving ``a`` in front of that suffix gives a
lex-smaller word).  Appending ``c`` keeps a normal form iff ``c`` is in
neither mask, and the next state depends only on the old state and ``c``.  Every normal form of
length ``k + 1`` has exactly one parent of length ``k`` (drop its last
letter), so the walk reaches each element once, with no deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CapExceeded, OracleDisagreement
from .graphs import SimpleGraph, bits, mask_of, perp

Letters = tuple[int, ...]


def _reduced_append(adj: Sequence[int], word: list[int], a: int) -> None:
    """Multiply the reduced word by the generator ``a``, in place."""
    i = len(word) - 1
    while i >= 0:
        b = word[i]
        if b == a:
            del word[i]
            return
        if not adj[b] >> a & 1:
            break
        i -= 1
    word.append(a)


def _shortlex(nonadj: Sequence[int], word: Iterable[int]) -> Letters:
    """ShortLex-least word in the commutation class of a reduced word."""
    rem = list(word)
    out = []
    while rem:
        acc = 0
        best = -1
        best_i = -1
        for i, c in enumerate(rem):
            if not acc >> c & 1 and (best < 0 or c < best):
                best, best_i = c, i
            acc |= nonadj[c]
        out.append(best)
        del rem[best_i]
    return tuple(out)


def _initial_letters(nonadj: Sequence[int], word: Sequence[int]) -> int:
    """Letters that can start a reduced word of the element (as a mask)."""
    acc = 0
    out = 0
    for c in word:
        if not acc >> c & 1:
            out |= 1 << c
        acc |= nonadj[c]
    return out


@dataclass(frozen=True)
class CoxeterWord:
    """A group element, stored as its ShortLex normal form.

    Do not construct directly; use :func:`reduce_word` and friends.  Equality
    and hashing are by (graph, normal form), so words are usable as element
    ids.
    """

    graph: SimpleGraph = field(compare=False)
    letters: Letters = ()
    _graph_key: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "_graph_key", (self.graph.n, self.graph.adj))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def _same_graph(a: CoxeterWord, b: CoxeterWord) -> None:
    if a._graph_key != b._graph_key:
        raise ValueError("words live over different graphs")


def reduce_word(graph: SimpleGraph, raw: Iterable[int]) -> CoxeterWord:
    """Canonical normal form of the product of the given generators.

    >>> g = SimpleGraph.from_edges(2, [(0, 1)])
    >>> reduce_word(g, [0, 1, 0]).letters
    (1,)
    """
    adj = graph.adj
    word: list[int] = []
    for a in raw:
        if not 0 <= a < graph.n:
            raise ValueError(f"letter {a} out of range")
        _reduced_append(adj, word, a)
    return CoxeterWord(graph, _shortlex(graph.nonadj, word))


def multiply(a: CoxeterWord, b: CoxeterWord) -> CoxeterWord:
    _same_graph(a, b)
    adj = a.graph.adj
    word = list(a.letters)
    for x in b.letters:
        _reduced_append(adj, word, x)
    return CoxeterWord(a.graph, _shortlex(a.graph.nonadj, word))


def invert(a: CoxeterWord) -> CoxeterWord:
    # generators are involutions, so the reverse word is the inverse
    return CoxeterWord(a.graph, _shortlex(a.graph.nonadj, reversed(a.letters)))


def support(w: CoxeterWord) -> int:
    return mask_of(w.letters)


def starts_with(w: CoxeterWord) -> int:
    """Mask of letters a with |a.w| < |w|."""
    return _initial_letters(w.graph.nonadj, w.letters)


def ends_with(w: CoxeterWord) -> int:
    """Mask of letters a with |w.a| < |w|."""
    return _initial_letters(w.graph.nonadj, tuple(reversed(w.letters)))


def link_of_word(w: CoxeterWord) -> int:
    """Common link of the support; the empty word maps to all vertices."""
    return perp(w.graph, support(w))


def support_and_boundary(w: CoxeterWord) -> tuple[int, int, int, int]:
    """(support, starts_with, ends_with, common link) masks."""
    return support(w), starts_with(w), ends_with(w), link_of_word(w)


def parabolic_membership(w: CoxeterWord, s: int) -> bool:
    """True iff the element lies in the parabolic subgroup on ``s``.

    The support of an element does not depend on the chosen reduced word, so
    this is a support inclusion test (cross-validated against the brute-force
    oracle in the verification suite).
    """
    return not support(w) & ~s


@dataclass(frozen=True)
class Enumeration:
    """All elements up to a length bound, stratified by length.

    ``words`` is ordered by (length, normal form); ``strata[k]`` counts the
    elements of length exactly ``k``.
    """

    graph: SimpleGraph
    max_len: int
    words: tuple[Letters, ...]
    strata: tuple[int, ...]


def _shortlex_ball(graph: SimpleGraph, letters: int, max_len: int,
                   cap: int | None) -> tuple[tuple[Letters, ...], tuple[int, ...]]:
    """Normal forms over the letter mask ``letters`` up to length ``max_len``.

    Returns ``(words, strata)`` with ``words`` in (length, normal form) order.
    One layer at a time, each normal form is extended by every letter its
    automaton state ``(E, F)`` allows, in increasing letter order; since the
    layer is sorted, so is the next one.  The states of a layer are kept in
    two lists parallel to it.  The size of the next layer is counted from the
    states before the layer is built, so a ball larger than ``cap`` raises
    :class:`CapExceeded` without allocating it.
    """
    adj = graph.adj
    moves = [(c, 1 << c, adj[c], adj[c] & ((1 << c) - 1)) for c in bits(letters)]
    layer: list[Letters] = [()]
    es = [0]
    fs = [0]
    words = [()]
    strata = [1]
    for k in range(max_len):
        size = sum((letters & ~(e | f)).bit_count() for e, f in zip(es, fs))
        if cap is not None and len(words) + size > cap:
            raise CapExceeded(f"element count exceeded cap {cap}")
        nxt: list[Letters] = []
        next_es: list[int] = []
        next_fs: list[int] = []
        if k + 1 == max_len:  # nothing reads the states of the last layer
            nxt = [w + (c,) for w, e, f in zip(layer, es, fs)
                   for c, bit, _, _ in moves if not (e | f) & bit]
        else:
            add_word, add_e, add_f = nxt.append, next_es.append, next_fs.append
            for w, e, f in zip(layer, es, fs):
                barred = e | f
                for c, bit, row, lower in moves:
                    if not barred & bit:
                        add_word(w + (c,))
                        add_e(e & row | bit)
                        add_f(f & row | lower)
        strata.append(len(nxt))
        words.extend(nxt)
        layer, es, fs = nxt, next_es, next_fs
    layer.clear()  # free the last layer's list before ``words`` is copied
    return tuple(words), tuple(strata)


def enumerate_words(graph: SimpleGraph, max_len: int,
                    cap: int = 10_000_000) -> Enumeration:
    """All elements of length <= ``max_len``, by the ShortLex automaton walk.

    Raises :class:`CapExceeded` if the ball has more than ``cap`` elements.
    """
    words, strata = _shortlex_ball(graph, graph.full_mask, max_len, cap)
    return Enumeration(graph, max_len, words, strata)


def parabolic_ball(graph: SimpleGraph, s: int, max_len: int) -> tuple[Letters, ...]:
    """Normal forms of all elements of the parabolic on ``s`` with length <= max_len."""
    if s & ~graph.full_mask:
        raise ValueError("vertex set has bits outside the graph")
    return _shortlex_ball(graph, s, max_len, None)[0]


def _is_geodesic_prefix(x: CoxeterWord, w: CoxeterWord) -> bool:
    """True iff |x| + |x^-1 w| == |w| (x lies on a geodesic to w)."""
    return len(multiply(invert(x), w)) == len(w) - len(x)


def product_set_membership(w: CoxeterWord, factors: Sequence[int],
                           oracle=None) -> bool:
    """Does ``w`` lie in the product of the parabolic subgroups on ``factors``?

    Dynamic programming over geodesic factorizations: states after stage k are
    the elements x

      * expressible as s_1 ... s_k with s_i in the i-th parabolic and
        |x| = |s_1| + ... + |s_k|, and
      * lying on a geodesic from the identity to ``w``.

    Every element of a parabolic product has such a factorization: by the
    deletion condition (Bjorner & Brenti 2005, 1.4) a non-reduced product of
    factor words shortens by deleting two letters, which leaves factor words
    in the same parabolics.  Pass a :class:`graphprod.verify.WordOracle` as
    ``oracle`` to cross-check by exhaustive search within the oracle radius
    (exact once the radius is at least ``|w|``); a disagreement raises
    :class:`OracleDisagreement`.
    """
    if not factors:
        raise ValueError("factor list must be nonempty")
    g = w.graph
    for s in factors:
        if s & ~g.full_mask:
            raise ValueError("factor has bits outside the graph")
    target = w.letters
    states: set[Letters] = {()}
    for s in factors:
        new: set[Letters] = set()
        for x in states:
            xw = CoxeterWord(g, x)
            z = multiply(invert(xw), w)  # remaining geodesic segment
            # grow parabolic elements that stay on a geodesic towards w
            layer = {()}
            seen = {()}
            while layer:
                nxt = set()
                for t in layer:
                    new.add(multiply(xw, CoxeterWord(g, t)).letters)
                    for a in bits(s):
                        t2 = multiply(CoxeterWord(g, t), CoxeterWord(g, (a,)))
                        if len(t2) != len(t) + 1 or t2.letters in seen:
                            continue
                        if _is_geodesic_prefix(t2, z):
                            seen.add(t2.letters)
                            nxt.add(t2.letters)
                layer = nxt
        states = new  # x.t is a geodesic prefix of w (triangle inequality)
    answer = target in states
    if oracle is not None and oracle.product_membership(target, factors) != answer:
        raise OracleDisagreement(
            f"product-set membership mismatch for {target}: "
            f"engine={answer} oracle={not answer}")
    return answer


@dataclass(frozen=True)
class WordDecomposition:
    """``w = left * core * right`` with additive lengths.

    ``left`` lies in the parabolic of the left set, ``right`` in the right
    set's; ``core`` neither starts with a left-set letter nor ends with a
    right-set letter.
    """

    left: CoxeterWord
    core: CoxeterWord
    right: CoxeterWord


def _peel(nonadj: Sequence[int], word: Sequence[int],
          s: int) -> tuple[list[int], list[int]]:
    """Split a reduced word into the largest heap ideal with letters in ``s``
    and the rest, in one scan: a letter of ``s`` that no kept letter blocks
    commutes to the front and is dropped, every other letter is kept and
    blocks the letters it does not commute with."""
    ideal: list[int] = []
    rest: list[int] = []
    blocked = 0
    for c in word:
        if s >> c & 1 and not blocked >> c & 1:
            ideal.append(c)
        else:
            rest.append(c)
            blocked |= nonadj[c]
    return ideal, rest


def split_lcr(w: CoxeterWord, left_s: int, right_s: int) -> WordDecomposition:
    """Greedy maximal stripping of left/right parabolic letters.

    Peels the largest prefix in ``W_left_s`` off the left, then the largest
    suffix in ``W_right_s`` off what remains; lengths add by construction.
    """
    g = w.graph
    nonadj = g.nonadj
    left, core = _peel(nonadj, w.letters, left_s)
    right_rev, core_rev = _peel(nonadj, core[::-1], right_s)
    return WordDecomposition(
        CoxeterWord(g, _shortlex(nonadj, left)),
        CoxeterWord(g, _shortlex(nonadj, reversed(core_rev))),
        CoxeterWord(g, _shortlex(nonadj, reversed(right_rev))))


def parabolic_intersection_check(graph: SimpleGraph, s: int, t: int,
                                 max_len: int, cap: int = 10_000_000) -> bool:
    """Verify W_s intersect W_t == W_(s&t) on all elements of length <= max_len.

    Enumerates the three parabolic balls by normal form and compares sets.
    Raises :class:`CapExceeded` if any of the balls has more than ``cap``
    elements, before that ball's oversized layer is built.
    """
    if (s | t) & ~graph.full_mask:
        raise ValueError("vertex set has bits outside the graph")
    ball_s, ball_t, ball_meet = (set(_shortlex_ball(graph, m, max_len, cap)[0])
                                 for m in (s, t, s & t))
    return ball_s & ball_t == ball_meet
