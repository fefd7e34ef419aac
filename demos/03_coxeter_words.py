"""Arithmetic in the right-angled Coxeter group of a graph.

Generators are vertices, every generator squares to the identity, and two
generators commute exactly when adjacent.  Elements are kept in ShortLex
normal form; an independent Cartier-Foata oracle cross-checks everything.
"""

from graphprod import (WordOracle, bits, cycle_graph, edgeless_graph,
                       enumerate_words, invert, link, mask_of, multiply,
                       parabolic_ball, parabolic_membership,
                       product_set_membership, reduce_word, split_lcr,
                       support_and_boundary)

c5 = cycle_graph(5)
print("== normal forms ==")
print("over C5, 1 and 0 are adjacent so they commute: reduce [1,0] ->",
      reduce_word(c5, [1, 0]).letters)
print("0 and 2 are not adjacent: reduce [2,0] ->", reduce_word(c5, [2, 0]).letters)
free2 = edgeless_graph(2)
print("with no edge at all the word [0,1,0] is already reduced:",
      reduce_word(free2, [0, 1, 0]).letters, "(infinite dihedral)")

w = reduce_word(c5, [1, 0, 3])
sup, starts, ends, lk = support_and_boundary(w)
print("word", w.letters, ": support", sorted(bits(sup)),
      "starts-with", sorted(bits(starts)), "ends-with", sorted(bits(ends)),
      "common link", sorted(bits(lk)))

print()
print("== group structure ==")
a = reduce_word(c5, [0, 2, 0])
print("a =", a.letters, " a^-1 =", invert(a).letters,
      " a.a^-1 = identity:", multiply(a, invert(a)).is_identity)
print("ball sizes around the identity in W_C5:",
      enumerate_words(c5, 4).strata)

print()
print("== parabolic subgroups and product sets ==")
print("[1,3] lies in the parabolic on {1,3}:",
      parabolic_membership(reduce_word(c5, [1, 3]), mask_of([1, 3])))
d = split_lcr(reduce_word(c5, [1, 0, 3]), mask_of([1]), mask_of([3]))
print("left/core/right split of [1,0,3] against ({1},{3}):",
      d.left.letters, d.core.letters, d.right.letters)

factors = [link(c5, i) for i in range(1, 5)]
oracle = WordOracle(c5, 6)
hits = [letters for letters in parabolic_ball(c5, link(c5, 0), 6)
        if product_set_membership(reduce_word(c5, letters), factors,
                                  oracle=oracle)]
print("elements of W_lk(0) (radius 6) inside the product of the other links:",
      hits)
print("every one of them lies in the four-element set W_1 . W_4 --",
      "the word-level heart of the girth-5 rigidity argument.")
