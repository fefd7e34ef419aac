"""The four workloads: inputs drawn from the seed, the ops, and their checks.

A workload is a list of rounds.  A round is one user session: a batch a
researcher would run in one process, so the program's caches are cleared
and the round's inputs are built anew before each round, and any reuse
inside a round is the reuse a session gets.  Every round has the same mix of
op classes; only the drawn inputs differ.

Inputs come from ``random.Random`` seeded with the workload name, the seed
and the round index, never from graphprod's sampler.  graphprod receives
graphs, raw words, labeled-graph JSON files and CLI arguments.

Each op has three parts: ``call(ctx)`` is what the benchmark times (``ctx``
carries results between ops of one round, such as a reduced word that a
later ``multiply`` uses), ``check(out, ctx)`` raises :class:`CheckFailed` when
an independent check fails, and ``summary(out)`` gives the JSON value whose
hash is pinned for the default seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random

import oracles

WORKLOADS = ("analyze", "certify", "words", "sweep")

# unlabeled graph counts by vertex count (OEIS A000088)
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


class CheckFailed(Exception):
    """An op returned a wrong output."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op:
    __slots__ = ("kind", "call", "check", "summary")

    def __init__(self, kind, call, check, summary):
        self.kind = kind
        self.call = call
        self.check = check
        self.summary = summary


def build_round(name: str, gp, seed: int, scale: str, tmp, r: int) -> list[Op]:
    """Round ``r`` of the workload; ``gp`` holds the graphprod modules.

    Every call makes new input objects, so nothing graphprod might attach to
    an input survives from one round to the next.
    """
    builder = {"analyze": _analyze_round, "certify": _certify_round,
               "words": _words_round, "sweep": _sweep_round}[name]
    return builder(gp, random.Random(f"{name}:{seed}:{r}"), scale, tmp, r)


# -- graph helpers -------------------------------------------------------------

def gnm(rng, n: int, p: float) -> list[int]:
    """Uniform graph with round(p * C(n, 2)) edges: G(n, p) at its mean edge
    count, which keeps the cost of the 2^n structure walks from swinging
    with the edge count."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    adj = [0] * n
    for i, j in rng.sample(pairs, round(p * len(pairs))):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        for w in range(len(adj)):
            if row >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return out


def shuffled(rng, adj: list[int]) -> list[int]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return relabel(adj, perm)


def from_edge_list(n: int, pairs) -> list[int]:
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def cycle(n: int) -> list[int]:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> list[int]:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> list[int]:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_family(m: int, k: int) -> list[int]:
    """Generalized Petersen graph GP(m, k): outer m-cycle, spokes, inner star."""
    return from_edge_list(2 * m, [(i, (i + 1) % m) for i in range(m)]
                          + [(i, m + i) for i in range(m)]
                          + [(m + i, m + (i + k) % m) for i in range(m)])


def heawood() -> list[int]:
    return from_edge_list(14, [(i, (i + 1) % 14) for i in range(14)]
                          + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def simple(gp, adj: list[int]):
    return gp.graphs.SimpleGraph(len(adj), tuple(adj))


def _redirected_main(gp, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gp.cli.main(argv)
    return code, buf.getvalue()


# -- analyze -------------------------------------------------------------------
# Each op is one `graphprod analyze` report.  The 2^n subset walks in
# `structure` do the work; `iso` and `words` do none.  Per round (54 ops, so
# two rounds give the 100 ops a run needs): 15 light reports (n <= 11, five
# with --labels); 24 sparse n = 12 reports, which hold the median; 12 sparse
# n = 14 reports, which hold the 90th percentile; then dense n = 12 and
# n = 13 reports (where the quadratic maximality filter dominates) and a
# sparse n = 16 report.  Each percentile falls inside one class of reports
# whose cost varies little from graph to graph (a spread of 0.14 and 0.08 of
# the class median).  n = 14 at p = 0.5 (0.7 s, swings by 20% between
# graphs), dense n = 14 and n = 16 at p = 0.5 (2-6 s, swing by 2x) are left
# out: a 20 s run cannot average them out.

_ANALYZE_FULL = {
    "light": [(n, p) for n in range(6, 11) for p in (0.3, 0.5)],
    "labeled": [(n, 0.5) for n in (8, 9, 10, 11, 11)],
    "heavy": [(12, 0.3)] * 24 + [(14, 0.3)] * 12
             + [(12, 0.7), (13, 0.7), (16, 0.3)],
}
_ANALYZE_TINY = {"light": [(5, 0.5), (6, 0.3)], "labeled": [(6, 0.5)],
                 "heavy": [(8, 0.5)]}


def _analyze_round(gp, rng, scale, tmp, r):
    plan = _ANALYZE_FULL if scale == "full" else _ANALYZE_TINY
    specs = [(n, p, None) for n, p in plan["light"] + plan["heavy"]]
    specs += [(n, p, rng.choice(("raag", "factor"))) for n, p in plan["labeled"]]
    rng.shuffle(specs)
    ops = []
    for i, (n, p, labels) in enumerate(specs):
        adj = gnm(rng, n, p)
        g6 = oracles.graph6(n, adj)
        if labels is None:
            argv = ["analyze", "--graph6", g6]
        else:
            label = ({"class": "L(Z)", "diffuse": True, "amenable": True,
                      "factor": False} if labels == "raag" else
                     {"class": "M", "diffuse": True, "amenable": False,
                      "factor": True})
            path_ = tmp / f"analyze-{r}-{i}.json"
            path_.write_text(json.dumps({"n": n, "edges": oracles.edges(n, adj),
                                         "labels": [label] * n}))
            argv = ["analyze", "--labels", str(path_)]
        ops.append(Op(f"analyze.n{n}" + ("" if labels is None else ".labels"),
                      lambda ctx, argv=argv: _redirected_main(gp, argv),
                      lambda out, ctx, n=n, adj=adj, g6=g6, lab=labels is not None:
                      _check_report(out, n, adj, g6, lab),
                      lambda out: out[1]))
    return ops


def _check_report(out, n, adj, g6, labeled):
    code, text = out
    require(code == 0, f"exit code {code}")
    report = json.loads(text)
    require(report["graph6"] == g6, "graph6 round trip")
    want = oracles.analyze_fields(n, adj)
    if labeled:
        del want["graph_conditions"]  # the theorem matrix takes its place
    require(set(report) == set(want) | {"collapsible_min2"}
            | ({"theorems"} if labeled else set()), "report keys")
    for key, value in want.items():
        require(report[key] == value,
                f"{key}: report {report[key]}, independent {value}")
    # the collapsible sets are the modules: every listed set must be one, the
    # smallest module around each pair must be listed, and for n <= 12 the
    # list must equal the modules found by trying every subset
    listed = report["collapsible_min2"]
    masks = [sum(1 << v for v in s) for s in listed]
    require(all(len(s) >= 2 and oracles.is_module(adj, m)
                for s, m in zip(listed, masks)), "a collapsible set is no module")
    require(listed == sorted(listed, key=lambda s: (len(s), sum(1 << v for v in s)))
            and len(set(masks)) == len(masks), "collapsible sets out of order")
    closures = {oracles.module_closure(n, adj, 1 << u | 1 << v)
                for u in range(n) for v in range(u + 1, n)}
    require(closures <= set(masks), "a module around a pair is not listed")
    if n <= 12:
        require(listed == oracles.modules(n, adj), "collapsible sets")


# -- certify -------------------------------------------------------------------
# Certified verdicts.  `iso` backtracking does most of the work: refinement
# cannot split vertex-transitive graphs, so a non-isomorphic pair of
# generalized Petersen graphs is a full search tree, and its cost doubles with
# each step of m (GP(13, k) pairs take ~1 s, GP(15, k) pairs ~4 s).  The
# distinct pairs keep the standard vertex numbering: a shuffled numbering
# defeats the adjacency pruning and one pair then takes 10-40 s.  `symmetry`
# runs only on graphs with at most 16 vertices, where graphprod computes
# automorphism groups; above that it raises CapExceeded by design.
# The RAAG pairs run every theorem's hypothesis walks (2^n subsets each).

@functools.lru_cache(maxsize=None)
def _girth5_steps(m: int) -> tuple[int, ...]:
    """The k < m/2 for which GP(m, k) has girth at least 5."""
    return tuple(k for k in range(1, (m + 1) // 2)
                 if (oracles.girth(2 * m, petersen_family(m, k)) or 0) >= 5)


def _distinct_pairs(m: int) -> list[tuple[int, int]]:
    ks = _girth5_steps(m)
    return [(k, l) for k in ks for l in ks
            if k < l and not oracles.gp_isomorphic(m, k, l)]


_SYMMETRY_POOL = (
    # (name, adjacency, automorphism order known independently)
    [(f"C{n}", cycle(n), 2 * n) for n in range(5, 17)]
    + [("GP(5,2)", petersen_family(5, 2), oracles.gp_automorphism_order(5, 2)),
       ("GP(7,2)", petersen_family(7, 2), oracles.gp_automorphism_order(7, 2)),
       ("GP(8,3)", petersen_family(8, 3), oracles.gp_automorphism_order(8, 3)),
       ("Heawood", heawood(), 336)])

# Per round (50 ops): 13 fast ops, 30 RAAG ops that hold the median, and 7
# distinct Petersen-family pairs whose GP(12, k) middle holds the 90th
# percentile.
_CERTIFY_FULL = {"distinct": (12,) * 6 + (13,), "iso_m": (9, 10, 11, 12, 13),
                 "symmetry": 4, "raag": (12,) * 15, "paths": 1, "bipartite": 1}
_CERTIFY_TINY = {"distinct": (), "iso_m": (5,), "symmetry": 1, "raag": (6,),
                 "paths": 1, "bipartite": 1}


def _certify_round(gp, rng, scale, tmp, r):
    cl = gp.classify
    plan = _CERTIFY_FULL if scale == "full" else _CERTIFY_TINY
    factor = cl.factor_label("M")
    raag = cl.raag_label()

    def labeled(adj, label):
        return cl.uniform_labeled(simple(gp, adj), label)

    ops = []

    def pair(kind, a_adj, b_adj, label, expect):
        a, b = labeled(a_adj, label), labeled(b_adj, label)
        ops.append(Op(kind, lambda ctx: cl.classify(a, b),
                      lambda out, ctx: _check_verdict(gp, out, a, b, expect),
                      lambda out: out.to_json_obj()))

    for m in plan["distinct"]:
        k, l = rng.choice(_distinct_pairs(m))
        pair(f"certify.distinct.m{m}", petersen_family(m, k),
             petersen_family(m, l), factor, "DistinctCertified")
    for m in plan["iso_m"]:
        adj = petersen_family(m, rng.choice(_girth5_steps(m)))
        pair(f"certify.iso.m{m}", adj, shuffled(rng, adj), factor,
             "IsomorphicCertified")
    n = rng.randrange(5, 17)
    pair("certify.iso.cycle", cycle(n), shuffled(rng, cycle(n)), factor,
         "IsomorphicCertified")
    for _ in range(plan["symmetry"]):
        name, adj, order = rng.choice(_SYMMETRY_POOL)
        lg = labeled(adj, factor)
        ops.append(Op("certify.symmetry", lambda ctx, lg=lg: cl.symmetry(lg),
                      lambda out, ctx, name=name, order=order:
                      _check_symmetry(out, name, order),
                      lambda out: out.to_json_obj()))
    for n in plan["raag"]:
        # at p = 0.5 the hypothesis walks rarely stop early, so these pairs
        # cost about the same from graph to graph
        g = gnm(rng, n, 0.5)
        pair("certify.raag.copy", g, shuffled(rng, g), raag, "not-distinct")
        pair("certify.raag.other", g, gnm(rng, n, 0.5), raag, None)
    for _ in range(plan["paths"]):
        a, b = rng.randrange(3, 9), rng.randrange(3, 9)
        pair("certify.raag.paths", path(a + 1), path(b + 1), raag,
             "IsomorphicCertified" if a == b else "DistinctCertified")
    for _ in range(plan["bipartite"]):
        sides = rng.choice([((3, 3), (2, 5)), ((2, 7), (3, 4)), ((2, 9), (3, 5)),
                            ((4, 4), (2, 10)), ((3, 4), (3, 5)), ((2, 5), (4, 3))])
        (a, b), (c, d) = sides
        equivalent = ((a - 1) * (b - 1) == (c - 1) * (d - 1)
                      and sorted((a, b)) != sorted((c, d)))
        pair("certify.raag.bipartite", complete_bipartite(a, b),
             complete_bipartite(c, d), raag,
             "EquivalentKnown" if equivalent else "not-equivalent")
    pair("certify.raag.square", cycle(4), cycle(4), raag, "Undecided")
    if scale == "tiny":
        # one op over the symmetry cap, so the failure path runs in the self-test
        lg = labeled(petersen_family(9, 2), factor)
        ops.append(Op("certify.symmetry.capped", lambda ctx: cl.symmetry(lg),
                      lambda out, ctx: _check_symmetry(
                          out, "GP(9,2)", oracles.gp_automorphism_order(9, 2)),
                      lambda out: out.to_json_obj()))
    rng.shuffle(ops)
    return ops


def _check_verdict(gp, verdict, a, b, expect):
    kind = verdict.kind
    if expect == "not-distinct":
        require(kind != "DistinctCertified", "a relabelled copy was certified distinct")
    elif expect == "not-equivalent":
        require(kind != "EquivalentKnown", "equivalence claimed without the rule")
    elif expect is not None:
        require(kind == expect, f"verdict {kind}, expected {expect}")
    if kind == "IsomorphicCertified" and verdict.witness_level == "vertices":
        require(gp.iso.verify_isomorphism(a.graph, b.graph, verdict.witness),
                "isomorphism witness does not verify")


def _check_symmetry(desc, name, order):
    require(desc.certified, f"{name}: symmetry not certified")
    require(desc.acting_group.order == order,
            f"{name}: automorphism order {desc.acting_group.order}, expected {order}")


# -- words ---------------------------------------------------------------------
# Only the `words` layer works here.  Each round opens a session on seven
# graphs (C5, C6, P5, K2,3, Petersen and two drawn graphs with 8-12 vertices)
# and issues 16 short queries on each, on words of 10-60 letters; the median
# op is a short query.  The product-set DP ops on the Petersen graph hold the 90th
# percentile.  Three
# balls per round carry most of the time: C6 to radius 8 (89,041 elements,
# the largest, so it sets the peak memory), Petersen to radius 5, and a drawn
# graph at the radius whose ball stays within 60,000 elements.

_NAMED = (("C5", lambda: cycle(5)), ("C6", lambda: cycle(6)), ("P5", lambda: path(5)),
          ("K2,3", lambda: complete_bipartite(2, 3)),
          ("Petersen", lambda: petersen_family(5, 2)))
_WORDS_FULL = {"drawn": 2, "word_pairs": 2, "cycle_products": 8, "petersen_products": 16,
               "balls": (("C6", 8), ("Petersen", 5)),
               "drawn_ball": 60_000, "intersections": 2, "meet_ball": 20_000,
               "word_len": (10, 60), "factor_letters": 4, "product_len": 8}
_WORDS_TINY = {"drawn": 1, "word_pairs": 1, "cycle_products": 1, "petersen_products": 1,
               "balls": (("C5", 4),),
               "drawn_ball": 500, "intersections": 1, "meet_ball": 200,
               "word_len": (4, 12), "factor_letters": 2, "product_len": 4}


def _radius_for(n, adj, budget):
    """Largest radius whose ball has at most ``budget`` elements (at least 1)."""
    sizes = oracles.growth_series(n, adj, 40)
    total = 0
    for r, size in enumerate(sizes):
        total += size
        if total > budget:
            return max(r - 1, 1)
    return 40


def _words_round(gp, rng, scale, tmp, r):
    wd = gp.words
    plan = _WORDS_FULL if scale == "full" else _WORDS_TINY
    graphs = [(name, make()) for name, make in _NAMED]
    for k in range(plan["drawn"]):
        n = rng.randrange(8, 13)
        graphs.append((f"G{k}n{n}", gnm(rng, n, rng.choice((0.3, 0.4, 0.5)))))
    lo, hi = plan["word_len"]
    ops = []
    for gi, (name, adj) in enumerate(graphs):
        g = simple(gp, adj)
        n = len(adj)
        session = []
        for k in range(plan["word_pairs"]):
            session += _word_pair_ops(wd, g, adj, rng, (gi, 2 * k), (gi, 2 * k + 1),
                                      lo, hi)
        ops.append(session)

    # product-set membership: the cycle-inclusion instances, whose answers
    # the inclusion law gives, and drawn instances on the Petersen graph built
    # as products of factor elements, which are members by construction.
    # The Petersen instances hold the 90th percentile; their cost grows with
    # the length of the reduced word, so every one is drawn at the same
    # reduced length, which halves the spread of their cost.
    named = dict(graphs)
    petersen = simple(gp, named["Petersen"])
    heavy = []
    for p in range(plan["cycle_products"] + plan["petersen_products"]):
        if p < plan["cycle_products"]:
            n = rng.choice((5, 6, 7))
            adj = cycle(n)
            length = rng.randrange(0, 9)
            first = rng.choice((1, n - 1))
            other = n - first  # the other neighbour of vertex 0
            raw = [first if i % 2 == 0 else other for i in range(length)]
            factors = [adj[v] for v in range(1, n)]  # links of vertices 1..n-1
            expect = oracles.shortlex(adj, raw) in {(), (1,), (n - 1,), (1, n - 1)}
            g = simple(gp, adj)
        else:
            g, adj = petersen, named["Petersen"]
            n = len(adj)
            raw = []
            while len(oracles.shortlex(adj, raw)) != plan["product_len"]:
                factors = [sum(1 << v for v in rng.sample(range(n), n // 2))
                           for _ in range(3)]
                raw = []
                for f in factors:
                    letters = [v for v in range(n) if f >> v & 1]
                    raw += [rng.choice(letters)
                            for _ in range(plan["factor_letters"])]
            expect = True
        heavy.append(Op("words.product",
                        lambda ctx, g=g, raw=raw, fs=factors:
                        wd.product_set_membership(wd.reduce_word(g, raw), fs),
                        lambda out, ctx, e=expect: require(
                            out == e, f"product-set membership {out}, expected {e}"),
                        bool))
    balls = [(name, named[name], radius) for name, radius in plan["balls"]]
    drawn_name, drawn_adj = graphs[len(_NAMED)]
    balls.append((drawn_name, drawn_adj,
                  _radius_for(len(drawn_adj), drawn_adj, plan["drawn_ball"])))
    for name, adj, radius in balls:
        g = simple(gp, adj)
        heavy.append(Op(f"words.ball.{name}",
                        lambda ctx, g=g, radius=radius: wd.enumerate_words(g, radius),
                        lambda out, ctx, adj=adj, radius=radius:
                        _check_ball(adj, radius, out),
                        _ball_summary))
    for _ in range(plan["intersections"]):
        name, adj = graphs[-1]
        n = len(adj)
        s = sum(1 << v for v in rng.sample(range(n), n // 2 + 1))
        t = sum(1 << v for v in rng.sample(range(n), n // 2 + 1))
        sub_n, sub_adj = oracles.induced(adj, s | t)
        radius = _radius_for(sub_n, sub_adj, plan["meet_ball"])
        g = simple(gp, adj)
        heavy.append(Op("words.intersection",
                        lambda ctx, g=g, s=s, t=t, radius=radius:
                        wd.parabolic_intersection_check(g, s, t, radius),
                        lambda out, ctx: require(
                            out is True, "parabolic intersection law violated"),
                        bool))
    # sessions keep their order (reductions feed the later queries); the
    # heavy ops are spread between them
    rng.shuffle(heavy)
    flat = [op for session in ops for op in session]
    step = max(1, len(flat) // (len(heavy) + 1))
    out = []
    for i, op in enumerate(flat):
        out.append(op)
        if (i + 1) % step == 0 and heavy:
            out.append(heavy.pop())
    return out + heavy


def _word_pair_ops(wd, g, adj, rng, a, b, lo, hi):
    """Eight short queries on two raw words of ``lo``-``hi`` letters, stored in
    the round's context under the keys ``a`` and ``b`` once reduced."""
    n = len(adj)
    ops = []
    for key in (a, b):
        raw = [rng.randrange(n) for _ in range(rng.randrange(lo, hi + 1))]
        ops.append(Op("words.reduce",
                      lambda ctx, raw=raw, key=key:
                      _store(ctx, key, wd.reduce_word(g, raw)),
                      lambda out, ctx, raw=raw: _same(out, oracles.shortlex(adj, raw)),
                      _letters))
    for x, y in ((a, b), (b, a)):
        ops.append(Op("words.multiply",
                      lambda ctx, x=x, y=y: wd.multiply(ctx[x], ctx[y]),
                      lambda out, ctx, x=x, y=y: _same(out, oracles.shortlex(
                          adj, ctx[x].letters + ctx[y].letters)),
                      _letters))
    ops.append(Op("words.invert", lambda ctx: wd.invert(ctx[a]),
                  lambda out, ctx: _same(
                      out, oracles.shortlex(adj, ctx[a].letters[::-1])),
                  _letters))
    ops.append(Op("words.support", lambda ctx: wd.support_and_boundary(ctx[a]),
                  lambda out, ctx: require(
                      tuple(out) == oracles.word_boundary(adj, ctx[a].letters),
                      "support and boundary"),
                  list))
    s = rng.getrandbits(n)
    ops.append(Op("words.member", lambda ctx: wd.parabolic_membership(ctx[b], s),
                  lambda out, ctx: require(
                      out == all(s >> x & 1 for x in ctx[b].letters),
                      "parabolic membership"),
                  bool))
    left, right = rng.getrandbits(n), rng.getrandbits(n)
    ops.append(Op("words.split", lambda ctx: wd.split_lcr(ctx[b], left, right),
                  lambda out, ctx: _check_split(adj, out, ctx[b].letters, left, right),
                  lambda out: [list(out.left.letters), list(out.core.letters),
                               list(out.right.letters)]))
    return ops


def _store(ctx, key, value):
    ctx[key] = value
    return value


def _letters(w):
    return list(w.letters)


def _same(word, expected):
    require(word.letters == expected,
            f"normal form {word.letters}, independent form {expected}")


def _check_split(adj, d, letters, left, right):
    parts = (d.left.letters, d.core.letters, d.right.letters)
    for part in parts:
        require(oracles.shortlex(adj, part) == part, "split part not in normal form")
    require(sum(map(len, parts)) == len(letters), "split lengths do not add up")
    require(oracles.shortlex(adj, parts[0] + parts[1] + parts[2]) == tuple(letters),
            "split parts do not multiply back to the word")
    require(all(left >> a & 1 for a in parts[0]), "left part outside its set")
    require(all(right >> a & 1 for a in parts[2]), "right part outside its set")
    _, first, last, _ = oracles.word_boundary(adj, parts[1])
    require(not first & left and not last & right, "core still strippable")


def _check_ball(adj, radius, e):
    n = len(adj)
    expected = oracles.growth_series(n, adj, radius)
    require(list(e.strata) == expected,
            f"strata {list(e.strata)}, growth series {expected}")
    require(len(e.words) == sum(expected), "element count")
    step = max(1, len(e.words) // 64)
    for w in e.words[::step]:
        require(oracles.shortlex(adj, w) == w, f"{w} is not a normal form")


def _ball_summary(e):
    h = hashlib.sha256()
    for w in e.words:
        h.update(bytes(w) + b"\xff")
    return [list(e.strata), h.hexdigest()]


# -- sweep ---------------------------------------------------------------------
# The `verify` layer: the isomorphism-class catalogs for n = 1..7 (built in
# order, each from the previous one), all six lemmas on every catalog, and
# sampler chunks.  It runs the same `structure`/`iso`/`graphs` code as
# `analyze` on thousands of graphs with <= 7 vertices, so per-call overhead
# shows here.  Dense chunks are G(50, 0.5), where `girth` finds a triangle
# at once and stops at distance 2.  Sparse chunks are G(30, 0.05): about 64%
# of their graphs are triangle-free (29% are forests), so `girth` searches
# further; at G(30, 0.1) only 4% would be.

_SWEEP_FULL = {"max_n": 7, "dense": (12, 50, 0.5, 4), "sparse": (40, 30, 0.05, 16)}
_SWEEP_TINY = {"max_n": 4, "dense": (1, 20, 0.5, 2), "sparse": (1, 12, 0.05, 4)}


def _sweep_round(gp, rng, scale, tmp, r):
    vf = gp.verify
    plan = _SWEEP_FULL if scale == "full" else _SWEEP_TINY
    ops = []
    for n in range(1, plan["max_n"] + 1):
        ops.append(Op(f"sweep.catalog.n{n}",
                      lambda ctx, n=n: _store(ctx, n, vf.enumerate_graphs(n)),
                      lambda out, ctx, n=n: _check_catalog(out, n),
                      lambda out: [oracles.graph6(g.n, list(g.adj)) for g in out.graphs]))
        for lemma in sorted(vf.LEMMAS):
            ops.append(Op(f"sweep.lemma.n{n}",
                          lambda ctx, n=n, lemma=lemma: vf.check_lemma(ctx[n], lemma),
                          lambda out, ctx, n=n: _check_lemma(out, ctx[n]),
                          lambda out: [out.lemma, out.checked,
                                       len(out.counterexamples)]))
    samples = []
    for kind, (count, n, p, trials) in (("dense", plan["dense"]),
                                        ("sparse", plan["sparse"])):
        for _ in range(count):
            seed = rng.getrandbits(32)
            samples.append(Op(f"sweep.sample.{kind}",
                              lambda ctx, n=n, p=p, t=trials, s=seed:
                              vf.sample_er(n, p, t, s),
                              lambda out, ctx, t=trials: _check_sample(out, t),
                              lambda out: out.to_json_obj()))
    # insertion keeps each catalog ahead of the lemma checks that read it
    for op in samples:
        ops.insert(rng.randrange(len(ops) + 1), op)
    return ops


def _check_catalog(cat, n):
    require(len(cat.graphs) == GRAPH_COUNTS[n],
            f"{len(cat.graphs)} classes on {n} vertices, expected {GRAPH_COUNTS[n]}")
    require(all(g.n == n for g in cat.graphs), "catalog graph of the wrong order")


def _check_lemma(rep, cat):
    require(not rep.counterexamples, f"lemma {rep.lemma} has counterexamples")
    require(0 <= rep.checked <= len(cat.graphs), "checked count")


def _check_sample(rep, trials):
    counts = dict(rep.counts)
    require(rep.trials == trials, "trial count")
    require(all(0 <= v <= trials for v in counts.values()), "count range")
    require(counts["girth_ge_5"] <= counts["square_free"],
            "girth >= 5 counted more often than square-free")
