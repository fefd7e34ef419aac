"""Certified classification of labeled graphs under graph-product rigidity.

A :class:`LabeledGraph` pairs a simple graph with per-vertex algebra-class
labels.  :func:`classify` runs the rigidity theorems' hypothesis checks on
both inputs, strongest conclusion first, and certifies a verdict: an
isomorphism witness, a certified distinction, a known equivalence from the
knowledge base, or an honest ``Undecided`` carrying the unmet hypotheses.
The theorems themselves (tagged A through F plus their corollaries) are the
classification results for graph products of tracial von Neumann algebras
over transvection-free / girth-5 style graph classes; only their graph and
label-class hypotheses are evaluated here, never any analytic content.
They are one table, :data:`HYPOTHESES` (theorem -> ordered condition tokens,
each token with one test); graph tests read a :class:`GraphFacts` memo, so
checking many theorems on one graph computes each invariant once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .graphs import (SimpleGraph, bits, components, contains_square,
                     from_json_obj, girth, induced, induced_or_empty,
                     is_edgeless, min_degree, to_json_obj)
from . import structure
from .iso import AutGroup, automorphism_group, isomorphism, verify_isomorphism

CAPABILITIES = frozenset({
    "diffuse_center",
    "free_product_split",
    "trace_zero_unitary",
    "crossed_product_infinite_abelian_quotient",
})

RAAG_CLASS = "L(Z)"
HYPERFINITE_CLASS = "R"


@dataclass(frozen=True)
class AlgebraLabel:
    """Declared equivalence-class data for one vertex algebra.

    The analytic relations (isomorphism, stable isomorphism, W*-equivalence
    of groups) are undecidable in general, so they enter as user-declared
    class tokens: ``class_id`` stands in for isomorphism, ``stable_class_id``
    for stable isomorphism, ``wstar_class_id`` for W*-equivalence of the
    underlying groups.
    """

    class_id: str
    diffuse: bool
    amenable: bool
    ii1_factor: bool
    icc_group: bool | None = None
    capabilities: frozenset = frozenset()
    stable_class_id: str = ""
    wstar_class_id: str = ""

    def __post_init__(self):
        if self.ii1_factor and not self.diffuse:
            raise ValueError("a II1-factor label must be diffuse")
        bad = self.capabilities - CAPABILITIES
        if bad:
            raise ValueError(f"unknown capability flags {sorted(bad)}")
        if not self.stable_class_id:
            object.__setattr__(self, "stable_class_id", self.class_id)
        if not self.wstar_class_id:
            object.__setattr__(self, "wstar_class_id", self.class_id)


def make_label(class_id: str, *, diffuse: bool, amenable: bool,
               ii1_factor: bool, icc_group: bool | None = None,
               capabilities=(), stable_class_id: str = "",
               wstar_class_id: str = "") -> AlgebraLabel:
    """Build a label, normalizing amenable II1 factors to the single class "R"."""
    if amenable and ii1_factor and class_id != HYPERFINITE_CLASS:
        warnings.warn(
            f"amenable II1 factor label {class_id!r} normalized to "
            f"{HYPERFINITE_CLASS!r}: all amenable II1 factors are isomorphic")
        class_id = HYPERFINITE_CLASS
    return AlgebraLabel(class_id, diffuse, amenable, ii1_factor, icc_group,
                        frozenset(capabilities), stable_class_id,
                        wstar_class_id)


def raag_label() -> AlgebraLabel:
    """The free-abelian vertex label L(Z): diffuse, amenable, not a factor."""
    return make_label(RAAG_CLASS, diffuse=True, amenable=True, ii1_factor=False)


def hyperfinite_label() -> AlgebraLabel:
    return make_label(HYPERFINITE_CLASS, diffuse=True, amenable=True,
                      ii1_factor=True)


def factor_label(class_id: str, **kw) -> AlgebraLabel:
    """A generic (nonamenable) II1-factor label."""
    return make_label(class_id, diffuse=True, amenable=False, ii1_factor=True,
                      **kw)


def icc_label(class_id: str, **kw) -> AlgebraLabel:
    """Group label for an ICC group: its algebra is a II1 factor."""
    return make_label(class_id, diffuse=True, amenable=False, ii1_factor=True,
                      icc_group=True, **kw)


@dataclass(frozen=True)
class LabeledGraph:
    graph: SimpleGraph
    labels: tuple[AlgebraLabel, ...]

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise ValueError("label count does not match vertex count")

    def color_ids(self, mode: str) -> tuple[int, ...]:
        """Integer colours for the chosen label equivalence.

        Colour ids are local to this graph; to compare two labeled graphs use
        :func:`labeled_isomorphism`, which shares one token table.
        """
        keys = _label_keys(self.labels, mode)
        table = {k: i for i, k in enumerate(sorted(set(keys)))}
        return tuple(table[k] for k in keys)


def _label_keys(labels, mode: str) -> list[str]:
    """Each label's class token under the label equivalence ``mode``."""
    attr = {"strict-class": "class_id", "stable-class": "stable_class_id",
            "wstar-class": "wstar_class_id"}.get(mode)
    if attr is None:
        raise ValueError(f"unknown label equivalence mode {mode!r}")
    return [getattr(lab, attr) for lab in labels]


def uniform_labeled(g: SimpleGraph, label: AlgebraLabel) -> LabeledGraph:
    return LabeledGraph(g, (label,) * g.n)


def labeled_isomorphism(a: LabeledGraph, b: LabeledGraph,
                        label_eq: str = "strict-class") -> tuple[int, ...] | None:
    """A graph isomorphism matching label classes under the chosen equivalence.

    ``label_eq`` is one of "strict-class", "stable-class", "wstar-class".
    Class tokens are matched through one shared table, so the same token
    means the same class on both sides.
    """
    ca, cb = _joint_colors(_label_keys(a.labels, label_eq),
                           _label_keys(b.labels, label_eq))
    return isomorphism(a.graph, b.graph, ca, cb)


# -- JSON ---------------------------------------------------------------------

def labeled_graph_from_json(obj) -> LabeledGraph:
    g = from_json_obj(obj)
    raw = obj.get("labels")
    if not isinstance(raw, list) or len(raw) != g.n:
        raise ValueError('"labels" must list one entry per vertex')
    labels = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict) or "class" not in entry:
            raise ValueError(f'label {k} must be an object with a "class"')
        labels.append(make_label(
            entry["class"],
            diffuse=bool(entry.get("diffuse", True)),
            amenable=bool(entry.get("amenable", False)),
            ii1_factor=bool(entry.get("factor", False)),
            icc_group=entry.get("icc"),
            capabilities=entry.get("caps", ()),
            stable_class_id=entry.get("stable_class", ""),
            wstar_class_id=entry.get("wstar_class", ""),
        ))
    return LabeledGraph(g, tuple(labels))


def labeled_graph_to_json(lg: LabeledGraph) -> dict:
    obj = to_json_obj(lg.graph)
    obj["labels"] = []
    for lab in lg.labels:
        entry = {"class": lab.class_id, "diffuse": lab.diffuse,
                 "amenable": lab.amenable, "factor": lab.ii1_factor}
        if lab.icc_group is not None:
            entry["icc"] = lab.icc_group
        if lab.capabilities:
            entry["caps"] = sorted(lab.capabilities)
        if lab.stable_class_id != lab.class_id:
            entry["stable_class"] = lab.stable_class_id
        if lab.wstar_class_id != lab.class_id:
            entry["wstar_class"] = lab.wstar_class_id
        obj["labels"].append(entry)
    return obj


# -- hypothesis checks --------------------------------------------------------

class GraphFacts:
    """Lazy memo of one graph's invariants: ``facts(fn)`` is ``fn(facts.graph)``,
    computed once however many tests, report fields or verdict steps read it."""

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        self._memo: dict = {}

    def __call__(self, fn):
        if fn not in self._memo:
            self._memo[fn] = fn(self.graph)
        return self._memo[fn]

    @cached_property
    def components(self) -> list["GraphFacts"]:
        """Facts of each connected component; ``[self]`` for a connected graph."""
        comps = self(components)
        return [self] if len(comps) == 1 else [
            GraphFacts(induced(self.graph, c)[0]) for c in comps]

    @cached_property
    def untransvectable(self) -> "GraphFacts":
        """Facts of the untransvectable subgraph; ``self`` if that is the whole graph."""
        mask = _untransvectable(self)
        return self if mask == self.graph.full_mask else GraphFacts(
            induced_or_empty(self.graph, mask)[0])


def _untransvectable(f: GraphFacts) -> int:
    return f(structure.transvection_structure)[0]


def _transvection_free(f: GraphFacts) -> bool:
    return _untransvectable(f) == f.graph.full_mask


# one test per hypothesis token: a label token holds when every vertex label
# passes its test, a graph token reads the graph's facts
_LABEL_TESTS = {
    "all-diffuse": lambda lab: lab.diffuse,
    "all-amenable": lambda lab: lab.amenable,
    "all-ii1-factors": lambda lab: lab.ii1_factor,
    "raag-labels": lambda lab: lab.class_id == RAAG_CLASS,
    "hyperfinite-labels": lambda lab: lab.class_id == HYPERFINITE_CLASS,
    "icc-labels": lambda lab: lab.icc_group,
}
_GRAPH_TESTS = {
    "transvection-free": _transvection_free,
    "square-free": lambda f: not f(contains_square),
    "not-single-vertex": lambda f: f.graph.n >= 2,
    "at-least-2-vertices": lambda f: f.graph.n >= 2,
    "clique-reduced": lambda f: f(structure.is_clique_reduced),
    "untransvectable-subgraph-nonempty": lambda f: f.untransvectable.graph.n > 0,
    # vacuous on an empty subgraph, which the token above already reports
    "untransvectable-clique-reduced": lambda f: (
        f.untransvectable.graph.n == 0
        or f.untransvectable(structure.is_clique_reduced)),
    "components-strongly-reduced":
        lambda f: all(c(structure.is_strongly_reduced) for c in f.components),
    "components-transvection-free":
        lambda f: all(map(_transvection_free, f.components)),
    "components-not-single-vertex":
        lambda f: all(c.graph.n >= 2 for c in f.components),
    "girth-at-least-5": lambda f: f(girth) >= 5,
    "min-degree-at-least-2": lambda f: f(min_degree) >= 2,
    "no-separating-star": lambda f: f(structure.has_separating_star) is None,
    "empty-clique-factor": lambda f: f(structure.maximal_clique_factor) == 0,
}

# each theorem's hypotheses, in the order its unmet tokens are reported;
# D-moreover adds one token to D's, and F shares D's
_D = ("all-ii1-factors", "girth-at-least-5", "min-degree-at-least-2")
HYPOTHESES = {
    "A": ("all-diffuse", "transvection-free", "square-free", "not-single-vertex"),
    "B": ("all-diffuse", "all-amenable", "transvection-free"),
    "B-general": ("all-diffuse", "all-amenable", "clique-reduced",
                  "untransvectable-subgraph-nonempty",
                  "untransvectable-clique-reduced"),
    "C": ("all-ii1-factors", "components-strongly-reduced",
          "components-transvection-free", "components-not-single-vertex"),
    "D": _D,
    "D-moreover": _D + ("no-separating-star",),
    "E": ("at-least-2-vertices", "empty-clique-factor", "all-diffuse"),
    "F": _D,
    "Cor-RAAG": ("raag-labels", "transvection-free"),
    "Cor-hyperfinite": ("hyperfinite-labels", "transvection-free"),
    "Cor-ICC": ("icc-labels", "girth-at-least-5", "min-degree-at-least-2"),
}
THEOREMS = tuple(HYPOTHESES)


def graph_conditions(facts: GraphFacts) -> dict[str, bool]:
    """The graph conditions ``graphprod analyze`` reports for an unlabeled graph."""
    return {token: _GRAPH_TESTS[token](facts) for token in (
        "transvection-free", "square-free", "girth-at-least-5",
        "min-degree-at-least-2", "no-separating-star",
        "components-strongly-reduced", "clique-reduced", "empty-clique-factor")}


def _labels_meet(token: str, labels) -> bool:
    return all(map(_LABEL_TESTS[token], labels))


def check_hypotheses(lg: LabeledGraph, theorem: str,
                     facts: GraphFacts | None = None) -> tuple[bool, list[str]]:
    """Evaluate one theorem's graph and label hypotheses; list what fails.

    Pass ``facts`` (of ``lg.graph``) to share invariants across checks.
    """
    if theorem not in HYPOTHESES:
        raise ValueError(f"unknown theorem token {theorem!r}")
    facts = facts or GraphFacts(lg.graph)
    unmet = [token for token in HYPOTHESES[theorem]
             if not (_labels_meet(token, lg.labels) if token in _LABEL_TESTS
                     else _GRAPH_TESTS[token](facts))]
    return (not unmet, unmet)


# -- verdicts -----------------------------------------------------------------

VERDICT_KINDS = ("IsomorphicCertified", "DistinctCertified", "EquivalentKnown",
                 "Undecided")


@dataclass(frozen=True)
class ClassificationVerdict:
    kind: str
    theorem_tag: str
    witness: tuple[int, ...] | None = None
    witness_level: str = "vertices"
    conclusion_strength: str | None = None
    unmet: tuple[str, ...] = ()
    amplification_note: str | None = None

    def __post_init__(self):
        if self.kind == "IsomorphicCertified":
            assert self.witness is not None
        if self.kind == "Undecided":
            assert self.unmet
        if self.kind in ("EquivalentKnown", "Undecided"):
            assert self.conclusion_strength is None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "theorem": self.theorem_tag,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_level": self.witness_level,
            "strength": self.conclusion_strength,
            "unmet": list(self.unmet),
            "amplification": self.amplification_note,
        }


# precedence: strongest certified conclusion first
_PRECEDENCE = (
    ("D-moreover", "single-unitary", "t=1 forced"),
    ("D", "unitary-conjugacy", "t=1 forced"),
    ("Cor-ICC", "unitary-conjugacy", "t=1 forced"),
    ("C", "stable-isomorphism", "stable (some t>0)"),
    ("A", "strong-intertwining", None),
    ("B", "strong-intertwining", None),
    ("B-general", "strong-intertwining", None),
)


def _comparison_data(lg: LabeledGraph, theorem: str, facts: GraphFacts):
    """(graph, per-vertex label keys, level) certified by the theorem.

    Keys are raw class tokens; :func:`classify` converts the two key lists to
    colours through one shared table so tokens mean the same on both sides.
    """
    if theorem == "C":
        return lg.graph, [lab.stable_class_id for lab in lg.labels], "vertices"
    if theorem != "B-general" and (
            theorem == "Cor-ICC" or _labels_meet("icc-labels", lg.labels)):
        # for group labels, isomorphism of the vertex algebras is exactly
        # W*-equivalence of the groups
        return lg.graph, [lab.wstar_class_id for lab in lg.labels], "vertices"
    if theorem == "B-general":
        sub = facts.untransvectable
        sub_labels = tuple(lg.labels[v]
                           for v in bits(_untransvectable(facts)))
        if _labels_meet("all-ii1-factors", sub_labels):
            # factor labels certify the untransvectable subgraph itself
            return sub.graph, [lab.class_id for lab in sub_labels], "untransvectable"
        q = sub(structure.transvection_structure)[2]
        keys = [tuple(sorted(sub_labels[v].class_id for v in bits(m)))
                for m in q.classes]
        return q.graph, keys, "equivalence-classes"
    return lg.graph, [lab.class_id for lab in lg.labels], "vertices"


def _joint_colors(keys_a, keys_b):
    table = {k: i for i, k in enumerate(sorted(set(keys_a) | set(keys_b)))}
    return [table[k] for k in keys_a], [table[k] for k in keys_b]


def _specialized_tag(theorem: str, a: LabeledGraph, b: LabeledGraph) -> str:
    """Rewrite an A/B-family certification to its corollary when the labels
    are uniformly the corollary's class."""
    if theorem in ("A", "B"):
        for corollary, token in (("Cor-RAAG", "raag-labels"),
                                 ("Cor-hyperfinite", "hyperfinite-labels")):
            if _labels_meet(token, a.labels + b.labels):
                return corollary
    return f"Thm-{theorem}"


def _radulescu(a: LabeledGraph, b: LabeledGraph, facts_a: GraphFacts,
               facts_b: GraphFacts) -> bool:
    """Free-abelian labels on complete bipartite graphs K_{m,m'} and K_{n,n'}
    are equivalent whenever (m-1)(m'-1) == (n-1)(n'-1).

    Restricted to genuinely different side-size pairs: for matching graphs
    the tool never upgrades to EquivalentKnown.
    """
    def bipartite_sides(lg: LabeledGraph,
                        facts: GraphFacts) -> tuple[int, int] | None:
        g = lg.graph
        if g.n < 4 or not _labels_meet("raag-labels", lg.labels):
            return None
        jd = facts(structure.join_decomposition)
        if jd.clique_factor or len(jd.parts) != 2:
            return None
        if not all(is_edgeless(g, p) for p in jd.parts):
            return None
        m, mp = sorted(p.bit_count() for p in jd.parts)
        if m < 2:
            return None
        return m, mp

    pa, pb = bipartite_sides(a, facts_a), bipartite_sides(b, facts_b)
    if pa is None or pb is None or pa == pb:
        return False
    return (pa[0] - 1) * (pa[1] - 1) == (pb[0] - 1) * (pb[1] - 1)


def classify(a: LabeledGraph, b: LabeledGraph) -> ClassificationVerdict:
    """Certified comparison of two labeled graph products.

    Theorems are tried strongest-conclusion-first; the first one whose
    hypotheses hold on both sides decides.  A witness yields
    ``IsomorphicCertified``; its absence yields ``DistinctCertified`` (the
    theorem makes the invariant complete over its hypothesis class).  With no
    applicable theorem, a small knowledge base of known coincidences is
    consulted before returning ``Undecided``.
    """
    facts_a = GraphFacts(a.graph)
    facts_b = facts_a if b.graph == a.graph else GraphFacts(b.graph)
    unmet_all: list[str] = []
    for theorem, strength, note in _PRECEDENCE:
        ok_a, unmet_a = check_hypotheses(a, theorem, facts_a)
        ok_b, unmet_b = check_hypotheses(b, theorem, facts_b)
        if not (ok_a and ok_b):
            unmet_all.extend(f"{theorem}:{t}" for t in dict.fromkeys(unmet_a + unmet_b))
            continue
        ga, keys_a, level = _comparison_data(a, theorem, facts_a)
        gb, keys_b, _ = _comparison_data(b, theorem, facts_b)
        ca, cb = _joint_colors(keys_a, keys_b)
        witness = isomorphism(ga, gb, ca, cb)
        tag = _specialized_tag(theorem, a, b)
        if witness is not None:
            assert verify_isomorphism(ga, gb, witness)
            return ClassificationVerdict("IsomorphicCertified", tag, witness,
                                         level, strength,
                                         amplification_note=note)
        # internal cross-check: a certified distinction must not coexist
        # with any label-preserving isomorphism at this comparison level
        assert isomorphism(gb, ga, cb, ca) is None
        return ClassificationVerdict("DistinctCertified", tag, None, level,
                                     strength, amplification_note=note)
    if _radulescu(a, b, facts_a, facts_b):
        return ClassificationVerdict("EquivalentKnown", "Radulescu")
    seen = tuple(dict.fromkeys(unmet_all))
    return ClassificationVerdict("Undecided", "none", unmet=seen)


# -- symmetry descriptors -------------------------------------------------------

@dataclass(frozen=True)
class OutDescriptor:
    """Symbolic outer-symmetry description of one labeled graph product.

    When the girth-5 hypotheses hold the fundamental group is trivial; when
    additionally no star separates, the outer automorphism group is the sum
    of the vertex automorphism groups extended by the label-preserving graph
    automorphisms (a generalized wreath product when all labels agree).
    """

    vertex_summands: tuple[str, ...]
    fundamental_group_trivial: bool
    certified: bool
    acting_group: AutGroup | None = None
    orbits: tuple[int, ...] = ()
    amplification_note: str | None = None
    wreath_form: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "vertex_summands": list(self.vertex_summands),
            "fundamental_group_trivial": self.fundamental_group_trivial,
            "certified": self.certified,
            "acting_group_order": self.acting_group.order if self.acting_group else None,
            "acting_group_generators":
                [list(p) for p in self.acting_group.generators] if self.acting_group else None,
            "orbits": [list(bits(m)) for m in self.orbits],
            "amplification": self.amplification_note,
            "wreath_form": self.wreath_form,
        }


def symmetry(lg: LabeledGraph) -> OutDescriptor:
    summands = tuple(f"Aut({lab.class_id})" for lab in lg.labels)
    facts = GraphFacts(lg.graph)
    triv = check_hypotheses(lg, "D", facts)[0]
    certified = check_hypotheses(lg, "D-moreover", facts)[0]
    if not certified:
        return OutDescriptor(summands, triv, False,
                             amplification_note="t=1 forced" if triv else None)
    acting = automorphism_group(lg.graph, colors=lg.color_ids("strict-class"))
    wreath = (f"Aut({lg.labels[0].class_id}) wr Aut(graph)"
              if len({lab.class_id for lab in lg.labels}) == 1 else None)
    return OutDescriptor(summands, triv, True, acting, acting.orbits,
                         "t=1 forced", wreath)


def prime_factorization_structure(lg: LabeledGraph):
    """Join parts of the graph plus whether unique prime factorization is certified."""
    return structure.join_decomposition(lg.graph), check_hypotheses(lg, "E")[0]


# -- rigidity obstructions -------------------------------------------------------

@dataclass(frozen=True)
class ObstructionWitness:
    """A dominated vertex pair whose labels admit a vertex-moving automorphism.

    ``condition`` records which construction applies: "abelian-pair"
    (adjacent, both free-abelian), "artin-transvection" (non-adjacent, both
    free-abelian), "central-quotient" (adjacent, crossed product with
    infinite abelian quotient against a diffuse centre), or
    "free-product-nonadjacent".
    """

    v: int
    v_prime: int
    condition: str


def rigidity_obstructions(lg: LabeledGraph) -> list[ObstructionWitness]:
    g = lg.graph
    out = []
    for v, w in structure.domination_pairs(g):
        lab_v, lab_w = lg.labels[v], lg.labels[w]
        adjacent = g.has_edge(v, w)
        cond = None
        if lab_v.class_id == RAAG_CLASS and lab_w.class_id == RAAG_CLASS:
            cond = "abelian-pair" if adjacent else "artin-transvection"
        elif adjacent:
            if ("crossed_product_infinite_abelian_quotient" in lab_v.capabilities
                    and "diffuse_center" in lab_w.capabilities):
                cond = "central-quotient"
        elif ((lab_v.class_id == RAAG_CLASS and lab_w.diffuse)
              or ("free_product_split" in lab_v.capabilities
                  and "trace_zero_unitary" in lab_w.capabilities)):
            cond = "free-product-nonadjacent"
        if cond is not None:
            out.append(ObstructionWitness(v, w, cond))
    return out
