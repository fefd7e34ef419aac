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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .graphs import (SimpleGraph, bits, components_induced, contains_square,
                     girth, induced, min_degree)
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
        if mode == "strict-class":
            keys = [lab.class_id for lab in self.labels]
        elif mode == "stable-class":
            keys = [lab.stable_class_id for lab in self.labels]
        elif mode == "wstar-class":
            keys = [lab.wstar_class_id for lab in self.labels]
        else:
            raise ValueError(f"unknown label equivalence mode {mode!r}")
        table = {k: i for i, k in enumerate(sorted(set(keys)))}
        return tuple(table[k] for k in keys)


def uniform_labeled(g: SimpleGraph, label: AlgebraLabel) -> LabeledGraph:
    return LabeledGraph(g, (label,) * g.n)


def labeled_isomorphism(a: LabeledGraph, b: LabeledGraph,
                        label_eq: str = "strict-class") -> tuple[int, ...] | None:
    """A graph isomorphism matching label classes under the chosen equivalence.

    ``label_eq`` is one of "strict-class", "stable-class", "wstar-class".
    Class tokens are matched through one shared table, so the same token
    means the same class on both sides.
    """
    if label_eq == "strict-class":
        keys_a = [lab.class_id for lab in a.labels]
        keys_b = [lab.class_id for lab in b.labels]
    elif label_eq == "stable-class":
        keys_a = [lab.stable_class_id for lab in a.labels]
        keys_b = [lab.stable_class_id for lab in b.labels]
    elif label_eq == "wstar-class":
        keys_a = [lab.wstar_class_id for lab in a.labels]
        keys_b = [lab.wstar_class_id for lab in b.labels]
    else:
        raise ValueError(f"unknown label equivalence mode {label_eq!r}")
    ca, cb = _joint_colors(keys_a, keys_b)
    return isomorphism(a.graph, b.graph, ca, cb)


# -- JSON ---------------------------------------------------------------------

def labeled_graph_from_json(obj) -> LabeledGraph:
    from .graphs import from_json_obj
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
    from .graphs import to_json_obj
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

THEOREMS = ("A", "B", "B-general", "C", "D", "D-moreover", "E", "F",
            "Cor-RAAG", "Cor-hyperfinite", "Cor-ICC")


def check_hypotheses(lg: LabeledGraph, theorem: str) -> tuple[bool, list[str]]:
    """Evaluate one theorem's graph and label hypotheses; list what fails."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem token {theorem!r}")
    g = lg.graph
    labels = lg.labels
    unmet: list[str] = []

    def need(ok: bool, token: str):
        if not ok:
            unmet.append(token)

    if theorem == "A":
        need(all(lab.diffuse for lab in labels), "all-diffuse")
        need(structure.is_transvection_free(g), "transvection-free")
        need(not contains_square(g), "square-free")
        need(g.n >= 2, "not-single-vertex")
    elif theorem == "B":
        need(all(lab.diffuse for lab in labels), "all-diffuse")
        need(all(lab.amenable for lab in labels), "all-amenable")
        need(structure.is_transvection_free(g), "transvection-free")
    elif theorem == "B-general":
        need(all(lab.diffuse for lab in labels), "all-diffuse")
        need(all(lab.amenable for lab in labels), "all-amenable")
        need(structure.is_clique_reduced(g), "clique-reduced")
        u = structure.untransvectable_subgraph(g)
        need(u.n >= 1, "untransvectable-subgraph-nonempty")
        if u.n >= 1:
            need(structure.is_clique_reduced(u), "untransvectable-clique-reduced")
    elif theorem == "C":
        need(all(lab.ii1_factor for lab in labels), "all-ii1-factors")
        comps = components_induced(g)
        need(all(structure.is_strongly_reduced(c) for c in comps),
             "components-strongly-reduced")
        need(all(structure.is_transvection_free(c) for c in comps),
             "components-transvection-free")
        need(all(c.n >= 2 for c in comps), "components-not-single-vertex")
    elif theorem in ("D", "F"):
        need(all(lab.ii1_factor for lab in labels), "all-ii1-factors")
        need(girth(g) >= 5, "girth-at-least-5")
        need(min_degree(g) >= 2, "min-degree-at-least-2")
    elif theorem == "D-moreover":
        ok, sub = check_hypotheses(lg, "D")
        unmet.extend(sub)
        need(structure.has_separating_star(g) is None, "no-separating-star")
    elif theorem == "E":
        need(g.n >= 2, "at-least-2-vertices")
        need(structure.maximal_clique_factor(g) == 0, "empty-clique-factor")
        need(all(lab.diffuse for lab in labels), "all-diffuse")
    elif theorem == "Cor-RAAG":
        need(all(lab.class_id == RAAG_CLASS for lab in labels), "raag-labels")
        need(structure.is_transvection_free(g), "transvection-free")
    elif theorem == "Cor-hyperfinite":
        need(all(lab.class_id == HYPERFINITE_CLASS for lab in labels),
             "hyperfinite-labels")
        need(structure.is_transvection_free(g), "transvection-free")
    elif theorem == "Cor-ICC":
        need(all(lab.icc_group for lab in labels), "icc-labels")
        need(girth(g) >= 5, "girth-at-least-5")
        need(min_degree(g) >= 2, "min-degree-at-least-2")
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


def _comparison_data(lg: LabeledGraph, theorem: str):
    """(graph, per-vertex label keys, level) certified by the theorem.

    Keys are raw class tokens; :func:`classify` converts the two key lists to
    colours through one shared table so tokens mean the same on both sides.
    """
    if theorem == "C":
        return lg.graph, [lab.stable_class_id for lab in lg.labels], "vertices"
    if theorem != "B-general" and (
            theorem == "Cor-ICC" or all(lab.icc_group for lab in lg.labels)):
        # for group labels, isomorphism of the vertex algebras is exactly
        # W*-equivalence of the groups
        return lg.graph, [lab.wstar_class_id for lab in lg.labels], "vertices"
    if theorem == "B-general":
        umask = structure.untransvectable_vertices(lg.graph)
        sub, old = induced(lg.graph, umask)
        sub_labels = tuple(lg.labels[v] for v in old)
        if all(lab.ii1_factor for lab in sub_labels):
            # factor labels certify the untransvectable subgraph itself
            return sub, [lab.class_id for lab in sub_labels], "untransvectable"
        q = structure.domination_classes(sub)
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
        all_labels = a.labels + b.labels
        if all(lab.class_id == RAAG_CLASS for lab in all_labels):
            return "Cor-RAAG"
        if all(lab.class_id == HYPERFINITE_CLASS for lab in all_labels):
            return "Cor-hyperfinite"
    return f"Thm-{theorem}"


def _radulescu(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Free-abelian labels on complete bipartite graphs K_{m,m'} and K_{n,n'}
    are equivalent whenever (m-1)(m'-1) == (n-1)(n'-1).

    Restricted to genuinely different side-size pairs: for matching graphs
    the tool never upgrades to EquivalentKnown.
    """
    def bipartite_sides(lg: LabeledGraph) -> tuple[int, int] | None:
        if not all(lab.class_id == RAAG_CLASS for lab in lg.labels):
            return None
        g = lg.graph
        if g.n < 4:
            return None
        jd = structure.join_decomposition(g)
        if jd.clique_factor or len(jd.parts) != 2:
            return None
        from .graphs import is_edgeless
        if not all(is_edgeless(g, p) for p in jd.parts):
            return None
        m, mp = sorted(p.bit_count() for p in jd.parts)
        if m < 2:
            return None
        return m, mp

    pa, pb = bipartite_sides(a), bipartite_sides(b)
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
    unmet_all: list[str] = []
    for theorem, strength, note in _PRECEDENCE:
        ok_a, unmet_a = check_hypotheses(a, theorem)
        ok_b, unmet_b = check_hypotheses(b, theorem)
        if not (ok_a and ok_b):
            unmet_all.extend(f"{theorem}:{t}" for t in dict.fromkeys(unmet_a + unmet_b))
            continue
        ga, keys_a, level = _comparison_data(a, theorem)
        gb, keys_b, _ = _comparison_data(b, theorem)
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
    if _radulescu(a, b):
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
    triv = check_hypotheses(lg, "D")[0]
    certified = check_hypotheses(lg, "D-moreover")[0]
    if not certified:
        return OutDescriptor(summands, triv, False,
                             amplification_note="t=1 forced" if triv else None)
    acting = automorphism_group(lg.graph, colors=lg.color_ids("strict-class"))
    wreath = None
    if len({lab.class_id for lab in lg.labels}) == 1:
        wreath = f"Aut({lg.labels[0].class_id}) wr Aut(graph)"
    return OutDescriptor(summands, triv, True, acting, acting.orbits,
                         "t=1 forced", wreath)


def prime_factorization_structure(lg: LabeledGraph):
    """Join parts of the graph plus whether unique prime factorization is certified."""
    parts = structure.join_decomposition(lg.graph)
    certified = check_hypotheses(lg, "E")[0]
    return parts, certified


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
    for v in range(g.n):
        for w in range(g.n):
            if not structure.dominates(g, v, w):
                continue
            lab_v, lab_w = lg.labels[v], lg.labels[w]
            adjacent = g.has_edge(v, w)
            cond = None
            if lab_v.class_id == RAAG_CLASS and lab_w.class_id == RAAG_CLASS:
                cond = "abelian-pair" if adjacent else "artin-transvection"
            elif adjacent:
                if ("crossed_product_infinite_abelian_quotient" in lab_v.capabilities
                        and "diffuse_center" in lab_w.capabilities):
                    cond = "central-quotient"
            else:
                if lab_v.class_id == RAAG_CLASS and lab_w.diffuse:
                    cond = "free-product-nonadjacent"
                elif ("free_product_split" in lab_v.capabilities
                        and "trace_zero_unitary" in lab_w.capabilities):
                    cond = "free-product-nonadjacent"
            if cond is not None:
                out.append(ObstructionWitness(v, w, cond))
    return out
