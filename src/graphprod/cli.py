"""Batch command-line front end.

Subcommands: analyze, classify, words, enumerate, verify, sample, iso.
Output is deterministic JSON (sorted keys) or plain text for word queries.
Exit codes: 0 success; 1 Undecided under --require-decision; 2 input error;
3 enumeration cap exceeded; 4 oracle disagreement (a fast path and its
brute-force oracle gave different answers, which indicates a bug).

analyze accepts n <= 64.  Its module list costs polynomial time per module
(an edgeless part of k vertices has 2^k), its maximal-join list polynomial
time per closed set of perp(perp(.)), which can far outnumber the joins: the
cocktail-party graph CP(14) with a pendant vertex on one end of each non-edge
(n = 42) has 15 maximal joins and 16,412 closed sets.  Its theorem matrix and
graph conditions come from the hypothesis table in :mod:`graphprod.classify`,
over one memo of the graph's invariants.  verify sweeps whole isomorphism
catalogs, so it stops at n = 8.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import structure, verify, words
from .classify import (THEOREMS, GraphFacts, LabeledGraph, check_hypotheses,
                       classify, graph_conditions, labeled_graph_from_json,
                       labeled_isomorphism)
from .errors import CapExceeded, OracleDisagreement
from .graphs import (SimpleGraph, bits, components, contains_square,
                     from_graph6, from_json_obj, girth, min_degree, to_graph6)
from .iso import isomorphism, verify_isomorphism


class InputError(ValueError):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse failure at byte offset {exc.pos}: {exc.msg}"
        ) from exc


def _load_graph(args) -> SimpleGraph:
    if getattr(args, "graph6", None):
        try:
            return from_graph6(args.graph6)
        except ValueError as exc:
            raise InputError(f"graph6 input: {exc}") from exc
    if getattr(args, "graph", None):
        obj = _read_json(args.graph)
        try:
            return from_json_obj(obj)
        except ValueError as exc:
            raise InputError(f"{args.graph}: {exc}") from exc
    raise InputError("provide a graph via --graph6 or --graph FILE")


def _load_labeled(path: str) -> LabeledGraph:
    obj = _read_json(path)
    try:
        return labeled_graph_from_json(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _to_dot(g: SimpleGraph) -> str:
    lines = ["graph g {"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{g.name(v)}"];')
    for v, w in g.edges():
        lines.append(f"  {v} -- {w};")
    lines.append("}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    if args.labels:
        lg = _load_labeled(args.labels)
        g = lg.graph
    else:
        g = _load_graph(args)
        lg = None
    if args.dot:
        sys.stdout.write(_to_dot(g) + "\n")
        return 0
    facts = GraphFacts(g)
    untrans, leq_pairs, quotient = facts(structure.transvection_structure)
    jd = structure.join_decomposition(g)
    comps = facts(components)
    report = {
        "n": g.n,
        "edges": [[v, w] for v, w in g.edges()],
        "graph6": to_graph6(g),
        "girth": None if facts(girth) == math.inf else facts(girth),
        "min_degree": facts(min_degree),
        "connected": len(comps) == 1,
        "components": [sorted(bits(c)) for c in comps],
        "contains_square": facts(contains_square),
        "maximal_clique_factor":
            sorted(bits(facts(structure.maximal_clique_factor))),
        "join_parts": [sorted(bits(p)) for p in jd.parts],
        "maximal_join_subgraphs":
            [sorted(bits(s)) for s in structure.maximal_join_subgraphs(g)],
        "collapsible_min2":
            [sorted(bits(s)) for s in structure.collapsible_subgraphs(g, 2)],
        "strongly_reduced": facts(structure.is_strongly_reduced),
        "clique_reduced": facts(structure.is_clique_reduced),
        "transvection_free": untrans == g.full_mask,
        "untransvectable_vertices": sorted(bits(untrans)),
        "domination_pairs": [list(p) for p in leq_pairs],
        "domination_classes": [sorted(bits(m)) for m in quotient.classes],
        "class_graph_edges": [[i, j] for i, j in quotient.graph.edges()],
        "internal_vertices": sorted(bits(structure.internal_vertices(g))),
        "separating_star": facts(structure.has_separating_star),
    }
    if lg is not None:
        report["theorems"] = {}
        for theorem in THEOREMS:
            ok, unmet = check_hypotheses(lg, theorem, facts)
            report["theorems"][theorem] = {"ok": ok, "unmet": unmet}
    else:
        report["graph_conditions"] = graph_conditions(facts)
    _emit(report)
    return 0


def cmd_classify(args) -> int:
    a = _load_labeled(args.a)
    b = _load_labeled(args.b)
    verdict = classify(a, b)
    _emit(verdict.to_json_obj())
    if args.require_decision and verdict.kind == "Undecided":
        return 1
    return 0


def _parse_letters(tokens) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"word letters must be integers: {exc}") from exc


def _parse_set(text: str) -> int:
    try:
        return sum(1 << int(t) for t in text.split(",")) if text else 0
    except ValueError as exc:
        raise InputError(f"vertex set must be comma-separated integers: {exc}") from exc


def cmd_words(args) -> int:
    g = _load_graph(args)
    op = args.operation
    out: dict = {"operation": op}
    if op not in ("enumerate", "intersection"):
        w = words.reduce_word(g, _parse_letters(args.letters))
    if op in ("reduce", "multiply", "invert"):
        if op == "multiply":
            w = words.multiply(w, words.reduce_word(
                g, _parse_letters((args.with_word or "").split())))
        elif op == "invert":
            w = words.invert(w)
        out.update(word=list(w.letters), length=len(w))
        text = f"[{' '.join(map(str, w.letters))}] length {len(w)}"
    elif op == "support":
        sup, st, en, lk = words.support_and_boundary(w)
        out.update(word=list(w.letters), support=sorted(bits(sup)),
                   starts_with=sorted(bits(st)), ends_with=sorted(bits(en)),
                   link=sorted(bits(lk)))
        text = (f"support {sorted(bits(sup))} starts {sorted(bits(st))} "
                f"ends {sorted(bits(en))} link {sorted(bits(lk))}")
    elif op in ("member", "product"):
        member = (words.parabolic_membership(w, _parse_set(args.set or ""))
                  if op == "member" else words.product_set_membership(
                      w, [_parse_set(part) for part in (args.sets or "").split(";")]))
        out.update(word=list(w.letters), member=member)
        text = "member" if member else "not member"
    elif op == "split":
        d = words.split_lcr(w, _parse_set(args.left or ""),
                            _parse_set(args.right or ""))
        out.update(left=list(d.left.letters), core=list(d.core.letters),
                   right=list(d.right.letters))
        text = (f"left [{' '.join(map(str, d.left.letters))}] "
                f"core [{' '.join(map(str, d.core.letters))}] "
                f"right [{' '.join(map(str, d.right.letters))}]")
    elif op == "enumerate":
        e = words.enumerate_words(g, args.max_len, cap=args.cap)
        out.update(max_len=args.max_len, count=len(e.words),
                   strata=list(e.strata))
        text = f"{len(e.words)} elements; strata {list(e.strata)}"
    else:  # intersection
        ok = words.parabolic_intersection_check(
            g, _parse_set(args.left or ""), _parse_set(args.right or ""),
            args.max_len, cap=args.cap)
        out.update(holds=ok)
        text = "holds" if ok else "violated"
    if args.format == "json":
        _emit(out)
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_enumerate(args) -> int:
    catalog = verify.enumerate_graphs(args.n)
    out = {"n": args.n, "count": len(catalog.graphs)}
    if args.emit:
        out["graph6"] = [to_graph6(g) for g in catalog.graphs]
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    lemmas = list(verify.LEMMAS) if args.lemma == "all" else [args.lemma]
    for lemma in lemmas:
        if lemma not in verify.LEMMAS:
            raise InputError(f"unknown lemma {lemma!r}; "
                             f"known: {', '.join(sorted(verify.LEMMAS))}")
    reports = []
    for n in range(1, args.max_n + 1):
        catalog = verify.enumerate_graphs(n)
        for lemma in lemmas:
            rep = verify.check_lemma(catalog, lemma,
                                     drop_hypothesis=args.drop_hypothesis)
            reports.append({
                "lemma": lemma, "n": n, "checked": rep.checked,
                "counterexamples": [to_graph6(g) for g in rep.counterexamples],
            })
    total_bad = sum(len(r["counterexamples"]) for r in reports)
    _emit({"reports": reports, "counterexample_total": total_bad})
    return 0


def cmd_sample(args) -> int:
    try:
        report = verify.sample_er(args.n, args.p, args.trials, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report.to_json_obj())
    return 0


def cmd_iso(args) -> int:
    if args.labels_a and args.labels_b:
        a, b = _load_labeled(args.labels_a), _load_labeled(args.labels_b)
        witness = labeled_isomorphism(a, b, args.label_eq)
        ga, gb = a.graph, b.graph
    else:
        ga = _load_graph(argparse.Namespace(graph6=args.graph6_a, graph=args.a))
        gb = _load_graph(argparse.Namespace(graph6=args.graph6_b, graph=args.b))
        witness = isomorphism(ga, gb)
    if witness is not None:
        assert verify_isomorphism(ga, gb, witness)
    _emit({"isomorphic": witness is not None,
           "witness": list(witness) if witness is not None else None})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphprod",
        description="Graph-product rigidity toolkit: structural analysis, "
                    "certified classification, Coxeter word arithmetic, "
                    "exhaustive verification, and G(n,p) sampling.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_args(sp):
        sp.add_argument("--graph6", help="inline graph6 string")
        sp.add_argument("--graph", help="edge-list JSON file")

    sp = sub.add_parser("analyze", help="full structural report (module and "
                        "maximal-join lists grow with their output)")
    add_graph_args(sp)
    sp.add_argument("--labels", help="labeled-graph JSON file (adds theorem matrix)")
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("classify", help="certified verdict for two labeled graphs")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--require-decision", action="store_true",
                    help="exit 1 if the verdict is Undecided")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("words", help="Coxeter word arithmetic")
    add_graph_args(sp)
    sp.add_argument("operation", choices=["reduce", "multiply", "invert",
                                          "support", "member", "product",
                                          "split", "enumerate", "intersection"])
    sp.add_argument("letters", nargs="*", help="whitespace-separated vertex indices")
    sp.add_argument("--with-word", dest="with_word", help="second word (multiply)")
    sp.add_argument("--set", help="vertex set, comma-separated (member)")
    sp.add_argument("--sets", help="semicolon-separated vertex sets (product)")
    sp.add_argument("--left", help="left vertex set (split/intersection)")
    sp.add_argument("--right", help="right vertex set (split/intersection)")
    sp.add_argument("--max-len", type=int, default=8)
    sp.add_argument("--cap", type=int, default=10_000_000)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_words)

    sp = sub.add_parser("enumerate", help="isomorphism-class catalog (n <= 8)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--emit", action="store_true", help="list graph6 strings")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="exhaustive lemma checks over catalogs")
    sp.add_argument("--lemma", default="all")
    sp.add_argument("--max-n", type=int, default=6)
    sp.add_argument("--drop-hypothesis", action="store_true",
                    help="negative control: check conclusions unconditionally")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sample", help="G(n,p) predicate sampling")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("iso", help="isomorphism witness or none")
    sp.add_argument("a", nargs="?", help="edge-list JSON file")
    sp.add_argument("b", nargs="?", help="edge-list JSON file")
    sp.add_argument("--graph6-a")
    sp.add_argument("--graph6-b")
    sp.add_argument("--labels-a", help="labeled-graph JSON file")
    sp.add_argument("--labels-b", help="labeled-graph JSON file")
    sp.add_argument("--label-eq", default="strict-class",
                    choices=["strict-class", "stable-class", "wstar-class"])
    sp.set_defaults(func=cmd_iso)
    return p


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser from :func:`build_parser`, built once per process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 3
    except OracleDisagreement as exc:
        sys.stderr.write(f"oracle disagreement: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
