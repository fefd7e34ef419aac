"""Graph products toolkit: graph combinatorics, Coxeter words, rigidity verdicts."""

from .errors import CapExceeded, OracleDisagreement
from .graphs import (SimpleGraph, bits, complement, complete_bipartite,
                     complete_graph, components, components_induced,
                     contains_square, cycle_graph,
                     edgeless_graph, from_graph6, from_json_obj, girth,
                     induced, is_clique, is_connected, link, mask_of,
                     min_degree, path_graph, perp, petersen_graph, star,
                     star_graph, to_graph6, to_json_obj)
from .structure import (JoinDecomposition, QuotientGraph, collapse,
                        collapsible_subgraphs, domination_classes,
                        domination_pairs, has_separating_star,
                        internal_vertices, is_clique_reduced, is_collapsible,
                        is_join, is_strongly_reduced, is_transvection_free,
                        join_decomposition, maximal_clique_factor,
                        maximal_join_subgraphs, module_closure, substitute,
                        transvection_structure, untransvectable_subgraph,
                        untransvectable_vertices)
from .iso import (AutGroup, automorphism_group, invariant_screen, isomorphism,
                  verify_isomorphism)
from .words import (CoxeterWord, Enumeration, WordDecomposition,
                    enumerate_words, ends_with, invert, link_of_word,
                    multiply, parabolic_ball, parabolic_intersection_check,
                    parabolic_membership, product_set_membership, reduce_word,
                    split_lcr, starts_with, support, support_and_boundary)
from .classify import (AlgebraLabel, ClassificationVerdict, LabeledGraph,
                       ObstructionWitness, OutDescriptor, check_hypotheses,
                       classify, factor_label, hyperfinite_label, icc_label,
                       labeled_graph_from_json, labeled_graph_to_json,
                       labeled_isomorphism,
                       make_label, prime_factorization_structure, raag_label,
                       rigidity_obstructions, symmetry, uniform_labeled)
from .verify import (KNOWN_GRAPH_COUNTS, LEMMAS, GraphCatalog, LemmaReport,
                     SampleReport, WordOracle, check_lemma, enumerate_graphs,
                     random_graph, sample_er)

__version__ = "0.1.0"
