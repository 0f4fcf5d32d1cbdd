"""Finite-model engine for hierarchically hyperbolic structures.

Builds finite index-set lattices and finite-graph models of hierarchical
structures, combines them over trees and graph products, and audits every
checkable axiom and structural identity on desk-scale fixtures.

Layout:
  spaces        finite metric spaces, coarse maps, measured constants
  lattice       index sets: relations, wedge/join, containers, validators
  indexmaps     relation-preserving injections between lattices
  model         the model container, the nine-axiom auditor, realization,
                regions, gates, supports, concreteness, distance formula
  embedding     structure maps between models and the embedding probe
  treecombine   trees of models, decoration, comparison maps, the combined
                structure and its auditor
  groups        free-product word arithmetic for coset windows
  graphproduct  direct products, splittings, Bass-Serre windows, the
                certified recursion
  fixtures      the named fixture corpus
  serialize     JSON schemas and DOT export
  cli           the batch front door

Models, their spaces and their maps are frozen at construction (read-only
mappings and arrays), so the report of HHSModel.validate_structure, the
one door, and the model-level scan tables fill on first use and stay
valid. Audits decompose into independent read-only passes per axiom and
reports are assembled in sorted order, so results are deterministic.
"""

from .embedding import Embedding, clipped_sum_compare, probe_embedding, verify_embedding
from .graphproduct import (ProductSpec, SplitData, build,
                           direct_product_structure, split)
from .indexmaps import (IndexMap, verify_fullness, verify_index_map,
                        verify_wedge_join_commute)
from .lattice import (EMPTY, IndexLattice, MissingRelation, NotALattice,
                      singleton_lattice)
from .model import (HHSModel, ScanBudgetExceeded, audit_axioms, concretize,
                    distance_formula_fit, epsilon_support, gate, hq_check,
                    normalize, product_region, realize, trivial_model)
from .spaces import (CoarseMap, FiniteSpace, coarse_map_constants, cone_off,
                     cycle_graph, four_point_delta, path_graph, product_graph,
                     qi_constants, single_point)
from .treecombine import (ComparisonNotUniform, HypothesisFailure, TreeOfHHS,
                          audit_combined, build_combined, combined_wedge_table,
                          comparison_map, decorate, equivalence_classes)

__all__ = [
    "Embedding", "clipped_sum_compare", "probe_embedding", "verify_embedding",
    "ProductSpec", "SplitData", "build",
    "direct_product_structure", "split",
    "IndexMap", "verify_fullness", "verify_index_map", "verify_wedge_join_commute",
    "EMPTY", "IndexLattice", "MissingRelation", "NotALattice", "singleton_lattice",
    "HHSModel", "ScanBudgetExceeded", "audit_axioms", "concretize",
    "distance_formula_fit",
    "epsilon_support", "gate", "hq_check", "normalize", "product_region",
    "realize", "trivial_model",
    "CoarseMap", "FiniteSpace", "coarse_map_constants", "cone_off", "cycle_graph",
    "four_point_delta", "path_graph", "product_graph", "qi_constants",
    "single_point",
    "ComparisonNotUniform", "HypothesisFailure", "TreeOfHHS", "audit_combined",
    "build_combined", "combined_wedge_table", "comparison_map", "decorate",
    "equivalence_classes",
]
