"""What the traced run wraps in hhspace, and the per-layer metrics it reports.

Each metric is one of
  time   total time of the outermost spans of a span name (s per op)
  calls  number of those spans (per op)
  self   self time of the spans of a span name (s per op)
  count  a counter added by a target's count hook (per op)
The README says which end-to-end metric each one should move, on which
workload.
"""

from tracer import Target


def _distinct_sets(cmap):
    if cmap._table is not None:
        return None
    return lambda res: {"spaces.distinct_sets": len(res[1])}


def _bfs_vertices(n, adj):
    return lambda res: {"spaces.bfs_vertices": n}


def _pair_matrix_bytes(model, U):
    if U in model._pair:
        return None
    return lambda res: {"model.pair_matrix_bytes": res.nbytes}


def _pairs_scanned(model):
    n = len(model.space)
    return lambda res: {"model.pairs_scanned": len(model.elements) * n * n}


def _levels(spec, *args, **kwargs):
    return lambda res: {"graphproduct.levels": len(res.cert.levels)}


def _targets(module, span, names, count=None):
    return [Target("hhspace." + module, q, span, count) for q in names]


TARGETS = (
    _targets("spaces", "spaces.setdist",
             ["FiniteSpace.diam_set", "FiniteSpace.dset", "FiniteSpace.gap",
              "FiniteSpace.hausdorff"])
    + _targets("spaces", "spaces.set_table", ["CoarseMap.set_table"],
               _distinct_sets)
    + _targets("spaces", "spaces.bfs", ["_bfs_all_pairs"], _bfs_vertices)
    + _targets("spaces", "spaces.quasi_inverse", ["CoarseMap.quasi_inverse"])
    + _targets("spaces", "spaces.map_constants",
               ["coarse_map_constants", "qi_constants"])
    + _targets("spaces", "spaces.qc_constant", ["FiniteSpace.qc_constant"])
    + _targets("spaces", "spaces.four_point_delta", ["four_point_delta"])
    + _targets("lattice", "lattice.construct", ["IndexLattice.__init__"])
    + _targets("lattice", "lattice.validate",
               ["IndexLattice.validate_relations",
                "IndexLattice.verify_intersection_property",
                "IndexLattice.verify_clean_containers"])
    + _targets("indexmaps", "indexmaps.verify",
               ["verify_index_map", "verify_fullness",
                "verify_wedge_join_commute"])
    + _targets("model", "model.audit", ["audit_axioms"], _pairs_scanned)
    + _targets("model", "model.consistency", ["_consistency_scan"])
    + _targets("model", "model.large_links", ["_audit_large_links"])
    + _targets("model", "model.bgi", ["_audit_bgi"])
    + _targets("model", "model.partial_realization", ["measure_alpha"])
    + _targets("model", "model.uniqueness", ["_theta_table"])
    + _targets("model", "model.pair_matrix", ["HHSModel.pair_matrix"],
               _pair_matrix_bytes)
    + _targets("model", "model.dist_to_set", ["HHSModel.dist_to_set_array"])
    + _targets("model", "model.hq_check", ["hq_check"])
    + _targets("model", "model.gate_map", ["gate_map"])
    + _targets("model", "model.realization_defect",
               ["HHSModel.realization_defect"])
    + _targets("model", "model.xi", ["HHSModel.xi"])
    + _targets("embedding", "embedding.verify", ["verify_embedding"])
    + _targets("embedding", "embedding.probe", ["probe_embedding"])
    + _targets("embedding", "embedding.pullback", ["pullback_model"])
    + _targets("treecombine", "treecombine.hypotheses", ["check_hypotheses"])
    + _targets("treecombine", "treecombine.tree_epsilon", ["tree_epsilon"])
    + _targets("treecombine", "treecombine.concretize_edges",
               ["concretize_edges"])
    + _targets("treecombine", "treecombine.comparison", ["comparison_map"])
    + _targets("treecombine", "treecombine.closest_vertex",
               ["TreeOfHHS.closest_vertex"])
    + _targets("treecombine", "treecombine.classes", ["equivalence_classes"])
    + _targets("treecombine", "treecombine.decorate", ["decorate"])
    + _targets("treecombine", "treecombine.glue", ["_CombinedBuilder.build"])
    + _targets("treecombine", "treecombine.rho",
               ["_CombinedBuilder._rho_classes", "_CombinedBuilder._rho_supports",
                "_CombinedBuilder._rho_cross", "_CombinedBuilder._rho_that"])
    + _targets("treecombine", "treecombine.audit_extras",
               ["_support_large_links", "_support_laws", "_far_side_exactness"])
    + _targets("treecombine", "treecombine.wedge_table", ["combined_wedge_table"])
    + _targets("graphproduct", "graphproduct.build", ["build"], _levels)
    + _targets("graphproduct", "graphproduct.certify", ["_certify_inclusion"])
    + _targets("graphproduct", "graphproduct.window",
               ["free_product_window", "amalgam_star_window"])
    + _targets("graphproduct", "graphproduct.product",
               ["direct_product_structure"])
    + _targets("serialize", "serialize.load", ["tree_from_json"])
    + _targets("serialize", "serialize.dumps", ["dumps"])
)

# (metric, unit, kind, span or counter)
METRICS = [
    ("spaces.setdist_s", "s", "time", "spaces.setdist"),
    ("spaces.setdist_calls", "count", "calls", "spaces.setdist"),
    ("spaces.set_table_s", "s", "time", "spaces.set_table"),
    ("spaces.set_table_calls", "count", "calls", "spaces.set_table"),
    ("spaces.distinct_sets", "count", "count", "spaces.distinct_sets"),
    ("spaces.bfs_s", "s", "time", "spaces.bfs"),
    ("spaces.bfs_vertices", "count", "count", "spaces.bfs_vertices"),
    ("spaces.quasi_inverse_s", "s", "time", "spaces.quasi_inverse"),
    ("spaces.map_constants_s", "s", "time", "spaces.map_constants"),
    ("spaces.qc_constant_s", "s", "time", "spaces.qc_constant"),
    ("spaces.four_point_delta_s", "s", "time", "spaces.four_point_delta"),
    ("lattice.construct_s", "s", "time", "lattice.construct"),
    ("lattice.validate_s", "s", "time", "lattice.validate"),
    ("indexmaps.verify_s", "s", "time", "indexmaps.verify"),
    ("model.audit_s", "s", "time", "model.audit"),
    ("model.audit_calls", "count", "calls", "model.audit"),
    ("model.projections_s", "s", "self", "model.audit"),
    ("model.consistency_s", "s", "time", "model.consistency"),
    ("model.large_links_s", "s", "time", "model.large_links"),
    ("model.bgi_s", "s", "time", "model.bgi"),
    ("model.partial_realization_s", "s", "time", "model.partial_realization"),
    ("model.uniqueness_s", "s", "time", "model.uniqueness"),
    ("model.pair_matrix_s", "s", "time", "model.pair_matrix"),
    ("model.pair_matrix_bytes", "B", "count", "model.pair_matrix_bytes"),
    ("model.dist_to_set_s", "s", "time", "model.dist_to_set"),
    ("model.dist_to_set_calls", "count", "calls", "model.dist_to_set"),
    ("model.hq_check_s", "s", "time", "model.hq_check"),
    ("model.gate_map_s", "s", "time", "model.gate_map"),
    ("model.realization_defect_s", "s", "time", "model.realization_defect"),
    ("model.xi_s", "s", "time", "model.xi"),
    ("model.pairs_scanned", "count", "count", "model.pairs_scanned"),
    ("embedding.verify_s", "s", "time", "embedding.verify"),
    ("embedding.probe_s", "s", "time", "embedding.probe"),
    ("embedding.pullback_s", "s", "time", "embedding.pullback"),
    ("treecombine.hypotheses_s", "s", "time", "treecombine.hypotheses"),
    ("treecombine.tree_epsilon_s", "s", "time", "treecombine.tree_epsilon"),
    ("treecombine.concretize_edges_s", "s", "time",
     "treecombine.concretize_edges"),
    ("treecombine.comparison_s", "s", "time", "treecombine.comparison"),
    ("treecombine.comparison_calls", "count", "calls", "treecombine.comparison"),
    ("treecombine.closest_vertex_s", "s", "time", "treecombine.closest_vertex"),
    ("treecombine.closest_vertex_calls", "count", "calls",
     "treecombine.closest_vertex"),
    ("treecombine.classes_s", "s", "time", "treecombine.classes"),
    ("treecombine.decorate_s", "s", "time", "treecombine.decorate"),
    ("treecombine.glue_s", "s", "self", "treecombine.glue"),
    ("treecombine.rho_s", "s", "time", "treecombine.rho"),
    ("treecombine.audit_extras_s", "s", "time", "treecombine.audit_extras"),
    ("treecombine.wedge_table_s", "s", "time", "treecombine.wedge_table"),
    ("graphproduct.levels", "count", "count", "graphproduct.levels"),
    ("graphproduct.certify_s", "s", "time", "graphproduct.certify"),
    ("graphproduct.certify_calls", "count", "calls", "graphproduct.certify"),
    ("graphproduct.window_s", "s", "time", "graphproduct.window"),
    ("graphproduct.product_s", "s", "time", "graphproduct.product"),
    ("serialize.load_s", "s", "time", "serialize.load"),
    ("serialize.dumps_s", "s", "time", "serialize.dumps"),
]


def per_op(rec, ops):
    """Every per-layer metric, as an amount per traced op."""
    totals = rec.outermost()
    out = {}
    for name, unit, kind, key in METRICS:
        if kind == "time":
            val = totals.get(key, (0.0, 0))[0] / 1e9
        elif kind == "calls":
            val = totals.get(key, (0.0, 0))[1]
        elif kind == "self":
            val = rec.self_ns(key) / 1e9
        else:
            val = rec.counters.get(key, 0)
        out[name] = (val / ops, unit)
    return out
