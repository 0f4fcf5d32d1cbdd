"""Cross-module invariants from the structural lemmas, checked exhaustively
on the fixture corpus."""

import numpy as np

from hhspace import fixtures
from hhspace.embedding import probe_embedding
from hhspace.model import (audit_axioms, epsilon_support, measure_alpha,
                           product_region, realize)


def test_region_support_inside_nested_elements():
    # the support of a region copy at a threshold above three times the
    # measured constants only meets elements nested in the defining one
    m = fixtures.grid_product(5, 5)
    alpha = measure_alpha(m)
    eps = 3 * max(m.xi(), alpha) + 1
    for U in m.elements:
        region = product_region(m, U, 0)
        for e, copy in region.copies:
            supp = epsilon_support(m, copy, eps)
            assert supp <= m.lattice.below(U), (U, e, supp)


def test_support_of_whole_space_joins_to_maximal():
    m = fixtures.grid_product(5, 7)
    supp = epsilon_support(m, m.space.vertices, 1)
    assert m.lattice.join_all(supp) == m.lattice.maximal


def test_image_support_contains_mapped_support():
    # mapped supports land inside the image support at matching thresholds
    e = fixtures.factor_inclusion(3)
    src_supp = epsilon_support(e.source, e.source.space.vertices, 1)
    img = e.image()
    img_supp = epsilon_support(e.target, img, 1)
    assert {e.index_map(U) for U in src_supp} <= img_supp


def test_realize_inverts_coordinates_on_fixtures():
    for m in (fixtures.grid_product(4, 4), fixtures.fixture_b_product()):
        for x in m.space.vertices:
            v, defect = realize(m, m.coords_of(x))
            assert defect <= m.realization_defect()
            assert m.space.d(v, x) <= 2 * m.realization_defect()


def test_distance_formula_finite_above_s0():
    from hhspace.model import distance_formula_fit
    for m in (fixtures.grid_product(4, 5), fixtures.hagen_target(3)):
        rep = audit_axioms(m)
        xi = rep.entry("projections").constants["xi"]
        kappa0 = rep.entry("consistency").constants["kappa0"]
        s0 = max(1, xi, kappa0) + 1
        for s in range(1, int(s0) + 2):
            fit = distance_formula_fit(m, s)
            assert np.isfinite(fit.K) and np.isfinite(fit.C)


def test_comparison_maps_isometric_on_product_slices():
    # edge maps inducing isometries give isometric comparison maps
    res = fixtures.raag_path(2)
    for (cid, v, d, K, C) in res.combined.comparison_table:
        assert (K, C) == (1.0, 0.0), (cid, v, d, K, C)


def test_combined_rho_diameters_bounded():
    res = fixtures.free_product_z2_z3(2)
    c = res.combined
    for (a, b), S in c.model.rho_set.items():
        assert c.model.hyp[b].diam_set(S) <= 2


def test_window_constants_monotone_and_stabilizing():
    # audited constants do not decrease with the window and settle quickly
    recs = []
    for radius in (1, 2, 3):
        res = fixtures.free_product_z2_z3(radius)
        entries = audit_axioms(res.combined.model).entries
        recs.append({k: v for e in entries for k, v in e.constants.items()})
    for key in ("kappa0", "e_bgi", "alpha_pr"):
        vals = [r[key] for r in recs]
        assert vals[0] <= vals[1] + 1e-9
        assert vals[1] <= vals[2] + 1e-9
    assert recs[1]["kappa0"] == recs[2]["kappa0"]


def test_probe_outside_projection_bounded_for_certified_inclusions():
    # the certified subgraph inclusion has uniformly bounded projections to
    # everything outside its image
    res = fixtures.raag_path(2)
    emb = res.include(("a", "c"))
    pr = probe_embedding(emb)
    assert pr.outside_diam_proper <= 4.0
    assert pr.pullback_audit.ok


def test_theorem_b_co_boundedness_vs_codegradation():
    # the five measurements are jointly small on the factor inclusion and
    # jointly growing on the distortion family
    good = probe_embedding(fixtures.factor_inclusion(2))
    assert max(good.lipschitz[0], good.qi[0], good.outside_diam,
               max(good.gate_defects)) <= 1.0
    bad_small = probe_embedding(fixtures.hagen(2))
    bad_big = probe_embedding(fixtures.hagen(5))
    assert bad_big.lipschitz[0] > bad_small.lipschitz[0]
    assert bad_big.qi[0] > bad_small.qi[0]
    assert bad_big.outside_diam_proper > bad_small.outside_diam_proper
    assert bad_big.gate_defects[1] > bad_small.gate_defects[1]


def test_wedge_join_commute_on_all_full_fixture_maps():
    # the lemma: full maps over intersection-property lattices preserve
    # wedges and joins; any failure here is a construction bug
    from hhspace.indexmaps import verify_fullness, verify_wedge_join_commute
    embs = [fixtures.factor_inclusion(2),
            fixtures.raag_path(2).include(("a", "c")),
            fixtures.hagen(3)]
    for emb in embs:
        assert verify_fullness(emb.index_map).ok
        assert verify_wedge_join_commute(emb.index_map).ok
