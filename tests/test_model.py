import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhspace
from hhspace import fixtures, model as model_module, serialize, spaces, treecombine
from hhspace.fixtures import (bounded_factor_product, fixture_b_product, grid_product,
                              random_valid_lattice)
from hhspace.lattice import IndexLattice, ValidationReport
from hhspace.model import (HHSModel, NoConsistentTuple, NotHQC, ScanBudgetExceeded,
                           _audit_bgi, _consistency_scan, _nested_consistency,
                           _orthogonal_families,
                           audit_axioms, concretize,
                           distance_formula_fit, epsilon_support, gate,
                           gate_map, hq_check, measure_alpha, normalize, product_region,
                           realize, trivial_model, tuple_consistency_defect)
from hhspace.spaces import (CoarseMap, FiniteSpace, cycle_graph, path_graph, product_graph,
                            single_point, vkey)
from test_spaces import _traced_peak, connected_graphs, metric_spaces

L1 = ("l", "S1")
R2 = ("r", "S2")


@pytest.fixture(scope="module")
def grid():
    return grid_product(5, 7)


def test_trivial_model_audits(grid):
    m = trivial_model(path_graph(0, 5))
    rep = audit_axioms(m)
    assert rep.ok
    rec = rep.constants_record()
    assert rec.kappa0 == 0 and rec.alpha_pr == 0 and rec.complexity == 1


def test_fixture_b_audits():
    rep = audit_axioms(fixture_b_product())
    assert rep.ok
    assert rep.constants_record().kappa0 == 0


def test_grid_audits(grid):
    rep = audit_axioms(grid)
    assert rep.ok
    rec = rep.constants_record()
    assert rec.complexity == 3
    assert rec.kappa0 == 0
    assert rec.proj_lip == 1.0   # every projection is 1-lipschitz, none constant


def test_missing_rho_detected(grid):
    broken = grid.__class__(grid.space, grid.lattice, grid.hyp, grid.proj,
                            {k: v for k, v in grid.rho_set.items() if k[0] != L1},
                            grid.rho_map, name="broken")
    rep = audit_axioms(broken)
    assert not rep.ok
    assert not rep.entry("structure").ok


def test_realize_roundtrip(grid):
    for x in [(0, 0), (2, 3), (4, 6)]:
        v, mm = realize(grid, grid.coords_of(x))
        assert v == x and mm == 0


def test_realize_product_tuple(grid):
    # exhaustive minimax search agrees with the obvious grid point
    t = {L1: frozenset([3]), R2: frozenset([5])}
    v, mm = realize(grid, t)
    assert v == (3, 5) and mm == 0


def test_realize_rejects_inconsistent():
    m = grid_product(5, 5)
    # pin the transverse container pair to far-apart markers: impossible to
    # be 0-consistent since its own coordinate diameters are fine but the
    # transverse inequality fails
    t = {L1: frozenset([0, 4]), R2: frozenset([0])}
    worst, diam = tuple_consistency_defect(m, t)
    assert diam == 4
    with pytest.raises(NoConsistentTuple):
        realize(m, t, kappa=2)


def test_tuple_consistency_defect_of_realized_tuples_is_zero():
    # fixture B has transverse and properly nested pairs, so both
    # inequalities are evaluated; the tuple of a point satisfies both
    m = fixture_b_product()
    lat = m.lattice
    rels = {lat.rel(a, b) for i, a in enumerate(lat.elements) for b in lat.elements[i + 1:]}
    assert {"trans", "nested"} <= rels
    for x in m.space.vertices:
        assert tuple_consistency_defect(m, m.coords_of(x))[0] == 0


def test_product_region_fibers(grid):
    pr = product_region(grid, L1, 0)
    assert pr.F == frozenset((i, 0) for i in range(5))
    assert pr.E == frozenset((0, j) for j in range(7))
    assert len(pr.P) == 35
    assert len(pr.copies) == 7
    # every parallel copy is a horizontal fiber
    for e, copy in pr.copies:
        assert copy == frozenset((i, e[1]) for i in range(5))


def test_product_region_of_maximal(grid):
    pr = product_region(grid, ("S",), 0)
    assert pr.F == frozenset(grid.space.vertices)


def test_product_region_no_orthogonal_partner():
    m = trivial_model(path_graph(0, 4))
    pr = product_region(m, "S", 0)
    assert pr.F == frozenset(m.space.vertices)
    assert pr.E == frozenset([0])


def test_gate_is_fiber_projection(grid):
    row = frozenset((i, 0) for i in range(5))
    for x, want in [((3, 4), (3, 0)), ((0, 6), (0, 0)), ((2, 0), (2, 0))]:
        assert gate(grid, row, x) == frozenset([want])


def test_gate_fixed_on_target(grid):
    row = frozenset((i, 0) for i in range(5))
    for t in row:
        assert gate(grid, row, t) == frozenset([t])


def test_gate_rejects_non_hqc(grid):
    diag = [(i, i) for i in range(5)]
    with pytest.raises(NotHQC):
        gate(grid, diag, (4, 0))


def test_gate_map_has_no_guard(grid):
    diag = [(i, i) for i in range(5)]
    assert not hq_check(grid, diag).passed
    g = gate_map(grid, diag)
    assert isinstance(g, CoarseMap)
    assert all(g(x) <= frozenset(diag) for x in grid.space.vertices)
    with pytest.raises(NotHQC):
        gate(grid, diag, (4, 0))


def _gate_map_reference(model, target):
    """The per-set loop the grouped reductions replaced."""
    target = frozenset(target)
    t_idx = np.sort(model.space.idx(list(target)))
    worst = np.zeros((len(t_idx), len(model.space)), dtype=np.int64)
    for U in model.elements:
        m = model.proj[U]
        A = m.codomain.ordered(m.image_of_set(target))
        A_idx = m.codomain.idx(A)
        gaps = m.per_set(A, np.minimum)
        closest = gaps == gaps.min(axis=1, keepdims=True)
        far = m.dset_points(A)[m.sids[t_idx]]
        col = np.empty((len(t_idx), len(m.sets)), dtype=np.int64)
        for a, near in enumerate(closest):
            pts = A_idx[near]
            diam = m.codomain.dist[pts[:, None], pts].max()
            col[:, a] = np.maximum(far[:, near].max(axis=1), diam)
        np.maximum(worst, col[:, m.sids], out=worst)
    return t_idx[worst.argmin(axis=0)]


def _assert_gate_map_matches(m, target):
    g = gate_map(m, target)
    want = [m.space.vertices[t] for t in _gate_map_reference(m, target)]
    assert [g(x) for x in m.space.vertices] == [frozenset([t]) for t in want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gate_map_matches_reference_on_random_models(data):
    m = data.draw(st.one_of(nested_pairs(), bgi_models()))
    target = data.draw(st.frozensets(st.sampled_from(m.space.vertices), min_size=1))
    _assert_gate_map_matches(m, target)


@pytest.mark.parametrize("r", range(2, 13))
def test_gate_map_matches_reference_on_hagen(r):
    # the two targets the embedding probe gates onto
    e = fixtures.hagen(r)
    tgt, image = e.target, e.space_map.image()
    s_img = e.index_map(e.source.lattice.maximal)
    region = product_region(tgt, s_img, max(1.0, *tgt.basics())).F
    for target in (image, region or [min(image, key=tgt.space.index.__getitem__)]):
        _assert_gate_map_matches(tgt, target)


def test_hq_check(grid):
    assert hq_check(grid, grid.space.vertices).passed
    assert hq_check(grid, [(i, 0) for i in range(5)]).passed
    bad = hq_check(grid, [(i, i) for i in range(5)])
    assert not bad.passed
    assert bad.table[0] == 4  # (4,0) and (0,4) project onto the diagonal


def test_epsilon_support(grid):
    assert epsilon_support(grid, [(2, 2)], 0) == frozenset()
    assert epsilon_support(grid, grid.space.vertices, 1) == frozenset([L1, R2])
    assert epsilon_support(grid, [(0, 0), (0, 3)], 1) == frozenset([R2])


def test_distance_formula_exact_on_grid(grid):
    fit = distance_formula_fit(grid, 1)
    assert (fit.K, fit.C) == (1.0, 0.0)


def test_distance_formula_single_element():
    m = trivial_model(path_graph(0, 9))
    fit = distance_formula_fit(m, 1)
    assert (fit.K, fit.C) == (1.0, 0.0)


def test_distance_formula_balanced_tree_product():
    t1 = trivial_model(path_graph(0, 3), elt="T1", name="t1")
    t2 = trivial_model(
        path_graph(0, 2), elt="T2", name="t2")
    from hhspace.graphproduct import direct_product_structure
    m = direct_product_structure(t1, t2)
    fit = distance_formula_fit(m, 1)
    assert (fit.K, fit.C) == (1.0, 0.0)


def test_concretize_drops_bounded_factor():
    m = bounded_factor_product(7)
    res = concretize(m)
    assert res.changed
    assert res.core == L1
    assert set(res.removed) == {("S",), ("V", L1), ("V", R2), R2}
    assert res.neighborhood == 0
    assert audit_axioms(res.model).ok


def test_concretize_identity_on_concrete():
    m = trivial_model(path_graph(0, 9))
    res = concretize(m, eps=1)
    assert not res.changed


def test_concretize_bounded_model_unchanged():
    m = trivial_model(single_point())
    res = concretize(m, eps=1)
    assert not res.changed


def test_normalize_restricts_fat_models():
    base = path_graph(0, 3)
    fat = path_graph(0, 9)
    from hhspace.lattice import singleton_lattice
    from hhspace.model import HHSModel
    from hhspace.spaces import CoarseMap
    m = HHSModel(base, singleton_lattice(), {"S": fat},
                 {"S": CoarseMap.single(base, fat, lambda v: v)}, name="fat")
    rep = audit_axioms(m)
    assert rep.entry("projections").constants["surj_radius"] == 6
    slim = normalize(m, radius=1)
    assert len(slim.hyp["S"]) == 5
    assert audit_axioms(slim).entry("projections").constants["surj_radius"] <= 1


def test_normalize_keeps_rho_maps_that_land_in_the_slim_models():
    # hagen_target(3) has four rho maps; at radius 1 every image point stays
    # in the restricted lower model, so each map keeps its images
    m = fixtures.hagen_target(3)
    slim = normalize(m, radius=1)
    assert len(m.rho_map) == 4
    for (v, w), rmap in m.rho_map.items():
        got = slim.rho_map[(v, w)]
        assert got.domain is slim.hyp[w] and got.codomain is slim.hyp[v]
        assert {p: got(p) for p in got.domain.vertices} == \
            {p: rmap(p) for p in slim.hyp[w].vertices}
        assert got.name == rmap.name
    assert audit_axioms(slim).ok


def test_theta_table_monotone(grid):
    rep = audit_axioms(grid)
    theta = rep.entry("uniqueness").constants["theta_u"]
    vals = [theta[k] for k in sorted(theta)]
    assert vals == sorted(vals)
    assert theta[0] == 0


def test_concretize_removes_artificial_bounded_element():
    # graft a point-model element transverse to the unbounded factor onto
    # the bounded-factor fixture; the core restriction drops it
    from hhspace.model import HHSModel
    from hhspace.lattice import IndexLattice
    from hhspace.spaces import CoarseMap, single_point

    base = bounded_factor_product(7)
    lat = base.lattice
    W = ("W", "extra")
    nested, orth = [], []
    for i, a in enumerate(lat.elements):
        if a != lat.maximal:
            nested.append((a, lat.maximal))
        for b in lat.elements[i + 1:]:
            r = lat.rel(a, b)
            if r == "nested":
                lo, hi = (a, b) if lat.nested(a, b) else (b, a)
                nested.append((lo, hi))
            elif r == "orth":
                orth.append((a, b))
    nested.append((W, lat.maximal))
    big = IndexLattice(list(lat.elements) + [W], lat.maximal, nested, orth)
    hyp = dict(base.hyp)
    hyp[W] = single_point(("pt", "W"))
    proj = dict(base.proj)
    proj[W] = CoarseMap.constant(base.space, hyp[W], [("pt", "W")])
    rho_set = dict(base.rho_set)
    rho_map = dict(base.rho_map)
    point = ("pt", "W")
    top_pt = next(iter(hyp[lat.maximal].vertices))
    rho_set[(W, lat.maximal)] = frozenset([top_pt])
    rho_map[(W, lat.maximal)] = CoarseMap.constant(
        hyp[lat.maximal], hyp[W], [point])
    for e in lat.elements:
        if e == lat.maximal:
            continue
        rho_set[(W, e)] = base.proj[e](base.basepoint)
        rho_set[(e, W)] = frozenset([point])
    m = HHSModel(base.space, big, hyp, proj, rho_set, rho_map, name="grafted")
    assert audit_axioms(m).ok
    res = concretize(m)
    assert res.changed
    assert W in res.removed
    assert audit_axioms(res.model).ok


# the two restrictions HHSModel.restrict replaced: concretize's `submodel`
# and decorate's `_restricted_model`, as they were


def _submodel_reference(model, keep, new_maximal):
    keep = frozenset(keep)
    lat = model.lattice.restrict(keep, maximal=new_maximal)
    hyp = {U: model.hyp[U] for U in keep}
    proj = {U: model.proj[U] for U in keep}
    rset = {k: v for k, v in model.rho_set.items() if k[0] in keep and k[1] in keep}
    rmap = {k: v for k, v in model.rho_map.items() if k[0] in keep and k[1] in keep}
    return HHSModel(model.space, lat, hyp, proj, rset, rmap,
                    name=model.name + "|core")


def _restricted_model_reference(model, U, copyset, name=""):
    keep = model.lattice.below(U)
    lat = model.lattice.restrict(keep, maximal=U, name=name)
    sub = model.space.subspace(copyset, name=name)
    hyp = {W: model.hyp[W] for W in keep}
    proj = {W: CoarseMap(sub, model.hyp[W],
                         {x: model.proj[W](x) for x in sub.vertices},
                         name="pi:%s" % (W,)) for W in keep}
    rset = {k: v for k, v in model.rho_set.items()
            if k[0] in keep and k[1] in keep}
    rmap = {k: v for k, v in model.rho_map.items()
            if k[0] in keep and k[1] in keep}
    return HHSModel(sub, lat, hyp, proj, rset, rmap, name=name)


def _assert_same_restriction(got, want):
    assert got.name == want.name
    assert got.space.vertices == want.space.vertices
    assert got.space.name == want.space.name
    assert (got.space.dist == want.space.dist).all()
    lat, ref = got.lattice, want.lattice
    assert (lat.elements, lat.maximal) == (ref.elements, ref.maximal)
    assert lat.nest_pairs() == ref.nest_pairs()
    assert lat.orth_pairs() == ref.orth_pairs()
    assert lat.containers == ref.containers
    for U in ref.elements:
        assert got.hyp[U] is want.hyp[U]
        assert got.proj[U].domain is got.space
        assert {x: got.proj[U](x) for x in got.space.vertices} == \
            {x: want.proj[U](x) for x in want.space.vertices}
        assert got.proj[U].name == want.proj[U].name
    assert got.rho_set == want.rho_set
    assert got.rho_map.keys() == want.rho_map.keys()
    assert all(got.rho_map[k] is m for k, m in want.rho_map.items())


@pytest.mark.parametrize("make", [lambda: grid_product(3, 3), bounded_factor_product],
                         ids=["grid3x3", "bounded-factor"])
def test_restrict_matches_the_two_restrictions_it_replaced(make):
    m = make()
    for U in m.elements:
        core = m.restrict(U, name=m.name + "|core")
        _assert_same_restriction(core, _submodel_reference(m, m.lattice.below(U), U))
        # on the same space the projections are the same objects
        assert core.space is m.space
        assert all(core.proj[W] is m.proj[W] for W in core.elements)
        region = product_region(m, U, max(m.basics()))
        for k, (_, copyset) in enumerate(region.copies + [(None, m.space.vertices)]):
            name = "%s|%s#%d" % (m.name, U, k)
            _assert_same_restriction(m.restrict(U, copyset, name=name),
                                     _restricted_model_reference(m, U, copyset, name=name))
        if U != m.lattice.maximal:
            assert len(core.elements) < len(m.elements)


def test_distance_formula_fit_without_clipped_pairs_emits_no_warning():
    # at s = 3 every clipped sum on fixture B is zero: the default CLI path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = distance_formula_fit(fixture_b_product(), 3)
    assert (fit.K, fit.C, fit.worst_pair) == (1.0, 2.0, ((0, 0), (0, 1)))


def _audit_bgi_reference(model):
    """The per-endpoint loop the chunked interval scan replaced."""
    lat = model.lattice
    e_bgi, witness = 0, None
    for (v, w) in lat.nest_pairs():
        CW = model.hyp[w]
        rho = sorted(model.rho_set[(v, w)], key=vkey)
        rho_idx = CW.idx(rho)
        # int64, as the int64 sentinel below would wrap in a narrow table type
        to_rho = CW.dist[:, rho_idx].min(axis=1).astype(np.int64)
        sids, _, M2 = model.rho_map[(v, w)].set_table()
        k = len(M2)
        sidmask = np.zeros((k, len(CW)), dtype=bool)
        sidmask[sids, np.arange(len(CW))] = True
        D = CW.dist.astype(np.int64)
        for a in range(len(CW)):
            on = D[a][None, :] + D == D[a][:, None]   # on[b, v]: v on a geodesic a..b
            gapv = np.where(on, to_rho[None, :], np.iinfo(np.int64).max).min(axis=1)
            present = (on @ sidmask.T) > 0            # present[b, s]
            # diam[b]: the largest M2[s, t] over the sets s, t both present
            both = present[:, :, None] & present[:, None, :]
            diam = np.where(both, M2, 0).max(axis=(1, 2)).astype(np.int64)
            vals = np.minimum(gapv, diam)
            m = int(vals.max())
            if m > e_bgi:
                e_bgi = m
                witness = (v, w, CW.vertices[a], CW.vertices[int(vals.argmax())])
    return e_bgi, witness


@pytest.mark.parametrize("r", range(2, 9))
def test_audit_bgi_matches_reference_on_hagen(r):
    target = fixtures.hagen(r).target
    assert _audit_bgi(target) == _audit_bgi_reference(target)


def test_audit_bgi_matches_reference_on_fixture_b():
    m = fixture_b_product()
    assert _audit_bgi(m) == _audit_bgi_reference(m)


@pytest.fixture(scope="module")
def raag_window():
    return fixtures.raag_path(2).combined.model


def test_audit_bgi_matches_reference_on_raag_window(raag_window):
    # |C_W| = 63 with up to 24 image sets: many chunks per nested pair
    m = raag_window
    got = _audit_bgi(m)
    assert got == _audit_bgi_reference(m)
    assert got[0] == 2
    assert got[1][:2] == (("c", ("P", ()), ("That",)), ("T", 5))


@st.composite
def nested_pairs(draw):
    """A two-element model V < W over random graphs: random rho set in C_W,
    random set-valued downward map C_W -> C_V and projection to C_V."""
    CW, CV = draw(connected_graphs(max_n=40)), draw(connected_graphs(max_n=12))

    def images():
        return {p: draw(st.frozensets(st.sampled_from(CV.vertices), min_size=1, max_size=3))
                for p in CW.vertices}
    rho = draw(st.frozensets(st.sampled_from(CW.vertices), min_size=1, max_size=3))
    V, W = "V", "W"
    lat = IndexLattice([V, W], W, nested_pairs=[(V, W)])
    proj = {W: CoarseMap.identity(CW), V: CoarseMap(CW, CV, images())}
    return HHSModel(CW, lat, {V: CV, W: CW}, proj, {(V, W): rho},
                    {(V, W): CoarseMap(CW, CV, images())}, name="random-pair")


@settings(max_examples=80, deadline=None)
@given(nested_pairs())
def test_audit_bgi_matches_reference_on_random_pairs(m):
    assert _audit_bgi(m) == _audit_bgi_reference(m)


def _bgi_model(hyp, top, nested, rho_set, rho_map):
    """A model over C_top for the BGI pass alone: the projections are the
    identity on top and constant elsewhere."""
    lat = IndexLattice(list(hyp), top, nested_pairs=nested)
    proj = {e: CoarseMap.identity(C) if e == top else
            CoarseMap.constant(hyp[top], C, [C.vertices[0]]) for e, C in hyp.items()}
    return HHSModel(hyp[top], lat, hyp, proj, rho_set, rho_map, name="bgi")


def _subsets(C, most):
    return st.frozensets(st.sampled_from(C.vertices), min_size=1, max_size=most)


@st.composite
def bgi_models(draw):
    """One to three elements V0.. under W, and W under T when drawn:
    graph or table metrics, random rho sets and downward maps into small
    spaces, so that the largest values tie across pairs."""
    vs = ["V%d" % j for j in range(draw(st.integers(1, 3)))]
    tops = ["W", "T"][:draw(st.integers(1, 2))]
    hyp = {e: draw(metric_spaces(max_n=16 if e in tops else 5)) for e in vs + tops}
    nested = [(v, "W") for v in vs] + [("W", "T")] * (len(tops) - 1)
    pairs = IndexLattice(list(hyp), tops[-1], nested_pairs=nested).nest_pairs()

    rho_set = {(v, w): draw(_subsets(hyp[w], 3)) for v, w in pairs}
    rho_map = {(v, w): CoarseMap(hyp[w], hyp[v], {p: draw(_subsets(hyp[v], 2))
                                                  for p in hyp[w].vertices})
               for v, w in pairs}
    return _bgi_model(hyp, tops[-1], nested, rho_set, rho_map)


@settings(max_examples=80, deadline=None)
@given(bgi_models())
def test_audit_bgi_matches_reference_on_random_models(m):
    assert _audit_bgi(m) == _audit_bgi_reference(m)


def _xi_reference(m):
    """xi as one diam_set per rho set, recomputed on every call."""
    out = 0
    for U in m.elements:
        out = max(out, m.proj[U].diam_bound)
    for (a, b), S in m.rho_set.items():
        out = max(out, m.hyp[b].diam_set(S))
    return out


def _check_xi_once(m):
    got = m.xi()
    assert got == _xi_reference(m) and type(got) is int
    no_work = AssertionError("xi measured twice")
    with mock.patch.object(FiniteSpace, "set_family", side_effect=no_work), \
            mock.patch.object(CoarseMap, "diam_bound",
                              new_callable=mock.PropertyMock, side_effect=no_work):
        assert m.xi() == got


@pytest.mark.parametrize("make", [
    fixture_b_product, grid_product, bounded_factor_product,
    lambda: fixtures.hagen_target(12), lambda: fixtures.raag_path(1).combined.model])
def test_xi_is_measured_once_and_unchanged(make):
    _check_xi_once(make())


@settings(max_examples=60, deadline=None)
@given(bgi_models())
def test_xi_is_measured_once_and_unchanged_on_random_models(m):
    _check_xi_once(m)


def test_audit_bgi_witness_follows_nest_pairs_order():
    # nest_pairs() runs (V0, T), (V0, W), (V1, T), (V1, W), (W, T); every
    # pair but (V0, T) reaches 1 first at (1, 1), so the witness is on
    # (V0, W), not on (V1, T), which comes first among the pairs under T
    P5, P2 = path_graph(5), path_graph(2)
    hyp = {"V0": P2, "V1": P2, "W": P5, "T": P5}
    nested = [("V0", "W"), ("V1", "W"), ("W", "T")]
    pairs = IndexLattice(list(hyp), "T", nested_pairs=nested).nest_pairs()
    assert pairs == [("V0", "T"), ("V0", "W"), ("V1", "T"), ("V1", "W"), ("W", "T")]
    rho_map = {(v, w): CoarseMap.constant(hyp[w], hyp[v], [0] if (v, w) == ("V0", "T")
                                          else [0, 1]) for v, w in pairs}
    m = _bgi_model(hyp, "T", nested, {p: {0} for p in pairs}, rho_map)
    assert _audit_bgi(m) == _audit_bgi_reference(m) == (1, ("V0", "W", 1, 1))


def test_audit_bgi_long_path_with_two_mask_words():
    # C_W is a path of diameter 65 and the downward map is one-to-one, so
    # there are 66 image sets, two uint64 words of them; with the rho set at
    # 0, the interval from a to b > a scores min(a, b - a)
    P = path_graph(66)
    m = _bgi_model({"V": P, "W": P}, "W", [("V", "W")], {("V", "W"): {0}},
                   {("V", "W"): CoarseMap.identity(P)})
    assert _audit_bgi(m) == _audit_bgi_reference(m) == (32, ("V", "W", 32, 64))


@st.composite
def wide_bgi_models(draw):
    """V0 and V1 under W, where C_W is a path of 66 to 80 points with a few
    chords, cut into 65 or more runs, and rho(V0, W) sends each run to its
    own set of one or two points of C_V0: so V0's sets take two mask words,
    set 63 and a set of the second word are in use, and (b, b) and every
    interval inside a run have a single image set. V1 is drawn as in
    bgi_models, one word of sets after V0's two."""
    n = draw(st.integers(66, 80))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=4))
    CW = FiniteSpace(range(n), [(i, i + 1) for i in range(n - 1)] + chords)
    # 13 + 78 sets of one or two points, one for each of up to 80 runs
    CV0, CV1 = path_graph(13), draw(metric_spaces(max_n=5))
    pool = [(p,) for p in range(13)] + list(itertools.combinations(range(13), 2))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=64)))
    sets = draw(st.permutations(pool))
    run = np.searchsorted(cuts, np.arange(n), side="right")
    hyp = {"V0": CV0, "V1": CV1, "W": CW}
    nested = [("V0", "W"), ("V1", "W")]

    rho_set = {pair: draw(_subsets(CW, 3)) for pair in nested}
    rho_map = {("V0", "W"): CoarseMap.from_ids(CW, CV0, run, sets),
               ("V1", "W"): CoarseMap(CW, CV1, {p: draw(_subsets(CV1, 2))
                                                 for p in CW.vertices})}
    assert len(rho_map[("V0", "W")].sets) == len(cuts) + 1 > 64
    return _bgi_model(hyp, "W", nested, rho_set, rho_map)


@settings(max_examples=20, deadline=None)
@given(wide_bgi_models())
def test_audit_bgi_matches_reference_past_one_mask_word(m):
    assert _audit_bgi(m) == _audit_bgi_reference(m)


@pytest.mark.parametrize("q", [63, 64, 65, 69])
def test_audit_bgi_single_set_witness_at_each_bit(q):
    # the identity map of a 70-point path, but for the point q, which goes
    # to the two ends of C_V: set q, bit q % 64 of word q // 64, has
    # diameter 79, so (q, q) scores min(q, 79) = q with the rho set at 0;
    # an earlier row scores at most a, and a later one at most 69 - a
    P, CV = path_graph(70), path_graph(80)
    down = CoarseMap.from_ids(P, CV, None, [(p,) if p != q else (0, 79) for p in range(70)])
    m = _bgi_model({"V": CV, "W": P}, "W", [("V", "W")], {("V", "W"): {0}},
                   {("V", "W"): down})
    assert down.sids[q] == q
    assert _audit_bgi(m) == _audit_bgi_reference(m) == (q, ("V", "W", q, q))


def test_mask_diams_measures_only_multi_set_pairs_above_the_running_best(raag_window):
    # every interval image of the hagen family is a single set
    with mock.patch.object(model_module, "_mask_diams",
                           side_effect=AssertionError("a mask was measured")):
        for r in range(2, 13):
            _audit_bgi(fixtures.hagen(r).target)
    # on the raag window: replay each chunk that interval_reduce yields and
    # check that _mask_diams gets exactly the rows of each v that hold two
    # or more sets and whose gap is above v's best over the chunks before
    m, chunks, calls = raag_window, [], []
    reduce, measure = FiniteSpace.interval_reduce, model_module._mask_diams

    def spy_reduce(space, rows, columns):
        for r0, outs in reduce(space, rows, columns):
            chunks.append((r0, [o.copy() for o in outs]))
            yield r0, outs

    def spy_measure(masks, M):
        calls.append((len(chunks) - 1, masks.copy()))
        return measure(masks, M)
    with mock.patch.object(FiniteSpace, "interval_reduce", spy_reduce), \
            mock.patch.object(model_module, "_mask_diams", spy_measure):
        assert _audit_bgi(m) == _audit_bgi_reference(m)
    pairs = m.lattice.nest_pairs()
    passes = iter(dict.fromkeys(w for _, w in pairs))
    want = []
    for c, (r0, (gap, mask)) in enumerate(chunks):
        if r0 == 0:
            w = next(passes)
            Ms = [m.rho_map[(v, w)].set_table()[2] for v, w2 in pairs if w2 == w]
            words = np.cumsum([0] + [(len(M) + 63) // 64 for M in Ms])
            top = [0] * len(Ms)
        for j, M in enumerate(Ms):
            masks = mask[:, :, words[j]:words[j + 1]].reshape(-1, words[j + 1] - words[j])
            g = gap[:, :, j].reshape(-1)
            multi = np.bitwise_count(masks).sum(axis=1) > 1
            if (multi & (g > top[j])).any():
                want.append((c, masks[multi & (g > top[j])]))
            top[j] = max(top[j], int(np.minimum(g, measure(masks, M)).max()))
    assert next(passes, None) is None and want
    assert len(calls) == len(want)
    for (c, got), (c2, rows) in zip(calls, want):
        assert c == c2 and np.array_equal(got, rows)


def test_audit_bgi_allocates_chunks_not_squares():
    # one interval_reduce chunk of all rows would hold every endpoint pair's
    # rho distance and mask words for each element below W: 4 MB on
    # hagen(12) (|C_W| = 104, 13 elements below it) and 18 MB on a
    # 300-vertex C_W with three below it; a chunk is about 32 k cells
    assert _traced_peak(_audit_bgi, fixtures.hagen(12).target) < 1.5e6
    CW, CV = product_graph(path_graph(15), cycle_graph(20)), path_graph(6)
    vs = ["V0", "V1", "V2"]
    rho_map = {(v, "W"): CoarseMap(CW, CV, {p: {p[0] // 3, (p[1] + j) % 6}
                                            for p in CW.vertices})
               for j, v in enumerate(vs)}
    m = _bgi_model(dict.fromkeys(vs, CV) | {"W": CW}, "W", [(v, "W") for v in vs],
                   {(v, "W"): {CW.vertices[7 * j]} for j, v in enumerate(vs)}, rho_map)
    assert _traced_peak(_audit_bgi, m) < 1.5e6


def _nested_consistency_reference(model, v, w):
    """The per-vertex loop the set-family table replaced."""
    a = model.dist_to_set_array(w, model.rho_set[(v, w)])
    rmap = model.rho_map[(v, w)]
    CV = model.hyp[v]
    vals = np.empty(len(model.space), dtype=np.int64)
    cache = {}
    on_w, on_v = model.proj[w].image_sets(), model.proj[v].image_sets()
    for i in range(len(model.space)):
        key = (on_w.sids[i], on_v.sids[i])
        if key not in cache:
            img = rmap.image_of_set(on_w.sets[key[0]])
            cache[key] = CV.dset(on_v.sets[key[1]], img)
        vals[i] = cache[key]
    both = np.minimum(a, vals)
    return int(both.max()), model.space.vertices[int(both.argmax())]


def _assert_consistency_matches_reference(m):
    for v, w in m.lattice.nest_pairs():
        assert _nested_consistency(m, v, w) == _nested_consistency_reference(m, v, w)
    with mock.patch.object(model_module, "_nested_consistency",
                           _nested_consistency_reference):
        want = _consistency_scan(m)
    assert _consistency_scan(m) == want


@settings(max_examples=80, deadline=None)
@given(nested_pairs())
def test_consistency_scan_matches_reference_on_random_pairs(m):
    _assert_consistency_matches_reference(m)


def test_consistency_scan_matches_reference_on_raag_window(raag_window):
    m = raag_window
    _assert_consistency_matches_reference(m)
    assert max(_nested_consistency(m, v, w)[0] for v, w in m.lattice.nest_pairs()) > 0


def _orthogonal_families_reference(lat):
    """Every subset of the elements, size by size in element order, kept
    when its members are pairwise orthogonal."""
    for size in range(1, len(lat.elements) + 1):
        for family in itertools.combinations(lat.elements, size):
            if all(lat.orthogonal(a, b) for a, b in itertools.combinations(family, 2)):
                yield list(family)


def _dist_row(model, U, S):
    """dist_to_set_array computed afresh, not read from the model's memo."""
    m = model.proj[U]
    return m.dset_row(S)[m.sids]


def _measure_alpha_reference(model, budget=500000):
    """The scan that recomputed pin rows per family and built point rows
    with one distance row per projection-image point; every row is
    computed here, so a fault in the model's row memo cannot reach it."""
    lat = model.lattice
    n = len(model.space)
    alpha = 0
    point_rows = {}
    for V in lat.elements:
        pts = sorted(model.proj[V].image(), key=vkey)
        rows = np.stack([_dist_row(model, V, [p]) for p in pts])
        point_rows[V] = (pts, rows)
    for Vs in _orthogonal_families_reference(lat):
        pin = np.zeros(n, dtype=np.int64)
        for Vj in Vs:
            for W in lat.elements:
                if lat.properly_nested(Vj, W) or lat.transverse(Vj, W):
                    pin = np.maximum(pin, _dist_row(model, W, model.rho_set[(Vj, W)]))
        sizes = [len(point_rows[Vj][0]) for Vj in Vs]
        count = 1
        for sz in sizes:
            count *= sz
        if count > budget:
            raise ScanBudgetExceeded("partial-realization scan exceeds budget: %d choices" % count)
        for choice in itertools.product(*(range(sz) for sz in sizes)):
            req = pin.copy()
            for Vj, ci in zip(Vs, choice):
                req = np.maximum(req, point_rows[Vj][1][ci])
            val = int(req.min())
            if val > alpha:
                alpha = val
    return alpha


def test_measure_alpha_matches_reference_on_raag_window(raag_window):
    assert measure_alpha(raag_window) == _measure_alpha_reference(raag_window) == 2


@pytest.mark.parametrize("r", range(2, 13))
def test_measure_alpha_matches_reference_on_hagen(r):
    target = fixtures.hagen(r).target
    assert measure_alpha(target) == _measure_alpha_reference(target)


def test_measure_alpha_matches_reference_on_fixture_b():
    m = fixture_b_product()
    assert measure_alpha(m) == _measure_alpha_reference(m)


@settings(max_examples=80, deadline=None)
@given(nested_pairs())
def test_measure_alpha_matches_reference_on_random_pairs(m):
    assert measure_alpha(m) == _measure_alpha_reference(m)


@st.composite
def orthogonal_pairs(draw):
    """V orthogonal to W, T transverse to both, all below S, over a random
    base graph with random set-valued projections and random rho sets: the
    clique {V, W} pins both V's and W's markers, T pins V and W."""
    X = draw(connected_graphs(max_n=12))
    V, W, T, S = "V", "W", "T", "S"
    hyp = {U: draw(connected_graphs(max_n=6)) for U in (V, W, T, S)}

    def subset(U):
        return draw(st.frozensets(st.sampled_from(hyp[U].vertices), min_size=1, max_size=3))
    proj = {U: CoarseMap(X, hyp[U], {x: subset(U) for x in X.vertices}) for U in hyp}
    lat = IndexLattice([V, W, T, S], S, nested_pairs=[(U, S) for U in (V, W, T)],
                       orth_pairs=[(V, W)])
    rho = {(a, b): subset(b) for a, b in [(V, S), (W, S), (T, S), (V, T), (T, V),
                                          (W, T), (T, W)]}
    return HHSModel(X, lat, hyp, proj, rho, name="random-orth")


@settings(max_examples=80, deadline=None)
@given(orthogonal_pairs())
def test_measure_alpha_matches_reference_on_random_orthogonal_pairs(m):
    assert measure_alpha(m) == _measure_alpha_reference(m)


@st.composite
def orthogonal_cliques(draw):
    """Three or four pairwise orthogonal elements V0.., T transverse to
    them and, when drawn, U nested in V0 and so orthogonal to the other
    Vj, all below S, over a random base graph with random set-valued
    projections and rho sets: families of three or four members, each
    member with up to four image points, and marker pins on every
    element."""
    X = draw(connected_graphs(max_n=12))
    vs = ["V%d" % j for j in range(draw(st.integers(3, 4)))]
    below_v0 = ["U"] if draw(st.booleans()) else []
    elems = vs + below_v0 + ["T", "S"]
    hyp = {U: draw(connected_graphs(max_n=4)) for U in elems}

    def subset(U):
        return draw(st.frozensets(st.sampled_from(hyp[U].vertices), min_size=1, max_size=3))
    proj = {U: CoarseMap(X, hyp[U], {x: subset(U) for x in X.vertices}) for U in elems}
    lat = IndexLattice(elems, "S", nested_pairs=[(U, "S") for U in elems[:-1]]
                       + [(U, "V0") for U in below_v0],
                       orth_pairs=list(itertools.combinations(vs, 2))
                       + [(U, V) for U in below_v0 for V in vs[1:]])
    rho = {(a, b): subset(b) for a in elems for b in elems
           if lat.properly_nested(a, b) or lat.transverse(a, b)}
    return HHSModel(X, lat, hyp, proj, rho, name="random-clique")


@settings(max_examples=80, deadline=None)
@given(orthogonal_cliques(), st.integers(1, 64))
def test_measure_alpha_matches_reference_on_random_cliques(m, cells):
    # at the default chunk each family is one chunk here; a chunk of a few
    # cells splits every family, down to one choice per chunk
    assert max(map(len, _orthogonal_families(m.lattice))) >= 3
    want = _measure_alpha_reference(m)
    assert measure_alpha(m) == want
    with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
        assert measure_alpha(HHSModel(m.space, m.lattice, m.hyp, m.proj, m.rho_set)) == want


def test_measure_alpha_reads_the_last_chunk():
    # pi_V(x) = {3x} on a 3-point path X, and V's marker pins x at d(x, 0),
    # so the choice p scores min over x of max(x, |3x - p|): 0, 1 and 2
    # for p = 0, 3, 6, and only the last choice reaches 2; X has three
    # classes, so these budgets give chunks of one to three choices
    X, C = path_graph(3), path_graph(7)
    lat = IndexLattice(["V", "S"], "S", nested_pairs=[("V", "S")])
    m = HHSModel(X, lat, {"V": C, "S": X},
                 {"V": CoarseMap.single(X, C, lambda x: 3 * x), "S": CoarseMap.identity(X)},
                 {("V", "S"): {0}})
    assert _measure_alpha_reference(m) == 2
    for cells in range(1, 10):
        with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
            assert measure_alpha(m) == 2


def _wide_family_model():
    """V and W orthogonal below S, over a 300-vertex path X: pi_V(i) =
    {i mod 100} and pi_W(i) = {i // 3} on two 100-vertex paths, so {V, W}
    has 10^4 choices and every vertex is its own coordinate class."""
    X, C = path_graph(300), path_graph(100)
    hyp = {"V": C, "W": C, "S": X}
    proj = {"V": CoarseMap.single(X, C, lambda i: i % 100),
            "W": CoarseMap.single(X, C, lambda i: i // 3), "S": CoarseMap.identity(X)}
    lat = IndexLattice(list(hyp), "S", nested_pairs=[("V", "S"), ("W", "S")],
                       orth_pairs=[("V", "W")])
    return HHSModel(X, lat, hyp, proj, {("V", "S"): {0}, ("W", "S"): {299}}, name="wide")


def test_measure_alpha_allocates_chunks_not_products():
    # the whole product of {V, W}'s choices over the 300 classes would be
    # 10^4 x 300 int64 cells, 24 MB; a chunk is about 32 k cells
    m = _wide_family_model()
    assert len(m.coordinate_classes(m.elements)[1]) == 300
    assert max(math.prod(len(m.proj[U].image()) for U in f)
               for f in _orthogonal_families(m.lattice)) == 10 ** 4
    assert _traced_peak(measure_alpha, m) < 1.5e6
    assert measure_alpha(m) == _measure_alpha_reference(m)


def test_orthogonal_families_match_brute_force(raag_window):
    lattices = [fixture_b_product().lattice, raag_window.lattice]
    lattices += [fixtures.hagen(r).target.lattice for r in (2, 5, 8)]
    lattices += [random_valid_lattice(seed) for seed in range(40)]
    for lat in lattices:
        assert list(_orthogonal_families(lat)) == list(_orthogonal_families_reference(lat))
    # the raag window has orthogonal pairs, so families of size two are scanned
    assert max(len(f) for f in _orthogonal_families(raag_window.lattice)) >= 2


def test_measure_alpha_budget_is_typed(monkeypatch):
    m = fixture_b_product()
    assert m.lattice.orthogonal(L1, R2)
    # budget 1 trips on the single element L1 (2 choices), budget 3 on the
    # orthogonal pair {L1, R2} (6 choices)
    for budget in (1, 3):
        with pytest.raises(ScanBudgetExceeded) as want:
            _measure_alpha_reference(m, budget=budget)
        monkeypatch.setattr(model_module, "ALPHA_SCAN_BUDGET", budget)
        with pytest.raises(ScanBudgetExceeded) as got:
            measure_alpha(m)
        assert str(got.value) == str(want.value)


def test_dist_to_set_rows_are_computed_once_and_read_only():
    m = fixture_b_product()
    S = sorted(m.hyp[L1].vertices, key=vkey)[:2]
    row = m.dist_to_set_array(L1, S)
    assert m.dist_to_set_array(L1, S) is row
    assert m.dist_to_set_array(L1, frozenset(reversed(S))) is row
    assert np.array_equal(row, m.proj[L1].dset_row(S)[m.proj[L1].sids])
    with pytest.raises(ValueError):
        row[0] = 0


def test_audit_combined_computes_each_marker_row_once(monkeypatch):
    c = fixtures.raag_path(2).combined
    calls = {}
    dset_row = CoarseMap.dset_row

    def counted(self, S):
        key = (self, frozenset(S))
        calls[key] = calls.get(key, 0) + 1
        return dset_row(self, S)
    monkeypatch.setattr(CoarseMap, "dset_row", counted)
    rep = treecombine.audit_combined(c)
    assert rep.entry("partial-realization").constants == {"alpha_pr": 2.0}
    assert len(calls) > 1 and max(calls.values()) == 1
    # every row the audit read from the memo is the row computed afresh
    for (U, S), row in c.model._rows.items():
        assert np.array_equal(row, _dist_row(c.model, U, S))


def test_realize_leaves_the_row_memo_alone():
    # realize takes any tuple, so its rows are not kept per model
    m = grid_product(3, 4)
    for x in m.space.vertices:
        assert realize(m, m.coords_of(x)) == (x, 0)
    assert m._rows == {}


def test_import_loads_numpy_as_its_only_dependency():
    src = os.path.dirname(os.path.dirname(hhspace.__file__))
    code = ("import sys; before = set(sys.modules); import hhspace; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "['hhspace', 'numpy']"


@settings(max_examples=80, deadline=None)
@given(st.one_of(nested_pairs(), orthogonal_pairs()))
def test_audit_unchanged_by_json_round_trip(m):
    back = serialize.model_from_json(json.loads(serialize.dumps(serialize.model_to_json(m))))
    assert serialize.dumps(audit_axioms(back).as_dict()) == \
        serialize.dumps(audit_axioms(m).as_dict())


# -- relative projections on the rho pairs -------------------------------------------


def _validate_structure_reference(m):
    """validate_structure as a loop over ordered pairs of elements, deciding
    each pair by its relation."""
    rep = ValidationReport("model:%s" % m.name)
    lat = m.lattice
    for U in lat.elements:
        if U not in m.hyp:
            rep.add("missing-hyp", (U,))
        if U not in m.proj:
            rep.add("missing-projection", (U,))
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if a == b:
                continue
            r = lat.rel(a, b)
            if r == "trans" and i < j:
                for (p, q) in ((a, b), (b, a)):
                    if (p, q) not in m.rho_set:
                        rep.add("missing-rho-set", (p, q), "transverse pair")
            if r == "nested" and lat.properly_nested(a, b):
                if (a, b) not in m.rho_set:
                    rep.add("missing-rho-set", (a, b), "nested pair")
                if (a, b) not in m.rho_map:
                    rep.add("missing-rho-map", (a, b), "nested pair")
    E = list(lat.elements)

    def position(key):
        return tuple(E.index(e) if e in E else len(E) for e in key)

    def nested(a, b):
        return a in E and b in E and a != b and lat.rel(a, b) == "nested" \
            and lat.properly_nested(a, b)
    for key in sorted(m.rho_set, key=position):
        if not (nested(*key) or (set(key) <= set(E) and lat.rel(*key) == "trans")):
            rep.add("unexpected-rho-set", key, "no relative projection")
    for key in sorted(m.rho_map, key=position):
        if not nested(*key):
            rep.add("unexpected-rho-map", key, "not a properly nested pair")
    for (a, b), S in m.rho_set.items():
        CB = m.hyp.get(b)
        if CB is not None and any(p not in CB for p in S):
            rep.add("rho-set-outside-model", (a, b))
    return rep


@pytest.fixture(scope="module", params=["fixture-b", "raag-path-1"])
def rho_model(request):
    if request.param == "fixture-b":
        return fixture_b_product()
    return fixtures.raag_path(1).combined.model


def _pairs_of(lat, table):
    return {(lat.elements[i], lat.elements[j]) for i, j in np.argwhere(table).tolist()}


def test_rho_data_sits_on_the_rho_pairs(rho_model):
    lat = rho_model.lattice
    assert set(rho_model.rho_set) == _pairs_of(lat, lat.rho)
    assert set(rho_model.rho_map) == _pairs_of(lat, lat.lt)


def test_validate_structure_matches_the_pair_loop(rho_model):
    m, lat = rho_model, rho_model.lattice
    E = lat.elements
    i, j = np.argwhere(lat.lt)[0].tolist()
    nested = (E[i], E[j])
    i, j = np.argwhere(np.triu(lat.rho & ~lat.lt))[0].tolist()
    variants = [(m.rho_set, m.rho_map), ({}, {})]
    for key in (nested, (E[i], E[j]), (E[j], E[i])):
        variants.append(({k: S for k, S in m.rho_set.items() if k != key}, m.rho_map))
    variants.append((m.rho_set, {k: f for k, f in m.rho_map.items() if k != nested}))
    # rho data on pairs without a relative projection, a label outside the
    # lattice among them, each added in reverse position order
    orth = tuple(E[x] for x in np.argwhere(lat.orth)[0].tolist())
    extra = [orth, nested[::-1], (E[0], "zzz"), ("zzz", E[0])]
    S, f = m.rho_set[nested], m.rho_map[nested]
    variants.append(({**m.rho_set, **{k: S for k in reversed(extra)}}, m.rho_map))
    variants.append((m.rho_set, {**m.rho_map, **{k: f for k in reversed(extra + [(E[i], E[j])])}}))
    for rho_set, rho_map in variants:
        v = HHSModel(m.space, lat, m.hyp, m.proj, rho_set, rho_map, name=m.name)
        got, want = v.validate_structure(), _validate_structure_reference(v)
        assert [(x.rule, x.witness, x.detail) for x in got.violations] == \
            [(x.rule, x.witness, x.detail) for x in want.violations]
        assert got.ok == (rho_set is m.rho_set and rho_map is m.rho_map)
