"""Pair scans over coordinate classes against the n x n scans they replaced.

The references below fill one n x n table per element through
HHSModel.pair_matrix, as the auditor did before it scanned classes of
vertices with equal image-set ids. Values and witnesses must agree.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhspace
from hhspace import cli, fixtures, serialize
from hhspace.lattice import IndexLattice
from hhspace.embedding import clipped_sum_compare
from hhspace.model import (HHSModel, _audit_large_links, _clipped_class_sum, _innermost_big,
                           _theta_table, distance_formula_fit)
from hhspace.spaces import CoarseMap, cycle_graph, path_graph, single_point, vkey
from hhspace.treecombine import THAT, _support_large_links, audit_combined
from test_model import nested_pairs, orthogonal_pairs
from test_spaces import connected_graphs


def _max_pair_matrix_reference(model):
    out = None
    for U in model.elements:
        T = model.pair_matrix(U)
        out = T.copy() if out is None else np.maximum(out, T, out=out)
    return out


def _realization_defect_reference(model):
    return int(_max_pair_matrix_reference(model).min(axis=0).max())


def _theta_table_reference(model):
    m = _max_pair_matrix_reference(model)
    D = model.space.dist
    table = {}
    for kappa in range(0, int(m.max()) + 2):
        small = m < kappa
        table[kappa] = int(D[small].max()) + 1 if small.any() else 0
    return table


def _audit_large_links_reference(model, E):
    lat = model.lattice
    lam, witness = 1.0, None
    n = len(model.space)
    for W in lat.elements:
        nested = [T for T in lat.below(W) if T != W]
        if not nested:
            continue
        dW = model.pair_matrix(W).astype(np.float64)
        fam = np.zeros((n, n), dtype=np.int64)
        rho_req = np.zeros((n, n), dtype=np.int64)
        for T, mask in _innermost_big(lat, nested, lambda T: model.pair_matrix(T) >= E):
            fam += mask
            arr = model.dist_to_set_array(W, model.rho_set[(T, W)])
            np.maximum(rho_req, np.where(mask, arr[:, None], 0), out=rho_req)
        need = np.maximum(fam, rho_req).astype(np.float64) / (dW + 1.0)
        m = float(need.max())
        if m > lam:
            i, j = np.unravel_index(int(need.argmax()), need.shape)
            lam = m
            witness = (W, model.space.vertices[i], model.space.vertices[j])
    return lam, witness


def _support_large_links_reference(c, threshold):
    lat = c.model.lattice
    sup_ids = sorted(c.supports, key=vkey)
    bad = []
    n = len(c.model.space)
    for S in sup_ids + [THAT]:
        nested = [X for X in sup_ids if X != S and lat.properly_nested(X, S)]
        dS = c.model.pair_matrix(S)
        if not nested:
            continue
        count = np.zeros((n, n), dtype=np.int64)
        for _, mask in _innermost_big(lat, nested,
                                      lambda X: c.model.pair_matrix(X) > threshold):
            count += mask
        viol = count > dS
        if viol.any():
            i, j = np.unravel_index(int(viol.argmax()), viol.shape)
            bad.append((S, c.model.space.vertices[i], c.model.space.vertices[j],
                        int(count[i, j]), int(dS[i, j])))
    return bad


def _assert_model_scans_match(m, energies=(1, 2, 3)):
    for E in energies:
        assert _audit_large_links(m, E) == _audit_large_links_reference(m, E)
    assert _theta_table(m) == _theta_table_reference(m)
    assert m.realization_defect() == _realization_defect_reference(m)


@pytest.fixture(scope="module")
def windows():
    return {"raag": fixtures.raag_path(2).combined,
            "z2z3": fixtures.free_product_z2_z3(2).combined}


def test_pair_scans_match_reference_on_small_fixtures():
    models = [fixtures.fixture_b_product(), fixtures.grid_product()]
    for r in (1, 3):
        e = fixtures.factor_inclusion(r)
        models += [e.source, e.target]
    for m in models:
        _assert_model_scans_match(m)
    # the factor inclusion's product has lambda = 2 with a witness, which
    # moves with E
    target = fixtures.factor_inclusion(3).target
    assert [_audit_large_links(target, E)[1][1:] for E in (1, 2, 3)] == \
        [((-3, -3), (-2, -2)), ((-3, -3), (-1, -1)), ((-3, -3), (0, 0))]


@pytest.mark.parametrize("r", range(2, 9))
def test_pair_scans_match_reference_on_hagen(r):
    _assert_model_scans_match(fixtures.hagen(r).target)


@pytest.mark.parametrize("name", ["raag", "z2z3"])
def test_pair_scans_match_reference_on_windows(windows, name):
    c = windows[name]
    _assert_model_scans_match(c.model)
    for threshold in range(5):
        assert _support_large_links(c, threshold) == \
            _support_large_links_reference(c, threshold)


def test_raag_window_classes_are_coarser_than_vertices(windows):
    m = windows["raag"].model
    ids, reps = m.coordinate_classes(m.elements)
    assert len(reps) == 282 and len(m.space) == 638
    # classes are numbered by first vertex, and every vertex of a class has
    # the same image-set ids as its first vertex
    assert (reps == np.sort(reps)).all() and (ids[reps] == np.arange(len(reps))).all()
    for U in m.elements:
        sids = m.proj[U].image_sets().sids
        assert (sids == sids[reps][ids]).all()
    assert _audit_large_links(m, 3)[0] == 2.0
    assert _theta_table(m)[1] == 9 and m.realization_defect() == 2


@settings(max_examples=80, deadline=None)
@given(st.one_of(nested_pairs(), orthogonal_pairs()))
def test_pair_scans_match_reference_on_random_models(m):
    _assert_model_scans_match(m, energies=(0, 1, 2, 3))


def _overlapping_supports():
    """Three transverse supports T0, T1, T2, each a path model of diameter
    7, all nested in T3, whose model has diameter 1: every pair far apart in
    all three is close in T3, so the count exceeds d_T3 at thresholds 0..4.
    The projections to the paths follow three different orders of the base
    vertices, so the first violating pair is not the first vertex pair."""
    X = path_graph(8)
    sups = [("T", k) for k in range(4)]
    orders = [[3, 0, 6, 1, 7, 2, 5, 4], [5, 2, 0, 7, 3, 6, 1, 4], list(range(8))]
    hyp, proj = {}, {}
    for T, order in zip(sups, orders):
        hyp[T] = path_graph(8)
        proj[T] = CoarseMap.single(X, hyp[T], lambda x, o=order: o[x])
    hyp[sups[3]] = cycle_graph(3)
    proj[sups[3]] = CoarseMap.single(X, hyp[sups[3]], lambda x: x % 3)
    hyp[THAT] = single_point()
    proj[THAT] = CoarseMap.constant(X, hyp[THAT], ["*"])
    lat = IndexLattice(sups + [THAT], THAT,
                       [(T, sups[3]) for T in sups[:3]] + [(T, THAT) for T in sups])
    model = HHSModel(X, lat, hyp, proj, name="overlapping-supports")
    return SimpleNamespace(model=model, supports={T: None for T in sups})


def test_support_count_violations_match_reference():
    c = _overlapping_supports()
    for threshold in range(5):
        bad = _support_large_links(c, threshold)
        assert bad and bad == _support_large_links_reference(c, threshold)
    # x = 0 and y = 1 are 3, 3 and 1 apart in T0, T1, T2: at threshold 2 only
    # T0 and T1 count, and 2 > d_T3 = 1
    assert _support_large_links(c, 2)[0] == (("T", 3), 0, 1, 2, 1)


@st.composite
def support_families(draw):
    """Four support elements over a random base graph, with random nesting
    among them (transverse otherwise) under THAT, random models and random
    set-valued projections."""
    X = draw(connected_graphs(max_n=12))
    sups = [("T", k) for k in range(4)]
    nested = [(T, THAT) for T in sups]
    nested += [(a, b) for i, a in enumerate(sups) for b in sups[i + 1:] if draw(st.booleans())]
    hyp, proj = {}, {}
    for U in sups + [THAT]:
        hyp[U] = draw(connected_graphs(max_n=8))
        proj[U] = CoarseMap(X, hyp[U], {x: draw(st.frozensets(
            st.sampled_from(hyp[U].vertices), min_size=1, max_size=2)) for x in X.vertices})
    lat = IndexLattice(sups + [THAT], THAT, nested)
    return SimpleNamespace(model=HHSModel(X, lat, hyp, proj, name="random-supports"),
                           supports={T: None for T in sups})


@settings(max_examples=80, deadline=None)
@given(support_families())
def test_support_count_matches_reference_on_random_supports(c):
    for threshold in range(5):
        assert _support_large_links(c, threshold) == \
            _support_large_links_reference(c, threshold)


def test_raag_window_build_and_audit_fill_no_pair_matrix(monkeypatch):
    filled = []

    def pair_matrix(self, U):
        filled.append((self.name, U))
        raise AssertionError("pair_matrix filled")
    monkeypatch.setattr(HHSModel, "pair_matrix", pair_matrix)
    res = fixtures.raag_path(2)
    assert res.cert.ok and audit_combined(res.combined).ok
    assert filled == []


@pytest.mark.parametrize("name", ["grid_product(5, 7)", "raag_path(1)"])
def test_clipped_class_sums_match_pair_matrix_sums(name):
    m = {"grid_product(5, 7)": lambda: fixtures.grid_product(5, 7),
         "raag_path(1)": lambda: fixtures.raag_path(1).combined.model}[name]()
    for s in (1, 2, 3):
        ids, total = _clipped_class_sum(m, m.elements, s)
        ref = sum(np.where(m.pair_matrix(U) >= s, m.pair_matrix(U), 0) for U in m.elements)
        assert np.array_equal(total[ids[:, None], ids], ref)


def test_distance_formula_and_clipped_sums_fill_no_pair_matrix(monkeypatch, tmp_path):
    def pair_matrix(self, U):
        raise AssertionError("pair_matrix filled")
    monkeypatch.setattr(HHSModel, "pair_matrix", pair_matrix)
    assert distance_formula_fit(fixtures.raag_path(1).combined.model, 1).K >= 1
    assert clipped_sum_compare(fixtures.hagen(3), 1, 1)["forward"][0] >= 1
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(fixtures.grid_product(3, 4))))
    assert cli.main(["distance-formula", str(path), "--s", "2"]) == 0


def test_raag_path_3_audit_peak_rss_under_200_mb():
    # 377 MB while every element kept an n x n pair table (|X| = 1238)
    src = os.path.dirname(os.path.dirname(hhspace.__file__))
    # the child's own peak: VmHWM restarts at exec, while ru_maxrss of a
    # child started by subprocess keeps the peak of the process that forked it
    code = ("from hhspace import fixtures\n"
            "from hhspace.treecombine import audit_combined\n"
            "res = fixtures.raag_path(3)\n"
            "ok = audit_combined(res.combined).ok\n"
            "with open('/proc/self/status') as f:\n"
            "    hwm = next(l for l in f if l.startswith('VmHWM'))\n"
            "print(len(res.combined.model.space), ok, int(hwm.split()[1]) // 1024)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    n, ok, rss_mb = out.stdout.split()
    assert n == "1238" and ok == "True"
    assert int(rss_mb) < 200
