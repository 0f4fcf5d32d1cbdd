"""Distance tables in the narrowest signed integer type (the dtype rule of
the spaces module), checked at the int8 / int16 switch: on spaces of
diameter 62 to 65 every kernel gives what it gives on the same space with
its table in int64."""

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhspace import fixtures, spaces
from hhspace.graphproduct import direct_product_structure
from hhspace.lattice import IndexLattice
from hhspace.model import (HHSModel, _audit_bgi, _theta_table, hq_check, measure_alpha,
                           normalize, trivial_model)
from hhspace.spaces import (CoarseMap, FiniteSpace, coarse_map_constants, cycle_graph,
                            four_point_delta, groups, path_graph, qi_constants, single_point)

DIAMETERS = (62, 63, 64, 65)
KINDS = ("path", "cycle", "table")
CASES = [(d, kind) for d in DIAMETERS for kind in KINDS]


@pytest.mark.parametrize("diam, dtype", [(0, np.int8), (63, np.int8), (64, np.int16),
                                         (16383, np.int16), (16384, np.int32)])
def test_dtype_rule_is_the_narrowest_signed_type_holding_twice_the_diameter(diam, dtype):
    assert spaces.dist_dtype(diam) == dtype
    table = FiniteSpace.from_matrix("ab", [[0, diam], [diam, 0]])
    assert table.dist.dtype == dtype and table.diam() == diam
    assert single_point().dist.dtype == np.int8


def test_raag_window_space_table_is_int8():
    model = fixtures.raag_path(2).combined.model
    assert model.space.diam() == 17 and model.space.dist.dtype == np.int8


def test_subspace_and_relabel_keep_the_table_type_without_a_copy():
    g = path_graph(100)                 # diameter 99: int16
    assert g.dist.dtype == np.int16
    assert FiniteSpace([v + 1 for v in g.vertices], dist=g.dist).dist is g.dist
    # a subspace takes the type of its own diameter
    assert g.subspace(range(64)).dist.dtype == np.int8
    assert g.subspace(range(65)).dist.dtype == np.int16


def _space(d, kind):
    """(graph, space) of diameter d: a path, a cycle, or the table metric a
    cycle of diameter d leaves on all its vertices but two."""
    if kind == "path":
        g = path_graph(d + 1)
    else:
        g = cycle_graph(2 * d + (kind == "table"))
    return g, g if kind != "table" else g.subspace(g.vertices[2:])


def _bgi_model(S):
    """V < W with C_W = S and C_V a path one longer than S's diameter, so
    the two tables may differ in type; rho set one point of S, downward map
    the point i of S to the point min(i, d + 1) of C_V and its neighbour."""
    CV = path_graph(S.diam() + 2)
    top = len(CV) - 1
    down = CoarseMap.from_ids(S, CV, None, [(min(i, top), min(i + 1, top))
                                            for i in range(len(S))])
    lat = IndexLattice(["V", "W"], "W", nested_pairs=[("V", "W")])
    proj = {"W": CoarseMap.identity(S), "V": CoarseMap.constant(S, CV, [0])}
    return HHSModel(S, lat, {"V": CV, "W": S}, proj, {("V", "W"): {S.vertices[0]}},
                    {("V", "W"): down}, name="bgi")


def _int64_tables():
    """Inside it, every space stores its table in int64."""
    return mock.patch.object(spaces, "dist_dtype", lambda diam: np.dtype(np.int64))


@functools.lru_cache(maxsize=None)
def _build(d, kind, wide):
    """The space, its product model with a two-point path (normalized, so
    with table-backed hyperbolic models, for the table kind) and its BGI
    model; with wide, every table built is int64."""
    with _int64_tables() if wide else contextlib.nullcontext():
        g, S = _space(d, kind)
        product = direct_product_structure(trivial_model(g, "S1"),
                                           trivial_model(path_graph(2), "S2"))
        if kind == "table":
            product = normalize(product)
        return S, product, _bgi_model(S)


def _both(d, kind):
    narrow, wide = _build(d, kind, False), _build(d, kind, True)
    assert narrow[0].dist.dtype == (np.int8 if d <= 63 else np.int16)
    assert wide[0].dist.dtype == np.int64
    return narrow, wide


def _retraction(S, A):
    """The map of S to itself sending each point to its nearest point of A."""
    return CoarseMap.from_ids(S, S, S.nearest(A), [(v,) for v in S.vertices])


@pytest.mark.parametrize("d, kind", CASES)
def test_whole_space_kernels_match_int64(d, kind):
    (S, product, bgi), (S64, product64, bgi64) = _both(d, kind)
    assert [x.tolist() for x in S.steps()] == [x.tolist() for x in S64.steps()]
    assert four_point_delta(S) == four_point_delta(S64)
    # one interval pass with a distance column and a bit column
    rho = S.idx(S.vertices[:3])

    def scan(space):
        to_rho = space.dist[:, rho].min(axis=1)
        bits = np.left_shift(1, np.arange(len(space)) % 64).astype(np.uint64)[:, None]
        return [(r0, [o.tolist() for o in outs]) for r0, outs in space.interval_reduce(
            np.arange(len(space)), [(to_rho, np.minimum), (bits, np.bitwise_or)])]
    assert scan(S) == scan(S64)
    for a, b in ((product, product64), (bgi, bgi64)):
        assert _audit_bgi(a) == _audit_bgi(b)
        assert measure_alpha(a) == measure_alpha(b)
        assert _theta_table(a) == _theta_table(b)
        for U in a.elements:
            assert coarse_map_constants(a.proj[U]) == coarse_map_constants(b.proj[U])
            assert qi_constants(a.proj[U]) == qi_constants(b.proj[U])
    # the BGI pass reaches the middle of the space
    assert _audit_bgi(bgi)[0] >= d // 2 - 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.randoms(use_true_random=False))
def test_set_kernels_match_int64(case, rng):
    (S, product, _), (S64, product64, _) = _both(*case)
    n = len(S)

    def subset(k):
        return rng.sample(S.vertices, rng.randint(1, k))
    A = subset(6)
    assert S.qc_constant(A) == S64.qc_constant(A)
    assert S.nearest(A).tolist() == S64.nearest(A).tolist()
    u, v = rng.sample(S.vertices, 2)
    assert S.interval(u, v) == S64.interval(u, v)
    sets = [subset(4) for _ in range(rng.randint(1, 6))]
    fam, fam64 = S.set_family(sets), S64.set_family(sets)
    assert fam.diams.dtype == S.dist.dtype
    assert [x.tolist() for x in fam[1:]] == [x.tolist() for x in fam64[1:]]
    table = S.dset_table(fam, fam)
    assert table.dtype == S.dist.dtype and table.tolist() == S64.dset_table(fam64, fam64).tolist()
    ids = np.array([rng.randrange(3) for _ in range(n - 3)] + [0, 1, 2])
    for reduce in (np.minimum, np.maximum):
        assert (S.block_table(*groups(ids, 3), reduce).tolist()
                == S64.block_table(*groups(ids, 3), reduce).tolist())
    m, m64 = _retraction(S, A), _retraction(S64, A)
    assert coarse_map_constants(m) == coarse_map_constants(m64)
    assert qi_constants(m) == qi_constants(m64)
    sub = rng.sample(product.space.vertices, rng.randint(1, 8))
    assert hq_check(product, sub) == hq_check(product64, sub)


def _two_type_model():
    """A < B over the path X of diameter 130 (int16): C_A a three-point
    path (int8), which comes first in element order, and C_B = X, whose
    class table holds distances up to 130."""
    X, CA = path_graph(131), path_graph(3)
    lat = IndexLattice(["A", "B"], "B", nested_pairs=[("A", "B")])
    proj = {"A": CoarseMap.single(X, CA, lambda x: min(x, 2)), "B": CoarseMap.identity(X)}
    return HHSModel(X, lat, {"A": CA, "B": X}, proj, {("A", "B"): {0}},
                    {("A", "B"): CoarseMap.constant(X, CA, [0])})


def test_theta_table_takes_class_tables_of_two_types():
    # the running maximum over the elements' class tables must not be
    # written back into the int8 table of A, where 130 would wrap to -126
    m = _two_type_model()
    with _int64_tables():
        m64 = _two_type_model()
    assert [m.hyp[U].dist.dtype for U in m.elements] == [np.int8, np.int16]
    assert _theta_table(m) == _theta_table(m64)
    assert max(_theta_table(m)) == 131
