import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhspace.spaces import (CoarseMap, FiniteSpace, coarse_map_constants,
                            cone_off, cycle_graph, four_point_delta,
                            path_graph, product_graph, qi_constants,
                            single_point)


def test_path_metric():
    g = path_graph(0, 4)
    assert g.d(0, 4) == 4
    assert g.diam() == 4
    assert g.interval(1, 3) == (1, 2, 3)


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        FiniteSpace([0, 1, 2], [(0, 1)])


def test_set_distances():
    g = path_graph(0, 6)
    assert g.dset({0, 1}, {5}) == 5
    assert g.gap({0, 1}, {5, 6}) == 4
    assert g.hausdorff({0, 1}, {0, 1, 2}) == 1
    assert g.neighborhood({3}, 1) == frozenset({2, 3, 4})


def test_subspace_keeps_ambient_metric():
    g = path_graph(0, 4)
    s = g.subspace([0, 4])
    assert s.d(0, 4) == 4


def test_delta_tree_is_zero():
    t = FiniteSpace(range(7), [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6)])
    assert four_point_delta(t) == 0.0


def test_delta_single_vertex():
    assert four_point_delta(single_point()) == 0.0


def test_delta_grid_p5_p7():
    # value frozen from the exhaustive four-tuple scan over all 35 vertices
    grid = product_graph(path_graph(0, 4), path_graph(0, 6))
    assert four_point_delta(grid) == 4.0


def test_delta_cycles():
    assert four_point_delta(cycle_graph(8)) == 2.0
    assert four_point_delta(cycle_graph(9)) == 1.5


def test_quasiconvexity_exact():
    grid = product_graph(path_graph(0, 4), path_graph(0, 4))
    row = [(i, 0) for i in range(5)]
    assert grid.qc_constant(row) == 0
    corners = [(0, 0), (4, 4)]
    # every geodesic between opposite corners stays in the interval; the
    # farthest interval point from the two corners is (0,4) or (4,0)
    assert grid.qc_constant(corners) == 4


def test_from_matrix_rejects_non_metrics():
    ok = FiniteSpace.from_matrix([2, 0, 1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert ok.d(2, 1) == 2
    bad = [
        [[0, 1, 5], [2, 0, 1], [5, 1, 0]],      # asymmetric
        [[0, 1, 5], [1, 0, 1], [5, 1, 0]],      # 5 > 1 + 1 through vertex 1
        [[0, 1], [1, 0]],                       # not one row per vertex
        [[1, 1, 2], [1, 0, 1], [2, 1, 0]],      # nonzero diagonal
        [[0, -1, 2], [-1, 0, 1], [2, 1, 0]],    # negative
        [[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]],  # not integer
    ]
    for table in bad:
        with pytest.raises(ValueError):
            FiniteSpace.from_matrix([0, 1, 2], table)


def test_cone_off_diameter():
    g = path_graph(0, 9)
    c = cone_off(g, {"all": g.vertices})
    assert c.diam_set(g.vertices) == 2
    assert ("cone", "all") in c


def test_coarse_map_constants_identity_and_constant():
    g = path_graph(0, 5)
    assert coarse_map_constants(CoarseMap.identity(g)) == (1.0, 0.0)
    const = CoarseMap.constant(g, g, [2])
    assert coarse_map_constants(const) == (0.0, 0.0)


def test_coarse_map_constants_stretch():
    dom = path_graph(0, 3)
    cod = path_graph(0, 9)
    f = CoarseMap.single(dom, cod, lambda v: 3 * v)
    K, C = coarse_map_constants(f)
    assert K == C == 2.25  # worst pair (0, 3): image distance 9 over d+1 = 4


def test_qi_constants_isometry():
    g = path_graph(0, 5)
    assert qi_constants(CoarseMap.identity(g)) == (1.0, 0.0)


def test_quasi_inverse_closest_point():
    dom = path_graph(0, 2)
    cod = path_graph(0, 8)
    f = CoarseMap.single(dom, cod, lambda v: 4 * v)
    inv = f.quasi_inverse()
    assert inv(0) == frozenset([0])
    assert inv(3) == frozenset([1])
    assert inv(8) == frozenset([2])


def _quasi_inverse_reference(f):
    """Each codomain point y goes to the first domain vertex whose image
    comes closest to y, computed afresh on every call."""
    dom, cod = f.domain, f.codomain
    return {y: frozenset([min(dom.vertices, key=lambda x: (
                min(cod.d(a, y) for a in f(x)), dom.index[x]))])
            for y in cod.vertices}


def test_compose():
    a, b, c = path_graph(0, 2), path_graph(0, 4), path_graph(0, 8)
    f = CoarseMap.single(a, b, lambda v: 2 * v)
    g = CoarseMap.single(b, c, lambda v: 2 * v)
    h = f.compose(g)
    assert h(2) == frozenset([8])


@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return FiniteSpace(range(n), sorted(edges))


def _qc_constant_reference(space, A):
    """The pairwise definition: the farthest interval point from A over all
    pairs of points of A."""
    ia = space.idx(list(A))
    if len(ia) <= 1:
        return 0
    to_A = space.dist[:, ia].min(axis=1)
    best = 0
    for p in range(len(ia)):
        row_u = space.dist[ia[p]]
        for q in range(p + 1, len(ia)):
            on = row_u + space.dist[ia[q]] == row_u[ia[q]]
            best = max(best, int(to_A[on].max()))
    return best


@st.composite
def graphs_and_subsets(draw):
    # above 32 vertices one chunk of intervals(all, all) no longer covers
    # every row; qc_constant(A) needs |A| > 28 on 40 vertices for that, so A
    # is a small set or the complement of one
    g = draw(connected_graphs(max_n=40))
    A = draw(st.frozensets(st.sampled_from(g.vertices), max_size=8))
    return g, frozenset(g.vertices) - A if draw(st.booleans()) else A


@settings(max_examples=100, deadline=None)
@given(graphs_and_subsets())
def test_interval_kernel_matches_pairwise(case):
    g, A = case
    assert g.qc_constant(A) == _qc_constant_reference(g, A)
    ends = np.arange(len(g))
    for rows in (ends, g.idx(list(A))):
        seen = 0
        for r0, on in g.intervals(rows, ends):
            assert r0 == seen and on.shape[1:] == (len(g), len(g))
            seen += len(on)
            for i, r in enumerate(rows[r0:r0 + len(on)]):
                for j, v in enumerate(g.vertices):
                    got = tuple(g.vertices[x] for x in on[i, j].nonzero()[0])
                    assert got == g.interval(g.vertices[r], v)
        assert seen == len(rows)


@st.composite
def maps_and_targets(draw):
    dom, cod = draw(connected_graphs()), draw(connected_graphs())
    points = st.sampled_from(cod.vertices)
    images = {v: draw(st.frozensets(points, min_size=1, max_size=3))
              for v in dom.vertices}
    families = [draw(st.lists(st.frozensets(points, min_size=1, max_size=3),
                              min_size=1, max_size=5)) for _ in range(2)]
    return CoarseMap(dom, cod, images), draw(st.frozensets(points, max_size=3)), families


@settings(max_examples=150, deadline=None)
@given(maps_and_targets())
def test_pair_distance_matrix_matches_dset(case):
    f, S, families = case
    dom, cod = f.domain, f.codomain
    fa, fb = (cod.set_family(sets) for sets in families)
    table = cod.dset_table(fa, fb)
    assert table.shape == (len(fa.sets), len(fb.sets))
    for a, A in enumerate(fa.sets):
        for b, B in enumerate(fb.sets):
            assert table[a, b] == cod.dset(A, B)
    T = f.pair_distance_matrix()
    for i, u in enumerate(dom.vertices):
        for j, v in enumerate(dom.vertices):
            assert T[i, j] == cod.dset(f(u), f(v))
    sids, sets, M = f.set_table()
    assert [sets[a] for a in sids] == [f(v) for v in dom.vertices]
    for a, A in enumerate(sets):
        for b, B in enumerate(sets):
            assert M[a, b] == cod.dset(A, B)
    assert list(f.dset_row(S)) == [cod.dset(A, S) for A in sets]
    assert f.dset_points(cod.vertices).tolist() == [
        [cod.dset(A, [p]) for p in cod.vertices] for A in sets]
    if S:
        assert list(f.gap_row(S)) == [cod.gap(A, S) for A in sets]
    assert f.diam_bound == max(cod.diam_set(f(v)) for v in dom.vertices)
    inv = f.quasi_inverse()
    for y in cod.vertices:
        gaps = [cod.gap(f(v), [y]) for v in dom.vertices]
        assert inv(y) == frozenset([dom.vertices[gaps.index(min(gaps))]])


def _coarse_map_constants_reference(m):
    """The n x n form the fiber tables replaced."""
    Dp = m.pair_distance_matrix().astype(np.float64)
    if Dp.max() == 0:
        return (0.0, 0.0)
    D = m.domain.dist.astype(np.float64)
    if (Dp <= D).all():
        return (1.0, 0.0)
    K = float((Dp / (D + 1.0)).max())
    return (K, K)


def _qi_constants_reference(m):
    Dp = m.pair_distance_matrix().astype(np.float64)
    D = m.domain.dist.astype(np.float64)
    if (Dp == D).all():
        return (1.0, 0.0)
    kf = (Dp / (D + 1.0)).max() if Dp.max() > 0 else 0.0
    kr = (D / (Dp + 1.0)).max()
    K = max(1.0, float(kf), float(kr))
    return (K, K)


@settings(max_examples=150, deadline=None)
@given(maps_and_targets())
def test_map_constants_match_pair_matrix_reference(case):
    f = case[0]
    assert coarse_map_constants(f) == _coarse_map_constants_reference(f)
    assert qi_constants(f) == _qi_constants_reference(f)
    sids = f.image_sets().sids
    order, starts = f.fibers()
    assert list(order) == sorted(range(len(sids)), key=lambda i: (sids[i], i))
    assert list(starts) == [int((sids < s).sum()) for s in range(len(f.image_sets().sets))]
    lo, hi = f.fiber_table(np.minimum), f.fiber_table(np.maximum)
    D = f.domain.dist
    for s in range(len(lo)):
        for t in range(len(lo)):
            block = D[np.ix_(sids == s, sids == t)]
            assert (lo[s, t], hi[s, t]) == (block.min(), block.max())


def test_map_constants_match_reference_on_isometries():
    g = product_graph(path_graph(0, 3), cycle_graph(5))
    for f in (CoarseMap.identity(g), CoarseMap.constant(g, g, [(0, 0), (3, 2)]),
              CoarseMap.single(path_graph(0, 4), g, lambda v: (v % 4, v % 5))):
        assert coarse_map_constants(f) == _coarse_map_constants_reference(f)
        assert qi_constants(f) == _qi_constants_reference(f)


def test_relabel_and_dot():
    g = path_graph(0, 2)
    r = g.relabel(lambda v: ("a", v))
    assert r.d(("a", 0), ("a", 2)) == 2
    assert '"0" -- "1"' in g.dot()


@settings(max_examples=100, deadline=None)
@given(maps_and_targets())
def test_quasi_inverse_is_computed_once(case):
    f = case[0]
    inv = f.quasi_inverse()
    assert f.quasi_inverse() is inv
    assert inv.domain is f.codomain and inv.codomain is f.domain
    assert inv.images == _quasi_inverse_reference(f)
