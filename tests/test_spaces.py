import ast
import functools
import pathlib
import tracemalloc
from collections import deque, namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hhspace import model, serialize, spaces
from hhspace.fixtures import hagen_target, raag_path
from hhspace.spaces import (CoarseMap, FiniteSpace, _bfs_all_pairs,
                            coarse_map_constants, cone_off, cycle_graph, dist_dtype,
                            four_point_delta, path_graph, product_graph,
                            qi_constants, single_point, sort_key, vkey)
from hhspace.treecombine import audit_combined


def test_path_metric():
    g = path_graph(0, 4)
    assert g.d(0, 4) == 4
    assert g.diam() == 4
    assert g.interval(1, 3) == (1, 2, 3)


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        FiniteSpace([0, 1, 2], [(0, 1)])


def test_repeated_graph_vertex_rejected():
    # as the table constructor does, not merged into one point
    with pytest.raises(ValueError, match="repeated vertex 0"):
        FiniteSpace([0, 0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="repeated vertex 0"):
        serialize.space_from_json({"vertices": [0, 0, 1], "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="not both"):
        FiniteSpace([0, 1], [(0, 1)], dist=[[0, 1], [1, 0]])


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


def test_subspace_and_cone_off_do_not_depend_on_input_order():
    g = cycle_graph(8)
    s = g.subspace([6, 1, 4, 1, 7])
    assert s.vertices == (1, 4, 6, 7)
    ii = g.idx(list(s.vertices))
    assert (s.dist == g.dist[np.ix_(ii, ii)]).all()
    a = cone_off(g, {"x": [5, 0, 2], "w": [3, 1]})
    b = cone_off(g, {"w": [1, 3], "x": [2, 0, 5]})
    assert (a.vertices, a.edges) == (b.vertices, b.edges)
    assert (a.dist == b.dist).all()


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


def test_from_matrix_rejects_entries_of_two_to_the_62():
    # 2**62 + 2**62 wraps in int64, so the triangle test cannot take such a
    # table: it is rejected before that test, with its own message
    for top in (2 ** 62, 2 ** 63 - 1, 2 ** 64 - 1):
        for rows in ([[0, top], [top, 0]], [[0, top, top], [top, 0, top], [top, top, 0]],
                     [[0, top, 1], [top, 0, top], [1, top, 0]]):
            # uint64 holds every top; a list holding 2**64 - 1 is no integer array
            for table in [np.array(rows, dtype=np.uint64)] + [rows] * (top < 2 ** 63):
                with pytest.raises(ValueError, match="entry %d is not below 2\\*\\*62" % top):
                    FiniteSpace.from_matrix("abc"[:len(rows)], table)
    # 2**62 - 1 is the largest entry that loads, and the metric with every
    # distance 2**61 loads; sums of such entries are exact in int64
    top = 2 ** 62 - 1
    big = FiniteSpace.from_matrix("ab", [[0, top], [top, 0]])
    assert big.dist.dtype == np.int64 and big.d("a", "b") == top
    third = 2 ** 61
    big = FiniteSpace.from_matrix("abc", np.full((3, 3), third) - third * np.eye(3, dtype=int))
    assert big.diam() == third and big.dist.dtype == np.int64
    with pytest.raises(ValueError, match="triangle inequality through vertex 'b'"):
        FiniteSpace.from_matrix("abc", [[0, 1, top], [1, 0, 1], [top, 1, 0]])


def test_from_matrix_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="repeated vertex 'a'"):
        FiniteSpace.from_matrix(["a", "b", "a"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_distance_table_rows_follow_the_given_vertex_order():
    D = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    for space in (FiniteSpace(["b", "a", "c"], dist=D),
                  FiniteSpace.from_matrix(["b", "a", "c"], D)):
        assert space.vertices == ("a", "b", "c")
        assert (space.d("a", "c"), space.d("b", "a"), space.d("b", "c")) == (3, 1, 2)
    with pytest.raises(ValueError, match="repeated vertex 'a'"):
        FiniteSpace(["a", "b", "a"], dist=D)
    # relabelling that reverses the order keeps every distance
    g = path_graph(0, 4)
    r = FiniteSpace([-v for v in g.vertices], dist=g.dist)
    assert r.vertices == (-4, -3, -2, -1, 0)
    assert all(r.d(-u, -v) == g.d(u, v) for u in g.vertices for v in g.vertices)
    with pytest.raises(ValueError, match="repeated vertex"):
        FiniteSpace([v // 2 for v in g.vertices], dist=g.dist)


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
    # A is a small set, with many levels above it, or the complement of one,
    # with many rows of A and few points at each level
    g = draw(connected_graphs(max_n=40))
    A = draw(st.frozensets(st.sampled_from(g.vertices), max_size=8))
    return g, frozenset(g.vertices) - A if draw(st.booleans()) else A


@settings(max_examples=100, deadline=None)
@given(graphs_and_subsets())
def test_interval_kernel_matches_pairwise(case):
    g, A = case
    assert g.qc_constant(A) == _qc_constant_reference(g, A)


@st.composite
def metric_spaces(draw, max_n=30):
    """A graph metric, or the table metric a vertex subset of a graph
    inherits, whose step pairs may lie more than 1 apart."""
    g = draw(connected_graphs(max_n=max_n))
    if draw(st.booleans()):
        return g.subspace(draw(st.frozensets(st.sampled_from(g.vertices), min_size=1)))
    return g


def _assert_qc_constant_matches(g, A):
    """qc_constant equals the reference at the default budget and at budgets
    of |A|, 2 |A| and |A| (n - |A|) cells: one or two rows of A and one or
    two points off A per chunk, or one row of A and all the points."""
    want = _qc_constant_reference(g, A)
    k = len(A)
    for cells in (spaces._CHUNK_CELLS, k, 2 * k, k * (len(g) - k)):
        with mock.patch.object(spaces, "_CHUNK_CELLS", max(1, cells)):
            assert g.qc_constant(A) == want


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs_and_subsets(),
                 metric_spaces().flatmap(lambda g: st.tuples(
                     st.just(g), st.frozensets(st.sampled_from(g.vertices))))))
def test_qc_constant_matches_pairwise_in_small_chunks(case):
    _assert_qc_constant_matches(*case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs_and_subsets(),
                 metric_spaces().flatmap(lambda g: st.tuples(
                     st.just(g), st.frozensets(st.sampled_from(g.vertices))))))
def test_dist_to_is_the_least_column_of_the_set(case):
    # at the default budget and at one row of S per chunk
    g, S = case
    with pytest.raises(ValueError):
        g.dist_to(frozenset())
    if not S:
        return
    want = g.dist[:, g.idx(list(S))].min(axis=1)
    for cells in (spaces._CHUNK_CELLS, 1):
        with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
            got = g.dist_to(S)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("g, A, want", [
    # convex: the segment 0..9 of a path has levels 1..20, each scanned in vain
    (path_graph(30), range(10), 0),
    # a row of a grid is convex too, with a whole row of points at each level
    (product_graph(path_graph(6), path_graph(5)), [(2, y) for y in range(5)], 0),
    # levels 18 down to 2 hold no interval point; at level 1 only 1 does
    (path_graph(21), [0, 2], 1),
    # the first row of A, 0, meets level 2 (17 and 18, between 15 and 0);
    # only the third, 5, meets the top level 3 (11 and 12, between 5 and 15)
    (cycle_graph(20), [0, 2, 5, 8, 15], 3),
    # |A| = n and |A| = 1: no positive level, and no pair
    (cycle_graph(9), range(9), 0),
    (path_graph(9), [4], 0),
])
def test_qc_constant_pinned_cases(g, A, want):
    assert g.qc_constant(A) == want
    _assert_qc_constant_matches(g, frozenset(A))


def _steps_reference(space):
    """The definition: the ordered pairs (c, b) at positive distance with no
    third vertex x on a geodesic between them, sorted by b and then by c."""
    n, D = len(space), space.dist
    return [(c, b) for b in range(n) for c in range(n)
            if D[c, b] > 0 and not any(D[c, x] + D[x, b] == D[c, b]
                                       for x in range(n) if x not in (c, b))]


def _interval_reduce_reference(space, rows, values, reduce):
    """One FiniteSpace.interval per (row, vertex) pair and a Python reduce."""
    out = np.empty((len(rows), len(space)) + values.shape[1:], dtype=values.dtype)
    for i, r in enumerate(rows):
        for b, v in enumerate(space.vertices):
            on = space.idx(space.interval(space.vertices[r], v))
            out[i, b] = functools.reduce(reduce, values[on])
    return out


def _assert_interval_reduce_matches(g, rows, columns):
    """Every budget: the default and one cell, which leaves one row per
    chunk and splits the step scan into one middle vertex per chunk."""
    refs = [_interval_reduce_reference(g, rows, v, reduce) for v, reduce in columns]
    for cells in (spaces._CHUNK_CELLS, 1):
        fresh = FiniteSpace(g.vertices, dist=g.dist)
        with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
            assert list(zip(*fresh.steps())) == _steps_reference(g)
            seen = 0
            for r0, outs in fresh.interval_reduce(rows, columns):
                assert r0 == seen
                for out, ref, (values, _) in zip(outs, refs, columns):
                    part = ref[r0:r0 + len(out)]
                    assert out.dtype == values.dtype and out.shape == part.shape
                    assert (out == part).all()
                seen += len(outs[0])
            assert seen == len(rows)


@settings(max_examples=100, deadline=None)
@given(metric_spaces(), st.data())
def test_interval_reduce_matches_intervals(g, data):
    n = len(g)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    small = st.integers(0, 60)

    def table(elements, dtype, *shape):
        cells = int(np.prod((n,) + shape))
        drawn = data.draw(st.lists(elements, min_size=cells, max_size=cells))
        return np.array(drawn, dtype=dtype).reshape((n,) + shape)
    bits = st.integers(0, (1 << 64) - 1)
    columns = [(table(small, np.int64), np.minimum),
               (table(small, np.int64, 3), np.minimum),
               (table(small, np.int64), np.maximum),
               (table(small, np.int64, 2), np.maximum),
               (table(bits, np.uint64), np.bitwise_or),
               (table(bits, np.uint64, 2), np.bitwise_or)]
    _assert_interval_reduce_matches(g, rows, columns)
    if g.edges is not None:
        assert sorted(zip(*g.steps())) == sorted(g.edges + tuple((b, c) for c, b in g.edges))


def _assert_steps_match_table(g):
    """A graph reads its steps as the pairs at distance 1; the same metric
    held as a table finds them by the scan, in the same order."""
    table = FiniteSpace(g.vertices, dist=g.dist)
    assert g.edges is not None and table.edges is None
    for got, want in zip(g.steps(), table.steps()):
        assert np.array_equal(got, want) and got.dtype == want.dtype


@pytest.mark.parametrize("g", [
    path_graph(12), cycle_graph(9), cycle_graph(10), product_graph(path_graph(4), cycle_graph(5)),
    hagen_target(6).hyp["M"]], ids=["path", "odd-cycle", "even-cycle", "grid", "hagen-M"])
def test_steps_of_a_graph_equal_the_steps_of_its_table(g):
    _assert_steps_match_table(g)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=30))
def test_steps_of_a_random_graph_equal_the_steps_of_its_table(g):
    _assert_steps_match_table(g)


def test_steps_of_a_table_metric_skip_vertices_left_out():
    # 0, 3, 4, 9 of a path: steps 3, 1 and 5 long, and only 3 - 4 is 1 long
    g = path_graph(10).subspace([0, 3, 4, 9])
    assert list(zip(*g.steps())) == [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)]
    # a table may have steps and no pair at distance 1
    assert list(zip(*FiniteSpace([0, 1], dist=[[0, 3], [3, 0]]).steps())) == [(1, 0), (0, 1)]
    ends = np.arange(4)
    one_hot = np.left_shift(1, ends).astype(np.uint64)
    _assert_interval_reduce_matches(g, ends, [(one_hot, np.bitwise_or),
                                              (g.dist[:, :1], np.maximum)])
    (_, (seen,)), = g.interval_reduce(ends, [(one_hot, np.bitwise_or)])
    assert seen[0].tolist() == [1, 3, 7, 15]


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


Certified = namedtuple("Certified", "map lipschitz isometric")


def _neighbours(space, v):
    """v and the points of space at distance 1 from it."""
    return [space.vertices[j] for j in np.flatnonzero(space.dist[space.index[v]] <= 1)]


def _geodesic(space, a, b):
    """A geodesic of space from a to b, as a list of labels."""
    out = [a]
    while out[-1] != b:
        out.append(next(x for x in _neighbours(space, out[-1])
                        if space.d(x, b) == space.d(out[-1], b) - 1))
    return out


@st.composite
def certified_maps(draw):
    """A point map that certifies by construction, 1-lipschitz or an
    isometric embedding, on a graph domain or on a subspace of one (a
    metric table), or one of its mutants, which the flags do not count as
    certified: one edge (a pair at distance 1) stretched to two or more,
    collapsed to a point, or one image widened to a set."""
    cod = draw(connected_graphs())
    kind = draw(st.sampled_from(["bfs-parent", "tree", "geodesic", "identity", "product"]))
    if kind == "bfs-parent":
        # each vertex goes to its BFS parent's image or a neighbour of it:
        # the point of a lazy walk at its depth
        dom = draw(connected_graphs())
        root = draw(st.sampled_from(dom.vertices))
        walk = [draw(st.sampled_from(cod.vertices))]
        while len(walk) <= dom.diam():
            walk.append(draw(st.sampled_from(_neighbours(cod, walk[-1]))))
        images = {v: walk[dom.d(root, v)] for v in dom.vertices}
    elif kind == "tree":
        n = draw(st.integers(1, 7))
        parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
        dom = FiniteSpace(range(n), [(parent[i], i) for i in range(1, n)])
        images = {0: draw(st.sampled_from(cod.vertices))}
        for i in range(1, n):
            images[i] = draw(st.sampled_from(_neighbours(cod, images[parent[i]])))
    elif kind == "geodesic":
        line = _geodesic(cod, draw(st.sampled_from(cod.vertices)),
                         draw(st.sampled_from(cod.vertices)))
        dom = path_graph(len(line))
        images = dict(enumerate(line))
    elif kind == "identity":
        dom = cod
        images = {v: v for v in cod.vertices}
    else:
        dom = cod
        cod = product_graph(dom, path_graph(draw(st.integers(1, 3))))
        level = draw(st.sampled_from(cod.vertices))[1]
        images = {v: (v, level) for v in dom.vertices}
    isometric = kind in ("geodesic", "identity", "product")
    if draw(st.booleans()):
        dom = dom.subspace(draw(st.lists(st.sampled_from(dom.vertices), min_size=1)))
    images = {v: images[v] for v in dom.vertices}
    close = [(u, v) for u in dom.vertices for v in dom.vertices if dom.d(u, v) == 1]
    mutant = draw(st.sampled_from([None, "stretch", "collapse", "widen"])) if close else None
    if mutant:
        x, y = draw(st.sampled_from(close))
        far = [z for z in cod.vertices if cod.d(images[x], z) >= 2]
        if mutant == "stretch" and far:
            images[y] = draw(st.sampled_from(far))
        elif mutant == "collapse":
            images[y] = images[x]
        elif mutant == "widen" and len(cod) > 1:
            wider = [z for z in _neighbours(cod, images[y]) if z != images[y]]
            images[y] = frozenset([images[y], draw(st.sampled_from(wider))])
        else:
            mutant = None
    f = CoarseMap(dom, cod, {v: A if isinstance(A, frozenset) else frozenset([A])
                             for v, A in images.items()})
    return Certified(f, mutant is None, isometric and mutant is None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(maps_and_targets().map(lambda case: case[0]),
                 certified_maps().map(lambda case: case.map)))
def test_map_constants_match_pair_matrix_reference(f):
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


@settings(max_examples=200, deadline=None)
@given(certified_maps())
def test_certified_maps_measure_one_zero_without_fiber_tables(case):
    # the certificates read no fiber table: a 1-lipschitz point map with two
    # or more images on a graph domain, and an isometric embedding on any
    # domain, in row chunks of every size down to one row
    f = case.map
    graph = f.domain.edges is not None and len(f.sets) > 1
    with mock.patch.object(CoarseMap, "fiber_table", side_effect=AssertionError):
        if case.lipschitz and graph:
            assert coarse_map_constants(f) == (1.0, 0.0)
        for cells in (spaces._CHUNK_CELLS, 1):
            with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
                if case.isometric:
                    assert qi_constants(f) == (1.0, 0.0)


def test_combined_audit_reads_fiber_tables_only_off_one_zero():
    # the projections of the combined model of raag_path(1) live on the
    # graph X: the audit's coarse_map_constants reads the fiber tables only
    # of those that do not measure (1, 0)
    c = raag_path(1).combined
    read, measured = [], []
    fiber_table = CoarseMap.fiber_table

    def spy(m, reduce):
        read.append(m)
        return fiber_table(m, reduce)

    def measure(m):
        measured.append(coarse_map_constants(m))
        return measured[-1]
    with mock.patch.object(CoarseMap, "fiber_table", spy), \
            mock.patch.object(model, "coarse_map_constants", measure):
        assert audit_combined(c).ok
    assert (1.0, 0.0) in measured and read
    assert all(coarse_map_constants(m) != (1.0, 0.0) for m in read)


def test_map_constants_match_reference_on_isometries():
    g = product_graph(path_graph(0, 3), cycle_graph(5))
    with mock.patch.object(CoarseMap, "fiber_table", side_effect=AssertionError):
        assert coarse_map_constants(CoarseMap.identity(g)) == (1.0, 0.0)
        assert qi_constants(CoarseMap.identity(g)) == (1.0, 0.0)
    # and one-edge mutants of the isometry of a path: its first or its last
    # edge stretched to 2 or collapsed, or one image widened to a set
    line, longer = path_graph(0, 6), path_graph(0, 8)
    mutants = [CoarseMap.single(line, longer, fn) for fn in (
        lambda v: v + (v > 0), lambda v: v + (v == 6),
        lambda v: max(v, 1), lambda v: min(v, 5))]
    mutants.append(CoarseMap(line, longer, {v: {v, v + 1} if v == 3 else {v}
                                            for v in line.vertices}))
    for f in [CoarseMap.identity(g), CoarseMap.constant(g, g, [(0, 0), (3, 2)]),
              CoarseMap.single(path_graph(0, 4), g, lambda v: (v % 4, v % 5))] + mutants:
        assert coarse_map_constants(f) == _coarse_map_constants_reference(f)
        assert qi_constants(f) == _qi_constants_reference(f)


def test_relabel_and_dot():
    g = path_graph(0, 2)
    r = FiniteSpace([("a", v) for v in g.vertices], dist=g.dist)
    assert r.d(("a", 0), ("a", 2)) == 2
    assert '"0" -- "1"' in g.dot()


@settings(max_examples=100, deadline=None)
@given(maps_and_targets())
def test_quasi_inverse_is_computed_once(case):
    f = case[0]
    inv = f.quasi_inverse()
    assert f.quasi_inverse() is inv
    assert inv.domain is f.codomain and inv.codomain is f.domain
    assert {y: inv(y) for y in inv.domain.vertices} == _quasi_inverse_reference(f)


class _DictMap:
    """The dict-based CoarseMap that the image-set table replaced: one
    frozenset per domain point, canonicalised into distinct sets on demand."""

    def __init__(self, domain, codomain, images, name=""):
        self.domain = domain
        self.codomain = codomain
        self.name = name
        self.images = {}
        for v in domain.vertices:
            img = images[v]
            if not img:
                raise ValueError("coarse map image must be nonempty at %r" % (v,))
            self.images[v] = frozenset(img)
        self._sets = None

    def image_of_set(self, S):
        out = set()
        for v in S:
            out |= self.images[v]
        return frozenset(out)

    def image(self):
        return self.image_of_set(self.domain.vertices)

    @classmethod
    def single(cls, domain, codomain, fn, name=""):
        return cls(domain, codomain, {v: frozenset([fn(v)]) for v in domain.vertices},
                   name=name)

    def compose(self, other):
        imgs = {v: other.image_of_set(self.images[v]) for v in self.domain.vertices}
        return _DictMap(self.domain, other.codomain, imgs,
                        name="%s;%s" % (self.name, other.name))

    def quasi_inverse(self):
        cod = self.codomain
        gaps = cod.per_set(self.image_sets(), cod.idx(list(cod.vertices)),
                           np.minimum)[self.image_sets().sids]
        best = gaps.argmin(axis=0)
        imgs = {y: frozenset([self.domain.vertices[i]])
                for y, i in zip(self.codomain.vertices, best)}
        return _DictMap(self.codomain, self.domain, imgs, name="inv:" + self.name)

    def image_sets(self):
        if self._sets is None:
            canon = {}
            sids = np.empty(len(self.domain), dtype=np.int64)
            sets = []
            for i, v in enumerate(self.domain.vertices):
                img = self.images[v]
                if img not in canon:
                    canon[img] = len(sets)
                    sets.append(img)
                sids[i] = canon[img]
            self._sets = spaces.ImageSets(sids, *self.codomain.set_family(sets))
        return self._sets


def _assert_same_map(f, ref):
    assert f.domain is ref.domain and f.codomain is ref.codomain
    assert f.name == ref.name
    assert [f(v) for v in f.domain.vertices] == [ref.images[v] for v in ref.domain.vertices]
    got, want = f.image_sets(), ref.image_sets()
    assert got.sets == want.sets
    for field in ("sids", "flat", "starts", "diams"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@st.composite
def map_chains(draw):
    """Two composable maps, as dicts of images: a space A into a space B
    and B into C, where B and C may be metric subspaces of a random graph.
    Each map draws its images from a small pool of overlapping sets, so
    images repeat."""
    def space():
        g = draw(connected_graphs())
        if draw(st.booleans()):
            g = g.subspace(draw(st.frozensets(st.sampled_from(g.vertices), min_size=1)))
        return g

    def images(dom, cod):
        points = st.sampled_from(cod.vertices)
        pool = draw(st.lists(st.frozensets(points, min_size=1, max_size=3),
                             min_size=1, max_size=4))
        return {v: draw(st.sampled_from(pool)) for v in dom.vertices}

    A, B, C = draw(connected_graphs()), space(), space()
    S = draw(st.frozensets(st.sampled_from(A.vertices), max_size=4))
    return A, B, C, images(A, B), images(B, C), S


@seed(20)
@settings(max_examples=150, deadline=None)
@given(map_chains())
def test_coarse_map_matches_the_dict_reference(case):
    A, B, C, fi, gi, S = case
    f, g = CoarseMap(A, B, fi, name="f"), CoarseMap(B, C, gi, name="g")
    rf, rg = _DictMap(A, B, fi, name="f"), _DictMap(B, C, gi, name="g")
    _assert_same_map(f, rf)
    _assert_same_map(g, rg)
    _assert_same_map(f.compose(g), rf.compose(rg))
    _assert_same_map(f.quasi_inverse(), rf.quasi_inverse())
    _assert_same_map(g.quasi_inverse().compose(f.quasi_inverse()),
                     rg.quasi_inverse().compose(rf.quasi_inverse()))
    assert f.image() == rf.image() and g.image() == rg.image()
    assert f.image_of_set(S) == rf.image_of_set(S)
    assert f.compose(g).image_of_set(S) == rf.compose(rg).image_of_set(S)
    h, rh = (CoarseMap.single(B, A, lambda v: A.vertices[hash(v) % len(A)]),
             _DictMap.single(B, A, lambda v: A.vertices[hash(v) % len(A)]))
    _assert_same_map(h, rh)
    _assert_same_map(h.compose(f), rh.compose(rf))


@settings(max_examples=100, deadline=None)
@given(map_chains(), st.data())
def test_image_of_set_matches_the_dict_reference_on_any_subset(case, data):
    # one point, a list with repeats, a set, the whole domain
    A, B, _, fi, _, _ = case
    f, rf = CoarseMap(A, B, fi), _DictMap(A, B, fi)
    S = data.draw(st.lists(st.sampled_from(A.vertices), max_size=2 * len(A)))
    for T in (S, frozenset(S), S[:1], S * 16, A.vertices):
        assert f.image_of_set(T) == rf.image_of_set(T)


def test_compose_maps_each_distinct_image_set_once():
    a, b = path_graph(0, 11), path_graph(0, 3)
    f = CoarseMap.single(a, b, lambda v: v // 4)
    calls = []
    g = CoarseMap.identity(b)
    image_of_set = g.image_of_set
    g.image_of_set = lambda S: calls.append(S) or image_of_set(S)
    h = f.compose(g)
    assert calls == f.sets and len(calls) == 3
    assert [h(v) for v in a.vertices] == [frozenset([v // 4]) for v in a.vertices]


def test_coarse_map_rejects_images_outside_the_codomain():
    g = path_graph(0, 3)
    sub = g.subspace([0, 1])
    with pytest.raises(ValueError, match="leaves the codomain"):
        CoarseMap(g, sub, {v: {min(v, 2)} for v in g.vertices})
    with pytest.raises(ValueError, match="leaves the codomain"):
        CoarseMap.single(g, sub, lambda v: v)
    with pytest.raises(ValueError, match="is empty"):
        CoarseMap(g, g, {v: set() if v == 2 else {v} for v in g.vertices})


def _bfs_reference(n, adj):
    """One breadth-first search per source, a deque each."""
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            dx = row[x]
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = dx + 1
                    q.append(y)
    return dist


@st.composite
def adjacency_lists(draw, max_n=40):
    """Neighbour lists of any graph on up to max_n vertices, connected or
    not, with self-loops, repeated edges and shuffled lists."""
    n = draw(st.integers(1, max_n))
    ends = st.integers(0, n - 1)
    adj = [[] for _ in range(n)]
    for a, b in draw(st.lists(st.tuples(ends, ends), max_size=3 * n)):
        adj[a].append(b)
        adj[b].append(a)
    return n, [draw(st.permutations(nb)) for nb in adj]


@settings(max_examples=200, deadline=None)
@given(adjacency_lists())
def test_bfs_matches_reference(case):
    n, adj = case
    ref = _bfs_reference(n, adj)
    # 7 cells split nearly every gather and fill into one-vertex pieces
    for cells in (spaces._CHUNK_CELLS, 7):
        with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
            dist = _bfs_all_pairs(n, adj)
        assert dist.dtype == dist_dtype(int(ref.max())) and (dist == ref).all()
    if (ref < 0).any():
        with pytest.raises(ValueError):
            FiniteSpace(range(n), [(a, b) for a in range(n) for b in adj[a]])


def test_bfs_named_graphs(monkeypatch):
    assert _bfs_all_pairs(1, [[]]).tolist() == [[0]]
    n = 257
    path = [[y for y in (x - 1, x + 1) if 0 <= y < n] for x in range(n)]
    ends = np.arange(n)
    assert (_bfs_all_pairs(n, path) == abs(ends[:, None] - ends[None, :])).all()
    star = [list(range(1, 30))] + [[0]] * 29
    assert (_bfs_all_pairs(30, star) == _bfs_reference(30, star)).all()
    # one cell per chunk: every level of K_12 gathers one vertex at a time
    # and every fill takes one row
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 1)
    complete = [[y for y in range(12) if y != x] for x in range(12)]
    assert (_bfs_all_pairs(12, complete) == 1 - np.eye(12, dtype=np.int64)).all()


@pytest.mark.parametrize("make", [lambda: path_graph(40), lambda: path_graph(64),
                                  lambda: cycle_graph(127), lambda: cycle_graph(128),
                                  lambda: product_graph(path_graph(5), cycle_graph(6))])
def test_space_stores_the_kernel_table_without_a_copy(make):
    # a path from an end vertex has depth bound 2 * 39 > 63 but diameter 39,
    # so int8; diameters 63 and 64 sit on both sides of the int8 bound
    made = []
    with mock.patch.object(spaces, "_bfs_all_pairs",
                           side_effect=lambda *a: made.append(_bfs_all_pairs(*a)) or made[-1]):
        g = make()
    assert g.dist is made[-1] and g.dist.dtype == dist_dtype(g.diam())


def _both_budgets(n, adj):
    """_bfs_all_pairs at the default chunk budget and at one cell a chunk,
    checked equal to the reference."""
    ref = _bfs_reference(n, adj)
    for cells in (spaces._CHUNK_CELLS, 1):
        with mock.patch.object(spaces, "_CHUNK_CELLS", cells):
            dist = _bfs_all_pairs(n, adj)
        assert dist.dtype == dist_dtype(int(ref.max())) and (dist == ref).all()
    return ref


@st.composite
def labelled_trees(draw, max_n=70):
    """Neighbour lists of a random tree on up to max_n vertices: each vertex
    hangs off an earlier one, the labels are permuted and the lists
    shuffled, so vertex 0 is any vertex and the DFS order is not the BFS
    order."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[label[u]].append(label[v])
        adj[label[v]].append(label[u])
    return n, [draw(st.permutations(nb)) for nb in adj]


@settings(max_examples=150, deadline=None)
@given(labelled_trees())
def test_tree_kernel_matches_reference(case):
    n, adj = case
    assert spaces._tree_all_pairs(n, adj) is not None
    _both_budgets(n, adj)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
def test_bfs_at_word_boundaries(n):
    # 64 sources fill one "<u8" word of the bitset search
    path = [[y for y in (x - 1, x + 1) if 0 <= y < n] for x in range(n)]
    cycle = [sorted({(x - 1) % n, (x + 1) % n} - {x}) for x in range(n)]
    star = [list(range(1, n))] + [[0]] * (n - 1)
    complete = [[y for y in range(n) if y != x] for x in range(n)]
    for adj in (path, cycle, star, complete):
        assert (_both_budgets(n, adj) >= 0).all()


def _adjacency(n, edges):
    """Neighbour lists of the graph on 0..n-1 with these edges."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


@pytest.mark.parametrize("n, edges, parts", [
    # 2 (n - 1) list entries, yet no tree: the tree test must fall back
    (6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 2)], [range(3), range(3, 6)]),
    (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 5)], [range(3), range(3, 6)]),
    (6, [(0, 1), (1, 2), (1, 2), (3, 4), (4, 5)], [range(3), range(3, 6)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 0)], [range(4), [4]]),
    (5, [(1, 2), (2, 3), (3, 4), (4, 1)], [[0], range(1, 5)]),
    # isolated vertices first, inside and last, and a forest of three trees
    (7, [(1, 2), (2, 4), (4, 5)], [[0], [1, 2, 4, 5], [3], [6]]),
    (9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (6, 8)],
     [range(3), range(3, 5), range(5, 9)]),
])
def test_non_trees_fall_back_with_unreached_pairs(n, edges, parts):
    adj = _adjacency(n, edges)
    assert spaces._tree_all_pairs(n, adj) is None
    ref = _both_budgets(n, adj)
    comp = np.empty(n, dtype=np.int64)
    for k, part in enumerate(parts):
        comp[list(part)] = k
    assert ((ref < 0) == (comp[:, None] != comp[None, :])).all()


def test_repeated_edges_still_take_the_tree_kernel():
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    with mock.patch.object(spaces, "_bitset_all_pairs",
                           side_effect=AssertionError("tree fell back")):
        g = FiniteSpace(range(5), edges + [(b, a) for a, b in edges] + [(2, 2)])
    assert g.edges == tuple(edges)
    assert (g.dist == _bfs_reference(5, _adjacency(5, edges))).all()


def _four_point_reference(space):
    """The pair loop over n x n float tables."""
    D = space.dist.astype(np.float64)
    n = len(space)
    best = 0.0
    for i in range(n):
        di = D[i]
        for j in range(i + 1, n):
            s1 = D[i, j] + D
            s2 = di[:, None] + D[j][None, :]
            s3 = di[None, :] + D[j][:, None]
            top = np.maximum(s1, np.maximum(s2, s3))
            mid = s1 + s2 + s3 - top - np.minimum(s1, np.minimum(s2, s3))
            best = max(best, float((top - mid).max()))
    return best / 2.0


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=16))
def test_four_point_matches_reference(g):
    assert four_point_delta(g) == _four_point_reference(g)


def test_four_point_named_graphs(monkeypatch):
    small = [single_point(), path_graph(2), path_graph(3), cycle_graph(3)]
    # cycle_graph(47) has diameter 23, so 6 * 23 needs int16; on an 8-cycle
    # at the end of a 64-edge path (diameter 68) the pair sums pass int8
    lollipop = FiniteSpace(range(72), [(i, i + 1) for i in range(71)] + [(71, 64)])
    for g in small + [path_graph(50), cycle_graph(47), lollipop]:
        assert four_point_delta(g) == _four_point_reference(g)
    # a path 0..11 hanging off vertex 18 of a block on 12..19 whose widest
    # four-tuples all lie in 12..19; at 81 pairs per chunk of 20 x 20 cells
    # the last of the three chunks is exactly the 28 pairs inside 12..19
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 81 * 20 * 20)
    edges = [(i, i + 1) for i in range(11)] + [(11, 18), (12, 13), (12, 17),
             (13, 14), (14, 15), (14, 16), (15, 16), (15, 17), (15, 19),
             (16, 17), (17, 18), (17, 19), (18, 19)]
    g = FiniteSpace(range(20), edges)
    assert four_point_delta(g) == _four_point_reference(g) == 1.0


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_chunks_not_cubes():
    # a level of K_300 gathers 300 * 299 rows of 5 words: 3.6 MB unless it
    # is split into _CHUNK_CELLS pieces
    n = 300
    complete = [[y for y in range(n) if y != x] for x in range(n)]
    assert _traced_peak(_bfs_all_pairs, n, complete) - 8 * n * n < 6e6
    # a chain of 18 diamonds has 2^18 geodesics end to end: a frontier that
    # kept a cell once per geodesic reaching it would hold millions of cells
    n = 3 * 18 + 1
    diamonds = [[] for _ in range(n)]
    for hub in range(0, n - 1, 3):
        for mid in (hub + 1, hub + 2):
            for end in (hub, hub + 3):
                diamonds[mid].append(end)
                diamonds[end].append(mid)
    assert _traced_peak(_bfs_all_pairs, n, diamonds) - 8 * n * n < 1e6
    # an unchunked fill would hold several n x n int64 temporaries: 8 MB
    # each for the path (tree kernel), 11.5 MB for the product (bitset)
    n = 1000
    path = [[y for y in (x - 1, x + 1) if 0 <= y < n] for x in range(n)]
    assert _traced_peak(_bfs_all_pairs, n, path) - 8 * n * n < 3e6
    g = product_graph(path_graph(40), cycle_graph(30))
    n = len(g)
    grid = _adjacency(n, g.edges)
    assert spaces._tree_all_pairs(n, grid) is None
    assert _traced_peak(_bfs_all_pairs, n, grid) - 8 * n * n < 3e6
    # one unsplit gather of K_600's neighbour words would take 29 MB; its
    # neighbour array and the renumbered copy take 2.9 MB each
    n = 600
    complete = [[y for y in range(n) if y != x] for x in range(n)]
    assert _traced_peak(_bfs_all_pairs, n, complete) - 8 * n * n < 8e6
    # diameter 10, so int8 cells: 1770 pairs x 3600 cells would be 6 MB a
    # temporary, a chunk is 32 kB
    g = product_graph(path_graph(6), cycle_graph(10))
    assert _traced_peak(four_point_delta, g) < 1e6
    # an unchunked cube of all intervals between the points of A would take
    # 34 MB for every second vertex of a 257-path (one level, qc 1) and
    # 96 MB for the convex 0..199 of a 300-path (100 levels, each scanned in
    # vain), where the 200 x 200 table of A alone exceeds a chunk
    g = path_graph(257)
    assert _traced_peak(g.qc_constant, range(0, 257, 2)) < 1e6
    g = path_graph(300)
    assert _traced_peak(g.qc_constant, range(200)) < 1e6
    # the rows of A are reduced a chunk at a time: one gather of all of them
    # would take 120 kB here and 6 MB for 1500 points of a 2000-path
    assert _traced_peak(g.dist_to, range(200)) < 1e6
    g = path_graph(2000)
    assert _traced_peak(g.dist_to, range(1500)) < 1e6


# -- label order and the nearest-point kernel ----------------------------------


def _nearest_reference(X, subset):
    """The nearest point of the subset from every vertex, by a search over
    the labels: ties go to the least label."""
    return [min(subset, key=lambda p: (X.d(x, p), vkey(p))) for x in X.vertices]


def _check_nearest(X, subset):
    assert [X.vertices[i] for i in X.nearest(subset)] == _nearest_reference(X, subset)


# labels of mixed types, so index order is neither insertion order nor the
# order of the graph's construction
_LABELS = st.one_of(st.integers(-50, 50), st.text("abc", max_size=3),
                    st.tuples(st.integers(0, 3), st.text("xy", max_size=2)),
                    st.frozensets(st.integers(0, 4), max_size=2), st.booleans())


@st.composite
def labelled_graphs(draw, max_n=25):
    """A connected graph with mixed labels: a random tree, plus random extra
    edges unless the draw asks for a tree, and a nonempty vertex subset."""
    labels = draw(st.lists(_LABELS, min_size=1, max_size=max_n, unique=True))
    n = len(labels)
    edges = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    if n > 2 and draw(st.booleans()):
        ends = st.sampled_from(labels)
        edges += draw(st.lists(st.tuples(ends, ends), max_size=n))
    subset = draw(st.frozensets(st.sampled_from(labels), min_size=1))
    return FiniteSpace(labels, edges), subset


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
def test_nearest_matches_label_search(case):
    _check_nearest(*case)


@pytest.mark.parametrize("space, subset", [
    # every vertex of an even cycle between two antipodal points has a tie
    (cycle_graph(8), {2, 6}),
    (cycle_graph(8, label=lambda k: ("c", 7 - k)), {("c", 0), ("c", 4)}),
    (product_graph(path_graph(4), path_graph(4)), {(0, 3), (3, 0)}),
    (path_graph(-3, 3, label=str), {"-3", "3", "0"}),
    (single_point(), {"*"}),
])
def test_nearest_ties_go_to_the_least_label(space, subset):
    _check_nearest(space, subset)


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_nearest_on_hagen_axes(r):
    t = hagen_target(r)
    X = t.space
    for w in t.elements:
        if w == "M":
            continue
        pts = set(t.hyp[w].vertices)
        _check_nearest(X, pts)
        assert [t.proj[w](x) for x in X.vertices] == \
            [frozenset([p]) for p in _nearest_reference(X, pts)]


def test_labels_are_ordered_in_three_modules_only():
    # every other module compares indices of a space or positions of a lattice
    src = pathlib.Path(spaces.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if "vkey" in p.read_text()) == \
        ["lattice.py", "serialize.py", "spaces.py"]


# -- the per-sort key and one-pass set families ---------------------------------

Pt = namedtuple("Pt", "x y")

_ATOMS = st.one_of(st.integers(-20, 20), st.text("ab", max_size=2), st.booleans(),
                   st.floats(-2, 2, allow_nan=False), st.none())


def _nest(children):
    return st.one_of(st.tuples(children), st.tuples(children, children),
                     st.builds(Pt, children, children),
                     st.frozensets(children, max_size=3))


@st.composite
def nested_labels(draw):
    """Nested labels built from a pool of sub-label objects, so that many
    labels hold the very same part; (1,) and (True,), equal as values but
    apart in vkey order, sit in the pool side by side."""
    pool = [(1,), (True,), (0, "a"), (False, "a")]
    pool += draw(st.lists(st.recursive(_ATOMS, _nest, max_leaves=6), max_size=6))
    part = st.sampled_from(pool)
    return draw(st.lists(st.one_of(_ATOMS, part, st.tuples(part, _ATOMS),
                                   st.tuples(_ATOMS, part, part),
                                   st.builds(Pt, part, part),
                                   st.frozensets(part, max_size=3)),
                         min_size=1, max_size=30))


@settings(max_examples=200, deadline=None)
@given(nested_labels())
def test_sort_key_orders_as_vkey(labels):
    key = sort_key()
    assert [key(v) for v in labels] == [vkey(v) for v in labels]
    assert sorted(labels, key=sort_key()) == sorted(labels, key=vkey)
    assert spaces.sorted_vertices(labels) == tuple(sorted(set(labels), key=vkey))
    # the graph constructor, on a path through the distinct labels
    distinct = list(dict.fromkeys(labels))
    want = tuple(sorted(distinct, key=vkey))
    g = FiniteSpace(distinct, list(zip(distinct, distinct[1:])))
    assert g.vertices == want
    # the table constructor: rows follow the given order, |i - j| apart
    pos = np.arange(len(distinct))
    t = FiniteSpace(distinct, dist=abs(pos[:, None] - pos[None, :]))
    assert t.vertices == want
    at = {v: i for i, v in enumerate(distinct)}
    assert all(t.d(u, v) == abs(at[u] - at[v]) for u in want for v in want)


@settings(max_examples=150, deadline=None)
@given(nested_labels(), nested_labels(), st.data())
def test_order_preserving_constructors_store_vkey_order(left, right, data):
    # subspace and product_graph store their labels unsorted: index order
    # of the ambient space, and product order of two sorted factors
    a, b = (list(dict.fromkeys(labels))[:8] for labels in (left, right))
    g = FiniteSpace(a, list(zip(a, a[1:])))
    h = FiniteSpace(b, list(zip(b, b[1:])))
    keep = data.draw(st.lists(st.sampled_from(a), min_size=1))
    sub = g.subspace(keep)
    assert sub.vertices == tuple(sorted(set(keep), key=vkey))
    ii = g.idx(list(sub.vertices))
    assert (sub.dist == g.dist[np.ix_(ii, ii)]).all()
    prod = product_graph(g, h)
    pairs = [(x, y) for x in a for y in b]
    assert prod.vertices == tuple(sorted(pairs, key=vkey))
    # the same space as the sorting constructor builds from the same edges
    edges = [(prod.vertices[i], prod.vertices[j]) for i, j in prod.edges]
    ref = FiniteSpace(pairs, edges)
    assert (ref.vertices, ref.edges) == (prod.vertices, prod.edges)
    assert (ref.dist == prod.dist).all()
    assert all(prod.d((x, y), (u, v)) == g.d(x, u) + h.d(y, v)
               for x, y in pairs for u, v in pairs[:5])


def test_sort_key_tells_one_from_true_inside_shared_parts():
    one, true = (1,), (True,)
    labels = [(one, "z"), (true, "a"), ("p", one), ("q", true), frozenset([one, "b"]),
              frozenset([true, "c"])]
    for order in (labels, labels[::-1]):
        assert sorted(order, key=sort_key()) == sorted(order, key=vkey)
    # a key memo by value would give (True,) the key of (1,) and put "a" after "z"
    got = sorted(labels, key=sort_key())
    assert got.index((true, "a")) < got.index((one, "z"))


def _set_family_reference(space, sets):
    """The per-set family that set_family replaced."""
    parts = [np.sort(space.idx(list(A))) for A in sets]
    starts = np.cumsum([0] + [len(p) for p in parts[:-1]])
    diams = np.array([space.dist[np.ix_(p, p)].max() if len(p) > 1 else 0
                      for p in parts], dtype=np.int64)
    return spaces.SetFamily(sets, np.concatenate(parts), starts, diams)


@st.composite
def set_families(draw):
    """A graph-backed or table-backed space with mixed labels, and a family
    of nonempty sets of one of the shapes the kernels meet."""
    g, _ = draw(labelled_graphs(max_n=20))
    if draw(st.booleans()):
        g = g.subspace(draw(st.frozensets(st.sampled_from(g.vertices), min_size=1)))
    pts = st.sampled_from(g.vertices)
    shape = draw(st.sampled_from(["singletons", "repeated", "single", "whole", "mixed"]))
    if shape == "singletons":
        sets = [frozenset([p]) for p in draw(st.lists(pts, min_size=1, max_size=20))]
    elif shape == "repeated":
        A = draw(st.frozensets(pts, min_size=1))
        sets = [A, frozenset(A), A] + draw(st.lists(st.sets(pts, min_size=1), max_size=3))
    elif shape == "single":
        sets = [draw(st.frozensets(pts, min_size=1))]
    elif shape == "whole":
        sets = draw(st.lists(st.frozensets(pts, min_size=1), max_size=3))
        sets.insert(draw(st.integers(0, len(sets))), set(g.vertices))
    else:
        sets = draw(st.lists(st.one_of(st.frozensets(pts, min_size=1, max_size=1),
                                       st.lists(pts, min_size=1, max_size=6, unique=True)),
                             min_size=1, max_size=12))
    return g, sets


@settings(max_examples=200, deadline=None)
@given(set_families())
def test_set_family_matches_per_set_reference(case):
    g, sets = case
    got, want = g.set_family(sets), _set_family_reference(g, sets)
    assert got.sets is sets
    assert got.flat.dtype == got.starts.dtype == np.int64
    assert got.diams.dtype == g.dist.dtype
    for a, b in zip(got[1:], want[1:]):
        assert a.tolist() == b.tolist()


@st.composite
def cross_cases(draw):
    """A table in one of five dtypes, writable or not, and row and column
    indexes that may repeat or be empty. A "tall" read takes 10 or more
    rows of a table at least 3 wide and at most 3 columns, so cross gathers
    the columns first; a "wide" read the other way round gathers the rows
    first; a "square" read takes as many rows as columns of a square
    table, a tie that goes to the rows unless there are more of them than
    the table has; "any" may do either."""
    shape = draw(st.sampled_from(["tall", "wide", "square", "any"]))
    n0 = draw(st.integers(3 if shape == "wide" else 1, 9))
    n1 = n0 if shape == "square" else draw(st.integers(3 if shape == "tall" else 1, 9))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64, np.bool_, np.float64]))
    values = draw(st.lists(st.integers(-128, 127), min_size=n0 * n1, max_size=n0 * n1))
    T = np.array(values).reshape(n0, n1)
    T = (T / 3).astype(dtype) if dtype is np.float64 else T.astype(dtype)
    T.flags.writeable = draw(st.booleans())
    long, short = st.integers(10, 30), st.integers(0, 3)
    nr, nc = {"tall": (long, short), "wide": (short, long),
              "square": (st.just(draw(st.integers(0, 12))),) * 2,
              "any": (st.integers(0, 12),) * 2}[shape]

    def index(n, size):
        k = draw(size)
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
                        dtype=np.int64)
    return T, index(n0, nr), index(n1, nc)


@settings(max_examples=300, deadline=None)
@given(cross_cases())
def test_cross_matches_the_broadcast_index_pair(case):
    T, rows, cols = case
    got = spaces.cross(T, rows, cols)
    want = T[rows[:, None], cols]
    assert got.dtype == T.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous and got.flags.writeable
    assert not np.shares_memory(got, T)


def test_cross_gathers_the_few_columns_of_a_tall_read_first():
    # a family of pairs covering every point of a 2000-path: a gather of its
    # 2000 rows first would hold the whole n x n table (8 MB in int16)
    g = path_graph(2000)
    fam = g.set_family([{2 * i, 2 * i + 1} for i in range(1000)])
    cols = np.array([0, 999, 1999])
    assert _traced_peak(g.per_set, fam, cols, np.minimum) < g.dist.nbytes / 100


def _broadcast_reads(tree):
    """(kind, function, line) of every broadcast index pair X[a[:, None], b]
    in a module's syntax tree, kind "pair", with the column made of a 1-d
    index by [:, None], [i, None] or np.newaxis (a 2-d index widened by
    [..., None] is a 3-d read, not a pair), and of every np.ix_, kind
    "ix_"."""
    found, where = [], []

    def is_column(e):
        if not (isinstance(e, ast.Subscript) and isinstance(e.slice, ast.Tuple)
                and len(e.slice.elts) == 2):
            return False
        first, second = e.slice.elts
        new = (isinstance(second, ast.Constant) and second.value is None
               or isinstance(second, ast.Attribute) and second.attr == "newaxis")
        return new and not (isinstance(first, ast.Constant) and first.value is Ellipsis)

    def visit(node):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if named:
            where.append(node.name)
        here = where[-1] if where else None
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and len(node.slice.elts) == 2 and is_column(node.slice.elts[0])):
            found.append(("pair", here, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr == "ix_":
            found.append(("ix_", here, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            where.pop()
    visit(tree)
    return found


def test_sub_table_reads_go_through_cross():
    # the one spelling of the gather rule (spaces module docstring): no
    # module of the package reads a sub-table by a broadcast index pair but
    # CoarseMap.pair_distance_matrix, the reference path of the pair scans'
    # tests, and only lattice and indexmaps read their k x k relation
    # tables by np.ix_
    package = pathlib.Path(spaces.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for kind, fn, line in _broadcast_reads(ast.parse(path.read_text())):
            found.setdefault((kind, path.name, fn), []).append(line)
    stray = {(kind, name, fn): lines for (kind, name, fn), lines in found.items()
             if not (kind == "pair" and (name, fn) == ("spaces.py", "pair_distance_matrix")
                     or kind == "ix_" and name in ("lattice.py", "indexmaps.py"))}
    assert stray == {}
    assert ("pair", "spaces.py", "pair_distance_matrix") in found


def _set_distance_rows(tree):
    """(function, line) of every reduction of a column gather of a distance
    table, X.dist[:, cols].min(...), in a module's syntax tree."""
    found, where = [], []

    def visit(node):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if named:
            where.append(node.name)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "min"):
            read = node.func.value
            if (isinstance(read, ast.Subscript) and isinstance(read.value, ast.Attribute)
                    and read.value.attr == "dist" and isinstance(read.slice, ast.Tuple)
                    and isinstance(read.slice.elts[0], ast.Slice)):
                found.append((where[-1] if where else None, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            where.pop()
    visit(tree)
    return found


def test_distance_to_set_rows_go_through_dist_to():
    # the one spelling of a row of distances to a set (spaces module
    # docstring): no module of the package reduces a column gather of a
    # distance table but FiniteSpace.dist_to
    package = pathlib.Path(spaces.__file__).parent
    stray = [(path.name, fn, line) for path in sorted(package.glob("*.py"))
             for fn, line in _set_distance_rows(ast.parse(path.read_text()))
             if (path.name, fn) != ("spaces.py", "dist_to")]
    assert stray == []
