import dataclasses
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhspace import serialize, treecombine
from hhspace.embedding import Embedding, verify_embedding
from hhspace.fixtures import (bs_window, factor_inclusion, free_product_z2_z3,
                              grid_product, raag_path)
from hhspace.indexmaps import IndexMap
from hhspace.lattice import IndexLattice
from hhspace.model import (HHSModel, audit_axioms, hq_check, measure_alpha,
                           trivial_model)
from hhspace.spaces import (CoarseMap, FiniteSpace, path_graph, single_point,
                            vkey)
from hhspace.treecombine import (THAT, ComparisonNotUniform, HypothesisFailure,
                                 TreeOfHHS, _check_connected, audit_combined,
                                 build_combined, check_hypotheses,
                                 combined_wedge_table, comparison_map,
                                 concretize_edges, decorate,
                                 equivalence_classes, tree_epsilon)


def point_edge_tree(spaces):
    """Chain of one-element vertex models glued through point edge models."""
    names = ["v%d" % i for i in range(len(spaces))]
    vm = {names[i]: trivial_model(spaces[i], elt="S", name=names[i])
          for i in range(len(spaces))}
    edges, em, emap = [], {}, {}
    for i in range(len(spaces) - 1):
        e = tuple(sorted((names[i], names[i + 1])))
        edges.append(e)
        pm = trivial_model(single_point(("e", i)), elt="SE")
        em[e] = pm

        def attach(target, point):
            return Embedding(
                pm, target,
                CoarseMap.constant(pm.space, target.space, [point]),
                IndexMap(pm.lattice, target.lattice, {"SE": "S"}),
                {"SE": CoarseMap.constant(pm.hyp["SE"], target.hyp["S"], [point])})

        emap[(e, names[i])] = attach(vm[names[i]], spaces[i].vertices[0])
        emap[(e, names[i + 1])] = attach(vm[names[i + 1]], spaces[i + 1].vertices[0])
    return TreeOfHHS(names, edges, vm, em, emap, name="chain")


def ghost_tree_doc(kind):
    """The JSON document of the tree point_edge_tree makes of three two-point
    paths, with a one-point space and its projection for the label "ghost",
    which is not an element, added to its first ``kind`` ("vertex" or
    "edge") model."""
    doc = serialize.tree_to_json(point_edge_tree([path_graph(0, 1)] * 3))
    m = doc[kind + "_models"][0][1]
    m["hyp"].append(["ghost", serialize.space_to_json(single_point())])
    m["proj"].append(["ghost", {"images": [[x, ["*"]] for x in m["space"]["vertices"]]}])
    return doc


def test_the_ghost_tree_combines_without_its_ghost():
    t = serialize.tree_from_json(serialize.tree_to_json(
        point_edge_tree([path_graph(0, 1)] * 3)))
    assert audit_combined(build_combined(t)).ok


@pytest.mark.parametrize("kind, key", [("vertex", "v0"), ("edge", ("v0", "v1"))],
                         ids=["vertex", "edge"])
def test_build_combined_runs_the_door_on_every_tree_model(kind, key):
    # the theorem takes well-formed vertex and edge models: a model that
    # fails its door stops the combination before decorate, named with its
    # first three violations
    t = serialize.tree_from_json(ghost_tree_doc(kind))
    with pytest.raises(HypothesisFailure) as exc:
        build_combined(t)
    assert exc.value.reason == "%s model fails structure checks" % kind
    where, violations = exc.value.witness
    assert where == key
    assert [(v.rule, v.witness) for v in violations] == [
        ("unexpected-hyp", ("ghost",)), ("unexpected-projection", ("ghost",))]


def test_not_a_tree_rejected():
    sp = path_graph(0, 1)
    m = trivial_model(sp)
    with pytest.raises(ValueError):
        TreeOfHHS(["a", "b"], [], {"a": m, "b": m}, {}, {})


def test_repeated_tree_vertex_rejected():
    t = point_edge_tree([path_graph(0, 1), path_graph(0, 2)])
    with pytest.raises(ValueError, match="repeated tree vertex 'v0'"):
        TreeOfHHS(["v0", "v0", "v1"], t.edges, t.vertex_models,
                  t.edge_models, t.edge_maps)


def test_equivalence_classes_single_edge():
    t = point_edge_tree([path_graph(0, 1), path_graph(0, 2)])
    cls = equivalence_classes(t)
    assert len(cls) == 1
    assert cls[0].support == frozenset(["v0", "v1"])
    assert cls[0].favorite_vertex == "v0"


def test_classes_span_chain():
    t = point_edge_tree([path_graph(0, 1)] * 4)
    cls = equivalence_classes(t)
    assert len(cls) == 1
    assert cls[0].support == frozenset(["v0", "v1", "v2", "v3"])


def test_comparison_identity():
    t = point_edge_tree([path_graph(0, 1), path_graph(0, 1)])
    cls = equivalence_classes(t)[0]
    m, K, C = comparison_map(t, cls, "v0", "v0")
    assert (K, C) == (1.0, 0.0)


def test_comparison_through_bounded_models_uniform():
    t = point_edge_tree([path_graph(0, 1), path_graph(0, 2), path_graph(0, 1)])
    cls = equivalence_classes(t)[0]
    m, K, C = comparison_map(t, cls, "v2", "v0")
    assert K <= 2.0


def test_bs_window_comparison_growth():
    t = bs_window(2, 4)
    cls = equivalence_classes(t)[0]
    for d in (2, 3, 4):
        m, K, C = comparison_map(t, cls, "v%d" % d, "v0")
        assert K >= 2 ** d / 2


def test_bs_window_detection():
    # the paper-counterexample behavior: uniformity fails from radius 2 on,
    # with doubling constants recorded per distance
    with pytest.raises(ComparisonNotUniform) as exc:
        build_combined(bs_window(2, 4))
    by_d = {}
    for (cid, v, d, K, C) in exc.value.table:
        by_d[d] = max(by_d.get(d, 0), K)
    for d in (2, 3, 4):
        assert by_d[d] >= 2 ** d / 2


def test_bs_window_radius_one_builds():
    c = build_combined(bs_window(2, 1))
    assert audit_axioms(c.model).ok


def test_combined_chain_audits():
    t = point_edge_tree([path_graph(0, 1), cycle3(), path_graph(0, 1)])
    c = build_combined(t)
    assert c.decorated
    assert len(c.classes) == 1
    rep = audit_combined(c)
    assert rep.ok, rep.summary()


def cycle3():
    return FiniteSpace(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])


def test_combined_container_identities():
    t = point_edge_tree([path_graph(0, 1), cycle3()])
    c = build_combined(t)
    lat = c.model.lattice
    for cls in c.classes:
        sid = c.support_of[cls.id]
        assert lat.top_container(cls.id) == sid
        assert lat.top_container(sid) == cls.id
        assert lat.orthogonal(cls.id, sid)


def test_combined_wedge_table_clean():
    t = point_edge_tree([path_graph(0, 1), cycle3()])
    c = build_combined(t)
    wedges, joins, rep = combined_wedge_table(c)
    assert rep.ok
    from hhspace.lattice import EMPTY
    cls = c.classes[0].id
    sid = c.support_of[cls]
    assert wedges[(cls, sid)] is EMPTY          # orthogonal pair
    assert wedges[(cls, THAT)] == cls
    assert joins[(cls, sid)] == THAT


def test_hypothesis_screen_rejects_non_full():
    # a two-element vertex lattice with a point edge model cannot be full
    grid_model = _two_element_model()
    pm = trivial_model(single_point("e"), elt="SE")
    other = trivial_model(path_graph(0, 1), elt="S", name="o")
    e = ("a", "b")

    def attach(target, maximal, point):
        hyp_pt = next(iter(target.hyp[maximal].vertices))
        return Embedding(
            pm, target,
            CoarseMap.constant(pm.space, target.space, [point]),
            IndexMap(pm.lattice, target.lattice, {"SE": maximal}),
            {"SE": CoarseMap.constant(pm.hyp["SE"], target.hyp[maximal],
                                      [hyp_pt])})

    t = TreeOfHHS(["a", "b"], [e], {"a": grid_model, "b": other},
                  {e: pm},
                  {(e, "a"): attach(grid_model, grid_model.lattice.maximal,
                                    grid_model.space.vertices[0]),
                   (e, "b"): attach(other, "S", 0)})
    with pytest.raises(HypothesisFailure):
        build_combined(t)


def _two_element_model():
    from hhspace.fixtures import grid_product
    return grid_product(3, 3)


def test_decorate_base_case_unchanged():
    t = point_edge_tree([path_graph(0, 1), path_graph(0, 2)])
    td = decorate(t)
    assert td.vertices == t.vertices


def test_decorate_product_vertex_adds_leaves():
    from hhspace.fixtures import grid_product
    m = grid_product(3, 3)
    t = TreeOfHHS(["v"], [], {"v": m}, {}, {}, name="single")
    td = decorate(t)
    assert len(td.vertices) > 1
    leaves = [v for v in td.vertices if v != "v"]
    assert all(td.vertex_models[l].lattice.complexity()
               < m.lattice.complexity() for l in leaves
               if l[1] == "v")
    c = build_combined(td)
    assert c.decorated
    rep = audit_combined(c)
    assert rep.ok, rep.summary()


def test_single_vertex_tree_combines_to_vertex_structure():
    m = trivial_model(path_graph(0, 5), elt="S", name="seg")
    t = TreeOfHHS(["v"], [], {"v": m}, {}, {}, name="one")
    c = build_combined(t)
    cls = c.classes[0].id
    sid = c.support_of[cls]
    assert set(c.model.lattice.elements) == {cls, sid, THAT}
    assert audit_combined(c).ok


def test_shared_support_fails_support_laws():
    c = build_combined(_grid_vertex())
    assert c.decorated and audit_combined(c).entry("support-laws").ok
    # give the second class the support of the first, as an undecorated
    # tree would
    first, second = c.classes[0], c.classes[1]
    shared = dataclasses.replace(
        c, classes=[first, dataclasses.replace(second, support=first.support)]
        + c.classes[2:])
    entry = audit_combined(shared).entry("support-laws")
    assert not entry.ok
    assert ("distinct-supports", (first.id, second.id)) in \
        {(v.rule, v.witness) for v in entry.witnesses}


def _raag_amalgam_window():
    """The amalgam window that raag_path(1) combines, undecorated."""
    from hhspace.graphproduct import (ProductSpec, amalgam_star_window,
                                      base_group_model, build)
    side = build(ProductSpec(("a", "c"), frozenset(),
                             {"a": ("z", 1), "c": ("z", 1)}, window_radius=1))
    return amalgam_star_window(side.model, base_group_model(("z", 1), "b"),
                               name="amalgam:b")


def _grid_vertex():
    return TreeOfHHS(["v"], [], {"v": grid_product(3, 3)}, {}, {}, name="single")


@pytest.mark.parametrize("make", [_raag_amalgam_window, _grid_vertex])
def test_decorate_is_idempotent(make):
    once = decorate(make())
    twice = decorate(once)
    assert len(once.vertices) > 1
    assert twice.vertices == once.vertices
    assert twice.edges == once.edges
    assert twice.name == once.name + "~"


def test_build_combined_decorates_its_tree():
    w = _raag_amalgam_window()
    c = build_combined(w)
    assert c.tree.vertices == decorate(w).vertices
    assert c.tree.name == w.name + "~"


def _cyclic2_amalgam_window(radius=4):
    """The amalgam window of the path a - b - c with cyclic(2) bases,
    decorated. At radius 4 it is the one known window where
    concretize_edges restricts an edge (its two amalgam edges, from three
    elements to one)."""
    from hhspace.graphproduct import (ProductSpec, amalgam_star_window,
                                      base_group_model, build)
    side = build(ProductSpec(("a", "c"), frozenset(),
                             {"a": ("cyclic", 2), "c": ("cyclic", 2)}, window_radius=radius))
    return decorate(amalgam_star_window(side.model, base_group_model(("cyclic", 2), "b"),
                                        name="amalgam:b"))


def _images(f):
    """f's image of each domain point, by label."""
    return {x: f(x) for x in f.domain.vertices}


def _hand_built_edge_map(emb, sub):
    """The edge map that concretize_edges built by hand before
    Embedding.inclusion: emb's own maps, cut down to the elements of sub."""
    keep = sub.elements
    return Embedding(sub, emb.target, emb.space_map,
                     IndexMap(sub.lattice, emb.target.lattice,
                              {U: emb.index_map(U) for U in keep}, name=emb.index_map.name),
                     {U: emb.hyp_maps[U] for U in keep}, name=emb.name)


def test_concretized_edge_maps_match_the_hand_built_maps():
    t = _cyclic2_amalgam_window()
    c = concretize_edges(t)
    changed = [e for e in t.edges if c.edge_models[e] is not t.edge_models[e]]
    assert len(changed) == 2
    for e in changed:
        sub = c.edge_models[e]
        assert sub.name == "fp:a,c~|combined|core"
        assert (len(t.edge_models[e].elements), len(sub.elements)) == (3, 1)
        for endpoint in e:
            got = c.edge_maps[(e, endpoint)]
            want = _hand_built_edge_map(t.edge_maps[(e, endpoint)], sub)
            assert got.source is want.source is sub
            assert got.target is want.target
            assert got.index_map.mapping == want.index_map.mapping
            assert _images(got.space_map) == _images(want.space_map)
            for U in sub.elements:
                assert got.hyp_maps[U].domain is want.hyp_maps[U].domain
                assert got.hyp_maps[U].codomain is want.hyp_maps[U].codomain
                assert _images(got.hyp_maps[U]) == _images(want.hyp_maps[U])
            assert verify_embedding(got).ok
    for e in t.edges:
        if e not in changed:
            assert c.edge_maps[(e, e[0])] is t.edge_maps[(e, e[0])]


def test_tree_epsilon_measures_each_class_of_equal_models_once(monkeypatch):
    t = _cyclic2_amalgam_window()
    models = list(t.vertex_models.values()) + list(t.edge_models.values())
    distinct = list({id(m): m for m in models}.values())
    firsts = list(_firsts_reference(distinct, _model_reference).values())
    assert len(firsts) < len(distinct) < len(models)
    want = 3.0 * max(max(m.basics()[0], measure_alpha(m)) for m in models) + 1.0
    seen = []

    def counting(m):
        seen.append(m)
        return measure_alpha(m)
    monkeypatch.setattr(treecombine, "measure_alpha", counting)
    assert tree_epsilon(t) == want
    assert [id(m) for m in seen] == [id(m) for m in firsts]


def test_combined_distance_formula_finite():
    from hhspace.fixtures import free_product_z2_z3
    from hhspace.model import distance_formula_fit
    c = free_product_z2_z3(2).combined
    fit = distance_formula_fit(c.model, 1)
    assert fit.K < 20 and fit.C < 20


def test_raag_b_factor_class_supported_at_center_only():
    from hhspace.fixtures import raag_path
    res = raag_path(2)
    c = res.combined
    b_cls = [cls for cls in c.classes
             if cls.rep_at.get(("Q",)) == ("r", "S")]
    assert len(b_cls) == 1
    originals = {v for v in b_cls[0].support
                 if not (isinstance(v, tuple) and v and v[0] == "deco")}
    assert originals == {("Q",)}


def grid_chain():
    """grid - segment - grid, glued through point edges into the l-factor of
    each grid: the r-factor classes of the two grids get disjoint supports,
    a and c with their decoration leaves."""
    vm = {"a": grid_product(3, 3), "b": trivial_model(path_graph(0, 2), elt="S", name="b"),
          "c": grid_product(3, 3)}
    into = {"a": ("l", "S1"), "b": "S", "c": ("l", "S1")}
    edges, em, emap = [("a", "b"), ("b", "c")], {}, {}
    for i, e in enumerate(edges):
        pm = em[e] = trivial_model(single_point(("e", i)), elt="SE")
        for end in e:
            m, U = vm[end], into[end]
            p = m.space.vertices[0]
            emap[(e, end)] = Embedding(
                pm, m, CoarseMap.constant(pm.space, m.space, [p]),
                IndexMap(pm.lattice, m.lattice, {"SE": U}),
                {"SE": CoarseMap.constant(pm.hyp["SE"], m.hyp[U], m.proj[U](p))})
    return TreeOfHHS(["a", "b", "c"], edges, vm, em, emap, name="grid-chain")


# combined structure, and the kinds of small side that meet a tree disjointly
MARKER_CASES = {
    "grid_chain": (lambda: build_combined(grid_chain()), {"support", "class"}),
    "raag_path(1)": (lambda: raag_path(1).combined, set()),
    "free_product_z2_z3(2)": (lambda: free_product_z2_z3(2).combined, set()),
}


@pytest.mark.parametrize("name", list(MARKER_CASES))
def test_rho_markers_in_trees_are_intersections_or_nearest_vertices(name):
    combined, disjoint = MARKER_CASES[name]
    c = combined()
    t = c.tree
    subtree = {**c.supports, **{cls.id: cls.support for cls in c.classes},
               THAT: frozenset(t.vertices)}
    checked, far = 0, set()
    for (u, y), marker in c.model.rho_set.items():
        if y not in c.supports and y != THAT:
            continue
        checked += 1
        if subtree[u] & subtree[y]:
            assert marker == subtree[u] & subtree[y]
            continue
        assert c.model.lattice.transverse(u, y)
        near = t.space.gap(subtree[u], subtree[y])
        assert marker == {w for w in subtree[y] if t.space.gap(subtree[u], [w]) == near}
        far.add("support" if u in c.supports else "class")
    assert checked > 0 and far == disjoint


# -- table lookups against loop-based searches -----------------------------------
#
# The references answer the same questions by search: a BFS over an
# adjacency list for paths and connectivity, a row-by-row scan for bridges,
# and scans over every class for the class, support and owner indexes.


def _adjacency_reference(t):
    adj = {v: [] for v in t.vertices}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=vkey)
    return adj


def _path_reference(t, u, v):
    if u == v:
        return (u,)
    adj = _adjacency_reference(t)
    prev = {u: None}
    q = deque([u])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                if y == v:
                    out = [v]
                    while prev[out[-1]] is not None:
                        out.append(prev[out[-1]])
                    return tuple(reversed(out))
                q.append(y)
    raise KeyError((u, v))


def _entry_edge_reference(t, v, subtree):
    p = _path_reference(t, v, t.closest_vertex(v, subtree))
    return (p[-2], p[-1])


def _bridge_reference(t, sub1, sub2):
    best = None
    for a in sorted(sub1, key=vkey):
        b = t.closest_vertex(a, sub2)
        d = t.space.d(a, b)
        if best is None or d < best[0]:
            best = (d, a, b)
    return best[1], best[2]


def _connected_reference(t, support):
    adj = _adjacency_reference(t)
    sub = set(support)
    start = next(iter(sub))
    seen = {start}
    q = deque([start])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y in sub and y not in seen:
                seen.add(y)
                q.append(y)
    return seen == sub


@st.composite
def random_trees(draw):
    """A tree on up to 30 vertices with shuffled integer labels (so vertex
    order and tree shape are unrelated), two disjoint subtrees on either
    side of one edge, and two random vertex subsets."""
    n = draw(st.integers(2, 30))
    labels = draw(st.permutations(range(n)))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = [(labels[i], labels[parent[i]]) for i in range(1, n)]
    t = TreeOfHHS(labels, edges, {}, {}, {}, name="random")
    cut = draw(st.sampled_from(edges))
    side = {w for w in t.vertices if t.space.d(w, cut[0]) < t.space.d(w, cut[1])}
    subtrees = []
    for part in (side, set(t.vertices) - side):
        # a ball meets a subtree in a subtree
        centre = draw(st.sampled_from(sorted(part)))
        r = draw(st.integers(0, 4))
        subtrees.append(frozenset(w for w in part if t.space.d(w, centre) <= r))
    subsets = [draw(st.frozensets(st.sampled_from(labels), min_size=1))
               for _ in range(2)]
    return t, subtrees, subsets


@settings(max_examples=150, deadline=None)
@given(random_trees())
def test_tree_lookups_match_searches(case):
    t, (sub1, sub2), (subset, other) = case
    for u in t.vertices[:6]:
        for v in t.vertices:
            assert t.path(u, v) == _path_reference(t, u, v)
    assert t.bridge(sub1, sub2) == _bridge_reference(t, sub1, sub2)
    assert t.bridge(sub2, sub1) == _bridge_reference(t, sub2, sub1)
    # between disjoint subtrees the closest pair is unique; disjoint vertex
    # sets have ties, which go to the least vertex of sub1, then of sub2
    if subset - other:
        assert t.bridge(subset - other, other) == \
            _bridge_reference(t, subset - other, other)
    for sub in (sub1, sub2):
        assert t.entry_edges(sub) == {v: _entry_edge_reference(t, v, sub)
                                      for v in t.vertices if v not in sub}
    # vertex subsets have ties, which go to the least vertex
    for S in (subset, other, sub1, sub2):
        assert [t.vertices[i] for i in t.space.nearest(S)] == \
            [t.closest_vertex(v, S) for v in t.vertices]
    for S in (subset, sub1, sub2, sub1 | sub2):
        try:
            _check_connected(t, S)
            connected = True
        except HypothesisFailure:
            connected = False
        assert connected == _connected_reference(t, S)


def test_bridge_ties_go_to_the_least_vertex_of_the_first_set():
    # the path 3 - 0 - 9 - 1 - 4: {1, 3} and {0, 4} are one apart twice
    t = TreeOfHHS([3, 0, 9, 1, 4], [(3, 0), (0, 9), (9, 1), (1, 4)], {}, {}, {})
    assert t.bridge({1, 3}, {0, 4}) == (1, 4)
    assert t.bridge({0, 4}, {1, 3}) == (0, 3)


def _class_id_reference(c, vertex, elt):
    for cls in c.classes:
        if cls.rep_at.get(vertex) == elt:
            return cls.id
    return None


def _support_id_reference(c, vertex_set):
    for sid, sup in c.supports.items():
        if sup == frozenset(vertex_set):
            return sid
    return None


def _owners_reference(c, sid):
    return [cls for cls in c.classes if cls.support == c.supports[sid]]


@pytest.fixture(scope="module", params=["free-product-z2-z3", "raag-path"])
def window(request):
    from hhspace.fixtures import free_product_z2_z3, raag_path
    return (free_product_z2_z3 if request.param == "free-product-z2-z3"
            else raag_path)(2).combined


def test_class_index_matches_scans(window):
    from hhspace.graphproduct import _class_of
    c = window
    pairs = {(v, U) for v in c.tree.vertices
             for U in c.tree.vertex_models[v].elements}
    assert set(c.class_at) == pairs
    for v, U in sorted(pairs, key=vkey):
        assert c.class_at[(v, U)].id == _class_id_reference(c, v, U)
        assert _class_of(c, v, U) is c.class_at[(v, U)]
    with pytest.raises(HypothesisFailure):
        _class_of(c, ("not a tree vertex",), "S")
    for sup, sid in c.support_id.items():
        assert _support_id_reference(c, sup) == sid
    for s1 in c.supports.values():
        for s2 in c.supports.values():
            assert c.support_id.get(s1 & s2) == _support_id_reference(c, s1 & s2)
    assert set(c.owners) == set(c.supports)
    for sid in c.supports:
        assert [o.id for o in c.owners[sid]] == \
            [o.id for o in _owners_reference(c, sid)]


def test_table_backed_vertex_space_is_a_hypothesis_failure():
    # X is glued from the vertex graphs, so a vertex space given only as its
    # metric table would leave its points unjoined
    table = FiniteSpace.from_matrix(range(3), path_graph(3).dist)
    t = point_edge_tree([path_graph(3), table, path_graph(2)])
    with pytest.raises(HypothesisFailure) as exc:
        build_combined(t)
    assert exc.value.reason == "vertex space is a metric table, not a graph"
    assert exc.value.witness == ("v1",)


def _flipped(t):
    """t given with every edge, and every key of its edge dicts, the other
    way round."""
    def flip(e):
        return e[1], e[0]
    return TreeOfHHS(t.vertices, [flip(e) for e in t.edges], t.vertex_models,
                     {flip(e): m for e, m in t.edge_models.items()},
                     {(flip(e), v): m for (e, v), m in t.edge_maps.items()},
                     name=t.name)


def _free_product_window():
    from hhspace.graphproduct import free_product_window
    return free_product_window([("cyclic", 2), ("cyclic", 3)], ["a", "b"], 2, 6000)


@pytest.mark.parametrize("make", [grid_chain, _free_product_window,
                                  lambda: decorate(_free_product_window())])
def test_edge_orientation_does_not_matter(make):
    from hhspace.serialize import dumps, tree_to_json
    t = make()
    back = _flipped(t)
    assert back.edges == t.edges
    assert list(back.edge_models) == list(t.edge_models)
    assert list(back.edge_maps) == list(t.edge_maps)
    assert dumps(tree_to_json(back)) == dumps(tree_to_json(t))
    c, cb = build_combined(t), build_combined(back)
    assert cb.comparison_table == c.comparison_table
    assert [cls.id for cls in cb.classes] == [cls.id for cls in c.classes]


def test_edge_orientation_does_not_change_a_failure():
    t = bs_window(2, 3)
    with pytest.raises(ComparisonNotUniform) as want:
        build_combined(t)
    with pytest.raises(ComparisonNotUniform) as got:
        build_combined(_flipped(t))
    assert got.value.table == want.value.table


# -- one check per class of equal models -------------------------------------------
#
# The references are the hypothesis screen and tree_epsilon one (edge,
# endpoint) pair and one model object at a time, and a grouping of models
# and edge maps by their index-ordered data written out as nested tuples.


def _check_hypotheses_reference(t):
    for e in t.edges:
        for endpoint in e:
            emb = t.edge_maps[(e, endpoint)]
            rep = verify_embedding(emb)
            if not rep.ok:
                raise HypothesisFailure("edge map fails structure checks",
                                        (e, endpoint, rep.violations[:3]))
            hq = hq_check(t.vertex_models[endpoint], emb.image())
            if not hq.passed:
                raise HypothesisFailure("edge image not hierarchically quasiconvex",
                                        (e, endpoint, hq.k0, hq.table))


def _tree_epsilon_reference(t):
    worst = 0.0
    for m in dict.fromkeys([*t.vertex_models.values(), *t.edge_models.values()]):
        xi, _ = m.basics()
        worst = max(worst, xi, measure_alpha(m))
    return 3.0 * worst + 1.0


def _images_reference(f):
    return tuple(tuple(sorted(f.codomain.index[p] for p in f(x)))
                 for x in f.domain.vertices)


def _model_reference(m):
    E, lat = m.elements, m.lattice

    def table(space):
        return tuple(map(tuple, space.dist.tolist()))
    return (table(m.space), lat.pos[lat.maximal],
            tuple((lat.rel(a, b), lat.nested(a, b)) for a in E for b in E),
            tuple(table(m.hyp[U]) for U in E),
            tuple(_images_reference(m.proj[U]) for U in E),
            tuple(sorted((lat.pos[a], lat.pos[b],
                          tuple(sorted(m.hyp[b].index[p] for p in S)))
                         for (a, b), S in m.rho_set.items())),
            tuple(sorted((lat.pos[v], lat.pos[w], _images_reference(r))
                         for (v, w), r in m.rho_map.items())))


def _embedding_reference(emb):
    src, tgt = emb.source, emb.target
    image = [emb.index_map(U) for U in src.elements]
    return (_model_reference(src), _model_reference(tgt),
            tuple(tgt.lattice.pos[Ui] for Ui in image),
            _images_reference(emb.space_map),
            tuple((emb.hyp_maps[U].domain is src.hyp[U],
                   emb.hyp_maps[U].codomain is tgt.hyp[Ui],
                   _images_reference(emb.hyp_maps[U]))
                  for U, Ui in zip(src.elements, image)))


def _firsts_reference(items, key):
    """The first item of each class of equal key, by key, in first-seen order."""
    firsts = {}
    for x in items:
        firsts.setdefault(key(x), x)
    return firsts


def _screen(check, t):
    try:
        check(t)
    except HypothesisFailure as exc:
        return exc.reason, exc.witness
    return None


def _screened_trees(build):
    """The trees that build_combined screens while build() runs."""
    trees = []
    real = treecombine.check_hypotheses

    def record(t, *rest):
        trees.append(t)
        return real(t, *rest)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treecombine, "check_hypotheses", record)
        build()
    return trees


# The trees each window's screen runs on, by name: the decorated trees that
# build_combined screens, or the decorated fixture tree.
WINDOWS = {
    "raag_path(1)": lambda: _screened_trees(lambda: raag_path(1)),
    "raag_path(2)": lambda: _screened_trees(lambda: raag_path(2)),
    "free_product_z2_z3(2)": lambda: _screened_trees(lambda: free_product_z2_z3(2)),
    "grid_chain": lambda: [decorate(grid_chain())],
    "cyclic(2) radius 4": lambda: [_cyclic2_amalgam_window()],
    **{"bs_window(2, %d)" % r: lambda r=r: [decorate(bs_window(2, r))]
       for r in range(3, 8)}}
REPEATING_WINDOWS = ["raag_path(1)", "free_product_z2_z3(2)", "cyclic(2) radius 4"]


@pytest.mark.parametrize("name", WINDOWS)
def test_screen_and_tree_epsilon_match_the_per_edge_references(name):
    for t in WINDOWS[name]():
        assert _screen(check_hypotheses, t) == _screen(_check_hypotheses_reference, t)
        assert tree_epsilon(t) == _tree_epsilon_reference(t)


def _with_edge_map(t, pair, emb):
    return TreeOfHHS(t.vertices, t.edges, t.vertex_models, t.edge_models,
                     {**t.edge_maps, pair: emb}, name=t.name)


def _into_a_copied_space(emb):
    """emb with its first hyperbolic map landing in an equal copy of its
    target space: a map between the wrong spaces."""
    U = emb.source.elements[0]
    f = emb.hyp_maps[U]
    copy = FiniteSpace(f.codomain.vertices, dist=f.codomain.dist)
    return dataclasses.replace(
        emb, hyp_maps={**emb.hyp_maps, U: CoarseMap(f.domain, copy, _images(f))})


def _not_injective(emb):
    """emb with a non-maximal element sent where the maximal one goes."""
    lat = emb.source.lattice
    U = next(U for U in lat.elements if U != lat.maximal)
    mapping = {**emb.index_map.mapping, U: emb.index_map(lat.maximal)}
    return dataclasses.replace(emb, index_map=IndexMap(lat, emb.index_map.target,
                                                       mapping))


@pytest.mark.parametrize("name", REPEATING_WINDOWS)
def test_a_defect_in_one_member_of_a_class_is_found(name):
    for t in WINDOWS[name]():
        models, checks = treecombine._Classes(), treecombine._Classes()
        members = {}
        for e in t.edges:
            for end in e:
                key = treecombine.embedding_key(t.edge_maps[(e, end)], models)
                number, _ = checks.add(key)
                members.setdefault(number, []).append((e, end))
        largest = max(members.values(), key=len)
        assert len(largest) > 1
        pair = largest[-1]
        plants = [_into_a_copied_space]
        if len(t.edge_maps[pair].source.elements) > 1:
            plants.append(_not_injective)
        for plant in plants:
            bad = _with_edge_map(t, pair, plant(t.edge_maps[pair]))
            got = _screen(check_hypotheses, bad)
            assert got == _screen(_check_hypotheses_reference, bad)
            assert got[0] == "edge map fails structure checks"
            assert got[1][:2] == pair


@pytest.mark.parametrize("name", ["raag_path(2)", "cyclic(2) radius 4",
                                  "bs_window(2, 7)"])
def test_classes_match_the_reference_grouping(name):
    for t in WINDOWS[name]():
        objects = list(dict.fromkeys([*t.vertex_models.values(),
                                      *t.edge_models.values()]))
        pairs = [(e, end) for e in t.edges for end in e]
        models, checks = treecombine._Classes(), treecombine._Classes()
        got = [models.model(m) for m in objects]
        want = _firsts_reference(objects, _model_reference)
        assert got == [list(want).index(_model_reference(m)) for m in objects]
        got = [checks.add(treecombine.embedding_key(t.edge_maps[p], models))[0]
               for p in pairs]
        ref = [_embedding_reference(t.edge_maps[p]) for p in pairs]
        want = list(_firsts_reference(ref, lambda r: r))
        assert got == [want.index(r) for r in ref]


def test_class_counts_of_the_raag_windows(monkeypatch):
    calls = []

    def counting(emb):
        calls.append(emb)
        return verify_embedding(emb)
    monkeypatch.setattr(treecombine, "verify_embedding", counting)
    trees = WINDOWS["raag_path(2)"]()
    assert [t.name for t in trees] == ["fp:a,c~", "amalgam:b~"]
    counts = []
    for t in trees:
        objects = dict.fromkeys([*t.vertex_models.values(), *t.edge_models.values()])
        pairs = [t.edge_maps[(e, end)] for e in t.edges for end in e]
        counts.append((len(pairs), len(set(map(_embedding_reference, pairs))),
                       len(objects), len(set(map(_model_reference, objects)))))
    assert counts == [(18, 3, 19, 2), (106, 44, 52, 14)]
    assert len(calls) == 3 + 44


def test_build_combined_keys_each_model_object_once(monkeypatch):
    # decorate, the screen and tree_epsilon share one table of model keys
    keyed = []

    def counting(m):
        keyed.append(m)
        return model_key(m)
    model_key = treecombine.model_key
    monkeypatch.setattr(treecombine, "model_key", counting)
    raag_path(2)
    assert len(keyed) == len({id(m) for m in keyed}) == 71


def test_bs12_screen_checks_every_edge_map(monkeypatch):
    calls = []

    def counting(emb):
        calls.append(emb)
        return verify_embedding(emb)
    monkeypatch.setattr(treecombine, "verify_embedding", counting)
    t = decorate(bs_window(2, 7))
    check_hypotheses(t)
    assert len(calls) == 2 * len(t.edges) == 14


def test_a_map_outside_the_target_lattice_is_a_class_of_its_own():
    t = point_edge_tree([path_graph(0, 1)] * 3)
    e = t.edges[-1]
    good = t.edge_maps[(e, e[1])]
    bad = dataclasses.replace(good, index_map=IndexMap(
        good.source.lattice, good.target.lattice, {"SE": "Q"}))
    assert treecombine.embedding_key(bad, treecombine._Classes()) is None
    t = _with_edge_map(t, (e, e[1]), bad)
    got = _screen(check_hypotheses, t)
    assert got == _screen(_check_hypotheses_reference, t)
    assert got[0] == "edge map fails structure checks"
    assert got[1][:2] == (e, e[1])
    violations = {(v.rule, v.witness) for v in got[1][2]}
    assert ("image-not-in-target", ("SE", "Q")) in violations


def test_an_edge_map_into_another_model_than_its_endpoints_is_checked_on_its_own():
    # the map of the last pair lands in an equal model that is not the
    # endpoint's, whose space is relabelled: the image check of that pair
    # runs against the endpoint's model and cannot find the image there
    t = point_edge_tree([path_graph(0, 1)] * 3)
    e = t.edges[-1]
    good = t.edge_maps[(e, e[1])]
    other = _copied_model(good.target)
    point = other.space.vertices[0]
    bad = Embedding(good.source, other,
                    CoarseMap.constant(good.source.space, other.space, [point]),
                    IndexMap(good.source.lattice, other.lattice, {"SE": _lab("S")}),
                    {"SE": CoarseMap.constant(good.source.hyp["SE"], other.hyp[_lab("S")],
                                              [point])})
    t = _with_edge_map(t, (e, e[1]), bad)
    for check in (_check_hypotheses_reference, check_hypotheses):
        with pytest.raises(KeyError):
            check(t)


# Key mutants: a relabelled copy of a model or an edge map falls in the class
# of the original; the same copy with one index-ordered field changed does
# not.


def _lab(x):
    return ("copy", x)


def _copied_space(space):
    return FiniteSpace([_lab(v) for v in space.vertices], dist=space.dist.copy())


def _copied_map(f, domain, codomain):
    return CoarseMap(domain, codomain,
                     {_lab(x): {_lab(p) for p in f(x)} for x in f.domain.vertices})


def _copied_model(m):
    lat = m.lattice
    X = _copied_space(m.space)
    hyp = {_lab(U): _copied_space(m.hyp[U]) for U in m.elements}
    return HHSModel(
        X, IndexLattice([_lab(U) for U in m.elements], _lab(lat.maximal),
                        [(_lab(a), _lab(b)) for a, b in lat.nest_pairs()],
                        [tuple(map(_lab, p)) for p in lat.orth_pairs()]),
        hyp, {_lab(U): _copied_map(m.proj[U], X, hyp[_lab(U)]) for U in m.elements},
        {(_lab(a), _lab(b)): {_lab(p) for p in S} for (a, b), S in m.rho_set.items()},
        {(_lab(v), _lab(w)): _copied_map(r, hyp[_lab(w)], hyp[_lab(v)])
         for (v, w), r in m.rho_map.items()},
        name=m.name + "'")


def _copied_embedding(emb):
    src, tgt = _copied_model(emb.source), _copied_model(emb.target)
    image = {_lab(U): _lab(emb.index_map(U)) for U in emb.source.elements}
    return Embedding(src, tgt, _copied_map(emb.space_map, src.space, tgt.space),
                     IndexMap(src.lattice, tgt.lattice, image),
                     {_lab(U): _copied_map(emb.hyp_maps[U], src.hyp[_lab(U)],
                                           tgt.hyp[image[_lab(U)]])
                      for U in emb.source.elements})


def _has_two_images(f):
    return len(set(map(f, f.domain.vertices))) > 1


def _swapped_images(f):
    """f with the images of its first domain point and of the first point
    with another image swapped: the same number of image sets, of the same
    sizes, in other places."""
    x = f.domain.vertices[0]
    y = next(y for y in f.domain.vertices if f(y) != f(x))
    return CoarseMap(f.domain, f.codomain, {**_images(f), x: f(y), y: f(x)})


def _chain_model():
    return build_combined(point_edge_tree([path_graph(0, 1), cycle3()])).model


def _rebuilt(m, space=None, hyp=(), lattice=None, proj=(), rho_set=(), rho_map=()):
    """A new model: m with the given parts replaced, and every map moved
    onto the new model's own spaces."""
    X, H = space or m.space, {**m.hyp, **dict(hyp)}

    def onto(f, domain, codomain):
        return CoarseMap.from_ids(domain, codomain, f.sids, f.sets, name=f.name)
    return HHSModel(X, lattice or m.lattice, H,
                    {U: onto(f, X, H[U]) for U, f in {**m.proj, **dict(proj)}.items()},
                    {**m.rho_set, **dict(rho_set)},
                    {(v, w): onto(r, H[w], H[v])
                     for (v, w), r in {**m.rho_map, **dict(rho_map)}.items()},
                    name=m.name)


def _bumped(space):
    """A new space: space with the distance of its first two points one
    more."""
    dist = space.dist.copy()
    dist[0, 1] += 1
    dist[1, 0] += 1
    return FiniteSpace(space.vertices, dist=dist)


def _set_distance(m):
    return _rebuilt(m, space=_bumped(m.space))


def _set_hyperbolic_distance(m):
    U = next(U for U in m.elements if len(m.hyp[U]) > 1)
    return _rebuilt(m, hyp={U: _bumped(m.hyp[U])})


def _drop_orthogonality(m):
    """The first orthogonal pair made transverse, with the one-point
    markers that the door then asks for."""
    lat = m.lattice
    (a, b), *rest = lat.orth_pairs()
    return _rebuilt(m, lattice=IndexLattice(lat.elements, lat.maximal, lat.nest_pairs(), rest),
                    rho_set={(p, q): m.hyp[q].vertices[:1] for p, q in ((a, b), (b, a))})


def _swap_projection_images(m):
    U = next(U for U in m.elements if _has_two_images(m.proj[U]))
    return _rebuilt(m, proj={U: _swapped_images(m.proj[U])})


def _move_rho_set(m):
    k = next(k for k, S in m.rho_set.items() if 0 < len(S) < len(m.hyp[k[1]]))
    S = set(m.rho_set[k])
    S.remove(min(S, key=m.hyp[k[1]].index.__getitem__))
    S.add(next(p for p in m.hyp[k[1]].vertices if p not in m.rho_set[k]))
    return _rebuilt(m, rho_set={k: S})


def _swap_rho_map_images(m):
    k = next(k for k, r in m.rho_map.items() if _has_two_images(r))
    return _rebuilt(m, rho_map={k: _swapped_images(m.rho_map[k])})


MODEL_MUTANTS = {"distance entry": _set_distance,
                 "hyperbolic distance entry": _set_hyperbolic_distance,
                 "lattice relation": _drop_orthogonality,
                 "projection image": _swap_projection_images,
                 "rho set": _move_rho_set,
                 "rho-map image": _swap_rho_map_images}


def _same_model_class(a, b):
    classes = treecombine._Classes()
    return classes.model(a) == classes.model(b)


def test_a_relabelled_copy_is_in_the_class_of_its_model():
    m = _chain_model()
    copy = _copied_model(m)
    assert copy.space.vertices != m.space.vertices
    assert _same_model_class(m, copy)


@pytest.mark.parametrize("field", MODEL_MUTANTS)
def test_a_model_key_mutant_is_a_class_of_its_own(field):
    m = _chain_model()
    mutant = MODEL_MUTANTS[field](_copied_model(m))
    assert mutant.validate_structure().ok
    assert not _same_model_class(m, mutant)


def _swap_hyp_map_images(emb):
    U = emb.source.elements[0]
    emb.hyp_maps[U] = _swapped_images(emb.hyp_maps[U])


def _swap_space_map_images(emb):
    emb.space_map = _swapped_images(emb.space_map)


def _change_index_map(emb):
    lat = emb.source.lattice
    other = next(W for W in emb.target.elements if W != emb.index_map(lat.maximal))
    emb.index_map = IndexMap(lat, emb.target.lattice, {lat.maximal: other})


def _hyp_map_into_a_copy(emb):
    emb.hyp_maps = _into_a_copied_space(emb).hyp_maps


EMBEDDING_MUTANTS = {"hyp-map image": _swap_hyp_map_images,
                     "space-map image": _swap_space_map_images,
                     "index map": _change_index_map,
                     "identity flag": _hyp_map_into_a_copy}


def _same_embedding_class(a, b):
    models, checks = treecombine._Classes(), treecombine._Classes()
    return (checks.add(treecombine.embedding_key(a, models))[0]
            == checks.add(treecombine.embedding_key(b, models))[0])


def test_a_relabelled_copy_is_in_the_class_of_its_edge_map():
    emb = factor_inclusion(1)
    assert _same_embedding_class(emb, _copied_embedding(emb))


@pytest.mark.parametrize("field", EMBEDDING_MUTANTS)
def test_an_embedding_key_mutant_is_a_class_of_its_own(field):
    emb = factor_inclusion(1)
    mutant = _copied_embedding(emb)
    EMBEDDING_MUTANTS[field](mutant)
    assert not _same_embedding_class(emb, mutant)


# -- one relation per pair of classes --------------------------------------------
#
# The combined builder reads the relation of two classes, and their
# markers, at the least common vertex of their supports. That is sound
# because the screen rejects every edge map that changes a relation.


def _combined_structures(build):
    """Every combined structure that build_combined returns while build()
    runs the graph-product recursion."""
    from hhspace import graphproduct
    out, real = [], graphproduct.build_combined

    def record(t):
        out.append(real(t))
        return out[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphproduct, "build_combined", record)
        build()
    return out


ACCEPTED = {
    "raag_path(1)": lambda: _combined_structures(lambda: raag_path(1)),
    "free_product_z2_z3(2)": lambda: _combined_structures(lambda: free_product_z2_z3(2)),
    **{"cyclic(2) radius %d" % r: lambda r=r: [build_combined(_cyclic2_amalgam_window(r))]
       for r in (3, 4)},
    "bs_window(2, 1)": lambda: [build_combined(bs_window(2, 1))]}


@pytest.mark.parametrize("name", ACCEPTED)
def test_classes_relate_alike_at_every_common_vertex(name):
    structures = ACCEPTED[name]()
    assert len(structures) == (2 if name == "raag_path(1)" else 1)
    shared = 0
    for c in structures:
        for c1, c2 in combinations(c.classes, 2):
            commons = c.tree.space.ordered(c1.support & c2.support)
            seen = set()
            for v in commons:
                lat = c.tree.vertex_models[v].lattice
                a, b = c1.rep_at[v], c2.rep_at[v]
                seen.add((lat.rel(a, b), lat.nested(a, b)))
            assert len(seen) <= 1, (c1.id, c2.id, seen)
            shared += len(commons) > 1
            if commons:     # and the combined lattice relates them so too
                lat = c.model.lattice
                assert seen == {(lat.rel(c1.id, c2.id), lat.nested(c1.id, c2.id))}
    # in the free-product windows and bs_window(2, 1) no two classes share
    # more than one vertex, so the check there holds at once
    assert (shared > 0) == name.startswith(("raag", "cyclic"))


def _relation_swapped(emb):
    """emb with the images of two elements exchanged, the first two that
    relate differently to a third: the index map changes a relation."""
    lat = emb.source.lattice
    a, b = next((a, b) for a, b in combinations(lat.elements, 2)
                if any(lat.rel(a, x) != lat.rel(b, x) for x in lat.elements if x not in (a, b)))
    mapping = {**emb.index_map.mapping, a: emb.index_map(b), b: emb.index_map(a)}
    return dataclasses.replace(emb, index_map=IndexMap(lat, emb.index_map.target, mapping))


def test_an_edge_map_that_changes_a_relation_is_rejected():
    t = _raag_amalgam_window()
    e = t.edges[0]
    pair = (e, e[0])
    assert len(t.edge_maps[pair].source.elements) == 3
    with pytest.raises(HypothesisFailure) as exc:
        build_combined(_with_edge_map(t, pair, _relation_swapped(t.edge_maps[pair])))
    assert exc.value.reason == "edge map fails structure checks"
    assert exc.value.witness[:2] == pair
    assert exc.value.witness[2][0].rule in ("relation-changed", "nesting-orientation-flipped")
