import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhspace.embedding import (Embedding, NotFull, clipped_sum_compare,
                               probe_embedding, pullback_model, verify_embedding)
from hhspace.fixtures import factor_inclusion, grid_product, hagen, hagen_target
from hhspace.indexmaps import IndexMap
from hhspace.lattice import IndexLattice
from hhspace.model import HHSModel, audit_axioms, trivial_model
from hhspace.spaces import CoarseMap, FiniteSpace, path_graph, qi_constants


def test_identity_embedding_trivial():
    m = grid_product(3, 3)
    e = Embedding.identity(m)
    assert verify_embedding(e).ok
    pr = probe_embedding(e)
    assert pr.lipschitz == (1.0, 0.0)
    assert pr.qi == (1.0, 0.0)
    assert pr.outside_diam == 0.0
    assert pr.gate_defects == (0.0, 0.0)
    assert pr.pullback_audit.ok


def test_factor_inclusion_probe_small_constants():
    e = factor_inclusion(2)
    ver = verify_embedding(e)
    assert ver.ok
    assert ver.measured["diagram_defect"] == 0.0
    pr = probe_embedding(e)
    assert pr.lipschitz == (1.0, 0.0)
    assert pr.qi == (1.0, 0.0)
    assert pr.outside_diam == 0.0
    assert pr.pullback_audit.ok
    assert pr.region_distance <= pr.region_bound
    assert pr.rho_coincidence_max <= 1.0
    assert pr.hausdorff <= pr.hausdorff_bound


def test_factor_inclusion_stable_across_radii():
    rows = [probe_embedding(factor_inclusion(r)) for r in (1, 2, 3)]
    for pr in rows:
        assert pr.lipschitz == (1.0, 0.0)
        assert pr.qi == (1.0, 0.0)
        assert pr.outside_diam == 0.0
        assert max(pr.gate_defects) <= 1.0
        assert pr.region_distance <= pr.region_bound
        assert pr.hausdorff <= pr.hausdorff_bound


def test_non_full_probe_rejected():
    m = grid_product(3, 3)
    src = trivial_model(path_graph(0, 2), elt="T", name="seg")
    e = Embedding(
        src, m,
        CoarseMap.single(src.space, m.space, lambda v: (v, 0)),
        IndexMap(src.lattice, m.lattice, {"T": ("S",)}),
        {"T": CoarseMap.constant(src.hyp["T"], m.hyp[("S",)],
                                 m.hyp[("S",)].vertices)})
    with pytest.raises(NotFull):
        probe_embedding(e)


def test_clipped_sum_compare_identity():
    m = grid_product(3, 4)
    e = Embedding.identity(m)
    out = clipped_sum_compare(e, 1, 1)
    assert out["forward"] == (1.0, 0.0)
    assert out["reverse"] == (1.0, 0.0)


def test_clipped_sum_compare_factor():
    e = factor_inclusion(2)
    out = clipped_sum_compare(e, 1, 1)
    # source sum is exactly the image-side sum over the image elements
    assert out["forward"] == (1.0, 0.0)
    assert out["reverse"] == (1.0, 0.0)


def test_clipped_sum_compare_hagen_forward_bounded():
    # fullness alone bounds the source-side clipped sum by the image-side
    # one; on this fixture the image elements carry an isometric copy of the
    # source coordinate, so both directions are exact even though the space
    # map itself is badly non-lipschitz
    e = hagen(4)
    out = clipped_sum_compare(e, 1, 1)
    assert out["forward"] == (1.0, 0.0)
    assert out["reverse"] == (1.0, 0.0)


def test_hagen_image_lengths_exact():
    for r in (2, 4, 6):
        e = hagen(r)
        for m in range(r):
            assert e.target.space.dset(e.space_map(m), e.space_map(m + 1)) == 2 * m + 2


def test_hagen_target_audits():
    rep = audit_axioms(hagen_target(4))
    assert rep.ok


def test_hagen_fullness_and_degradation():
    # the transverse outside elements carry the growth; the coned-off
    # maximal element's contribution plateaus at the cone constant and is
    # reported separately
    values = {}
    for r in (2, 3, 4, 5, 6):
        e = hagen(r)
        assert verify_embedding(e).ok
        pr = probe_embedding(e)
        values[r] = (pr.lipschitz[0], pr.qi[0], pr.outside_diam_proper)
        assert pr.outside_diam >= pr.outside_diam_proper
    for a, b in zip((2, 3, 4, 5), (3, 4, 5, 6)):
        assert values[a][0] < values[b][0]
        assert values[a][1] < values[b][1]
        assert values[a][2] < values[b][2]
    assert [values[r][2] for r in (2, 3, 4, 5, 6)] == [2, 3, 4, 5, 6]


def test_hagen_region_distance_within_bound():
    pr = probe_embedding(hagen(4))
    assert pr.region_distance <= pr.region_bound


def test_pullback_model_structure():
    e = factor_inclusion(2)
    pb = pullback_model(e)
    assert len(pb.space) == 5
    assert pb.lattice.elements == e.source.lattice.elements
    assert audit_axioms(pb).ok


def _diagram_defects_reference(e):
    """The per-vertex diagram loops the set-family tables replaced."""
    defect = 0.0
    for U in e.source.elements:
        Ui = e.index_map(U)
        fU = e.hyp_maps[U]
        if fU.domain is not e.source.hyp[U] or fU.codomain is not e.target.hyp[Ui]:
            continue
        for x in e.source.space.vertices:
            a = fU.image_of_set(e.source.proj[U](x))
            b = e.target.proj[Ui].image_of_set(e.space_map(x))
            defect = max(defect, e.target.hyp[Ui].dset(a, b))
    rho_defect = 0.0
    for (v, w), rmap in e.source.rho_map.items():
        vi, wi = e.index_map(v), e.index_map(w)
        if (vi, wi) not in e.target.rho_map:
            continue
        tmap = e.target.rho_map[(vi, wi)]
        for p in e.source.hyp[w].vertices:
            a = e.hyp_maps[v].image_of_set(rmap(p))
            b = tmap.image_of_set(e.hyp_maps[w](p))
            rho_defect = max(rho_defect, e.target.hyp[vi].dset(a, b))
    return defect, rho_defect


def _path_embedding(n, image):
    """Two-element models V < W on both sides, every space the path on n
    vertices and every map set-valued: vertex i goes to the vertices whose
    indices image(i) returns, drawn afresh for each map and vertex."""
    def cmap(dom, cod):
        return CoarseMap(dom, cod, {x: frozenset(cod.vertices[j] for j in image(i))
                                    for i, x in enumerate(dom.vertices)})

    def model(name):
        X, CV, CW = path_graph(n), path_graph(n), path_graph(n)
        lat = IndexLattice(["V", "W"], "W", nested_pairs=[("V", "W")])
        return HHSModel(X, lat, {"V": CV, "W": CW}, {"V": cmap(X, CV), "W": cmap(X, CW)},
                        {("V", "W"): CW.vertices[:1]}, {("V", "W"): cmap(CW, CV)}, name=name)

    src, tgt = model("src"), model("tgt")
    return Embedding(src, tgt, cmap(src.space, tgt.space),
                     IndexMap(src.lattice, tgt.lattice, {"V": "V", "W": "W"}),
                     {U: cmap(src.hyp[U], tgt.hyp[U]) for U in ("V", "W")}, name="random")


def _near_identity(n, offsets):
    """i goes to i + k for k in offsets(), clipped to the path: both diagrams
    then commute up to a defect that varies with the vertex, so pairing the
    wrong image sets shows."""
    return lambda i: {min(n - 1, i + k) for k in offsets()}


@st.composite
def random_embeddings(draw):
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return _path_embedding(n, _near_identity(
            n, lambda: draw(st.frozensets(st.integers(0, 2), min_size=1))))
    return _path_embedding(
        n, lambda i: draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=2)))


def _assert_defects_match_reference(e):
    m = verify_embedding(e).measured
    got = (m["diagram_defect"], m["rho_diagram_defect"])
    want = _diagram_defects_reference(e)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@settings(max_examples=80, deadline=None)
@given(random_embeddings())
def test_diagram_defects_match_reference_on_random_embeddings(e):
    _assert_defects_match_reference(e)


def test_diagram_defects_match_reference_when_both_are_nonzero():
    # fixture embeddings all commute (both defects 0.0), so the comparison
    # must also be made where the tables, not the zero default, decide
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        e = _path_embedding(n, _near_identity(n, lambda: rng.sample(range(3), rng.randint(1, 3))))
        assert min(_diagram_defects_reference(e)) >= 1
        _assert_defects_match_reference(e)


@pytest.mark.parametrize("e", [factor_inclusion(2), hagen(4)], ids=["factor", "hagen"])
def test_diagram_defects_match_reference_on_fixtures(e):
    _assert_defects_match_reference(e)


def test_hyp_qi_is_the_worst_over_every_hyperbolic_map():
    # the certification's hyp_qi is the worst (K, C) over every hyperbolic
    # map, also one that fails the space check
    e = Embedding.identity(grid_product(3, 6))
    l, r = ("l", "S1"), ("r", "S2")
    fl, fr = e.hyp_maps[l], e.hyp_maps[r]
    e.hyp_maps[l] = CoarseMap.constant(fl.domain, fl.codomain, fl.codomain.vertices[:1])
    # equal to C_r, but not the same object
    copy = FiniteSpace(fr.domain.vertices, dist=fr.domain.dist)
    e.hyp_maps[r] = CoarseMap.constant(copy, fr.codomain, fr.codomain.vertices[:1])
    rep = verify_embedding(e)
    assert [v.witness for v in rep.violations] == [(r,)]
    assert [qi_constants(e.hyp_maps[U]) for U in (l, r)] == [(2.0, 2.0), (5.0, 5.0)]
    assert rep.measured["hyp_qi"] == (5.0, 5.0)
