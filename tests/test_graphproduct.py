import pytest

from hhspace.graphproduct import (NoSplitNeeded, ProductSpec, WindowTooLarge,
                                  build, direct_product_structure,
                                  free_product_window, split)
from hhspace.model import audit_axioms, trivial_model
from hhspace.spaces import path_graph
from hhspace.treecombine import ComparisonNotUniform, HypothesisFailure, audit_combined


def spec_of(vertices, edges, bases, radius=2, budget=6000):
    return ProductSpec(tuple(vertices),
                       frozenset(frozenset(e) for e in edges),
                       bases, window_radius=radius, budget=budget)


MALFORMED_BASES = [
    {"a": ("Z", 1), "b": ("z", 1)},            # unknown kind (case matters)
    {"a": ("cyclic", 0), "b": ("z", 1)},       # trivial cycle of no vertices
    {"a": ("z", -1), "b": ("z", 1)},           # negative ball radius
    {"a": ("z", 1)},                           # vertex b has no base
]


@pytest.mark.parametrize("bases", MALFORMED_BASES)
def test_spec_rejects_malformed_bases(bases):
    with pytest.raises(ValueError, match="base"):
        spec_of("ab", [("a", "b")], bases)


PATH3 = spec_of("abc", [("a", "b"), ("b", "c")],
                {"a": ("z", 1), "b": ("z", 1), "c": ("z", 1)})


def test_split_pivot_rule():
    sd = split(PATH3)
    assert sd.pivot == "b"
    assert sd.left.vertices == ("a", "c")
    assert sd.link == ("a", "c")


def test_split_rejects_complete_and_disconnected():
    with pytest.raises(NoSplitNeeded):
        split(spec_of("ab", [("a", "b")], {"a": ("cyclic", 2), "b": ("cyclic", 3)}))
    with pytest.raises(NoSplitNeeded):
        split(spec_of("ab", [], {"a": ("cyclic", 2), "b": ("cyclic", 3)}))
    with pytest.raises(NoSplitNeeded):
        split(spec_of("a", [], {"a": ("cyclic", 2)}))


def test_direct_product_fixture_b_exact():
    a = trivial_model(path_graph(0, 1), elt="S1", name="A")
    b = trivial_model(path_graph(0, 2), elt="S2", name="B")
    m = direct_product_structure(a, b)
    lat = m.lattice
    s1, s2 = ("l", "S1"), ("r", "S2")
    v1, v2 = ("V", s1), ("V", s2)
    assert len(lat.elements) == 5
    assert lat.orthogonal(s1, s2)
    assert lat.properly_nested(s1, v2) and lat.properly_nested(s2, v1)
    assert lat.orthogonal(s1, v1) and lat.orthogonal(s2, v2)
    assert lat.transverse(v1, v2)
    assert lat.top_container(s1) == v1
    assert lat.validate_relations().ok
    assert lat.verify_intersection_property().ok
    assert lat.verify_clean_containers().ok
    assert audit_axioms(m).ok


def test_direct_product_wedge_cases():
    # the wedge against a container element: nested stays, otherwise it
    # drops to the wedge with the partner's own container
    a = trivial_model(path_graph(0, 1), elt="S1", name="A")
    b = trivial_model(path_graph(0, 2), elt="S2", name="B")
    m = direct_product_structure(a, b)
    lat = m.lattice
    s1, v1, v2 = ("l", "S1"), ("V", ("l", "S1")), ("V", ("r", "S2"))
    assert lat.wedge(s1, v2) == s1                     # nested case
    from hhspace.lattice import EMPTY
    assert lat.wedge(v1, v2) is EMPTY                  # transverse containers
    assert lat.wedge(("S",), v1) == v1


def test_direct_product_other_factor_projection_bounded():
    a = trivial_model(path_graph(0, 3), elt="S1", name="A")
    b = trivial_model(path_graph(0, 4), elt="S2", name="B")
    m = direct_product_structure(a, b)
    fiber = [(0, y) for y in range(5)]
    img = m.proj[("l", "S1")].image_of_set(fiber)
    assert m.hyp[("l", "S1")].diam_set(img) == 0


def test_complete_graph_build():
    spec = spec_of("ab", [("a", "b")], {"a": ("cyclic", 2), "b": ("cyclic", 3)})
    res = build(spec)
    assert res.cert.ok
    assert res.combined is None
    assert audit_axioms(res.model).ok
    assert len(res.model.lattice.elements) == 5


def test_free_product_build_and_audit():
    spec = spec_of("ab", [], {"a": ("cyclic", 2), "b": ("cyclic", 3)})
    res = build(spec)
    assert res.cert.ok
    rep = audit_combined(res.combined)
    assert rep.ok, rep.summary()
    # seven coset vertices at window radius two
    assert len(res.combined.tree.vertices) == 7


def test_free_product_window_radius_zero():
    t = free_product_window([("cyclic", 2), ("cyclic", 3)], ["a", "b"], 0, 100)
    assert len(t.vertices) == 1


STAR_Z1 = spec_of("abcd", [("a", "b"), ("a", "c"), ("a", "d")],
                  {v: ("z", 1) for v in "abcd"}, radius=1)


def test_window_missing_a_factor_root_is_a_hypothesis_failure():
    # three free factors put each non-root coset two hops out, beyond radius 1
    with pytest.raises(HypothesisFailure) as exc:
        build(STAR_Z1)
    assert exc.value.witness == (("gp", 1, ()), "S")


def test_radius_zero_free_product_is_a_hypothesis_failure():
    spec = spec_of("ab", [], {"a": ("cyclic", 2), "b": ("cyclic", 3)}, radius=0)
    with pytest.raises(HypothesisFailure) as exc:
        build(spec)
    assert exc.value.witness == (("gp", 1, ()), "S")


def test_window_budget():
    with pytest.raises(WindowTooLarge):
        free_product_window([("cyclic", 2), ("cyclic", 3)], ["a", "b"], 6, 20)


def test_three_factor_free_product():
    spec = spec_of("abc", [], {"a": ("cyclic", 2), "b": ("cyclic", 2),
                               "c": ("cyclic", 2)}, radius=2)
    res = build(spec)
    assert res.cert.ok
    assert audit_axioms(res.model).ok


def test_raag_path_certified():
    res = build(PATH3)
    assert res.cert.ok
    cases = [lvl.case for lvl in res.cert.levels]
    assert cases == ["base", "base", "free-product", "amalgam"]
    for lvl in res.cert.levels:
        assert lvl.ip_ok and lvl.cc_ok
        for inc in lvl.inclusions:
            assert inc["full_ok"] and inc["hq_ok"] and inc["iso_ok"]


def test_raag_path_combined_audit():
    res = build(PATH3)
    rep = audit_combined(res.combined)
    assert rep.ok, rep.summary()
    assert res.combined.decorated


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a certified window fails its combined audit")
def test_certified_cyclic2_path_window_passes_its_audit():
    # the path a - b - c with cyclic(2) bases at radius 4 (|X| = 360,
    # |S| = 27) builds with cert.ok, and audit_combined fails wedge-table;
    # a build must either raise a typed failure or pass its own audit
    spec = spec_of("abc", [("a", "b"), ("b", "c")],
                   {v: ("cyclic", 2) for v in "abc"}, radius=4)
    try:
        res = build(spec)
    except (HypothesisFailure, ComparisonNotUniform):
        return
    assert res.cert.ok
    rep = audit_combined(res.combined)
    assert rep.ok, rep.summary()


def test_include_factory():
    res = build(PATH3)
    emb = res.include(("a", "c"))
    from hhspace.embedding import verify_embedding
    assert verify_embedding(emb).ok
    with pytest.raises(HypothesisFailure):
        res.include(("a", "b"))


def test_include_single_free_factor_below_the_amalgam():
    # a and c are the free factors of the link; each inclusion composes the
    # free-product level's factor embedding with the amalgam side
    from hhspace.embedding import verify_embedding
    from hhspace.fixtures import raag_path
    res = raag_path(1)
    for theta in (("a",), ("c",)):
        assert verify_embedding(res.include(theta)).ok


def test_include_spanning_two_free_factors_is_a_hypothesis_failure():
    spec = spec_of("abc", [], {v: ("cyclic", 2) for v in "abc"})
    with pytest.raises(HypothesisFailure, match="several free factors"):
        build(spec).include(("a", "b"))


def test_path4_out_of_scope():
    spec = spec_of("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                   {v: ("z", 1) for v in "abcd"})
    with pytest.raises(HypothesisFailure):
        build(spec)


def test_composite_free_factor_out_of_scope():
    spec = spec_of("abc", [("a", "b")],
                   {"a": ("cyclic", 2), "b": ("cyclic", 2), "c": ("cyclic", 2)})
    with pytest.raises(HypothesisFailure):
        build(spec)


def test_complete_triangle_build():
    spec = spec_of("abc", [("a", "b"), ("b", "c"), ("a", "c")],
                   {"a": ("cyclic", 2), "b": ("cyclic", 2), "c": ("cyclic", 3)})
    res = build(spec)
    assert res.cert.ok
    assert len(res.model.lattice.elements) == 13
    assert audit_axioms(res.model).ok
    assert res.model.lattice.verify_intersection_property().ok
    assert res.model.lattice.verify_clean_containers().ok
    from hhspace.embedding import verify_embedding
    assert verify_embedding(res.include(("a", "b"))).ok
    assert verify_embedding(res.include(("a",))).ok
    # c is the last vertex of the fold a, b, c; a, c is not a prefix of it
    assert verify_embedding(res.include(("c",))).ok
    with pytest.raises(HypothesisFailure, match="not a fold prefix"):
        res.include(("a", "c"))
