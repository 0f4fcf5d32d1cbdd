import hashlib
import itertools

import pytest

from hhspace.graphproduct import (NoSplitNeeded, ProductSpec, WindowTooLarge,
                                  build, direct_product_structure,
                                  free_product_window, split)
from hhspace.fixtures import free_product_z2_z3
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


@pytest.mark.parametrize("vertices, message", [
    (("a", "a"), "repeated vertex 'a'"),
    ((), "at least one vertex"),
], ids=["repeated", "empty"])
def test_spec_rejects_repeated_or_missing_vertex(vertices, message):
    with pytest.raises(ValueError, match=message):
        ProductSpec(vertices, frozenset(), {"a": ("cyclic", 2)})


@pytest.mark.parametrize("field, value", [
    ("window_radius", 2.7), ("window_radius", True), ("window_radius", -3),
    ("window_radius", "2"), ("budget", 0), ("budget", False), ("budget", 1.5)])
def test_spec_rejects_malformed_radius_or_budget(field, value):
    with pytest.raises(ValueError, match=field):
        ProductSpec(("a", "b"), frozenset(), {"a": ("cyclic", 2), "b": ("cyclic", 3)},
                    **{field: value})


def test_spec_takes_the_least_radius_and_budget():
    spec = spec_of("ab", [], {"a": ("cyclic", 2), "b": ("cyclic", 3)}, radius=0, budget=1)
    assert (spec.window_radius, spec.budget) == (0, 1)


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: the product has one container per "
                          "factor element, none for complements of pairs")
def test_join_of_two_free_product_levels_passes_structure():
    # the 4-cycle a - b - c - d - a is the join of {a, c} and {b, d}: its
    # graph product is the direct product of the two free-product levels
    # (|X| = 100, |S| = 13), which fails container-none first at
    # (('V', ('l', ('T', 0))), ('r', ('T', 0)))
    left = build(spec_of("ac", [], {v: ("cyclic", 2) for v in "ac"})).model
    right = build(spec_of("bd", [], {v: ("cyclic", 2) for v in "bd"})).model
    assert audit_axioms(direct_product_structure(left, right)).entry("structure").ok


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
    with pytest.raises(HypothesisFailure, match="no level of the recursion") as exc:
        build(spec).include(("a", "b"))
    assert exc.value.witness == ("a", "b")


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
    with pytest.raises(HypothesisFailure, match="no level of the recursion") as exc:
        res.include(("a", "c"))
    assert exc.value.witness == ("a", "c")


# every nonempty subgraph of five specs: the inclusion either fails with a
# typed witness or is a verified embedding whose index mapping, space-map
# images and hyp-map images hash to the pinned SHA-256 ("fail" marks a
# HypothesisFailure)
INCLUDE_SPECS = {
    "path": lambda: build(spec_of("abc", [("a", "b"), ("b", "c")],
                                  {v: ("z", 1) for v in "abc"}, radius=1)),
    "triangle": lambda: build(spec_of(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")],
        {"a": ("cyclic", 2), "b": ("cyclic", 2), "c": ("cyclic", 3)})),
    "edgeless": lambda: build(spec_of("abc", [], {v: ("cyclic", 2) for v in "abc"})),
    "edge": lambda: build(spec_of("ab", [("a", "b")],
                                  {"a": ("cyclic", 3), "b": ("z", 1)})),
    "z2z3": lambda: free_product_z2_z3(),
}

INCLUDE_GOLDEN = {
    "path": {
        "a": "9bb13c73b39c83c97c1e98177323e015d6e2c5f7a34920eff60f7551ee0d650e",
        "b": "fail",
        "c": "7d860899aff73ddf384f9a62f521741660a823abbd0d0f3e1741ef60bfec286a",
        "ab": "fail",
        "ac": "90165a9bc5b8d02366d64fbb12cceb785bd93ee9a24e274ef877921c1abd724d",
        "bc": "fail",
        "abc": "ead125d8fe3409245f4a5b136e1d4cd71902266fd48e6f6b1d0daecce517b5d9",
    },
    "triangle": {
        "a": "6126e82f8bf77c9c1545ef86e0656401f2cb43ca8ed58b0bf1e1635cbf1b544b",
        "b": "1c8626485888149ae73fbc8dbea5e4d3d225f208b4694d0c9b58475993e86894",
        "c": "1d9cf2cb87f1f7d120ce0a292e72596ecf035f3255c2b7d96ae71ad52501ac65",
        "ab": "c07d39a97003da39ea0c78c2e1632b2a369ed8c3a3cc6c806b4dd890fa8dcab1",
        "ac": "fail",
        "bc": "fail",
        "abc": "2f14275d7ee39550ca232254e3da616a1f91ca4a9287595771fa7e93050f8dda",
    },
    "edgeless": {
        "a": "71c4c325574831e3bb91bcddc13ab0d0babf784dc7c20c8bb2320f2381ff5799",
        "b": "50955930f3327eb5171100da58d0e2a039dd0edab47b70c7bb05f8adeeee931b",
        "c": "9fd992f92bef875eac0606afbd6a0b5a6aa76f2d8ff2c64a775c4a97fc731ade",
        "ab": "fail",
        "ac": "fail",
        "bc": "fail",
        "abc": "85eaa632011c841595f79076fd0f1b9f603dcecebef4fd95f9b867595d552b3c",
    },
    "edge": {
        "a": "5b6f1b1da69965d8c1a291ccbbec859236b65caf98cd02b0ba5323c4674c9206",
        "b": "a254b1b486b15436f9fbc0cfd4b97f05abe82dbd9eac960dc6a0b070aa23201d",
        "ab": "47240771d62250ac408fecf33c4767bba048dc6d4acf13c57adb6e0823ce044a",
    },
    "z2z3": {
        "a": "82099cd0509e34565b31e114eca1f9475c7a4881fd64a8d7391556864911158e",
        "b": "7692fe9c807354213cbaf493e258d45230eb3896844e3372866414ba381a8d21",
        "ab": "ee9624977cf0051dcec0ee23e8aa5c301d561195211ca6b5602f7fef117c757c",
    },
}


def _embedding_digest(emb):
    """SHA-256 of the index mapping and the point images of the space map
    and of every hyperbolic map, in source order, images sorted by repr."""
    def images(m):
        return [(repr(x), sorted(map(repr, m(x)))) for x in m.domain.vertices]
    elements = emb.source.elements
    data = [[(repr(U), repr(emb.index_map(U))) for U in elements],
            images(emb.space_map),
            [(repr(U), images(emb.hyp_maps[U])) for U in elements]]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INCLUDE_SPECS))
def test_include_every_subgraph(name):
    from hhspace.embedding import verify_embedding
    res = INCLUDE_SPECS[name]()
    vertices = res.cert.levels[-1].subgraph
    got = {}
    for k in range(1, len(vertices) + 1):
        for theta in itertools.combinations(vertices, k):
            try:
                emb = res.include(theta)
            except HypothesisFailure as exc:
                assert exc.witness == theta
                got["".join(theta)] = "fail"
                continue
            assert verify_embedding(emb).ok, theta
            got["".join(theta)] = _embedding_digest(emb)
    assert got == INCLUDE_GOLDEN[name]
