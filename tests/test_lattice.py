import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhspace.lattice import (EMPTY, IndexLattice, MissingRelation, NotALattice,
                             singleton_lattice)


def product_of_points_lattice():
    """The 5-element index set of a product of two one-element structures:
    factor maximals S1, S2, their orthogonal containers V1, V2, and a top S."""
    return IndexLattice(
        ["S1", "S2", "V1", "V2", "S"], "S",
        nested_pairs=[("S1", "V2"), ("S2", "V1"),
                      ("S1", "S"), ("S2", "S"), ("V1", "S"), ("V2", "S")],
        orth_pairs=[("S1", "S2"), ("S1", "V1"), ("S2", "V2")],
        name="fixtureB")


def test_singleton_valid():
    lat = singleton_lattice()
    assert lat.validate_relations().ok
    assert lat.complexity() == 1
    assert lat.verify_intersection_property().ok
    assert lat.verify_clean_containers().ok


def test_fixture_b_valid():
    lat = product_of_points_lattice()
    assert lat.validate_relations().ok
    assert lat.verify_intersection_property().ok
    assert lat.verify_clean_containers().ok


def test_fixture_b_containers():
    lat = product_of_points_lattice()
    assert lat.top_container("S1") == "V1"
    assert lat.top_container("S2") == "V2"
    assert lat.top_container("V1") == "S1"
    assert ("V1", "S2") not in lat.containers


def test_fixture_b_complexity():
    # longest chain: S1 nested in V2 nested in S (enumerated by hand)
    assert product_of_points_lattice().complexity() == 3


def test_chain_complexity():
    n = 6
    lat = IndexLattice(range(n), n - 1, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert lat.complexity() == n
    assert lat.complexity() <= len(lat.elements)


def test_wedge_with_maximal_and_idempotence():
    lat = product_of_points_lattice()
    for u in lat.elements:
        assert lat.wedge("S", u) == u
        assert lat.wedge(u, u) == u
        assert lat.join(u, "S") == "S"
        assert lat.join(u, u) == u


def test_fixture_b_wedges():
    lat = product_of_points_lattice()
    assert lat.wedge("S1", "V2") == "S1"
    assert lat.wedge("S1", "S2") is EMPTY
    assert lat.wedge("V1", "V2") is EMPTY
    assert lat.join("S1", "S2") == "S"


def test_random_wedge_against_brute_force():
    lat = IndexLattice(
        ["a", "b", "c", "d", "e", "S"], "S",
        nested_pairs=[("a", "b"), ("a", "c"), ("b", "S"), ("c", "S"),
                      ("d", "c"), ("e", "b"), ("a", "S"), ("d", "S"), ("e", "S")])
    for u in lat.elements:
        for v in lat.elements:
            commons = [w for w in lat.elements if lat.nested(w, u) and lat.nested(w, v)]
            maximal = [w for w in commons
                       if not any(x != w and lat.nested(w, x) for x in commons)]
            got = lat.wedge(u, v)
            if not commons:
                assert got is EMPTY
            else:
                assert [got] == maximal


def test_two_meet_diamond_is_not_a_lattice():
    lat = IndexLattice(
        ["X", "Y", "A", "B", "S"], "S",
        nested_pairs=[("X", "A"), ("X", "B"), ("Y", "A"), ("Y", "B"),
                      ("X", "S"), ("Y", "S"), ("A", "S"), ("B", "S")])
    with pytest.raises(NotALattice):
        lat.wedge("A", "B")
    rep = lat.verify_intersection_property()
    assert not rep.ok
    assert any(v.rule == "wedge-not-unique" for v in rep.violations)


def test_wedge_and_join_caches_fill_on_use():
    lat = IndexLattice(
        ["X", "Y", "A", "B", "S"], "S",
        nested_pairs=[("X", "A"), ("X", "B"), ("Y", "A"), ("Y", "B"),
                      ("X", "S"), ("Y", "S"), ("A", "S"), ("B", "S")])
    assert lat._wedge_cache == {} and lat._join_cache == {}
    assert lat.wedge("X", "A") == "X" and lat.join("X", "A") == "A"
    assert lat._wedge_cache == {frozenset(("X", "A")): "X"}
    assert lat._join_cache == {frozenset(("X", "A")): "A"}
    for _ in range(2):      # pairs without a unique answer are never cached
        with pytest.raises(NotALattice):
            lat.wedge("A", "B")
        with pytest.raises(NotALattice):
            lat.join("X", "Y")
    assert len(lat._wedge_cache) == len(lat._join_cache) == 1


def test_orthogonality_inheritance_violation():
    lat = IndexLattice(
        ["A", "B", "C", "S"], "S",
        nested_pairs=[("A", "B"), ("A", "S"), ("B", "S"), ("C", "S")],
        orth_pairs=[("B", "C")])
    rep = lat.validate_relations()
    assert any(v.rule == "orthogonality-inheritance" and v.witness == ("A", "B", "C")
               for v in rep.violations)


def test_dirty_container_detected():
    # the only element above both partners of A is B, which contains A itself,
    # so the computed container is not orthogonal to A
    lat = IndexLattice(
        ["A", "B", "C", "D", "S"], "S",
        nested_pairs=[("A", "B"), ("C", "B"), ("D", "B"),
                      ("A", "S"), ("B", "S"), ("C", "S"), ("D", "S")],
        orth_pairs=[("A", "C"), ("A", "D")])
    assert lat.top_container("A") == "B"
    rep = lat.verify_clean_containers()
    assert any(v.rule == "container-not-clean" for v in rep.violations)


def test_strict_totality():
    with pytest.raises(MissingRelation):
        IndexLattice(["A", "B", "S"], "S",
                     nested_pairs=[("A", "S"), ("B", "S")], strict_total=True)
    IndexLattice(["A", "B", "S"], "S",
                 nested_pairs=[("A", "S"), ("B", "S")],
                 trans_pairs=[("A", "B")], strict_total=True)


def test_restrict():
    lat = product_of_points_lattice()
    sub = lat.restrict(["S1", "V2", "S"])
    assert sub.maximal == "S"
    assert sub.nested("S1", "V2")


def test_hasse_pairs():
    lat = product_of_points_lattice()
    assert ("S1", "V2") in lat.hasse_pairs()
    assert ("S1", "S") not in lat.hasse_pairs()  # not a covering pair
    assert "digraph" in lat.hasse_dot()


# -- randomized structural properties ---------------------------------------

@st.composite
def random_lattices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    elems = list(range(n)) + ["S"]
    nested = set()
    for i in range(n):
        nested.add((i, "S"))
        for j in range(i + 1, n):
            if draw(st.booleans()):
                nested.add((i, j))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(nested):
            for (c, d) in list(nested):
                if b == c and a != d and (a, d) not in nested:
                    nested.add((a, d))
                    changed = True
    comparable = {frozenset((a, b)) for a, b in nested}
    orth = set()
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((i, j)) not in comparable and draw(st.booleans()):
                orth.add(frozenset((i, j)))
    # close under inheritance, discarding draws that force an orth pair to
    # be comparable
    changed = True
    while changed:
        changed = False
        for (v, w) in list(nested):
            for p in list(orth):
                if w in p:
                    (u,) = p - {w}
                    if u != v and frozenset((v, u)) not in orth:
                        assume(frozenset((v, u)) not in comparable)
                        orth.add(frozenset((v, u)))
                        changed = True
    lat = IndexLattice(elems, "S", nested, [tuple(p) for p in orth])
    assume(lat.validate_relations().ok)
    return lat


@settings(max_examples=60, deadline=None)
@given(random_lattices())
def test_wedge_properties_random(lat):
    assume(lat.verify_intersection_property().ok)
    for u in lat.elements:
        for v in lat.elements:
            w = lat.wedge(u, v)
            assert w is lat.wedge(v, u) or w == lat.wedge(v, u)
            if w is not EMPTY:
                assert lat.nested(w, u) and lat.nested(w, v)
            assert (lat.wedge(u, v) == v) == lat.nested(v, u)
            if lat.orthogonal(u, v):
                assert w is EMPTY


@settings(max_examples=60, deadline=None)
@given(random_lattices())
def test_join_monotone_random(lat):
    assume(lat.verify_intersection_property().ok)
    try:
        joins = {(u, v): lat.join(u, v) for u in lat.elements for v in lat.elements}
    except NotALattice:
        assume(False)
    for u in lat.elements:
        for up in lat.elements:
            if not lat.nested(u, up):
                continue
            for v in lat.elements:
                assert lat.nested(joins[(u, v)], joins[(up, v)])


@settings(max_examples=40, deadline=None)
@given(random_lattices())
def test_complexity_bounded_random(lat):
    assert 1 <= lat.complexity() <= len(lat.elements)


def _longest_chain_brute_force(lat, subset):
    subset = sorted(subset, key=str)
    best = 0
    for k in range(len(subset) + 1):
        for chain in itertools.combinations(subset, k):
            if all(lat.nested(a, b) or lat.nested(b, a)
                   for a, b in itertools.combinations(chain, 2)):
                best = k
    return best


@settings(max_examples=60, deadline=None)
@given(random_lattices(), st.data())
def test_longest_chain_matches_brute_force(lat, data):
    subset = data.draw(st.sets(st.sampled_from(lat.elements)))
    assert lat.longest_chain(subset) == _longest_chain_brute_force(lat, subset)
    assert lat.complexity() == lat.longest_chain(lat.elements) \
        == _longest_chain_brute_force(lat, lat.elements)
