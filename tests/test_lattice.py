import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhspace.fixtures import fixture_b_product, free_product_z2_z3, random_valid_lattice
from hhspace.indexmaps import IndexMap, verify_wedge_join_commute
from hhspace.lattice import (EMPTY, NESTED, ORTH, TRANS, EQUAL, IndexLattice,
                             MissingRelation, NotALattice, ValidationReport,
                             Violation, singleton_lattice)
from hhspace.spaces import sort_key, vkey


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
    assert lat._bounds is None      # no wedge or join table before the first use
    assert lat.wedge("X", "A") == "X"
    tables = lat.bound_tables()
    assert set(tables) == {"wedge", "join"}
    assert all(t.shape == (5, 5) for t in tables.values())
    assert lat.join("X", "A") == "A" and lat.bound_tables() is tables
    assert lat.join("X", "S") == "S"
    for _ in range(2):      # a pair without a unique answer raises every time
        with pytest.raises(NotALattice) as exc:
            lat.wedge("A", "B")
        assert (exc.value.kind, exc.value.pair, sorted(exc.value.candidates)) \
            == ("wedge", ("A", "B"), ["X", "Y"])
        with pytest.raises(NotALattice) as exc:
            lat.join("X", "Y")
        assert sorted(exc.value.candidates) == ["A", "B"]
    assert lat.bound_tables() is tables
    fresh = IndexLattice(["X", "A", "S"], "S", [("X", "A"), ("A", "S")])
    assert fresh._bounds is None
    assert fresh.join("X", "A") == "A" and fresh._bounds is not None


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


def test_relations_naming_non_elements_or_declared_twice_are_value_errors():
    with pytest.raises(ValueError, match="not an element"):
        IndexLattice(["A", "S"], "S", nested_pairs=[("A", "S"), ("zzz", "S")])
    with pytest.raises(ValueError, match="not an element"):
        IndexLattice(["A", "S"], "S", nested_pairs=[("A", "S")], orth_pairs=[("A", ("A",))])
    for twice in ({"orth_pairs": [("A", "B")], "trans_pairs": [("B", "A")]},
                  {"nested_pairs": [("A", "S"), ("B", "S"), ("A", "B")],
                   "trans_pairs": [("A", "B")]}):
        kwargs = {"nested_pairs": [("A", "S"), ("B", "S")], **twice}
        with pytest.raises(ValueError, match="declared more than once"):
            IndexLattice(["A", "B", "S"], "S", strict_total=True, **kwargs)
        IndexLattice(["A", "B", "S"], "S", **kwargs)    # the lenient path accepts it
    # a pair the nesting closure implies counts as declared, and once
    lat = IndexLattice(["A", "B", "S"], "S", nested_pairs=[("A", "B"), ("B", "S")],
                       strict_total=True)
    assert lat.nested("A", "S")


def test_transverse_declaration_of_a_pair_the_closure_nests_is_a_value_error():
    # A < B < S nests A in S, so a strict "A trans S" contradicts the closure
    for pair in (("A", "S"), ("S", "A")):
        with pytest.raises(ValueError, match=re.escape(
                "pair %r is declared transverse but is nested" % (pair,))):
            IndexLattice(["A", "B", "S"], "S", nested_pairs=[("A", "B"), ("B", "S")],
                         trans_pairs=[pair], strict_total=True)
    # two steps of the chain A < B < C < S nest A in C as well
    with pytest.raises(ValueError, match=re.escape("pair ('A', 'C') is declared transverse")):
        IndexLattice("ABCS", "S", nested_pairs=[("A", "B"), ("B", "C"), ("C", "S")],
                     trans_pairs=[("A", "C")], strict_total=True)
    # the lenient path ignores transverse declarations, as before
    lat = IndexLattice(["A", "B", "S"], "S", nested_pairs=[("A", "B"), ("B", "S")],
                       trans_pairs=[("A", "S")])
    assert lat.rel("A", "S") == NESTED


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


# -- the pair-set lattice as the reference of the table lattice ---------------


class _SetLattice:
    """The pair-set IndexLattice that the table lattice replaced, kept as
    the reference: relations as sets of label pairs, wedges and joins
    pair by pair.

    Constructor arguments:
      elements      iterable of hashable ids
      maximal       the unique nesting-maximal element
      nested_pairs  iterable of (a, b) meaning a is properly nested in b
      orth_pairs    iterable of unordered orthogonal pairs
      strict_total  when True, every distinct pair must appear in
                    nested_pairs or orth_pairs or trans_pairs, otherwise
                    MissingRelation is raised (the JSON loading path);
                    when False the remaining pairs default to transverse.

    The orthogonal containers {(Z, U): W}, W the unique minimal element
    below Z above all orthogonal partners of U, are computed here.
    """

    def __init__(self, elements, maximal, nested_pairs=(), orth_pairs=(),
                 trans_pairs=(), strict_total=False, name=""):
        self.name = name
        self.elements = tuple(sorted(set(elements), key=sort_key()))
        self.pos = {e: i for i, e in enumerate(self.elements)}
        if maximal not in self.pos:
            raise ValueError("maximal element %r not among elements" % (maximal,))
        self.maximal = maximal

        self._nest = set()  # (a, b) with a properly nested in b
        for a, b in nested_pairs:
            if a != b:
                self._nest.add((a, b))
        self._close_nesting()
        self._orth = set()
        for a, b in orth_pairs:
            self._orth.add(frozenset((a, b)))
        declared = {frozenset(p) for p in trans_pairs}

        if strict_total:
            seen = {frozenset((a, b)) for a, b in self._nest} | self._orth | declared
            for i, a in enumerate(self.elements):
                for b in self.elements[i + 1:]:
                    if frozenset((a, b)) not in seen:
                        raise MissingRelation("pair (%r, %r) has no declared relation" % (a, b))

        self._wedge_cache = {}
        self._join_cache = {}
        self._below = {e: frozenset(x for x in self.elements if self.nested(x, e))
                       for e in self.elements}
        self._above = {e: frozenset(x for x in self.elements if self.nested(e, x))
                       for e in self.elements}

        self.container_problems = []
        self.containers = self._compute_containers()

    # -- relations ---------------------------------------------------------

    def _close_nesting(self):
        changed = True
        while changed:
            changed = False
            for (a, b) in list(self._nest):
                for (c, d) in list(self._nest):
                    if b == c and a != d and (a, d) not in self._nest:
                        self._nest.add((a, d))
                        changed = True

    def nested(self, a, b):
        """a nested in b, reflexively."""
        return a == b or (a, b) in self._nest

    def properly_nested(self, a, b):
        return (a, b) in self._nest

    def orthogonal(self, a, b):
        return frozenset((a, b)) in self._orth

    def rel(self, a, b):
        if a == b:
            return EQUAL
        if (a, b) in self._nest or (b, a) in self._nest:
            return NESTED
        if frozenset((a, b)) in self._orth:
            return ORTH
        return TRANS

    def transverse(self, a, b):
        return self.rel(a, b) == TRANS

    def below(self, e):
        """All elements nested in e (including e itself)."""
        return self._below[e]

    def above(self, e):
        return self._above[e]

    def nest_pairs(self):
        """The properly nested pairs (a, b), in vkey order."""
        return sorted(self._nest, key=lambda p: (vkey(p[0]), vkey(p[1])))

    def orth_pairs(self):
        """The orthogonal pairs as frozensets, in vkey order."""
        return sorted(self._orth, key=lambda p: sorted(map(vkey, p)))

    def relations_by_position(self):
        """(maximal, nested, orth) by element position: with the number of
        elements they fix the lattice up to relabelling. nested holds the
        properly nested pairs, orth the orthogonal pairs as frozensets."""
        pos = self.pos
        return (pos[self.maximal],
                frozenset((pos[a], pos[b]) for a, b in self._nest),
                frozenset(frozenset(map(pos.__getitem__, p)) for p in self._orth))

    # -- containers --------------------------------------------------------

    def _compute_containers(self):
        out = {}
        for z in self.elements:
            zone = self.below(z)
            for u in sorted(zone, key=vkey):
                partners = [v for v in zone if self.orthogonal(u, v)]
                if not partners:
                    continue
                cands = [w for w in zone if w != z
                         and all(self.nested(v, w) for v in partners)]
                minimal = [w for w in cands
                           if not any(c != w and self.nested(c, w) for c in cands)]
                if len(minimal) == 1:
                    out[(z, u)] = minimal[0]
                else:
                    self.container_problems.append(
                        Violation("container-ambiguous" if minimal else "container-none",
                                  (z, u), "candidates %s" % sorted(minimal, key=vkey)))
        return out

    def top_container(self, u):
        """cont(u) in the whole lattice (container within the maximal element)."""
        return self.containers.get((self.maximal, u))

    # -- validation --------------------------------------------------------

    def validate_relations(self):
        """Check the structural rules; every failure is listed with witnesses."""
        rep = ValidationReport("lattice:%s" % self.name)
        nest = self.nest_pairs()
        for a, b in nest:
            if (b, a) in self._nest:
                rep.add("nesting-antisymmetry", (a, b))
        for (a, b) in nest:
            for c in self.elements:
                if (b, c) in self._nest and a != c and (a, c) not in self._nest:
                    rep.add("nesting-transitivity", (a, b, c))
        for e in self.elements:
            if e != self.maximal and (e, self.maximal) not in self._nest:
                rep.add("unique-maximal", (e,), "not nested in %r" % (self.maximal,))
        for p in self.orth_pairs():
            if len(p) == 1:
                rep.add("orthogonality-antireflexive", tuple(p))
        for a in self.elements:
            for b in self.elements:
                if a != b and self.orthogonal(a, b) and self.rel(a, b) == NESTED:
                    rep.add("relation-exclusive", (a, b), "both nested and orthogonal")
        # orthogonality inheritance: v nested in w and w orth u force v orth u
        for (v, w) in nest:
            for u in self.elements:
                if self.orthogonal(w, u) and not self.orthogonal(v, u) and v != u:
                    rep.add("orthogonality-inheritance", (v, w, u))
        for prob in self.container_problems:
            rep.violations.append(prob)
        for (z, u), w in sorted(self.containers.items(), key=lambda kv: vkey(kv[0])):
            if w == z:
                rep.add("container-equals-ambient", (z, u))
            if not self.nested(w, z):
                rep.add("container-not-nested", (z, u, w))
            for v in self.below(z):
                if self.orthogonal(v, u) and not self.nested(v, w):
                    rep.add("container-misses-partner", (z, u, v), "container %r" % (w,))
        return rep

    def longest_chain(self, subset):
        """Length of the longest chain of pairwise nested elements of subset
        (0 when it is empty)."""
        subset = frozenset(subset)
        order = sorted(subset, key=lambda e: (len(self.below(e) & subset), vkey(e)))
        longest = {}
        for e in order:
            longest[e] = 1 + max((longest[x] for x in self.below(e) & subset
                                  if x != e), default=0)
        return max(longest.values(), default=0)

    # -- wedge / join ------------------------------------------------------

    def wedge(self, u, v):
        """The unique maximal common lower bound, or EMPTY."""
        key = frozenset((u, v))
        if key in self._wedge_cache:
            return self._wedge_cache[key]
        commons = self.below(u) & self.below(v)
        if not commons:
            out = EMPTY
        else:
            maximal = [w for w in commons
                       if not any(c != w and self.nested(w, c) for c in commons)]
            if len(maximal) != 1:
                raise NotALattice("wedge", (u, v), maximal)
            out = maximal[0]
        self._wedge_cache[key] = out
        return out

    def join(self, u, v):
        """The unique minimal common upper bound (the maximal element is always
        an upper bound, so the join always exists when unique)."""
        key = frozenset((u, v))
        if key in self._join_cache:
            return self._join_cache[key]
        commons = self.above(u) & self.above(v)
        minimal = [w for w in commons
                   if not any(c != w and self.nested(c, w) for c in commons)]
        if len(minimal) != 1:
            raise NotALattice("join", (u, v), minimal)
        self._join_cache[key] = minimal[0]
        return minimal[0]

    def wedge_sentinel(self, u, v):
        """Wedge extended to the EMPTY sentinel."""
        if u is EMPTY or v is EMPTY:
            return EMPTY
        return self.wedge(u, v)

    def verify_intersection_property(self):
        """Check the wedge axioms for the computed wedge: commutativity,
        associativity, nestedness of the wedge, and that common lower bounds
        are nested in the wedge. Non-unique wedges are reported, not raised."""
        rep = ValidationReport("intersection-property:%s" % self.name)
        table = {}
        for i, u in enumerate(self.elements):
            for v in self.elements[i:]:
                try:
                    table[(u, v)] = table[(v, u)] = self.wedge(u, v)
                except NotALattice as exc:
                    rep.add("wedge-not-unique", (u, v), str(exc))
        if not rep.ok:
            return rep
        for u in self.elements:
            for v in self.elements:
                w = table[(u, v)]
                if w is not EMPTY:
                    if not (self.nested(w, u) and self.nested(w, v)):
                        rep.add("wedge-not-nested", (u, v, w))
                if self.orthogonal(u, v) and w is not EMPTY:
                    rep.add("wedge-orthogonal-nonempty", (u, v, w))
                if self.nested(v, u) and w != v:
                    rep.add("wedge-of-nested", (u, v), "expected %r, got %r" % (v, w))
                for z in self.elements:
                    if self.nested(z, u) and self.nested(z, v):
                        if w is EMPTY or not self.nested(z, w):
                            rep.add("wedge-misses-lower-bound", (u, v, z))
        for u in self.elements:
            for v in self.elements:
                for w in self.elements:
                    left = self.wedge_sentinel(table[(u, v)], w)
                    right = self.wedge_sentinel(u, table[(v, w)])
                    if left is not right and left != right:
                        rep.add("wedge-associativity", (u, v, w),
                                "%r vs %r" % (left, right))
        return rep

    def verify_clean_containers(self):
        """Containers are orthogonal to their argument; the lower container
        formula cont^U(V) = U ^ cont(V) holds; orthogonality is closed under
        joins: u orth w and v orth w imply (u v-join) orth w."""
        rep = ValidationReport("clean-containers:%s" % self.name)
        for (z, u), w in sorted(self.containers.items(), key=lambda kv: vkey(kv[0])):
            if not self.orthogonal(u, w):
                rep.add("container-not-clean", (z, u, w))
        for u in self.elements:
            # the pair-set lattice iterated the frozenset below(u), whose
            # order follows the string hash; the table lattice reads
            # positions, which are vkey order
            for v in sorted(self.below(u), key=vkey):
                top = self.top_container(v)
                low = self.containers.get((u, v))
                if top is None:
                    if low is not None:
                        rep.add("lower-container-formula", (u, v),
                                "lower container exists but no top container")
                    continue
                try:
                    expect = self.wedge(u, top)
                except NotALattice as exc:
                    rep.add("lower-container-formula", (u, v), str(exc))
                    continue
                if low is None:
                    if expect is not EMPTY and any(
                            self.orthogonal(v, x) for x in self.below(u)):
                        rep.add("lower-container-formula", (u, v),
                                "expected %r, container missing" % (expect,))
                elif expect != low:
                    rep.add("lower-container-formula", (u, v),
                            "expected %r, got %r" % (expect, low))
        for w in self.elements:
            orth_w = [x for x in self.elements if self.orthogonal(x, w)]
            for i, u in enumerate(orth_w):
                for v in orth_w[i:]:
                    try:
                        j = self.join(u, v)
                    except NotALattice:
                        continue
                    if not self.orthogonal(j, w):
                        rep.add("join-orthogonality-closure", (u, v, w),
                                "join %r not orthogonal to %r" % (j, w))
        return rep

    # -- derived -----------------------------------------------------------

    def restrict(self, keep, maximal=None, name=""):
        """Sublattice on a nesting-closed subset."""
        keep = frozenset(keep)
        top = maximal
        if top is None:
            tops = [e for e in keep
                    if all(self.nested(x, e) for x in keep)]
            if len(tops) != 1:
                raise ValueError("restriction has no unique maximal element")
            top = tops[0]
        nested = [(a, b) for (a, b) in self._nest if a in keep and b in keep]
        orth = [tuple(p) for p in self._orth if all(x in keep for x in p)]
        return _SetLattice(keep, top, nested, orth, name=name or self.name + "|sub")

    def hasse_pairs(self):
        """Covering pairs of the nesting order, for Hasse-diagram export."""
        out = []
        for (a, b) in self.nest_pairs():
            if not any((a, c) in self._nest and (c, b) in self._nest
                       for c in self.elements):
                out.append((a, b))
        return out


def _set_verify_wedge_join_commute(m):
    """verify_wedge_join_commute as it was for the pair-set lattice: a
    wedge and a join per pair."""
    rep = ValidationReport("wedge-join-commute:%s" % m.name)
    for i, a in enumerate(m.source.elements):
        for b in m.source.elements[i:]:
            try:
                src = m.source.wedge(a, b)
                tgt = m.target.wedge(m.mapping[a], m.mapping[b])
            except NotALattice as exc:
                rep.add("wedge-undefined", (a, b), str(exc))
                continue
            want = EMPTY if src is EMPTY else m.mapping[src]
            if (want is EMPTY) != (tgt is EMPTY) or (want is not EMPTY and want != tgt):
                rep.add("wedge-not-preserved", (a, b), "%r vs %r" % (want, tgt))
            try:
                srcj = m.source.join(a, b)
                tgtj = m.target.join(m.mapping[a], m.mapping[b])
            except NotALattice as exc:
                rep.add("join-undefined", (a, b), str(exc))
                continue
            if m.mapping[srcj] != tgtj:
                rep.add("join-not-preserved", (a, b),
                        "%r vs %r" % (m.mapping[srcj], tgtj))
    return rep


def _random_inputs(seed, n=None):
    """Seeded lattice inputs (elements, maximal, nested, orth) on n + 1
    elements, valid or not: random nesting with an occasional cycle,
    orthogonality on random pairs (self pairs, nested pairs and uninherited
    pairs included), and labels of mixed kinds. Diamonds, missing and
    ambiguous containers and non-unique joins come up on their own."""
    rng = random.Random(seed)
    n = rng.randint(1, 8) if n is None else n
    label = [lambda i: i, lambda i: "e%d" % i, lambda i: ("t", i % 3, i)][seed % 3]
    elems = [label(i) for i in range(n)] + ["S"]
    nested = [(elems[i], "S") for i in range(n) if rng.random() < 0.95]
    nested += [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)
               if rng.random() < 0.35]
    if n > 1 and rng.random() < 0.2:
        i, j = sorted(rng.sample(range(n), 2))
        nested.append((elems[j], elems[i]))      # a nesting cycle
    orth = [(elems[i], elems[j]) for i in range(n) for j in range(i, n)
            if rng.random() < (0.02 if i == j else 0.25)]
    return elems, "S", nested, orth


def _valid_inputs(seed):
    lat = random_valid_lattice(seed, n=7)
    return lat.elements, lat.maximal, lat.nest_pairs(), [tuple(p) for p in lat.orth_pairs()]


def _outcome(f, *args):
    """f(*args), or the kind, pair and candidate set of its NotALattice."""
    try:
        return f(*args)
    except NotALattice as exc:
        return ("NotALattice", exc.kind, exc.pair, frozenset(exc.candidates))


def _violations(violations):
    return [(v.rule, v.witness, v.detail) for v in violations]


def _assert_same_lattice(lat, ref):
    assert lat.elements == ref.elements and lat.maximal == ref.maximal
    assert lat.nest_pairs() == ref.nest_pairs()
    assert lat.orth_pairs() == ref.orth_pairs()
    assert list(lat.containers.items()) == list(ref.containers.items())
    assert _violations(lat.container_problems) == _violations(ref.container_problems)


def _assert_matches_reference(args, other_args):
    lat, ref = IndexLattice(*args), _SetLattice(*args)
    _assert_same_lattice(lat, ref)
    labels = list(lat.elements) + ["zzz"]
    for a in labels:
        if a != "zzz":
            assert lat.below(a) == ref.below(a) and lat.above(a) == ref.above(a)
        for b in labels:
            for query in ("nested", "properly_nested", "orthogonal", "rel", "transverse"):
                assert getattr(lat, query)(a, b) == getattr(ref, query)(a, b), (query, a, b)
    for a in lat.elements:
        for b in lat.elements:
            for kind in ("wedge", "join"):
                assert _outcome(getattr(lat, kind), a, b) \
                    == _outcome(getattr(ref, kind), a, b), (kind, a, b)
    assert lat.hasse_pairs() == ref.hasse_pairs()
    for check in ("validate_relations", "verify_intersection_property",
                  "verify_clean_containers"):
        assert _violations(getattr(lat, check)().violations) \
            == _violations(getattr(ref, check)().violations), check
    cyclic = any(v.rule == "nesting-antisymmetry" for v in lat.validate_relations().violations)
    if not cyclic:      # the pair-set longest_chain needs an order without cycles
        assert lat.longest_chain(lat.elements) == ref.longest_chain(ref.elements)
        for e in lat.elements:
            part = [x for x in lat.elements if x != e]
            assert lat.longest_chain(part) == ref.longest_chain(part)
    for e in lat.elements:
        for top in (e, None):
            try:
                want = ref.restrict(ref.below(e), maximal=top)
            except ValueError as exc:
                # the pair-set restrict could not unpack a self-orthogonal
                # pair; the table lattice restricts it
                if "unique maximal" in str(exc):
                    with pytest.raises(ValueError, match="unique maximal"):
                        lat.restrict(lat.below(e), maximal=top)
                continue
            _assert_same_lattice(lat.restrict(lat.below(e), maximal=top), want)
    other, other_ref = IndexLattice(*other_args), _SetLattice(*other_args)
    for tgt, tgt_ref in ((lat, ref), (other, other_ref)):
        if len(tgt.elements) != len(lat.elements):
            continue
        mapping = dict(zip(lat.elements, tgt.elements))
        assert _violations(verify_wedge_join_commute(IndexMap(lat, tgt, mapping)).violations) \
            == _violations(_set_verify_wedge_join_commute(
                IndexMap(ref, tgt_ref, mapping)).violations)


@pytest.mark.parametrize("seed", range(40))
def test_table_lattice_matches_pair_set_reference_on_random_inputs(seed):
    args = _random_inputs(seed)
    _assert_matches_reference(args, _random_inputs(seed + 1000, n=len(args[0]) - 1))


@pytest.mark.parametrize("seed", range(15))
def test_table_lattice_matches_pair_set_reference_on_valid_lattices(seed):
    _assert_matches_reference(_valid_inputs(seed), _valid_inputs(seed + 1000))


def test_table_lattice_matches_pair_set_reference_on_fixtures():
    diamond = (["X", "Y", "A", "B", "S"], "S",
               [("X", "A"), ("X", "B"), ("Y", "A"), ("Y", "B"),
                ("X", "S"), ("Y", "S"), ("A", "S"), ("B", "S")], [])
    fixture_b = product_of_points_lattice()
    fixture_b = (fixture_b.elements, fixture_b.maximal, fixture_b.nest_pairs(),
                 [tuple(p) for p in fixture_b.orth_pairs()])
    _assert_matches_reference(diamond, fixture_b)
    _assert_matches_reference(fixture_b, diamond)
    lat = free_product_z2_z3(2).combined.model.lattice
    _assert_matches_reference((lat.elements, lat.maximal, lat.nest_pairs(),
                               [tuple(p) for p in lat.orth_pairs()]), diamond)


def test_pair_set_reference_sees_the_invalid_inputs():
    # the random inputs reach every structural rule and both container
    # problems, so the comparison above covers them
    rules = set()
    for seed in range(40):
        lat = IndexLattice(*_random_inputs(seed))
        for rep in (lat.validate_relations(), lat.verify_intersection_property(),
                    lat.verify_clean_containers()):
            rules |= {v.rule for v in rep.violations}
    assert {"nesting-antisymmetry", "unique-maximal", "orthogonality-antireflexive",
            "relation-exclusive", "orthogonality-inheritance", "container-none",
            "container-ambiguous", "wedge-not-unique"} <= rules


def test_relations_by_position_equal_exactly_when_the_pair_set_triple_is():
    inputs = [_random_inputs(seed) for seed in range(40)]
    # relabelling every label x as ("r", x) keeps the vkey order of the labels
    inputs += [([("r", e) for e in elems], ("r", top), [(("r", a), ("r", b)) for a, b in nest],
                [(("r", a), ("r", b)) for a, b in orth])
               for elems, top, nest, orth in inputs[:20]]
    keys = [(IndexLattice(*args).relations_by_position(),
             (len(set(args[0])),) + _SetLattice(*args).relations_by_position())
            for args in inputs]
    equal_pairs = 0
    for (key, ref), (other, other_ref) in itertools.combinations(keys, 2):
        assert (key == other) == (ref == other_ref)
        equal_pairs += key == other
    assert equal_pairs >= 20


# -- the relative-projection table ---------------------------------------------------


def _rho_lattices():
    lattices = [random_valid_lattice(seed) for seed in range(50)]
    lattices += [product_of_points_lattice(), fixture_b_product().lattice]
    # two lattices that fail validate_relations: a nesting cycle, and a pair
    # both nested and orthogonal
    lattices.append(IndexLattice(["A", "B", "C", "S"], "S",
                                 [("A", "B"), ("B", "A"), ("A", "S"), ("B", "S"), ("C", "S")]))
    lattices.append(IndexLattice(["A", "B", "C", "S"], "S",
                                 [("A", "B"), ("A", "S"), ("B", "S"), ("C", "S")],
                                 orth_pairs=[("A", "B")]))
    return lattices


def test_rho_is_properly_nested_or_transverse():
    lattices = _rho_lattices()
    assert [lat.validate_relations().ok for lat in lattices[-2:]] == [False, False]
    for lat in lattices:
        E = lat.elements
        assert lat.rho.tolist() == [[lat.properly_nested(a, b) or lat.transverse(a, b)
                                     for b in E] for a in E]


def test_rho_is_read_only():
    lat = random_valid_lattice(0)
    assert lat.rho is lat.rho
    with pytest.raises(ValueError):
        lat.rho[0, 0] = True
