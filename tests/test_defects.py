"""Planted defects. Each row of DEFECTS mutates a valid model or combined
structure and names the audit entry that must catch it: the base passes
that entry, and the mutant fails it with a witness that names the planted
element or pair. Each row of GROWING plants a defect of size k and names
the measured constant that must grow with k over k = 1..4, with a witness
on the planted pair and points, while every other constant stays put."""

import dataclasses

import pytest

from hhspace.fixtures import fixture_b_product, raag_path
from hhspace.lattice import IndexLattice
from hhspace.model import HHSModel, audit_axioms
from hhspace.spaces import CoarseMap, FiniteSpace, path_graph, single_point
from hhspace.treecombine import ConedTree, audit_combined, build_combined
from test_treecombine import grid_chain


def far_side_moved_projection(c):
    """Move proj[dst] off the marker rho(src, dst) at the last point over
    the last vertex of src's support, for the first transverse class pair
    (src, dst) with disjoint supports and more than one point in C[dst]."""
    m = c.model
    src, dst = next((a, b) for a in c.classes for b in c.classes
                    if not a.support & b.support and m.lattice.transverse(a.id, b.id)
                    and len(m.hyp[b.id]) > 1)
    v = c.tree.space.ordered(src.support)[-1]
    x = c.tree.vertex_models[v].space.vertices[-1]
    marker, f = m.rho_set[(src.id, dst.id)], m.proj[dst.id]
    ids = f.sids.copy()
    ids[m.space.index[(v, x)]] = len(f.sets)
    other = next(p for p in f.codomain.vertices if {p} != marker)
    proj = {**m.proj, dst.id: CoarseMap.from_ids(m.space, f.codomain, ids, [*f.sets, [other]])}
    model = HHSModel(m.space, m.lattice, m.hyp, proj, m.rho_set, m.rho_map, name=m.name)
    return dataclasses.replace(c, model=model), (src.id, dst.id, v, x)


def coning_dropped_cone_point(c):
    """Drop the cone point, and so its edges, of the first cone whose
    subtree has tree diameter at least 3."""
    key, label = next((key, label) for key, coned in c.coned.items()
                      for label, sub in coned.cones.items()
                      if c.tree.space.diam_set(sub) >= 3)
    coned, point = c.coned[key], ("cone", label)
    V = coned.space.vertices
    space = FiniteSpace([p for p in V if p != point],
                        [(V[a], V[b]) for a, b in coned.space.edges if point not in (V[a], V[b])])
    mutant = dataclasses.replace(c, coned={**c.coned, key: ConedTree(coned.cones, space)})
    return mutant, (key, label, space.diam_set(coned.cones[label]))


# the orthogonal pair of fixture B that the two rho rows below plant data on
ORTH = (("V", ("l", "S1")), ("l", "S1"))


def _with_rho(m, rho_set=None, rho_map=None):
    return HHSModel(m.space, m.lattice, m.hyp, m.proj, {**m.rho_set, **(rho_set or {})},
                    {**m.rho_map, **(rho_map or {})}, name=m.name)


def extra_rho_marker(m):
    """A two-point marker on a pair with no relative projection."""
    a, b = ORTH
    assert m.lattice.orthogonal(a, b)
    return _with_rho(m, rho_set={ORTH: m.hyp[b].vertices[:2]}), ORTH


def extra_rho_map(m):
    """A downward map on a pair that is not properly nested."""
    a, b = ORTH
    down = CoarseMap.constant(m.hyp[b], m.hyp[a], [m.hyp[a].vertices[0]])
    return _with_rho(m, rho_map={ORTH: down}), ORTH


# a nested pair and an element of fixture B that the door rows below plant
# data on
NESTED, LEAF = (("l", "S1"), ("S",)), ("l", "S1")


def _equal_copy(space):
    """The same labels and table in another space object."""
    return FiniteSpace(space.vertices, dist=space.dist)


def _into_copy(f):
    return CoarseMap.from_ids(f.domain, _equal_copy(f.codomain), f.sids, f.sets, name=f.name)


def foreign_projection(m):
    """The projection to LEAF into an equal copy of its hyperbolic model."""
    proj = {**m.proj, LEAF: _into_copy(m.proj[LEAF])}
    return HHSModel(m.space, m.lattice, m.hyp, proj, m.rho_set, m.rho_map, name=m.name), (LEAF,)


def extra_hyp(m):
    """A hyperbolic model and a projection for a label outside the lattice."""
    C = single_point()
    hyp = {**m.hyp, "ghost": C}
    proj = {**m.proj, "ghost": CoarseMap.constant(m.space, C, C.vertices)}
    return HHSModel(m.space, m.lattice, hyp, proj, m.rho_set, m.rho_map, name=m.name), ("ghost",)


def rho_map_into_copy(m):
    """The downward map of NESTED into an equal copy of its target model."""
    return _with_rho(m, rho_map={NESTED: _into_copy(m.rho_map[NESTED])}), NESTED


def empty_rho_set(m):
    """The marker of NESTED emptied."""
    return _with_rho(m, rho_set={NESTED: ()}), NESTED


DEFECTS = {
    "far-side-moved-projection": (lambda: build_combined(grid_chain()),
                                  far_side_moved_projection, audit_combined,
                                  "far-side-projection-exactness"),
    "coning-dropped-cone-point": (lambda: raag_path(1).combined,
                                  coning_dropped_cone_point, audit_combined, "coning"),
    "extra-rho-marker": (fixture_b_product, extra_rho_marker, audit_axioms, "structure"),
    "extra-rho-map": (fixture_b_product, extra_rho_map, audit_axioms, "structure"),
    "foreign-projection": (fixture_b_product, foreign_projection, audit_axioms, "structure"),
    "extra-hyp": (fixture_b_product, extra_hyp, audit_axioms, "structure"),
    "rho-map-into-copy": (fixture_b_product, rho_map_into_copy, audit_axioms, "structure"),
    "empty-rho-set": (fixture_b_product, empty_rho_set, audit_axioms, "structure"),
}


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_planted_defect_fails_its_entry_with_a_witness(name):
    base, mutate, audit, entry = DEFECTS[name]
    c = base()
    before = audit(c).entry(entry)
    assert before.ok and before.witnesses == []
    mutant, witness = mutate(c)
    after = audit(mutant).entry(entry)
    assert not after.ok
    assert witness in [getattr(w, "witness", w) for w in after.witnesses]


FAR = range(7)   # the interval 0..6 of C_W, at distance 6 from the marker 12


def bgi_far_interval():
    """V < W with C_W the path 0..12, the marker of V at 12 and the
    downward map constant at 0 of C_V, the path 0..4. The base space is the
    path 0..2, which pi_W sends to 10..12 and pi_V to 0. The consistency
    pass reads the downward map only at projections of base points, so it
    does not see the interval FAR, which lies outside the image of pi_W."""
    CW, CV, X = path_graph(13), path_graph(5), path_graph(3)
    lat = IndexLattice(["V", "W"], "W", nested_pairs=[("V", "W")])
    proj = {"W": CoarseMap.single(X, CW, lambda x: x + 10), "V": CoarseMap.constant(X, CV, [0])}
    return HHSModel(X, lat, {"V": CV, "W": CW}, proj, {("V", "W"): {12}},
                    {("V", "W"): CoarseMap.constant(CW, CV, [0])}, name="bgi-far")


def bgi_widened_interval(m, k):
    """Spread the downward map over k along FAR: its point p goes to
    min(p, k). The interval from 0 to k then has an image of diameter k at
    distance 12 - k >= k from the marker, and no interval does better."""
    CW, CV = m.hyp["W"], m.hyp["V"]
    down = CoarseMap.single(CW, CV, lambda p: min(p, k) if p in FAR else 0)
    return _with_rho(m, rho_map={("V", "W"): down}), (("V", "W"), FAR)


GROWING = {
    "bgi-widened-interval": (bgi_far_interval, bgi_widened_interval,
                             "bounded-geodesic-image", "e_bgi"),
}


def _constants(rep, skip):
    return {e.name: (e.ok, e.constants) for e in rep.entries if e.name != skip}


@pytest.mark.parametrize("name", sorted(GROWING))
def test_planted_defect_grows_its_constant_with_k(name):
    make, mutate, entry, key = GROWING[name]
    m = make()
    base = audit_axioms(m)
    assert base.ok
    seen = [base.entry(entry).constants[key]]
    for k in range(1, 5):
        mutant, (pair, points) = mutate(m, k)
        rep = audit_axioms(mutant)
        got = rep.entry(entry)
        seen.append(got.constants[key])
        assert seen[-1] > seen[-2]
        (w,) = got.witnesses
        assert w[:2] == pair and set(w[2:]) <= set(points)
        assert _constants(rep, entry) == _constants(base, entry)
