"""Planted defects: each row mutates a valid combined structure and names
the audit entry that must catch it. The base passes that entry, and the
mutant fails it with a witness that names the planted element or pair."""

import dataclasses

import pytest

from hhspace.fixtures import raag_path
from hhspace.model import HHSModel
from hhspace.spaces import CoarseMap, FiniteSpace
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


DEFECTS = {
    "far-side-moved-projection": (lambda: build_combined(grid_chain()),
                                  far_side_moved_projection,
                                  "far-side-projection-exactness"),
    "coning-dropped-cone-point": (lambda: raag_path(1).combined,
                                  coning_dropped_cone_point, "coning"),
}


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_planted_defect_fails_its_entry_with_a_witness(name):
    base, mutate, entry = DEFECTS[name]
    c = base()
    before = audit_combined(c).entry(entry)
    assert before.ok and before.witnesses == []
    mutant, witness = mutate(c)
    after = audit_combined(mutant).entry(entry)
    assert not after.ok
    assert witness in [getattr(w, "witness", w) for w in after.witnesses]
