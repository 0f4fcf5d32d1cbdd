"""Relation-preserving injections between index lattices.

An IndexMap is the index-set layer of a structure-preserving map between
hierarchical structures: an injective map of elements that preserves
nesting, orthogonality and transversality. Fullness means the image is
exactly everything nested below the image of the source's maximal
element; full maps commute with wedges and joins.
"""

import numpy as np

from .lattice import EMPTY, NotALattice, ValidationReport


class DomainMismatch(Exception):
    pass


class IndexMap:
    def __init__(self, source, target, mapping, name=""):
        self.source = source
        self.target = target
        self.name = name
        self.mapping = dict(mapping)
        missing = [e for e in source.elements if e not in self.mapping]
        if missing:
            raise ValueError("index map undefined on %s" % missing)

    def __call__(self, e):
        if e is EMPTY:
            return EMPTY
        return self.mapping[e]

    def image(self):
        return frozenset(self.mapping[e] for e in self.source.elements)

    @classmethod
    def identity(cls, lattice):
        return cls(lattice, lattice, {e: e for e in lattice.elements}, name="id")

    def compose(self, other):
        """other after self. Raises DomainMismatch unless self.target is
        other.source."""
        if other.source is not self.target:
            raise DomainMismatch("compose: target of %r is not source of %r"
                                 % (self.name, other.name))
        return IndexMap(self.source, other.target,
                        {e: other.mapping[self.mapping[e]] for e in self.source.elements},
                        name="%s;%s" % (self.name, other.name))


def verify_index_map(m):
    """Injectivity plus preservation of all three relations (with nesting
    orientation); every offending pair is a report entry."""
    rep = ValidationReport("index-map:%s" % m.name)
    seen = {}
    for e in m.source.elements:
        img = m.mapping[e]
        if img not in m.target.pos:
            rep.add("image-not-in-target", (e, img))
            continue
        if img in seen:
            rep.add("not-injective", (seen[img], e, img))
        seen[img] = e
    if not rep.ok:
        return rep
    for i, a in enumerate(m.source.elements):
        for b in m.source.elements[i + 1:]:
            ra = m.source.rel(a, b)
            rb = m.target.rel(m.mapping[a], m.mapping[b])
            if ra != rb:
                rep.add("relation-changed", (a, b), "%s became %s" % (ra, rb))
            elif ra == "nested":
                if m.source.nested(a, b) != m.target.nested(m.mapping[a], m.mapping[b]):
                    rep.add("nesting-orientation-flipped", (a, b))
    return rep


def verify_fullness(m):
    """The image must be exactly the set of target elements nested below the
    image of the source's maximal element."""
    rep = ValidationReport("fullness:%s" % m.name)
    top_image = m.mapping[m.source.maximal]
    image = m.image()
    # an image outside the target is verify_index_map's violation
    below = m.target.below(top_image) if top_image in m.target.pos else ()
    for u in below:
        if u not in image:
            rep.add("missing-preimage", (u,), "nested in %r but not hit" % (top_image,))
    for e in m.source.elements:
        if not m.target.nested(m.mapping[e], top_image):
            rep.add("image-escapes", (e, m.mapping[e]))
    return rep


def verify_wedge_join_commute(m):
    """For full maps over lattices with the intersection property the image of
    a wedge is the wedge of the images (EMPTY maps to EMPTY), and likewise
    for joins. A pair whose wedge is undefined skips its join."""
    rep = ValidationReport("wedge-join-commute:%s" % m.name)
    src, tgt, E = m.source, m.target, m.source.elements
    images = [m.mapping[e] for e in E] + [EMPTY]
    at = np.array([tgt.pos[x] for x in images[:-1]])
    skip = np.zeros((len(E),) * 2, dtype=bool)
    for kind in ("wedge", "join"):
        s, t = src.bound_tables()[kind], tgt.bound_tables()[kind][np.ix_(at, at)]
        undefined = ~skip & ((s < 0) | (t < 0))
        for a, b in np.argwhere(np.triu(undefined)).tolist():
            try:
                getattr(src, kind)(E[a], E[b])
                getattr(tgt, kind)(images[a], images[b])
            except NotALattice as exc:
                rep.add(kind + "-undefined", (E[a], E[b]), str(exc))
        moved = np.append(at, len(tgt.elements))[s] != t      # EMPTY: position k in each
        for a, b in np.argwhere(np.triu(~skip & ~undefined & moved)).tolist():
            rep.add(kind + "-not-preserved", (E[a], E[b]), "%r vs %r" % (
                images[s[a, b]], (tgt.elements + (EMPTY,))[t[a, b]]))
        skip |= undefined
    # each pair's wedge entry, then its join entry, in pair order
    rep.violations.sort(key=lambda v: (src.pos[v.witness[0]], src.pos[v.witness[1]]))
    return rep
