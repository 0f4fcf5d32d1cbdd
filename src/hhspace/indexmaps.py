"""Relation-preserving injections between index lattices.

An IndexMap is the index-set layer of a structure-preserving map between
hierarchical structures: an injective map of elements that preserves
nesting, orthogonality and transversality. Fullness means the image is
exactly everything nested below the image of the source's maximal
element; full maps commute with wedges and joins.
"""

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
    for joins."""
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
