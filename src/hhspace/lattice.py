"""Finite index-set lattices.

An IndexLattice is a finite set of elements carrying three mutually
exclusive relations: nesting (a partial order with a unique maximal
element), orthogonality (symmetric, antireflexive, inherited downwards)
and transversality (everything else). On top of the relations it exposes
the wedge (unique maximal common lower bound), the join (unique minimal
common upper bound), orthogonal containers, and validators for the
structural rules, the wedge axioms and clean containers.

The empty wedge is the sentinel EMPTY, never an element of the lattice.
"""

from dataclasses import dataclass, field

from .spaces import sort_key, vkey


NESTED = "nested"
ORTH = "orth"
TRANS = "trans"
EQUAL = "equal"


class _Empty:
    def __repr__(self):
        return "Empty"

    def __bool__(self):
        return False


EMPTY = _Empty()


class MissingRelation(Exception):
    pass


class NotALattice(Exception):
    """Raised when a wedge or join is not unique; carries the witnesses."""

    def __init__(self, kind, pair, candidates):
        self.kind = kind
        self.pair = pair
        self.candidates = candidates
        super().__init__("%s(%s, %s) has incomparable candidates %s"
                         % (kind, pair[0], pair[1], sorted(candidates, key=vkey)))


@dataclass
class Violation:
    rule: str
    witness: tuple
    detail: str = ""


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, rule, witness, detail=""):
        self.violations.append(Violation(rule, tuple(witness), detail))

    def merged(self, other):
        out = ValidationReport(self.subject)
        out.violations = self.violations + other.violations
        return out

    def as_dict(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "witness": [repr(w) for w in v.witness], "detail": v.detail}
                for v in self.violations
            ],
        }

    def __repr__(self):
        if self.ok:
            return "ValidationReport(%s: ok)" % self.subject
        return "ValidationReport(%s: %d violations, first=%r)" % (
            self.subject, len(self.violations), self.violations[0])


class IndexLattice:
    """Finite index set with relations, wedge/join and containers.

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

    def complexity(self):
        """Length of the longest chain of pairwise nested elements."""
        return self.longest_chain(self.elements)

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

    def join_all(self, elems):
        elems = sorted(set(elems), key=vkey)
        if not elems:
            return EMPTY
        out = elems[0]
        for e in elems[1:]:
            out = self.join(out, e)
        return out

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
            for v in self.below(u):
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
        return IndexLattice(keep, top, nested, orth, name=name or self.name + "|sub")

    def hasse_pairs(self):
        """Covering pairs of the nesting order, for Hasse-diagram export."""
        out = []
        for (a, b) in self.nest_pairs():
            if not any((a, c) in self._nest and (c, b) in self._nest
                       for c in self.elements):
                out.append((a, b))
        return out

    def hasse_dot(self):
        lines = ["digraph {", "  rankdir=BT;"]
        for e in self.elements:
            lines.append('  "%s";' % (e,))
        for a, b in self.hasse_pairs():
            lines.append('  "%s" -> "%s";' % (a, b))
        for p in self.orth_pairs():
            a, b = sorted(p, key=vkey)
            lines.append('  "%s" -> "%s" [dir=none, style=dashed];' % (a, b))
        lines.append("}")
        return "\n".join(lines)


def singleton_lattice(element="S", name=""):
    return IndexLattice([element], element, name=name)
