"""Finite index-set lattices.

An IndexLattice is a finite set of elements carrying three mutually
exclusive relations: nesting (a partial order with a unique maximal
element), orthogonality (symmetric, antireflexive, inherited downwards)
and transversality (everything else). On top of the relations it exposes
the wedge (unique maximal common lower bound), the join (unique minimal
common upper bound), orthogonal containers, and validators for the
structural rules, the wedge axioms and clean containers.

A lattice is stored as two boolean tables over element positions, ``le``
(nesting, reflexive and transitively closed) and ``orth`` (symmetric), that
every query, wedge, join and validator reads. Position order is vkey order,
so a row-major scan of a table lists pairs in vkey order. The table rho,
read from those two, holds the pairs that carry relative projections: i
properly nested in j, or transverse to it.

The empty wedge is the sentinel EMPTY, never an element of the lattice.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations

import numpy as np

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
                    nested_pairs or orth_pairs or trans_pairs (or follow
                    from the nesting closure), otherwise MissingRelation
                    is raised, no pair may appear twice and no pair
                    declared transverse may be nested by the closure
                    (the JSON loading path); when False the remaining
                    pairs default to transverse.
    A pair naming a label that is not an element is a ValueError.

    The relations are the tables le (le[i, j]: elements[i] nested in
    elements[j]) and orth; lt (proper nesting), rho (proper nesting or
    transversality) and orth_up (each orthogonal pair once) are read from
    them once, on first use. The orthogonal containers {(Z, U): W}, W the
    unique minimal element below Z above all orthogonal partners of U, are
    computed here; the wedge and join of every pair on first use.
    """

    def __init__(self, elements, maximal, nested_pairs=(), orth_pairs=(),
                 trans_pairs=(), strict_total=False, name=""):
        elements = tuple(sorted(set(elements), key=sort_key()))
        pos = {e: i for i, e in enumerate(elements)}
        try:
            nest, orth, trans = ([(pos[a], pos[b]) for a, b in pairs]
                                 for pairs in (nested_pairs, orth_pairs, trans_pairs))
        except KeyError as exc:
            raise ValueError("a relation names %r, not an element" % (exc.args[0],)) from None
        k = len(elements)
        le, sym = np.eye(k, dtype=bool), np.zeros((k, k), dtype=bool)
        for i, j in nest:
            le[i, j] = True
        for i, j in orth:
            sym[i, j] = sym[j, i] = True
        # Warshall closure; only an element above and below others is a middle
        for m in {i for i, _ in nest} & {j for _, j in nest}:
            le |= le[:, m, None] & le[m]
        if strict_total:
            declared = sorted((min(p), max(p)) for p in nest + orth + trans)
            for i, j in [p for p, q in zip(declared, declared[1:]) if p == q][:1]:
                raise ValueError("pair (%r, %r) is declared more than once"
                                 % (elements[i], elements[j]))
            for i, j in trans:
                if le[i, j] or le[j, i]:
                    raise ValueError("pair (%r, %r) is declared transverse but is nested"
                                     % (elements[i], elements[j]))
            for i, j in sorted(set(combinations(range(k), 2)).difference(declared)):
                if not (le[i, j] or le[j, i]):
                    raise MissingRelation("pair (%r, %r) has no declared relation"
                                          % (elements[i], elements[j]))
        self._set_tables(name, elements, maximal, le, sym)

    def _set_tables(self, name, elements, maximal, le, orth):
        self.name, self.elements, self.maximal = name, elements, maximal
        self.pos = {e: i for i, e in enumerate(elements)}
        if maximal not in self.pos:
            raise ValueError("maximal element %r not among elements" % (maximal,))
        le.flags.writeable = orth.flags.writeable = False
        self.le, self.orth = le, orth
        self._bounds = None
        self.containers, self.container_problems = self._compute_containers()

    # -- relations ---------------------------------------------------------

    @cached_property
    def lt(self):
        """Proper nesting: le without its diagonal."""
        lt = self.le > np.eye(len(self.elements), dtype=bool)
        lt.flags.writeable = False
        return lt

    @cached_property
    def rho(self):
        """rho[i, j]: elements[i] properly nested in, or transverse to,
        elements[j]; exactly the pairs that carry relative projections."""
        rho = self.lt | ~(self.le | self.le.T | self.orth)
        rho.flags.writeable = False
        return rho

    @cached_property
    def orth_up(self):
        """orth above its diagonal: each orthogonal pair once."""
        up = np.triu(self.orth, 1)
        up.flags.writeable = False
        return up

    def _labels(self, mask):
        return [self.elements[i] for i in np.flatnonzero(mask).tolist()]

    def _pairs(self, mask):
        return [(self.elements[i], self.elements[j]) for i, j in np.argwhere(mask).tolist()]

    def nested(self, a, b):
        """a nested in b, reflexively; a label outside is nested only in itself."""
        i, j = self.pos.get(a), self.pos.get(b)
        return a == b if i is None or j is None else bool(self.le[i, j])

    def properly_nested(self, a, b):
        return a != b and self.nested(a, b)

    def orthogonal(self, a, b):
        """a orthogonal to b; a label outside is orthogonal to nothing."""
        i, j = self.pos.get(a), self.pos.get(b)
        return i is not None and j is not None and bool(self.orth[i, j])

    def rel(self, a, b):
        if a == b:
            return EQUAL
        if self.nested(a, b) or self.nested(b, a):
            return NESTED
        return ORTH if self.orthogonal(a, b) else TRANS

    def transverse(self, a, b):
        return self.rel(a, b) == TRANS

    def below(self, e):
        """All elements nested in e (including e itself)."""
        return frozenset(self._labels(self.le[:, self.pos[e]]))

    def above(self, e):
        return frozenset(self._labels(self.le[self.pos[e]]))

    def nest_pairs(self):
        """The properly nested pairs (a, b), in vkey order."""
        return self._pairs(self.lt)

    def orth_pairs(self):
        """The orthogonal pairs as frozensets, in vkey order."""
        return [frozenset(p) for p in self._pairs(np.triu(self.orth))]

    def relations_by_position(self):
        """The size, the maximal position and the two tables' bytes: equal
        exactly for lattices that are equal up to relabelling by position."""
        return (len(self.elements), self.pos[self.maximal], self.le.tobytes(), self.orth.tobytes())

    # -- containers --------------------------------------------------------

    def _compute_containers(self):
        """(containers, problems) in (z, u) position order."""
        if not self.orth.any():     # no orthogonal pair, no container
            return {}, []
        E, le, lt = self.elements, self.le, self.lt
        # [z, u, v]: u and v nested in z and orthogonal
        partners = le.T[:, :, None] & le.T[:, None, :] & self.orth
        z, u = np.nonzero(partners.any(-1))
        # candidates: properly nested in z and above every partner of u
        cands = lt.T[z] & ~_through(partners[z, u], ~le)
        out, problems = {}, []
        for zi, ui, least in zip(z.tolist(), u.tolist(), _least(cands, lt)):
            found = self._labels(least)
            if len(found) == 1:
                out[(E[zi], E[ui])] = found[0]
            else:
                problems.append(Violation("container-ambiguous" if found else "container-none",
                                          (E[zi], E[ui]), "candidates %s" % found))
        return out, problems

    def top_container(self, u):
        """cont(u) in the whole lattice (container within the maximal element)."""
        return self.containers.get((self.maximal, u))

    # -- validation --------------------------------------------------------

    def validate_relations(self):
        """Check the structural rules; every failure is listed with witnesses."""
        rep = ValidationReport("lattice:%s" % self.name)
        E, pos, le, orth, lt = self.elements, self.pos, self.le, self.orth, self.lt
        _add_all(rep, E, "nesting-antisymmetry", lt & lt.T)
        _add_all(rep, E, "nesting-transitivity", lt[:, :, None] & lt & ~le[:, None, :])
        _add_all(rep, E, "unique-maximal", ~le[:, pos[self.maximal]],
                 "not nested in %r" % (self.maximal,))
        _add_all(rep, E, "orthogonality-antireflexive", np.diag(orth))
        _add_all(rep, E, "relation-exclusive", orth & (lt | lt.T), "both nested and orthogonal")
        # orthogonality inheritance: v nested in w and w orth u force v orth u (v != u)
        _add_all(rep, E, "orthogonality-inheritance",
                 lt[:, :, None] & orth & ~(orth | np.eye(len(E), dtype=bool))[:, None, :])
        rep.violations.extend(self.container_problems)
        for (z, u), w in self.containers.items():
            if w == z:
                rep.add("container-equals-ambient", (z, u))
            if not le[pos[w], pos[z]]:
                rep.add("container-not-nested", (z, u, w))
            for v in self._labels(le[:, pos[z]] & orth[:, pos[u]] & ~le[:, pos[w]]):
                rep.add("container-misses-partner", (z, u, v), "container %r" % (w,))
        return rep

    def complexity(self):
        """Length of the longest chain of pairwise nested elements."""
        return self.longest_chain(self.elements)

    def longest_chain(self, subset):
        """Length of the longest chain of pairwise nested elements of subset
        (0 when it is empty)."""
        idx = sorted({self.pos[e] for e in subset})
        # reach[a, b]: a chain of length + 1 elements from a up to b
        reach = step = self.lt[idx][:, idx]
        for length in range(1, len(idx) + 1):
            if not reach.any():
                return length
            reach = _through(reach, step)
        return len(idx)     # only a nesting cycle gets here

    # -- wedge / join ------------------------------------------------------

    def _bound_sets(self, kind, i, j):
        """The common lower (wedge) or upper (join) bounds of positions i
        and j, and the greatest (least) of them; i and j broadcast."""
        le, lt = self.le, self.lt
        if kind == "wedge":     # the wedge is the join of the reversed order
            le, lt = le.T, lt.T
        common = le[i] & le[j]
        return common, _least(common, lt)

    def bound_tables(self):
        """{"wedge": W, "join": J} over pairs of positions: the position of
        the pair's unique bound, k when it has no common lower bound (the
        wedge is EMPTY), -1 when no bound is unique. Built on first call."""
        if self._bounds is None:
            k, bounds = len(self.elements), {}
            for kind in ("wedge", "join"):
                common, best = self._bound_sets(kind, *np.ogrid[:k, :k])
                table = np.where(best.sum(-1) == 1, best.argmax(-1), -1)
                if kind == "wedge":
                    table[~common.any(-1)] = k
                table.flags.writeable = False
                bounds[kind] = table
            self._bounds = bounds
        return self._bounds

    def _not_unique(self, kind, i, j):
        return NotALattice(kind, (self.elements[i], self.elements[j]),
                           self._labels(self._bound_sets(kind, i, j)[1]))

    def _bound(self, kind, u, v):
        i, j = self.pos[u], self.pos[v]
        b = int(self.bound_tables()[kind][i, j])
        if b < 0:
            raise self._not_unique(kind, i, j)
        return EMPTY if b == len(self.elements) else self.elements[b]

    def wedge(self, u, v):
        """The unique maximal common lower bound, or EMPTY."""
        return self._bound("wedge", u, v)

    def join(self, u, v):
        """The unique minimal common upper bound (the maximal element is always
        an upper bound, so the join always exists when unique)."""
        return self._bound("join", u, v)

    def join_all(self, elems):
        elems = sorted(set(elems), key=vkey)
        return reduce(self.join, elems) if elems else EMPTY

    def verify_intersection_property(self):
        """Check the wedge axioms for the computed wedge: commutativity,
        associativity, nestedness of the wedge, and that common lower bounds
        are nested in the wedge. Non-unique wedges are reported, not raised."""
        rep = ValidationReport("intersection-property:%s" % self.name)
        E, le, k = self.elements, self.le, len(self.elements)
        wedge = self.bound_tables()["wedge"]
        for i, j in np.argwhere(np.triu(wedge < 0)).tolist():
            rep.add("wedge-not-unique", (E[i], E[j]), str(self._not_unique("wedge", i, j)))
        if not rep.ok:
            return rep
        labels, (u, v) = E + (EMPTY,), np.ogrid[:k, :k]
        lower = self._bound_sets("wedge", u, v)[0]      # [u, v, z]: z nested in u and v
        is_wedge = wedge[..., None] == np.arange(k)     # [u, v, w]: w is the wedge of u, v
        _add_all(rep, E, "wedge-not-nested", is_wedge & ~lower)
        _add_all(rep, E, "wedge-orthogonal-nonempty", is_wedge & self.orth[..., None])
        for a, b in np.argwhere(le.T & (wedge != v)).tolist():
            rep.add("wedge-of-nested", (E[a], E[b]),
                    "expected %r, got %r" % (E[b], labels[wedge[a, b]]))
        # z nested in u and v but not in their wedge (in nothing when EMPTY)
        _add_all(rep, E, "wedge-misses-lower-bound",
                 lower & ~np.vstack([le.T, np.zeros(k, dtype=bool)])[wedge])
        # each pair's entries together, in pair order, keeping the rule order
        rep.violations.sort(key=lambda x: (self.pos[x.witness[0]], self.pos[x.witness[1]]))
        # EMPTY (position k) meets everything in EMPTY
        pad = np.pad(wedge, (0, 1), constant_values=k)
        left, right = pad[wedge[..., None], v], pad[u[..., None], wedge]    # (u^v)^w, u^(v^w)
        for a, b, c in np.argwhere(left != right).tolist():
            rep.add("wedge-associativity", (E[a], E[b], E[c]),
                    "%r vs %r" % (labels[left[a, b, c]], labels[right[a, b, c]]))
        return rep

    def verify_clean_containers(self):
        """Containers are orthogonal to their argument; the lower container
        formula cont^U(V) = U ^ cont(V) holds; orthogonality is closed under
        joins: u orth w and v orth w imply (u v-join) orth w."""
        rep = ValidationReport("clean-containers:%s" % self.name)
        E, pos, le, orth, k = self.elements, self.pos, self.le, self.orth, len(self.elements)
        cont = np.full((k, k), -1)
        for (z, u), w in self.containers.items():
            cont[pos[z], pos[u]] = pos[w]
            if not orth[pos[u], pos[w]]:
                rep.add("container-not-clean", (z, u, w))
        # for v nested in u: the lower container cont^u(v) against u ^ cont(v)
        tables, top = self.bound_tables(), cont[pos[self.maximal]]
        partnered = _through(orth, le)      # [v, u]: v orth an element nested in u
        for u, v in np.argwhere(le.T).tolist():
            t, low, expect = top[v], cont[u, v], tables["wedge"][u, top[v]]
            if t < 0:
                bad = low >= 0 and "lower container exists but no top container"
            elif expect < 0:
                bad = str(self._not_unique("wedge", u, t))
            elif low < 0:
                bad = expect < k and partnered[v, u] and (
                    "expected %r, container missing" % (E[expect],))
            else:
                bad = expect != low and "expected %r, got %r" % ((E + (EMPTY,))[expect], E[low])
            if bad:
                rep.add("lower-container-formula", (E[u], E[v]), bad)
        join, joined = tables["join"], np.triu(tables["join"] >= 0)
        # [w, u, v]: u and v orthogonal to w and their join is not
        for w, a, b in np.argwhere(orth[:, :, None] & orth[:, None, :] & joined
                                   & ~orth[np.where(joined, join, 0)].transpose(2, 0, 1)).tolist():
            rep.add("join-orthogonality-closure", (E[a], E[b], E[w]),
                    "join %r not orthogonal to %r" % (E[join[a, b]], E[w]))
        return rep

    # -- derived -----------------------------------------------------------

    def restrict(self, keep, maximal=None, name=""):
        """Sublattice on a nesting-closed subset: the sub-tables of its
        positions."""
        kept = sorted({self.pos[e] for e in keep})
        idx = np.ix_(kept, kept)
        le, elements = self.le[idx], tuple(self.elements[i] for i in kept)
        if maximal is None:
            tops = [e for e, top in zip(elements, le.all(axis=0)) if top]
            if len(tops) != 1:
                raise ValueError("restriction has no unique maximal element")
            maximal = tops[0]
        sub = IndexLattice.__new__(IndexLattice)
        sub._set_tables(name or self.name + "|sub", elements, maximal, le, self.orth[idx])
        return sub

    def hasse_pairs(self):
        """Covering pairs of the nesting order, for Hasse-diagram export."""
        lt = self.lt
        return self._pairs(lt & ~_through(lt, lt))

    def hasse_dot(self):
        return "\n".join(
            ["digraph {", "  rankdir=BT;"] + ['  "%s";' % (e,) for e in self.elements]
            + ['  "%s" -> "%s";' % p for p in self.hasse_pairs()]
            + ['  "%s" -> "%s" [dir=none, style=dashed];' % p
               for p in self._pairs(np.triu(self.orth))] + ["}"])


def _through(a, b):
    """Boolean product: [..., i, j] when a[..., i, c] and b[c, j] for some c.
    Counted in float32, exact to 2**24 (a uint8 count wraps past 255)."""
    return np.matmul(a, b, dtype=np.float32) > 0


def _least(sets, order):
    """The members w of each set (boolean rows) with no member c where
    order[c, w]: minimal for proper nesting, maximal for its transpose."""
    return sets & ~_through(sets, order)


def _add_all(rep, labels, rule, mask, detail=""):
    """One violation per true entry of mask, in row-major order."""
    for idx in np.argwhere(mask).tolist():
        rep.add(rule, [labels[i] for i in idx], detail)


def singleton_lattice(element="S", name=""):
    return IndexLattice([element], element, name=name)
