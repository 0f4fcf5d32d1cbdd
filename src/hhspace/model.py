"""Finite-graph models of hierarchical structures and the axiom auditor.

An HHSModel bundles a finite base space, an index lattice, one hyperbolic
model and one projection per index element, and the relative projection
data (rho sets for transverse and properly nested pairs, rho maps for
properly nested pairs). The auditor measures, per axiom, the minimal
constants that make the axiom true on the model, with witnesses for the
extremal configurations; structural gaps (missing data, broken relation
rules) are hard failures.

Distance conventions: d_U(x, y) is the diameter of the union of the two
projection sets; distances from a point to a subspace use the min-gap.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .lattice import ValidationReport, singleton_lattice
from .spaces import CoarseMap, coarse_map_constants, four_point_delta, groups


class NoConsistentTuple(Exception):
    pass


class NotHQC(Exception):
    pass


class ScanBudgetExceeded(Exception):
    """A finite scan would visit more choices than its budget allows."""


@dataclass
class ConstantsRecord:
    """Measured constants of a model; all values are minimal workable ones."""
    delta: float = 0.0
    xi: float = 0.0
    kappa0: float = 0.0
    e_bgi: float = 0.0
    e_large_links: float = 0.0
    lambda_ll: float = 1.0
    alpha_pr: float = 0.0
    proj_lip: float = 0.0
    proj_qc: float = 0.0
    surj_radius: float = 0.0
    complexity: int = 1
    theta_u: dict = field(default_factory=dict)
    s0: float = 1.0

    def as_dict(self):
        d = dict(self.__dict__)
        d["theta_u"] = {int(k): int(v) for k, v in self.theta_u.items()}
        return d


@dataclass
class AxiomEntry:
    name: str
    ok: bool
    constants: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    notes: str = ""

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "constants": self.constants,
                "witnesses": [repr(w) for w in self.witnesses], "notes": self.notes}


@dataclass
class AuditReport:
    model_name: str
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def constants_record(self):
        rec = ConstantsRecord()
        for e in self.entries:
            for k, v in e.constants.items():
                if hasattr(rec, k):
                    setattr(rec, k, v)
        rec.s0 = max(1.0, rec.xi, rec.kappa0) + 1.0
        return rec

    def as_dict(self):
        return {"model": self.model_name, "ok": self.ok,
                "entries": [e.as_dict() for e in self.entries]}

    def summary(self):
        lines = []
        for e in self.entries:
            cs = ", ".join("%s=%s" % (k, _fmt(v)) for k, v in sorted(e.constants.items())
                           if k != "theta_u")
            lines.append("%-22s %s  %s" % (e.name, "ok " if e.ok else "FAIL", cs))
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return "%g" % v
    return str(v)


class HHSModel:
    """A finite model: space, lattice, hyperbolic models, projections, rho data.

    rho_set[(A, B)] is the bounded marker set of A inside the hyperbolic
    model of B; it must exist exactly when A is properly nested in B or A
    and B are transverse. rho_map[(V, W)] is the downward coarse map from
    the model of W to the model of V, exactly for V properly nested in W.
    validate_structure reports a missing key and an unexpected one.

    A model is not changed after construction: xi() and basics() keep
    their first result, and dist_to_set_array keeps each row it computes,
    so a changed space, lattice, projection or rho datum would be read
    against stale values. A variant of a model (a planted defect, a
    restriction) is built as a new HHSModel.
    """

    def __init__(self, space, lattice, hyp, proj, rho_set=None, rho_map=None, name=""):
        self.space = space
        self.lattice = lattice
        self.hyp = dict(hyp)
        self.proj = dict(proj)
        self.rho_set = {k: frozenset(v) for k, v in (rho_set or {}).items()}
        self.rho_map = dict(rho_map or {})
        self.name = name
        self._pair = {}
        self._rows = {}
        self._xi = None
        self._basics = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def elements(self):
        return self.lattice.elements

    @property
    def basepoint(self):
        return self.space.vertices[0]

    def pair_matrix(self, U):
        """T with T[x, y] = d_U(x, y) over base-space vertex indices."""
        if U not in self._pair:
            self._pair[U] = self.proj[U].pair_distance_matrix()
        return self._pair[U]

    def coordinate_classes(self, elements):
        """(ids, reps): vertices with equal image-set ids under every given
        element share a class; ids is each vertex's class, classes numbered
        by their first vertex, and reps holds that first vertex per class.
        Each d_U of these elements is constant on every pair of classes, so
        a pair scan reads class_table(U, reps) once per class pair, and a
        row-major first maximum there is the row-major first vertex pair.
        The class key folds in one element at a time and is made dense
        again after each, so it never exceeds n * k_U."""
        key = np.zeros(len(self.space), dtype=np.int64)
        for U in elements:
            m = self.proj[U]
            key = np.unique(key * len(m.sets) + m.sids, return_inverse=True)[1]
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        return rank[key], first[by_first]

    def class_table(self, U, reps):
        """K x K table of d_U between the class representatives reps."""
        sids, _, M = self.proj[U].set_table()
        s = sids[reps]
        return M[s[:, None], s]

    def dist_to_set_array(self, U, S):
        """Read-only array over base vertices: the sup-distance from the
        projection to U's model to the set S. Each row is computed once
        per model and (U, S); the consistency scan, the nested-consistency
        pass, measure_alpha and the large-links audit share them."""
        key = (U, frozenset(S))
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._dist_row(U, key[1])
            row.flags.writeable = False
        return row

    def _dist_row(self, U, S):
        """dist_to_set_array without the memo, for sets S that are not
        the model's own markers (realize takes any tuple)."""
        m = self.proj[U]
        return m.dset_row(S)[m.sids]

    def gap_to_set_array(self, U, S):
        m = self.proj[U]
        return m.gap_row(S)[m.sids]

    def coords_of(self, x):
        return {U: self.proj[U](x) for U in self.elements}

    def xi(self):
        """Max projection-image diameter and rho-set diameter, cached. The
        rho sets inside one hyperbolic model are measured as one set
        family."""
        if self._xi is None:
            out = max(self.proj[U].diam_bound for U in self.elements)
            inside = {}
            for (_, b), S in self.rho_set.items():
                if S:
                    inside.setdefault(b, []).append(S)
            for b, sets in inside.items():
                out = max(out, int(self.hyp[b].set_family(sets).diams.max()))
            self._xi = out
        return self._xi

    def basics(self):
        """(xi, kappa0) measured, cached; kappa0 from the consistency scan."""
        if self._basics is None:
            k0, _, coh, _ = _consistency_scan(self)
            self._basics = (self.xi(), max(k0, coh))
        return self._basics

    def realization_defect(self):
        """Max over points y of the minimax defect min_x max_U d_U(x, y) of
        re-realizing y's own coordinate tuple; zero on exact models. In
        closed form it is max_U diam pi_U(y), so the largest projection-image
        diameter over all U: d_U(x, y) = diam(pi_U x | pi_U y) is at least
        diam pi_U(y), with equality at x = y."""
        return max(self.proj[U].diam_bound for U in self.elements)

    def restrict(self, top, points=None, name=""):
        """The structure below top, with top maximal: the same hyperbolic
        models and rho data, and the same projections, or their restrictions
        to the metric subspace on points when points are given."""
        keep = self.lattice.below(top)
        lat = self.lattice.restrict(keep, maximal=top, name=name)
        hyp = {U: self.hyp[U] for U in keep}
        if points is None:
            space, proj = self.space, {U: self.proj[U] for U in keep}
        else:
            space = self.space.subspace(points, name=name)
            rows = self.space.idx(space.vertices)
            proj = {U: CoarseMap.from_ids(space, self.hyp[U], self.proj[U].sids[rows],
                                          self.proj[U].sets, name="pi:%s" % (U,))
                    for U in keep}
        rset = {k: v for k, v in self.rho_set.items() if k[0] in keep and k[1] in keep}
        rmap = {k: v for k, v in self.rho_map.items() if k[0] in keep and k[1] in keep}
        return HHSModel(space, lat, hyp, proj, rset, rmap, name=name)

    # -- structure ---------------------------------------------------------

    def validate_structure(self):
        rep = ValidationReport("model:%s" % self.name)
        lat = self.lattice
        for U in lat.elements:
            if U not in self.hyp:
                rep.add("missing-hyp", (U,))
            if U not in self.proj:
                rep.add("missing-projection", (U,))
        for i, j in np.argwhere(lat.rho).tolist():
            a, b = lat.elements[i], lat.elements[j]
            if lat.lt[i, j]:
                if (a, b) not in self.rho_set:
                    rep.add("missing-rho-set", (a, b), "nested pair")
                if (a, b) not in self.rho_map:
                    rep.add("missing-rho-map", (a, b), "nested pair")
            elif i < j:     # a transverse pair, both orders at once
                for (p, q) in ((a, b), (b, a)):
                    if (p, q) not in self.rho_set:
                        rep.add("missing-rho-set", (p, q), "transverse pair")
        # rho data on a pair that carries no relative projection; a label
        # outside the lattice takes position k, after every element
        k = len(lat.elements)
        for rule, keys, table, why in (
                ("unexpected-rho-set", self.rho_set, lat.rho, "no relative projection"),
                ("unexpected-rho-map", self.rho_map, lat.lt, "not a properly nested pair")):
            at = {key: tuple(lat.pos.get(e, k) for e in key) for key in keys}
            for key in sorted(keys, key=at.__getitem__):
                i, j = at[key]
                if k in (i, j) or not table[i, j]:
                    rep.add(rule, key, why)
        for (a, b), S in self.rho_set.items():
            CB = self.hyp.get(b)
            if CB is not None and any(p not in CB for p in S):
                rep.add("rho-set-outside-model", (a, b))
        return rep


def trivial_model(space, elt="S", name=""):
    """One-element structure: the space is its own hyperbolic model."""
    lat = singleton_lattice(elt, name=name)
    return HHSModel(space, lat, {elt: space}, {elt: CoarseMap.identity(space)},
                    name=name or "trivial")


# -- consistency -------------------------------------------------------------


def _consistency_scan(model):
    """Max consistency defect over all points and related pairs, plus the
    nested-rho coherence defect. Returns (kappa0, witness, coherence, cwitness)."""
    lat = model.lattice
    kappa0, wit = 0, None
    for i, V in enumerate(lat.elements):
        for W in lat.elements[i + 1:]:
            r = lat.rel(V, W)
            if r == "trans":
                a = model.dist_to_set_array(W, model.rho_set[(V, W)])
                b = model.dist_to_set_array(V, model.rho_set[(W, V)])
                vals = np.minimum(a, b)
                m = int(vals.max())
                if m > kappa0:
                    kappa0, wit = m, ("trans", V, W, model.space.vertices[int(vals.argmax())])
            elif r == "nested":
                v, w = (V, W) if lat.properly_nested(V, W) else (W, V)
                m, x = _nested_consistency(model, v, w)
                if m > kappa0:
                    kappa0, wit = m, ("nested", v, w, x)
    coherence, cwit = 0, None
    E, rho, lt, orth = lat.elements, lat.rho, lat.lt, lat.orth
    for i, j in np.argwhere(lt).tolist():
        v, w = E[i], E[j]
        # U with w properly nested in it, or transverse to it and U not orthogonal to v
        for k in np.flatnonzero(rho[j] & (lt[j] | ~orth[:, i])).tolist():
            U = E[k]
            if U == v or (v, U) not in model.rho_set or (w, U) not in model.rho_set:
                continue
            d = model.hyp[U].dset(model.rho_set[(v, U)], model.rho_set[(w, U)])
            if d > coherence:
                coherence, cwit = d, (v, w, U)
    return kappa0, wit, coherence, cwit


def _nested_consistency(model, v, w):
    """min( d_w(pi_w x, rho), diam(pi_v x | rho-map(pi_w x)) ) maximized over x."""
    a = model.dist_to_set_array(w, model.rho_set[(v, w)])
    rmap, CV = model.rho_map[(v, w)], model.hyp[v]
    on_w, on_v = model.proj[w], model.proj[v].image_sets()
    down = CV.set_family([rmap.image_of_set(B) for B in on_w.sets])
    both = np.minimum(a, CV.dset_table(on_v, down)[on_v.sids, on_w.sids])
    return int(both.max()), model.space.vertices[int(both.argmax())]


def tuple_consistency_defect(model, coords):
    """Largest violated consistency inequality of an abstract tuple, plus the
    largest coordinate diameter."""
    lat = model.lattice
    worst = 0
    keys = sorted(coords, key=lat.pos.__getitem__)
    diam = max(model.hyp[U].diam_set(coords[U]) for U in keys)
    for i, V in enumerate(keys):
        for W in keys[i + 1:]:
            r = lat.rel(V, W)
            if r == "trans":
                worst = max(worst, min(
                    model.hyp[W].dset(coords[W], model.rho_set[(V, W)]),
                    model.hyp[V].dset(coords[V], model.rho_set[(W, V)])))
            elif r == "nested":
                v, w = (V, W) if lat.properly_nested(V, W) else (W, V)
                img = model.rho_map[(v, w)].image_of_set(coords[w])
                worst = max(worst, min(
                    model.hyp[w].dset(coords[w], model.rho_set[(v, w)]),
                    model.hyp[v].dset(coords[v], img)))
    return worst, diam


# -- realization and regions --------------------------------------------------


def realize(model, coords, kappa=None):
    """Vertex minimizing the worst coordinate mismatch against the tuple.

    With kappa given, the tuple is first checked to be kappa-consistent
    (NoConsistentTuple otherwise). Ties break to the least vertex. Returns
    (vertex, minimax value)."""
    if kappa is not None:
        worst, diam = tuple_consistency_defect(model, coords)
        if worst > kappa or diam > kappa:
            raise NoConsistentTuple("defect %s, coordinate diameter %s exceed kappa=%s"
                                    % (worst, diam, kappa))
    stack = np.stack([model._dist_row(U, S) for U, S in coords.items()])
    mins = stack.max(axis=0)
    i = int(mins.argmin())
    return model.space.vertices[i], int(mins[i])


@dataclass
class ProductRegion:
    element: object
    kappa: float
    F: frozenset
    E: frozenset
    P: frozenset
    copies: list  # (anchor vertex in E, parallel copy of F) pairs


def product_region(model, U, kappa):
    """Standard product region data for U at tolerance kappa.

    P pins every coordinate transverse to or properly above U to the rho
    marker of U; F additionally pins the coordinates orthogonal to U to a
    base point, and E pins the coordinates nested in U. Parallel copies of
    F are enumerated per anchor point of E. Pins use the gap to the pin
    set, so fat marker sets do not force fat regions."""
    lat = model.lattice
    n = len(model.space)
    pinned = np.zeros(n, dtype=np.int64)
    for V, pin in zip(lat.elements, lat.rho[lat.pos[U]].tolist()):
        if pin:
            pinned = np.maximum(pinned, model.gap_to_set_array(V, model.rho_set[(U, V)]))
    P_idx = (pinned <= kappa).nonzero()[0]
    P = frozenset(model.space.vertices[i] for i in P_idx)
    if not P:
        return ProductRegion(U, kappa, frozenset(), frozenset(), P, [])
    x0 = model.space.vertices[P_idx[0]]
    orth = [V for V in lat.elements if lat.orthogonal(U, V)]
    nested = [V for V in lat.elements if lat.nested(V, U)]

    def _match(anchor, along):
        req = pinned.copy()
        for V in along:
            req = np.maximum(req, model.gap_to_set_array(V, model.proj[V](anchor)))
        return frozenset(model.space.vertices[i] for i in (req <= kappa).nonzero()[0])

    F = _match(x0, orth)
    E = _match(x0, nested)
    copies, seen = [], set()
    for e in model.space.ordered(E):
        copy = _match(e, orth)
        if copy not in seen:
            seen.add(copy)
            copies.append((e, copy))
    return ProductRegion(U, kappa, F, E, P, copies)


# -- hierarchical quasiconvexity and gates ------------------------------------


@dataclass
class HQReport:
    k0: int
    table: dict  # kappa -> realization distance
    threshold: float
    slope: float
    passed: bool


HQ_SLOPE = 4.0   # slope of the affine bound of hq_check


def hq_check(model, subset):
    """Measure hierarchical quasiconvexity of a vertex subset.

    k0 is the worst quasiconvexity constant of a projection of the subset;
    the table maps kappa to the largest distance from a point, all of whose
    projections are kappa-close to the subset's projections, back to the
    subset. Passing means the realization function stays under the declared
    affine bound, k(kappa) <= HQ_SLOPE * kappa + threshold; the failure mode
    of a non-quasiconvex subset is a large k at small kappa (points whose
    every coordinate looks close but which sit far from the subset), which
    no slope forgives. The threshold comes from the model's measured
    slack."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("empty subset")
    threshold = 2.0 * (model.xi() + model.realization_defect()) + 2.0
    imgs = [(U, model.proj[U].image_of_set(subset)) for U in model.elements]
    k0 = max(model.hyp[U].qc_constant(img) for U, img in imgs)
    gaps = np.stack([model.gap_to_set_array(U, img) for U, img in imgs]).max(axis=0)
    to_sub = model.space.dist[:, model.space.idx(list(subset))].min(axis=1)
    table = {}
    for kappa in sorted(set(int(g) for g in gaps)):
        table[kappa] = int(to_sub[gaps <= kappa].max())
    passed = k0 <= threshold and all(v <= HQ_SLOPE * k + threshold
                                     for k, v in table.items())
    return HQReport(k0, table, threshold, HQ_SLOPE, passed)


def gate(model, target, x):
    """Gate of x onto a hierarchically quasiconvex vertex set, as computed
    by gate_map. Raises NotHQC when the target fails hq_check."""
    hq = hq_check(model, target)
    if not hq.passed:
        raise NotHQC("target fails hierarchical quasiconvexity: k0=%s table=%s"
                     % (hq.k0, hq.table))
    return gate_map(model, target)(x)


def gate_map(model, target):
    """The gate onto a vertex set as a map of the space: each x goes to the
    target point whose projections best realize the closest-point
    projections of the projections of x; ties break to the least vertex.
    The target is not checked for hierarchical quasiconvexity here.

    Per U, one np.nonzero lists the (image set, closest point) pairs
    grouped by set, each group nonempty; np.maximum.reduceat over the
    group columns of far reduces each group at once, and the diagonal of
    the group block table (a reduceat over rows, then over columns) is
    each group's diameter."""
    target = frozenset(target)
    t_idx = np.sort(model.space.idx(list(target)))
    # worst[t, x]: max over U of the distance from pi_U(t) to the points of
    # pi_U(target) closest to pi_U(x); x gates to the t minimizing it
    worst = np.zeros((len(t_idx), len(model.space)), dtype=np.int64)
    for U in model.elements:
        m = model.proj[U]
        A = m.codomain.ordered(m.image_of_set(target))
        gaps = m.per_set(A, np.minimum)
        s, near = np.nonzero(gaps == gaps.min(axis=1, keepdims=True))
        starts = np.flatnonzero(np.diff(s, prepend=-1))
        # far[t, p] = dset(pi_U(t), {p}) for target points t and p in A
        far = m.dset_points(A)[m.sids[t_idx]]
        diam = m.codomain.block_table(m.codomain.idx(A)[near], starts, np.maximum).diagonal()
        col = np.maximum(np.maximum.reduceat(far[:, near], starts, axis=1), diam)
        np.maximum(worst, col[:, m.sids], out=worst)
    return CoarseMap.from_ids(model.space, model.space, t_idx[worst.argmin(axis=0)],
                              [(x,) for x in model.space.vertices], name="gate")


# -- supports and concreteness -------------------------------------------------


def epsilon_support(model, subset, eps):
    """Index elements where the subset has projection diameter above eps."""
    out = []
    for W in model.elements:
        if model.hyp[W].diam_set(model.proj[W].image_of_set(subset)) > eps:
            out.append(W)
    return frozenset(out)


@dataclass
class ConcretizeResult:
    model: object
    changed: bool
    core: object           # the join of the support, or None when unchanged
    removed: tuple
    eps: float
    neighborhood: int      # measured distance of the space to the core region


def concretize(model, eps=None):
    """``model.restrict`` to the join of the eps-support of the whole space,
    named model.name + "|core". Bounded and already-concrete models are
    returned unchanged. The measured neighborhood constant (how far the
    space wanders from the core product region) is reported."""
    if eps is None:
        alpha = measure_alpha(model)
        eps = 3.0 * max(model.xi(), alpha) + 1.0
    supp = epsilon_support(model, model.space.vertices, eps)
    if not supp:
        return ConcretizeResult(model, False, None, (), eps, 0)
    s_eps = model.lattice.join_all(supp)
    if s_eps == model.lattice.maximal:
        return ConcretizeResult(model, False, None, (), eps, 0)
    removed = tuple(e for e in model.elements if not model.lattice.nested(e, s_eps))
    region = product_region(model, s_eps, max(model.basics()))
    core = region.F if region.F else frozenset([model.basepoint])
    dist_to_core = int(model.space.dist[:, model.space.idx(list(core))].min(axis=1).max())
    sub = model.restrict(s_eps, name=model.name + "|core")
    return ConcretizeResult(sub, True, s_eps, removed, eps, dist_to_core)


# -- distance formula ----------------------------------------------------------


@dataclass
class DistanceFormulaFit:
    s: float
    K: float
    C: float
    worst_pair: tuple


def distance_formula_fit(model, s):
    """Tightest (K, C) comparing the space metric with the s-clipped sum of
    projection distances, over all vertex pairs; C ranges over the integer
    grid, K is minimized first. Also returns the pair attaining the worst
    ratio at the chosen constants."""
    ids, total = _clipped_class_sum(model, model.elements, s)
    D = model.space.dist
    iu = np.triu_indices(len(model.space), k=1)
    d_flat = D[iu].astype(np.float64)
    t_flat = total[ids[iu[0]], ids[iu[1]]].astype(np.float64)
    if len(d_flat) == 0:
        return DistanceFormulaFit(s, 1.0, 0.0, (model.basepoint, model.basepoint))

    def need(C):
        upper = _linear_need(d_flat, t_flat, C)
        if upper is None:
            return None
        lower = np.where(d_flat + C > 0, t_flat / np.maximum(d_flat + C, 1), 0.0)
        return np.maximum(upper, lower)

    K, C, j = _least_grid_fit(need, int(D.max()) + 1)
    return DistanceFormulaFit(s, K, C, (model.space.vertices[iu[0][j]],
                                        model.space.vertices[iu[1][j]]))


def _clipped_class_sum(model, elements, s):
    """(ids, total): the coordinate class of each base vertex under the
    elements, and the class-pair table of the s-clipped sum of their
    projection distances (each d_U >= s counts, the others count 0)."""
    ids, reps = model.coordinate_classes(elements)
    total = np.zeros((len(reps),) * 2, dtype=np.int64)
    for U in elements:
        T = model.class_table(U, reps)
        total += np.where(T >= s, T, 0)
    return ids, total


def _linear_need(lhs, rhs, C):
    """The K each entry needs for lhs <= K * rhs + C, or None when an entry
    with rhs = 0 has lhs > C."""
    if ((rhs == 0) & (lhs > C)).any():
        return None
    return np.where(rhs > 0, (lhs - C) / np.where(rhs > 0, rhs, 1), 0.0)


def _least_grid_fit(need, c_end):
    """Least (K, C), K first and at least 1, over C = 0 .. c_end - 1, where
    need(C) is the array of K each entry requires at C, or None when C is
    infeasible. Stops at the first C with K = 1. Returns (K, C, j), j the
    entry requiring the most at the chosen C."""
    best = None
    for C in range(c_end):
        req = need(C)
        if req is None:
            continue
        K = max(1.0, float(req.max()))
        if best is None or K < best[0]:
            best = (K, float(C), int(req.argmax()))
        if K == 1.0:
            break
    return best


# -- the auditor ----------------------------------------------------------------


def _orthogonal_families(lat):
    """Every nonempty set of pairwise orthogonal elements, as a list in
    element order; families come by size, then in element order."""
    later = {a: [lat.elements[j] for j in np.flatnonzero(row).tolist()]
             for a, row in zip(lat.elements, lat.orth_up)}
    queue = deque(([a], later[a]) for a in lat.elements)
    while queue:
        base, common = queue.popleft()
        yield base
        for i, u in enumerate(common):
            queue.append((base + [u], [w for w in common[i + 1:] if w in later[u]]))


ALPHA_SCAN_BUDGET = 500000   # choices per family before ScanBudgetExceeded


def measure_alpha(model):
    """Minimal partial-realization constant: over every family of pairwise
    orthogonal elements and every choice of image points, the best witness
    point's worst error.

    Each family's choices are scanned in chunks of about _CHUNK_CELLS
    cells, so its product of choices is never held whole: per chunk, one
    np.maximum of the pin row and the members' point rows at each choice,
    reduced with min over base points and max over the choices. The base
    points scanned are one representative of each coordinate class of all
    the elements. This is exact: a pin row or a point row of V reads a
    vertex only through its image-set ids (of V, or of the W whose marker
    pins V), and vertices of one class share every image-set id, so every
    row is constant on a class and its minimum over the representatives
    is its minimum over all vertices."""
    lat = model.lattice
    _, reps = model.coordinate_classes(lat.elements)
    # per element V: the pin row (the worst distance to a rho marker of V
    # over the elements W above or transverse to V) and one row per point
    # p of the projection image, dset(pi_V(x), {p}), over representatives x
    pin_row = {V: np.zeros(len(reps), dtype=np.int64) for V in lat.elements}
    for i, j in np.argwhere(lat.rho).tolist():
        V, W = lat.elements[i], lat.elements[j]
        np.maximum(pin_row[V], model.dist_to_set_array(W, model.rho_set[(V, W)])[reps],
                   out=pin_row[V])
    point_rows = {}
    for V in lat.elements:
        m = model.proj[V]
        point_rows[V] = m.dset_points(m.codomain.ordered(m.image())).T[:, m.sids[reps]]
    step = max(1, spaces._CHUNK_CELLS // len(reps))
    alpha = 0
    for Vs in _orthogonal_families(lat):
        rows = [point_rows[Vj] for Vj in Vs]
        sizes = [len(r) for r in rows]
        count = math.prod(sizes)
        if count > ALPHA_SCAN_BUDGET:
            raise ScanBudgetExceeded("partial-realization scan exceeds budget: %d choices" % count)
        pin = np.maximum.reduce([pin_row[Vj] for Vj in Vs])
        for c0 in range(0, count, step):
            req = pin
            choice = np.unravel_index(np.arange(c0, min(c0 + step, count)), sizes)
            for r, c in zip(rows, choice):
                req = np.maximum(req, r[c])
            alpha = max(alpha, int(req.min(axis=1).max()))
    return alpha


def audit_axioms(model):
    """Run every per-axiom measurement; structural gaps fail, measured
    constants are reported with witnesses."""
    rep = AuditReport(model.name)
    lat = model.lattice

    struct = model.validate_structure().merged(lat.validate_relations())
    rep.entries.append(AxiomEntry("structure", struct.ok,
                                  witnesses=struct.violations[:12]))
    if not struct.ok:
        return rep

    delta = max(four_point_delta(model.hyp[U]) for U in lat.elements)
    xi = model.xi()

    lip = qc = surj = 0.0
    for U in lat.elements:
        lip = max(lip, coarse_map_constants(model.proj[U])[0])
        img = model.proj[U].image()
        qc = max(qc, model.hyp[U].qc_constant(img))
        CU = model.hyp[U]
        surj = max(surj, int(CU.dist[:, CU.idx(list(img))].min(axis=1).max()))
    rep.entries.append(AxiomEntry("projections", True,
                                  {"proj_lip": lip, "proj_qc": qc,
                                   "surj_radius": surj, "xi": float(xi),
                                   "delta": delta}))

    k0, wit, coh, cwit = _consistency_scan(model)
    kappa0 = max(k0, coh)
    rep.entries.append(AxiomEntry(
        "consistency", True, {"kappa0": float(kappa0)},
        [w for w in (wit, cwit) if w is not None]))

    comp = lat.complexity()
    rep.entries.append(AxiomEntry("complexity", comp <= len(lat.elements),
                                  {"complexity": comp}))

    e_ll = max(xi, kappa0) + 1.0
    lam, ll_wit = _audit_large_links(model, e_ll)
    rep.entries.append(AxiomEntry("large-links", True,
                                  {"e_large_links": e_ll, "lambda_ll": lam},
                                  [ll_wit] if ll_wit else []))

    e_bgi, bgi_wit = _audit_bgi(model)
    rep.entries.append(AxiomEntry("bounded-geodesic-image", True,
                                  {"e_bgi": float(e_bgi)},
                                  [bgi_wit] if bgi_wit else [],
                                  notes="checked over geodesic intervals"))

    alpha = measure_alpha(model)
    rep.entries.append(AxiomEntry("partial-realization", True,
                                  {"alpha_pr": float(alpha)}))

    theta = _theta_table(model)
    rep.entries.append(AxiomEntry("uniqueness", True, {"theta_u": theta}))
    return rep


def _innermost_big(lat, family, big_of):
    """(T, mask) for each T of the family with a nonempty mask: the pairs big
    in T (big_of(T) is a boolean pair array) and in no member of the family
    properly containing T."""
    bigs = {T: big_of(T) for T in family}
    for T in family:
        mask = bigs[T].copy()
        for T2 in family:
            if T2 != T and lat.properly_nested(T, T2):
                mask &= ~bigs[T2]
        if mask.any():
            yield T, mask


def _audit_large_links(model, E):
    """Least lambda >= 1 such that, for every W and vertex pair (x, y), the
    number of elements T below W with d_T(x, y) >= E and no such element
    above them, and the largest d_W from x to their rho markers, are both
    at most lambda * (d_W(x, y) + 1). Scanned over the coordinate classes
    of W and the elements below it; the witness is the first maximal pair
    in row-major vertex order."""
    lat = model.lattice
    lam, witness = 1.0, None
    for W in lat.elements:
        nested = [T for T in lat.below(W) if T != W]
        if not nested:
            continue
        _, reps = model.coordinate_classes([W] + nested)
        dW = model.class_table(W, reps).astype(np.float64)
        fam = np.zeros((len(reps),) * 2, dtype=np.int64)
        rho_req = np.zeros_like(fam)
        for T, mask in _innermost_big(lat, nested,
                                      lambda T: model.class_table(T, reps) >= E):
            fam += mask
            arr = model.dist_to_set_array(W, model.rho_set[(T, W)])[reps]
            np.maximum(rho_req, np.where(mask, arr[:, None], 0), out=rho_req)
        need = np.maximum(fam, rho_req).astype(np.float64) / (dW + 1.0)
        m = float(need.max())
        if m > lam:
            i, j = np.unravel_index(int(need.argmax()), need.shape)
            lam = m
            x, y = (model.space.vertices[r] for r in reps[[i, j]])
            witness = (W, x, y)
    return lam, witness


def _audit_bgi(model):
    """Interval variant: for each properly nested pair (v, w) and each
    endpoint pair (a, b) in C_w, E must exceed min(distance from the
    interval I(a, b) to the rho set, diameter of the interval's image under
    the downward map).

    One FiniteSpace.interval_reduce pass per w serves every v nested in it,
    through the recursion I(a, b) = {b} | U I(a, c) over the steps (c, b)
    on geodesics from a: it reduces each v's rho distances with np.minimum
    and its one-hot image-set bits (uint64 words) with np.bitwise_or.

    Per chunk, one array pass over all the vs settles every endpoint pair
    whose interval image is a single image set s: the popcounts of the
    OR-ed words, summed over each v's words, count the sets; the lone bit
    of a word is popcount(word - 1), in exact integers; and the value is
    min(gap, M[s, s]), read from one diagonal of all the vs' set tables.
    A pair of two or more sets is measured by _mask_diams only when its
    gap exceeds its v's running best, the largest value of the chunks
    before. This is exact: a pair left out has a value at most its gap, so
    at most that best, and so does the placeholder min(gap, ...) it keeps,
    so it can neither beat that best strictly nor come before the witness
    that set it.

    Witness rule: each v keeps its largest value with the first (a, b) in
    row-major order that reaches it; the pairs are then taken in
    nest_pairs() order, and a pair replaces the witness only with a
    strictly larger value."""
    pairs = model.lattice.nest_pairs()
    by_w = {}
    for v, w in pairs:
        by_w.setdefault(w, []).append(v)
    best = {}
    for w, vs in by_w.items():
        CW = model.hyp[w]
        n, J = len(CW), len(vs)
        to_rho = np.stack([CW.dist[:, CW.idx(list(model.rho_set[(v, w)]))].min(axis=1)
                           for v in vs], axis=1)
        tables = [model.rho_map[(v, w)].set_table() for v in vs]
        sizes = [len(M) for _, _, M in tables]
        words = np.cumsum([0] + [(k + 63) // 64 for k in sizes])
        bits = np.zeros((n, words[-1]), dtype=np.uint64)
        for (sids, _, _), w0 in zip(tables, words):
            bits[np.arange(n), w0 + sids // 64] = np.uint64(1) << (sids % 64).astype(np.uint64)
        # word c of v's words holds v's sets 64 c .. 64 c + 63; base[c] is
        # the place of the first of them in the diagonal of all the tables
        diag = np.concatenate([M.diagonal() for _, _, M in tables])
        owner = np.repeat(np.arange(J), np.diff(words))
        place = np.min_scalar_type(len(diag) + 64)
        base = (np.cumsum([0] + sizes)[owner]
                + 64 * (np.arange(words[-1]) - words[owner])).astype(place)
        heads, count_t = words[:-1], np.min_scalar_type(max(sizes))
        top, wit = np.zeros(J, dtype=np.int64), [None] * J
        for a0, (gap, mask) in CW.interval_reduce(np.arange(n), [(to_rho, np.minimum),
                                                                 (bits, np.bitwise_or)]):
            ones = np.bitwise_count(mask)
            single = np.add.reduceat(ones, heads, axis=2, dtype=count_t) == 1
            # a word less one has as many ones as the index of its lowest
            # bit, and 64 if the word is 0, which & 63 clears (taken in place
            # and undone: no uint64 temporary the size of mask). With the
            # base of each word that holds a set, the sum over v's words is
            # the place of a lone set; only a single-set pair's sum is a
            # place, clip keeps the others in range, and their values are
            # measured below or stay at most their gap
            mask -= np.uint64(1)
            ones = ones * base + (np.bitwise_count(mask) & 63)
            mask += np.uint64(1)
            at = np.add.reduceat(ones, heads, axis=2, dtype=place)
            vals = np.minimum(gap, diag.take(at, mode="clip"))
            vals, gap = vals.reshape(-1, J), gap.reshape(-1, J)
            multi = ~single.reshape(-1, J) & (gap > top)
            for j in np.flatnonzero(multi.any(axis=0)).tolist():
                rows = np.flatnonzero(multi[:, j])
                masks = mask.reshape(len(vals), -1)[rows, words[j]:words[j + 1]]
                vals[rows, j] = np.minimum(gap[rows, j], _mask_diams(masks, tables[j][2]))
            p = vals.argmax(axis=0)
            got = vals[p, np.arange(J)]
            for j in np.flatnonzero(got > top).tolist():
                top[j], wit[j] = got[j], (a0 + int(p[j]) // n, int(p[j]) % n)
            # drop this chunk's arrays before interval_reduce makes the next
            del gap, mask, ones, single, at, vals, multi
        for v, val, ab in zip(vs, top.tolist(), wit):
            best[v, w] = (val, ab)
    e_bgi, witness = 0, None
    for v, w in pairs:
        val, ab = best[v, w]
        if val > e_bgi:
            e_bgi = val
            witness = (v, w) + tuple(model.hyp[w].vertices[x] for x in ab)
    return e_bgi, witness


def _mask_diams(masks, M):
    """Per row of masks (uint64 words of one-hot image-set bits): the
    largest M[s, t] over the sets s, t the row holds, that is the diameter
    of their union. Rows are made distinct first, folding in one word at a
    time as coordinate_classes does, and each distinct row is unpacked and
    measured once, in pieces of about _CHUNK_CELLS cells."""
    _, first, key = np.unique(masks[:, 0], return_index=True, return_inverse=True)
    for col in masks.T[1:]:
        inv = np.unique(col, return_inverse=True)[1]
        _, first, key = np.unique(key * (int(inv.max()) + 1) + inv,
                                  return_index=True, return_inverse=True)
    k = len(M)
    s = np.arange(k)
    present = ((masks[first][:, s // 64] >> (s % 64).astype(np.uint64)) & np.uint64(1)) > 0
    diams = np.empty(len(first), dtype=M.dtype)
    step = max(1, spaces._CHUNK_CELLS // (k * k))
    for u0 in range(0, len(first), step):
        P = present[u0:u0 + step]
        rowmax = np.where(P[:, None, :], M, 0).max(axis=2)
        diams[u0:u0 + step] = np.where(P, rowmax, 0).max(axis=1)
    return diams[key]


def _theta_table(model):
    """kappa -> one more than the largest distance between two points whose
    projections are all under kappa apart (0 when no pair is), for kappa up
    to one past the largest projection distance; scanned over coordinate
    classes, with the largest distance between each pair of classes."""
    ids, reps = model.coordinate_classes(model.elements)
    m = None
    for U in model.elements:
        T = model.class_table(U, reps)
        # no out=m: a later T may come in a wider type than m
        m = T if m is None else np.maximum(m, T)
    D = model.space.block_table(*groups(ids, len(reps)), np.maximum)
    table = {}
    for kappa in range(0, int(m.max()) + 2):
        small = m < kappa
        table[kappa] = int(D[small].max()) + 1 if small.any() else 0
    return table


def normalize(model, radius=1):
    """Restrict each hyperbolic model to a neighborhood of the projection
    image (plus all rho markers living there); projections of finite models
    can always be assumed coarsely surjective, this enforces it."""
    new_hyp, new_proj, new_rset, new_rmap = {}, {}, {}, {}
    for U in model.elements:
        CU = model.hyp[U]
        keep = set(CU.neighborhood(model.proj[U].image(), radius))
        for (a, b), S in model.rho_set.items():
            if b == U:
                keep |= set(S)
        sub = CU.subspace(keep)
        new_hyp[U] = sub
        m = model.proj[U]
        new_proj[U] = CoarseMap.from_ids(model.space, sub, m.sids, m.sets, name=m.name)
    for (a, b), S in model.rho_set.items():
        new_rset[(a, b)] = frozenset(S)
    for (v, w), rmap in model.rho_map.items():
        CW, CV = new_hyp[w], new_hyp[v]
        # an image that misses CV goes to its nearest point of CV, the least
        # at a tie: one argmin per distinct image set
        near = rmap.per_set(CV.vertices, np.minimum).argmin(axis=1)
        kept = [[q for q in S if q in CV] or [CV.vertices[j]] for S, j in zip(rmap.sets, near)]
        new_rmap[(v, w)] = CoarseMap.from_ids(CW, CV, rmap.sids[rmap.domain.idx(CW.vertices)],
                                              kept, name=rmap.name)
    return HHSModel(model.space, model.lattice, new_hyp, new_proj,
                    new_rset, new_rmap, name=model.name + "|norm")
