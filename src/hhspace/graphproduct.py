"""Direct products of models and the graph-product recursion.

direct_product_structure is the product of two models; its docstring
states the rules of the product index set and its data.

The recursion for a whole product graph lives in build(). Complete graphs
fold into direct products, and graphs whose components are single vertices
into amalgams over the trivial group (free-product windows). A connected
graph splits along the link of its pivot vertex only when that link is all
of the rest of the graph. Every other graph raises HypothesisFailure: a
pivot whose link misses a vertex (the path on four vertices) and a free
factor with more than one vertex are out of scope.
Each level is kept as data: its subgraph, its model, and the levels it
combines with their embeddings, which one walk composes into the
inclusion of any sub-product a level holds.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, verify_embedding
from .groups import FreeProductBases
from .indexmaps import IndexMap
from .lattice import IndexLattice
from .model import HHSModel, hq_check, trivial_model
from .spaces import CoarseMap, check_distinct, product_graph, single_point
from .treecombine import HypothesisFailure, TreeOfHHS, build_combined


def _l(u):
    return ("l", u)


def _r(u):
    return ("r", u)


TOP = ("S",)


def direct_product_structure(a, b, name=""):
    """Combined model of the product of two models (BHS II, section 8).

    Index set: the tagged factor elements ("l", U) and ("r", U), a container
    ("V", e) per tagged element e, and the top ("S",). For tagged e, f:
    - e and f are orthogonal when they come from different factors, or when
      their factor says so; e is nested in f when their factor says so;
    - e is nested in ("V", f) iff e is orthogonal to f, and e is orthogonal
      to ("V", f) iff e is nested in f (e = f included);
    - ("V", e) is properly nested in ("V", f) iff f is properly nested in e;
    - everything is nested in the top; every other pair is transverse.

    Tagged elements keep their factor's hyperbolic model, projection
    (through their coordinate) and rho data. Containers and the top carry
    one-point models, so for every x properly nested in, or transverse to,
    such a y, the marker of x in y is y's point, and the downward map is
    constant at x's marker of the base vertex. The only other marker is
    that of ("V", f) inside a transverse tagged e (_complement_marker).
    """
    name = name or "%sx%s" % (a.name or "a", b.name or "b")
    space = product_graph(a.space, b.space, name=name)
    sides = {_l(U): (a, 0, U) for U in a.elements}
    sides.update({_r(U): (b, 1, U) for U in b.elements})
    tagged = list(sides)    # ("l", U) before ("r", U), each side in lattice order
    points = [("V", e) for e in tagged] + [TOP]
    elements = tagged + points

    nested, orth = [(x, TOP) for x in elements], []
    for e, (m, pick, U) in sides.items():
        for f, (_, pick_f, F) in sides.items():
            if pick != pick_f or m.lattice.orthogonal(U, F):
                orth.append((e, f))
                nested.append((e, ("V", f)))
            elif m.lattice.nested(U, F):
                orth.append((e, ("V", f)))
                nested += [(e, f), (("V", f), ("V", e))]
    lattice = IndexLattice(elements, TOP, nested, orth, name=name)

    # pair i of the product order is (a's point i // |b|, b's point i % |b|)
    rows = np.divmod(np.arange(len(space)), len(b.space))
    hyp, proj = {}, {}
    for e, (m, pick, U) in sides.items():
        hyp[e] = m.hyp[U]
        proj[e] = CoarseMap.from_ids(space, m.hyp[U], m.proj[U].sids[rows[pick]],
                                     m.proj[U].sets, name="pi:%s" % (e,))
    for y in points:
        hyp[y] = single_point(("pt",) + y)
        proj[y] = CoarseMap.constant(space, hyp[y], hyp[y].vertices)

    # factor data lifted as it is (the hyperbolic models are shared objects)
    rho_set, rho_map = {}, {}
    for m, tag in ((a, _l), (b, _r)):
        rho_set.update({(tag(x), tag(y)): S for (x, y), S in m.rho_set.items()})
        rho_map.update({(tag(x), tag(y)): mp for (x, y), mp in m.rho_map.items()})
    base, pos = space.vertices[0], lattice.pos
    for y in points:
        for x in elements:
            i, j = pos[x], pos[y]
            if not lattice.rho[i, j]:
                continue
            rho_set[(x, y)] = frozenset(hyp[y].vertices)
            if lattice.lt[i, j]:
                rho_map[(x, y)] = CoarseMap.constant(hyp[y], hyp[x], proj[x](base),
                                                     name="rho:%s<-%s" % (x, y))
            elif x in sides:
                rho_set[(y, x)] = _complement_marker(sides, x, y[1], proj[x](base))
    return HHSModel(space, lattice, hyp, proj, rho_set, rho_map, name=name)


def _complement_marker(sides, e, f, fallback):
    """Marker of the container element ("V", f) inside the model of e, for
    transverse pairs (e and f then share a factor). The container behaves
    like the orthogonal complement of f, so reuse the factor marker of that
    complement in e when it exists and is placed correctly; otherwise fall
    back to the base-vertex marker."""
    m, _, U = sides[e]
    lat = m.lattice
    cont = lat.top_container(sides[f][2])
    if cont is not None and lat.rho[lat.pos[cont], lat.pos[U]]:
        return m.rho_set.get((cont, U), frozenset(fallback))
    return frozenset(fallback)


def factor_embedding(product, factor_model, side, anchor=None, name=""):
    """Inclusion of one factor as a slice through an anchor point of the
    other factor (the base point by default); full, with isometric
    hyperbolic maps."""
    tag = _l if side == "l" else _r
    base = product.space.vertices[0]
    if side == "l":
        other = anchor if anchor is not None else base[1]
        fn = lambda x: (x, other)
    else:
        other = anchor if anchor is not None else base[0]
        fn = lambda x: (other, x)
    space_map = CoarseMap.single(factor_model.space, product.space, fn,
                                 name=name or "factor-" + side)
    index_map = IndexMap(factor_model.lattice, product.lattice,
                         {U: tag(U) for U in factor_model.elements},
                         name=name or "factor-" + side)
    hyp_maps = {U: CoarseMap.identity(factor_model.hyp[U])
                for U in factor_model.elements}
    return Embedding(factor_model, product, space_map, index_map, hyp_maps,
                     name=name or "factor-" + side)


# -- specs, splits, windows ------------------------------------------------------


class NoSplitNeeded(Exception):
    pass


class WindowTooLarge(Exception):
    pass


@dataclass
class ProductSpec:
    """Finite simplicial graph with a base group per vertex.

    bases values are ("cyclic", n) or ("z", ball_radius); window_radius
    (an int >= 0) controls the Bass-Serre windows; budget (an int >= 1)
    caps the total glued size."""
    vertices: tuple
    edges: frozenset
    bases: dict
    window_radius: int = 2
    budget: int = 6000

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("the graph needs at least one vertex")
        check_distinct(self.vertices, "vertex")
        self.vertices = tuple(sorted(self.vertices))
        self.edges = frozenset(frozenset(e) for e in self.edges)
        for e in self.edges:
            if len(e) != 2 or not all(v in self.vertices for v in e):
                raise ValueError("bad edge %r" % (sorted(e),))
        for v in self.vertices:
            base = self.bases.get(v)
            if not (isinstance(base, tuple) and len(base) == 2
                    and base[0] in ("cyclic", "z") and type(base[1]) is int
                    and base[1] >= (1 if base[0] == "cyclic" else 0)):
                raise ValueError("vertex %r needs a base ('cyclic', n >= 1) "
                                 "or ('z', r >= 0), not %r" % (v, base))
        for field, least in (("window_radius", 0), ("budget", 1)):
            value = getattr(self, field)
            if type(value) is not int or value < least:
                raise ValueError("%s must be an integer >= %d, not %r" % (field, least, value))

    def adjacent(self, u, v):
        return frozenset((u, v)) in self.edges

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def link(self, v):
        return tuple(sorted(u for u in self.vertices if self.adjacent(u, v)))

    def induced(self, verts):
        verts = tuple(sorted(verts))
        edges = frozenset(e for e in self.edges if all(v in verts for v in e))
        return ProductSpec(verts, edges, {v: self.bases[v] for v in verts},
                           self.window_radius, self.budget)

    def is_complete(self):
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def components(self):
        seen, out = set(), []
        for v in self.vertices:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                x = stack.pop()
                for y in self.vertices:
                    if y not in comp and self.adjacent(x, y):
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            out.append(tuple(sorted(comp)))
        return out


@dataclass
class SplitData:
    pivot: object
    left: ProductSpec       # the graph minus the pivot
    link: tuple             # link of the pivot

    def __repr__(self):
        return "SplitData(pivot=%r, left=%r, link=%r)" % (
            self.pivot, self.left.vertices, self.link)


def split(spec):
    """Deterministic pivot for the amalgam recursion: highest degree, ties
    to the least vertex id. Complete, disconnected and one-vertex graphs
    raise NoSplitNeeded (they are handled by the product / free-product /
    base cases)."""
    if len(spec.vertices) <= 1:
        raise NoSplitNeeded("single vertex")
    if spec.is_complete():
        raise NoSplitNeeded("complete graph: direct product")
    if len(spec.components()) > 1:
        raise NoSplitNeeded("disconnected graph: free product")
    pivot = max(spec.vertices, key=spec.degree)   # the first, so the least, at a tie
    rest = tuple(v for v in spec.vertices if v != pivot)
    return SplitData(pivot, spec.induced(rest), spec.link(pivot))


def base_group_model(kind, label):
    """Cayley model of one vertex group: a cycle for cyclic groups, an
    integer ball for the infinite cyclic group."""
    fp = FreeProductBases([kind])
    space = fp.base_cayley(0, label=lambda e, fp=fp: fp.normalize(((0, e),)))
    return trivial_model(space, elt="S", name="base:%s" % (label,))


def _point_embedding(pm, target, point):
    space_map = CoarseMap.constant(pm.space, target.space, [point])
    index_map = IndexMap(pm.lattice, target.lattice,
                         {pm.lattice.maximal: target.lattice.maximal})
    hyp_map = CoarseMap.constant(pm.hyp[pm.lattice.maximal],
                                 target.hyp[target.lattice.maximal], [point])
    return Embedding(pm, target, space_map, index_map,
                     {pm.lattice.maximal: hyp_map})


def free_product_window(bases, labels, radius, budget, name=""):
    """Windowed Bass-Serre tree of a free product of singleton-structure
    base groups: coset vertices out to the given tree radius, carrying
    translated Cayley copies, glued along shared elements through trivial
    edge groups. For three or more factors the tree takes the star-of-groups
    form, with a point vertex per glued group element adjacent to its
    cosets (coset-to-coset hops then cost two)."""
    fp = FreeProductBases(bases)
    k = len(bases)
    if k < 2:
        raise ValueError("free product needs at least two factors")
    hop = 1 if k == 2 else 2

    def coset_vertex(i, w):
        return ("gp", i, fp.coset_rep(w, i))

    def coset_model(i, w):
        rep = fp.coset_rep(w, i)
        labelled = fp.base_cayley(
            i, label=lambda e, rep=rep, i=i: fp.mult(rep, ((i, e),)))
        return trivial_model(labelled, elt="S", name="%s|%r" % (labels[i], rep))

    verts, depth = {}, {}
    edges, edge_models, edge_maps = [], {}, {}
    point_models = {}
    root = coset_vertex(0, ())
    verts[root] = coset_model(0, ())
    depth[root] = 0
    total = len(verts[root].space)
    queue = deque([(root, 0, ())])
    while queue:
        v, i, w = queue.popleft()
        if depth[v] + hop > radius:
            continue
        rep = fp.coset_rep(w, i)
        for x in fp.base_elements(i):
            g = fp.mult(rep, x)
            for j in range(k):
                if j == i:
                    continue
                u = coset_vertex(j, g)
                if u not in verts:
                    verts[u] = coset_model(j, g)
                    depth[u] = depth[v] + hop
                    total += len(verts[u].space)
                    if total > budget:
                        raise WindowTooLarge("window exceeds budget %d" % budget)
                    queue.append((u, j, g))
                if k == 2:
                    # the factor-0 coset first, so an edge found from either
                    # end has one key
                    e = (v, u) if i < j else (u, v)
                    if e not in edge_models:
                        pm = trivial_model(single_point(("e", g)), elt="SE",
                                           name="edge|%r" % (g,))
                        edges.append(e)
                        edge_models[e] = pm
                        edge_maps[(e, v)] = _point_embedding(pm, verts[v], g)
                        edge_maps[(e, u)] = _point_embedding(pm, verts[u], g)
                else:
                    ev = ("el", g)
                    if ev not in point_models:
                        point_models[ev] = trivial_model(
                            single_point(g), elt="S", name="el|%r" % (g,))
                        total += 1
                    for endpoint in (v, u):
                        e = (ev, endpoint)
                        if e not in edge_models:
                            pm = trivial_model(single_point(("e", g, endpoint)),
                                               elt="SE")
                            edges.append(e)
                            edge_models[e] = pm
                            edge_maps[(e, ev)] = _point_embedding(
                                pm, point_models[ev], g)
                            edge_maps[(e, endpoint)] = _point_embedding(
                                pm, verts[endpoint], g)
    allverts = dict(verts)
    allverts.update(point_models)
    return TreeOfHHS(list(allverts), edges, allverts, edge_models, edge_maps,
                     name=name or "fp-window")


def amalgam_star_window(side_model, pivot_model, name=""):
    """Windowed Bass-Serre tree of the splitting over the link subgroup when
    the link carries the whole remaining graph: one central vertex with the
    product of the link model and the pivot base, and one leaf per pivot
    ball element carrying a copy of the link model, glued along link copies
    through the corresponding product slice."""
    center = ("Q",)
    Q = direct_product_structure(side_model, pivot_model, name="center")
    verts = {center: Q}
    edges, edge_models, edge_maps = [], {}, {}
    for anchor in pivot_model.space.vertices:
        leaf = ("P", anchor)
        verts[leaf] = side_model
        e = (center, leaf)
        edges.append(e)
        edge_models[e] = side_model
        edge_maps[(e, leaf)] = Embedding.identity(side_model)
        edge_maps[(e, center)] = factor_embedding(Q, side_model, "l",
                                                  anchor=anchor,
                                                  name="slice@%r" % (anchor,))
    return TreeOfHHS(list(verts), edges, verts, edge_models, edge_maps,
                     name=name or "amalgam-window")


# -- the recursion ----------------------------------------------------------------


@dataclass
class CertLevel:
    subgraph: tuple
    case: str
    pivot: object
    ip_ok: bool
    cc_ok: bool
    inclusions: list      # dicts: name, full/hq/iso verdicts, constants

    def ok(self):
        return (self.ip_ok and self.cc_ok
                and all(i["full_ok"] and i["hq_ok"] and i["iso_ok"]
                        for i in self.inclusions))


@dataclass
class CertChain:
    levels: list

    @property
    def ok(self):
        return all(l.ok() for l in self.levels)

    def as_dict(self):
        return {"ok": self.ok, "levels": [
            {"subgraph": list(l.subgraph), "case": l.case,
             "pivot": l.pivot, "ip_ok": l.ip_ok, "cc_ok": l.cc_ok,
             "inclusions": l.inclusions} for l in self.levels]}


@dataclass
class BuildResult:
    model: HHSModel
    combined: object          # CombinedStructure for tree levels, else None
    cert: CertChain
    include: object           # callable subgraph-vertices -> Embedding


@dataclass
class _Level:
    """One level of the recursion: the subgraph it covers, its model, and
    the levels it combines, each with the embedding of its model into this
    level's model."""
    vertices: tuple
    model: HHSModel
    children: tuple = ()      # (child _Level, Embedding child.model -> model)

    def include(self, theta):
        """Embedding of the sub-product over theta: the identity on this
        level's own subgraph, else through the first child that holds
        theta; HypothesisFailure (witness theta) when none does."""
        theta = tuple(sorted(theta))
        if theta == self.vertices:
            return Embedding.identity(self.model)
        for child, emb in self.children:
            if set(theta) <= set(child.vertices):
                return child.include(theta).compose(emb)
        raise HypothesisFailure("no level of the recursion holds this subgraph",
                                theta)


def build(spec):
    """Recursive construction of the combined structure of the whole graph
    product: complete graphs fold into direct products, graphs of single
    vertices into free-product windows, and a connected graph splits along
    the link of the pivot when that link is the rest of the graph; every
    other graph raises HypothesisFailure. Tree windows go to build_combined
    as they are; it decorates them itself. Every level certifies the
    lattice checks plus fullness, hierarchical quasiconvexity and isometry
    of the inclusions used, and keeps them with its children, so
    include(theta) walks the levels down to the one whose subgraph is
    theta."""
    levels = []
    level, combined = _build_sub(spec, levels)
    return BuildResult(level.model, combined, CertChain(levels), level.include)


BOUNDED_DIAM = 2


def _certify_inclusion(name, emb):
    """Verify one inclusion: relation/fullness checks, hierarchically
    quasiconvex image, and isometric induced maps on hyperbolic models.
    Collapsing identifications between models of diameter at most
    BOUNDED_DIAM (the free-product windows) are quasi-isometries with constants within the
    model diameter; those count as isometric-up-to-bounded and the branch
    taken is recorded."""
    rep = verify_embedding(emb)
    hq = hq_check(emb.target, emb.image())
    worst = rep.measured["hyp_qi"]
    bounded = all(emb.hyp_maps[U].domain.diam() <= BOUNDED_DIAM
                  and emb.hyp_maps[U].codomain.diam() <= BOUNDED_DIAM
                  for U in emb.source.elements)
    exact = worst == (1.0, 0.0)
    iso_ok = exact or (bounded and worst[0] <= BOUNDED_DIAM
                       and worst[1] <= BOUNDED_DIAM)
    return {
        "name": name, "full_ok": rep.ok, "hq_ok": hq.passed,
        "iso_ok": iso_ok, "iso_exact": exact, "hyp_qi": list(worst),
        "diagram_defect": rep.measured["diagram_defect"],
    }


def _lattice_checks(model):
    return (model.lattice.verify_intersection_property().ok,
            model.lattice.verify_clean_containers().ok)


def _build_sub(spec, levels):
    verts = spec.vertices
    if len(verts) == 1:
        model = base_group_model(spec.bases[verts[0]], verts[0])
        ip, cc = _lattice_checks(model)
        levels.append(CertLevel(verts, "base", None, ip, cc, []))
        return _Level(verts, model), None
    if spec.is_complete():
        return _build_complete(spec, levels)
    comps = spec.components()
    if len(comps) > 1:
        return _build_free(spec, comps, levels)
    return _build_split(spec, levels)


def _build_complete(spec, levels):
    level, _ = _build_sub(spec.induced(spec.vertices[:1]), levels)
    for v in spec.vertices[1:]:
        right = base_group_model(spec.bases[v], v)
        prefix = level.vertices + (v,)
        product = direct_product_structure(level.model, right,
                                           name="x".join(map(str, prefix)))
        left_emb = factor_embedding(product, level.model, "l")
        right_emb = factor_embedding(product, right, "r")
        ip, cc = _lattice_checks(product)
        incs = [_certify_inclusion("factor:%s" % ",".join(map(str, level.vertices)),
                                   left_emb),
                _certify_inclusion("factor:%s" % v, right_emb)]
        levels.append(CertLevel(prefix, "direct-product", None, ip, cc, incs))
        level = _Level(prefix, product,
                       ((level, left_emb), (_Level((v,), right), right_emb)))
    return level, None


def _build_free(spec, comps, levels):
    subs = []
    for comp in comps:
        if len(comp) > 1:
            raise HypothesisFailure(
                "free factors with composite structures are outside the "
                "implemented window scope", comp)
        subs.append(_build_sub(spec.induced(comp), levels)[0])
    bases = [spec.bases[comp[0]] for comp in comps]
    labels = [comp[0] for comp in comps]
    combined = build_combined(free_product_window(
        bases, labels, spec.window_radius, spec.budget,
        name="fp:" + ",".join(map(str, labels))))
    fp = FreeProductBases(bases)
    children, incs = [], []
    for idx, sub in enumerate(subs):
        root = ("gp", idx, ())
        _class_of(combined, root, "S")      # the witness when the window misses root
        copy = combined.tree.vertex_models[root]

        def relabel(x, idx=idx):
            # base models index their own syllables 0, window copies by factor
            return fp.normalize(((idx, 0 if x == () else x[0][1]),))

        # both are trivial models: each space is its own hyperbolic model
        rel = CoarseMap.single(sub.model.space, copy.space, relabel)
        iso = Embedding(sub.model, copy, rel,
                        IndexMap(sub.model.lattice, copy.lattice, {"S": "S"}),
                        {"S": rel}, name="relabel:%r" % (labels[idx],))
        emb = iso.compose(_vertex_embedding(combined, root))
        incs.append(_certify_inclusion("free-factor:%s" % (labels[idx],), emb))
        children.append((sub, emb))
    ip, cc = _lattice_checks(combined.model)
    levels.append(CertLevel(spec.vertices, "free-product", None, ip, cc, incs))
    return _Level(spec.vertices, combined.model, tuple(children)), combined


def _class_of(combined, vertex, elt):
    try:
        return combined.class_at[(vertex, elt)]
    except KeyError:
        raise HypothesisFailure(
            "no class of the combined window holds this (vertex, element); "
            "the window radius does not reach that vertex",
            (vertex, elt)) from None


def _vertex_embedding(combined, v):
    """Embedding of the model at tree vertex v into the combined model:
    x goes to (v, x), each element to its class, each hyperbolic model
    through the comparison map of that class at v."""
    sub = combined.tree.vertex_models[v]
    model = combined.model
    cls_of = {U: _class_of(combined, v, U).id for U in sub.elements}
    return Embedding(sub, model,
                     CoarseMap.single(sub.space, model.space, lambda x: (v, x)),
                     IndexMap(sub.lattice, model.lattice, cls_of),
                     {U: combined.comparison_maps[(cls_of[U], v)]
                      for U in sub.elements},
                     name="vertex:%r" % (v,))


def _build_split(spec, levels):
    data = split(spec)
    v = data.pivot
    if data.link != data.left.vertices:
        # the general amalgam needs coset windows over a proper subgroup of
        # the complement; see the decisions on scope
        raise HypothesisFailure(
            "splitting whose link differs from the pivot complement needs "
            "coset windows over a proper subgroup; not implemented for %r"
            % (spec.vertices,), v)
    p_level, _ = _build_sub(data.left, levels)
    pivot_model = base_group_model(spec.bases[v], v)
    combined = build_combined(amalgam_star_window(p_level.model, pivot_model,
                                                  name="amalgam:%s" % (v,)))
    leaf = ("P", pivot_model.space.vertices[0])
    side = _vertex_embedding(combined, leaf)
    incs = [_certify_inclusion("amalgam-side:%r" % (leaf,), side),
            _certify_inclusion("amalgam-center", _vertex_embedding(combined, ("Q",)))]
    ip, cc = _lattice_checks(combined.model)
    levels.append(CertLevel(spec.vertices, "amalgam", v, ip, cc, incs))
    return _Level(spec.vertices, combined.model, ((p_level, side),)), combined
