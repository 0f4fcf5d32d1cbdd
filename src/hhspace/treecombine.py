"""Combining trees of models into one structure.

A TreeOfHHS carries a model on every vertex and edge of a finite tree,
with an embedding from each edge model into both endpoint models. Index
elements of different vertices are identified when an edge element maps
onto both; the identification classes, their supports (subtrees), the
comparison maps between representatives, and the combined index set

    classes  |  support trees  |  one top element

are built here, together with all projections and relative projections,
so the result is an ordinary HHSModel that the generic auditor can
process. Support trees are ordered by inclusion; a class is orthogonal to
its own support tree, nested in the supports of everything orthogonal to
it, and transverse to the rest. Hyperbolic models for supports and for
the top are the corresponding trees with every properly contained
support coned off.

Relative projections follow two rules (_CombinedBuilder). A marker in a
class comes from a common vertex; in a support tree or the top it is the
subtree met with that tree, or the nearest vertex when they are disjoint.
A downward map is a comparison map or a closest-point projection.

The two hypothesis failures of the combination are first-class errors:
edge maps that are not full/quasiconvex/finite-lipschitz raise
HypothesisFailure, and comparison maps exceeding the declared uniformity
bound raise ComparisonNotUniform carrying the measured table (this is
what detects the exponential-distortion counterexample windows).
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from operator import itemgetter

import numpy as np

from .embedding import Embedding, verify_embedding
from .lattice import EMPTY, IndexLattice, NotALattice, ValidationReport
from .model import (AxiomEntry, HHSModel, _innermost_big, audit_axioms,
                    concretize, hq_check, measure_alpha, product_region)
from .spaces import (CoarseMap, FiniteSpace, check_distinct, cone_off, cross,
                     qi_constants)

# support ids ("T", rank) in rank order
_rank = itemgetter(1)


def _both_ways(pairs):
    """Each pair (a, b), then (b, a)."""
    return (p for a, b in pairs for p in ((a, b), (b, a)))


class HypothesisFailure(Exception):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__("%s (witness: %r)" % (reason, witness))


class ComparisonNotUniform(Exception):
    """Some comparison map exceeds the declared uniformity bound. Carries
    the full measured table [(class id, vertex, tree distance, K, C), ...]
    and the offending rows."""

    def __init__(self, bound, table, offenders):
        self.bound = bound
        self.table = table
        self.offenders = offenders
        super().__init__(
            "comparison maps exceed the declared bound %s: worst %r"
            % (bound, max(offenders, key=lambda r: r[3])))


class NotInSupport(Exception):
    pass


class TreeOfHHS:
    """tree vertices/edges with models and edge embeddings.

    edge_maps is keyed by (edge, endpoint); each value embeds the edge model
    into the endpoint vertex model. Edges may be given either way round:
    edges and the keys of edge_models and edge_maps are stored as edge_key
    gives them, the vertex of lesser index first. Every tree question below
    is a lookup in the distance table of space, whose index orders the
    vertices.
    """

    def __init__(self, vertices, edges, vertex_models, edge_models, edge_maps,
                 name=""):
        self.name = name
        vertices, edges = list(vertices), list(edges)
        check_distinct(vertices, "tree vertex")
        if len(edges) != len(vertices) - 1:
            raise ValueError("not a tree: %d vertices, %d edges"
                             % (len(vertices), len(edges)))
        # a connected graph on n vertices with n - 1 edges has them distinct
        self.space = FiniteSpace(vertices, edges, name=name + "|T")
        self.vertices = V = self.space.vertices
        self.edges = tuple((V[a], V[b]) for a, b in self.space.edges)
        self.vertex_models = dict(vertex_models)
        self.edge_models = {self.edge_key(*e): m for e, m in edge_models.items()}
        self.edge_maps = {(self.edge_key(*e), v): m
                          for (e, v), m in edge_maps.items()}

    def path(self, u, v):
        """The unique geodesic vertex sequence from u to v: the interval
        {w : d(u, w) + d(w, v) = d(u, v)}, ordered by d(u, w)."""
        D, index = self.space.dist, self.space.index
        i, j = index[u], index[v]
        on = np.flatnonzero(D[i] + D[j] == D[i, j])
        return tuple(self.space.vertices[w] for w in on[np.argsort(D[i, on])])

    def edge_key(self, a, b):
        index = self.space.index
        return (a, b) if index[a] < index[b] else (b, a)

    def closest_vertex(self, v, subtree):
        """The nearest vertex of the subtree; ties break to the least index.
        A reference for FiniteSpace.nearest, one vertex at a time."""
        index = self.space.index
        row = self.space.dist[index[v]]
        return min(subtree, key=lambda w: (row[index[w]], index[w]))

    def entry_edges(self, subtree):
        """Last edge (outside, inside) of the geodesic into the subtree from
        each vertex outside it, as a dict: the inside end is the closest
        vertex w of the subtree, the outside end the neighbour of w one step
        closer to v."""
        D, V = self.space.dist, self.vertices
        near = self.space.nearest(subtree)
        out = np.flatnonzero(near != np.arange(len(V)))
        w = near[out]
        step = (D[w] == 1) & (D[out] == D[out, w][:, None] - 1)
        return {V[v]: (V[u], V[x]) for v, u, x in zip(out, step.argmax(axis=1), w)}

    def bridge(self, sub1, sub2):
        """Closest pair of vertices between two disjoint subtrees; ties go to
        the least vertex of sub1, then of sub2: the nearest vertex of sub2
        from each row of sub1, then the first row at the minimum."""
        rows = np.sort(self.space.idx(list(sub1)))
        near = self.space.nearest(sub2)[rows]
        i = int(self.space.dist[rows, near].argmin())
        return self.space.vertices[rows[i]], self.space.vertices[near[i]]


@dataclass
class EquivClass:
    id: tuple
    members: frozenset          # of (vertex, element) pairs
    support: frozenset          # vertices
    rep_at: dict                # vertex -> element
    favorite_vertex: object
    favorite_rep: object

    def __repr__(self):
        return "EquivClass(%r @%r, support=%d)" % (
            self.favorite_rep, self.favorite_vertex, len(self.support))


def equivalence_classes(t):
    """Union-find closure of the edge identifications of index elements.
    A (vertex, element) node ranks by the tree index of the vertex, then by
    the element's position in the vertex lattice; roots and classes go by
    that rank."""
    index = t.space.index
    pos = {v: m.lattice.pos for v, m in t.vertex_models.items()}

    def rank(node):
        return index[node[0]], pos[node[0]][node[1]]

    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rank(ry) < rank(rx):
                rx, ry = ry, rx
            parent[ry] = rx

    for v in t.vertices:
        for U in t.vertex_models[v].elements:
            parent.setdefault((v, U), (v, U))
    for e in t.edges:
        em = t.edge_models[e]
        ma, mb = t.edge_maps[(e, e[0])], t.edge_maps[(e, e[1])]
        for E in em.elements:
            union((e[0], ma.index_map(E)), (e[1], mb.index_map(E)))

    groups = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    out = []
    for root, members in sorted(groups.items(), key=lambda kv: rank(kv[0])):
        rep_at = {}
        for (v, U) in members:
            if v in rep_at and rep_at[v] != U:
                raise HypothesisFailure("two equivalent elements in one vertex",
                                        (v, rep_at[v], U))
            rep_at[v] = U
        support = frozenset(rep_at)
        _check_connected(t, support)
        # favorites prefer original tree vertices: decoration leaves carry
        # restricted lattices whose containers undershoot the ambient ones
        fav = min(support, key=lambda v: (_deco_depth(v), index[v]))
        out.append(EquivClass(("c", fav, rep_at[fav]), frozenset(members),
                              support, rep_at, fav, rep_at[fav]))
    out.sort(key=lambda c: rank((c.favorite_vertex, c.favorite_rep)))
    return out


def _deco_depth(v):
    d = 0
    while isinstance(v, tuple) and len(v) == 4 and v[0] == "deco":
        d += 1
        v = v[1]
    return d


def _check_connected(t, support):
    """A vertex set of a tree is connected exactly when it spans |S| - 1
    tree edges (pairs at distance one)."""
    ids = t.space.idx(list(support))
    if (cross(t.space.dist, ids, ids) == 1).sum() != 2 * (len(ids) - 1):
        raise HypothesisFailure("class support is not connected",
                                tuple(t.space.ordered(support)))


# -- decoration ----------------------------------------------------------------


def decorate(t, models=None):
    """Attach product-region leaves until every vertex model has complexity
    one, so distinct classes end up with distinct supports.

    For each vertex, each nesting-maximal non-top element U, and each of
    the first COPY_CAP parallel copies of the U-region, a leaf ("deco", v,
    U, k) carrying ``model.restrict(U, copy)``, joined to v by its
    ``Embedding.inclusion``, is added unless the tree has it, so decorate is
    idempotent; the leaf recursion strictly drops complexity. The regions
    read index-ordered data only, so they are measured once per class of
    equal model_key and carried to the other models of the class by index.
    ``models`` is the _Classes table of model keys that build_combined
    shares between its stages (a fresh one when None). Returns a new tree
    named t.name + "~"."""
    vertices = list(t.vertices)
    edges = list(t.edges)
    vertex_models = dict(t.vertex_models)
    edge_models = dict(t.edge_models)
    edge_maps = dict(t.edge_maps)
    models = _Classes() if models is None else models
    regions = {}    # model class -> _region_copies of its first model
    queue = deque(t.vertices)
    while queue:
        v = queue.popleft()
        model = vertex_models[v]
        lat = model.lattice
        if lat.complexity() <= 1:
            continue
        number = models.model(model)
        if number not in regions:
            regions[number] = _region_copies(model)
        for p, copies in regions[number]:
            U = lat.elements[p]
            for k, ids in enumerate(copies):
                leaf = ("deco", v, U, k)
                if leaf in vertex_models:
                    continue
                copyset = [model.space.vertices[i] for i in ids]
                leaf_model = model.restrict(U, copyset, name="%s|%s#%d" % (v, U, k))
                vertices.append(leaf)
                e = (v, leaf)
                edges.append(e)
                vertex_models[leaf] = leaf_model
                edge_models[e] = leaf_model
                edge_maps[(e, leaf)] = Embedding.identity(leaf_model)
                edge_maps[(e, v)] = Embedding.inclusion(leaf_model, model)
                queue.append(leaf)
    return TreeOfHHS(vertices, edges, vertex_models, edge_models, edge_maps,
                     name=t.name + "~")


def _region_copies(model):
    """Position of each nesting-maximal non-top element U, with the first
    COPY_CAP parallel copies of U's thinnest product region as vertex
    index lists."""
    lat = model.lattice
    cap = max(model.basics())
    tops = [U for U in lat.elements if U != lat.maximal
            and not any(lat.properly_nested(U, W) and W != lat.maximal
                        for W in lat.elements)]
    return [(lat.pos[U], [model.space.idx(list(copyset)) for _, copyset
                          in _thinnest_region(model, U, cap).copies[:COPY_CAP]])
            for U in tops]


def _thinnest_region(model, U, cap):
    """Product region at the smallest tolerance with a nonempty core; thin
    copies keep the restricted structures hierarchically quasiconvex."""
    kappa = 0
    while kappa <= cap:
        region = product_region(model, U, kappa)
        if region.F:
            return region
        kappa += 1
    return product_region(model, U, cap)


# -- comparison maps -----------------------------------------------------------


def edge_element(t, e, endpoint, vertex_elt):
    emb = t.edge_maps[(e, endpoint)]
    for E in emb.source.elements:
        if emb.index_map(E) == vertex_elt:
            return E
    return None


def comparison_map(t, cls, u, v):
    """Composition of edge-map quasi-inverses and edge maps along the
    geodesic from u to v; quasi-inverses pick the closest preimage with the
    vertex order breaking ties. Returns (map, K, C) with measured
    quasi-isometry constants."""
    if u not in cls.support or v not in cls.support:
        raise NotInSupport((cls.id, u, v))
    here = cls.rep_at[u]
    model = t.vertex_models[u]
    out = CoarseMap.identity(model.hyp[here])
    path = t.path(u, v)
    for a, b in zip(path, path[1:]):
        e = t.edge_key(a, b)
        E = edge_element(t, e, a, cls.rep_at[a])
        if E is None:
            raise HypothesisFailure("support edge carries no identification",
                                    (cls.id, e))
        back = t.edge_maps[(e, a)].hyp_maps[E].quasi_inverse()
        fwd = t.edge_maps[(e, b)].hyp_maps[E]
        out = out.compose(back).compose(fwd)
    K, C = qi_constants(out)
    return out, K, C


# -- the combined structure ------------------------------------------------------


THAT = ("That",)

COMPARISON_BOUND = 2.0     # the declared bound on K of every comparison map
COPY_CAP = 2               # parallel copies decorate gives each product region


@dataclass
class ConedTree:
    cones: dict       # label -> coned vertex set
    space: FiniteSpace


@dataclass
class CombinedStructure:
    tree: TreeOfHHS
    model: HHSModel
    classes: list
    class_of: dict            # class id -> EquivClass
    class_at: dict            # (tree vertex, vertex element) -> EquivClass
    supports: dict            # support id -> frozenset of tree vertices
    support_id: dict          # frozenset of tree vertices -> support id
    support_of: dict          # class id -> support id
    owners: dict              # support id -> classes on it, in class order
    coned: dict               # support id / THAT -> ConedTree
    comparison_table: list    # (class id, vertex, distance, K, C)
    comparison_maps: dict     # (class id, vertex) -> map into the favorite model
    comparison_bound: float
    decorated: bool           # no support has two owners
    warnings: list = field(default_factory=list)


# -- classes of equal models -----------------------------------------------------
#
# A Bass-Serre window is made of translates: models and edge maps that differ
# only in their labels. The hypothesis screen and tree_epsilon read
# index-ordered data only, so they give one answer on a whole class of models
# whose index-ordered tables are equal, and run once per class.


class _Classes:
    """Classes of equal keys, numbered in first-seen order. A key is a pair
    (sizes, tables): sizes is hashable and cheap, tables a tuple of arrays.
    Keys are bucketed by sizes, and a key joins the first class of its bucket
    whose tables are equal array by array; the key None is a class of its
    own. A _Classes holds either keys of models (``model``) or keys of
    edge maps, never both."""

    def __init__(self):
        self.buckets = {}
        self.count = 0
        self.models = {}    # id of a model -> (its class number, the model)

    def add(self, key):
        """The class number of key, and whether key starts the class."""
        if key is not None:
            sizes, tables = key
            bucket = self.buckets.setdefault(sizes, [])
            for number, other in bucket:
                if all(a is b or np.array_equal(a, b) for a, b in zip(tables, other)):
                    return number, False
            bucket.append((self.count, tables))
        self.count += 1
        return self.count - 1, True

    def model(self, m):
        """The class number of model m; each model object is keyed once."""
        if id(m) not in self.models:
            # holding m keeps its id unique
            self.models[id(m)] = self.add(model_key(m))[0], m
        return self.models[id(m)][0]


def _image_tables(m):
    """A coarse map's image sets by index: the set id of each domain point,
    then the sorted codomain indices of the sets and the offset of each."""
    rec = m.image_sets()
    return rec.sids, rec.flat, rec.starts


def model_key(m):
    """The label-free structure of a model in index order, as (sizes,
    tables), or None when the model fails its door (validate_structure),
    so that it is a class of its own; past the door no lookup below misses.

    The key holds the distance tables of the space and of every hyperbolic
    model, the lattice relations by position, the image sets of every
    projection and rho map, and every rho set as an index list. sizes holds
    the sizes, the relations and the rho keys by position. Models with equal
    keys are one model up to relabelling; the key refers to the model's
    tables and copies none."""
    if not m.validate_structure().ok:
        return None
    lat, space, hyp = m.lattice, m.space, m.hyp
    pos = lat.pos
    hyps = [hyp[U] for U in lat.elements]
    proj = [m.proj[U] for U in lat.elements]
    rho_sets = sorted(((pos[a], pos[b]), np.sort(hyp[b].idx(list(S))))
                      for (a, b), S in m.rho_set.items())
    rho_maps = sorted(((pos[v], pos[w]), r) for (v, w), r in m.rho_map.items())
    sizes = (len(space), lat.relations_by_position(),
             tuple(len(C) for C in hyps),
             tuple(len(p.sets) for p in proj),
             tuple((k, len(S)) for k, S in rho_sets),
             tuple((k, len(r.sets)) for k, r in rho_maps))
    return sizes, (space.dist, *(C.dist for C in hyps),
                   *chain.from_iterable(map(_image_tables, proj)),
                   *(S for _, S in rho_sets),
                   *chain.from_iterable(_image_tables(r) for _, r in rho_maps))


def embedding_key(emb, models):
    """The label-free structure of an edge map, as (sizes, tables), or None
    when its index map leaves the target lattice or a map reaches outside
    its space: the model classes of source and target, the index map by
    position, whether the space map and each hyperbolic map run between the
    spaces they belong to (verify_embedding's identity checks), and the
    image sets of the space map and of every hyperbolic map."""
    src, tgt = emb.source, emb.target
    pos = tgt.lattice.pos
    try:
        image = [emb.index_map(U) for U in src.elements]
        maps = [emb.space_map] + [emb.hyp_maps[U] for U in src.elements]
        sizes = (models.model(src), models.model(tgt),
                 tuple(map(pos.__getitem__, image)),
                 emb.space_map.domain is src.space, emb.space_map.codomain is tgt.space,
                 tuple((f.domain is src.hyp[U], f.codomain is tgt.hyp.get(Ui))
                       for U, Ui, f in zip(src.elements, image, maps[1:])),
                 tuple(len(f.sets) for f in maps))
    except KeyError:
        return None
    return sizes, tuple(chain.from_iterable(map(_image_tables, maps)))


def check_hypotheses(t, models=None):
    """Theorem-hypothesis screen for every edge embedding: structure and
    fullness checks, and a hierarchically quasiconvex image. Uniformity of
    the comparison maps across the tree is checked by build_combined.

    Both checks read index-ordered data only, so they run once per class of
    (edge, endpoint) pairs with equal embedding_key whose target is the
    endpoint's model, on its first member in t.edges order: the first
    failure and its witness are those of checking every pair in turn.
    ``models`` is the shared table of model keys, as for decorate."""
    models = _Classes() if models is None else models
    checks = _Classes()
    for e in t.edges:
        for endpoint in e:
            emb = t.edge_maps[(e, endpoint)]
            key = (embedding_key(emb, models)
                   if emb.target is t.vertex_models[endpoint] else None)
            if not checks.add(key)[1]:
                continue
            rep = verify_embedding(emb)
            if not rep.ok:
                raise HypothesisFailure("edge map fails structure checks",
                                        (e, endpoint, rep.violations[:3]))
            hq = hq_check(t.vertex_models[endpoint], emb.image())
            if not hq.passed:
                raise HypothesisFailure("edge image not hierarchically quasiconvex",
                                        (e, endpoint, hq.k0, hq.table))


def tree_epsilon(t, models=None):
    """One support threshold for the whole tree, from the uniform measured
    constants of all vertex and edge models (window comparison slop must
    not masquerade as a bounded coordinate). The constants read
    index-ordered data only, so each class of equal model_key is measured
    once, on its first model here. ``models`` is the shared table of model
    keys, as for decorate."""
    models = _Classes() if models is None else models
    worst = 0.0
    done = set()    # model classes measured
    for m in [*t.vertex_models.values(), *t.edge_models.values()]:
        number = models.model(m)
        if number not in done:
            done.add(number)
            xi, _ = m.basics()
            worst = max(worst, xi, measure_alpha(m))
    return 3.0 * worst + 1.0


def concretize_edges(t, models=None):
    """Restrict every edge model to the join of its supports at the
    tree-wide threshold (``concretize``) and precompose its two embeddings
    with the inclusion of the restriction; identifications then run over
    concrete edge elements only. Decoration edges are exempt: they are
    built in place as product-region inclusions and deliberately carry the
    container identifications that a concreteness reduction would drop.
    ``models`` goes to tree_epsilon."""
    eps = tree_epsilon(t, models)
    edge_models = dict(t.edge_models)
    edge_maps = dict(t.edge_maps)
    changed_any = False
    for e in t.edges:
        if any(_deco_depth(v) for v in e):
            continue
        res = concretize(t.edge_models[e], eps=eps)
        if not res.changed:
            continue
        changed_any = True
        edge_models[e] = res.model
        incl = Embedding.inclusion(res.model, t.edge_models[e])
        for endpoint in e:
            edge_maps[(e, endpoint)] = incl.compose(t.edge_maps[(e, endpoint)])
    if not changed_any:
        return t
    return TreeOfHHS(t.vertices, t.edges, t.vertex_models, edge_models,
                     edge_maps, name=t.name)


def build_combined(t):
    """Run the whole combination: decoration, hypothesis screen, edge
    concretization, classes and supports, comparison maps (uniformity
    enforced), the glued space, the combined lattice and all projection
    data. The structure records the decorated tree. The first three stages
    share one table of model keys, so each model object is keyed once.

    Every vertex and edge model of t must pass its door first: the first
    that fails, in vertex and then edge order, raises HypothesisFailure
    naming it with its first three violations. The door's report is kept
    on the model, and model_key reads it for every model anyway."""
    for kind, keys, given in (("vertex", t.vertices, t.vertex_models),
                              ("edge", t.edges, t.edge_models)):
        for key in keys:
            rep = given[key].validate_structure()
            if not rep.ok:
                raise HypothesisFailure("%s model fails structure checks" % kind,
                                        (key, rep.violations[:3]))
    models = _Classes()
    t = decorate(t, models)
    check_hypotheses(t, models)
    t = concretize_edges(t, models)
    classes = equivalence_classes(t)
    warnings = []

    comp_maps = {}       # (cls id, vertex) -> map into the favorite model
    table = []
    offenders = []
    for cls in classes:
        for v in t.space.ordered(cls.support):
            m, K, C = comparison_map(t, cls, v, cls.favorite_vertex)
            comp_maps[(cls.id, v)] = m
            d = t.space.d(v, cls.favorite_vertex)
            table.append((cls.id, v, d, K, C))
            if K > COMPARISON_BOUND:
                offenders.append((cls.id, v, d, K, C))
    if offenders:
        raise ComparisonNotUniform(COMPARISON_BOUND, table, offenders)

    # supports, numbered in the order of their sorted vertex index lists
    support_id = {sup: ("T", rank) for rank, sup in enumerate(sorted(
        {cls.support for cls in classes},
        key=lambda sup: sorted(map(t.space.index.__getitem__, sup))))}
    supports = {sid: sup for sup, sid in support_id.items()}
    support_of = {cls.id: support_id[cls.support] for cls in classes}
    owners = {}
    for cls in classes:
        owners.setdefault(support_id[cls.support], []).append(cls)
    for sid, owner in owners.items():
        if len(owner) > 1:
            warnings.append("support %r shared by %d classes after decoration"
                            % (sid, len(owner)))
    decorated = all(len(o) == 1 for o in owners.values())

    class_of = {c.id: c for c in classes}
    builder = _CombinedBuilder(t, class_of, supports, owners, comp_maps)
    model = builder.build()
    return CombinedStructure(
        tree=t, model=model, classes=classes, class_of=class_of,
        class_at={m: c for c in classes for m in c.members},
        supports=supports, support_id=support_id, support_of=support_of,
        owners=owners, coned=builder.coned,
        comparison_table=table, comparison_maps=comp_maps,
        comparison_bound=COMPARISON_BOUND,
        decorated=decorated, warnings=warnings)


def _torn_vertex(t, edges):
    """The first tree vertex whose points the glue edges of X leave in more
    than one piece. A metric table contributes no edges to X, so its points
    are joined only through the edge spaces (as a decoration's leaf is
    joined whole to its base). Vertex graphs are connected and every tree
    edge glues its two ends, so when X is not connected such a vertex
    exists and its space is a table."""
    root = {}

    def find(p):
        while root.get(p, p) != p:
            p = root[p]
        return p

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
    return next(v for v in t.vertices
                if len({find((v, p)) for p in t.vertex_models[v].space.vertices}) > 1)


class _CombinedBuilder:
    """The combined model of a tree of models (BHS II, arXiv 1509.00632,
    section 8); its relative projections are two rules.

    The subtree of a class is its support, of a support tree itself, and of
    That the whole tree; a support's class is its first owner. For x
    properly nested in y, or transverse to it:

    - marker rho_set[(x, y)]: if y is a class, the class_marker of x's
      class in y; else x's subtree met with y's or, when they are
      disjoint, the end in y of t.bridge;
    - downward map rho_map[(x, y)], x properly nested in y only: if y is a
      class, _class_rho_map through the witness vertex in self.rels; if x
      is a support, _support_point_map(y, x); else _class_point_map(x, y).

    Only a transverse pair falls to the bridge. A support nested in y lies
    in y's subtree. A class nested in a support tree is orthogonal to the
    tree's owner, so they share a vertex; or it is nested in a smaller
    support tree, or in a class that meets the tree and whose support lies,
    by the support laws, in its own.

    Two classes relate as their representatives do at the least common
    vertex of their supports, where their class marker and class-to-class
    downward map are read too (rel_classes, self.rels). Every common vertex
    gives the same relation and orientation: two supports meet in a
    subtree; a class crosses each edge of its support through one edge
    element; check_hypotheses runs verify_index_map on every edge map after
    decoration, so none changes a relation or its orientation; and the
    concretized maps are restrictions of checked maps.
    """

    def __init__(self, t, class_of, supports, owners, comp_maps):
        self.t = t
        self.class_of = class_of
        self.classes = list(class_of.values())
        self.supports = supports
        self.sup_ids = sorted(supports, key=_rank)
        self.subtree = {**{k: c.support for k, c in class_of.items()}, **supports,
                        THAT: frozenset(t.vertices)}
        self.owners = owners
        self.comp = comp_maps
        self.coned = {}
        self.lattice = None   # set by build, before the rules run
        self.rho_set, self.rho_map = {}, {}
        self.rels = {}   # (c1.id, c2.id) -> rel_classes(c1, c2), both orders
        self.entries = {}   # class id -> t.entry_edges(support), filled on use
        self.entry_values = {}   # (class id, entry edge) -> entry_value, on use

    # ---- helpers

    def rel_classes(self, c1, c2):
        """(relation, witness vertex, c1 nested in c2) of two classes at the
        least common vertex of their supports; the orientation is None unless
        nested, and disjoint supports give ("trans", None, None)."""
        commons = c1.support & c2.support
        if not commons:
            return ("trans", None, None)
        v = min(commons, key=self.t.space.index.__getitem__)
        a, b, lat = c1.rep_at[v], c2.rep_at[v], self.t.vertex_models[v].lattice
        r = lat.rel(a, b)
        return (r, v, lat.nested(a, b) if r == "nested" else None)

    def class_marker(self, src, dst):
        """The bounded marker of class src inside the favorite model of dst,
        for src properly nested in dst or transverse to it: the vertex
        marker at their witness vertex, compared into dst's favorite."""
        _, v, _ = self.rels[(src.id, dst.id)]
        if v is not None:
            marker = self.t.vertex_models[v].rho_set[(src.rep_at[v], dst.rep_at[v])]
            return self.comp[(dst.id, v)].image_of_set(marker)
        # disjoint supports: the image of the edge space across the last
        # edge of the bridge, projected and compared into the favorite model
        a, _ = self.t.bridge(src.support, dst.support)
        return self.entry_value(dst, a)

    def entry_value(self, cls, u):
        """pi_[cls] of any point over the tree vertex u outside the support:
        the projection of the edge space of the last edge of the geodesic
        from u into the support, through its inside endpoint. Computed once
        per class and entry edge."""
        if cls.id not in self.entries:
            self.entries[cls.id] = self.t.entry_edges(cls.support)
        w, v = self.entries[cls.id][u]
        key = (cls.id, w, v)
        if key not in self.entry_values:
            emb = self.t.edge_maps[(self.t.edge_key(w, v), v)]
            img = self.t.vertex_models[v].proj[cls.rep_at[v]].image_of_set(emb.image())
            self.entry_values[key] = self.comp[(cls.id, v)].image_of_set(img)
        return self.entry_values[key]

    # ---- the build

    def build(self):
        t = self.t
        # glued space
        verts = []
        edges = []
        for v in t.vertices:
            m = t.vertex_models[v]
            verts.extend((v, p) for p in m.space.vertices)
            for (ia, ib) in m.space.edges or ():
                edges.append(((v, m.space.vertices[ia]), (v, m.space.vertices[ib])))
        for e in t.edges:
            # each end glues at the least image point of its vertex space
            ends = [(v, t.edge_maps[(e, v)].space_map, t.vertex_models[v].space.index)
                    for v in e]
            for x in t.edge_models[e].space.vertices:
                edges.append(tuple((v, min(m(x), key=index.__getitem__))
                                   for v, m, index in ends))
        try:
            X = FiniteSpace(verts, edges, name=t.name + "|X")
        except ValueError:
            raise HypothesisFailure("vertex space is a metric table, not a graph",
                                    (_torn_vertex(t, edges),)) from None

        sup_ids = self.sup_ids
        elements = list(self.class_of) + sup_ids + [THAT]

        nested, orth = [], []
        for c1, c2 in combinations(self.classes, 2):
            r, v, oriented = self.rels[(c1.id, c2.id)] = self.rel_classes(c1, c2)
            self.rels[(c2.id, c1.id)] = (r, v, None if oriented is None else not oriented)
            if r == "nested":
                nested.append((c1.id, c2.id) if oriented else (c2.id, c1.id))
            elif r == "orth":
                orth.append((c1.id, c2.id))
        nested += [(s1, s2) for s1 in sup_ids for s2 in sup_ids
                   if self.supports[s1] < self.supports[s2]]
        for cls in self.classes:
            for sid in sup_ids:
                owner = self.owners[sid][0]
                if any(cls.id == o.id for o in self.owners[sid]):
                    orth.append((cls.id, sid))
                    continue
                r, _, inside = self.rels[(cls.id, owner.id)]
                if r == "nested":
                    # orthogonal when cls is nested in the owner; the owner
                    # nested in cls falls to the transverse default
                    if inside:
                        orth.append((cls.id, sid))
                elif r == "orth":
                    nested.append((cls.id, sid))
        nested += [(e, THAT) for e in elements[:-1]]
        self.lattice = IndexLattice(elements, THAT, nested, orth, name=t.name + "|S")

        # hyperbolic models
        hyp = {cls.id: t.vertex_models[cls.favorite_vertex].hyp[cls.favorite_rep]
               for cls in self.classes}
        for sid in sup_ids:
            sup = self.supports[sid]
            graph = FiniteSpace(sup, [(a, b) for a, b in t.edges if a in sup and b in sup])
            cones = {s2: self.supports[s2] for s2 in sup_ids if self.supports[s2] < sup}
            coned = cone_off(graph, cones, name="%r^" % (sid,))
            self.coned[sid] = ConedTree(cones, coned)
            hyp[sid] = coned
        all_cones = {sid: self.supports[sid] for sid in sup_ids}
        that_coned = cone_off(t.space, all_cones, name="That")
        self.coned[THAT] = ConedTree(all_cones, that_coned)
        hyp[THAT] = that_coned

        # relative projections
        self._rho_classes()
        self._rho_supports()
        self._rho_cross()
        self._rho_that()

        # projections
        proj = {}
        proj[THAT] = CoarseMap.single(X, that_coned, lambda x: x[0], name="pi:That")
        for sid in sup_ids:
            proj[sid] = proj[THAT].compose(self.rho_map[(sid, THAT)])
            proj[sid].name = "pi:%r" % (sid,)
        # X sorts (v, p) by v first: the points over v are a run (v, start, length)
        runs = [(v, X.index[(v, sp.vertices[0])], len(sp))
                for v, sp in ((v, t.vertex_models[v].space) for v in t.vertices)]
        for cls in self.classes:
            ids = np.empty(len(X), dtype=np.int64)
            vals = []
            for v, lo, k in runs:
                if v in cls.support:
                    # one comparison image per distinct image set over v
                    m = t.vertex_models[v].proj[cls.rep_at[v]]
                    ids[lo:lo + k] = m.sids + len(vals)
                    vals.extend(map(self.comp[(cls.id, v)].image_of_set, m.sets))
                else:
                    ids[lo:lo + k] = len(vals)
                    vals.append(self.entry_value(cls, v))
            proj[cls.id] = CoarseMap.from_ids(X, hyp[cls.id], ids, vals, name="pi:%r" % (cls.id,))

        return HHSModel(X, self.lattice, hyp, proj, self.rho_set, self.rho_map,
                        name=t.name + "|combined")

    # ---- the rules

    def _rho_classes(self):
        self._rho(_both_ways(combinations(self.class_of, 2)))

    def _rho_supports(self):
        self._rho(_both_ways(combinations(self.sup_ids, 2)))

    def _rho_cross(self):
        self._rho(_both_ways(product(self.class_of, self.sup_ids)))

    def _rho_that(self):
        self._rho((x, THAT) for x in chain(self.class_of, self.sup_ids))

    def _rho(self, pairs):
        """Both rules on each ordered pair (x, y) where x is properly nested
        in y or transverse to it; other pairs are skipped."""
        lat = self.lattice
        for x, y in pairs:
            i, j = lat.pos[x], lat.pos[y]
            if not lat.rho[i, j]:
                continue
            if lat.lt[i, j]:
                self.rho_map[(x, y)] = self._down(x, y)
            self.rho_set[(x, y)] = self._marker(x, y)

    def _marker(self, x, y):
        """The marker rule of the class docstring."""
        if y in self.class_of:
            src = self.class_of[x] if x in self.class_of else self.owners[x][0]
            return self.class_marker(src, self.class_of[y])
        sx, sy = self.subtree[x], self.subtree[y]
        return sx & sy or frozenset([self.t.bridge(sx, sy)[1]])

    def _down(self, x, y):
        """The downward-map rule of the class docstring."""
        if x in self.supports:
            return self._support_point_map(y, x)
        if y not in self.class_of:
            return self._class_point_map(self.class_of[x], y)
        return self._class_rho_map(self.class_of[x], self.class_of[y], self.rels[(x, y)][1])

    def _class_rho_map(self, small, big, v):
        """rho map C[big] -> C[small] through a common vertex v with nested
        representatives: comparison back to v, the vertex-level map, then
        comparison to small's favorite."""
        t = self.t
        vm = t.vertex_models[v]
        back = self.comp[(big.id, v)].quasi_inverse()
        down = vm.rho_map[(small.rep_at[v], big.rep_at[v])]
        fwd = self.comp[(small.id, v)]
        return back.compose(down).compose(fwd)

    def _bases(self, key):
        """Per point of the coned tree ``key`` (a support id or THAT), the
        index of a tree vertex: cone points ("cone", support id) go to the
        least vertex of their support."""
        index = self.t.space.index
        return [index[p] if p in index else min(map(index.__getitem__, self.supports[p[1]]))
                for p in self.coned[key].space.vertices]

    def _support_point_map(self, key, sid):
        """Closest-point projection from the coned tree ``key`` (a support id
        or THAT) to the support tree sid, cone points going through the least
        vertex of their coned subtree."""
        return CoarseMap.from_ids(self.coned[key].space, self.coned[sid].space,
                                  self.t.space.nearest(self.supports[sid])[self._bases(key)],
                                  [(v,) for v in self.t.vertices])

    def _class_point_map(self, cls, key):
        """rho map from the coned tree ``key`` (a support id or THAT) down to
        the class: the base marker inside the support, the entry-edge value
        outside it."""
        # the base marker, the image of the first point, is the first image set
        vm = self.t.vertex_models[cls.favorite_vertex]
        inside = self.comp[(cls.id, cls.favorite_vertex)].image_of_set(
            vm.proj[cls.favorite_rep].sets[0])
        vals = [inside if v in cls.support else self.entry_value(cls, v)
                for v in self.t.vertices]
        return CoarseMap.from_ids(self.coned[key].space, vm.hyp[cls.favorite_rep],
                                  self._bases(key), vals)


# -- combined-structure verification ------------------------------------------


def combined_wedge_table(c):
    """Wedges and containers of the combined lattice: the case formulas
    (through vertex-lattice wedges, orthogonal containers and support
    intersections) against brute-force maximal common lower bounds, the two
    container identities, and the support of a join class against the
    support intersection. Mismatches are report entries."""
    lat = c.model.lattice
    rep = ValidationReport("combined-wedge:%s" % c.model.name)
    elements, tables = lat.elements, lat.bound_tables()
    for i, j in np.argwhere(np.triu((tables["wedge"] < 0) | (tables["join"] < 0))).tolist():
        for kind in ("wedge", "join"):
            try:
                getattr(lat, kind)(elements[i], elements[j])
            except NotALattice as exc:
                rep.add(kind + "-not-unique", (elements[i], elements[j]), str(exc))
    wedges, joins = ({(x, y): labels[b] for x, row in zip(elements, tables[kind].tolist())
                      for y, b in zip(elements, row) if b >= 0}
                     for kind, labels in (("wedge", elements + (EMPTY,)), ("join", elements)))
    if not rep.ok:
        return wedges, joins, rep

    def formula_class_class(c1, c2):
        commons = c.tree.space.ordered(c1.support & c2.support)
        if commons:
            v = commons[0]
            vlat = c.tree.vertex_models[v].lattice
            try:
                w = vlat.wedge(c1.rep_at[v], c2.rep_at[v])
            except NotALattice:
                return None
            if w is EMPTY:
                return EMPTY
            return c.class_at[(v, w)].id
        return wedges[(c1.id, c2.id)]   # disjoint supports: no closed formula

    def container_class(cls):
        """The class of the vertex-level orthogonal container, evaluated at
        every support vertex; vertices with restricted lattices undershoot,
        so the nesting-maximal candidate is the meaningful one."""
        cands = []
        for v in c.tree.space.ordered(cls.support):
            vlat = c.tree.vertex_models[v].lattice
            cont = vlat.top_container(cls.rep_at[v])
            if cont is None:
                continue
            cands.append(c.class_at[(v, cont)].id)
        if not cands:
            return None
        best = cands[0]
        for cand in cands[1:]:
            if lat.nested(best, cand):
                best = cand
            elif not lat.nested(cand, best):
                rep.add("container-candidates-incomparable", (cls.id, cand, best))
        return best

    for i, id1 in enumerate(elements):
        for id2 in elements[i:]:
            got = wedges[(id1, id2)]
            want = "skip"
            if id1 == THAT or id2 == THAT:
                want = id2 if id1 == THAT else id1
            elif id1 in c.class_of and id2 in c.class_of:
                want = formula_class_class(c.class_of[id1], c.class_of[id2])
            elif id1 in c.supports and id2 in c.supports:
                inter = c.supports[id1] & c.supports[id2]
                if inter:
                    want = c.support_id.get(inter)
                    if want is None:
                        rep.add("support-intersection-missing", (id1, id2))
                        want = "skip"
                else:
                    k1 = container_class(c.owners[id1][0])
                    k2 = container_class(c.owners[id2][0])
                    want = (EMPTY if k1 is None or k2 is None
                            else wedges[(k1, k2)])
            else:
                cid, sid = (id1, id2) if id1 in c.class_of else (id2, id1)
                if lat.orthogonal(cid, sid):
                    want = EMPTY
                else:
                    k = container_class(c.owners[sid][0])
                    want = EMPTY if k is None else wedges[(cid, k)]
            if want != "skip":
                same = (got is EMPTY and want is EMPTY) or got == want
                if not same:
                    rep.add("wedge-formula-mismatch", (id1, id2),
                            "formula %r, brute force %r" % (want, got))

    for cls in c.classes:
        sid = c.support_of[cls.id]
        if lat.top_container(cls.id) != sid:
            rep.add("container-identity", (cls.id,),
                    "container of the class should be its support tree")
        if lat.top_container(sid) != cls.id and len(c.owners[sid]) == 1:
            rep.add("container-identity", (sid,),
                    "container of the support tree should be its class")

    for i, c1 in enumerate(c.classes):
        for c2 in c.classes[i + 1:]:
            inter = c1.support & c2.support
            if not inter:
                continue
            j = joins[(c1.id, c2.id)]
            if j in c.class_of:
                if c.class_of[j].support != inter:
                    rep.add("join-support-identity", (c1.id, c2.id, j),
                            "support of the join class differs from the "
                            "support intersection")
            elif j != THAT:
                rep.add("join-support-identity", (c1.id, c2.id, j),
                        "join of classes is not a class")
    return wedges, joins, rep


LARGE_LINKS_THRESHOLD = 4  # big pair distance for the support-count bound


def audit_combined(c):
    """Generic nine-axiom audit of the combined model plus the
    combination-specific claims: the complexity bound, the support-count
    bound for large links over support elements, the support laws (nesting
    exactly when supports are reversely included, and distinct supports for
    distinct classes), exactness of far-side projections for transverse
    classes with disjoint supports, coning diameters, and the
    wedge/container cross-check. Two classes that decoration left on one
    support fail the support laws with a witness."""
    rep = audit_axioms(c.model)
    lat = c.model.lattice

    chi = lat.complexity()
    chain1 = lat.longest_chain(c.class_of)
    chi_v = max(t.lattice.complexity() for t in c.tree.vertex_models.values())
    ok = chi <= 2 * chain1 + 1 and chain1 <= chi_v + 1
    rep.entries.append(AxiomEntry(
        "combined-complexity", ok,
        {"complexity": chi, "class_complexity": chain1,
         "max_vertex_complexity": chi_v}))

    bad = _support_large_links(c, LARGE_LINKS_THRESHOLD)
    rep.entries.append(AxiomEntry(
        "large-links-support-count", not bad,
        {"threshold": LARGE_LINKS_THRESHOLD, "violations": len(bad)},
        bad[:8]))

    laws = _support_laws(c)
    rep.entries.append(AxiomEntry(
        "support-laws", laws.ok, {"decorated": c.decorated},
        laws.violations[:8]))

    exact = _far_side_exactness(c)
    rep.entries.append(AxiomEntry(
        "far-side-projection-exactness", exact.ok, {}, exact.violations[:8]))

    cones = [(key, label, coned.space.diam_set(sub))
             for key, coned in c.coned.items() for label, sub in coned.cones.items()]
    wide = [w for w in cones if w[2] > 2]
    rep.entries.append(AxiomEntry(
        "coning", not wide, {"max_coned_diam": max([0] + [d for _, _, d in cones])},
        wide[:8]))

    rho_worst = 0
    for (a, b), S in c.model.rho_set.items():
        rho_worst = max(rho_worst, c.model.hyp[b].diam_set(S))
    rep.entries.append(AxiomEntry("rho-diameters", True,
                                  {"max_rho_diam": rho_worst}))

    _, _, wtab = combined_wedge_table(c)
    rep.entries.append(AxiomEntry("wedge-table", wtab.ok, {},
                                  wtab.violations[:8]))
    return rep


def _support_large_links(c, threshold):
    """|maximal support elements with big pair distance| must be bounded by
    the pair's distance in the ambient support element; zero tolerance.
    Scanned over the coordinate classes of each support element and the
    supports below it; a violation's witness is its first vertex pair in
    row-major order."""
    lat = c.model.lattice
    sup_ids = sorted(c.supports, key=_rank)
    bad = []
    for S in sup_ids + [THAT]:
        nested = [X for X in sup_ids if X != S and lat.properly_nested(X, S)]
        if not nested:
            continue
        _, reps = c.model.coordinate_classes([S] + nested)
        dS = c.model.class_table(S, reps)
        # a count, not a distance: int64, not dS's narrow type
        count = np.zeros(dS.shape, dtype=np.int64)
        for _, mask in _innermost_big(lat, nested,
                                      lambda X: c.model.class_table(X, reps) > threshold):
            count += mask
        viol = count > dS
        if viol.any():
            i, j = np.unravel_index(int(viol.argmax()), viol.shape)
            x, y = (c.model.space.vertices[r] for r in reps[[i, j]])
            bad.append((S, x, y, int(count[i, j]), int(dS[i, j])))
    return bad


def _support_laws(c):
    rep = ValidationReport("support-laws")
    lat = c.model.lattice
    for c1 in c.classes:
        for c2 in c.classes:
            if c1.id == c2.id:
                continue
            if lat.properly_nested(c1.id, c2.id):
                if not (c2.support <= c1.support):
                    rep.add("nesting-support-inclusion", (c1.id, c2.id))
            # nesting reverses support inclusion; decoration also gives the
            # converse: contained support means the other class nests
            if c2.support <= c1.support and not lat.nested(c1.id, c2.id):
                rep.add("support-inclusion-nesting", (c1.id, c2.id),
                        "reverse inclusion without nesting")
    seen = {}
    for cls in c.classes:
        if cls.support in seen:
            rep.add("distinct-supports", (seen[cls.support], cls.id))
        seen[cls.support] = cls.id
    return rep


def _far_side_exactness(c):
    """Transverse classes with disjoint supports: beyond the separating
    edge, the projection to the class equals the rho marker exactly."""
    rep = ValidationReport("far-side")
    lat = c.model.lattice
    for i, c1 in enumerate(c.classes):
        for c2 in c.classes[i + 1:]:
            if c1.support & c2.support:
                continue
            if not lat.transverse(c1.id, c2.id):
                continue
            for (src, dst) in ((c1, c2), (c2, c1)):
                rho, f = c.model.rho_set[(src.id, dst.id)], c.model.proj[dst.id]
                # vertices whose geodesic to dst's support passes the bridge
                bad = next(((v, x) for v in c.tree.space.ordered(src.support)
                            for x in c.tree.vertex_models[v].space.vertices
                            if f((v, x)) != rho), None)
                if bad:
                    rep.add("far-side-mismatch", (src.id, dst.id, *bad))
    return rep
