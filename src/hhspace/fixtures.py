"""The named fixture corpus.

Every fixture is a small, exactly-computable model or family used by the
test suite, the demos and the command line front end:

- fixture_b_product: product of two one-element structures, the 5-element
  relation table with both orthogonal containers.
- grid_product: product of two paths carrying the product structure (the
  l1 grid, where the distance formula is exact at threshold 1).
- bounded_factor_product: a product with one single-vertex factor, the
  concretization example.
- factor_inclusion: the left-factor slice embedding of a product.
- hagen: a full embedding of a segment into a free-group window that fails
  to be coarsely lipschitz, with all degradation measured exactly. The
  ambient space is the convex hull of the embedded arc in the Cayley tree
  of the rank-2 free group: vertices (n, j), j <= n <= r, standing for the
  group elements with normal form a^n b^j. The index set holds the a-axis,
  the b-cosets meeting the hull in more than one point, and a maximal
  element whose model cones all of them off.
"""

import random

from .embedding import Embedding
from .graphproduct import (ProductSpec, build, direct_product_structure,
                           factor_embedding)
from .indexmaps import IndexMap
from .lattice import IndexLattice
from .model import HHSModel, trivial_model
from .spaces import CoarseMap, FiniteSpace, cone_off, path_graph, single_point
from .treecombine import TreeOfHHS


def fixture_b_product():
    a = trivial_model(path_graph(0, 1), elt="S1", name="A")
    b = trivial_model(cycle_len3(), elt="S2", name="B")
    return direct_product_structure(a, b, name="fixtureB")


def cycle_len3():
    return FiniteSpace([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def grid_product(n1=5, n2=7):
    a = trivial_model(path_graph(0, n1 - 1), elt="S1", name="P%d" % n1)
    b = trivial_model(path_graph(0, n2 - 1), elt="S2", name="P%d" % n2)
    return direct_product_structure(a, b, name="grid%dx%d" % (n1, n2))


def bounded_factor_product(n=7):
    a = trivial_model(path_graph(0, n - 1), elt="S1", name="P%d" % n)
    b = trivial_model(single_point("o"), elt="S2", name="pt")
    return direct_product_structure(a, b, name="bounded-factor")


def factor_inclusion(radius=3):
    """Left-factor inclusion into the product of two paths of the given
    radius (2*radius+1 vertices each)."""
    a = trivial_model(path_graph(-radius, radius), elt="S1", name="F")
    b = trivial_model(path_graph(-radius, radius), elt="S2", name="G")
    prod = direct_product_structure(a, b, name="prod-r%d" % radius)
    return factor_embedding(prod, a, "l", name="factor-incl-r%d" % radius)


# -- the coarsely-non-lipschitz full embedding --------------------------------


def hagen_target(r):
    """Ambient window: hull of the arc through a^n b^n, axes as index set."""
    verts = [(n, j) for n in range(r + 1) for j in range(n + 1)]
    edges = []
    for n in range(r):
        edges.append(((n, 0), (n + 1, 0)))
    for n in range(1, r + 1):
        for j in range(n):
            edges.append(((n, j), (n, j + 1)))
    X = FiniteSpace(verts, edges, name="hagen-hull-r%d" % r)

    axes = {"A": tuple((n, 0) for n in range(r + 1))}
    for n in range(1, r + 1):
        axes[("B", n)] = tuple((n, j) for j in range(n + 1))
    nested = [(w, "M") for w in axes]
    lattice = IndexLattice(list(axes) + ["M"], "M", nested, name=X.name)

    hyp = {w: X.subspace(axes[w], name=str(w)) for w in axes}
    CM = cone_off(X, axes, name="coned-hull")
    hyp["M"] = CM

    proj = {}
    for w, pts in axes.items():
        # each point goes to its nearest point of the axis
        proj[w] = CoarseMap.from_ids(X, hyp[w], X.nearest(pts), [(x,) for x in X.vertices],
                                     name="pi:%s" % (w,))
    proj["M"] = CoarseMap.single(X, CM, lambda x: x, name="pi:M")

    rho_set, rho_map = {}, {}
    for w in axes:
        rho_set[(w, "M")] = frozenset(axes[w])
        # a cone point goes where the first point of its axis goes
        at = X.idx([p if p in X.index else axes[p[1]][0] for p in CM.vertices])
        rho_map[(w, "M")] = CoarseMap.from_ids(CM, hyp[w], proj[w].sids[at], proj[w].sets,
                                               name="rho:%s<-M" % (w,))
    keys = [w for w in lattice.elements if w != "M"]
    for i, w in enumerate(keys):
        for v in keys[i + 1:]:
            rho_set[(w, v)] = proj[v].image_of_set(axes[w])
            rho_set[(v, w)] = proj[w].image_of_set(axes[v])
    return HHSModel(X, lattice, hyp, proj, rho_set, rho_map, name=X.name)


def hagen(r):
    """The full embedding of the segment 0..r into the hull window: vertex m
    goes to the image of the segment [m-1, m]... the whole column over a^m,
    so the image is the entire arc and consecutive image sets are exactly
    2m+2 apart."""
    target = hagen_target(r)
    source = trivial_model(path_graph(0, r), elt="R", name="segment-r%d" % r)
    cols = {m: frozenset((m, j) for j in range(m + 1)) for m in range(r + 1)}
    space_map = CoarseMap(source.space, target.space, cols, name="phi-r%d" % r)
    index_map = IndexMap(source.lattice, target.lattice, {"R": "A"}, name="phi")
    hyp_map = CoarseMap.single(source.hyp["R"], target.hyp["A"],
                               lambda m: (m, 0), name="phi*:R")
    return Embedding(source, target, space_map, index_map, {"R": hyp_map},
                     name="hagen-r%d" % r)


# -- the exponential-distortion window -----------------------------------------


def bs_window(k=2, radius=4):
    """Window of the Bass-Serre line of the ascending HNN extension of the
    integers by multiplication with k: a path of integer balls whose sizes
    grow k-fold per step, each edge including isometrically on one side and
    by multiplication with k on the other. All edge maps are full,
    hierarchically quasiconvex and uniformly coarsely lipschitz, but the
    comparison maps of the single identification class stretch by k per
    step, so the combination's uniformity hypothesis fails with the window.
    """
    def zball(n, name):
        return trivial_model(path_graph(-n, n), elt="Z", name=name)

    verts = ["v%d" % i for i in range(radius + 1)]
    models = {verts[i]: zball(k ** i, "ball%d" % i)
              for i in range(radius + 1)}
    edges, edge_models, edge_maps = [], {}, {}
    for i in range(radius):
        e = tuple(sorted((verts[i], verts[i + 1])))
        edges.append(e)
        em = zball(k ** i, "edge%d" % i)
        edge_models[e] = em
        lo, hi = models[verts[i]], models[verts[i + 1]]
        edge_maps[(e, verts[i])] = Embedding(
            em, lo, CoarseMap.single(em.space, lo.space, lambda x: x),
            IndexMap(em.lattice, lo.lattice, {"Z": "Z"}),
            {"Z": CoarseMap.single(em.hyp["Z"], lo.hyp["Z"], lambda x: x)},
            name="e%d-" % i)
        edge_maps[(e, verts[i + 1])] = Embedding(
            em, hi, CoarseMap.single(em.space, hi.space, lambda x, k=k: k * x),
            IndexMap(em.lattice, hi.lattice, {"Z": "Z"}),
            {"Z": CoarseMap.single(em.hyp["Z"], hi.hyp["Z"], lambda x, k=k: k * x)},
            name="e%d+" % i)
    return TreeOfHHS(verts, edges, models, edge_models, edge_maps,
                     name="bs1%d-r%d" % (k, radius))


# -- graph-product window fixtures -----------------------------------------------


def free_product_z2_z3(radius=2):
    """Bass-Serre window of the free product of the cyclic groups of order
    two and three, built through the graph-product recursion."""
    spec = ProductSpec(("a", "b"), frozenset(),
                       {"a": ("cyclic", 2), "b": ("cyclic", 3)},
                       window_radius=radius)
    return build(spec)


def raag_path(radius=2, ball=1):
    """The path on three vertices with integer-ball bases: the recursion
    splits at the middle vertex into the free product of the ends,
    amalgamated with its product with the middle."""
    spec = ProductSpec(
        ("a", "b", "c"),
        frozenset([frozenset(("a", "b")), frozenset(("b", "c"))]),
        {"a": ("z", ball), "b": ("z", ball), "c": ("z", ball)},
        window_radius=radius)
    return build(spec)


def random_valid_lattice(seed, n=6):
    """Seeded random lattice with the structural rules enforced: a random
    poset under a top element, orthogonality seeded on incomparable pairs
    and closed under inheritance (discarding seeds that would break
    exclusivity)."""
    rng = random.Random(seed)
    elems = list(range(n)) + ["S"]
    nested = {(i, "S") for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                nested.add((i, j))
    # the transitive closure, in element order: a walk over a set holding
    # "S" would follow the string hash
    nested = IndexLattice(elems, "S", nested).nest_pairs()
    comparable = {frozenset(p) for p in nested}
    seeds = set()
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((i, j)) not in comparable and rng.random() < 0.3:
                seeds.add(frozenset((i, j)))

    def close(pairs):
        """Inheritance closure; returns (closed set, conflicting pair or None)."""
        out = set(pairs)
        changed = True
        while changed:
            changed = False
            for (v, w) in nested:
                for p in list(out):
                    if w in p:
                        (u,) = p - {w}
                        if u != v and frozenset((v, u)) not in out:
                            if frozenset((v, u)) in comparable or u == v:
                                return out, p
                            out.add(frozenset((v, u)))
                            changed = True
        return out, None

    while True:
        orth, conflict = close(seeds)
        if conflict is None:
            lat = IndexLattice(elems, "S", nested, [tuple(p) for p in orth],
                               name="random-%s" % seed)
            if not lat.container_problems:
                return lat
            # some orthogonal family has no container element: remove every
            # seed pair meeting the up-set of the offending element, since
            # inheritance derives its partners only from those; the seed set
            # shrinks strictly, so this terminates
            z, u = lat.container_problems[0].witness
            up = {x for x in lat.elements if lat.nested(u, x)}
            smaller = {p for p in seeds if not (p & up)}
            seeds = smaller if smaller != seeds else set()
        elif conflict in seeds:
            seeds.discard(conflict)
        elif seeds:
            # conflict came from a derived pair; drop a seed and retry
            seeds.discard(min(seeds, key=lambda p: sorted(p)))
        else:
            return IndexLattice(elems, "S", nested, [],
                                name="random-%s" % seed)
