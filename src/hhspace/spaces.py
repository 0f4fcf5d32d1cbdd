"""Finite metric spaces and set-valued coarse maps.

A FiniteSpace is either a connected graph with the shortest-path metric
(unit edge lengths) or an explicit metric table (used for subspaces, which
carry the restricted ambient metric rather than the induced path metric).
All distance conventions used by the auditors live here:

- point distances are exact shortest-path integers (n x n, in the type of
  the dtype rule below): a tree takes a closed form over its DFS preorder,
  any other graph one breadth-first search from all sources at once over
  bitsets,
- the distance between two point-sets A, B is diam(A | B), the diameter of
  their union (the usual convention for projection distances),
- ``gap`` is the minimal distance between sets, used for neighborhoods,
  gates and Hausdorff distances,
- ``nearest`` answers every closest-point question: for each vertex, the
  index of its nearest vertex of a subset, ties going to the least index.

Labels are ordered here once, in ``vkey`` order: ``vertices`` follows it
and ``index`` holds that order, so other modules compare indices, not
labels. Each sort of labels takes a fresh ``sort_key()``, whose keys equal
``vkey``'s but which keys a tuple or frozenset shared between labels once.

The dtype rule. A distance table is stored in ``dist_dtype(diam)``, the
narrowest signed integer type that holds 2 * diam + 1: int8 up to diameter
63, int16 up to 16383, and so on; ``from_matrix`` rejects an entry of
2**62 or more, so int64 always suffices. The BFS kernels fill a table of
the stored type directly, as each knows the largest distance before it
fills a cell (the tree kernel from a second search out of a deepest
vertex, the bitset search from its last level), so a space stores that
table without a copy and a build never holds an int64 n x n table. Every
table read from ``dist`` keeps its type: the set diameters and set tables,
block tables and rows of distances to a set. Under the rule:

- the sum of two distances, and a distance plus one, stay exact in the
  table's type, and so do the interval tests d(a, x) + d(x, b) = d(a, b)
  and a negation;
- a table never meets a Python integer that is not a distance as a
  sentinel, fill value or ``np.minimum`` / ``np.maximum`` operand: NumPy
  turns ``np.where(mask, T, 2**63 - 1)`` into -1 on an int8 T and raises
  ``OverflowError`` on ``np.minimum(T, 300)`` (comparisons with any Python
  number are exact). A site that needs such a value, a count or a sum of
  more than two distances works in int64 or float: ``four_point_delta``
  and ``steps`` pick their own types, the ratio tables are float;
- an ``out=`` argument never receives a wider type, as the result would
  wrap there: tables of two spaces may differ in type.
"""

from collections import namedtuple
from itertools import chain

import numpy as np

# cells (of any dtype) one test of FiniteSpace.qc_constant, one row chunk of
# FiniteSpace.interval_reduce, one middle-vertex chunk of FiniteSpace.steps,
# one row chunk of the tree or bitset distance kernel, one neighbour gather
# of a bitset BFS level or one chunk of the four-point scan may take;
# small chunks keep the peak memory of these scans flat
_CHUNK_CELLS = 1 << 15

SetFamily = namedtuple("SetFamily", "sets flat starts diams")


def vkey(v):
    """Total deterministic ordering key for vertex/element ids of mixed types."""
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, float):
        return ("f", v)
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, tuple):
        return ("t", tuple(vkey(x) for x in v))
    if isinstance(v, frozenset):
        return ("fs", tuple(sorted(vkey(x) for x in v)))
    return ("r", repr(v))


def sort_key():
    """A key function for one sort, whose keys equal ``vkey``'s. The key of
    a tuple or frozenset inside a label is built once per object, memoized
    by ``id()`` for as long as the function lives: the labels being sorted
    hold their parts, so no id is reused meanwhile, and labels share parts
    (the tree vertex of every (vertex, point) pair). A label itself is not
    memoized, as a sort never repeats one. A memo by value would be wrong:
    it would merge (1,) and (True,), which ``vkey`` orders apart."""
    memo = {}

    def part(v):
        t = type(v)
        if t is int:
            return ("i", v)
        if t is str:
            return ("s", v)
        if isinstance(v, (tuple, frozenset)):
            k = memo.get(id(v))
            if k is None:
                k = memo[id(v)] = key(v)
            return k
        return vkey(v)

    def key(v):
        t = type(v)
        if t is int:
            return ("i", v)
        if t is str:
            return ("s", v)
        if isinstance(v, tuple):
            return ("t", tuple(map(part, v)))
        if isinstance(v, frozenset):
            return ("fs", tuple(sorted(map(part, v))))
        return vkey(v)

    return key


def sorted_vertices(vs):
    return tuple(sorted(set(vs), key=sort_key()))


def check_distinct(labels, what="label"):
    """Raise ValueError naming the first label that repeats an earlier one."""
    seen = set()
    for v in labels:
        if v in seen:
            raise ValueError("repeated %s %r" % (what, v))
        seen.add(v)


def dist_dtype(diam):
    """The dtype of a distance table of diameter diam: the narrowest signed
    integer type that holds 2 * diam + 1 (see the module docstring)."""
    return np.min_scalar_type(-(2 * diam + 1))


class FiniteSpace:
    """A finite connected metric space with integer distances: ``dist`` is
    the n x n table over vertex indices, in ``dist_dtype`` of the space's
    diameter."""

    def __init__(self, vertices, edges=None, dist=None, name=""):
        """A graph (``edges`` between labels) or a metric table ``dist``
        whose rows and columns follow the order of ``vertices``; labels are
        stored sorted by ``vkey``."""
        if dist is None:
            self._store(sorted_vertices(vertices), edges, None, name)
            return
        given = tuple(vertices)
        check_distinct(given, "vertex")
        keys = list(map(sort_key(), given))
        perm = sorted(range(len(given)), key=keys.__getitem__)
        self._store(tuple(given[i] for i in perm), edges, dist, name)
        if perm != list(range(len(perm))):
            perm = np.array(perm)
            self.dist = self.dist[perm[:, None], perm]

    @classmethod
    def _in_order(cls, vertices, edges=None, dist=None, name=""):
        """As the constructor, for labels that are distinct and already in
        ``vkey`` order: they are stored as given, with no sort."""
        space = cls.__new__(cls)
        space._store(tuple(vertices), edges, dist, name)
        return space

    def _store(self, vertices, edges, dist, name):
        """Keep the labels in the given order, and the table, whose rows
        follow that order, or the graph's BFS metric, in the dtype of its
        diameter; a table already in that dtype is kept, not copied."""
        self.name = name
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        if n == 0:
            raise ValueError("a FiniteSpace needs at least one vertex")
        self._steps = None
        if dist is not None:
            self.edges = tuple(edges) if edges is not None else None
            dist = np.asarray(dist)
            if dist.shape != (n, n):
                raise ValueError("distance table shape mismatch")
        else:
            es = set()
            for a, b in edges or ():
                ia, ib = self.index[a], self.index[b]
                if ia != ib:
                    es.add((min(ia, ib), max(ia, ib)))
            self.edges = tuple(sorted(es))
            adj = [[] for _ in range(n)]
            for ia, ib in self.edges:
                adj[ia].append(ib)
                adj[ib].append(ia)
            dist = _bfs_all_pairs(n, adj)
            if (dist < 0).any():
                raise ValueError("graph is not connected")
        self.dist = dist.astype(dist_dtype(int(dist.max())), copy=False)

    @classmethod
    def from_matrix(cls, vertices, table, name=""):
        """Build from an explicit metric; ``table`` rows follow ``vertices`` order.
        Raises ValueError on a repeated vertex, and unless the table is a square
        integer metric: non-negative, zero diagonal, every entry below 2**62
        (so that the sum of two fits int64), symmetric, triangle inequality.
        The table is converted to the dtype of its diameter once, before the
        symmetry and triangle tests."""
        src = list(vertices)
        n = len(src)
        m = np.asarray(table)
        if m.shape != (n, n):
            raise ValueError("distance table must be square, one row per vertex")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("distance table must hold integers")
        if (m < 0).any() or m.diagonal().any():
            raise ValueError("distance table must be non-negative with a zero diagonal")
        top = int(m.max(initial=0))
        if top >= 2 ** 62:
            raise ValueError("distance table entry %d is not below 2**62" % top)
        m = m.astype(dist_dtype(top))
        if (m != m.T).any():
            raise ValueError("distance table must be symmetric")
        for k in range(n):
            if (m > m[:, k, None] + m[None, k, :]).any():
                raise ValueError("distance table breaks the triangle inequality "
                                 "through vertex %r" % (src[k],))
        return cls(src, dist=m, name=name)

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self.index

    def idx(self, vs):
        return np.fromiter((self.index[v] for v in vs), dtype=np.int64, count=len(vs))

    def ordered(self, vs):
        """The labels vs in index order."""
        return sorted(vs, key=self.index.__getitem__)

    def d(self, u, v):
        return int(self.dist[self.index[u], self.index[v]])

    def diam(self):
        return int(self.dist.max())

    def diam_set(self, A):
        if not A:
            return 0
        ii = self.idx(list(A))
        return int(self.dist[ii[:, None], ii].max())

    def dset(self, A, B):
        """diam(A | B): the sup-convention distance between two point-sets."""
        return self.diam_set(set(A) | set(B))

    def gap(self, A, B):
        """min distance between two nonempty sets."""
        ia, ib = self.idx(list(A)), self.idx(list(B))
        return int(self.dist[ia[:, None], ib].min())

    def hausdorff(self, A, B):
        ia, ib = self.idx(list(A)), self.idx(list(B))
        m = self.dist[ia[:, None], ib]
        return int(max(m.min(axis=1).max(), m.min(axis=0).max()))

    def nearest(self, subset):
        """For every vertex index, the index of the nearest vertex of the
        subset: one argmin over the subset's columns in index order, so ties
        go to the least index, which is also the least label."""
        cols = np.sort(self.idx(list(subset)))
        return cols[self.dist[:, cols].argmin(axis=1)]

    def neighborhood(self, A, r):
        ia = self.idx(list(A))
        keep = (self.dist[:, ia].min(axis=1) <= r).nonzero()[0]
        return frozenset(self.vertices[i] for i in keep)

    def interval(self, u, v):
        """All vertices lying on some geodesic from u to v."""
        iu, iv = self.index[u], self.index[v]
        on = self.dist[iu] + self.dist[iv] == self.dist[iu, iv]
        return tuple(self.vertices[i] for i in on.nonzero()[0])

    def steps(self):
        """(c, b): the ordered pairs at positive distance with no vertex
        strictly between them, sorted by b and then by c. For a graph-built
        space these are its edges, both ways round. One scan over the middle
        vertices x, in chunks of about _CHUNK_CELLS cells of the narrowest
        unsigned dtype that holds 2 * (diam + 1), takes the least
        d(c, x) + d(x, b) over x other than c and b; by the triangle
        inequality it exceeds d(c, b) exactly at the step pairs. Cached on
        the space."""
        if self._steps is None:
            n, D = len(self), self.dist
            top = int(D.max()) + 1
            E = D.astype(np.min_scalar_type(2 * top))
            # with x = c or x = b the sum exceeds every distance
            np.fill_diagonal(E, top)
            through = np.full((n, n), 2 * top, dtype=E.dtype)
            step = max(1, _CHUNK_CELLS // (n * n))
            for x0 in range(0, n, step):
                xs = slice(x0, x0 + step)
                np.minimum(through, (E[:, xs, None] + E[None, xs, :]).min(axis=1),
                           out=through)
            b, c = np.nonzero((through > D) & (D > 0))
            self._steps = (c, b)
        return self._steps

    def interval_reduce(self, rows, columns):
        """Reductions over geodesic intervals in row chunks: yields (r0, outs)
        with outs[j][i, b] the reduction by the ufunc reduce_j (np.minimum,
        np.maximum, np.bitwise_or, ...) of values_j[x] over the x on a
        geodesic from rows[r0 + i] to b, for each (values_j, reduce_j) of
        ``columns``; values_j has one row per vertex and any trailing shape.

        Runs the recursion I(a, b) = {b} | U I(a, c) over the steps (c, b)
        with d(a, c) + d(c, b) = d(a, b), which holds in every finite metric:
        for x in I(a, b) other than b, the point c of I(x, b) - {b} nearest
        b makes (c, b) a step, with c in I(a, b) and x in I(a, c). Each row
        chunk takes its (a, c -> b) triples once and runs them level by level
        in d(a, b), over all its rows at once, with one reduceat per level
        and column. A chunk holds about _CHUNK_CELLS cells: a row takes n
        for its distances, n per value column and one per step pair; a
        level's gather takes one cell per triple and value column."""
        rows = np.asarray(rows, dtype=np.int64)
        n = len(self)
        sc, sb = self.steps()
        slen = self.dist[sc, sb]
        width = 1 + sum(int(np.prod(v.shape[1:])) for v, _ in columns)
        step = max(1, _CHUNK_CELLS // (n * width + len(sc)))
        for r0 in range(0, len(rows), step):
            Dr = self.dist[rows[r0:r0 + step]]
            i, s = np.nonzero(Dr[:, sc] + slen == Dr[:, sb])
            # cells i * n + b of the chunk; the steps run in b order, so the
            # targets ascend and a stable sort by level keeps them so
            tgt = i * n + sb[s]
            level = Dr.reshape(-1)[tgt]
            order = np.argsort(level, kind="stable")
            tgt, src, level = tgt[order], (i * n + sc[s])[order], level[order]
            cuts = np.flatnonzero(np.diff(level, prepend=0)).tolist() + [len(level)]
            outs = [np.repeat(v[None], len(Dr), axis=0) for v, _ in columns]
            flats = [o.reshape((-1,) + o.shape[2:]) for o in outs]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                heads = np.flatnonzero(np.diff(tgt[lo:hi], prepend=-1))
                cells = tgt[lo:hi][heads]
                for flat, (_, reduce) in zip(flats, columns):
                    part = reduce.reduceat(flat[src[lo:hi]], heads, axis=0)
                    flat[cells] = reduce(flat[cells], part)
            yield r0, outs

    def qc_constant(self, A):
        """Quasiconvexity constant of the subset A: the largest distance from a
        point on a geodesic between points of A back to A.

        The union of all geodesics between a and b is the interval I(a, b) =
        {x : d(a, x) + d(x, b) = d(a, b)}, so the constant is the largest
        level to_A[x] = d(x, A) of a point x on some I(a, b) with a, b in A.
        The scan takes the points off A from the highest level down, in
        chunks that may span several levels, and stops at the first chunk
        with a point on such an interval. No earlier chunk, so no higher
        level, has one, so the highest level met in that chunk is the exact
        constant; with no point met it is 0. The points of A are at level 0
        and never tested, so even a convex A, whose points off A are all
        tested in vain, reads fewer cells than the |A| x |A| x n cube of all
        the intervals.

        dist is symmetric, so d(x, A) and d(x, b) are read from rows of A.
        Every temporary holds about _CHUNK_CELLS cells: to_A is reduced over
        chunks of rows of A, and a test is a (rows of A) x A x (points off A)
        cube, chunked over both the rows and the points."""
        ia = self.idx(list(A))
        k = len(ia)
        if k <= 1:
            return 0
        D = self.dist
        step = max(1, _CHUNK_CELLS // len(self))
        to_A = D[ia[0]].copy()
        for r0 in range(1, k, step):
            np.minimum(to_A, D[ia[r0:r0 + step]].min(axis=0), out=to_A)
        order = np.argsort(-to_A, kind="stable")[:np.count_nonzero(to_A)]
        cstep = max(1, min(len(order), _CHUNK_CELLS // k))
        rstep = max(1, _CHUNK_CELLS // (k * cstep))
        for c0 in range(0, len(order), cstep):
            xs = order[c0:c0 + cstep]
            # P[i, j] = d(a_i, x_j) = d(x_j, a_i)
            P = D[ia[:, None], xs]
            best = 0
            # the pairs (a_i, a_j) with j from the chunk's first row on hold
            # every unordered pair, and the test is symmetric in a and b
            for r0 in range(0, k, rstep):
                r = slice(r0, r0 + rstep)
                on = (P[r, None, :] + P[None, r0:, :]
                      == D[ia[r, None], ia[r0:]][:, :, None]).any(axis=(0, 1))
                if on.any():
                    # xs runs down the levels: its first point met is the highest
                    best = max(best, int(to_A[xs[on.argmax()]]))
                    if best == to_A[xs[0]]:
                        break
            if best:
                return best
        return 0

    def set_family(self, sets):
        """Index a list of nonempty point sets for the table kernels below:
        the sets, their vertex indices concatenated (each set sorted) with
        the start offset of each set, and each set's diameter. One pass over
        the whole family: one idx call over all the points, one lexsort by
        (set, index) when some set has two or more points, and a diameter
        gather for those sets only (most sets are single points)."""
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        flat = self.idx(list(chain.from_iterable(sets)))
        starts = np.cumsum(sizes) - sizes
        diams = np.zeros(len(sets), dtype=self.dist.dtype)
        multi = np.flatnonzero(sizes > 1)
        if len(multi):
            flat = flat[np.lexsort((flat, np.repeat(np.arange(len(sets)), sizes)))]
            ends = starts + sizes
            for s in multi:
                p = flat[starts[s]:ends[s]]
                diams[s] = self.dist[p[:, None], p].max()
        return SetFamily(sets, flat, starts, diams)

    def per_set(self, fam, cols, reduce):
        """len(fam.sets) x len(cols) table: ``reduce`` (np.minimum or
        np.maximum) of the distances from each set of the family to each
        vertex index in cols."""
        return reduce.reduceat(self.dist[fam.flat[:, None], cols], fam.starts, axis=0)

    def dset_table(self, fa, fb):
        """len(fa.sets) x len(fb.sets) table of dset(A, B) = diam(A | B) over
        the sets A of family fa and B of family fb."""
        far = self.per_set(fa, fb.flat, np.maximum)
        M = np.maximum.reduceat(far, fb.starts, axis=1)
        return np.maximum(M, np.maximum(fa.diams[:, None], fb.diams[None, :]))

    def block_table(self, order, starts, reduce):
        """len(starts) x len(starts) table: ``reduce`` (np.minimum or
        np.maximum) of the distances from block s to block t, where block s
        is the run of vertex indices order[starts[s]:starts[s + 1]] and no
        block is empty (``groups`` gives order and starts)."""
        rows = reduce.reduceat(self.dist[order], starts, axis=0)
        return reduce.reduceat(rows[:, order], starts, axis=1)

    def subspace(self, keep, name=""):
        """Metric subspace (restricted ambient metric, not induced path metric)."""
        ii = sorted({self.index[v] for v in keep})
        rows = np.array(ii)
        return FiniteSpace._in_order([self.vertices[i] for i in ii],
                                     dist=self.dist[rows[:, None], rows],
                                     name=name or self.name + "|sub")

    def relabel(self, fn, name=""):
        return FiniteSpace([fn(v) for v in self.vertices], dist=self.dist,
                           name=name or self.name)

    def dot(self):
        lines = ["graph {"]
        for v in self.vertices:
            lines.append('  "%s";' % (v,))
        for a, b in self.edges or ():
            lines.append('  "%s" -- "%s";' % (self.vertices[a], self.vertices[b]))
        lines.append("}")
        return "\n".join(lines)


def _bfs_all_pairs(n, adj):
    """Shortest-path distances between all pairs of an undirected graph
    given by symmetric neighbour lists; -1 marks a pair that no path joins.
    Two exact kernels, chosen by the graph:

    - A tree takes a closed form. The test: the lists hold 2 (n - 1)
      entries, and one stack DFS from vertex 0 reaches all n vertices. A
      connected graph needs n - 1 distinct edges that are not self-loops,
      so with no more than n - 1 edges a cycle, a self-loop or a repeated
      edge leaves the DFS short, and a graph that passes is a tree. The DFS
      gives the preorder o and the depths q = dep[o]. For preorder
      positions i < j, dep(lca(o[i], o[j])) = min(q[i+1..j]) - 1. Proof:
      the subtree of the lca is contiguous in preorder and holds positions
      i and j, so every vertex at i+1..j lies strictly below the lca; the
      lca's child on the path to o[j] lies there too, as it comes after
      o[i] and not after o[j]. So d = q[i] + q[j] - 2 dep(lca). A row is a
      running minimum of q, forward for j > i and backward for j < i, so
      the NumPy calls do not grow with the diameter.
    - Any other graph takes a breadth-first search from all sources at once
      over bitsets, as "<u8" words with bit s for source s: row x of nV
      holds the sources that have not reached x yet, row x of F those that
      reached x at the last level. A level ORs F over each vertex's
      neighbours and keeps the bits still in nV. Bit-plane b ORs in the
      level's new bits when bit b of the level is set, so
      ceil(log2(diam + 1)) planes of n^2 / 8 bytes encode every distance in
      binary; a pair still in nV at the end is unreached. Only vertices of
      positive degree take part, as reduceat does not give the identity on
      an empty segment. As the graph is undirected, the row of x decoded
      from the planes is also the row of distances from x.

    Both kernels fill dist, in ``dist_dtype`` of the largest distance, in
    row chunks of about _CHUNK_CELLS cells, and the bitset search gathers
    neighbour words in pieces of that size, so they make no n x n temporary
    besides dist."""
    dist = _tree_all_pairs(n, adj)
    return _bitset_all_pairs(n, adj) if dist is None else dist


def _tree_all_pairs(n, adj):
    """The closed form of _bfs_all_pairs, or None if the graph is no tree."""
    if sum(map(len, adj)) != 2 * (n - 1):
        return None
    order, depth = _preorder(adj, 0)
    if len(order) < n:
        return None
    # a deepest vertex from 0 ends a longest path of the tree, so the depths
    # from it give the diameter, and so the dtype of dist
    diam = max(_preorder(adj, depth.index(max(depth)))[1])
    o = np.array(order, dtype=np.int64)
    q = np.array(depth, dtype=np.int64)[o]
    pos = np.empty(n, dtype=np.int64)
    pos[o] = np.arange(n)
    dist = np.empty((n, n), dtype=dist_dtype(diam))
    after = np.append(q[1:], n)
    cols = np.arange(n)
    step = max(1, _CHUNK_CELLS // n)
    for i0 in range(0, n, step):
        i = cols[i0:i0 + step, None]
        # ahead[k, j] = min(q[i+1..j]) for j > i, behind[k, j] = min(q[j+1..i])
        # for j < i; the other cells hold n, above every depth
        ahead = np.where(cols > i, q, n)
        np.minimum.accumulate(ahead, axis=1, out=ahead)
        behind = np.where(cols < i, after, n)
        np.minimum.accumulate(behind[:, ::-1], axis=1, out=behind[:, ::-1])
        np.minimum(ahead, behind, out=ahead)
        # d = q[i] + q[j] - 2 (min - 1), and 0 on the diagonal, where min = n
        ahead *= -2
        ahead += q
        ahead += q[i] + 2
        ahead[cols[:len(ahead)], i[:, 0]] = 0
        dist[o[i0:i0 + step]] = ahead[:, pos]
    return dist


def _preorder(adj, root):
    """(order, depth): the stack-DFS preorder of the vertices reached from
    root, and the depth of each vertex in that search, -1 if unreached."""
    order, depth = [], [-1] * len(adj)
    depth[root] = 0
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                stack.append(y)
    return order, depth


def _bitset_all_pairs(n, adj):
    """The bitset search of _bfs_all_pairs, for any graph."""
    deg = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    # only vertices of positive degree take part: reduceat over an empty
    # segment would return the next element, not the identity
    live = np.flatnonzero(deg)
    words = (n + 63) // 64
    slot = np.cumsum(deg > 0) - 1
    nbr = slot[np.fromiter(chain.from_iterable(adj), dtype=np.int64,
                           count=int(deg.sum()))]
    ends = np.cumsum(deg[live])
    starts = ends - deg[live]
    # vertex ranges whose neighbour words fill about _CHUNK_CELLS cells
    cut = [0]
    while cut[-1] < len(live):
        lo = cut[-1]
        room = int(starts[lo]) + max(1, _CHUNK_CELLS // words)
        cut.append(max(lo + 1, int(np.searchsorted(ends, room, side="right"))))
    pieces = [(lo, hi, int(starts[lo]), int(ends[hi - 1]), starts[lo:hi] - starts[lo])
              for lo, hi in zip(cut[:-1], cut[1:])]
    F = np.zeros((len(live), words), dtype="<u8")
    F[np.arange(len(live)), live >> 6] = np.left_shift(
        np.uint64(1), (live & 63).astype(np.uint64))
    nV = ~F
    planes = []
    level = 0
    while True:
        level += 1
        G = np.empty_like(F)
        for lo, hi, a, b, heads in pieces:
            np.bitwise_or.reduceat(F[nbr[a:b]], heads, axis=0, out=G[lo:hi])
        G &= nV
        if not G.any():
            break
        nV ^= G
        F = G
        if level >> len(planes):
            planes.append(np.zeros_like(G))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= G
    # the last level that reached a vertex is the largest distance
    dist = np.empty((n, n), dtype=dist_dtype(level - 1))
    lone = np.flatnonzero(deg == 0)
    dist[lone] = -1
    dist[lone, lone] = 0
    step = max(1, _CHUNK_CELLS // n)
    for r0 in range(0, len(live), step):
        rows = slice(r0, r0 + step)
        # unreached cells are 0 in every plane and 1 in nV
        d = np.negative(_bits(nV[rows], n), dtype=dist.dtype)
        for b, plane in enumerate(planes):
            d |= np.left_shift(_bits(plane[rows], n), b, dtype=dist.dtype)
        dist[live[rows]] = d
    return dist


def _bits(words, n):
    """The first n bits of each row of "<u8" words, one uint8 0 / 1 each."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def groups(ids, k):
    """(order, starts) for ids in 0..k-1: the indices grouped by id, in
    index order within a group, and the offset of each group in order."""
    order = np.argsort(ids, kind="stable")
    return order, np.searchsorted(ids[order], np.arange(k))


def path_graph(lo, hi=None, label=None):
    """Path on integers lo..hi (or 0..lo-1 when hi is None)."""
    if hi is None:
        lo, hi = 0, lo - 1
    vs = list(range(lo, hi + 1))
    lab = label or (lambda k: k)
    return FiniteSpace([lab(k) for k in vs], [(lab(k), lab(k + 1)) for k in vs[:-1]])


def cycle_graph(n, label=None):
    lab = label or (lambda k: k)
    vs = [lab(k) for k in range(n)]
    es = [(vs[k], vs[(k + 1) % n]) for k in range(n)] if n > 1 else []
    return FiniteSpace(vs, es)


def single_point(v="*"):
    return FiniteSpace([v], [])


def product_graph(a, b, name=""):
    """Cartesian product graph: the l1 metric on pairs. The pairs are built
    in product order, which is ``vkey`` order, as both factors are sorted."""
    vs = [(x, y) for x in a.vertices for y in b.vertices]
    es = []
    for (ia, ib) in a.edges or ():
        for y in b.vertices:
            es.append(((a.vertices[ia], y), (a.vertices[ib], y)))
    for (ia, ib) in b.edges or ():
        for x in a.vertices:
            es.append(((x, b.vertices[ia]), (x, b.vertices[ib])))
    return FiniteSpace._in_order(vs, es, name=name)


def cone_off(space, subsets, name=""):
    """Cone off each named vertex subset: add a cone vertex adjacent to every
    vertex of the subset. Subset labels become vertices ("cone", label)."""
    if space.edges is None:
        raise ValueError("cone_off needs a graph-backed space")
    vs = list(space.vertices)
    es = [(space.vertices[a], space.vertices[b]) for a, b in space.edges]
    for label, sub in subsets.items():
        c = ("cone", label)
        vs.append(c)
        es.extend((c, v) for v in sub)
    return FiniteSpace(vs, es, name=name)


def four_point_delta(space):
    """Exact Gromov four-point hyperbolicity constant: the largest value of
    (largest - second largest)/2 over the three pair-sums of every 4-tuple.
    The value depends only on the set of the four points, and is 0 when a
    point repeats, so each 4-set a < b < c < d is scanned once from its
    second point j = b: i runs below j, x and y above it (in both orders,
    and x = y, which give the same value or 0). The (i, x, y) cells of one
    j go in chunks of about _CHUNK_CELLS, in the narrowest signed integer
    dtype that holds 6 * diam, as top - mid = 2 * top + low - s1 - s2 - s3
    stays within it."""
    n = len(space)
    D = space.dist.astype(np.min_scalar_type(-6 * space.diam()))
    best = 0
    for j in range(1, n - 2):
        T, Dj = D[j + 1:, j + 1:], D[j, j + 1:]
        step = max(1, _CHUNK_CELLS // T.size)
        for i0 in range(0, j, step):
            i = slice(i0, min(j, i0 + step))
            s1 = D[i, j, None, None] + T
            s2 = D[i, j + 1:, None] + Dj
            s3 = s2.transpose(0, 2, 1)
            top = np.maximum(np.maximum(s1, s2), s3)
            low = np.minimum(np.minimum(s1, s2), s3)
            best = max(best, int((top + top + low - s1 - s2 - s3).max()))
    return best / 2.0


ImageSets = namedtuple("ImageSets", ("sids",) + SetFamily._fields)


class CoarseMap:
    """Set-valued map between FiniteSpaces with bounded point images, stored
    as its image-set table: ``sets``, the distinct image sets (frozensets of
    codomain labels) in order of first appearance over the domain vertices,
    and ``sids``, each domain vertex's set id. The constructor takes images
    by domain label (files, hand-made maps); maps built from maps use ids."""

    def __init__(self, domain, codomain, images, name=""):
        self._build(domain, codomain, None, [images[v] for v in domain.vertices], name)

    @classmethod
    def from_ids(cls, domain, codomain, ids, sets, name=""):
        """The map sending domain vertex i to sets[ids[i]], where sets is a
        list of iterables of codomain labels that may repeat or go unused
        (ids None: sets[i] itself). ValueError on a set that is empty or
        leaves the codomain."""
        return cls.__new__(cls)._build(domain, codomain, ids, sets, name)

    def _build(self, domain, codomain, ids, sets, name):
        """Number the distinct sets by first appearance (dicts keep their
        insertion order) and check their union; returns the map."""
        self.domain, self.codomain, self.name = domain, codomain, name
        if ids is None:
            ids, live = np.arange(len(sets)), list(range(len(sets)))
        else:
            ids = np.asarray(ids, dtype=np.int64)
            live = list(dict.fromkeys(ids.tolist()))
        imgs = [frozenset(sets[i]) for i in live]
        self.sets = list(dict.fromkeys(imgs))
        if len(self.sets) == len(imgs) and live == list(range(len(live))):
            self.sids = ids
        else:
            pos = dict(zip(self.sets, range(len(self.sets))))
            renum = np.zeros(len(sets), dtype=np.int64)
            renum[live] = list(map(pos.__getitem__, imgs))
            self.sids = renum[ids]
        self._image = frozenset().union(*self.sets)
        if not (all(self.sets) and codomain.index.keys() >= self._image):
            s = next(s for s, A in enumerate(self.sets) if not (A and codomain.index.keys() >= A))
            raise ValueError("coarse map image at %r is empty or leaves the codomain"
                             % (domain.vertices[np.argmax(self.sids == s)],))
        self._family = self._table = self._qinv = None
        return self

    @property
    def diam_bound(self):
        return int(self.image_sets().diams.max())

    def __call__(self, v):
        return self.sets[self.sids[self.domain.index[v]]]

    def image_of_set(self, S):
        index, sids, sets = self.domain.index, self.sids, self.sets
        ids = {sids.item(index[v]) for v in S}
        if len(ids) == 1:
            return sets[ids.pop()]
        return frozenset().union(*map(sets.__getitem__, ids))

    def image(self):
        """The union of all point images."""
        return self._image

    @classmethod
    def single(cls, domain, codomain, fn, name=""):
        canon = {}
        ids = [canon.setdefault(p, len(canon)) for p in map(fn, domain.vertices)]
        return cls.from_ids(domain, codomain, ids, [(p,) for p in canon], name=name)

    @classmethod
    def identity(cls, space):
        return cls.from_ids(space, space, None, [(v,) for v in space.vertices], name="id")

    @classmethod
    def constant(cls, domain, codomain, points, name=""):
        return cls.from_ids(domain, codomain, np.zeros(len(domain)), [points], name=name)

    def compose(self, other):
        """other after self: domain -> self.codomain -> other.codomain. Each
        distinct image set of self is mapped once."""
        if other.domain is not self.codomain:
            raise ValueError("composition domain mismatch")
        return CoarseMap.from_ids(self.domain, other.codomain, self.sids,
                                  [other.image_of_set(A) for A in self.sets],
                                  name="%s;%s" % (self.name, other.name))

    def quasi_inverse(self):
        """Closest-point preimage: y maps to the first (in vertex order) domain
        vertex whose image is closest to y. Computed once per map."""
        if self._qinv is None:
            # by first appearance, the least closest set has the least closest vertex
            best = self.per_set(self.codomain.vertices, np.minimum).argmin(axis=0)
            order, starts = self.fibers()
            self._qinv = CoarseMap.from_ids(self.codomain, self.domain, order[starts[best]],
                                            [(v,) for v in self.domain.vertices],
                                            name="inv:" + self.name)
        return self._qinv

    def image_sets(self):
        """The distinct image sets as a codomain set family, with the
        per-domain-vertex set ids. Computed once per map."""
        if self._family is None:
            self._family = ImageSets(self.sids, *self.codomain.set_family(self.sets))
        return self._family

    def per_set(self, points, reduce):
        """k x |points| table: ``reduce`` (np.minimum or np.maximum) of the
        codomain distances from each distinct image set to each point."""
        cod = self.codomain
        return cod.per_set(self.image_sets(), cod.idx(list(points)), reduce)

    def dset_points(self, points):
        """k x |points| table: dset(A, {p}) = diam(A | {p}) from each distinct
        image set A to each point p."""
        return np.maximum(self.per_set(points, np.maximum),
                          self.image_sets().diams[:, None])

    def dset_row(self, S):
        """Per distinct image set A: dset(A, S), the diameter of A | S."""
        rec = self.image_sets()
        if not S:
            return rec.diams.copy()
        return self.codomain.dset_table(rec, self.codomain.set_family([S]))[:, 0]

    def gap_row(self, S):
        """Per distinct image set A: gap(A, S) for a nonempty S."""
        return self.per_set(S, np.minimum).min(axis=1)

    def set_table(self):
        """(sids, sets, M): per-domain-vertex id of its image set among the
        distinct image sets, and the matrix of pairwise sup-distances between
        distinct sets. Lets scans over vertex pairs run as numpy lookups."""
        if self._table is None:
            rec = self.image_sets()
            self._table = (self.sids, self.sets, self.codomain.dset_table(rec, rec))
        return self._table

    def fibers(self):
        """(order, starts): domain vertex indices grouped by image set id, in
        vertex order within a group, and the offset of each group in order."""
        return groups(self.sids, len(self.sets))

    def fiber_table(self, reduce):
        """k x k table: ``reduce`` (np.minimum or np.maximum) of the domain
        distances from the fiber of image set s to the fiber of image set t.
        Every pair in that block has image distance set_table()'s M[s, t], so
        with lo and hi the min and max tables, a largest M / (d + 1) there is
        M[s, t] / (lo[s, t] + 1), a largest d / (M + 1) is
        hi[s, t] / (M[s, t] + 1), and the map constants below need no n x n
        table."""
        return self.domain.block_table(*self.fibers(), reduce)

    def pair_distance_matrix(self):
        """T with T[x, y] = dset(f(x), f(y)) over domain vertex indices."""
        sids, _, M = self.set_table()
        return M[sids[:, None], sids]


def coarse_map_constants(m):
    """Measured coarsely-lipschitz constants in the (K, K) convention:
    the least K with dset(f x, f y) <= K d(x, y) + K. Returns (1, 0) for
    1-lipschitz maps and (0, 0) for constant maps."""
    M = m.set_table()[2]
    if M.max() == 0:
        return (0.0, 0.0)
    lo = m.fiber_table(np.minimum)
    if (M <= lo).all():
        return (1.0, 0.0)
    K = float((M / (lo + 1.0)).max())
    return (K, K)


def qi_constants(m):
    """Quasi-isometric-embedding constants: max of the forward (K,K) constant
    and the reverse one (domain distance against image distance). Isometric
    maps measure (1, 0)."""
    M = m.set_table()[2]
    lo, hi = m.fiber_table(np.minimum), m.fiber_table(np.maximum)
    if (M == lo).all() and (M == hi).all():
        return (1.0, 0.0)
    kf = (M / (lo + 1.0)).max() if M.max() > 0 else 0.0
    kr = (hi / (M + 1.0)).max()
    K = max(1.0, float(kf), float(kr))
    return (K, K)
