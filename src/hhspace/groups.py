"""Word arithmetic for free products of cyclic and infinite-cyclic groups.

Elements are alternating syllable words ((i, exp), ...) over numbered
base groups; base i is either cyclic of order n (exponents 1..n-1) or a
copy of the integers (nonzero exponents, windowed by a ball radius when
built into a model). This is exactly what the Bass-Serre coset windows
need: multiplication, canonical coset representatives, and Cayley graphs
of the bases.
"""

from .spaces import cycle_graph, path_graph


class FreeProductBases:
    """bases: sequence of ("cyclic", n) or ("z", ball_radius)."""

    def __init__(self, bases):
        self.bases = tuple(bases)

    def order(self, i):
        kind, n = self.bases[i]
        return n if kind == "cyclic" else 0

    def normalize(self, word):
        out = []
        for (i, e) in word:
            n = self.order(i)
            if n:
                e %= n
            if e == 0:
                continue
            if out and out[-1][0] == i:
                j, f = out.pop()
                e = e + f
                if n:
                    e %= n
                if e == 0:
                    continue
            out.append((i, e))
        return tuple(out)

    def mult(self, w1, w2):
        return self.normalize(tuple(w1) + tuple(w2))

    def inv(self, w):
        return self.normalize(tuple((i, -e) for (i, e) in reversed(w)))

    def coset_rep(self, w, i):
        """Canonical representative of w * (base i): strip a trailing
        i-syllable."""
        w = self.normalize(w)
        if w and w[-1][0] == i:
            return w[:-1]
        return w

    def base_elements(self, i):
        """Group elements of base i inside its model ball, identity first."""
        kind, n = self.bases[i]
        if kind == "cyclic":
            exps = range(n)
        else:
            exps = range(-n, n + 1)
        return [self.normalize(((i, e),)) for e in exps]

    def base_cayley(self, i, label=None):
        """Cayley graph of base i with group-element labels."""
        kind, n = self.bases[i]
        lab = label or (lambda e: self.normalize(((i, e),)))
        if kind == "cyclic":
            return cycle_graph(n, label=lab)
        return path_graph(-n, n, label=lab)
