"""Metric-level structure maps between models, and the embedding probe.

An Embedding is a map of models: a coarse map of base spaces, an index
map of lattices, and one coarse map per index element between the
corresponding hyperbolic models, with coarsely commuting diagrams. The
probe measures the five equivalent ways such a map (full, with
hierarchically quasiconvex image) can fail to be coarsely lipschitz, and
the companion quantities: the distance from the image to the product
region over the image of the maximal element, the coincidence of that
region's markers with the image projections, and the Hausdorff distance
between region and image.
"""

from dataclasses import dataclass, field

import numpy as np

from .indexmaps import IndexMap, verify_fullness, verify_index_map
from .lattice import ValidationReport
from .model import (HHSModel, _audit_bgi, _clipped_class_sum, _least_grid_fit,
                    _linear_need, audit_axioms, gate_map, hq_check, product_region)
from .spaces import CoarseMap, coarse_map_constants, qi_constants


class NotFull(Exception):
    pass


@dataclass
class Embedding:
    source: HHSModel
    target: HHSModel
    space_map: CoarseMap
    index_map: object
    hyp_maps: dict
    name: str = ""

    def image(self):
        return self.space_map.image()

    def compose(self, other):
        return Embedding(
            self.source, other.target,
            self.space_map.compose(other.space_map),
            self.index_map.compose(other.index_map),
            {U: self.hyp_maps[U].compose(other.hyp_maps[self.index_map(U)])
             for U in self.source.elements},
            name="%s;%s" % (self.name, other.name))

    @classmethod
    def identity(cls, model, name="id"):
        return cls(model, model, CoarseMap.identity(model.space),
                   IndexMap.identity(model.lattice),
                   {U: CoarseMap.identity(model.hyp[U]) for U in model.elements},
                   name=name)

    @classmethod
    def inclusion(cls, sub, ambient):
        """The inclusion of ``ambient.restrict(...)`` into ambient: the
        identity on points, on elements and on every hyperbolic model."""
        return cls(sub, ambient,
                   CoarseMap.single(sub.space, ambient.space, lambda x: x, name="incl"),
                   IndexMap(sub.lattice, ambient.lattice,
                            {U: U for U in sub.elements}, name="incl"),
                   {U: CoarseMap.identity(sub.hyp[U]) for U in sub.elements}, name="incl")


def verify_embedding(e):
    """Index-map and fullness checks plus measured commutation defects of
    both diagrams and the per-element quasi-isometry constants of the
    hyperbolic maps."""
    rep = verify_index_map(e.index_map).merged(verify_fullness(e.index_map))
    out = ValidationReport("embedding:%s" % e.name)
    out.violations = list(rep.violations)
    defect = 0.0
    hyp_qi = (1.0, 0.0)
    for U in e.source.elements:
        Ui = e.index_map(U)
        fU = e.hyp_maps[U]
        hyp_qi = max(hyp_qi, qi_constants(fU))
        if fU.domain is not e.source.hyp[U] or fU.codomain is not e.target.hyp.get(Ui):
            out.add("hyp-map-spaces", (U,), "domain or codomain mismatch")
            continue
        # first diagram: project then map vs map then project
        defect = max(defect, _diagram_defect(e.target.hyp[Ui], e.source.proj[U], fU,
                                             e.space_map, e.target.proj[Ui]))
    rho_defect = 0.0
    for (v, w), rmap in e.source.rho_map.items():
        vi, wi = e.index_map(v), e.index_map(w)
        if (vi, wi) not in e.target.rho_map:
            out.add("missing-target-rho-map", (v, w))
            continue
        rho_defect = max(rho_defect, _diagram_defect(
            e.target.hyp[vi], rmap, e.hyp_maps[v], e.hyp_maps[w], e.target.rho_map[(vi, wi)]))
    out.measured = {"diagram_defect": defect, "rho_diagram_defect": rho_defect,
                    "hyp_qi": hyp_qi}
    return out


def _diagram_defect(codomain, f, f_then, g, g_then):
    """Largest set distance in codomain between f_then(f(x)) and g_then(g(x))
    over the common domain of f and g: one distance per pair of distinct
    image sets."""
    a = codomain.set_family([f_then.image_of_set(A) for A in f.sets])
    b = codomain.set_family([g_then.image_of_set(B) for B in g.sets])
    return int(codomain.dset_table(a, b)[f.sids, g.sids].max())


def clipped_sum_compare(e, s, s2):
    """Tightest (K, C) with source-side clipped sum at threshold s bounded by
    K * (image-side clipped sum at threshold s2) + C, and the same for the
    reverse direction. Returns {"forward": (K, C), "reverse": (K, C)}."""
    ids, total = _clipped_class_sum(e.source, e.source.elements, s)
    src = total[ids[:, None], ids]
    # image side, evaluated at the least image point of each source vertex
    index = e.target.space.index
    idx = [min(index[p] for p in e.space_map(x)) for x in e.source.space.vertices]
    ids, total = _clipped_class_sum(e.target, list(map(e.index_map, e.source.elements)), s2)
    ids = ids[idx]
    img = total[ids[:, None], ids]
    return {"forward": _fit_linear(src, img), "reverse": _fit_linear(img, src)}


def _fit_linear(lhs, rhs):
    """Least (K, C) on the integer C grid with lhs <= K * rhs + C pointwise."""
    lhs = lhs.astype(np.float64)
    rhs = rhs.astype(np.float64)
    K, C, _ = _least_grid_fit(lambda C: _linear_need(lhs, rhs, C), int(lhs.max()) + 2)
    return (K, C)


@dataclass
class ProbeReport:
    lipschitz: tuple
    qi: tuple
    gate_defects: tuple
    pullback_audit: object
    outside_diam: float
    outside_diam_proper: float
    outside_table: dict
    region_distance: float
    region_bound: float
    rho_coincidence: list
    rho_coincidence_max: float
    hausdorff: float
    hausdorff_bound: float
    fullness_ok: bool
    image_hq: object
    kappa_used: float
    notes: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "lipschitz": list(self.lipschitz),
            "qi": list(self.qi),
            "gate_defects": list(self.gate_defects),
            "pullback_audit_ok": self.pullback_audit.ok,
            "outside_diam": self.outside_diam,
            "outside_diam_proper": self.outside_diam_proper,
            "outside_table": {repr(k): v for k, v in self.outside_table.items()},
            "region_distance": self.region_distance,
            "region_bound": self.region_bound,
            "rho_coincidence": [[repr(u), h] for u, h in self.rho_coincidence],
            "rho_coincidence_max": self.rho_coincidence_max,
            "hausdorff": self.hausdorff,
            "hausdorff_bound": self.hausdorff_bound,
            "fullness_ok": self.fullness_ok,
            "image_hq_passed": self.image_hq.passed,
            "kappa_used": self.kappa_used,
        }


def probe_embedding(e):
    """Measure the five linked conditions for a full embedding with
    hierarchically quasiconvex image, plus the region comparisons.

    1. coarsely-lipschitz constants of the space map,
    2. quasi-isometric-embedding constants,
    3. quasi-inverse defects of the two gates between the region over the
       image of the maximal element and the image,
    4. axiom audit of the image pulled back along the map,
    5. max projection diameter of the image over elements outside the image
       of the index map.
    """
    rep = verify_index_map(e.index_map).merged(verify_fullness(e.index_map))
    if not rep.ok:
        raise NotFull("embedding is not a full structure map: %r" % rep)
    tgt = e.target
    image = frozenset(e.image())
    image_hq = hq_check(tgt, image)

    lip = coarse_map_constants(e.space_map)
    qi = qi_constants(e.space_map)

    s_img = e.index_map(e.source.lattice.maximal)
    outside = [W for W in tgt.elements
               if not tgt.lattice.nested(W, s_img)]
    mu = mu_proper = 0.0
    outside_table = {}
    for W in outside:
        d = float(tgt.hyp[W].diam_set(tgt.proj[W].image_of_set(image)))
        outside_table[W] = d
        mu = max(mu, d)
        if W != tgt.lattice.maximal:
            mu_proper = max(mu_proper, d)

    xi, k0 = tgt.basics()
    kappa = max(1.0, xi, k0)
    region = product_region(tgt, s_img, kappa).F
    if not region:
        region = frozenset([min(image, key=tgt.space.index.__getitem__)])

    # the gates are measured whether or not their targets pass hq_check
    g_img = gate_map(tgt, image)
    g_reg = gate_map(tgt, region)
    reg_img, img_reg = g_reg.compose(g_img), g_img.compose(g_reg)
    d1 = max(tgt.space.gap(reg_img(z), [z]) for z in region)
    d2 = max(tgt.space.gap(img_reg(y), [y]) for y in image)

    pullback = pullback_model(e)
    pb_audit = audit_axioms(pullback)

    dist_region = tgt.space.gap(region, image)
    e_bgi = _audit_bgi(tgt)[0]
    kap_probe = max(2 * k0, 2 * e_bgi, e_bgi + mu) + 1.0
    hq_for_eta = image_hq.table
    eta_key = min((k for k in hq_for_eta if k >= 3 * kap_probe),
                  default=max(hq_for_eta) if hq_for_eta else 0)
    eta = float(hq_for_eta.get(eta_key, 0) + tgt.realization_defect() + 3 * kap_probe)

    rho_co = []
    worst = 0.0
    for U, pinned in zip(tgt.elements, tgt.lattice.rho[tgt.lattice.pos[s_img]].tolist()):
        if pinned:
            h = tgt.hyp[U].hausdorff(tgt.rho_set[(s_img, U)],
                                     tgt.proj[U].image_of_set(image))
            rho_co.append((U, float(h)))
            worst = max(worst, float(h))

    dh = tgt.space.hausdorff(image, region)
    j_bound = float(d1 + d2 + eta + tgt.realization_defect() + 1)

    return ProbeReport(
        lipschitz=lip, qi=qi, gate_defects=(float(d1), float(d2)),
        pullback_audit=pb_audit, outside_diam=float(mu),
        outside_diam_proper=float(mu_proper), outside_table=outside_table,
        region_distance=float(dist_region), region_bound=eta,
        rho_coincidence=rho_co, rho_coincidence_max=worst,
        hausdorff=float(dh), hausdorff_bound=j_bound,
        fullness_ok=True, image_hq=image_hq, kappa_used=float(kappa))


def pullback_model(e):
    """The image of the space with the structure pulled back along the map:
    the subspace metric on the image, the source lattice, and the target's
    hyperbolic models and data over the image of the index map."""
    tgt = e.target
    image = tgt.space.ordered(e.image())
    sub = tgt.space.subspace(image, name=e.name + "|image")
    rows = tgt.space.idx(image)
    lat = e.source.lattice
    hyp, proj = {}, {}
    rset, rmap = {}, {}
    for U in e.source.elements:
        Ui = e.index_map(U)
        hyp[U] = tgt.hyp[Ui]
        proj[U] = CoarseMap.from_ids(sub, hyp[U], tgt.proj[Ui].sids[rows], tgt.proj[Ui].sets)
    inv = {e.index_map(U): U for U in e.source.elements}
    for (a, b), S in tgt.rho_set.items():
        if a in inv and b in inv:
            rset[(inv[a], inv[b])] = S
    for (v, w), m in tgt.rho_map.items():
        if v in inv and w in inv:
            rmap[(inv[v], inv[w])] = m
    return HHSModel(sub, lat, hyp, proj, rset, rmap, name=e.name + "|pullback")
