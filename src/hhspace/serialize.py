"""JSON schemas and DOT export.

Vertex and element ids are arbitrary JSON-serializable tokens on the way
out; on the way in, lists become tuples so ids round-trip as hashables.
The lattice schema is the strict one: every unordered pair must carry a
relation ("nested" triples oriented small-to-large, "orth", "trans"),
unlisted pairs are rejected.
"""

import json

from .embedding import Embedding
from .graphproduct import ProductSpec
from .indexmaps import IndexMap
from .lattice import IndexLattice
from .model import HHSModel
from .spaces import CoarseMap, FiniteSpace, check_distinct, vkey
from .treecombine import TreeOfHHS


def _freeze(x):
    if isinstance(x, list):
        return tuple(map(_freeze, x))
    return x


def _thaw(x):
    if isinstance(x, tuple):
        return [_thaw(v) for v in x]
    if isinstance(x, frozenset):
        return [_thaw(v) for v in sorted(x, key=vkey)]
    return x


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1, default=_thaw)


# -- lattice ------------------------------------------------------------------


def lattice_to_json(lat):
    rels = []
    for i, a in enumerate(lat.elements):
        for b in lat.elements[i + 1:]:
            r = lat.rel(a, b)
            if r == "nested":
                lo, hi = (a, b) if lat.nested(a, b) else (b, a)
                rels.append([_thaw(lo), _thaw(hi), "nested"])
            else:
                rels.append([_thaw(a), _thaw(b), r])
    return {"elements": [_thaw(e) for e in lat.elements],
            "maximal": _thaw(lat.maximal),
            "relations": rels}


def lattice_from_json(doc, name=""):
    elements = [_freeze(e) for e in doc["elements"]]
    nested, orth, trans = [], [], []
    for a, b, kind in doc["relations"]:
        a, b = _freeze(a), _freeze(b)
        if kind == "nested":
            nested.append((a, b))
        elif kind == "orth":
            orth.append((a, b))
        elif kind == "trans":
            trans.append((a, b))
        else:
            raise ValueError("unknown relation kind %r" % (kind,))
    return IndexLattice(elements, _freeze(doc["maximal"]), nested, orth,
                        trans_pairs=trans, strict_total=True, name=name)


# -- spaces and maps -----------------------------------------------------------


def space_to_json(sp):
    out = {"vertices": [_thaw(v) for v in sp.vertices]}
    if sp.edges is not None:
        out["edges"] = [[_thaw(sp.vertices[a]), _thaw(sp.vertices[b])]
                        for a, b in sp.edges]
    else:
        out["dist"] = sp.dist.tolist()
    return out


def space_from_json(doc, name=""):
    verts = [_freeze(v) for v in doc["vertices"]]
    if "edges" in doc:
        return FiniteSpace(verts, [(_freeze(a), _freeze(b))
                                   for a, b in doc["edges"]], name=name)
    return FiniteSpace.from_matrix(verts, doc["dist"], name=name)


def coarse_map_to_json(m):
    return {"images": [[_thaw(v), [_thaw(p) for p in sorted(m(v), key=vkey)]]
                       for v in m.domain.vertices]}


def coarse_map_from_json(doc, domain, codomain, name=""):
    """One row per domain point: with no row repeated, as many rows as
    points and a row for each point (KeyError otherwise), none is left."""
    images = {_freeze(v): frozenset(map(_freeze, pts)) for v, pts in doc["images"]}
    if not len(images) == len(doc["images"]) == len(domain):
        raise ValueError("coarse map rows must name each domain point once")
    return CoarseMap(domain, codomain, images, name=name)


# -- models ---------------------------------------------------------------------


def model_to_json(model):
    return {
        "name": model.name,
        "space": space_to_json(model.space),
        "lattice": lattice_to_json(model.lattice),
        "hyp": [[_thaw(U), space_to_json(model.hyp[U])] for U in model.elements],
        "proj": [[_thaw(U), coarse_map_to_json(model.proj[U])]
                 for U in model.elements],
        "rho_sets": [[_thaw(a), _thaw(b), [_thaw(p) for p in sorted(S, key=vkey)]]
                     for (a, b), S in sorted(model.rho_set.items(),
                                             key=lambda kv: vkey(kv[0]))],
        "rho_maps": [[_thaw(v), _thaw(w), coarse_map_to_json(m)]
                     for (v, w), m in sorted(model.rho_map.items(),
                                             key=lambda kv: vkey(kv[0]))],
    }


def model_from_json(doc):
    name = doc.get("name", "")
    space = space_from_json(doc["space"], name=name)
    lattice = lattice_from_json(doc["lattice"], name=name)
    hyp = {_freeze(U): space_from_json(sp) for U, sp in doc["hyp"]}
    proj = {_freeze(U): coarse_map_from_json(cm, space, hyp[_freeze(U)])
            for U, cm in doc["proj"]}
    rho_set = {(_freeze(a), _freeze(b)): frozenset(_freeze(p) for p in pts)
               for a, b, pts in doc.get("rho_sets", [])}
    rho_map = {}
    for v, w, cm in doc.get("rho_maps", []):
        v, w = _freeze(v), _freeze(w)
        rho_map[(v, w)] = coarse_map_from_json(cm, hyp[w], hyp[v])
    return HHSModel(space, lattice, hyp, proj, rho_set, rho_map, name=name)


# -- embeddings and trees --------------------------------------------------------


def index_map_to_json(m):
    return {"map": [[_thaw(a), _thaw(m.mapping[a])] for a in m.source.elements]}


def _maps_to_json(emb):
    """The space, index and hyperbolic maps of an embedding."""
    return {
        "space_map": coarse_map_to_json(emb.space_map),
        "index_map": index_map_to_json(emb.index_map),
        "hyp_maps": [[_thaw(U), coarse_map_to_json(emb.hyp_maps[U])]
                     for U in emb.source.elements],
    }


def _maps_from_json(doc, source, target, name):
    """The embedding of source into target whose three maps doc holds."""
    mapping = {_freeze(a): _freeze(b) for a, b in doc["index_map"]["map"]}
    index_map = IndexMap(source.lattice, target.lattice, mapping)
    space_map = coarse_map_from_json(doc["space_map"], source.space, target.space)
    hyp_maps = {}
    for U, cm in doc["hyp_maps"]:
        U = _freeze(U)
        hyp_maps[U] = coarse_map_from_json(cm, source.hyp[U],
                                           target.hyp[mapping[U]])
    return Embedding(source, target, space_map, index_map, hyp_maps, name=name)


def embedding_to_json(e):
    return {"name": e.name, "source": model_to_json(e.source),
            "target": model_to_json(e.target), **_maps_to_json(e)}


def embedding_from_json(doc):
    return _maps_from_json(doc, model_from_json(doc["source"]),
                           model_from_json(doc["target"]), doc.get("name", ""))


def tree_to_json(t):
    edge_key = lambda e: [_thaw(e[0]), _thaw(e[1])]
    return {
        "name": t.name,
        "vertices": [_thaw(v) for v in t.vertices],
        "edges": [edge_key(e) for e in t.edges],
        "vertex_models": [[_thaw(v), model_to_json(t.vertex_models[v])]
                          for v in t.vertices],
        "edge_models": [[edge_key(e), model_to_json(t.edge_models[e])]
                        for e in t.edges],
        "edge_maps": [[edge_key(e), _thaw(endpoint),
                       _maps_to_json(t.edge_maps[(e, endpoint)])]
                      for e in t.edges for endpoint in e],
    }


def tree_from_json(doc):
    verts = [_freeze(v) for v in doc["vertices"]]
    edges = [tuple(sorted((_freeze(a), _freeze(b)), key=vkey))
             for a, b in doc["edges"]]
    models = [(_freeze(v), m) for v, m in doc["vertex_models"]]
    check_distinct([v for v, _ in models], "tree vertex")
    vertex_models = {v: model_from_json(m) for v, m in models}
    edge_models = {}
    for (a, b), m in doc["edge_models"]:
        e = tuple(sorted((_freeze(a), _freeze(b)), key=vkey))
        edge_models[e] = model_from_json(m)
    edge_maps = {}
    for (a, b), endpoint, maps in doc["edge_maps"]:
        e = tuple(sorted((_freeze(a), _freeze(b)), key=vkey))
        endpoint = _freeze(endpoint)
        edge_maps[(e, endpoint)] = _maps_from_json(
            maps, edge_models[e], vertex_models[endpoint], "")
    return TreeOfHHS(verts, edges, vertex_models, edge_models, edge_maps,
                     name=doc.get("name", ""))


def spec_to_json(spec):
    return {"graph": {"vertices": [_thaw(v) for v in spec.vertices],
                      "edges": [[_thaw(a), _thaw(b)]
                                for a, b in sorted(tuple(sorted(e))
                                                   for e in spec.edges)]},
            "bases": {str(v): list(spec.bases[v]) for v in spec.vertices},
            "window_radius": spec.window_radius,
            "budget": spec.budget}


def spec_from_json(doc):
    graph = doc["graph"]
    verts = [_freeze(v) for v in graph["vertices"]]
    edges = frozenset(frozenset((_freeze(a), _freeze(b)))
                      for a, b in graph.get("edges", []))
    bases = {v: tuple(doc["bases"][str(v)]) for v in verts}
    return ProductSpec(tuple(verts), edges, bases,
                       window_radius=doc.get("window_radius", 2),
                       budget=doc.get("budget", 6000))


def combined_to_json(c):
    return {
        "model": model_to_json(c.model),
        "classes": [{"id": _thaw(cls.id),
                     "favorite_vertex": _thaw(cls.favorite_vertex),
                     "favorite_rep": _thaw(cls.favorite_rep),
                     "support": [_thaw(v) for v in sorted(cls.support, key=vkey)],
                     "members": [[_thaw(v), _thaw(u)]
                                 for v, u in sorted(cls.members, key=vkey)]}
                    for cls in c.classes],
        "supports": [[_thaw(sid), [_thaw(v) for v in sorted(sup, key=vkey)]]
                     for sid, sup in sorted(c.supports.items(),
                                            key=lambda kv: vkey(kv[0]))],
        "comparison_table": [[_thaw(cid), _thaw(v), d, K, C]
                             for cid, v, d, K, C in c.comparison_table],
        "comparison_bound": c.comparison_bound,
        "decorated": c.decorated,
        "warnings": list(c.warnings),
    }
