"""Batch front door.

One command per process, structured JSON in and out, DOT for renderings,
no interactive mode. Exit status 0 when every designated assertion
passes, 1 on combination-hypothesis failures (the witness is emitted as
JSON), 2 on a usage error and on input that fails to load (unreadable,
not JSON, or not the schema).
"""

import argparse
import json
import os
import sys

from . import fixtures, serialize
from .embedding import probe_embedding, verify_embedding
from .graphproduct import build
from .lattice import MissingRelation
from .model import audit_axioms, distance_formula_fit
from .treecombine import (ComparisonNotUniform, HypothesisFailure,
                          audit_combined, build_combined)

OK, HYPOTHESIS_FAILURE, SCHEMA_ERROR = 0, 1, 2


class SchemaError(Exception):
    """An input file that cannot be read, is not JSON, or does not fit the
    schema of the command."""


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="directory for artifacts (default: stdout)")
    common.add_argument("--format", choices=["json", "dot"],
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized fixtures")
    ap = argparse.ArgumentParser(
        prog="hhspace", parents=[common],
        description="construct, combine and audit hierarchical structures "
                    "on finite models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", parents=[common],
                       help="audit a model file against every axiom")
    p.add_argument("file")

    p = sub.add_parser("combine", parents=[common],
                       help="combine a tree-of-models file")
    p.add_argument("file")

    p = sub.add_parser("product", parents=[common],
                       help="run the graph-product recursion")
    p.add_argument("file")

    p = sub.add_parser("distance-formula", parents=[common],
                       help="fit the clipped-sum distance formula on a model")
    p.add_argument("file")
    p.add_argument("--s", type=_threshold, default=3, help="largest threshold to fit")

    p = sub.add_parser("probe-theorem-b", parents=[common],
                       help="measure the five linked embedding conditions")
    p.add_argument("file")

    p = sub.add_parser("examples", parents=[common],
                       help="materialize a fixture and run its checks")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--radius", type=_radius, default=None)

    args = ap.parse_args(argv)
    for key, val in (("out", None), ("format", "json"), ("seed", 0)):
        if not hasattr(args, key):
            setattr(args, key, val)
    try:
        return COMMANDS[args.command](args)
    except (ComparisonNotUniform, HypothesisFailure) as exc:
        _emit(args, "failure.json", _failure_doc(exc))
        print("hypothesis failure: %s" % exc, file=sys.stderr)
        return HYPOTHESIS_FAILURE
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return SCHEMA_ERROR


def _int_at_least(name, least, rule):
    """An argparse type: an integer of at least ``least``, else a usage
    error (exit 2) saying that ``name`` must be ``rule``."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%s must be an integer, got %r" % (name, text)) from None
        if n < least:
            raise argparse.ArgumentTypeError("%s must be %s, got %d" % (name, rule, n))
        return n
    return parse


_radius = _int_at_least("radius", 0, "non-negative")
_threshold = _int_at_least("--s", 1, "at least 1")


def _failure_doc(exc):
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ComparisonNotUniform):
        doc["bound"] = exc.bound
        doc["table"] = [[repr(cid), repr(v), d, K, C]
                        for cid, v, d, K, C in exc.table]
        doc["offenders"] = [[repr(cid), repr(v), d, K, C]
                            for cid, v, d, K, C in exc.offenders]
    elif isinstance(exc, HypothesisFailure):
        doc["reason"] = exc.reason
        doc["witness"] = repr(exc.witness)
    return doc


def _load(path, parse, key=None):
    """parse() of the file's JSON document, or of its ``key`` entry when it
    wraps one. Only a failure to read, decode or parse is a SchemaError:
    errors of the later stages must not pass for bad input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and key in doc:
            doc = doc[key]
        return parse(doc)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            MissingRelation) as exc:
        raise SchemaError(exc) from exc


def _emit(args, name, doc, dot=None):
    out = getattr(args, "out", None)
    if args.format == "dot" and dot is not None:
        payload, name = dot, name.rsplit(".", 1)[0] + ".dot"
    else:
        payload = serialize.dumps(doc)
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(payload + "\n")
        print(path)
    else:
        print(payload)


def cmd_audit(args):
    model = _load(args.file, serialize.model_from_json, "model")
    rep = audit_axioms(model)
    _emit(args, "audit.json", rep.as_dict(), dot=model.lattice.hasse_dot())
    return OK if rep.ok else HYPOTHESIS_FAILURE


def cmd_combine(args):
    tree = _load(args.file, serialize.tree_from_json, "tree")
    combined = build_combined(tree)
    rep = audit_combined(combined)
    doc = {"combined": serialize.combined_to_json(combined),
           "audit": rep.as_dict()}
    dot = "\n".join([combined.coned[k].space.dot() for k in
                     sorted(combined.coned, key=repr)])
    _emit(args, "combined.json", doc, dot=dot)
    return OK if rep.ok else HYPOTHESIS_FAILURE


def cmd_product(args):
    spec = _load(args.file, serialize.spec_from_json)
    res = build(spec)
    doc = {"cert": res.cert.as_dict(),
           "model": serialize.model_to_json(res.model)}
    if res.combined is not None:
        doc["combined"] = serialize.combined_to_json(res.combined)
    _emit(args, "product.json", doc, dot=res.model.lattice.hasse_dot())
    return OK if res.cert.ok else HYPOTHESIS_FAILURE


def cmd_distance_formula(args):
    model = _load(args.file, serialize.model_from_json, "model")
    table = []
    for s in range(1, args.s + 1):
        fit = distance_formula_fit(model, s)
        table.append({"s": s, "K": fit.K, "C": fit.C,
                      "worst_pair": [repr(fit.worst_pair[0]),
                                     repr(fit.worst_pair[1])]})
    _emit(args, "distance_formula.json", {"model": model.name, "fits": table})
    return OK


def cmd_probe(args):
    emb = _load(args.file, serialize.embedding_from_json, "embedding")
    rep = verify_embedding(emb)
    pr = probe_embedding(emb)
    _emit(args, "probe.json", {"verify_ok": rep.ok, "probe": pr.as_dict()})
    return OK if rep.ok else HYPOTHESIS_FAILURE


# -- fixture runs -----------------------------------------------------------------


def run_fixture_b(args):
    model = fixtures.fixture_b_product()
    rep = audit_axioms(model)
    ip = model.lattice.verify_intersection_property()
    cc = model.lattice.verify_clean_containers()
    s1 = ("l", "S1")
    doc = {
        "exercises": "direct-product relation table, orthogonal containers, "
                     "wedge cases",
        "elements": len(model.lattice.elements),
        "audit_ok": rep.ok, "intersection_property": ip.ok,
        "clean_containers": cc.ok,
        "container_of_S1": repr(model.lattice.top_container(s1)),
        "model": serialize.model_to_json(model),
    }
    ok = (rep.ok and ip.ok and cc.ok
          and len(model.lattice.elements) == 5
          and model.lattice.top_container(s1) == ("V", s1))
    _emit(args, "fixture-b-product.json", doc, dot=model.lattice.hasse_dot())
    return OK if ok else HYPOTHESIS_FAILURE


def run_free_product(args):
    radius = args.radius if args.radius is not None else 2
    res = fixtures.free_product_z2_z3(radius)
    rep = audit_combined(res.combined)
    doc = {"exercises": "free-product window combination and the full "
                        "combined audit",
           "radius": radius, "cert_ok": res.cert.ok, "audit_ok": rep.ok,
           "audit": rep.as_dict(),
           "combined": serialize.combined_to_json(res.combined)}
    _emit(args, "free-product-z2-z3.json", doc)
    return OK if res.cert.ok and rep.ok else HYPOTHESIS_FAILURE


def run_raag(args):
    radius = args.radius if args.radius is not None else 2
    res = fixtures.raag_path(radius)
    rep = audit_combined(res.combined)
    doc = {"exercises": "graph-product recursion through the amalgam "
                        "splitting, certification chain, combined audit",
           "radius": radius, "cert": res.cert.as_dict(), "audit_ok": rep.ok,
           "audit": rep.as_dict()}
    _emit(args, "raag-path.json", doc)
    return OK if res.cert.ok and rep.ok else HYPOTHESIS_FAILURE


def run_hagen(args):
    radius = args.radius if args.radius is not None else 6
    rows = []
    ok = True
    prev = None
    for r in range(2, radius + 1):
        emb = fixtures.hagen(r)
        ok = ok and verify_embedding(emb).ok
        pr = probe_embedding(emb)
        lengths_exact = all(
            emb.target.space.dset(emb.space_map(m), emb.space_map(m + 1))
            == 2 * m + 2 for m in range(r))
        row = (pr.lipschitz[0], pr.qi[0], pr.outside_diam_proper)
        rows.append({"radius": r, "lipschitz": pr.lipschitz[0],
                     "qi": pr.qi[0], "outside_proper": pr.outside_diam_proper,
                     "outside_full": pr.outside_diam,
                     "gate_defects": list(pr.gate_defects),
                     "segment_lengths_exact": lengths_exact})
        ok = ok and lengths_exact
        if prev is not None:
            ok = ok and all(a < b for a, b in zip(prev, row))
        prev = row
    doc = {"exercises": "joint degradation of the linked embedding "
                        "conditions on the distortion family",
           "family": rows}
    _emit(args, "hagen-f2.json", doc)
    return OK if ok else HYPOTHESIS_FAILURE


def run_bs12(args):
    radius = args.radius if args.radius is not None else 4
    tree = fixtures.bs_window(2, radius)
    _emit(args, "bs12-window.json", serialize.tree_to_json(tree))
    combined = build_combined(tree)   # raises ComparisonNotUniform for radius >= 2
    doc = {"exercises": "comparison-map uniformity detector",
           "radius": radius,
           "comparison_table": [[repr(c), repr(v), d, K, C]
                                for c, v, d, K, C in combined.comparison_table]}
    _emit(args, "bs12-window-combined.json", doc)
    return OK


def run_grid(args):
    model = fixtures.grid_product(5, 7)
    fit = distance_formula_fit(model, 1)
    doc = {"exercises": "exact distance formula on a product",
           "K": fit.K, "C": fit.C,
           "model": serialize.model_to_json(model)}
    _emit(args, "grid-p5x7.json", doc)
    return OK if (fit.K, fit.C) == (1.0, 0.0) else HYPOTHESIS_FAILURE


def run_factor(args):
    radius = args.radius if args.radius is not None else 3
    rows = []
    ok = True
    for r in range(1, radius + 1):
        emb = fixtures.factor_inclusion(r)
        pr = probe_embedding(emb)
        rows.append({"radius": r, "probe": pr.as_dict()})
        ok = ok and pr.lipschitz == (1.0, 0.0) and pr.qi == (1.0, 0.0) \
            and pr.outside_diam == 0.0 \
            and pr.region_distance <= pr.region_bound \
            and pr.hausdorff <= pr.hausdorff_bound
    emb = fixtures.factor_inclusion(min(radius, 2))
    _emit(args, "factor-inclusion.json",
          {"exercises": "bounded embedding probe on the factor slice",
           "family": rows,
           "embedding": serialize.embedding_to_json(emb)})
    return OK if ok else HYPOTHESIS_FAILURE


def run_random_lattice(args):
    lat = fixtures.random_valid_lattice(args.seed)
    rep = lat.validate_relations()
    ip = lat.verify_intersection_property()
    doc = {"exercises": "randomized structural validation",
           "seed": args.seed, "valid": rep.ok,
           "intersection_property": ip.ok,
           "lattice": serialize.lattice_to_json(lat)}
    _emit(args, "random-lattice.json", doc, dot=lat.hasse_dot())
    return OK if rep.ok else HYPOTHESIS_FAILURE


FIXTURES = {
    "fixture-b-product": run_fixture_b,
    "free-product-z2-z3": run_free_product,
    "raag-path": run_raag,
    "hagen-f2": run_hagen,
    "bs12-window": run_bs12,
    "grid-p5x7": run_grid,
    "factor-inclusion": run_factor,
    "random-lattice": run_random_lattice,
}

COMMANDS = {
    "audit": cmd_audit,
    "combine": cmd_combine,
    "product": cmd_product,
    "distance-formula": cmd_distance_formula,
    "probe-theorem-b": cmd_probe,
    "examples": lambda args: FIXTURES[args.name](args),
}


if __name__ == "__main__":
    sys.exit(main())
