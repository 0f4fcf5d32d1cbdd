import json
import os
import subprocess
import sys

import pytest

import hhspace
from hhspace import cli, serialize
from hhspace.cli import main
from hhspace.fixtures import (bs_window, factor_inclusion, fixture_b_product,
                              free_product_z2_z3, grid_product, raag_path)
from hhspace.model import trivial_model
from hhspace.spaces import FiniteSpace
from hhspace.graphproduct import ProductSpec


ORTH = (("V", ("l", "S1")), ("l", "S1"))


def run(args):
    return main([str(a) for a in args])


def test_examples_fixture_b(tmp_path):
    assert run(["--out", tmp_path, "examples", "fixture-b-product"]) == 0
    doc = json.loads((tmp_path / "fixture-b-product.json").read_text())
    assert doc["elements"] == 5
    assert doc["audit_ok"] and doc["intersection_property"] and doc["clean_containers"]


def test_examples_bs12_fails_with_witness(tmp_path):
    assert run(["--out", tmp_path, "examples", "bs12-window", "--radius", 4]) == 1
    doc = json.loads((tmp_path / "failure.json").read_text())
    assert doc["error"] == "ComparisonNotUniform"
    by_d = {}
    for _, _, d, K, C in doc["table"]:
        by_d[d] = max(by_d.get(d, 0), K)
    for d in (2, 3, 4):
        assert by_d[d] >= 2 ** d / 2


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_examples_negative_radius_is_a_usage_error(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as exc:
        run(["--out", tmp_path, "examples", name, "--radius", -1])
    assert exc.value.code == 2
    assert "radius must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_examples_hagen(tmp_path):
    assert run(["--out", tmp_path, "examples", "hagen-f2", "--radius", 4]) == 0
    doc = json.loads((tmp_path / "hagen-f2.json").read_text())
    rows = doc["family"]
    assert [r["radius"] for r in rows] == [2, 3, 4]
    assert all(r["segment_lengths_exact"] for r in rows)


def test_examples_hagen_with_a_failing_embedding_check_exits_1(tmp_path, monkeypatch, capsys):
    from hhspace.lattice import ValidationReport
    failing = ValidationReport("embedding")
    failing.add("planted", ("hagen",))
    monkeypatch.setattr(cli, "verify_embedding", lambda emb: failing)
    assert run(["--out", tmp_path, "examples", "hagen-f2", "--radius", 2]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_audit_command_roundtrip(tmp_path):
    model = grid_product(3, 4)
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(model)))
    assert run(["--out", tmp_path, "audit", path]) == 0
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert doc["ok"]


def test_combine_command_detects_counterexample(tmp_path):
    tree = bs_window(2, 3)
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(tree)))
    assert run(["--out", tmp_path, "combine", path]) == 1
    doc = json.loads((tmp_path / "failure.json").read_text())
    assert doc["error"] == "ComparisonNotUniform"


def test_combine_command_succeeds_on_small_window(tmp_path):
    tree = bs_window(2, 1)
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(tree)))
    assert run(["--out", tmp_path, "combine", path]) == 0


def test_combine_command_accepts_a_decorated_tree(tmp_path):
    # build_combined decorates; a tree that already carries its decoration
    # leaves gets none twice
    tree = raag_path(1).combined.tree
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(tree)))
    assert run(["--out", tmp_path, "combine", path]) == 0


@pytest.mark.parametrize("flag", [["--no-decorate"], ["--copy-cap", 3]])
def test_combine_command_has_no_decoration_settings(tmp_path, capsys, flag):
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(bs_window(2, 1))))
    with pytest.raises(SystemExit) as exc:
        run(["combine", path, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_combine_command_repeated_vertex_is_schema_error(tmp_path, capsys):
    doc = serialize.tree_to_json(bs_window(2, 1))
    doc["vertices"].append(doc["vertices"][0])
    doc["vertex_models"].append(doc["vertex_models"][0])
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(doc))
    assert run(["--out", tmp_path, "combine", path]) == 2
    assert "repeated tree vertex" in capsys.readouterr().err
    assert not (tmp_path / "combined.json").exists()


def test_combine_command_rejects_table_vertex_spaces(tmp_path):
    doc = serialize.tree_to_json(free_product_z2_z3(2).combined.tree)
    for _, model in doc["vertex_models"]:
        space = serialize.space_from_json(model["space"])
        model["space"] = serialize.space_to_json(
            FiniteSpace(space.vertices, dist=space.dist))
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(doc))
    assert run(["--out", tmp_path, "combine", path]) == 1
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["error"] == "HypothesisFailure"
    assert failure["reason"] == "vertex space is a metric table, not a graph"
    assert failure["witness"] == repr((("gp", 0, ()),))


def test_product_command(tmp_path):
    spec = ProductSpec(("a", "b"), frozenset(),
                       {"a": ("cyclic", 2), "b": ("cyclic", 3)}, window_radius=2)
    path = tmp_path / "spec.json"
    path.write_text(serialize.dumps(serialize.spec_to_json(spec)))
    assert run(["--out", tmp_path, "product", path]) == 0
    doc = json.loads((tmp_path / "product.json").read_text())
    assert doc["cert"]["ok"]


def test_product_command_window_too_small(tmp_path):
    spec = ProductSpec(("a", "b", "c", "d"),
                       frozenset(frozenset(("a", v)) for v in "bcd"),
                       {v: ("z", 1) for v in "abcd"}, window_radius=1)
    path = tmp_path / "spec.json"
    path.write_text(serialize.dumps(serialize.spec_to_json(spec)))
    assert run(["--out", tmp_path, "product", path]) == 1
    doc = json.loads((tmp_path / "failure.json").read_text())
    assert doc["error"] == "HypothesisFailure"
    assert doc["witness"] == repr((("gp", 1, ()), "S"))


@pytest.mark.parametrize("bases", [{"a": ["Z", 1], "b": ["z", 1]},
                                   {"a": ["cyclic", 0], "b": ["z", 1]},
                                   {"a": ["z", -1], "b": ["z", 1]},
                                   {"a": ["z", 1]},
                                   {"a": ["z", 1.5], "b": ["z", 1]},
                                   {"a": ["cyclic", "2"], "b": ["z", 1]}])
def test_product_command_malformed_base_is_schema_error(tmp_path, capsys, bases):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": {"vertices": ["a", "b"],
                                          "edges": [["a", "b"]]},
                                "bases": bases}))
    assert run(["--out", tmp_path, "product", path]) == 2
    assert "schema error" in capsys.readouterr().err
    assert not (tmp_path / "product.json").exists()


@pytest.mark.parametrize("field, value", [("window_radius", 2.7), ("window_radius", True),
                                          ("window_radius", -3), ("budget", 0)])
def test_product_command_malformed_radius_or_budget_is_schema_error(
        tmp_path, capsys, field, value):
    doc = serialize.spec_to_json(ProductSpec(("a", "b"), frozenset(),
                                             {"a": ("cyclic", 2), "b": ("cyclic", 3)}))
    doc[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert run(["--out", tmp_path, "product", path]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and field in err
    assert not (tmp_path / "product.json").exists()


@pytest.mark.parametrize("vertices", [["a", "a"], []], ids=["repeated", "empty"])
def test_product_command_repeated_or_missing_vertex_is_schema_error(
        tmp_path, capsys, vertices):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": {"vertices": vertices, "edges": []},
                                "bases": {"a": ["cyclic", 2]}}))
    assert main(["product", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_distance_formula_command(tmp_path):
    model = grid_product(3, 4)
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(model)))
    assert run(["--out", tmp_path, "distance-formula", path, "--s", 2]) == 0
    doc = json.loads((tmp_path / "distance_formula.json").read_text())
    assert doc["fits"][0] == {"s": 1, "K": 1.0, "C": 0.0,
                              "worst_pair": doc["fits"][0]["worst_pair"]}


def test_probe_command(tmp_path):
    emb = factor_inclusion(2)
    path = tmp_path / "emb.json"
    path.write_text(serialize.dumps(serialize.embedding_to_json(emb)))
    assert run(["--out", tmp_path, "probe-theorem-b", path]) == 0
    doc = json.loads((tmp_path / "probe.json").read_text())
    assert doc["probe"]["lipschitz"] == [1.0, 0.0]


def test_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": 3}")
    assert run(["audit", bad]) == 2


def _grid_document_with(tmp_path, edit):
    doc = serialize.model_to_json(grid_product(2, 3))
    edit(next(m for U, m in doc["proj"] if U == ["l", "S1"])["images"])
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    return path


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0][1].append(9),     # an image point outside C_U
    lambda rows: rows.append([[9, 9], [0]]),   # a row outside the space
    lambda rows: rows.append(rows[0]),     # a repeated row
], ids=["image-outside-codomain", "row-outside-domain", "repeated-row"])
def test_bad_coarse_map_rows_are_schema_errors(tmp_path, capsys, edit):
    assert run(["audit", _grid_document_with(tmp_path, edit)]) == 2
    assert "schema error" in capsys.readouterr().err


def _with_extra_relation(rels, kind):
    """The first relation of the kind again, declared transverse; or, with
    no kind, a relation naming a label that is not an element."""
    if kind is None:
        rels.append([["zzz"], ["S"], "nested"])
    else:
        a, b, _ = next(r for r in rels if r[2] == kind)
        rels.append([a, b, "trans"])


@pytest.mark.parametrize("fixture", [grid_product, fixture_b_product])
@pytest.mark.parametrize("kind", [None, "orth", "nested"],
                         ids=["unknown-label", "orth-and-trans", "nested-and-trans"])
def test_bad_lattice_relations_are_schema_errors(tmp_path, capsys, fixture, kind):
    # both are rejected when the lattice loads, before any audit runs
    doc = serialize.model_to_json(fixture())
    _with_extra_relation(doc["lattice"]["relations"], kind)
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert run(["audit", path]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", [grid_product, fixture_b_product])
def test_transverse_pair_the_nesting_closure_nests_is_schema_error(tmp_path, capsys, fixture):
    # (l, S1) < (V, (r, S2)) < S nests (l, S1) in S whatever the document
    # declares, so a "trans" line for that pair is a contradiction
    doc = serialize.model_to_json(fixture())
    rels = doc["lattice"]["relations"]
    rels[rels.index([["l", "S1"], ["S"], "nested"])][2] = "trans"
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert run(["audit", path]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "declared transverse but is nested" in err


def test_distance_table_entry_of_two_to_the_62_is_schema_error(tmp_path, capsys):
    doc = serialize.model_to_json(trivial_model(FiniteSpace.from_matrix("ab", [[0, 1], [1, 0]])))
    for space in [doc["space"]] + [space for _, space in doc["hyp"]]:
        space["dist"] = [[0, 2 ** 62], [2 ** 62, 0]]
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert run(["audit", path]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "is not below 2**62" in err


@pytest.mark.parametrize("key", ["rho_sets", "rho_maps"])
def test_rho_data_on_a_pair_without_relative_projection_fails_structure(tmp_path, key):
    # (V, (l, S1)) is orthogonal to (l, S1): the file loads, and the audit
    # fails its structure entry with the pair as the witness
    doc = serialize.model_to_json(fixture_b_product())
    a, b = serialize._thaw(ORTH)
    hyp = {json.dumps(U): sp["vertices"] for U, sp in doc["hyp"]}
    on_b, on_a = hyp[json.dumps(b)], hyp[json.dumps(a)]
    doc[key].append([a, b, on_b[:2] if key == "rho_sets" else
                     {"images": [[p, on_a[:1]] for p in on_b]}])
    path = tmp_path / "extra.json"
    path.write_text(serialize.dumps(doc))
    assert run(["--out", tmp_path, "audit", path]) == 1
    entry = json.loads((tmp_path / "audit.json").read_text())["entries"][0]
    assert entry["name"] == "structure" and not entry["ok"]
    rule = "unexpected-rho-set" if key == "rho_sets" else "unexpected-rho-map"
    (w,) = entry["witnesses"]
    assert w.startswith("Violation(rule=%r, witness=%r" % (rule, ORTH))


def test_missing_relation_is_schema_error(tmp_path):
    doc = serialize.model_to_json(fixture_b_product())
    del doc["lattice"]["relations"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps(doc))
    assert run(["audit", bad]) == 2


def test_errors_after_loading_are_not_schema_errors(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(grid_product(2, 2))))

    def broken(model):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "audit_axioms", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["audit", path])


def test_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["--out", out1, "examples", "fixture-b-product"]) == 0
    assert run(["--out", out2, "examples", "fixture-b-product"]) == 0
    assert (out1 / "fixture-b-product.json").read_bytes() == \
        (out2 / "fixture-b-product.json").read_bytes()


def test_reports_byte_identical_across_hash_seeds():
    src = os.path.dirname(os.path.dirname(hhspace.__file__))
    for name in ("raag-path", "free-product-z2-z3"):
        procs = [subprocess.Popen(
            [sys.executable, "-m", "hhspace.cli", "examples", name],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
        outs = [p.communicate()[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0], name
        assert outs[0] == outs[1], name


def test_random_lattices_do_not_depend_on_the_hash_seed():
    # the fixture's nesting holds the string "S"; seeds 14 and 102 once took
    # another lattice under some hash seeds
    src = os.path.dirname(os.path.dirname(hhspace.__file__))
    code = ("from hhspace import fixtures, serialize\n"
            "for seed in list(range(40)) + [102]:\n"
            "    lat = fixtures.random_valid_lattice(seed)\n"
            "    print(serialize.dumps(serialize.lattice_to_json(lat)))\n")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        for seed in ("0", "1", "3")]
    outs = [p.communicate()[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0]
    assert outs[0] == outs[1] == outs[2]


def test_dot_format(tmp_path):
    assert run(["--out", tmp_path, "--format", "dot", "examples",
                "fixture-b-product"]) == 0
    text = (tmp_path / "fixture-b-product.dot").read_text()
    assert "digraph" in text


def test_tree_json_roundtrip():
    tree = bs_window(2, 2)
    doc = json.loads(serialize.dumps(serialize.tree_to_json(tree)))
    t2 = serialize.tree_from_json(doc)
    assert t2.vertices == tree.vertices
    assert t2.edges == tree.edges
    from hhspace.treecombine import equivalence_classes
    assert len(equivalence_classes(t2)) == 1
