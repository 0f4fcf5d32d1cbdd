"""Golden outputs: every `hhspace examples NAME` report at its default
arguments, the radius-7 bs12 failure, `hhspace combine` on two tree
documents, `hhspace product` on three specs, `audit`, `distance-formula`
and `probe-theorem-b` on fixture documents, the product recipe on three
pairs of factors and the combined model of `raag_path(1)` must stay
byte-identical.

The tables hold the exit status and the SHA-256 of stdout of each run.
A change that is meant to alter an output updates its row and says why."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

import hhspace
from hhspace import cli, fixtures, serialize
from hhspace.graphproduct import (ProductSpec, base_group_model,
                                  direct_product_structure)

GOLDEN = {
    ("bs12-window",): (
        1, "44407fa8341f4e2a542b8ca0f56c43d2b827b18a75a0fd8a3ed1eb1339cd151a"),
    ("bs12-window", "--radius", "7"): (
        1, "34c738f90e11a859025ec6b31134c2f0aad6364a77833f34fbdb931d2e87abd0"),
    ("factor-inclusion",): (
        0, "40ddb515572a28234a172e6a4853baacc2a821efffca9e1f24d39e8c59e3d234"),
    ("fixture-b-product",): (
        0, "453db0c2c3260d24d1b1b8cbd2019008dab90411575eb6f538abfd0bb9cd5f3a"),
    ("free-product-z2-z3",): (
        0, "ca5bff8c80f22b73f106e9694f54575c17119bbdf0727ef3a09489378ce7a03e"),
    ("grid-p5x7",): (
        0, "681e08f31166958a1ae2a17d56876c2f02f97945152de654f27687f89089d1db"),
    ("hagen-f2",): (
        0, "1900ff022d4e588057d6acb8656809d3666c6485c6e712c3be04cca0b3a28b49"),
    ("raag-path",): (
        0, "7c654298dfb2f1ad97cd1612cd9e12caf65a671aac9233ee71d59ee12612021a"),
    ("random-lattice",): (
        0, "6c85deae1cf699cef254dd090e0eae6826efd6972f0214ec5cefdd6ce841ae9e"),
}


def test_every_example_is_pinned():
    assert {args[0] for args in GOLDEN} == set(cli.FIXTURES)


# `hhspace combine FILE` on the tree document of each fixture tree
COMBINE_GOLDEN = {
    "bs_window(2, 1)": (
        0, "39564ecacc15525665d3c82b6c74f881c6db1a534594e6dfcdf410a8833b8871"),
    "free_product_z2_z3(2).combined.tree": (
        0, "38f998048934fc17069d9e64b4e4523436907eada5bc6ab6d5ab160f44a96dc8"),
}

TREES = {
    "bs_window(2, 1)": lambda: fixtures.bs_window(2, 1),
    "free_product_z2_z3(2).combined.tree":
        lambda: fixtures.free_product_z2_z3(2).combined.tree,
}


def _run(argv):
    """Exit status and SHA-256 of stdout of one `hhspace` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_example_output_unchanged(args):
    assert _run(["examples", *args]) == GOLDEN[args], \
        "output of `hhspace examples %s` changed" % " ".join(args)


@pytest.mark.parametrize("name", sorted(COMBINE_GOLDEN))
def test_combine_output_unchanged(tmp_path, name):
    path = tmp_path / "tree.json"
    path.write_text(serialize.dumps(serialize.tree_to_json(TREES[name]())))
    assert _run(["combine", str(path)]) == COMBINE_GOLDEN[name], \
        "output of `hhspace combine` on %s changed" % name


# `hhspace COMMAND FILE ...` on the serialized model or embedding of a fixture
FILE_GOLDEN = {
    ("audit", "grid_product(3, 4)"): (
        0, "e83f69cfc8b4add2424e02ff67caf16b60a5aca65264c77f4e00cc4519dbb30e"),
    ("audit", "fixture_b_product()"): (
        0, "fdf247a230acac8a93f5700c8fdb8e2f6025ff03bd516f5e341374e3ddb4f65c"),
    ("distance-formula", "grid_product(3, 4)", "--s", "2"): (
        0, "cfd1c483a0c03c330507762d2b8bec9645a40007dd6e669a5a17ec2e2a8c8c54"),
    ("probe-theorem-b", "factor_inclusion(2)"): (
        0, "065bbdf87fa0bf20d408c2f888846380ed39528e603f1dbdc27300f6a8523794"),
    ("probe-theorem-b", "hagen(4)"): (
        0, "2dc54695b7b310d226e282e07625588a2703bacef3408479991332f3c0c39bc7"),
}

DOCUMENTS = {
    "grid_product(3, 4)":
        lambda: serialize.model_to_json(fixtures.grid_product(3, 4)),
    "fixture_b_product()":
        lambda: serialize.model_to_json(fixtures.fixture_b_product()),
    "factor_inclusion(2)":
        lambda: serialize.embedding_to_json(fixtures.factor_inclusion(2)),
    "hagen(4)": lambda: serialize.embedding_to_json(fixtures.hagen(4)),
}


@pytest.mark.parametrize("args", sorted(FILE_GOLDEN), ids=" ".join)
def test_file_command_output_unchanged(tmp_path, args):
    command, name, *extra = args
    path = tmp_path / "doc.json"
    path.write_text(serialize.dumps(DOCUMENTS[name]()))
    assert _run([command, str(path), *extra]) == FILE_GOLDEN[args], \
        "output of `hhspace %s` on %s changed" % (command, name)


# `hhspace product FILE` on the path a - b - c with cyclic(2) bases at radius
# 4: the one CLI output whose combination restricts an edge model
# (concretize_edges). Its stdout is about 24 MB, so it runs in a child
# process, where that output does not stay in the test process's peak RSS.
PRODUCT_GOLDEN = (
    0, "366d565a19bb2982e382cf37ba0cd7a5acbd0a9a5e322d75fadb05db6dc2eb5e")

# the same on a, b, c at the default radius: the triangle folds into direct
# products, the edgeless graph is a three-factor star window
RECURSION_GOLDEN = {
    "triangle": (
        ["ab", "bc", "ac"], {"a": ("cyclic", 2), "b": ("cyclic", 2), "c": ("cyclic", 3)},
        0, "ea28874688bd8c5f3df0729aaa58fd02664f1f71d59459b632264b2a52acd6a4"),
    "edgeless": (
        [], {v: ("cyclic", 2) for v in "abc"},
        0, "c35c04742905354ad38c4ab63df4c872dae53b5bbb6ff02e2fd66ceface646cc"),
}


def _run_product(tmp_path, spec):
    """Exit status and SHA-256 of stdout of `hhspace product` in a child."""
    path = tmp_path / "spec.json"
    path.write_text(serialize.dumps(serialize.spec_to_json(spec)))
    src = os.path.dirname(os.path.dirname(hhspace.__file__))
    out = subprocess.run([sys.executable, "-m", "hhspace.cli", "product", str(path)],
                         capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    return out.returncode, hashlib.sha256(out.stdout).hexdigest()


def test_product_output_unchanged(tmp_path):
    spec = ProductSpec(("a", "b", "c"),
                       frozenset([frozenset(("a", "b")), frozenset(("b", "c"))]),
                       {v: ("cyclic", 2) for v in "abc"}, window_radius=4)
    assert _run_product(tmp_path, spec) == PRODUCT_GOLDEN, \
        "output of `hhspace product` on the cyclic(2) path changed"


@pytest.mark.parametrize("name", sorted(RECURSION_GOLDEN))
def test_product_fold_and_star_outputs_unchanged(tmp_path, name):
    edges, bases, *golden = RECURSION_GOLDEN[name]
    spec = ProductSpec(("a", "b", "c"), frozenset(frozenset(e) for e in edges), bases)
    assert _run_product(tmp_path, spec) == tuple(golden), \
        "output of `hhspace product` on the %s graph changed" % name


# the serialized model of direct_product_structure(a, b) with a composite
# right factor and with two composite factors, which neither the complete
# fold nor the amalgam centre (composite left factors only) reaches
RECIPE_GOLDEN = {
    "grid2x3-cyclic3": (
        lambda: (fixtures.grid_product(2, 3), base_group_model(("cyclic", 3), "c")),
        "0ccdd4b6ac3cf46e95feea1fba3511ad8a16ddb1e9cc26f3e1da616ff76eedba"),
    "cyclic3-grid2x3": (
        lambda: (base_group_model(("cyclic", 3), "c"), fixtures.grid_product(2, 3)),
        "8d5a9f58ed010ff15f4dc89cd4f7881cd285e5b09f94142be7dd6dace3fd4f74"),
    "fixtureB-fixtureB": (
        lambda: (fixtures.fixture_b_product(), fixtures.fixture_b_product()),
        "6d58c449d75d0e3d5e7a8227e2e35ac274faab9b3671a2e6c54cca1fb63b0728"),
}


@pytest.mark.parametrize("name", sorted(RECIPE_GOLDEN))
def test_product_recipe_unchanged(name):
    factors, golden = RECIPE_GOLDEN[name]
    doc = serialize.dumps(serialize.model_to_json(direct_product_structure(*factors())))
    assert hashlib.sha256(doc.encode()).hexdigest() == golden, \
        "direct_product_structure on %s changed" % name


# the serialized combined model of raag_path(1) (about 6.4 MB): its rho sets
# and rho maps, which the audit reports above pin only through what they read
RAAG_PATH_1_COMBINED_GOLDEN = \
    "99fd46fedb03540c67f75bf77f139cc8901564f6be28f9aa44303fa469799454"


def test_raag_path_1_combined_model_unchanged():
    doc = serialize.dumps(serialize.combined_to_json(fixtures.raag_path(1).combined))
    assert hashlib.sha256(doc.encode()).hexdigest() == RAAG_PATH_1_COMBINED_GOLDEN, \
        "the combined model of raag_path(1) changed"
