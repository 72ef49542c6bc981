"""Checks on the source tree itself.

The benchmark's tracer (bench/spans.py) wraps functions and methods of the
package by name and raises at install time when one is gone, so a rename
under src/ shows here instead of only in the slower benchmark suite.  And
src/ holds only what the package reaches: a definition that only tests use
belongs under tests/.  Every CLI job pays the package import again, so what
that import declares is pinned here, by a count, not a timing; so are the
modules a job loads and the points the Schottky datum makes.  A NamedTuple
field under src/ that no code there reads is a value no command reports."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from expaction import coding, groups, zoo

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "expaction"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_on_every_traced_name_and_restores_them():
    spans = _spans()
    originals = {
        (owner, name): vars(owner)[name]
        for owner in zoo.ActionSystem.__subclasses__() + [zoo.ActionSystem]
        for name in ("apply", "limit_net")
        if name in vars(owner)
    }
    tracer = spans.Tracer()
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original
    finally:
        tracer.close()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original


def test_the_tracer_raises_when_a_traced_name_is_gone(monkeypatch):
    spans = _spans()
    monkeypatch.delattr(groups, "word_length")
    with pytest.raises(AttributeError):
        spans.Tracer()


# the spans the benchmark's certificate workloads read off `shyp_certificate`
CERTIFICATE_SPANS = (
    "coding.enumerate_codes", "coding.code_ray", "coding.fellow_travel_distance",
    "coding.n_equivalence", "coding.shyp_certificate", "groups.multiply", "groups.word_length",
)


@pytest.mark.parametrize(
    "system_name, datum_name",
    [("fb_system", "fb_datum"), ("product_system", "product_datum")],
    ids=["free", "product-swap"],
)
def test_a_traced_certificate_calls_every_span_it_is_benchmarked_on(request, system_name, datum_name):
    # the benchmark's own suite takes minutes, so a certificate that stops
    # calling a traced function by name shows here first
    system, datum = request.getfixturevalue(system_name), request.getfixturevalue(datum_name)
    tracer = _spans().Tracer()
    try:
        coding.shyp_certificate(system, datum, net=system.limit_net(2), depth=6, n_max=8)
    finally:
        tracer.close()
    counts = tracer.counters()
    assert [name for name in CERTIFICATE_SPANS if not counts[f"{name}.calls"]] == []
    assert counts["coding.codes_enumerated"] > 0
    assert counts["coding.n_equivalence_found"] > 0


def _names_used(node) -> Counter:
    """How often each name is read in the tree: as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_under_src_is_used_elsewhere_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _names_used(node)[node.name]  # only inside itself
    ]
    assert not unused, f"defined in src/ but used only by tests, or not at all: {unused}"


def test_every_named_tuple_field_under_src_is_read_in_src():
    nodes = [node for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))]
    read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted(
        f"{cls.name}.{field.target.id}"
        for cls in nodes
        if isinstance(cls, ast.ClassDef) and "NamedTuple" in [getattr(b, "id", None) for b in cls.bases]
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    )
    assert not unread, f"NamedTuple fields that nothing under src/ reads: {unread}"


# `import expaction.cli` in a fresh interpreter, numpy already loaded: the
# classes dataclasses processed meanwhile
IMPORT_PROBE = """
import json
import numpy, dataclasses
processed, process = [], dataclasses._process_class
def counting(cls, *args, **kwargs):
    processed.append(cls.__qualname__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counting
import expaction.cli
print(json.dumps(processed))
"""
# dataclasses the package declares; each costs about a millisecond of code
# generation per job
KEPT_DATACLASSES = 0


def test_the_cli_import_declares_no_more_dataclasses_than_kept():
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    processed = json.loads(proc.stdout)
    assert len(processed) <= KEPT_DATACLASSES, processed


# a CLI job in a fresh interpreter: whether it loaded numpy's random module
RANDOM_PROBE = """
import sys
from expaction import cli
status = cli.main(sys.argv[1:])
print(status, "numpy.random" in sys.modules)
"""


_JITTER = {"family": "matrix_jitter", "magnitude": 3e-6}


@pytest.mark.parametrize(
    "command, config",
    [
        ("verify-expansion", {"system": {"kind": "free_boundary"}}),
        ("stability", {"perturbation": {"family": "bump_compose", "height": 5e-6}}),
        ("stability", {"perturbation": _JITTER}),
        ("stability", {"system": {"kind": "zn_projective"}, "perturbation": _JITTER}),
        ("stability", {"system": {"kind": "covered_cyclic"}, "lambda_target": 1.5,
                       "perturbation": _JITTER}),
    ],
    ids=["free-verify-expansion", "bump-stability", "jitter-stability",
         "zn-jitter-stability", "covered-jitter-stability"],
)
def test_no_command_loads_numpy_random(tmp_path, command, config):
    # the construction check draws from the standard library and matrix
    # jitter from pcg64, numpy's stream in pure Python: numpy's generator
    # would add about 6 MB to a job's peak memory
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", RANDOM_PROBE, command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# Points made while the default Schottky datum is built: the 108 of the
# working net and the 432 of its delta-neighborhood; the 26,244 angles of the
# depth-9 probe net reach the Lebesgue number as an array
SCHOTTKY_DATUM_POINTS = 540


def test_the_schottky_datum_builds_no_point_of_its_probe_net(monkeypatch):
    from expaction import expansion, geometry

    system = zoo.make_schottky()
    made, init = [], geometry.Point.__init__

    def counting(self, space, value):
        made.append(value)
        init(self, space, value)

    monkeypatch.setattr(geometry.Point, "__init__", counting)
    datum = expansion.build_expansion_datum(system, 1.4)
    assert len(datum.net) == 108
    assert len(made) <= SCHOTTKY_DATUM_POINTS < 26244
