"""Checks on the source tree itself.

The benchmark's tracer (bench/spans.py) wraps functions and methods of the
package by name and raises at install time when one is gone, so a rename
under src/ shows here instead of only in the slower benchmark suite.  And
src/ holds only what the package reaches: a definition that only tests use
belongs under tests/.  Every CLI job pays the package import again, so what
that import declares is pinned here, by a count, not a timing; so are the
modules a job loads and the points the Schottky datum makes.  A NamedTuple
field under src/ that no code there reads is a value no command reports.
Coding reads the base action, and perturbed maps enter only through
`expansion.ActionView`, so no code asks which of the two it was given.
`verify_expansion` takes each image of a point under a label once."""
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


@pytest.mark.parametrize(
    "system_name, datum_name",
    [("fb_system", "fb_datum"), ("zn_system", "zn_datum"), ("product_system", "product_datum")],
    ids=["free", "zn", "product-swap"],
)
def test_a_certificate_measures_each_pair_once_and_chains_each_point_once_per_n(
    monkeypatch, request, system_name, datum_name
):
    # the benchmark's per-layer counts read these calls: one fellow-travel
    # distance per same-point ray pair, then one chain matrix per (point, n)
    # tried, n rising from 0 and each n stopping at the first point that fails
    system, datum = request.getfixturevalue(system_name), request.getfixturevalue(datum_name)
    fellow, chain, calls, tables = coding.fellow_travel_distance, coding.n_equivalence, [], []

    class RecordedTable(coding.RayTable):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    def traced_fellow(table, a, b):
        calls.append(("fellow", table, a, b))
        return fellow(table, a, b)

    def traced_chain(table, n, max_chain):
        calls.append(("chain", table, n))
        return chain(table, n, max_chain)

    monkeypatch.setattr(coding, "RayTable", RecordedTable)
    monkeypatch.setattr(coding, "fellow_travel_distance", traced_fellow)
    monkeypatch.setattr(coding, "n_equivalence", traced_chain)
    net = datum.net[:12]
    cert = coding.shyp_certificate(system, datum, net=net, depth=6, n_max=8)
    assert len(tables) == len(net)
    expected = [
        ("fellow", table, i, j)
        for table, k in zip(tables, cert.rays_per_point)
        for i in range(k)
        for j in range(i + 1, k)
    ]
    top = cert.fellow_constant if cert.fellow_ok else cert.n_max
    for n in range(top + 1):
        for table in tables:
            expected.append(("chain", table, n))
            joined, pairs = chain(table, n, cert.chain_steps)
            if joined < pairs:
                break
        else:
            break
    assert calls == expected and any(call[0] == "fellow" for call in calls)


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


def test_no_attribute_probe_and_regions_have_margins_only_as_matrices():
    # which path a value takes is decided by its type, never by a probe for
    # an attribute; each region kind computes its margins in one routine,
    # the (values × regions) matrix, and every margin is read off it
    from expaction import geometry

    probes = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr"
    ]
    assert not probes, f"hasattr under src/: {probes}"
    kinds, todo = [], [geometry.Region]
    while todo:
        kinds.append(todo.pop())
        todo.extend(kinds[-1].__subclasses__())
    scalar = [
        f"{kind.__name__}.{name}"
        for kind in kinds
        for name in ("base_margin", "margin_array")
        if name in vars(kind)
    ]
    assert not scalar, f"margins outside the matrix routine: {scalar}"
    assert all("margins" in vars(kind) for kind in kinds if kind is not geometry.Region)


def test_action_types_are_never_tested_and_coding_reads_only_the_base_system():
    # coding takes the `ActionSystem`; perturbed maps enter only through
    # `expansion.ActionView`, which no function converts to by `isinstance`
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    tests = [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and {"ActionView", "ActionSystem"} & set(_names_used(node.args[1]))
    ]
    assert not tests, f"isinstance on an action type: {tests}"
    assert not _names_used(trees["coding.py"])["ActionView"]


def test_one_copy_of_each_evaluation_kernel():
    # every system's word acts by its letters (a product's too), the
    # projective tangent frames are the one Gram-Schmidt, and the array
    # circle distance, `np.abs(a - b) % TAU`, is written only in `circle_dists`
    from expaction import geometry

    systems, todo = [], [zoo.ActionSystem]
    while todo:
        systems.append(todo.pop())
        todo.extend(systems[-1].__subclasses__())
    own = [f"{cls.__name__}.{name}" for cls in systems[1:] for name in ("apply", "apply_values") if name in vars(cls)]
    assert not own, f"a second rule for words: {own}"
    assert not hasattr(geometry.ProjectiveSpace, "tangent_basis")
    writers = [
        f"{path.name}:{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and getattr(node.right, "id", None) == "TAU"
        and isinstance(node.left, ast.Call) and getattr(node.left.func, "attr", None) == "abs"
    ]
    assert writers == ["geometry.py:circle_dists"], writers


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


def test_the_schottky_conjugacy_takes_one_margin_matrix_per_code_depth(monkeypatch):
    # every tabulated point's first block of code steps comes from one
    # frontier, one margin matrix per depth; a point that ran past its block
    # would take a frontier of its own, each block up to push_rows matrices
    # more.  The default job's points all stop within the first block.
    from expaction import expansion, geometry, stability

    system = zoo.make_schottky()
    datum = expansion.build_expansion_datum(system, 1.4)
    view = expansion.ActionView(system, zoo.perturb(system, zoo.MatrixJitter(3e-6, seed=7)))
    ps = stability.make_perturbed(view, datum, 1)
    counts, margin_values, make_codes, point = Counter(), geometry.margin_values, coding.make_codes, stability.conjugacy_point

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (geometry, coding):
        monkeypatch.setattr(module, "margin_values", counted("margins", margin_values))
    for module in (coding, stability):
        monkeypatch.setattr(module, "make_codes", counted("blocks", make_codes))
    monkeypatch.setattr(stability, "conjugacy_point", counted("points", point))
    table = stability.conjugacy_map(ps)
    assert not table.failures
    assert counts["points"] == len(table.entries) + len(table.extra) == 403
    assert counts["margins"] <= system.space.push_rows * counts["blocks"]
    assert counts["blocks"] == 1


@pytest.mark.parametrize(
    "system_name, datum_name",
    [("fb_system", "fb_datum"), ("product_system", "product_datum")],
    ids=["free", "product-swap"],
)
def test_verify_expansion_takes_each_label_image_of_a_point_once(monkeypatch, request, system_name, datum_name):
    # the ball condition, which runs on these spaces, asks for the image of
    # each center under an inverse label and of each sample under a label;
    # no eta and no other center asks for the same image again
    from expaction import expansion

    system, datum = request.getfixturevalue(system_name), request.getfixturevalue(datum_name)
    calls, apply_word = Counter(), expansion.ActionView.apply_word

    def counted(self, word, x):
        calls[word, x] += 1
        return apply_word(self, word, x)

    monkeypatch.setattr(expansion.ActionView, "apply_word", counted)
    report = expansion.verify_expansion(expansion.ActionView(system), datum)
    assert report.passed and calls
    assert max(calls.values()) == 1
