"""Tests of the benchmark itself: contract, tracing coverage, seeds, checks.

Run from the repository root: python3 -m pytest -q bench
"""
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from expaction import cli  # noqa: E402


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    assert set(spans.layer_metrics(spans.zero_counters(), 0.0)) == {m["name"] for m in doc["per_layer"]}


def _package_bindings():
    return {
        (mod.__name__, key): value
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "expaction"
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_rebinds_every_import_and_restores_them():
    before = _package_bindings()
    tracer = spans.Tracer()
    try:
        traced = _package_bindings()
        # `from .geometry import lebesgue_number` binds the name in both
        # modules; each binding must point at the wrapper
        for module in ("expansion", "stability", "geometry"):
            key = (f"expaction.{module}", "lebesgue_number")
            assert traced[key] is not before[key]
        originals = {
            id(before[(f"expaction.{module}", attr)])
            for _, module, attr in spans.TRACED
            if "." not in attr
        }
        stale = [key for key, value in traced.items() if id(value) in originals]
        assert not stale, f"unwrapped bindings left: {stale}"
    finally:
        tracer.close()
    assert _package_bindings() == before


def test_tracer_refuses_a_traced_name_that_does_not_exist(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("groups.gone", "groups", "gone"),))
    before = _package_bindings()
    with pytest.raises(AttributeError):
        spans.Tracer()
    assert _package_bindings() == before


@pytest.fixture(scope="module")
def traced_passes():
    """Two traced passes of every workload, at one seed."""
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=build))
    try:
        yield {
            name: [run.run_pass(jobs, 1, True, workdir) for _ in range(2)]
            for name, jobs in workloads.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layers(records):
    return run.traced_layers(records, [records])


def test_traced_passes_are_correct_and_cover_their_spans(traced_passes):
    assert set(workloads.EXERCISES) == set(workloads.WORKLOADS)
    assert {n for names in workloads.EXERCISES.values() for n in names} == set(spans.SPAN_NAMES)
    for name, (first, _) in traced_passes.items():
        assert [r["problems"] for r in first] == [[] for _ in first], name
        layers = _layers(first)
        idle = [s for s in workloads.EXERCISES[name] if layers[f"{s}.calls"] == 0]
        assert not idle, f"{name}: no calls recorded for {idle}"


def test_traced_counts_repeat_exactly(traced_passes):
    for name, (first, second) in traced_passes.items():
        a, b = _layers(first), _layers(second)
        counts = [m for m, unit, _ in spans.LAYER_METRICS if unit in ("count", "ratio")]
        counts.remove("trace.overhead_frac")
        assert {m: a[m] for m in counts} == {m: b[m] for m in counts}, name


def test_layers_sit_where_the_workloads_put_them(traced_passes):
    layers = {name: _layers(first) for name, (first, _) in traced_passes.items()}
    word_metric = {name: m["groups.word_metric.calls"] for name, m in layers.items()}
    assert max(word_metric, key=word_metric.get) == "free-certificate"
    eig = {name for name, m in layers.items() if m["zoo.fixed_angles.calls"]}
    assert eig == {"schottky-stability"}
    conjugacy = {name: m["stability.conjugacy_point.calls"] for name, m in layers.items()}
    assert max(conjugacy, key=conjugacy.get) == "schottky-stability"


def test_seed_reaches_only_the_jitter_jobs(tmp_path):
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            argv = job.argv(tmp_path / "c.json", tmp_path / "out", 12345)
            assert ("--seed" in argv) == job.seeded, job.name
            if job.seeded:
                # a seed pinned in the config would override --seed
                assert job.config["perturbation"]["family"] == "matrix_jitter"
                assert "seed" not in job.config["perturbation"]


def _run_cli(job, seed, tmp_path):
    config = tmp_path / f"{job.name}.json"
    config.write_text(json.dumps(job.config))
    out = tmp_path / f"{job.name}-{seed}"
    status = cli.main(job.argv(config, out, seed))
    return status, out


def test_jitter_verdicts_hold_at_a_seed_other_than_the_default(tmp_path):
    seeded = [job for jobs in workloads.WORKLOADS.values() for job in jobs if job.seeded]
    assert {job.name for job in seeded} == {"schottky.stability.jitter", "zn.stability.jitter"}
    for job in seeded:
        status, out = _run_cli(job, 11, tmp_path)
        assert status == 0, job.name
        assert job.check(out) == [], job.name
    zn = next(job for job in seeded if job.name == "zn.stability.jitter")
    realized = [
        json.loads((_run_cli(zn, seed, tmp_path)[1] / "report.json").read_text())["realized"]
        for seed in (11, 12345)
    ]
    assert realized[0] != realized[1], "--seed did not change the perturbation"


@pytest.mark.parametrize("command, system, reason", workloads.UNSUPPORTED)
def test_unsupported_pairs_still_fail(tmp_path, command, system, reason):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": system}))
    proc = subprocess.run(
        [sys.executable, "-m", "expaction.cli", command, "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" in proc.stderr
    assert reason in proc.stderr.strip().splitlines()[-1]


def _write(out: Path, report: dict, **tables) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report))
    for name, text in tables.items():
        (out / f"{name}.csv").write_text(text)
    return out


STABLE = {
    "passed": True, "failures": 0, "epsilon": 1e-3, "equivariance_residual": 1e-9,
    "displacement": {"max": 1e-4, "below_eps": True, "below_delta_fifth": True},
}


@pytest.mark.parametrize(
    "check, report, tables",
    [
        (workloads.check_passed, {"passed": False}, {}),
        (workloads.check_stability, dict(STABLE, failures=1), {}),
        (workloads.check_stability, dict(STABLE, displacement={"max": 2e-3, "below_delta_fifth": True}), {}),
        (workloads.check_stability, dict(STABLE, equivariance_residual=2e-6), {}),
        (workloads.check_translation, STABLE,
         {"conjugacy": f"x,phi\n0.0,{2 * 0.001 + 1e-8!r}\n3.14,3.14\n"}),
        (workloads.check_free_certificate, {"passed": True, "certificate": {"fellow_constant": 2}}, {}),
        (workloads.check_free_codes, {"truncated": False, "points": 1},
         {"codes": "point,code\n'ab',0\n'ab',1\n'ab',2\n"}),
        (workloads.check_free_coding_map, {"points": 1},
         {"coding_map": f"point,prefix,stabilized\n'{'a' * 40}',{'a' * 19}b,True\n"}),
        (workloads.check_zn_certificate,
         {"passed": True, "certificate": {"fellow_constant": 1, "n_max": 1, "chain_constant": 1}}, {}),
    ],
)
def test_checks_reject_wrong_verdicts(tmp_path, check, report, tables):
    assert check(_write(tmp_path / "out", report, **tables)) != []


def test_checks_accept_the_reference_verdicts(tmp_path):
    phi0 = 2.0 * math.atan(workloads.TRANSLATION_T)
    out = _write(tmp_path / "out", STABLE, conjugacy=f"x,phi\n0.0,{phi0!r}\n")
    assert workloads.check_translation(out) == []


def test_runner_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "free-certificate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
