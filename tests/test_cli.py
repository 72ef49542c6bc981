import json

import pytest

from expaction import cli, expansion, stability, zoo


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


FB_CONFIG = {
    "system": {"kind": "free_boundary", "params": {"rank": 2, "a": 2.0}},
    "lambda_target": 2.0,
    "net": {"depth": 3},
    "codes": {"depth": 12, "cap": 50},
    "n_max": 8,
}

SCHOTTKY_CONFIG = {
    "system": {"kind": "schottky", "params": {}},
    "lambda_target": 1.4,
    "net": {"depth": 3},
    "codes": {"depth": 10, "cap": 50},
}


def test_zoo_list(tmp_path, capsys):
    assert run(["zoo-list", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert "schottky" in report["kinds"]
    assert "schottky" in capsys.readouterr().out


def test_certify_shyp_free_boundary(tmp_path):
    cfg = write_config(tmp_path, "fb.json", FB_CONFIG)
    out = tmp_path / "out"
    assert run(["certify-shyp", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["fellow_constant"] == 1
    assert report["passed"] is True


def test_a_huge_max_chain_certifies_as_a_long_one(tmp_path):
    # the chain power stops at the number of ray classes, so a bound of 10**9
    # ends as quickly as one of 50 and certifies the same constants
    certificates = {}
    for max_chain in (50, 10**9):
        cfg = write_config(tmp_path, f"fb{max_chain}.json", {**FB_CONFIG, "max_chain": max_chain})
        out = tmp_path / f"out{max_chain}"
        assert run(["certify-shyp", "--config", cfg, "--out", out]) == 0
        certificates[max_chain] = json.loads((out / "report.json").read_text())["certificate"]
        assert certificates[max_chain].pop("chain_steps") == max_chain
    assert certificates[10**9] == certificates[50]


def test_stability_zero_magnitude_identity(tmp_path):
    cfg = write_config(
        tmp_path,
        "sch.json",
        {
            **SCHOTTKY_CONFIG,
            "perturbation": {"family": "matrix_jitter", "magnitude": 0.0, "seed": 1},
        },
    )
    out = tmp_path / "out"
    assert run(["stability", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["displacement"]["max"] <= 1e-12
    assert (out / "conjugacy.csv").exists()
    assert (out / "lambda_vs_image.svg").exists()


@pytest.mark.parametrize("kind, space", [("free_boundary", "FreeBoundary"), ("product", "DisjointUnion")])
def test_stability_refuses_an_unperturbable_space_before_the_datum(tmp_path, monkeypatch, kind, space):
    def no_datum(*args):
        raise AssertionError("the datum was built")

    monkeypatch.setattr(expansion, "build_expansion_datum", no_datum)
    cfg = write_config(tmp_path, "c.json", {"system": {"kind": kind}})
    with pytest.raises(TypeError, match=f"perturbations unsupported on {space}"):
        run(["stability", "--config", cfg, "--out", tmp_path / "o"])


@pytest.mark.parametrize("kind, presentation", [("zn_projective", "free_abelian"), ("product", "product_swap")])
def test_coding_map_refuses_a_presentation_without_boundary_before_the_datum(
    tmp_path, monkeypatch, kind, presentation
):
    def no_datum(*args):
        raise AssertionError("the datum was built")

    monkeypatch.setattr(expansion, "build_expansion_datum", no_datum)
    cfg = write_config(tmp_path, "c.json", {"system": {"kind": kind}})
    with pytest.raises(ValueError, match=f"coding map needs a free or cyclic presentation, not {presentation}$"):
        run(["coding-map", "--config", cfg, "--out", tmp_path / "o"])


@pytest.mark.parametrize(
    "kind, rate, line",
    [
        ("schottky", 3.3, "error: no cover member for Point(Circle, 1.2721120533456087): "
         "Lebesgue number -0.00431704 <= 0 over the probe net"),
        ("zn_projective", 2.99999, "error: no cover member for Point(ProjectiveSpace, (1.0, 0.0, 0.0)): "
         "least expansion factor 2.99994 <= target 2.99999 within radius 0.000706858 of this fixed point"),
    ],
)
def test_an_uncoverable_rate_exits_2_naming_the_test_that_failed(tmp_path, capsys, kind, rate, line):
    # each rate lies below the net's best expansion factor (3.34435 and 3),
    # so the message names the failing test, not a factor above the target
    cfg = write_config(tmp_path, "c.json", {"system": {"kind": kind}, "lambda_target": rate})
    assert run(["verify-expansion", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_an_uncovered_perturbed_net_exits_2_naming_its_lebesgue_number(tmp_path, monkeypatch, capsys):
    # the first phi moved to 0.509 from the net (delta 0.205), outside every
    # shrunk region: the perturbed datum has no cover, and no expansion
    # factor is at fault
    conjugacy_map = stability.conjugacy_map

    def moved_first_phi(ps, **kwargs):
        table = conjugacy_map(ps, **kwargs)
        table.entries[0] = table.entries[0]._replace(phi=ps.base.space.point(0.7853927))
        return table

    monkeypatch.setattr(stability, "conjugacy_map", moved_first_phi)
    cfg = write_config(tmp_path, "c.json", _perturbed("matrix_jitter", magnitude=0.0))
    assert run(["stability", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (
        "error: no cover member for Point(Circle, 0.7853927): "
        "Lebesgue number -0.345331 <= 0 over the perturbed net\n"
    )


def test_malformed_config_schema_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"lambda_target": 0.9})
    code = run(["certify-shyp", "--config", cfg, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda_target" in err


def _system(kind, **params):
    return {"system": {"kind": kind, "params": params}}


def _schottky(**params):
    return _system("schottky", **params)


def _perturbed(family, **params):
    return {**SCHOTTKY_CONFIG, "perturbation": {"family": family, **params}}


def _jittered(kind):
    return {**_system(kind), "perturbation": {"family": "matrix_jitter", "magnitude": 1e-6}}


BAD_FIELDS = [
    # (id, payload, field named in the error, command)
    ("non-numeric-param", _schottky(multiplier="x"), "system.params.multiplier", "certify-shyp"),
    ("section-not-an-object", {"codes": "abc"}, "codes", "certify-shyp"),
    ("top-level-list", [FB_CONFIG], "top level", "certify-shyp"),
    ("lambda_target", {"lambda_target": "fast"}, "lambda_target", "certify-shyp"),
    ("net.depth", {"net": {"depth": "deep"}}, "net.depth", "certify-shyp"),
    ("net.seed", {"net": {"seed": "s"}}, "net.seed", "certify-shyp"),
    ("seed", {"seed": [7]}, "'seed'", "certify-shyp"),
    ("codes.depth", {"codes": {"depth": "x"}}, "codes.depth", "certify-shyp"),
    ("codes.depth-infinite", {"codes": {"depth": float("inf")}}, "codes.depth", "certify-shyp"),
    ("codes.cap", {"codes": {"cap": None}}, "codes.cap", "certify-shyp"),
    ("n_max", {"n_max": "eight"}, "n_max", "certify-shyp"),
    ("max_chain", {"max_chain": {}}, "max_chain", "certify-shyp"),
    ("prefix_depth", {"prefix_depth": "x"}, "prefix_depth", "coding-map"),
    ("tolerances.tol", {"tolerances": {"tol": "tiny"}}, "tolerances.tol", "certify-shyp"),
    ("tol", {"tol": "tiny"}, "'tol'", "certify-shyp"),
    ("schottky-matrices", _schottky(matrices=[[["a", 0], [0, 1]]]),
     "system.params.matrices", "certify-shyp"),
    ("schottky-matrices-ragged", _schottky(matrices=[[[2, 0], [0]]]),
     "system.params.matrices", "certify-shyp"),
    # matrices and diagonals that fail the constructor's own checks
    ("schottky-matrices-not-hyperbolic", _schottky(matrices=[[[1, 0], [0, 1]]]),
     "error: config field 'system.params.matrices': generator 0 is not hyperbolic\n", "codes"),
    ("schottky-matrices-ping-pong", _schottky(matrices=zoo.default_schottky_matrices(1.2)),
     "error: config field 'system.params.matrices': ping-pong failure:", "codes"),
    ("schottky-matrices-negative-determinant", _schottky(matrices=[[[0, 1], [1, 0]]]),
     "error: config field 'system.params.matrices': matrix must have positive determinant\n", "codes"),
    ("zn-diagonals-top-eigenvector", _system("zn_projective", diagonals=[[1, 9, 3], [9, 3, 1]]),
     "error: config field 'system.params.diagonals': generator 0: top eigenvector is not e_0\n", "codes"),
    ("product-component-schottky-matrices",
     _system("product", component=_schottky(matrices=[[[0, 1], [1, 0]]])["system"]),
     "'system.params.component.params.matrices'", "certify-shyp"),
    ("product-component-zn-diagonals",
     _system("product", component=_system("zn_projective", diagonals=[[1, 9]])["system"]),
     "'system.params.component.params.diagonals'", "certify-shyp"),
    ("perturbation.magnitude", _perturbed("matrix_jitter", magnitude="big"),
     "perturbation.magnitude", "stability"),
    ("perturbation.seed", _perturbed("matrix_jitter", seed="s"), "perturbation.seed", "stability"),
    ("perturbation.center", _perturbed("bump_compose", center="c"),
     "perturbation.center", "stability"),
    ("perturbation.width", _perturbed("bump_compose", width=[1]),
     "perturbation.width", "stability"),
    ("perturbation.height", _perturbed("bump_compose", height="h"),
     "perturbation.height", "stability"),
    ("perturbation.t", _perturbed("translation_conjugate", t="t"), "perturbation.t", "stability"),
    ("zn-diagonals-non-numeric", _system("zn_projective", diagonals=[["a", 1, 3], [9, 3, 1]]),
     "system.params.diagonals", "certify-shyp"),
    ("zn-diagonals-not-nested", _system("zn_projective", diagonals=3),
     "system.params.diagonals", "certify-shyp"),
    ("zn-diagonals-empty", _system("zn_projective", diagonals=[]),
     "system.params.diagonals", "certify-shyp"),
    # the zoo constructors' own bounds, checked before any construction
    ("zn-diagonal-wrong-length", _system("zn_projective", diagonals=[[9, 1, 3], [9, 3]]),
     "'system.params.diagonals'", "certify-shyp"),
    ("cyclic-multiplier-one", _system("cyclic_hyperbolic", multiplier=1.0),
     "'system.params.multiplier'", "certify-shyp"),
    ("covered-multiplier-below-one", _system("covered_cyclic", multiplier=0.5),
     "'system.params.multiplier'", "certify-shyp"),
    ("covered-degree-one", _system("covered_cyclic", degree=1),
     "'system.params.degree'", "certify-shyp"),
    ("free-rank-one", _system("free_boundary", rank=1), "'system.params.rank'", "certify-shyp"),
    ("free-a-one", _system("free_boundary", a=1.0), "'system.params.a'", "certify-shyp"),
    ("free-a-above-two", _system("free_boundary", a=2.5), "'system.params.a'", "certify-shyp"),
    ("product-component-rank-one",
     _system("product", component={"kind": "free_boundary", "params": {"rank": 1}}),
     "'system.params.component.params.rank'", "certify-shyp"),
    # the default matrices of a bad schottky multiplier fail in the constructor
    ("schottky-multiplier-one", _schottky(multiplier=1.0),
     "'system.params.multiplier'", "certify-shyp"),
    ("schottky-multiplier-half", _schottky(multiplier=0.5),
     "'system.params.multiplier'", "certify-shyp"),
    ("schottky-multiplier-zero", _schottky(multiplier=0.0),
     "'system.params.multiplier'", "certify-shyp"),
    ("product-component-schottky-multiplier",
     _system("product", component={"kind": "schottky", "params": {"multiplier": 1.0}}),
     "'system.params.component.params.multiplier'", "certify-shyp"),
    ("params-not-an-object", {"system": {"kind": "schottky", "params": 5}},
     "'system.params'", "certify-shyp"),
    ("product-component-not-an-object", _system("product", component=5),
     "'system.params.component'", "certify-shyp"),
    ("kind-not-a-string", {"system": {"kind": ["schottky"]}}, "'system.kind'", "certify-shyp"),
    ("product-component-kind", _system("product", component={"kind": "bogus"}),
     "'system.params.component.kind'", "certify-shyp"),
    ("product-component-params-not-an-object",
     _system("product", component={"kind": "free_boundary", "params": [1]}),
     "'system.params.component.params'", "certify-shyp"),
    ("with_swap-not-a-boolean", _system("product", with_swap="no"),
     "'system.params.with_swap'", "verify-expansion"),
    ("diagonal_only-not-a-boolean", _perturbed("matrix_jitter", diagonal_only="no"),
     "'perturbation.diagonal_only'", "stability"),
    ("seed-negative", {"seed": -1}, "'seed'", "certify-shyp"),
    ("perturbation.seed-negative", _perturbed("matrix_jitter", seed=-1),
     "'perturbation.seed'", "stability"),
    ("codes.depth-zero", {"codes": {"depth": 0}}, "'codes.depth'", "codes"),
    ("codes.depth-negative", {"codes": {"depth": -1}}, "'codes.depth'", "certify-shyp"),
    ("prefix_depth-zero", {"prefix_depth": 0}, "'prefix_depth'", "coding-map"),
    ("max_chain-zero", {"max_chain": 0}, "'max_chain'", "certify-shyp"),
    ("n_max-negative", {"n_max": -1}, "'n_max'", "certify-shyp"),
    ("tolerances.tol-infinite", {"tolerances": {"tol": float("inf")}},
     "'tolerances.tol'", "verify-expansion"),
    ("perturbation.magnitude-nan", _perturbed("matrix_jitter", magnitude=float("nan")),
     "'perturbation.magnitude'", "stability"),
    ("lambda_target-infinite", {"lambda_target": float("inf")}, "'lambda_target'", "certify-shyp"),
    ("out_dir-null", {"out_dir": None}, "'out_dir'", "certify-shyp"),
    ("out_dir-not-a-string", {"out_dir": 3}, "'out_dir'", "certify-shyp"),
    # misspelled keys name their path instead of falling back to a default
    ("unknown-top-level-key", {"lambda_targt": 9}, "'lambda_targt'", "certify-shyp"),
    ("unknown-section-key", {"codes": {"dpeth": 5}}, "'codes.dpeth'", "certify-shyp"),
    ("unknown-params-key", _system("cyclic_hyperbolic", multiplir=3.0),
     "'system.params.multiplir'", "certify-shyp"),
    ("unknown-perturbation-key", _perturbed("bump_compose", heigth=5e-6),
     "'perturbation.heigth'", "stability"),
    # counts take JSON integers and numbers JSON numbers only
    ("codes.depth-non-integral", {"codes": {"depth": 2.9}}, "'codes.depth'", "codes"),
    ("codes.cap-boolean", {"codes": {"cap": True}}, "'codes.cap'", "codes"),
    ("lambda_target-numeric-string", {"lambda_target": "1.5"}, "'lambda_target'", "certify-shyp"),
    ("schema_version", {"schema_version": 2}, "'schema_version'", "certify-shyp"),
    # nonzero jitter on a space that takes no perturbation, named before any
    # work (zero jitter, the default, still fails later with exit 1)
    ("free-boundary-matrix-jitter", _jittered("free_boundary"),
     "error: config field 'system.kind': matrix jitter unsupported on FreeBoundary\n",
     "stability"),
    ("product-matrix-jitter", _jittered("product"),
     "error: config field 'system.kind': matrix jitter unsupported on DisjointUnion\n",
     "stability"),
    # a bump needs a circle and a translation conjugate Moebius maps; both
    # name the system's kind before any work
    ("free-boundary-bump",
     {**_system("free_boundary"), "perturbation": {"family": "bump_compose", "height": 5e-6}},
     "error: config field 'system.kind': bump perturbations need a circle system, not FreeBoundary\n",
     "stability"),
    ("covered-cyclic-translation",
     {**_system("covered_cyclic"), "perturbation": {"family": "translation_conjugate", "t": 1e-3}},
     "error: config field 'system.kind': translation conjugation needs a Moebius system, "
     "not covered_cyclic(k=3)\n",
     "stability"),
    # a jitter range that numpy's uniform refuses, and a bump of no width
    ("perturbation.magnitude-negative", _perturbed("matrix_jitter", magnitude=-1e-6),
     "error: config field 'perturbation.magnitude': must be >= 0\n", "stability"),
    ("perturbation.magnitude-range-overflows", _perturbed("matrix_jitter", magnitude=1e308),
     "error: config field 'perturbation.magnitude': must be <= 8.988465674311579e+307\n",
     "stability"),
    ("perturbation.width-zero", _perturbed("bump_compose", width=0, height=5e-6),
     "error: config field 'perturbation.width': must be > 0.0\n", "stability"),
    ("perturbation.width-negative", _perturbed("bump_compose", width=-0.6, height=5e-6),
     "error: config field 'perturbation.width': must be > 0.0\n", "stability"),
    # perturbed maps that cannot be constructed name the perturbation's size
    ("translation-non-finite-maps",
     {**_system("cyclic_hyperbolic"), "perturbation": {"family": "translation_conjugate", "t": 1e308}},
     "error: config field 'perturbation.t': matrix entries must be finite\n", "stability"),
    ("jitter-negative-determinant", _perturbed("matrix_jitter", magnitude=5.0, seed=3),
     "error: config field 'perturbation.magnitude': matrix must have positive determinant\n",
     "stability"),
    ("jitter-determinant-overflows", _perturbed("matrix_jitter", magnitude=1e300, seed=3),
     "error: config field 'perturbation.magnitude': matrix determinant overflows\n", "stability"),
    ("jitter-lift-negative-multiplier",
     {**_system("covered_cyclic"), "perturbation": {"magnitude": 5.0, "seed": 3}},
     "error: config field 'perturbation.magnitude': jittered multiplier must be positive and finite\n",
     "stability"),
    ("bump-too-steep", _perturbed("bump_compose", width=0.1, height=0.2),
     "error: config field 'perturbation.height': bump too steep: composed map not injective\n",
     "stability"),
    # height/width 0.6 is below the slope bound 1/1.2910 once used, but the
    # bump's true steepness 2.1704 makes the map fold back
    ("bump-too-steep-for-the-true-slope", _perturbed("bump_compose", width=1.0, height=0.6),
     "error: config field 'perturbation.height': bump too steep: composed map not injective\n",
     "stability"),
    # a multiplier the constructors cannot use names its field
    ("cyclic-multiplier-huge", _system("cyclic_hyperbolic", multiplier=1e200),
     "error: config field 'system.params.multiplier': inverse consistency violated", "certify-shyp"),
    ("covered-multiplier-square-overflows", _system("covered_cyclic", multiplier=1e200),
     "error: config field 'system.params.multiplier': multiplier squared must be finite\n",
     "certify-shyp"),
    # the coding map's codes, prefix_depth + 8 steps deep, run past the
    # free boundary's 40 letters
    ("prefix_depth-past-the-boundary", {**_system("free_boundary"), "prefix_depth": 33},
     "error: config field 'prefix_depth': codes 41 steps deep fail: no cover member admits",
     "coding-map"),
    # each code step takes a letter off a free-group boundary's 40, so a code
    # past them is refused before any is enumerated, on the product too
    *[(f"codes.depth-{depth}-{name}-{command}", {**system, "codes": {"depth": depth}},
       "error: config field 'codes.depth': must be <= 40\n", command)
      for name, system in (("free-boundary", _system("free_boundary")),
                           ("product-swap", _system("product", with_swap=True)))
      for depth in (41, 45)
      for command in ("codes", "certify-shyp")],
    # the perturbation is checked on every command, not only by stability
    ("perturbation-on-certify-shyp", {"perturbation": {"magnitude": "big"}},
     "'perturbation.magnitude'", "certify-shyp"),
]

# (id, command-line flags, field named in the error, command); the flags
# override their config fields and must pass the same checks
BAD_FLAGS = [
    ("--cap", ["--cap", 0], "'codes.cap'", "codes"),
    ("--depth", ["--depth", 0], "'codes.depth'", "codes"),
    ("--tol", ["--tol", -1], "'tolerances.tol'", "stability"),
    ("--tol-inf", ["--tol", "inf"], "'tolerances.tol'", "stability"),
    ("--tol-nan", ["--tol", "nan"], "'tolerances.tol'", "stability"),
    ("--seed", ["--seed", -1], "'net.seed'", "stability"),
]


@pytest.mark.parametrize(
    "payload, flags, field, command",
    [(payload, [], field, command) for _, payload, field, command in BAD_FIELDS]
    + [(SCHOTTKY_CONFIG, flags, field, command) for _, flags, field, command in BAD_FLAGS],
    ids=[case[0] for case in BAD_FIELDS + BAD_FLAGS],
)
def test_bad_config_field_exits_2_naming_the_field(
    tmp_path, capsys, payload, flags, field, command
):
    # an exception escaping main would print a traceback and exit 1
    cfg = write_config(tmp_path, "bad.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *flags]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert err.count("\n") == 1, err  # one line: no traceback and no numpy warning
    assert not (tmp_path / "o").exists()


def test_codes_as_deep_as_the_boundary_letters_are_all_kept(tmp_path):
    # at depth 40 each of the 8 sampled points keeps its 4 codes
    payload = {**_system("free_boundary"), "codes": {"depth": 40}}
    assert run(["codes", "--config", write_config(tmp_path, "c.json", payload), "--out", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert (report["points"], report["codes"], report["truncated"]) == (8, 32, False)


def test_unparseable_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["certify-shyp", "--config", p, "--out", tmp_path / "o"]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8"])
def test_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf-8":
        path.write_bytes(b'{"out_dir": "\xff"}')
    assert run(["certify-shyp", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        "sch.json",
        {
            **SCHOTTKY_CONFIG,
            "perturbation": {"family": "matrix_jitter", "magnitude": 3e-6, "seed": 7},
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["stability", "--config", cfg, "--out", out1]) == 0
    assert run(["stability", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_verify_expansion_emits_artifacts(tmp_path):
    cfg = write_config(tmp_path, "sch.json", SCHOTTKY_CONFIG)
    out = tmp_path / "out"
    assert run(["verify-expansion", "--config", cfg, "--out", out]) == 0
    assert (out / "checks.csv").read_text().startswith("check,")
    svg = (out / "cover.svg").read_text()
    assert svg.startswith("<svg") and "path" in svg
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] and report["datum"]["entries"]


def test_codes_command_with_cap_override(tmp_path):
    cfg = write_config(tmp_path, "fb.json", FB_CONFIG)
    out = tmp_path / "out"
    assert run(["codes", "--config", cfg, "--out", out, "--cap", 1, "--depth", 6]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["truncated"] is True


def test_codes_command_draws_nested_arcs(tmp_path):
    cfg = write_config(tmp_path, "sch.json", {**SCHOTTKY_CONFIG, "codes": {"depth": 8, "cap": 50}})
    out = tmp_path / "out"
    assert run(["codes", "--config", cfg, "--out", out]) == 0
    assert (out / "nested.svg").read_text().startswith("<svg")


def test_coding_map_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "cov.json",
        {
            "system": {"kind": "covered_cyclic", "params": {"multiplier": 2.0, "degree": 3}},
            "lambda_target": 1.5,
            "prefix_depth": 10,
        },
    )
    out = tmp_path / "out"
    assert run(["coding-map", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["distinct_prefixes"] == 2
    assert report["max_fiber"] == 3
