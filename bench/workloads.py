"""Workloads of the expaction CLI benchmark: pinned jobs and reference verdicts.

A job is one CLI command on one pinned config.  The reference checks read
the files the command writes and compare them with verdicts derived by hand
from the paper's examples; they never import expaction, so a defect in the
package cannot vouch for itself.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCHOTTKY = {"kind": "schottky", "params": {}}
CYCLIC = {"kind": "cyclic_hyperbolic", "params": {}}
FREE = {"kind": "free_boundary", "params": {"rank": 2, "a": 2.0}}
ZN = {"kind": "zn_projective", "params": {}}
PRODUCT_SWAP = {
    "kind": "product",
    "params": {"with_swap": True, "component": {"kind": "free_boundary", "params": {}}},
}

TRANSLATION_T = 1e-3
PREFIX_DEPTH = 20  # the CLI's default coding-map prefix depth
FREE_RANK = FREE["params"]["rank"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `seeded` jobs take the workload seed as --seed."""

    name: str
    command: str
    config: dict
    check: Callable[[Path], list]
    seeded: bool = False

    def argv(self, config_path: Path, out: Path, seed: int) -> list:
        argv = [self.command, "--config", str(config_path), "--out", str(out)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


# ---------------------------------------------------------------------------
# reference checks: each returns a list of mismatch messages, empty when the
# job's outputs agree with the reference


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def check_passed(out: Path) -> list:
    problems = []
    _expect(problems, _report(out).get("passed") is True, "report.passed is not true")
    return problems


def check_stability(out: Path) -> list:
    """Stability verdict: phi exists on the whole net, moves points less than
    eps and delta/5, and is equivariant to 1e-6."""
    r = _report(out)
    problems = []
    _expect(problems, r.get("passed") is True, "stability did not pass")
    _expect(problems, r.get("failures") == 0, f"{r.get('failures')} conjugacy failures")
    disp = r.get("displacement", {})
    _expect(problems, disp.get("max", math.inf) < r.get("epsilon", 0.0), "displacement >= eps")
    _expect(problems, disp.get("below_delta_fifth") is True, "displacement >= delta/5")
    _expect(problems, r.get("equivariance_residual", math.inf) < 1e-6, "residual >= 1e-6")
    return problems


def check_translation(out: Path) -> list:
    """Conjugating x -> m^2 x by the chart translation x -> x + t moves its
    repelling fixed point from chart 0 to chart t, so phi(0) = 2*atan(t)."""
    problems = check_stability(out)
    phi0 = [float(row["phi"]) for row in _rows(out / "conjugacy.csv") if float(row["x"]) == 0.0]
    _expect(problems, len(phi0) == 1, f"expected one row for x = 0, found {len(phi0)}")
    if phi0:
        err = _circle_dist(phi0[0], 2.0 * math.atan(TRANSLATION_T))
        _expect(problems, err <= 1e-9, f"phi(0) misses 2*atan(t) by {err:.3e}")
    return problems


def check_free_certificate(out: Path) -> list:
    """Cylinders of distinct first letters are disjoint, so two rays of one
    boundary point differ only in their first letter: fellow constant 1."""
    r = _report(out)
    cert = r.get("certificate", {})
    problems = []
    _expect(problems, r.get("passed") is True, "certificate did not pass")
    _expect(problems, cert.get("fellow_constant") == 1, f"fellow_constant {cert.get('fellow_constant')} != 1")
    return problems


def check_free_codes(out: Path) -> list:
    """Each point has its greedy code plus one code per other first letter:
    2*rank codes, none truncated."""
    r = _report(out)
    rows = _rows(out / "codes.csv")
    per_point = {}
    for row in rows:
        per_point[row["point"]] = per_point.get(row["point"], 0) + 1
    problems = []
    _expect(problems, r.get("truncated") is False, "code enumeration truncated")
    _expect(problems, len(per_point) == r.get("points"), "codes.csv misses points")
    bad = {p: n for p, n in per_point.items() if n != 2 * FREE_RANK}
    _expect(problems, not bad, f"points without {2 * FREE_RANK} codes: {bad}")
    return problems


def check_free_coding_map(out: Path) -> list:
    """On the free boundary the coding map is the identity on prefixes."""
    rows = _rows(out / "coding_map.csv")
    problems = []
    _expect(problems, len(rows) == _report(out).get("points"), "coding_map.csv misses points")
    bad = [
        row["point"]
        for row in rows
        if row["prefix"] != row["point"].strip("'")[:PREFIX_DEPTH] or row["stabilized"] != "True"
    ]
    _expect(problems, not bad, f"{len(bad)} prefixes differ from their points, e.g. {bad[:2]}")
    return problems


def check_zn_certificate(out: Path) -> list:
    """Rays of a corner of P^2 differ by a commuting generator pair, so plain
    fellow traveling needs 2 > n_max = 1 and the chain-equivalence path
    certifies with constant 1."""
    r = _report(out)
    cert = r.get("certificate", {})
    problems = []
    _expect(problems, r.get("passed") is True, "certificate did not pass")
    _expect(problems, cert.get("fellow_constant") == 2, f"fellow_constant {cert.get('fellow_constant')} != 2")
    _expect(problems, cert.get("n_max") == 1, f"n_max {cert.get('n_max')} != 1")
    _expect(problems, cert.get("chain_constant") == 1, f"chain_constant {cert.get('chain_constant')} != 1")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _stability_job(name, system, perturbation, check=check_stability, lam=1.4, seeded=False):
    config = {"system": system, "lambda_target": lam, "perturbation": perturbation}
    return Job(name, "stability", config, check, seeded)


WORKLOADS = {
    # Every job rebuilds the Schottky datum (eig calls in the limit net,
    # distance calls in the Lebesgue number); the bump job takes the
    # letter-by-letter path of ActionView.apply_word.
    "schottky-stability": (
        _stability_job(
            "schottky.stability.jitter", SCHOTTKY,
            {"family": "matrix_jitter", "magnitude": 3e-6}, seeded=True,
        ),
        _stability_job(
            "schottky.stability.bump", SCHOTTKY,
            {"family": "bump_compose", "center": 1.0, "width": 0.6, "height": 5e-6},
        ),
        Job("schottky.verify-expansion", "verify-expansion",
            {"system": SCHOTTKY, "lambda_target": 1.4}, check_passed),
        _stability_job(
            "cyclic.stability.translation", CYCLIC,
            {"family": "translation_conjugate", "t": TRANSLATION_T},
            check=check_translation, lam=1.5,
        ),
    ),
    # Almost all work in the word metric and code enumeration; the datum of
    # the free boundary is nearly free.
    "free-certificate": (
        Job("free.certify-shyp", "certify-shyp",
            {"system": FREE, "codes": {"depth": 20, "cap": 200}, "n_max": 8},
            check_free_certificate),
        Job("free.coding-map", "coding-map", {"system": FREE}, check_free_coding_map),
        Job("free.codes", "codes", {"system": FREE, "codes": {"depth": 20, "cap": 200}},
            check_free_codes),
        Job("free.verify-expansion", "verify-expansion", {"system": FREE}, check_passed),
    ),
    # The same word and coding layers through abelian and product-swap words,
    # plus the projective bisection and disjoint-union geometry.
    "nonfree-certificate": (
        Job("zn.certify-shyp", "certify-shyp", {"system": ZN, "n_max": 1},
            check_zn_certificate),
        _stability_job(
            "zn.stability.jitter", ZN, {"family": "matrix_jitter", "magnitude": 1e-6},
            seeded=True,
        ),
        Job("product.certify-shyp", "certify-shyp",
            {"system": PRODUCT_SWAP, "net": {"depth": 3}, "codes": {"depth": 8}},
            check_passed),
        Job("product.verify-expansion", "verify-expansion",
            {"system": PRODUCT_SWAP, "net": {"depth": 3}}, check_passed),
    ),
}


def datum_constants(out: Path) -> dict:
    """delta, lambda and lipschitz of the job's datum, and eps for stability."""
    r = _report(out)
    datum = r.get("datum", {})
    consts = {k: datum[k] for k in ("delta", "lambda", "lipschitz") if k in datum}
    if "epsilon" in r:
        consts["epsilon"] = r["epsilon"]
    return consts


# Datum constants recorded at the commit that introduced the benchmark; a
# change is reported as drift, not counted as a failure.
_SCHOTTKY_DATUM = {"delta": 0.20506198976312542, "lambda": 1.4, "lipschitz": 9.090000000000005}
_FREE_DATUM = {"delta": 0.225, "lambda": 2.0, "lipschitz": 2.0}
_ZN_DATUM = {"delta": 0.18831571906504668, "lambda": 1.4, "lipschitz": 9.09}
REFERENCE_CONSTANTS = {
    "schottky.stability.jitter": dict(_SCHOTTKY_DATUM, epsilon=0.002255907478142192),
    "schottky.stability.bump": dict(_SCHOTTKY_DATUM, epsilon=0.002255907478142192),
    "schottky.verify-expansion": _SCHOTTKY_DATUM,
    "cyclic.stability.translation": {
        "delta": 0.611291098535502, "lambda": 1.5, "lipschitz": 4.04,
        "epsilon": 0.018913709731915286,
    },
    "free.certify-shyp": _FREE_DATUM,
    "free.coding-map": _FREE_DATUM,
    "free.codes": _FREE_DATUM,
    "free.verify-expansion": _FREE_DATUM,
    "zn.certify-shyp": _ZN_DATUM,
    "zn.stability.jitter": dict(_ZN_DATUM, epsilon=0.00015193839953966156),
    "product.certify-shyp": _FREE_DATUM,
    "product.verify-expansion": _FREE_DATUM,
}


# The traced spans each workload is meant to exercise; the benchmark's tests
# require nonzero calls there, so a rename cannot silently read zero.
EXERCISES = {
    "schottky-stability": (
        "zoo.limit_net", "zoo.fixed_angles", "zoo.apply", "zoo.make_schottky",
        "zoo.make_cyclic_hyperbolic", "geometry.lebesgue_number", "geometry.raw_distance",
        "expansion.build_expansion_datum", "expansion.verify_expansion", "expansion.apply_word",
        "groups.word_metric", "stability.conjugacy_point", "stability.lipschitz_distance",
        "stability.perturbed_datum", "cli.emit",
    ),
    "free-certificate": (
        "groups.word_metric", "groups.multiply", "groups.inverse", "groups.word_length",
        "zoo.make_free_boundary", "coding.enumerate_codes", "coding.code_ray",
        "coding.fellow_travel_distance", "coding.n_equivalence", "coding.shyp_certificate",
        "coding.coding_map", "expansion.build_expansion_datum", "cli.emit",
    ),
    "nonfree-certificate": (
        "groups.word_metric", "groups.multiply", "groups.inverse", "groups.word_length",
        "zoo.make_zn_projective", "zoo.make_product", "expansion.build_expansion_datum",
        "coding.shyp_certificate", "coding.n_equivalence", "cli.emit",
    ),
}

# Pairs the CLI cannot run yet: each exits with status 1 and a traceback
# ending in the given message, instead of a config error.  They are kept out of the workloads, and the
# benchmark's tests fail once one of them starts to work, so this list stays
# true.
UNSUPPORTED = (
    ("coding-map", ZN, "coding map needs a free or cyclic presentation"),
    ("coding-map", PRODUCT_SWAP, "coding map needs a free or cyclic presentation"),
    ("stability", FREE, "perturbations unsupported on FreeBoundary"),
    ("stability", PRODUCT_SWAP, "perturbations unsupported on DisjointUnion"),
)
