"""Command line driver: JSON configs in, JSON/CSV/SVG reports out.

Commands: zoo-list, verify-expansion, codes, certify-shyp, coding-map,
stability.  Reports are deterministic given the config and seeds: repeated
runs write byte-identical JSON.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coding, expansion, stability, zoo

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Config validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"config field {path!r}: {message}")


def _number(path: str, value, convert=float):
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"must be a number, not {value!r}") from None
    if isinstance(number, float) and not math.isfinite(number):
        raise ConfigError(path, f"must be a finite number, not {value!r}")
    return number


def _count(path: str, value, low: int) -> int:
    count = _number(path, value, int)
    if count < low:
        raise ConfigError(path, f"must be >= {low}")
    return count


def _boolean(path: str, value) -> bool:
    # bool("no") is True, so only JSON true and false are accepted
    if not isinstance(value, bool):
        raise ConfigError(path, f"must be true or false, not {value!r}")
    return value


@dataclass
class ExperimentConfig:
    system_kind: str = "schottky"
    system_params: dict = field(default_factory=dict)
    lambda_target: float = 1.4
    net_depth: int | None = None
    seed: int = 7
    code_depth: int = 20
    code_cap: int = 200
    n_max: int = 8
    max_chain: int = 3
    prefix_depth: int = 20
    perturbation: dict = field(default_factory=dict)
    tol: float = 1e-9
    out_dir: str = "out"

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        if not isinstance(raw, dict):
            raise ConfigError("(top level)", "must be an object")
        for key in ("system", "net", "codes", "perturbation", "tolerances"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(key, "must be an object")
        system = raw.get("system", {})
        cfg.system_kind = system.get("kind", cfg.system_kind)
        if not isinstance(cfg.system_kind, str) or cfg.system_kind not in zoo.ZOO_KINDS:
            raise ConfigError("system.kind", f"unknown kind {cfg.system_kind!r}")
        if not isinstance(system.get("params", {}), dict):
            raise ConfigError("system.params", "must be an object")
        cfg.system_params = dict(system.get("params", {}))
        if "lambda_target" in raw:
            cfg.lambda_target = _number("lambda_target", raw["lambda_target"])
            if not cfg.lambda_target > 1.0:
                raise ConfigError("lambda_target", "must exceed 1")
        net = raw.get("net", {})
        if "depth" in net:
            cfg.net_depth = _count("net.depth", net["depth"], 1)
        if "seed" in net:
            cfg.seed = _count("net.seed", net["seed"], 0)
        elif "seed" in raw:
            cfg.seed = _count("seed", raw["seed"], 0)
        codes = raw.get("codes", {})
        cfg.code_depth = _count("codes.depth", codes.get("depth", cfg.code_depth), 1)
        cfg.code_cap = _count("codes.cap", codes.get("cap", cfg.code_cap), 1)
        cfg.n_max = _count("n_max", raw.get("n_max", cfg.n_max), 0)
        cfg.max_chain = _count("max_chain", raw.get("max_chain", cfg.max_chain), 1)
        cfg.prefix_depth = _count("prefix_depth", raw.get("prefix_depth", cfg.prefix_depth), 1)
        cfg.perturbation = dict(raw.get("perturbation", {}))
        tolerances = raw.get("tolerances", {})
        if "tol" in tolerances:
            cfg.tol = _number("tolerances.tol", tolerances["tol"])
        elif "tol" in raw:
            cfg.tol = _number("tol", raw["tol"])
        if not cfg.tol > 0:
            raise ConfigError("tolerances.tol", "must be positive")
        cfg.out_dir = raw.get("out_dir", cfg.out_dir)
        if not isinstance(cfg.out_dir, str):
            raise ConfigError("out_dir", f"must be a string, not {cfg.out_dir!r}")
        return cfg

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "system": {"kind": self.system_kind, "params": self.system_params},
            "lambda_target": self.lambda_target,
            "net": {"depth": self.net_depth, "seed": self.seed},
            "codes": {"depth": self.code_depth, "cap": self.code_cap},
            "n_max": self.n_max,
            "max_chain": self.max_chain,
            "prefix_depth": self.prefix_depth,
            "perturbation": self.perturbation,
            "tolerances": {"tol": self.tol},
            "out_dir": self.out_dir,
        }


def build_system(cfg: ExperimentConfig, path: str = "system.params") -> zoo.ActionSystem:
    kind, p = cfg.system_kind, cfg.system_params

    def number(key, default, convert=float):
        return _number(f"{path}.{key}", p.get(key, default), convert)

    if kind == "cyclic_hyperbolic":
        return zoo.make_cyclic_hyperbolic(number("multiplier", 2.0))
    if kind == "covered_cyclic":
        base = zoo.make_cyclic_hyperbolic(number("multiplier", 2.0))
        return zoo.make_covered_cyclic(base, number("degree", 3, int))
    if kind == "schottky":
        mats = p.get("matrices")
        if mats is None:
            mats = zoo.default_schottky_matrices(number("multiplier", 3.0))
        else:
            try:
                shape = np.asarray(mats, dtype=float).shape
            except (TypeError, ValueError):
                shape = ()
            if len(shape) != 3 or shape[1:] != (2, 2):
                raise ConfigError(f"{path}.matrices", "must be a list of numeric 2x2 matrices")
        return zoo.make_schottky(mats)
    if kind == "free_boundary":
        return zoo.make_free_boundary(number("rank", 2, int), number("a", 2.0))
    if kind == "zn_projective":
        diagonals = p.get("diagonals", [[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]])
        if not (
            isinstance(diagonals, list)
            and diagonals
            and all(isinstance(d, list) for d in diagonals)
        ):
            raise ConfigError(f"{path}.diagonals", "must be a nonempty list of lists of numbers")
        return zoo.make_zn_projective(
            [[_number(f"{path}.diagonals", x) for x in d] for d in diagonals]
        )
    if kind == "product":
        sub = p.get("component", {"kind": "free_boundary", "params": {}})
        if not isinstance(sub, dict):
            raise ConfigError(f"{path}.component", "must be an object")
        try:
            sub_cfg = ExperimentConfig.from_dict({"system": sub})
        except ConfigError as err:  # name the field inside the component
            raise ConfigError(err.path.replace("system", f"{path}.component", 1), err.message) from None
        comp = build_system(sub_cfg, f"{path}.component.params")
        return zoo.make_product(comp, comp, _boolean(f"{path}.with_swap", p.get("with_swap", False)))
    raise ConfigError("system.kind", f"unknown kind {kind!r}")


def build_perturbation(cfg: ExperimentConfig, system: zoo.ActionSystem):
    p = cfg.perturbation
    family = p.get("family", "matrix_jitter")

    def number(key, default, convert=float):
        return _number(f"perturbation.{key}", p.get(key, default), convert)

    if family == "matrix_jitter":
        return zoo.perturb(
            system,
            zoo.MatrixJitter(
                magnitude=number("magnitude", 0.0),
                seed=_count("perturbation.seed", p.get("seed", cfg.seed), 0),
                diagonal_only=_boolean("perturbation.diagonal_only", p.get("diagonal_only", False)),
            ),
        )
    if family == "bump_compose":
        return zoo.perturb(
            system,
            zoo.BumpCompose(
                center=number("center", 0.7),
                width=number("width", 0.5),
                height=number("height", 0.0),
            ),
        )
    if family == "translation_conjugate":
        return zoo.translation_conjugate(system, number("t", 0.0))
    raise ConfigError("perturbation.family", f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# emitters


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, rows: list, fieldnames: list | None = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    fieldnames = fieldnames or list(rows[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _svg_arc_path(center: float, half_width: float, radius: float, cx: float, cy: float) -> str:
    t0, t1 = center - half_width, center + half_width
    x0, y0 = cx + radius * math.cos(t0), cy - radius * math.sin(t0)
    x1, y1 = cx + radius * math.cos(t1), cy - radius * math.sin(t1)
    large = 1 if 2 * half_width > math.pi else 0
    return f"M {x0:.2f} {y0:.2f} A {radius:.2f} {radius:.2f} 0 {large} 0 {x1:.2f} {y1:.2f}"


def write_circle_svg(
    path: Path,
    arcs: list | None = None,
    points: list | None = None,
    points2: list | None = None,
) -> None:
    """Circle figure: cover arcs as bands, two point families as dots."""
    size, cx, cy, R = 420, 210.0, 210.0, 170.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{R}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for k, (center, half_width, label) in enumerate(arcs or []):
        color = palette[k % len(palette)]
        parts.append(
            f'<path d="{_svg_arc_path(center, half_width, R, cx, cy)}" fill="none" '
            f'stroke="{color}" stroke-width="8" stroke-opacity="0.45"><title>{label}</title></path>'
        )
    for theta in points or []:
        x, y = cx + R * math.cos(theta), cy - R * math.sin(theta)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" fill="#111"/>')
    for theta in points2 or []:
        x, y = cx + R * math.cos(theta), cy - R * math.sin(theta)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="#d62728"/>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def _datum_summary(datum: expansion.ExpansionDatum) -> dict:
    return {
        "delta": datum.delta,
        "lambda": datum.lam,
        "lipschitz": datum.lip,
        "entries": [
            {
                "index": e.index,
                "symbol": str(e.symbol),
                "empty": e.region.is_empty(),
                "kind": type(e.region).__name__,
            }
            for e in datum.entries
        ],
        "net_size": len(datum.net),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_zoo_list(cfg: ExperimentConfig, out: Path) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "zoo-list",
        "kinds": zoo.ZOO_KINDS,
    }
    write_json(out / "report.json", report)
    for kind, doc in sorted(zoo.ZOO_KINDS.items()):
        print(f"{kind:20s} {doc}")
    return 0


def cmd_verify_expansion(cfg: ExperimentConfig, out: Path) -> int:
    system = build_system(cfg)
    datum = expansion.build_expansion_datum(system, cfg.lambda_target, cfg.net_depth)
    report_obj = expansion.verify_expansion(system, datum, tol=cfg.tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-expansion",
        "config": cfg.to_dict(),
        "datum": _datum_summary(datum),
        "checks": report_obj.rows(),
        "passed": report_obj.passed,
    }
    write_json(out / "report.json", report)
    write_csv(out / "checks.csv", report_obj.rows())
    if system.space.angular:
        arcs = [
            (e.region.center, e.region.half_width - e.region.offset, e.index)
            for e in datum.nonempty_entries()
        ]
        write_circle_svg(out / "cover.svg", arcs, [x.value for x in datum.net])
    print(report_obj.summary())
    return 0 if report_obj.passed else 1


def cmd_codes(cfg: ExperimentConfig, out: Path) -> int:
    system = build_system(cfg)
    datum = expansion.build_expansion_datum(system, cfg.lambda_target, cfg.net_depth)
    rows = []
    sample = list(datum.net)[: min(len(datum.net), 8)]
    truncated_any = False
    for x in sample:
        codes, truncated = coding.enumerate_codes(
            datum, system, datum.delta, x, cfg.code_depth, cfg.code_cap
        )
        truncated_any = truncated_any or truncated
        for k, c in enumerate(codes):
            ray = coding.code_ray(datum, c)
            rows.append(
                {
                    "point": repr(x.value),
                    "code": k,
                    "special": c.special,
                    "alphas": " ".join(c.alphas),
                    "ray_tail": str(ray.words[-1]),
                }
            )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "codes",
        "config": cfg.to_dict(),
        "datum": _datum_summary(datum),
        "points": len(sample),
        "codes": len(rows),
        "truncated": truncated_any,
    }
    write_json(out / "report.json", report)
    write_csv(out / "codes.csv", rows)
    if system.space.angular and sample:
        x = sample[0]
        code = coding.make_code(datum, system, datum.delta, x, cfg.code_depth)
        steps = coding.nested_images(system, datum, code, datum.delta)
        arcs = []
        theta = x.value
        for st in steps[: min(6, len(steps))]:
            arcs.append((theta, st.diameter / 2.0, f"step {st.i}"))
        write_circle_svg(out / "nested.svg", arcs, [x.value for x in datum.net])
    for row in rows[:20]:
        print(row)
    return 0


def cmd_certify_shyp(cfg: ExperimentConfig, out: Path) -> int:
    system = build_system(cfg)
    datum = expansion.build_expansion_datum(system, cfg.lambda_target, cfg.net_depth)
    cert = coding.shyp_certificate(
        system,
        datum,
        depth=cfg.code_depth,
        cap=cfg.code_cap,
        n_max=cfg.n_max,
        max_chain=cfg.max_chain,
    )
    ok = cert.fellow_ok or cert.chain_ok
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "certify-shyp",
        "config": cfg.to_dict(),
        "datum": _datum_summary(datum),
        "certificate": {
            "fellow_constant": cert.fellow_constant,
            "chain_constant": cert.chain_constant,
            "chain_steps": cert.chain_steps,
            "n_max": cert.n_max,
            "truncated": cert.truncated,
            "points_checked": cert.points_checked,
            "rays_per_point": list(cert.rays_per_point),
            "worst_pair": repr(cert.worst_pair),
        },
        "passed": ok,
        "note": "desk-scale certificate over a sampled net; not a proof",
    }
    write_json(out / "report.json", report)
    print(
        f"fellow-travel constant: {cert.fellow_constant}  "
        f"chain constant: {cert.chain_constant}  (n_max {cert.n_max})"
    )
    return 0 if ok else 1


def cmd_coding_map(cfg: ExperimentConfig, out: Path) -> int:
    system = build_system(cfg)
    datum = expansion.build_expansion_datum(system, cfg.lambda_target, cfg.net_depth)
    rows, prefixes = [], {}
    for x in datum.net:
        bw = coding.coding_map(system, datum, x, cfg.prefix_depth)
        key = str(bw.prefix)
        prefixes.setdefault(key, []).append(x)
        rows.append({"point": repr(x.value), "prefix": key, "stabilized": bw.stabilized})
    fibers = {k: len(v) for k, v in prefixes.items()}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "coding-map",
        "config": cfg.to_dict(),
        "datum": _datum_summary(datum),
        "points": len(datum.net),
        "distinct_prefixes": len(prefixes),
        "max_fiber": max(fibers.values()) if fibers else 0,
    }
    write_json(out / "report.json", report)
    write_csv(out / "coding_map.csv", rows)
    print(f"{len(datum.net)} points -> {len(prefixes)} prefixes")
    return 0


def cmd_stability(cfg: ExperimentConfig, out: Path) -> int:
    system = build_system(cfg)
    maps = build_perturbation(cfg, system)  # a bad field fails before the datum is built
    datum = expansion.build_expansion_datum(system, cfg.lambda_target, cfg.net_depth)
    cert = coding.shyp_certificate(
        system, datum, depth=min(cfg.code_depth, 12), cap=cfg.code_cap, n_max=cfg.n_max
    )
    n_const = cert.fellow_constant if cert.fellow_constant else cert.chain_constant
    n_const = max(1, n_const or 1)
    ps = stability.make_perturbed(system, datum, maps, n_const)
    try:
        ps.require_admissible()
    except stability.AdmissibilityError as err:
        write_json(
            out / "report.json",
            {
                "schema_version": SCHEMA_VERSION,
                "command": "stability",
                "config": cfg.to_dict(),
                "passed": False,
                "error": str(err),
            },
        )
        print(f"inadmissible perturbation: {err}", file=sys.stderr)
        return 1
    table = stability.conjugacy_map(ps, tol=cfg.tol)
    disp = stability.check_displacement(table, ps)
    inj = stability.check_injectivity(table, ps)
    residual = max(table.residuals.values()) if table.residuals else 0.0
    datum_p = stability.perturbed_datum(datum, ps, datum.delta / 5.0, table)
    verify_p = expansion.verify_expansion(ps.view(), datum_p, tol=cfg.tol)
    passed = (
        not table.failures
        and disp.below_eps
        and disp.below_delta_fifth
        and inj.ok
        and residual < 1e-6
        and verify_p.passed
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "stability",
        "config": cfg.to_dict(),
        "datum": _datum_summary(datum),
        "n_const": n_const,
        "epsilon": ps.epsilon,
        "realized": dict(sorted(ps.realized.items())),
        "displacement": {
            "max": disp.max_displacement,
            "below_eps": disp.below_eps,
            "below_delta_fifth": disp.below_delta_fifth,
        },
        "equivariance_residual": residual,
        "injective": inj.ok,
        "failures": len(table.failures),
        "perturbed_datum": _datum_summary(datum_p),
        "perturbed_verify": verify_p.rows(),
        "passed": passed,
    }
    write_json(out / "report.json", report)
    write_csv(out / "conjugacy.csv", table.rows())
    if system.space.angular:
        write_circle_svg(
            out / "lambda_vs_image.svg",
            [],
            [e.x.value for e in table.entries],
            [e.phi.value for e in table.entries],
        )
    print(
        f"displacement {disp.max_displacement:.3e} (eps {ps.epsilon:.3e}) "
        f"residual {residual:.3e} injective {inj.ok}"
    )
    return 0 if passed else 1


COMMANDS = {
    "zoo-list": cmd_zoo_list,
    "verify-expansion": cmd_verify_expansion,
    "codes": cmd_codes,
    "certify-shyp": cmd_certify_shyp,
    "coding-map": cmd_coding_map,
    "stability": cmd_stability,
}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="expaction",
        description="Symbolic coding and structural stability for expanding group actions.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--depth", type=int, default=None, help="code depth override")
    parser.add_argument("--cap", type=int, default=None, help="code cap override")
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as err:
            print(f"config parse error at line {err.lineno}: {err.msg}", file=sys.stderr)
            return 2
    # the flags override their config fields and pass the same checks
    flags = (("net", "seed", args.seed), ("codes", "depth", args.depth),
             ("codes", "cap", args.cap), ("tolerances", "tol", args.tol))
    for section, key, value in flags:
        if value is not None and isinstance(raw, dict) and isinstance(raw.get(section, {}), dict):
            raw[section] = {**raw.get(section, {}), key: value}
    try:
        cfg = ExperimentConfig.from_dict(raw)
        out = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        return COMMANDS[args.command](cfg, out)
    except (ConfigError, expansion.UncoverableError, zoo.ConstructionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
