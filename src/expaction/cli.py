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
from pathlib import Path
from typing import NamedTuple

from . import coding, expansion, stability, zoo

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Config validation failure, naming the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path, self.message = path, message


class Field(NamedTuple):
    """A config field: type, default, least value, override flag and most
    value.

    The type is a key of TYPES, a tuple of the allowed values, or the reader
    of a nested object.  A value must exceed a float least value and may
    reach an int one; it may reach its most value.  A field whose default is
    null also takes null; a callable default is computed from the config
    read so far."""

    type: object
    default: object = None
    low: float | None = None
    flag: str | None = None
    high: float | None = None


def _numeric(value, *lengths) -> bool:
    """A finite number, or a nested list of them whose levels are nonempty and
    of the given lengths (0: any)."""
    if not lengths:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is list and len(value) > 0 and lengths[0] in (0, len(value)) and all(
        _numeric(v, *lengths[1:]) for v in value
    )


TYPES = {  # type -> (test of a JSON value, what the value must be); float is any number
    float: (_numeric, "a finite number"),
    int: (lambda v: type(v) is int, "an integer"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: type(v) is str, "a string"),
    dict: (lambda v: type(v) is dict, "an object"),
    "matrices": (lambda v: _numeric(v, 0, 2, 2), "a nonempty list of numeric 2x2 matrices"),
    "diagonals": (
        lambda v: type(v) is list and _numeric(v, 0, len(v) + 1),
        "a nonempty list of n lists of n + 1 numbers",
    ),
}


def _check(field: Field, value, path: str, root: dict):
    """The value of one given field, or ConfigError naming its path."""
    if value is None and field.default is None:
        return None
    if isinstance(field.type, tuple):
        if type(value) is not type(field.default) or value not in field.type:
            raise ConfigError(path, f"must be one of {list(field.type)}, not {value!r}")
        return value
    if field.type not in TYPES:
        return field.type(value, path, root)
    test, what = TYPES[field.type]
    if not test(value):
        raise ConfigError(path, f"must be {what}, not {value!r}")
    exceed = type(field.low) is float
    if field.low is not None and (value <= field.low if exceed else value < field.low):
        raise ConfigError(path, f"must be {'>' if exceed else '>='} {field.low}")
    if field.high is not None and value > field.high:
        raise ConfigError(path, f"must be <= {field.high}")
    return float(value) if field.type is float else value


def _read(table: dict, raw, path: str, root: dict | None = None) -> dict:
    """Check an object against its table: its values, with defaults filled in.
    A dict in the table is a section; callable defaults read `root`."""
    if type(raw) is not dict:
        raise ConfigError(path or "(top level)", "must be an object")
    for key in raw:
        if key not in table:
            known = ", ".join(table)
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown key, not one of {known}")
    out = {}
    root = out if root is None else root
    for key, field in table.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(field, dict):
            out[key] = _read(field, raw.get(key, {}), sub, root)
        elif key in raw:
            out[key] = _check(field, raw[key], sub, root)
        else:
            out[key] = field.default(root) if callable(field.default) else field.default
    return out


def _system(raw, path: str, root: dict) -> dict:
    """A system: its kind and that kind's params, echoed as given."""
    system = _read(SYSTEM, raw, path, root)
    _read(SYSTEMS[system["kind"]][1], system["params"], f"{path}.params", root)
    return system


def _perturbation(raw, path: str, root: dict) -> dict:
    """A perturbation: its family and that family's params, echoed as given."""
    if type(raw) is not dict:
        raise ConfigError(path, "must be an object")
    family = _check(FAMILY, raw.get("family", FAMILY.default), f"{path}.family", root)
    _read({"family": FAMILY, **PERTURBATIONS[family][1]}, raw, path, root)
    return raw


def _constructed(field: str, make, *args) -> zoo.ActionSystem:
    """make(*args), whose construction errors name the param `field`: the
    checks a constructor makes of its input are not plain least values."""
    try:
        return make(*args)
    except zoo.ConstructionError as err:
        raise ConfigError(f"system.params.{field}", str(err)) from None


def _schottky(multiplier: float, matrices) -> zoo.ActionSystem:
    """The group of the given matrices, or else of the multiplier's default pair."""
    if matrices is not None:
        return _constructed("matrices", zoo.make_schottky, matrices)
    return _constructed("multiplier", lambda: zoo.make_schottky(zoo.default_schottky_matrices(multiplier)))


def _product(component: dict, with_swap: bool) -> zoo.ActionSystem:
    try:
        system = build_system(component)
    except ConfigError as err:  # name the field inside the component
        path = err.path.replace("system", "system.params.component", 1)
        raise ConfigError(path, err.message) from None
    return zoo.make_product(system, system, with_swap)


# The constructors look zoo functions up at each call, so that a wrapper
# installed on the module (a tracer, a mock) sees the call.
SYSTEMS = {  # kind -> (constructor taking the params in order, params)
    "cyclic_hyperbolic": (
        lambda *p: _constructed("multiplier", zoo.make_cyclic_hyperbolic, *p),
        {"multiplier": Field(float, 2.0, 1.0)},
    ),
    "covered_cyclic": (
        lambda *p: _constructed("multiplier", zoo.make_covered_cyclic, *p),
        {"multiplier": Field(float, 2.0, 1.0), "degree": Field(int, 3, 2)},
    ),
    "schottky": (_schottky, {"multiplier": Field(float, 3.0), "matrices": Field("matrices")}),
    "free_boundary": (
        lambda *p: zoo.make_free_boundary(*p),
        {"rank": Field(int, 2, 2), "a": Field(float, 2.0, 1.0, high=2.0)},
    ),
    "zn_projective": (
        lambda *p: _constructed("diagonals", zoo.make_zn_projective, *p),
        {"diagonals": Field("diagonals", [[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]])},
    ),
    "product": (_product, {
        "component": Field(_system, {"kind": "free_boundary", "params": {}}),
        "with_swap": Field(bool, False),
    }),
}
SYSTEM = {"kind": Field(tuple(SYSTEMS), "schottky"), "params": Field(dict, {})}

# family -> (maker of a system's perturbed maps, params, the param that
# names maps the maker cannot construct: the size of the perturbation)
PERTURBATIONS = {
    "matrix_jitter": (lambda system, *p: zoo.perturb(system, zoo.MatrixJitter(*p)), {
        # uniform(-magnitude, magnitude) needs a finite range >= 0, as numpy's does
        "magnitude": Field(float, 0.0, 0, high=sys.float_info.max / 2),
        "seed": Field(int, lambda cfg: cfg["net"]["seed"], 0),
        "diagonal_only": Field(bool, False),
    }, "magnitude"),
    "bump_compose": (
        lambda system, *p: zoo.perturb(system, zoo.BumpCompose(*p)),
        {"center": Field(float, 0.7), "width": Field(float, 0.5, 0.0), "height": Field(float, 0.0)},
        "height",
    ),
    "translation_conjugate": (lambda *p: zoo.translation_conjugate(*p), {"t": Field(float, 0.0)}, "t"),
}
FAMILY = Field(tuple(PERTURBATIONS), "matrix_jitter")

CONFIG = {
    "schema_version": Field((SCHEMA_VERSION,), SCHEMA_VERSION),
    "seed": Field(int, 7, 0),  # alias of net.seed
    "tol": Field(float, 1e-9, 0.0),  # alias of tolerances.tol
    "system": Field(_system, {"kind": "schottky", "params": {}}),
    "lambda_target": Field(float, 1.4, 1.0),
    "net": {"depth": Field(int, None, 1), "seed": Field(int, lambda cfg: cfg["seed"], 0, "--seed")},
    "codes": {"depth": Field(int, 20, 1, "--depth"), "cap": Field(int, 200, 1, "--cap")},
    "n_max": Field(int, 8, 0),
    "max_chain": Field(int, 3, 1),
    "prefix_depth": Field(int, 20, 1),
    "tolerances": {"tol": Field(float, lambda cfg: cfg["tol"], 0.0, "--tol")},
    "perturbation": Field(_perturbation, {}),
    "out_dir": Field(str, "out"),
}
FLAGS = [  # (section, key, field) of each field with an override flag
    (section, key, field) for section, fields in CONFIG.items() if isinstance(fields, dict)
    for key, field in fields.items() if field.flag
]


def read_config(raw) -> dict:
    """The checked config with defaults filled in, as reports echo it: the
    aliases `seed` and `tol` as `net.seed` and `tolerances.tol`."""
    cfg = _read(CONFIG, raw, "")
    del cfg["seed"], cfg["tol"]
    return cfg


def build_system(system: dict) -> zoo.ActionSystem:
    """The action of a checked `system` object."""
    make, params = SYSTEMS[system["kind"]]
    return make(*_read(params, system["params"], "system.params").values())


def build_perturbation(cfg: dict, system: zoo.ActionSystem):
    """The system's perturbed maps under the checked config's perturbation;
    a family that the system's kind does not take names that kind, and maps
    that cannot be constructed name the perturbation's size."""
    given = cfg["perturbation"]
    make, params, size = PERTURBATIONS[given.get("family", FAMILY.default)]
    values = _read({"family": FAMILY, **params}, given, "perturbation", cfg)
    del values["family"]
    try:
        return make(system, *values.values())
    except zoo.KindError as err:
        raise ConfigError("system.kind", str(err)) from None
    except zoo.ConstructionError as err:
        raise ConfigError(f"perturbation.{size}", str(err)) from None


# ---------------------------------------------------------------------------
# emitters


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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


def cmd_zoo_list(cfg: dict, out: Path) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "zoo-list",
        "kinds": zoo.ZOO_KINDS,
    }
    write_json(out / "report.json", report)
    for kind, doc in sorted(zoo.ZOO_KINDS.items()):
        print(f"{kind:20s} {doc}")
    return 0


def cmd_verify_expansion(cfg: dict, out: Path) -> int:
    system = build_system(cfg["system"])
    datum = expansion.build_expansion_datum(system, cfg["lambda_target"], cfg["net"]["depth"])
    report_obj = expansion.verify_expansion(expansion.ActionView(system), datum, tol=cfg["tolerances"]["tol"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-expansion",
        "config": cfg,
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


def _codes_depth(cfg: dict, system: zoo.ActionSystem) -> int:
    """`codes.depth`, refused past the deepest code the space's points carry."""
    deepest = Field(int, None, 1, high=system.space.max_code_depth)
    return _check(deepest, cfg["codes"]["depth"], "codes.depth", cfg)


def cmd_codes(cfg: dict, out: Path) -> int:
    system = build_system(cfg["system"])
    depth = _codes_depth(cfg, system)
    datum = expansion.build_expansion_datum(system, cfg["lambda_target"], cfg["net"]["depth"])
    rows = []
    sample = list(datum.net)[: min(len(datum.net), 8)]
    truncated_any = False
    for x in sample:
        codes, truncated = coding.enumerate_codes(datum, system, datum.delta, x, depth, cfg["codes"]["cap"])
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
        "config": cfg,
        "datum": _datum_summary(datum),
        "points": len(sample),
        "codes": len(rows),
        "truncated": truncated_any,
    }
    write_json(out / "report.json", report)
    write_csv(out / "codes.csv", rows)
    if system.space.angular and sample:
        x = sample[0]
        code = coding.make_code(datum, system, datum.delta, x, depth)
        diameters = coding.nested_images(system, datum, code, datum.delta)
        arcs = [(x.value, diam / 2.0, f"step {i}") for i, diam in enumerate(diameters[:6])]
        write_circle_svg(out / "nested.svg", arcs, [x.value for x in datum.net])
    for row in rows[:20]:
        print(row)
    return 0


def cmd_certify_shyp(cfg: dict, out: Path) -> int:
    system = build_system(cfg["system"])
    depth = _codes_depth(cfg, system)
    datum = expansion.build_expansion_datum(system, cfg["lambda_target"], cfg["net"]["depth"])
    cert = coding.shyp_certificate(
        system,
        datum,
        depth=depth,
        cap=cfg["codes"]["cap"],
        n_max=cfg["n_max"],
        max_chain=cfg["max_chain"],
    )
    ok = cert.fellow_ok or cert.chain_ok
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "certify-shyp",
        "config": cfg,
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


def cmd_coding_map(cfg: dict, out: Path) -> int:
    system = build_system(cfg["system"])
    coding.require_boundary(system)  # before any datum is built
    datum = expansion.build_expansion_datum(system, cfg["lambda_target"], cfg["net"]["depth"])
    try:
        boundary = coding.coding_map(system, datum, datum.net, cfg["prefix_depth"])
    except coding.CodingError as err:  # its codes run prefix_depth + 8 steps deep
        raise ConfigError("prefix_depth", f"codes {cfg['prefix_depth'] + 8} steps deep fail: {err}") from None
    rows, prefixes = [], {}
    for x, bw in zip(datum.net, boundary):
        key = str(bw.prefix)
        prefixes.setdefault(key, []).append(x)
        rows.append({"point": repr(x.value), "prefix": key, "stabilized": bw.stabilized})
    fibers = {k: len(v) for k, v in prefixes.items()}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "coding-map",
        "config": cfg,
        "datum": _datum_summary(datum),
        "points": len(datum.net),
        "distinct_prefixes": len(prefixes),
        "max_fiber": max(fibers.values()) if fibers else 0,
    }
    write_json(out / "report.json", report)
    write_csv(out / "coding_map.csv", rows)
    print(f"{len(datum.net)} points -> {len(prefixes)} prefixes")
    return 0


def cmd_stability(cfg: dict, out: Path) -> int:
    system = build_system(cfg["system"])
    # refuses a space that takes no perturbation before any datum is built
    view = expansion.ActionView(system, build_perturbation(cfg, system))
    datum = expansion.build_expansion_datum(system, cfg["lambda_target"], cfg["net"]["depth"])
    cert = coding.shyp_certificate(system, datum, depth=min(cfg["codes"]["depth"], 12),
                                   cap=cfg["codes"]["cap"], n_max=cfg["n_max"])
    n_const = cert.fellow_constant if cert.fellow_constant else cert.chain_constant
    n_const = max(1, n_const or 1)
    ps = stability.make_perturbed(view, datum, n_const)
    try:
        ps.require_admissible()
    except stability.AdmissibilityError as err:
        write_json(
            out / "report.json",
            {
                "schema_version": SCHEMA_VERSION,
                "command": "stability",
                "config": cfg,
                "passed": False,
                "error": str(err),
            },
        )
        print(f"inadmissible perturbation: {err}", file=sys.stderr)
        return 1
    table = stability.conjugacy_map(ps, tol=cfg["tolerances"]["tol"])
    disp = stability.check_displacement(table, ps)
    injective = stability.check_injectivity(table, ps)
    residual = max(table.residuals.values()) if table.residuals else 0.0
    datum_p = stability.perturbed_datum(datum, ps, datum.delta / 5.0, table)
    verify_p = expansion.verify_expansion(ps.view, datum_p, tol=cfg["tolerances"]["tol"])
    passed = (
        not table.failures
        and disp.below_eps
        and disp.below_delta_fifth
        and injective
        and residual < stability.EQUIVARIANCE_TOL
        and verify_p.passed
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "stability",
        "config": cfg,
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
        "injective": injective,
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
        f"residual {residual:.3e} injective {injective}"
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
    for section, key, field in FLAGS:
        parser.add_argument(field.flag, type=field.type, help=f"overrides {section}.{key}")
    args = parser.parse_args(argv)

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            print(f"config parse error at line {err.lineno}: {err.msg}", file=sys.stderr)
            return 2
        except (OSError, UnicodeDecodeError) as err:
            why = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
            print(f"error: cannot read config {args.config}: {why}", file=sys.stderr)
            return 2
    for section, key, field in FLAGS:  # a flag overrides its field and passes its checks
        value = getattr(args, field.flag[2:])
        if value is not None and type(raw) is dict and type(raw.setdefault(section, {})) is dict:
            raw[section][key] = value
    try:
        cfg = read_config(raw)
        out = Path(args.out) if args.out is not None else Path(cfg["out_dir"])
        return COMMANDS[args.command](cfg, out)
    except (ConfigError, expansion.UncoverableError, zoo.ConstructionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
