"""Per-layer call counts and self time for expaction, recorded from outside.

`Tracer()` wraps the traced functions of the imported package wherever they
are looked up: on their own module, on every module that bound the same
object by `from ... import`, and for methods on the class and each subclass
that overrides them.  A traced name that no longer exists raises at install
time instead of reading zero.  Spans are aggregated as they close (calls,
self time, exceptions raised) rather than kept, because a single job makes
millions of calls.  A span's self time is its duration minus the time its
traced children cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module of expaction, attribute); "Class.method" wraps the
# method on that class and on each subclass that overrides it.
TRACED = (
    ("groups.word_metric", "groups", "word_metric"),
    ("groups.multiply", "groups", "multiply"),
    ("groups.inverse", "groups", "inverse"),
    ("groups.word_length", "groups", "word_length"),
    ("zoo.limit_net", "zoo", "ActionSystem.limit_net"),
    ("zoo.fixed_angles", "zoo", "MoebiusMap.fixed_angles"),
    ("zoo.apply", "zoo", "ActionSystem.apply"),
    ("zoo.make_cyclic_hyperbolic", "zoo", "make_cyclic_hyperbolic"),
    ("zoo.make_schottky", "zoo", "make_schottky"),
    ("zoo.make_free_boundary", "zoo", "make_free_boundary"),
    ("zoo.make_zn_projective", "zoo", "make_zn_projective"),
    ("zoo.make_product", "zoo", "make_product"),
    ("geometry.lebesgue_number", "geometry", "lebesgue_number"),
    ("geometry.raw_distance", "geometry", "Space.raw_distance"),
    ("expansion.build_expansion_datum", "expansion", "build_expansion_datum"),
    ("expansion.verify_expansion", "expansion", "verify_expansion"),
    ("expansion.apply_word", "expansion", "ActionView.apply_word"),
    ("coding.enumerate_codes", "coding", "enumerate_codes"),
    ("coding.code_ray", "coding", "code_ray"),
    ("coding.fellow_travel_distance", "coding", "fellow_travel_distance"),
    ("coding.n_equivalence", "coding", "n_equivalence"),
    ("coding.shyp_certificate", "coding", "shyp_certificate"),
    ("coding.coding_map", "coding", "coding_map"),
    ("stability.conjugacy_point", "stability", "conjugacy_point"),
    ("stability.lipschitz_distance", "stability", "lipschitz_distance"),
    ("stability.perturbed_datum", "stability", "perturbed_datum"),
    ("cli.emit", "cli", "write_json"),
    ("cli.emit", "cli", "write_csv"),
    ("cli.emit", "cli", "write_circle_svg"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


def _codes(out, counts):
    codes, truncated = out
    counts["coding.codes_enumerated"] += len(codes)
    counts["coding.truncated_calls"] += bool(truncated)


def _fellow(out, counts):
    counts["coding.fellow_unknown_returns"] += out is None


def _chain(out, counts):
    counts["coding.n_equivalence_found"] += bool(out[0])


def _conjugacy(out, counts):
    counts["stability.conjugacy_iterations"] += out[1].iterations


def _verify(out, counts):
    counts["expansion.verify_samples"] += sum(c.samples for c in out.checks)


# counters read off return values: PointDiagnostics, CheckResult.samples, ...
RESULT_COUNTERS = {
    "coding.enumerate_codes": _codes,
    "coding.fellow_travel_distance": _fellow,
    "coding.n_equivalence": _chain,
    "stability.conjugacy_point": _conjugacy,
    "expansion.verify_expansion": _verify,
}
EXTRA_COUNTS = (
    "coding.codes_enumerated",
    "coding.truncated_calls",
    "coding.fellow_unknown_returns",
    "coding.n_equivalence_found",
    "stability.conjugacy_iterations",
    "expansion.verify_samples",
)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Installs the wrappers on construction; `close()` restores the originals."""

    def __init__(self):
        self._stack = []
        self._stats = {name: [0, 0.0, 0] for name in SPAN_NAMES}  # calls, self_s, raised
        self._counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self._restore = []
        try:
            for name, module, attr in TRACED:
                owner = importlib.import_module(f"expaction.{module}")
                if "." in attr:
                    self._wrap_method(name, owner, *attr.split("."))
                else:
                    self._wrap_function(name, owner, attr)
        except BaseException:
            self.close()
            raise

    def _wrap_function(self, name, module, attr) -> None:
        original = getattr(module, attr)
        traced = self._wrap(name, original)
        package = [m for key, m in sys.modules.items() if key.split(".")[0] == "expaction"]
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def _wrap_method(self, name, module, cls_name, method) -> None:
        classes = [c for c in _subclasses(getattr(module, cls_name)) if method in vars(c)]
        if not classes:
            raise AttributeError(f"{cls_name}.{method} is not defined")
        for cls in classes:
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        stat, stack, clock = self._stats[name], self._stack, time.perf_counter
        on_result, counts = RESULT_COUNTERS.get(name), self._counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(out, counts)
            return out

        return traced

    def close(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def counters(self) -> dict:
        """Raw additive counters; sum them over jobs, then call layer_metrics."""
        out = dict(self._counts)
        for name, (calls, self_s, raised) in self._stats.items():
            out.update({f"{name}.calls": calls, f"{name}.self_s": self_s, f"{name}.raised": raised})
        return out


def zero_counters() -> dict:
    """The counters of a run in which nothing was traced."""
    out = dict.fromkeys(EXTRA_COUNTS, 0)
    for name in SPAN_NAMES:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.raised": 0})
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric, unit, better) for every per-layer metric the traced run reports
LAYER_METRICS = tuple(
    [m for name in SPAN_NAMES for m in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))]
    + [
        ("expansion.verify_samples", "count", "higher"),
        ("coding.codes_enumerated", "count", "higher"),
        ("coding.truncated_calls", "count", "lower"),
        ("coding.fellow_unknown", "ratio", "lower"),
        ("coding.n_equivalence.found_ratio", "ratio", "higher"),
        ("stability.conjugacy_iterations", "count", "lower"),
        ("stability.conjugacy_failed", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def layer_metrics(raw: dict, overhead_frac: float) -> dict:
    """Per-layer metrics, as {name: value}, from counters summed over jobs."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = raw[f"{name}.calls"]
        out[f"{name}.self_s"] = raw[f"{name}.self_s"]
    out["expansion.verify_samples"] = raw["expansion.verify_samples"]
    out["coding.codes_enumerated"] = raw["coding.codes_enumerated"]
    out["coding.truncated_calls"] = raw["coding.truncated_calls"]
    out["coding.fellow_unknown"] = _ratio(
        raw["coding.fellow_unknown_returns"], raw["coding.fellow_travel_distance.calls"]
    )
    out["coding.n_equivalence.found_ratio"] = _ratio(
        raw["coding.n_equivalence_found"], raw["coding.n_equivalence.calls"]
    )
    out["stability.conjugacy_iterations"] = raw["stability.conjugacy_iterations"]
    out["stability.conjugacy_failed"] = raw["stability.conjugacy_point.raised"]
    out["trace.overhead_frac"] = overhead_frac
    return out
