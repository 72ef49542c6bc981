"""Expansion data: finite covers with margins, Lebesgue bounds, Lipschitz and
expansion constants, and their verification.

A datum records, for every generator label s, a (possibly empty) region on
which the inverse rho(s^-1) expands distances by at least lam, together with
a Lebesgue bound delta for eta-balls and a Lipschitz constant lip valid on
the delta-neighborhood of the limit set.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from . import groups, zoo
from .geometry import (
    TAU,
    ArcRegion,
    BallRegion,
    Circle,
    ComponentRegion,
    CylinderRegion,
    DisjointUnion,
    EmptyRegion,
    FreeBoundary,
    Point,
    ProjectiveSpace,
    Region,
    Value,
    lebesgue_number,
    lebesgue_values,
    margin_matrix,
    margin_values,
)
from .groups import Word
from .zoo import ActionSystem

GRID_SIZE = 20000  # angles of the expansion-factor grid of `_build_circle`
SAFETY = 0.9
LIP_SAFETY = 1.01
PAIR_COUNT = 400  # point pairs `verify_expansion` samples (half as many per expansion entry)


class UncoverableError(ValueError):
    """A point that no cover member takes, and why: no generator expands
    there at the requested rate, and `best_factor` is the best expansion
    factor there; or another test of the cover failed there (its Lebesgue
    number, or the smallest ball tried), and `best_factor` is None."""

    def __init__(self, witness: Point, reason: str, best_factor: float | None = None):
        self.witness, self.best_factor = witness, best_factor
        super().__init__(f"no cover member for {witness}: {reason}")


class CoverEntry(Value):
    """A cover member: its index, its label and its region."""

    _fields = ("index", "symbol", "region")

    def __init__(self, index: str, symbol: Word, region: Region):
        self.index = index
        self.symbol = symbol  # label s_alpha; rho(symbol^-1) expands on the region
        self.region = region

    @cached_property
    def backward(self) -> tuple:
        """(symbol^-1, its letter if it is one letter, else None): a code step's word."""
        inv = groups.inverse(self.symbol)
        letters = groups.letters_of(inv)
        return inv, letters[0] if len(letters) == 1 else None


class ExpansionDatum(Value):
    """A cover with its Lebesgue bound delta, expansion rate lam > 1 and
    Lipschitz constant lip >= lam on the delta-neighborhood of the limit-set
    sample `net` it was certified on."""

    __slots__ = _fields = ("entries", "delta", "lam", "lip", "net")

    def __init__(self, entries: tuple, delta: float, lam: float, lip: float, net: tuple):
        if not lam > 1.0:
            raise ValueError("expansion rate must exceed 1")
        if lip < lam:
            raise ValueError("Lipschitz constant must dominate the expansion rate")
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        self.entries, self.delta, self.lam, self.lip, self.net = entries, delta, lam, lip, net

    def nonempty_entries(self) -> list:
        return [e for e in self.entries if not e.region.is_empty()]

    def symbols(self) -> list:
        out = []
        for e in self.entries:
            if e.symbol not in out:
                out.append(e.symbol)
        return out


# ---------------------------------------------------------------------------
# action views (base or perturbed maps behind one call surface)


class ActionView:
    """An action evaluated with given letter maps on its system's space: the
    system's own maps, or perturbed ones, which enter only here.  A space
    that takes no perturbation refuses perturbed maps."""

    def __init__(self, system: ActionSystem, maps: Mapping | None = None):
        if maps is not None and not system.space.perturbable:
            raise TypeError(f"perturbations unsupported on {system.space.kind}")
        self.system, self.space = system, system.space
        self.maps = system.letter_maps if maps is None else maps

    def apply_word(self, g: Word, x: Point) -> Point:
        if g.alphabet != self.system.alphabet:
            raise groups.AlphabetMismatchError("word over a different alphabet")
        return zoo.apply_letters(self.space, self.maps, groups.letters_of(g), x)


# ---------------------------------------------------------------------------
# datum construction


def build_expansion_datum(
    system: ActionSystem, lam_target: float, net_depth: int | None = None
) -> ExpansionDatum:
    """Cover construction at the requested expansion rate, by the builder of
    the system's space class in `COVER_BUILDERS`.

    Circle systems take connected sublevel components of the expansion-factor
    field on a uniform grid; free-group boundaries use the exact depth-1
    cylinders; projective systems grow metric balls around the fixed points by
    bisection; products lift the component data.
    """
    if not lam_target > 1.0:
        raise ValueError("lam_target must exceed 1")
    for cls in type(system.space).__mro__:
        if cls in COVER_BUILDERS:
            return COVER_BUILDERS[cls](system, lam_target, net_depth)
    raise ValueError(f"no cover builder for {system.space.kind}")


def _fail_uncoverable(system, net, lam_target, witness, reason):
    # a test of the cover failed at the witness, unless a net point expands too little
    space = system.space
    values = space.values(net)
    best = np.maximum.reduce([space.stretches(m, values)[0] for m in system.letter_maps.values()])
    at = int(np.argmin(best))
    factor = float(best[at])
    if factor < lam_target:
        raise UncoverableError(
            net[at], f"best expansion factor {factor:.6g} < target {lam_target:.6g}", factor
        )
    raise UncoverableError(witness, reason)


def _circular_runs(mask: np.ndarray) -> list:
    """Maximal runs of True in circular order, as (start, length) pairs."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    # rotated to start at a False, every run lies between a rise and a fall
    off = int(np.argmin(mask))
    edges = np.diff(np.concatenate([[0], np.roll(mask, -off).astype(int), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [((a + off) % n, b - a) for a, b in zip(starts.tolist(), ends.tolist())]


def _certified_datum(system, entries, lam_target, net, leb, witness):
    """The datum of a cover: delta is SAFETY times its Lebesgue number leb
    over a probe net (worst at the witness), lip the largest stretch of a
    generator map at the points of the delta-neighborhood of the net."""
    if leb <= 0:
        _fail_uncoverable(system, net, lam_target, witness, f"Lebesgue number {leb:.6g} <= 0 over the probe net")
    space = system.space
    delta = float(SAFETY * leb)
    values = space.values(space.neighborhood(net, delta))
    lip_raw = max(float(space.stretches(m, values)[1].max()) for m in system.letter_maps.values())
    lip = float(LIP_SAFETY * max(lip_raw, lam_target))
    return ExpansionDatum(tuple(entries), delta, lam_target, lip, tuple(net))


def _build_circle(system, lam_target, net_depth):
    space = system.space
    net = system.limit_net(net_depth)
    angles = space.values(net)
    step = TAU / GRID_SIZE
    thetas = np.arange(GRID_SIZE) * step
    entries = []
    pos = 0
    for i in range(system.alphabet.rank):
        for s in (1, -1):
            label = system.alphabet.generator(i, s)
            expanding = system.letter_maps[(i, -s)]  # rho(label^-1)
            mask = space.stretches(expanding, thetas)[0] > lam_target
            arcs = []
            for start, length in _circular_runs(mask):
                half = float((length - 1) * step / 2.0 - step)
                if half <= 0:
                    continue
                center = float((thetas[start] + (length - 1) * step / 2.0) % TAU)
                arcs.append(ArcRegion(label=str(label), space=space, center=center, half_width=half))
            # an arc is kept when some net point lies inside it
            hit = (margin_values(arcs, angles) > 0).any(axis=0).tolist()
            kept = [arc for arc, keep in zip(arcs, hit) if keep]
            for region in kept or [EmptyRegion(label=str(label), space=space)]:
                entries.append(CoverEntry(f"{pos:02d}:{label}", label, region))
                pos += 1
    # probe a deeper net than the working one: the working net under-samples
    # fractal limit sets whose extreme points pin the true Lebesgue number;
    # its angles go to the margin matrices without becoming points
    probe = system.limit_values(min(system.default_depth + 5, 10)) if len(net) > 2 else angles
    values = np.concatenate([angles, probe])
    leb, at = lebesgue_values([e.region for e in entries], values)
    witness = space.point(values[at]) if leb <= 0 else None
    return _certified_datum(system, entries, lam_target, net, leb, witness)


def _build_cylinders(system, lam_target, net_depth):
    space = system.space
    net = system.limit_net(net_depth)
    a = space.a
    if lam_target > a:
        _fail_uncoverable(system, net, lam_target, net[0], f"cylinders expand by a = {a:.6g} only")
    entries = []
    chars = space.letters + space.letters.upper()
    for pos, ch in enumerate(chars):
        idx = space.letters.index(ch.lower())
        sign = 1 if ch.islower() else -1
        label = system.alphabet.generator(idx, sign)
        region = CylinderRegion(label=str(label), space=space, prefix=ch)
        entries.append(CoverEntry(f"{pos:02d}:{label}", label, region))
    regions = [e.region for e in entries]
    leb, _ = lebesgue_number(regions, net)
    # distances are quantized by powers of a, so ball images match ball
    # targets only one scale down: the usable delta gains a factor 1/lam
    delta = SAFETY * leb / a
    return ExpansionDatum(tuple(entries), delta, a, a, tuple(net))


def _build_projective(system, lam_target, net_depth):
    space = system.space
    net = system.limit_net(net_depth)
    n = system.alphabet.rank
    e = [space.point(tuple(1.0 if i == k else 0.0 for i in range(n + 1))) for k in range(n + 1)]
    min_sep = min(
        space.raw_distance(e[i].value, e[j].value)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    )
    r_cap = 0.45 * min_sep

    def ball_for(expanding_letter, center: Point, label: Word, pos: int):
        m = system.letter_maps[expanding_letter]
        v = np.asarray(center.value)
        directions = space.ring_directions(v, 24)

        def least(r: float) -> float:
            # the least stretch at the center and on its rings of radius r and r/2
            rows = [space.ring_rows(v, directions, s) for s in (r, r / 2)]
            return float(space.stretches(m, np.vstack([*rows, v]))[0].min())

        lo, hi = r_cap * 1e-3, r_cap
        if not least(lo) > lam_target:
            _fail_uncoverable(
                system, net, lam_target, center,
                f"least expansion factor {least(lo):.6g} <= target {lam_target:.6g} "
                f"within radius {lo:.6g} of this fixed point",
            )
        if least(hi) > lam_target:
            lo = hi
        else:
            for _ in range(48):
                mid = (lo + hi) / 2.0
                if least(mid) > lam_target:
                    lo = mid
                else:
                    hi = mid
        radius = 0.98 * lo
        region = BallRegion(label=str(label), space=space, center=center, radius=radius)
        return CoverEntry(f"{pos:02d}:{label}", label, region)

    entries = []
    pos = 0
    # e_0 is expanded by g_1^-1, so its ball is labeled g_1
    entries.append(ball_for((0, -1), e[0], system.alphabet.generator(0, 1), pos))
    pos += 1
    for j in range(n):
        entries.append(ball_for((j, 1), e[j + 1], system.alphabet.generator(j, -1), pos))
        pos += 1
    for j in range(1, n):
        label = system.alphabet.generator(j, 1)
        entries.append(
            CoverEntry(f"{pos:02d}:{label}", label, EmptyRegion(label=str(label), space=space))
        )
        pos += 1
    leb, witness = lebesgue_number([e.region for e in entries], net)
    return _certified_datum(system, entries, lam_target, net, leb, witness)


def _build_product(system, lam_target, net_depth):
    first, second = system.components
    d1 = build_expansion_datum(first, lam_target, net_depth)
    d2 = build_expansion_datum(second, lam_target, net_depth)
    space = system.space
    alphabet = system.alphabet
    id1, id2 = first.alphabet.identity(), second.alphabet.identity()
    entries = []
    pos = 0
    for comp, datum, ident_other in ((0, d1, id2), (1, d2, id1)):
        for entry in datum.entries:
            inner_label = entry.symbol
            if comp == 0:
                label = groups.Word(alphabet, (inner_label, id2, 0))
            else:
                label = groups.Word(alphabet, (id1, inner_label, 0))
            region = ComponentRegion(
                label=str(label), space=space, component=comp, inner=entry.region
            )
            entries.append(CoverEntry(f"{pos:02d}:{label}", label, region))
            pos += 1
    if alphabet.has_swap:
        label = alphabet.generator(alphabet.rank - 1, 1)
        entries.append(
            CoverEntry(f"{pos:02d}:swap", label, EmptyRegion(label="swap", space=space))
        )
    net = system.limit_net(net_depth)
    delta = min(d1.delta, d2.delta, SAFETY * space.separation)
    return ExpansionDatum(
        tuple(entries),
        delta,
        min(d1.lam, d2.lam),
        max(d1.lip, d2.lip),
        tuple(net),
    )


# the cover builder of each space class; a subclass uses its nearest base's
COVER_BUILDERS = {
    Circle: _build_circle,
    FreeBoundary: _build_cylinders,
    ProjectiveSpace: _build_projective,
    DisjointUnion: _build_product,
}


# ---------------------------------------------------------------------------
# verification


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst_slack: float
    samples: int
    witness: str = ""
    note: str = ""


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list:
        return [
            {
                "check": c.name,
                "passed": c.passed,
                "worst_slack": c.worst_slack,
                "samples": c.samples,
                "witness": c.witness,
                "note": c.note,
            }
            for c in self.checks
        ]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: slack={c.worst_slack:.3e} over {c.samples} samples"
                + (f" witness={c.witness}" if c.witness else "")
                + (f" ({c.note})" if c.note else "")
            )
        return "\n".join(lines)


def strided_pairs(n: int, stride: int) -> tuple:
    """Every stride-th index pair (i, j), i < j < n, of the row-major
    enumeration of all pairs, starting with the first, as the array of the
    i and the array of the j: each sampled place of the enumeration is
    found in its row by the place where the row starts."""
    rows = np.arange(n)
    starts = rows * n - rows * (rows + 1) // 2  # the place of the pair (i, i + 1)
    picked = np.arange(0, n * (n - 1) // 2, stride)
    i = np.searchsorted(starts, picked, side="right") - 1
    return i, picked - starts[i] + i + 1


def _sample_pairs(n: int, count: int) -> tuple:
    """At most `count` index pairs of n points, every stride-th of all pairs
    (`strided_pairs`), as the array of the i and the array of the j."""
    count = max(count, 1)
    i, j = strided_pairs(n, max(1, (n * (n - 1) // 2) // count))
    return i[:count], j[:count]


class NetPairs(NamedTuple):
    """Point values and those of their index pairs (i[k], j[k]) whose
    distance d0[k] is at least 1e-13: sampled once and shared by every map."""

    values: object
    i: np.ndarray
    j: np.ndarray
    d0: np.ndarray


def pairs_apart(space, points: list, i: np.ndarray, j: np.ndarray) -> NetPairs:
    """The index pairs (i[k], j[k]) of points that lie apart, as `NetPairs`."""
    values = space.values(points)
    d0 = space.distances(values, values, i, j)
    apart = ~(d0 < 1e-13)
    return NetPairs(values, i[apart], j[apart], d0[apart])


def _first_below(slack: np.ndarray, worst: float):
    """The place of the first least slack below `worst`, or None; a NaN
    slack (maps that are not finite) is never below."""
    below = np.flatnonzero(slack < worst)
    return int(below[slack[below].argmin()]) if below.size else None


def verify_expansion(view: ActionView, datum: ExpansionDatum, tol: float = 1e-9) -> VerificationReport:
    """Sampled verification of the datum's defining inequalities for the
    action the view evaluates; the Lipschitz and expansion checks read the
    sampled pairs of `pairs_apart` as index arrays, as `stability` does.

    Failures are recorded as report rows, never raised.
    """
    space = view.space
    checks = []

    syms = datum.symbols()
    sym_ok = all(groups.inverse(s) in syms for s in syms)
    checks.append(
        CheckResult("generator-symmetry", sym_ok, 0.0, len(syms))
    )

    regions = [e.region for e in datum.entries]
    leb, witness = lebesgue_number(regions, datum.net)
    checks.append(
        CheckResult(
            "lebesgue",
            leb >= datum.delta - tol,
            leb - datum.delta,
            len(datum.net),
            witness=str(witness) if leb < datum.delta - tol else "",
        )
    )

    samples = space.neighborhood(datum.net, datum.delta)
    for e in datum.nonempty_entries():
        samples.extend(e.region.sample(8))
    sampled = _sample_pairs(len(samples), PAIR_COUNT)
    pairs = pairs_apart(space, samples, *sampled)
    letters = view.system.alphabet.signed_letters()
    worst_lip, lip_witness = math.inf, ""
    for letter in letters:
        image = space.map_values(view.maps[letter], pairs.values)
        slack = datum.lip * pairs.d0 - space.distances(image, image, pairs.i, pairs.j)
        k = _first_below(slack, worst_lip)
        if k is not None:
            x, y = samples[pairs.i[k]], samples[pairs.j[k]]
            worst_lip, lip_witness = float(slack[k]), f"letter={letter} x={x.value} y={y.value}"
    checks.append(
        CheckResult(
            "lipschitz",
            worst_lip >= -tol,
            worst_lip,
            len(sampled[0]) * len(letters),
            witness=lip_witness if worst_lip < -tol else "",
        )
    )

    # a nonempty entry's label is one letter, whose inverse's map expands
    nonempty = datum.nonempty_entries()
    in_samples = (margin_matrix([e.region for e in nonempty], samples) > 0).T.tolist()
    worst_exp, exp_witness, n_exp = math.inf, "", 0
    for e, mask in zip(nonempty, in_samples):
        inside = [p for p, keep in zip(samples, mask) if keep]
        inside.extend(e.region.sample(12))
        pairs = pairs_apart(space, inside, *_sample_pairs(len(inside), PAIR_COUNT // 2))
        image = space.map_values(view.maps[e.backward[1]], pairs.values)
        slack = space.distances(image, image, pairs.i, pairs.j) - datum.lam * pairs.d0
        n_exp += len(slack)
        k = _first_below(slack, worst_exp)
        if k is not None:
            x, y = inside[pairs.i[k]], inside[pairs.j[k]]
            worst_exp, exp_witness = float(slack[k]), f"entry={e.index} x={x.value} y={y.value}"
    checks.append(
        CheckResult(
            "expansion",
            worst_exp >= -tol,
            worst_exp if n_exp else 0.0,
            n_exp,
            witness=exp_witness if worst_exp < -tol else "",
        )
    )

    if space.is_geodesic():
        checks.append(
            CheckResult(
                "ball-condition",
                True,
                0.0,
                0,
                note="geodesic space: distance expansion implies the ball condition",
            )
        )
    else:
        worst_ball, ball_witness, n_ball = math.inf, "", 0
        net_margins = margin_matrix([e.region for e in nonempty], datum.net).T
        for eta in (datum.delta, datum.delta / 2, datum.delta / 4):
            for e, column in zip(nonempty, (net_margins >= eta).tolist()):
                inv_word = groups.inverse(e.symbol)
                centers = [p for p, keep in zip(datum.net, column) if keep][:10]
                for x in centers:
                    fx = view.apply_word(inv_word, x)
                    for z in samples:
                        dz = space.raw_distance(z.value, fx.value)
                        if dz >= datum.lam * eta:
                            continue
                        back = view.apply_word(e.symbol, z)
                        slack = eta - space.raw_distance(back.value, x.value)
                        n_ball += 1
                        if slack < worst_ball:
                            worst_ball, ball_witness = slack, f"entry={e.index} x={x.value} z={z.value}"
        checks.append(
            CheckResult(
                "ball-condition",
                worst_ball >= -tol if n_ball else True,
                worst_ball if n_ball else 0.0,
                n_ball,
                witness=ball_witness if n_ball and worst_ball < -tol else "",
            )
        )

    return VerificationReport(tuple(checks))
