"""Expansion data: finite covers with margins, Lebesgue bounds, Lipschitz and
expansion constants, and their verification.

A datum records, for every generator label s, a (possibly empty) region on
which the inverse rho(s^-1) expands distances by at least lam, together with
a Lebesgue bound delta for eta-balls and a Lipschitz constant lip valid on
the delta-neighborhood of the limit set.
"""
from __future__ import annotations

import math
from functools import cache, cached_property
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
        return list(dict.fromkeys(e.symbol for e in self.entries))


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


def _numbered(labeled: list) -> list:
    """The cover entries of (label, region) pairs, each indexed by its place
    and its region's label."""
    return [
        CoverEntry(f"{pos:02d}:{region.label}", label, region) for pos, (label, region) in enumerate(labeled)
    ]


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
    labeled = []
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
            labeled.extend((label, region) for region in kept or [EmptyRegion(label=str(label), space=space)])
    entries = _numbered(labeled)
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
    labeled = []
    for ch in space.letters + space.letters.upper():
        idx = space.letters.index(ch.lower())
        sign = 1 if ch.islower() else -1
        label = system.alphabet.generator(idx, sign)
        labeled.append((label, CylinderRegion(label=str(label), space=space, prefix=ch)))
    entries = _numbered(labeled)
    leb, _ = lebesgue_number([e.region for e in entries], net)
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

    def ball_for(expanding_letter, center: Point, label: Word) -> tuple:
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
        return label, BallRegion(label=str(label), space=space, center=center, radius=radius)

    generator = system.alphabet.generator
    # e_0 is expanded by g_1^-1, so its ball is labeled g_1
    labeled = [ball_for((0, -1), e[0], generator(0, 1))]
    labeled += [ball_for((j, 1), e[j + 1], generator(j, -1)) for j in range(n)]
    labeled += [(generator(j, 1), EmptyRegion(label=str(generator(j, 1)), space=space)) for j in range(1, n)]
    entries = _numbered(labeled)
    leb, witness = lebesgue_number([e.region for e in entries], net)
    return _certified_datum(system, entries, lam_target, net, leb, witness)


def _build_product(system, lam_target, net_depth):
    first, second = system.components
    d1 = build_expansion_datum(first, lam_target, net_depth)
    d2 = build_expansion_datum(second, lam_target, net_depth)
    space = system.space
    alphabet = system.alphabet
    id1, id2 = first.alphabet.identity(), second.alphabet.identity()
    labeled = []
    for comp, datum in enumerate((d1, d2)):
        for entry in datum.entries:
            label = groups.Word(alphabet, (entry.symbol, id2, 0) if comp == 0 else (id1, entry.symbol, 0))
            region = ComponentRegion(label=str(label), space=space, component=comp, inner=entry.region)
            labeled.append((label, region))
    if alphabet.has_swap:
        labeled.append((alphabet.generator(alphabet.rank - 1, 1), EmptyRegion(label="swap", space=space)))
    entries = _numbered(labeled)
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
        # the fields in order, the name under the column "check"
        return [dict(zip(("check", *CheckResult._fields[1:]), c)) for c in self.checks]

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


def _least_slack(name: str, blocks, tol: float, samples: int | None = None) -> CheckResult:
    """The check over blocks of (slack array, witness of a place in it): the
    first least slack in block order, where a NaN (maps that are not finite)
    is never least, fails below -tol with its witness.  A check over no
    slack reports 0.0 and passes; `samples` defaults to the slacks scanned."""
    worst, witness, scanned = math.inf, "", 0
    for slack, witness_at in blocks:
        scanned += len(slack)
        below = np.flatnonzero(slack < worst)
        if below.size:
            k = int(below[slack[below].argmin()])
            worst, witness = float(slack[k]), witness_at(k)
    worst = worst if scanned else 0.0
    passed = worst >= -tol
    samples = scanned if samples is None else samples
    return CheckResult(name, passed, worst, samples, "" if passed else witness)


def _points_at(head: str, xs: list, i: np.ndarray, ys: list, j: np.ndarray, y_name: str = "y"):
    """The witness of place k of slacks over the point pairs (xs[i[k]], ys[j[k]])."""
    return lambda k: f"{head} x={xs[i[k]].value} {y_name}={ys[j[k]].value}"


def _ball_blocks(view: ActionView, datum: ExpansionDatum, nonempty: list, samples: list):
    """The ball condition's blocks, one per (eta, entry) for eta = delta,
    delta/2, delta/4: for each of the first ten net points x with margin at
    least eta in the entry's region, each sample z within lam * eta of
    rho(s^-1) x has the slack eta - d(rho(s) z, x), in (x, z) order."""
    space, net, n = view.space, datum.net, len(samples)
    values, net_values = space.values(samples), space.values(net)
    margins = margin_matrix([e.region for e in nonempty], net).T
    # the image under a word of the point of a value, each taken once
    image = cache(lambda word, v: view.apply_word(word, Point(space, v)).value)
    for eta in (datum.delta, datum.delta / 2, datum.delta / 4):
        for e, row in zip(nonempty, margins):
            centers = np.flatnonzero(row >= eta)[:10]
            c, z = np.divmod(np.arange(len(centers) * n), n)  # c indexes the centers
            fx = [image(e.backward[0], net_values[x]) for x in centers]
            near = space.distances(values, fx, z, c) < datum.lam * eta
            c, z = centers[c[near]], z[near]
            back = [image(e.symbol, values[k]) for k in z]
            slack = eta - space.distances(back, net_values, np.arange(len(z)), c)
            yield slack, _points_at(f"entry={e.index}", net, c, samples, z, "z")


def verify_expansion(view: ActionView, datum: ExpansionDatum, tol: float = 1e-9) -> VerificationReport:
    """Sampled verification of the datum's defining inequalities for the
    action the view evaluates: the Lipschitz, expansion and ball-condition
    checks are each one `_least_slack` scan over index pairs of points.

    Failures are recorded as report rows, never raised.
    """
    space = view.space
    syms = datum.symbols()
    sym_ok = all(groups.inverse(s) in syms for s in syms)
    checks = [CheckResult("generator-symmetry", sym_ok, 0.0, len(syms))]

    leb, witness = lebesgue_number([e.region for e in datum.entries], datum.net)
    ok = leb >= datum.delta - tol
    witness = str(witness) if leb < datum.delta - tol else ""  # a NaN number fails with none
    checks.append(CheckResult("lebesgue", ok, leb - datum.delta, len(datum.net), witness))

    nonempty = datum.nonempty_entries()
    samples = space.neighborhood(datum.net, datum.delta)
    for e in nonempty:
        samples.extend(e.region.sample(8))
    sampled = _sample_pairs(len(samples), PAIR_COUNT)
    pairs = pairs_apart(space, samples, *sampled)
    letters = view.system.alphabet.signed_letters()
    lip = []
    for letter in letters:
        image = space.map_values(view.maps[letter], pairs.values)
        slack = datum.lip * pairs.d0 - space.distances(image, image, pairs.i, pairs.j)
        lip.append((slack, _points_at(f"letter={letter}", samples, pairs.i, samples, pairs.j)))
    # every sampled pair counts, also those too near to stretch
    checks.append(_least_slack("lipschitz", lip, tol, len(sampled[0]) * len(letters)))

    # a nonempty entry's label is one letter, whose inverse's map expands
    in_samples = (margin_matrix([e.region for e in nonempty], samples) > 0).T.tolist()
    expanding = []
    for e, mask in zip(nonempty, in_samples):
        inside = [p for p, keep in zip(samples, mask) if keep]
        inside.extend(e.region.sample(12))
        pairs = pairs_apart(space, inside, *_sample_pairs(len(inside), PAIR_COUNT // 2))
        image = space.map_values(view.maps[e.backward[1]], pairs.values)
        slack = space.distances(image, image, pairs.i, pairs.j) - datum.lam * pairs.d0
        expanding.append((slack, _points_at(f"entry={e.index}", inside, pairs.i, inside, pairs.j)))
    checks.append(_least_slack("expansion", expanding, tol))

    if space.is_geodesic():
        note = "geodesic space: distance expansion implies the ball condition"
        checks.append(CheckResult("ball-condition", True, 0.0, 0, note=note))
    else:
        checks.append(_least_slack("ball-condition", _ball_blocks(view, datum, nonempty, samples), tol))
    return VerificationReport(tuple(checks))
