"""Conjugacy construction for perturbed actions.

Given an expanding action with datum (cover, delta, lip, lam) and a
fellow-travel constant N, perturbations within

    eps = (lam - 1)/2 * min(delta / ((N + 1) * lip**N), 1)

in the Lipschitz distance on K (the closed delta-neighborhood of the limit
set) admit a conjugating map phi: each phi(x) is the limit of the perturbed
nested images z_i = rho'(c_i)(p_{i+1}) along a special code for x.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import groups
from .coding import CodeSteps, CodingError, make_codes
from .expansion import (
    SAFETY,
    ActionView,
    CoverEntry,
    ExpansionDatum,
    NetPairs,
    UncoverableError,
    pairs_apart,
    strided_pairs,
)
from .geometry import ClippedRegion, Point, distance, lebesgue_number
from .zoo import ActionSystem, WordPush


class AdmissibilityError(ValueError):
    """Perturbation too large for the stability construction."""


class ConvergenceError(RuntimeError):
    """Nested intersection did not reach tolerance within the depth budget."""

    def __init__(self, x, achieved, max_depth):
        self.x, self.achieved, self.max_depth = x, achieved, max_depth
        super().__init__(
            f"phi({x}) not resolved: diameter bound {achieved:.3e} after {max_depth} steps"
        )


def perturbation_epsilon(datum: ExpansionDatum, n_const: int) -> float:
    """Admissible perturbation radius for a fellow-travel constant n_const."""
    if n_const < 1:
        raise ValueError("the fellow-travel constant must be >= 1")
    lam, lip, delta = datum.lam, datum.lip, datum.delta
    return (lam - 1.0) / 2.0 * min(delta / ((n_const + 1) * lip**n_const), 1.0)


def net_pairs(space, net: Sequence[Point], max_pairs: int = 10000) -> NetPairs:
    """The net's every stride-th pair (`strided_pairs`) that lies apart
    (`pairs_apart`), the stride being total // max_pairs of the net's total
    pairs: ceil(total / stride) pairs are taken, all of them when there are
    fewer than max_pairs, else at least max_pairs and up to nearly twice as
    many."""
    n = len(net)
    if n < 2:
        raise ValueError("lipschitz_distance needs at least two net points")
    return pairs_apart(space, net, *strided_pairs(n, max(1, (n * (n - 1) // 2) // max_pairs)))


def lipschitz_distance(space, map_a, map_b, pairs: NetPairs) -> float:
    """Sampled Lipschitz distance of two self-maps: sup displacement over the
    net plus sup difference of stretch quotients over its distinct pairs."""
    a = space.map_values(map_a, pairs.values)
    b = space.map_values(map_b, pairs.values)
    every = np.arange(len(pairs.values))
    sup_disp = space.distances(a, b, every, every).max()
    i, j, d0 = pairs.i, pairs.j, pairs.d0
    quot = np.abs(space.distances(a, a, i, j) / d0 - space.distances(b, b, i, j) / d0)
    return float(sup_disp + quot.max(initial=0.0))


class PerturbedSystem:
    """A perturbed action together with its admissibility bookkeeping: the
    base system, whose codes the conjugacy follows, and the view that
    evaluates the perturbed maps on its space."""

    def __init__(
        self,
        base: ActionSystem,
        datum: ExpansionDatum,
        view: ActionView,
        realized: Mapping[str, float],
        epsilon: float,
    ):
        self.base, self.datum, self.view = base, datum, view
        self.realized, self.epsilon = realized, epsilon

    def violations(self) -> list:
        # a NaN distance (maps that are not finite) is no evidence of admissibility
        return [name for name, d in self.realized.items() if not d < self.epsilon]

    def require_admissible(self) -> None:
        bad = self.violations()
        if bad:
            worst = max(self.realized[name] for name in bad)
            raise AdmissibilityError(
                f"perturbation of {', '.join(bad)} reaches Lipschitz distance "
                f"{worst:.3e} >= eps = {self.epsilon:.3e}"
            )


def make_perturbed(view: ActionView, datum: ExpansionDatum, n_const: int) -> PerturbedSystem:
    """Wrap the view's perturbed letter maps with their realized Lipschitz
    distances from its system's maps over the closed delta-neighborhood net
    K, and the admissible radius of the fellow-travel constant n_const.  The
    view was made first, so a space that takes no perturbation was refused
    before any datum was built for it."""
    system = view.system
    eps = perturbation_epsilon(datum, n_const)
    pairs = net_pairs(system.space, system.space.neighborhood(datum.net, datum.delta))
    realized = {}
    for letter, m in view.maps.items():
        name = str(system.alphabet.generator(letter[0], letter[1]))
        realized[name] = lipschitz_distance(system.space, system.letter_maps[letter], m, pairs)
    return PerturbedSystem(system, datum, view, realized, eps)


# ---------------------------------------------------------------------------
# the conjugacy


class PointDiagnostics(NamedTuple):
    iterations: int
    stop_bound: float  # contraction bound at the stopping index


def conjugacy_point(
    ps: PerturbedSystem,
    x: Point,
    tol: float = 1e-9,
    max_depth: int = 200,
    steps: Optional[CodeSteps] = None,
) -> tuple:
    """phi(x): limit of z_i = rho'(c_i)(p_{i+1}) along a special delta-code.

    Stops once the diameter of the pushed probes of the ball
    rho'(c_i)[B_delta] drops below tol (the conservative bound
    2*delta*(lip+eps)/(lam-eps)**i is a secondary stop).  The probes are
    `space.ball_net(p_{i+1}, delta, 6)`: on the circle the center and six
    points that cover only the middle 5/6 of the ball.  Their diameter is a
    sample of the image's, so a lower bound on it, not a measurement of the
    whole image.  Sampling the actual image matters twice over: the true
    contraction is usually much faster than lam-eps, and the backward orbit
    loses float accuracy at about the sampled rate, so stopping on the
    sample resolves phi before the orbit degrades.

    The code steps come in blocks of up to `space.push_rows`, and the space
    pushes the balls of a block as rows at once; the rows are then read in
    order, up to the first that stops.  `steps` is the first block, the
    point's row of a `coding.make_codes` frontier over many points (see
    `conjugacy_map`); without it the point takes its own.  Each later block
    is `make_codes` from the last point reached.  A step past the stopping
    row that finds no cover member does not count: its CodingError is
    raised only when no earlier row stops.
    """
    ps.require_admissible()
    datum, space = ps.datum, ps.base.space
    eps = ps.epsilon
    lam_p, lip_p = datum.lam - eps, datum.lip + eps
    delta = datum.delta

    def block(start: Point, i: int) -> CodeSteps:
        return make_codes(datum, ps.base, delta, [start], min(space.push_rows, max_depth - i)).steps(0)

    push = WordPush(space, ps.view.maps)  # grown by the code's symbols, unreduced
    steps = block(x, 0) if steps is None else steps
    i = 0
    while i < max_depth:
        pushes = []
        for e in steps.entries:
            push = push.grown(groups.letters_of(e.symbol))
            pushes.append(push)
        for z, diam in space.push_balls(pushes, steps.points, delta, 6) if pushes else ():
            bound = 2.0 * delta * lip_p / lam_p**i
            if diam < tol or bound < tol:
                return z, PointDiagnostics(i + 1, min(diam, bound))
            i += 1
        if steps.error is not None:
            raise steps.error
        if i < max_depth:
            steps = block(steps.points[-1], i)
    raise ConvergenceError(x, 2.0 * delta * lip_p / lam_p**max_depth, max_depth)


class TableEntry(NamedTuple):
    x: Point
    phi: Point
    iterations: int
    stop_diameter: float


class ConjugacyTable:
    """phi tabulated over the limit-set net, with diagnostics and residuals."""

    def __init__(self, entries: list, extra: dict, displacement: float, failures: list | None = None):
        self.entries = entries
        self.extra = extra  # phi at one-step generator images, keyed by the image point
        self.displacement = displacement
        self.residuals = {}  # generator -> equivariance residual
        self.failures = [] if failures is None else failures
        # phi keyed by net point; the first entry of a repeated point wins
        self.by_point = {}
        for e in self.entries:
            self.by_point.setdefault(e.x, e.phi)

    def phi_of(self, x: Point) -> Optional[Point]:
        if x in self.by_point:
            return self.by_point[x]
        return self.extra.get(x)

    def image_net(self) -> list:
        return [e.phi for e in self.entries]

    def rows(self) -> list:
        return [
            {
                "x": repr(e.x.value),
                "phi": repr(e.phi.value),
                "iterations": e.iterations,
                "stop_diameter": e.stop_diameter,
            }
            for e in self.entries
        ]


def conjugacy_map(
    ps: PerturbedSystem,
    net: Sequence[Point] | None = None,
    tol: float = 1e-9,
    max_depth: int = 200,
    with_images: bool = True,
) -> ConjugacyTable:
    """Tabulate phi over the net and (optionally) over one-step generator
    images so equivariance can be checked without interpolation."""
    ps.require_admissible()
    base = ps.base
    net = list(ps.datum.net if net is None else net)
    images = [base.apply(s, x) for s in base.generators() for x in net] if with_images else []
    # the first block of code steps of every point tabulated below, stepped
    # together; each point's row is read when its turn comes
    rows = {x: row for row, x in enumerate(dict.fromkeys(net + images))}
    codes = make_codes(ps.datum, base, ps.datum.delta, list(rows), min(base.space.push_rows, max_depth))
    entries, failures = [], []
    for x in net:
        try:
            phi, diag = conjugacy_point(ps, x, tol, max_depth, codes.steps(rows[x]))
            entries.append(TableEntry(x, phi, diag.iterations, diag.stop_bound))
        except (ConvergenceError, CodingError) as err:  # per-point granularity
            failures.append((x, str(err)))
    displacement = max((distance(base.space, e.x, e.phi) for e in entries), default=0.0)
    table = ConjugacyTable(entries, {}, displacement, failures=failures)
    for y in images:
        if table.phi_of(y) is not None:
            continue
        try:
            phi, _ = conjugacy_point(ps, y, tol, max_depth, codes.steps(rows[y]))
            table.extra[y] = phi
        except (ConvergenceError, CodingError) as err:
            failures.append((y, str(err)))
    if not failures:
        check_equivariance(table, ps)
    return table


EQUIVARIANCE_TOL = 1e-6  # a stability run passes with a `check_equivariance` residual below this


def check_equivariance(table: ConjugacyTable, ps: PerturbedSystem) -> float:
    """Max over generators s and net points x of
    d(rho'(s)(phi(x)), phi(rho(s)(x)))."""
    base, space = ps.base, ps.base.space
    worst_overall = 0.0
    for s in base.generators():
        worst = 0.0
        for e in table.entries:
            lhs = ps.view.apply_word(s, e.phi)
            rhs = table.phi_of(base.apply(s, e.x))
            if rhs is None:
                continue
            worst = max(worst, space.raw_distance(lhs.value, rhs.value))
        table.residuals[str(s)] = worst
        worst_overall = max(worst_overall, worst)
    return worst_overall


def check_injectivity(table: ConjugacyTable, ps: PerturbedSystem) -> bool:
    """Distinct net points have distinct images: no two entries' phi values
    lie at distance 0."""
    space = ps.base.space
    phis = [e.phi.value for e in table.entries]
    return all(space.raw_distance(a, b) > 0.0 for i, a in enumerate(phis) for b in phis[i + 1 :])


class DisplacementReport(NamedTuple):
    max_displacement: float
    below_eps: bool
    below_delta_fifth: bool


def check_displacement(table: ConjugacyTable, ps: PerturbedSystem) -> DisplacementReport:
    d = table.displacement
    return DisplacementReport(d, d < ps.epsilon, d < ps.datum.delta / 5.0)


# ---------------------------------------------------------------------------
# the perturbed expansion datum


def perturbed_datum(
    datum: ExpansionDatum, ps: PerturbedSystem, r: float, table: ConjugacyTable
) -> ExpansionDatum:
    """Expansion datum for the perturbed action: regions shrunk by r and
    clipped to the (delta - r)-neighborhood of the limit set, with
    lam' = lam - eps and lip' = lip + eps.

    The new delta is kept below both 4*delta/5 and the Lebesgue bound of the
    shrunk cover over the perturbed net (the phi-image of the base net).
    """
    ps.require_admissible()
    if not 0.0 < r < 0.8 * datum.delta:
        raise ValueError(f"r must lie in (0, 4*delta/5 = {0.8 * datum.delta:.6g})")
    space = ps.base.space
    new_entries = []
    for e in datum.entries:
        if e.region.is_empty():
            new_entries.append(e)
            continue
        clipped = ClippedRegion(
            label=e.region.label,
            space=space,
            inner=e.region.shrunk(r),
            net=tuple(datum.net),
            radius=datum.delta - r,
        )
        new_entries.append(CoverEntry(e.index, e.symbol, clipped))
    net_p = tuple(table.image_net())
    regions = [e.region for e in new_entries]
    leb, witness = lebesgue_number(regions, net_p)
    if leb <= 0:
        raise UncoverableError(witness, f"Lebesgue number {leb:.6g} <= 0 over the perturbed net")
    # the realized Lipschitz distance is a valid (and sharper) stand-in for
    # the admissibility threshold; an unperturbed action keeps its constants
    eps = max(ps.realized.values())
    delta_new = min(SAFETY * leb, 0.8 * datum.delta)
    return ExpansionDatum(
        tuple(new_entries),
        delta_new,
        datum.lam - eps,
        datum.lip + eps,
        net_p,
    )
