"""Slow oracles for the paper's lemmas, which the tests check the package
against: the nested-image certificate of a code, expansivity witnesses,
recurrence of code orbits, the quasigeodesic sandwich for rays,
independence of phi from the code, the continuity modulus of phi, and the
finite-difference stretch.  No command reports these, so they live here and
not in the package; `parse` inverts `groups.to_str` to write test words.
The scalar loops that the array paths replaced (the Schottky limit net one
angle at a time, the conjugacy one step at a time) are kept as oracles, and
so is the certificate that held every net point's rays and tables at once.
The frozen dataclasses that points and spaces once were are kept as the
reference for the equality and hash of `Point` and the `Space` kinds."""
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from expaction import groups
from expaction.coding import (
    Certificate,
    Ray,
    RayTable,
    _entry_map,
    _greedy_entry,
    _step,
    _word_pushers,
    code_ray,
    enumerate_codes,
    fellow_travel_distance,
    greedy_step,
    make_code,
    n_equivalence,
    nested_images,
)
from expaction.expansion import SAFETY, ActionView
from expaction.geometry import (
    Circle,
    CoveredCircle,
    DisjointUnion,
    FreeBoundary,
    ProjectiveSpace,
    circle_dist,
)
from expaction.groups import CYCLIC, FREE, GENERIC, Alphabet, Word
from expaction.stability import ConvergenceError, PointDiagnostics, _conjugacy_from, conjugacy_point
from expaction.zoo import WordPush


def parse(alphabet: Alphabet, text: str) -> Word:
    """Inverse of `groups.to_str` for free, generic and cyclic kinds."""
    if alphabet.kind in (FREE, GENERIC):
        if text in ("", "e"):
            return alphabet.identity()
        letters = []
        for ch in text:
            low = ch.lower()
            if low not in alphabet.names:
                raise ValueError(f"unknown letter {ch!r}")
            letters.append((alphabet.names.index(low), 1 if ch.islower() else -1))
        return Word(alphabet, tuple(letters))
    if alphabet.kind == CYCLIC:
        name, _, exp = text.partition("^")
        if name != alphabet.names[0]:
            raise ValueError(f"unknown generator {name!r}")
        return Word(alphabet, int(exp or "1"))
    raise ValueError(f"parsing not defined for kind {alphabet.kind}")


NestedStep = namedtuple("NestedStep", "i diameter bound nesting_slack contains_x_error")


def nested_steps(system, datum, code, eta: float) -> list:
    """The nested-image lemma along a code: each diameter of
    `coding.nested_images` against the contraction bound 2*lip*eta/lam**i;
    the nesting slack, how far rho(s_alpha(i))[B_eta(p_{i+1})] overshoots
    B_eta(p_i) (0 at i = 0); and the distance of rho(c_i)(p_{i+1}) from x."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    space, entry_map = view.space, _entry_map(datum)
    pushers = _word_pushers(view, datum, code)
    steps = []
    for i, diameter in enumerate(nested_images(view, datum, code, eta)):
        p_next, slack = code.points[i + 1], 0.0
        if i >= 1:
            sym = entry_map[code.alphas[i]].symbol
            slack = max(0.0, max(
                space.raw_distance(view.apply_word(sym, z).value, code.points[i].value)
                for z in space.ball_net(p_next, eta)
            ) - eta)
        cx = space.raw_distance(pushers[i](p_next).value, code.points[0].value)
        steps.append(NestedStep(i, diameter, 2.0 * datum.lip * eta / datum.lam**i, slack, cx))
    return steps


# the word realizes the separation (the identity for n = 0)
ExpansivityWitness = namedtuple("ExpansivityWitness", "n separation word")
NotFound = namedtuple("NotFound", "depth best")


def expansivity_witness(datum, system, x, y, max_depth: int = 200, slack: float = 1e-6):
    """Smallest number of steps along a greedy code for x after which x and y
    are delta-separated; n counts applied letters (0 = already separated)."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    space = view.space
    threshold = datum.delta * (1.0 - slack)
    d0 = space.raw_distance(x.value, y.value)
    if d0 <= 0.0:
        raise ValueError("expansivity witness needs distinct points")
    word = datum.entries[0].symbol.alphabet.identity()
    if d0 >= threshold:
        return ExpansivityWitness(0, d0, word)
    xi, yi, best = x, y, d0
    for n in range(1, max_depth + 1):
        e = _greedy_entry(datum, xi, datum.delta)
        inv = e.backward[0]
        xi, yi = _step(view, e, xi), view.apply_word(inv, yi)
        word = groups.multiply(word, inv)
        sep = space.raw_distance(xi.value, yi.value)
        best = max(best, sep)
        if sep >= threshold:
            return ExpansivityWitness(n, sep, word)
    return NotFound(max_depth, best)


@dataclass(frozen=True)
class RecurrenceReport:
    base_index: int
    elements: tuple  # h_j words
    residuals: tuple  # d(rho(h_j) x, x), expected to decrease


def recurrence_witness(system, datum, x, eta: float, depth: int, max_elements: int = 8):
    """Elements h_j = c_{i_j} c_{i_1}^{-1} built from near-returns of the
    greedy code orbit of x, with residuals d(rho(h_j)(x), x); NotFound when
    the orbit does not return twice."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    if not 0.0 < eta <= datum.delta:
        raise ValueError(f"eta must lie in (0, delta={datum.delta}]")
    space = view.space
    code = make_code(datum, view, eta, x, depth)
    ray = code_ray(datum, code)
    pts = code.points
    best_pair = None
    for i1 in range(0, depth // 3):
        returns = [
            j
            for j in range(i1 + 1, depth)
            if space.raw_distance(pts[j + 1].value, pts[i1 + 1].value) < eta / 2.0
        ]
        if len(returns) >= 2:
            best_pair = (i1, returns)
            break
    if best_pair is None:
        return NotFound(depth, math.inf)
    i1, returns = best_pair
    inv_c1 = groups.inverse(ray.words[i1])
    elements, residuals = [], []
    for j in returns[:max_elements]:
        h = groups.multiply(ray.words[j], inv_c1)
        hx = view.apply_word(h, x)
        elements.append(h)
        residuals.append(space.raw_distance(hx.value, x.value))
    return RecurrenceReport(i1, tuple(elements), tuple(residuals))


@dataclass(frozen=True)
class QuasigeodesicReport:
    lower_slope: float
    ok: bool
    worst_lower_slack: float
    worst_upper_slack: float
    unknown_pairs: int


def quasigeodesic_check(datum, ray: Ray, cap: int = 64) -> QuasigeodesicReport:
    """Sandwich (log lam / log lip)*(i-j) <= d(c_i, c_j) <= i-j on all pairs."""
    slope = math.log(datum.lam) / math.log(datum.lip)
    j, i = np.triu_indices(len(ray.words), 1)
    m = groups.distance_table(ray.words, ray.words, cap)[j, i]
    known = m != groups.UNKNOWN
    gaps, m = (i - j)[known], m[known].astype(np.int64)
    worst_lower = float((m - slope * gaps).min(initial=math.inf))
    worst_upper = int((gaps - m).min()) if m.size else math.inf
    ok = worst_lower >= -1e-9 and worst_upper >= 0
    return QuasigeodesicReport(slope, ok, worst_lower, worst_upper, int(known.size - m.size))


def check_code_independence(ps, x, tol: float = 1e-9) -> float:
    """phi(x) recomputed from an alternative (non-greedy) initial code; the
    two limits must agree within 2*tol."""
    phi_a, _ = conjugacy_point(ps, x, tol)
    datum = ps.datum
    first = _greedy_entry(datum, x, datum.delta)
    others = [e for e in datum.entries if e.index != first.index]
    if not others:
        return 0.0
    alt = others[0]
    phi_b, _ = _conjugacy_from(ps, x, (alt, _step(ps.base_view(), alt, x)), tol, 200)
    return ps.base.space.raw_distance(phi_b.value, phi_a.value)


def check_continuity_modulus(table, ps, ks: Sequence[int] = (5, 10)) -> list:
    """Net-pair modulus witnesses: for each k, pairs closer than
    (delta0 - delta)/lip**(k+1) must have phi-images within
    2*delta0*(lip+eps)/(lam-eps)**k (delta0 is the pre-safety Lebesgue bound)."""
    datum, space = ps.datum, ps.base.space
    delta0 = datum.delta / SAFETY
    eps = ps.epsilon
    rows = []
    for k in ks:
        eps_k = 2.0 * delta0 * (datum.lip + eps) / (datum.lam - eps) ** k
        delta_k = (delta0 - datum.delta) / datum.lip ** (k + 1)
        worst, pairs = 0.0, 0
        for i in range(len(table.entries)):
            for j in range(i + 1, len(table.entries)):
                a, b = table.entries[i], table.entries[j]
                if space.raw_distance(a.x.value, b.x.value) < delta_k:
                    pairs += 1
                    worst = max(worst, space.raw_distance(a.phi.value, b.phi.value))
        rows.append(
            {"k": k, "pairs": pairs, "modulus": eps_k, "worst": worst, "ok": worst < eps_k}
        )
    return rows


def expansion_factor_fd(system, g: Word, x, h: float = 1e-6) -> float:
    """Central finite-difference stretch, minimized over probe directions."""
    space = system.space
    if isinstance(space, Circle):
        xp, xm = space.point(x.value + h), space.point(x.value - h)
        num = circle_dist(system.apply(g, xp).value, system.apply(g, xm).value)
        return num / (2.0 * h)
    if isinstance(space, ProjectiveSpace):
        v = np.asarray(x.value)
        basis = ProjectiveSpace.tangent_basis(v)[:2]
        best = math.inf
        for k in range(16):
            ang = 2 * math.pi * k / 16
            w = basis[0] if len(basis) == 1 else np.cos(ang) * basis[0] + np.sin(ang) * basis[1]
            xp = space.point(tuple(v + h * w))
            xm = space.point(tuple(v - h * w))
            num = space.raw_distance(system.apply(g, xp).value, system.apply(g, xm).value)
            den = space.raw_distance(xp.value, xm.value)
            best = min(best, num / den)
        return best
    raise TypeError(f"finite differences unsupported on {space.kind}")


# ---------------------------------------------------------------------------
# the certificate over all points at once


def all_points_certificate(
    system, datum, net=None, depth=20, cap=200, n_max=8, max_chain=3, metric_cap=64
) -> Certificate:
    """`coding.shyp_certificate` before it took the net one point at a time:
    the codes and rays of every point first, then one whole table per point,
    kept through the fellow pass and the chain search."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    net = list(datum.net if net is None else net)
    truncated = False
    all_rays = []
    for x in net:
        codes, trunc = enumerate_codes(datum, view, datum.delta, x, depth, cap)
        truncated = truncated or trunc
        all_rays.append([code_ray(datum, c) for c in codes])
    tables = [RayTable(rays, metric_cap) for rays in all_rays]
    fellow, worst_pair, fellow_known = 0, None, True
    for x, rays, table in zip(net, all_rays, tables):
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                d = fellow_travel_distance(rays[i], rays[j], metric_cap, table)
                if d is None:
                    fellow_known = False
                elif d > fellow:
                    fellow, worst_pair = d, (x, i, j, d)
    top = fellow if fellow_known and fellow <= n_max else n_max
    chain_constant = next(
        (
            n
            for n in range(top + 1)
            if all(
                n_equivalence(rays[i], rays[j], rays, n, max_chain, metric_cap, table)[0]
                for rays, table in zip(all_rays, tables)
                for i in range(len(rays))
                for j in range(i + 1, len(rays))
            )
        ),
        None,
    )
    return Certificate(
        fellow_constant=fellow if fellow_known else None,
        chain_constant=chain_constant,
        chain_steps=max_chain,
        n_max=n_max,
        truncated=truncated,
        points_checked=len(net),
        rays_per_point=tuple(len(r) for r in all_rays),
        worst_pair=worst_pair,
    )


# ---------------------------------------------------------------------------
# the scalar loops of the array paths


def schottky_net_values(system, depth: int) -> list:
    """The Schottky limit net's angles one at a time: one level per word
    length, (first letter, angle) of every reduced word in lexicographic
    order, a word's angle its first letter applied to the angle of its tail."""
    maps = system.letter_maps
    chars = [(i, s) for i in range(system.alphabet.rank) for s in (1, -1)]
    level = [(ch, maps[ch].fixed_angles()[0]) for ch in chars]
    for _ in range(depth - 1):
        longer = []
        for ch in chars:
            inv, step = (ch[0], -ch[1]), maps[ch].apply_angle
            longer.extend((ch, step(theta)) for first, theta in level if first != inv)
        level = longer
    return [theta for _, theta in level]


def conjugacy_steps(ps, x, first, tol: float, max_depth: int) -> tuple:
    """The conjugacy iteration one code step at a time, every point of the
    pushed ball net pushed on its own: `stability._conjugacy_from` before it
    pushed blocks of rows."""
    datum, space = ps.datum, ps.base.space
    base_view, pert_view = ps.base_view(), ps.view()
    eps = ps.epsilon
    lam_p, lip_p = datum.lam - eps, datum.lip + eps
    delta = datum.delta
    push = WordPush(space, pert_view.maps)
    e, point = first
    for i in range(max_depth):
        if i:
            e, point = greedy_step(datum, base_view, point, delta)
        push = push.grown(groups.letters_of(e.symbol))
        z = push(point)
        probes = [push(q) for q in space.ball_net(point, delta, 6)]
        diam = space.set_diameter(probes)
        bound = 2.0 * delta * lip_p / lam_p**i
        if diam < tol or bound < tol:
            return z, PointDiagnostics(i + 1, min(diam, bound))
    raise ConvergenceError(x, 2.0 * delta * lip_p / lam_p**max_depth, max_depth)


# ---------------------------------------------------------------------------
# points and spaces as the frozen dataclasses they were


@dataclass(frozen=True)
class OldPoint:
    space: object
    value: object


@dataclass(frozen=True)
class OldSpace:
    pass


@dataclass(frozen=True)
class OldCircle(OldSpace):
    pass


@dataclass(frozen=True)
class OldCoveredCircle(OldCircle):
    degree: int = 2


@dataclass(frozen=True)
class OldProjectiveSpace(OldSpace):
    n: int = 2


@dataclass(frozen=True)
class OldFreeBoundary(OldSpace):
    rank: int = 2
    a: float = 2.0
    depth: int = 40


@dataclass(frozen=True)
class OldDisjointUnion(OldSpace):
    components: tuple = ()
    separation: float = 0.0


OLD_SPACES = {
    Circle: OldCircle,
    CoveredCircle: OldCoveredCircle,
    ProjectiveSpace: OldProjectiveSpace,
    FreeBoundary: OldFreeBoundary,
}


def old_space(space):
    """The dataclass twin of a space: the old class of its kind, with the
    same field values (components included)."""
    if isinstance(space, DisjointUnion):
        return OldDisjointUnion(tuple(map(old_space, space.components)), space.separation)
    return OLD_SPACES[type(space)](**{name: getattr(space, name) for name in space._fields})


def old_point(p):
    return OldPoint(old_space(p.space), p.value)
