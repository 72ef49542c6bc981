"""Slow oracles for the paper's lemmas, which the tests check the package
against: the nested-image certificate of a code, expansivity witnesses,
recurrence of code orbits, the quasigeodesic sandwich for rays,
independence of phi from the code, the continuity modulus of phi, the
chain-rule expansion factor of a word, and the finite-difference stretch.
No command reports these, so they live here and not in the package; `parse` inverts `groups.to_str` to write test words,
and `ray_of_words` turns words into a ray.  The scalar loops that the array
paths replaced (the Schottky limit net one angle at a time, the conjugacy
one step at a time) are kept as oracles, and so are the breadth-first chain
search that the reachability matrix replaced, the certificate that held
every net point's rays and tables at once and searched chains pair by pair,
and the Lipschitz, expansion and ball-condition checks of
`verify_expansion` one sampled pair at a time.
The frozen dataclasses that points and spaces once were are kept as the
reference for the equality and hash of `Point` and the `Space` kinds, and
the margins one region and one point at a time as the reference for the
margin matrices, the Lebesgue number and the code steps that read them;
so is the loop that found the circle cover's arcs one grid angle at a time.
The code steps one point and one step at a time (`code_step`,
`greedy_step`) are the reference for the frontier of `coding.make_codes`,
and the conjugacy map one point at a time (`conjugacy_map_steps`) for the
one that takes every point's first block of steps together.  The tangent
basis one vector at a time (`tangent_basis`) is the reference for the
projective tangent frames, and the component rule of a product word
(`product_apply`) for the word acting by its letters."""
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from expaction import groups
from expaction.coding import (
    Certificate,
    Code,
    CodingError,
    Ray,
    RayTable,
    CodeSteps,
    _entry_map,
    code_ray,
    enumerate_codes,
    fellow_travel_distance,
    make_code,
    nested_images,
)
from expaction.expansion import PAIR_COUNT, SAFETY, CheckResult, VerificationReport, strided_pairs
from expaction.geometry import (
    ArcRegion,
    BallRegion,
    Circle,
    ClippedRegion,
    ComponentRegion,
    CoveredCircle,
    CylinderRegion,
    DisjointUnion,
    EmptyRegion,
    FreeBoundary,
    Point,
    ProjectiveSpace,
    circle_dist,
    common_prefix_len,
    distance,
)
from expaction.groups import CYCLIC, FREE, GENERIC, Alphabet, Word
from expaction.stability import ConvergenceError, PointDiagnostics, conjugacy_point
from expaction.zoo import SNAP_TOL, WordPush


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


def ray_of_words(words: Sequence[Word]) -> Ray:
    """The ray through the given prefix words c_0, c_1, ...: its symbols are
    s_0 = c_0 and s_i = c_{i-1}^-1 c_i."""
    return Ray(
        groups.multiply(groups.inverse(words[i - 1]), w) if i else w for i, w in enumerate(words)
    )


NestedStep = namedtuple("NestedStep", "i diameter bound nesting_slack contains_x_error")


def nested_steps(system, datum, code, eta: float) -> list:
    """The nested-image lemma along a code: each diameter of
    `coding.nested_images` against the contraction bound 2*lip*eta/lam**i;
    the nesting slack, how far rho(s_alpha(i))[B_eta(p_{i+1})] overshoots
    B_eta(p_i) (0 at i = 0); and the distance of rho(c_i)(p_{i+1}) from x."""
    space, entry_map = system.space, _entry_map(datum)
    push, pushers = WordPush(space, system.letter_maps), []
    for a in code.alphas:
        push = push.grown(groups.letters_of(entry_map[a].symbol))
        pushers.append(push)
    steps = []
    for i, diameter in enumerate(nested_images(system, datum, code, eta)):
        p_next, slack = code.points[i + 1], 0.0
        if i >= 1:
            sym = entry_map[code.alphas[i]].symbol
            slack = max(0.0, max(
                space.raw_distance(system.apply(sym, z).value, code.points[i].value)
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
    space = system.space
    threshold = datum.delta * (1.0 - slack)
    d0 = space.raw_distance(x.value, y.value)
    if d0 <= 0.0:
        raise ValueError("expansivity witness needs distinct points")
    word = datum.entries[0].symbol.alphabet.identity()
    if d0 >= threshold:
        return ExpansivityWitness(0, d0, word)
    xi, yi, best = x, y, d0
    for n in range(1, max_depth + 1):
        e = greedy_entry(datum, xi, datum.delta)
        inv = e.backward[0]
        xi, yi = code_step(system, e, xi), system.apply(inv, yi)
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
    if not 0.0 < eta <= datum.delta:
        raise ValueError(f"eta must lie in (0, delta={datum.delta}]")
    space = system.space
    code = make_code(datum, system, eta, x, depth)
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
        hx = system.apply(h, x)
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
    first = greedy_entry(datum, x, datum.delta)
    others = [e for e in datum.entries if e.index != first.index]
    if not others:
        return 0.0
    alt = others[0]
    phi_b, _ = conjugacy_point(ps, x, tol, 200, CodeSteps([alt], [code_step(ps.base, alt, x)], None))
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


def expansion_factor(system, g: Word, x) -> float:
    """Least stretch of rho(g) at x by the chain rule: the product of each
    letter's least `space.stretches` along the orbit of x, the last letter
    acting first.  On the circle and the free boundary, where one direction
    is stretched, it is the stretch of g; on projective space it is the
    composed map's least stretch for one letter, and a lower bound of it for
    more."""
    space, factor = system.space, 1.0
    for letter in reversed(groups.letters_of(g)):
        m = system.letter_maps[letter]
        factor *= float(space.stretches(m, space.values([x]))[0][0])
        x = space.apply_maps([m], x)
    return factor


def expansion_factor_fd(system, g: Word, x, h: float = 1e-6) -> float:
    """Central finite-difference stretch, minimized over probe directions."""
    space = system.space
    if isinstance(space, Circle):
        xp, xm = space.point(x.value + h), space.point(x.value - h)
        num = circle_dist(system.apply(g, xp).value, system.apply(g, xm).value)
        return num / (2.0 * h)
    if isinstance(space, ProjectiveSpace):
        v = np.asarray(x.value)
        basis = tangent_basis(v)[:2]
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
# chains pair by pair, and the certificate over all points at once


def tail_close(table: RayTable, a: int, b: int, n: int) -> bool:
    """Rows a and b of the table are tail-close at n."""
    return bool(table.window[0, a, b] < n <= table.window[1, a, b])


def chain_search(table: RayTable, a: int, b: int, n: int, max_chain: int = 3) -> tuple:
    """Breadth-first search for a chain of at most max_chain tail-close steps
    from row a to row b, each step to a ray class not reached before.
    Returns (found, chain): the rows of the chain, both ends included, or
    None.  Rows with the same symbols are one ray."""
    first, goal = table.first, table.first[b]
    if first[a] == goal:
        return True, (a,)
    frontier, seen = [(a, (a,))], {first[a]}
    for _ in range(max_chain):
        if not frontier:  # every class in reach is reached
            break
        nxt = []
        for current, chain in frontier:
            for j in range(len(first)):
                if first[j] in seen or not tail_close(table, current, j, n):
                    continue
                if first[j] == goal:
                    return True, chain + (j,)
                seen.add(first[j])
                nxt.append((j, chain + (j,)))
        frontier = nxt
    return False, None


def all_points_certificate(
    system, datum, net=None, depth=20, cap=200, n_max=8, max_chain=3, metric_cap=64
) -> Certificate:
    """`coding.shyp_certificate` before it took the net one point at a time
    and searched chains by matrix: the codes and rays of every point first,
    then one whole table per point, kept through the fellow pass and a
    breadth-first chain search per ray pair."""
    net = list(datum.net if net is None else net)
    truncated = False
    all_rays = []
    for x in net:
        codes, trunc = enumerate_codes(datum, system, datum.delta, x, depth, cap)
        truncated = truncated or trunc
        all_rays.append([code_ray(datum, c) for c in codes])
    tables = [RayTable(rays, metric_cap) for rays in all_rays]
    fellow, worst_pair, fellow_known = 0, None, True
    for x, rays, table in zip(net, all_rays, tables):
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                d = fellow_travel_distance(table, i, j)
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
                chain_search(table, i, j, n, max_chain)[0]
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
    pushed ball net pushed on its own: `stability.conjugacy_point` before it
    pushed blocks of rows, from a given first step (entry, p_1)."""
    datum, space = ps.datum, ps.base.space
    eps = ps.epsilon
    lam_p, lip_p = datum.lam - eps, datum.lip + eps
    delta = datum.delta
    push = WordPush(space, ps.view.maps)
    e, point = first
    for i in range(max_depth):
        if i:
            e, point = greedy_step(datum, ps.base, point, delta)
        push = push.grown(groups.letters_of(e.symbol))
        z = push(point)
        probes = [push(q) for q in space.ball_net(point, delta, 6)]
        diam = space.set_diameter(probes)
        bound = 2.0 * delta * lip_p / lam_p**i
        if diam < tol or bound < tol:
            return z, PointDiagnostics(i + 1, min(diam, bound))
    raise ConvergenceError(x, 2.0 * delta * lip_p / lam_p**max_depth, max_depth)


def conjugacy_map_steps(ps, net, tol: float, max_depth: int) -> tuple:
    """`stability.conjugacy_map` before its points' code steps were taken
    together: phi at each net point, then at each generator image whose phi
    is not known yet, each by `conjugacy_steps` from its own greedy first
    step.  Returns (entries, extra, failures): entries as (x, phi,
    iterations, stop bound), extra as {image: phi} and failures as
    (point, message), in the order the table records them."""
    base, delta = ps.base, ps.datum.delta
    entries, extra, failures, known = [], {}, [], {}

    def phi(x):
        try:
            first = greedy_step(ps.datum, base, x, delta)
            return conjugacy_steps(ps, x, first, tol, max_depth)
        except (ConvergenceError, CodingError) as err:
            failures.append((x, str(err)))
            return None

    for x in net:
        result = phi(x)
        if result is not None:
            entries.append((x, result[0], result[1].iterations, result[1].stop_bound))
            known.setdefault(x, result[0])
    for s in base.generators():
        for x in net:
            y = base.apply(s, x)
            if y in known:
                continue
            result = phi(y)
            if result is not None:
                extra[y] = known[y] = result[0]
    return entries, extra, failures


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


# ---------------------------------------------------------------------------
# the verification checks one sampled pair at a time


def _point_pairs(points: list, count: int) -> list:
    """`expansion._sample_pairs` as the pairs of points it indexes."""
    n = len(points)
    if n < 2:
        return []
    count = max(count, 1)
    i, j = strided_pairs(n, max(1, (n * (n - 1) // 2) // count))
    return [(points[a], points[b]) for a, b in zip(i[:count].tolist(), j[:count].tolist())]


def pair_check_rows(view, datum, tol: float = 1e-9) -> list:
    """The `lipschitz` and `expansion` rows of `expansion.verify_expansion`
    from its loops before they read pairs as index arrays: every image point
    on its own, each letter map by `Space.apply_maps` and each expanding
    inverse label by the view's `apply_word`."""
    space = view.space
    samples = space.neighborhood(datum.net, datum.delta)
    for e in datum.nonempty_entries():
        samples.extend(e.region.sample(8))
    pairs = _point_pairs(samples, PAIR_COUNT)
    letters = view.system.alphabet.signed_letters()
    worst_lip, lip_witness = math.inf, ""
    for letter in letters:
        for x, y in pairs:
            d0 = space.raw_distance(x.value, y.value)
            if d0 < 1e-13:
                continue
            fx, fy = (space.apply_maps((view.maps[letter],), p) for p in (x, y))
            slack = datum.lip * d0 - space.raw_distance(fx.value, fy.value)
            if slack < worst_lip:
                worst_lip, lip_witness = slack, f"letter={letter} x={x.value} y={y.value}"
    checks = [CheckResult(
        "lipschitz", worst_lip >= -tol, worst_lip, len(pairs) * len(letters),
        witness=lip_witness if worst_lip < -tol else "",
    )]
    worst_exp, exp_witness, n_exp = math.inf, "", 0
    for e in datum.nonempty_entries():
        inv_word = groups.inverse(e.symbol)
        inside = [p for p in samples if e.region.margin(p) > 0]
        inside.extend(e.region.sample(12))
        for x, y in _point_pairs(inside, PAIR_COUNT // 2):
            d0 = space.raw_distance(x.value, y.value)
            if d0 < 1e-13:
                continue
            fx, fy = view.apply_word(inv_word, x), view.apply_word(inv_word, y)
            slack = space.raw_distance(fx.value, fy.value) - datum.lam * d0
            n_exp += 1
            if slack < worst_exp:
                worst_exp, exp_witness = slack, f"entry={e.index} x={x.value} y={y.value}"
    checks.append(CheckResult(
        "expansion", worst_exp >= -tol, worst_exp if n_exp else 0.0, n_exp,
        witness=exp_witness if worst_exp < -tol else "",
    ))
    return VerificationReport(tuple(checks)).rows()


def ball_condition_rows(view, datum, tol: float = 1e-9) -> list:
    """The `ball-condition` row of `expansion.verify_expansion` on a space
    that is not geodesic, from its loop before it read index arrays: for
    each eta, entry, center x and sample z, one image of x and one of z by
    the view's `apply_word`, taken anew each time."""
    space = view.space
    samples = space.neighborhood(datum.net, datum.delta)
    for e in datum.nonempty_entries():
        samples.extend(e.region.sample(8))
    worst, witness, n = math.inf, "", 0
    for eta in (datum.delta, datum.delta / 2, datum.delta / 4):
        for e in datum.nonempty_entries():
            inv_word = groups.inverse(e.symbol)
            centers = [x for x in datum.net if scalar_margin(e.region, x) >= eta][:10]
            for x in centers:
                fx = view.apply_word(inv_word, x)
                for z in samples:
                    if space.raw_distance(z.value, fx.value) >= datum.lam * eta:
                        continue
                    back = view.apply_word(e.symbol, z)
                    slack = eta - space.raw_distance(back.value, x.value)
                    n += 1
                    if slack < worst:
                        worst, witness = slack, f"entry={e.index} x={x.value} z={z.value}"
    return VerificationReport((CheckResult(
        "ball-condition", worst >= -tol if n else True, worst if n else 0.0, n,
        witness=witness if n and worst < -tol else "",
    ),)).rows()


# ---------------------------------------------------------------------------
# margins one region and one point at a time, and the code steps on them


def _cylinder_margin(region, x) -> float:
    m = len(region.prefix)
    inner = region.space.a ** (-m)
    c = common_prefix_len(x.value, region.prefix)
    if c == m:
        return inner
    return inner - region.space.a ** (-c)


def _component_margin(region, x) -> float:
    idx, val = x.value
    if idx == region.component:
        return scalar_margin(region.inner, Point(region.space.components[idx], val))
    return region.inner.peak - region.space.separation


# each kind's margin before the offset, as each computed it one point at a time
BASE_MARGINS = {
    ArcRegion: lambda region, x: region.half_width - circle_dist(x.value, region.center),
    BallRegion: lambda region, x: region.radius - distance(region.space, x, region.center),
    CylinderRegion: _cylinder_margin,
    EmptyRegion: lambda region, x: -region.space.diameter,
    ComponentRegion: _component_margin,
    ClippedRegion: lambda region, x: min(
        scalar_margin(region.inner, x), region.radius - min(distance(region.space, x, p) for p in region.net)
    ),
}


def scalar_margin(region, x) -> float:
    """The margin of one region at one point by its kind's scalar formula."""
    return BASE_MARGINS[type(region)](region, x) - region.offset


def scalar_lebesgue(regions, net) -> tuple:
    """The Lebesgue number and its first worst point, one net point at a time."""
    worst, witness = math.inf, None
    for x in net:
        best = max((scalar_margin(reg, x) for reg in regions), default=-math.inf)
        if best < worst:
            worst, witness = best, x
    return worst, witness


def admissible_entries(datum, x, eta: float) -> list:
    return [e for e in datum.entries if scalar_margin(e.region, x) >= eta]


def greedy_entry(datum, x, eta: float, reverse_ties: bool = False):
    """The greedy entry at x, each entry's margin asked on its own."""
    best, best_margin = None, -math.inf
    entries = datum.entries if not reverse_ties else tuple(reversed(datum.entries))
    for e in entries:
        m = scalar_margin(e.region, x)
        if m > best_margin + 1e-15:
            best, best_margin = e, m
    if best is None or best_margin < eta:
        raise CodingError(
            f"no cover member admits an eta-ball at {x} (best margin {best_margin:.3e}, eta {eta:.3e})"
        )
    return best


def snap_angle(map_obj, theta_in: float, theta_out: float) -> float:
    """`zoo.snap_angles` of one angle: the first pinned angle of the map
    within SNAP_TOL of the input, else the output."""
    for f in map_obj.pinned_angles:
        if circle_dist(theta_in, f) < SNAP_TOL:
            return f
    return theta_out


def code_step(system, entry, x):
    """One code step from x by the entry's backward word, one point at a
    time: the point a `coding.make_codes` row reaches."""
    inv, letter = entry.backward
    y = system.apply(inv, x)
    if letter is not None and system.space.angular:
        snapped = snap_angle(system.letter_maps[letter], x.value, y.value)
        if snapped != y.value:
            return system.space.point(snapped)
    return y


def greedy_step(datum, system, x, eta: float) -> tuple:
    """One greedy code step: (chosen entry, next point)."""
    e = greedy_entry(datum, x, eta)
    return e, code_step(system, e, x)


def enumerate_codes_loop(datum, system, eta: float, x, depth: int, cap: int) -> tuple:
    """`coding.enumerate_codes` branch by branch, each branch's admissible
    entries asked one entry at a time."""
    truncated = False
    branches = [([e.index], [x, code_step(system, e, x)]) for e in datum.entries]
    if len(branches) > cap:
        branches, truncated = branches[:cap], True
    for _ in range(depth - 1):
        nxt = []
        for alphas, points in branches:
            for e in admissible_entries(datum, points[-1], eta):
                nxt.append((alphas + [e.index], points + [code_step(system, e, points[-1])]))
        if len(nxt) > cap:
            nxt, truncated = nxt[:cap], True
        branches = nxt
    entry_map = _entry_map(datum)
    codes = [
        Code(tuple(a), tuple(p), scalar_margin(entry_map[a[0]].region, x) >= eta)
        for a, p in branches
    ]
    return codes, truncated


def circular_runs_loop(mask) -> list:
    """`expansion._circular_runs` one mask entry at a time."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    off = int(np.argmin(mask))
    rolled = np.roll(mask, -off)
    runs, start = [], None
    for i, m in enumerate(rolled):
        if m and start is None:
            start = i
        elif not m and start is not None:
            runs.append(((start + off) % n, i - start))
            start = None
    if start is not None:
        runs.append(((start + off) % n, n - start))
    return runs


# ---------------------------------------------------------------------------
# evaluation one vector and one component at a time


def tangent_basis(v: np.ndarray) -> list:
    """Orthonormal basis of the tangent space at the unit vector v (its
    orthogonal complement), by Gram-Schmidt over the coordinate axes, one
    vector at a time; near an axis, where one pass is not orthonormal, every
    axis is projected twice.  The reference for
    `ProjectiveSpace.tangent_frames`."""
    for passes in (1, 2):
        basis = []
        for e in np.eye(len(v)):
            u = e
            for _ in range(passes):
                u = u - (u @ v) * v
                for b in basis:
                    u = u - (u @ b) * b
            norm = np.linalg.norm(u)
            if norm > 1e-9:
                basis.append(u / norm)
        frame = np.array([v, *basis])
        if len(basis) == len(v) - 1 and np.abs(frame @ frame.T - np.eye(len(v))).max() < 1e-9:
            return basis
    return basis


def product_apply(system, g: Word, x: Point) -> Point:
    """The component rule of a product word: (w1, w2, b) applies the
    component word of the copy the point ends on, through that component
    system, after the swap when b is set.  The reference for a product word
    acting by its letters."""
    w1, w2, bit = g.data
    idx, val = x.value
    if bit:
        idx = 1 - idx
    component = system.components[idx]
    inner = component.apply((w1, w2)[idx], Point(component.space, val))
    return system.space.point((idx, inner.value))
