"""Symbolic codes and rays, nested image neighborhoods, hyperbolicity
certificates, and the coding map to the boundary.

A code (alpha, p) tracks a limit point x = p_0 through the cover: at every
step the inverse of the chosen label is applied, p_{i+1} = rho(s^-1)(p_i),
and for i >= 1 the eta-ball at p_i must sit inside the chosen region.  The
initial label is free, so rays for the same point may disagree in their
first letter.  Rays are read as edge paths in the Cayley graph starting at
the identity; fellow-travel distances compare those vertex sets.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import groups, zoo
from .expansion import ActionView, CoverEntry, ExpansionDatum
from .geometry import Point, Value
from .groups import BoundaryWord, boundary_prefix
from .zoo import ActionSystem


class CodingError(ValueError):
    """No admissible cover member at a code step (datum/net inconsistency)."""


class Code(NamedTuple):
    """Itinerary (alpha, p): entry indices and the tracked backward orbit."""

    alphas: tuple  # entry indices, length n+1
    points: tuple  # p_0..p_{n+1}, length n+2
    special: bool


class Ray(Value):
    """Group-element sequence c_i = s_{alpha(0)} ... s_{alpha(i)}; its
    length is the number of words."""

    __slots__ = _fields = ("words",)

    def __init__(self, words: tuple):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)


def _entry_map(datum: ExpansionDatum) -> dict:
    return {e.index: e for e in datum.entries}


def _admissible_entries(datum: ExpansionDatum, x: Point, eta: float) -> list:
    return [e for e in datum.entries if e.region.margin(x) >= eta]


def _greedy_entry(datum: ExpansionDatum, x: Point, eta: float, reverse_ties: bool = False):
    best, best_margin = None, -math.inf
    entries = datum.entries if not reverse_ties else tuple(reversed(datum.entries))
    for e in entries:
        m = e.region.margin(x)
        if m > best_margin + 1e-15:
            best, best_margin = e, m
    if best is None or best_margin < eta:
        raise CodingError(
            f"no cover member admits an eta-ball at {x} (best margin {best_margin:.3e}, eta {eta:.3e})"
        )
    return best


def _step(view: ActionView, entry: CoverEntry, x: Point) -> Point:
    inv, letter = entry.backward
    y = view.apply_word(inv, x)
    # stabilize backward orbits on the circle: expanding steps amplify float
    # noise, so points that reached a fixed angle of the applied map are
    # pinned there
    if view.perturbed is None and letter is not None and view.space.angular:
        snapped = zoo.snap_angle(view.maps[letter], x.value, y.value)
        if snapped != y.value:
            return view.space.point(snapped)
    return y


def greedy_step(datum: ExpansionDatum, view: ActionView, x: Point, eta: float) -> tuple:
    """One greedy code step: (chosen entry, next point)."""
    e = _greedy_entry(datum, x, eta)
    return e, _step(view, e, x)


def make_code(
    datum: ExpansionDatum,
    system: ActionSystem | ActionView,
    eta: float,
    x: Point,
    depth: int,
    reverse_ties: bool = False,
) -> Code:
    """Greedy special code for x: maximal margin at every step, the initial
    label included, and the smallest entry index on ties (the largest with
    `reverse_ties`)."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    if not 0.0 < eta <= datum.delta:
        raise CodingError(f"eta must lie in (0, delta={datum.delta}], got {eta}")
    alphas, points = [], [x]
    for _ in range(depth):
        e = _greedy_entry(datum, points[-1], eta, reverse_ties)
        alphas.append(e.index)
        points.append(_step(view, e, points[-1]))
    return Code(tuple(alphas), tuple(points), True)


def enumerate_codes(
    datum: ExpansionDatum,
    system: ActionSystem | ActionView,
    eta: float,
    x: Point,
    depth: int,
    cap: int,
) -> tuple:
    """All admissible codes to the given depth, breadth-first; every entry is
    allowed as the initial label.  Returns (codes, truncated)."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not 0.0 < eta <= datum.delta:
        raise CodingError(f"eta must lie in (0, delta={datum.delta}], got {eta}")
    truncated = False
    branches = [([e.index], [x, _step(view, e, x)]) for e in datum.entries]
    if len(branches) > cap:
        branches, truncated = branches[:cap], True
    for _ in range(depth - 1):
        nxt = []
        for alphas, points in branches:
            for e in _admissible_entries(datum, points[-1], eta):
                nxt.append((alphas + [e.index], points + [_step(view, e, points[-1])]))
        if len(nxt) > cap:
            nxt, truncated = nxt[:cap], True
        branches = nxt
    entry_map = _entry_map(datum)
    codes = [
        Code(tuple(a), tuple(p), entry_map[a[0]].region.margin(x) >= eta)
        for a, p in branches
    ]
    return codes, truncated


def code_ray(datum: ExpansionDatum, code: Code) -> Ray:
    entry_map = _entry_map(datum)
    words = []
    current = None
    for i, a in enumerate(code.alphas):
        sym = entry_map[a].symbol
        nxt = sym if current is None else groups.multiply(current, sym)
        # letters past the free initial one never cancel; a violation here
        # means the datum pairs a region with the wrong generator label
        if i >= 2 and groups.word_length(nxt) != groups.word_length(current) + groups.word_length(sym):
            raise CodingError(f"ray letter {sym} cancels at step {i}")
        current = nxt
        words.append(current)
    return Ray(tuple(words))


# ---------------------------------------------------------------------------
# nested neighborhoods


def _word_pushers(view: ActionView, datum: ExpansionDatum, code: Code) -> list:
    """Per-depth evaluators z -> rho(c_i)(z): the prefixes of one growing
    `zoo.WordPush` where it composes the maps, so pushing many ball points
    stays cheap, and otherwise the reduced ray words."""
    push = zoo.WordPush(view.space, view.maps)
    if push.matrix is None:
        return [lambda z, w=w: view.apply_word(w, z) for w in code_ray(datum, code).words]
    entry_map, pushers = _entry_map(datum), []
    for a in code.alphas:
        push = push.grown(groups.letters_of(entry_map[a].symbol))
        pushers.append(push)
    return pushers


def nested_images(
    system: ActionSystem | ActionView, datum: ExpansionDatum, code: Code, eta: float
) -> list:
    """Diameters of the image neighborhoods rho(c_i)[B_eta(p_{i+1})], one per
    step of the code."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    space = view.space
    code_ray(datum, code)  # raises on a datum whose ray letters cancel
    pushers = _word_pushers(view, datum, code)
    return [
        space.set_diameter([push(z) for z in space.ball_net(p, eta)])
        for push, p in zip(pushers, code.points[1:])
    ]


# ---------------------------------------------------------------------------
# fellow traveling


def _path_vertices(ray: Ray) -> list:
    # the ray's edge path in the Cayley graph starts at the identity
    return [ray.words[0].alphabet.identity()] + list(ray.words)


class RayTable:
    """Nearest-partner word distances between the path vertices of some rays.

    One `groups.distance_table` over every path vertex of every ray is
    reduced at once to two minima arrays, and then dropped.  For rays a, b
    and a vertex v of a's path, ``whole[a, b, v]`` is the distance to the
    nearest vertex of b's path, and ``tail[a, b, v]`` the distance to the
    nearest vertex of b's tail half (path index ``1 + len(words)//2`` on).
    A minimum is `groups.UNKNOWN` when every distance in it is.  Shorter
    paths are padded with their last vertex, which no minimum reads.
    """

    def __init__(self, rays: Sequence[Ray], cap: int = 64):
        self.rays = list(rays)
        paths = [_path_vertices(r) for r in self.rays]
        self.lens = [[groups.word_length(w) for w in p] for p in paths]
        self.tail_start = [1 + len(r.words) // 2 for r in self.rays]
        sizes = np.array([len(p) for p in paths], dtype=int)
        k, width = len(paths), int(sizes.max(initial=0))
        flat = [w for p in paths for w in p + p[-1:] * (width - len(p))]
        table = groups.distance_table(flat, flat, cap).reshape(k, width, k, width)
        position = np.arange(width)
        in_path = position < sizes[:, None]
        in_tail = in_path & (position >= np.array(self.tail_start, dtype=int)[:, None])
        # axes (a, v, b, w): reduce over w, then store as (a, b, v)
        self.whole, self.tail = (
            table.min(axis=3, initial=groups.UNKNOWN, where=pool).transpose(0, 2, 1)
            for pool in (in_path, in_tail)
        )
        # the first ray with the same words
        seen = {}
        self.first = [seen.setdefault(r.words, i) for i, r in enumerate(self.rays)]

    def index(self, ray: Ray) -> int:
        for i, r in enumerate(self.rays):
            if r is ray or r.words == ray.words:
                return i
        raise ValueError("pool must contain both rays")

    def tail_close(self, a: int, b: int, n: int) -> bool:
        """Every tail vertex of a and of b inside the common word-length
        window, shrunk by n at both ends, has a tail partner within n; False
        when either window is empty."""
        sides = [
            (self.lens[s][self.tail_start[s] :], self.tail[s, t, self.tail_start[s] :].tolist())
            for s, t in ((a, b), (b, a))
        ]
        lo = max(min(lens) for lens, _ in sides) + n
        hi = min(max(lens) for lens, _ in sides) - n
        windows = [[m for k, m in zip(lens, near) if lo <= k <= hi] for lens, near in sides]
        return all(windows) and max(map(max, windows)) <= n


def _within(near: list, lens: list, top: int, n: int) -> Optional[bool]:
    """Every vertex of word length at most `top` has a partner within n; None
    when the first vertex without one has no known distance at all."""
    for m, k in zip(near, lens):
        if k <= top and m > n:
            return None if m == groups.UNKNOWN else False
    return True


def fellow_travel_distance(
    rayA: Ray, rayB: Ray, cap: int = 64, table: RayTable | None = None
) -> Optional[int]:
    """Fellow-travel constant of the two edge paths (identity included).

    Finite truncations need care at the far end: the smallest N is returned
    such that every vertex of word length at most (common horizon - N) has a
    partner within N on the other path.  The N-margin keeps the extra
    progress of a longer truncation from registering as divergence; on
    genuinely fellow-traveling rays this agrees with the Hausdorff distance
    of the full paths.  None when a needed word metric exceeds the cap.
    Distances are read from `table`, a RayTable holding both rays; without
    one, a table of the two rays is built.
    """
    if table is None:
        table = RayTable((rayA, rayB), cap)
    a, b = table.index(rayA), table.index(rayB)
    len_a, len_b = table.lens[a], table.lens[b]
    near_ab, near_ba = table.whole[a, b].tolist(), table.whole[b, a].tolist()
    horizon = min(max(len_a), max(len_b))
    for n in range(horizon + 2):
        for near, lens in ((near_ab, len_a), (near_ba, len_b)):
            verdict = _within(near, lens, horizon - n, n)
            if verdict is None:
                return None
            if not verdict:
                break
        else:
            return n
    return None


def n_equivalence(
    rayA: Ray,
    rayB: Ray,
    pool: Sequence[Ray],
    n: int,
    max_chain: int = 3,
    cap: int = 64,
    table: RayTable | None = None,
) -> tuple:
    """Chain of tail-close steps from rayA to rayB through the pool.

    Returns (found, chain) where the chain lists the interpolating rays
    inclusive of both ends.  `table` is the RayTable of the pool, built here
    when not given.
    """
    pool = list(pool)
    if table is None:
        table = RayTable(pool, cap)
    elif table.rays != pool:
        raise ValueError("table must hold exactly the pool")
    start, goal = table.index(rayA), table.first[table.index(rayB)]
    if table.first[start] == goal:
        return True, (rayA,)
    frontier = [(start, (rayA,))]
    seen = {table.first[start]}
    for _ in range(max_chain):
        nxt = []
        for current, chain in frontier:
            for j, cand in enumerate(pool):
                if table.first[j] in seen:
                    continue
                if table.tail_close(current, j, n):
                    new_chain = chain + (cand,)
                    if table.first[j] == goal:
                        return True, new_chain
                    seen.add(table.first[j])
                    nxt.append((j, new_chain))
        frontier = nxt
        if not frontier:
            break
    return False, None


# ---------------------------------------------------------------------------
# certificates


class Certificate(NamedTuple):
    """Desk-scale hyperbolicity certificate over a sampled net.

    fellow_constant: max Hausdorff distance between same-point rays;
    chain_constant: least N at which all same-point ray pairs connect by
    tail-close chains (with the recorded max chain steps); both None when the
    bound could not be established within n_max.
    """

    fellow_constant: Optional[int]
    chain_constant: Optional[int]
    chain_steps: int
    n_max: int
    truncated: bool
    points_checked: int
    rays_per_point: tuple
    worst_pair: Optional[tuple]  # (point, ray index, ray index, distance)

    @property
    def fellow_ok(self) -> bool:
        return self.fellow_constant is not None and self.fellow_constant <= self.n_max

    @property
    def chain_ok(self) -> bool:
        return self.chain_constant is not None


def shyp_certificate(
    system: ActionSystem | ActionView,
    datum: ExpansionDatum,
    net: Sequence[Point] | None = None,
    depth: int = 20,
    cap: int = 200,
    n_max: int = 8,
    max_chain: int = 3,
    metric_cap: int = 64,
) -> Certificate:
    """Enumerate all codes at each net point and certify the fellow-travel
    constant, falling back to chain equivalence when plain fellow traveling
    exceeds the requested bound."""
    view = system if isinstance(system, ActionView) else ActionView(system)
    net = list(datum.net if net is None else net)
    truncated = False
    all_rays = []
    for x in net:
        codes, trunc = enumerate_codes(datum, view, datum.delta, x, depth, cap)
        truncated = truncated or trunc
        all_rays.append([code_ray(datum, c) for c in codes])

    # one table per point; its minima answer every pair at every n
    tables = [RayTable(rays, metric_cap) for rays in all_rays]
    fellow, worst_pair = 0, None
    fellow_known = True
    for x, rays, table in zip(net, all_rays, tables):
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                d = fellow_travel_distance(rays[i], rays[j], metric_cap, table)
                if d is None:
                    fellow_known = False
                    continue
                if d > fellow:
                    fellow, worst_pair = d, (x, i, j, d)

    chain_constant = None
    if fellow_known and fellow <= n_max:
        chain_candidates = range(0, fellow + 1)
    else:
        chain_candidates = range(0, n_max + 1)
    for n in chain_candidates:
        ok = True
        for rays, table in zip(all_rays, tables):
            for i in range(len(rays)):
                for j in range(i + 1, len(rays)):
                    found, _ = n_equivalence(
                        rays[i], rays[j], rays, n, max_chain, metric_cap, table
                    )
                    if not found:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            chain_constant = n
            break

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
# the coding map


def coding_map(
    system: ActionSystem | ActionView,
    datum: ExpansionDatum,
    x: Point,
    prefix_depth: int,
) -> BoundaryWord:
    """Boundary point of the greedy special ray for x, as a reduced prefix.

    Only free and cyclic presentations carry a boundary here; the result is
    cross-checked against the reversed-tie greedy code and flagged
    unstabilized if the two prefixes disagree.
    """
    view = system if isinstance(system, ActionView) else ActionView(system)
    kind = view.alphabet.kind
    if kind not in (groups.FREE, groups.CYCLIC):
        raise ValueError(
            f"coding map needs a free or cyclic presentation, not {kind}"
        )
    depth = prefix_depth + 8
    code = make_code(datum, view, datum.delta, x, depth)
    ray = code_ray(datum, code)
    primary = boundary_prefix(ray.words, prefix_depth)
    alt_code = make_code(datum, view, datum.delta, x, depth, reverse_ties=True)
    alt = boundary_prefix(code_ray(datum, alt_code).words, prefix_depth)
    if alt.prefix != primary.prefix:
        return BoundaryWord(primary.prefix, False)
    return primary
