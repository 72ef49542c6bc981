"""Symbolic codes and rays, nested image neighborhoods, hyperbolicity
certificates, and the coding map to the boundary.

A code (alpha, p) tracks a limit point x = p_0 through the cover: at every
step the inverse of the chosen label is applied, p_{i+1} = rho(s^-1)(p_i),
and for i >= 1 the eta-ball at p_i must sit inside the chosen region.  The
initial label is free, so rays for the same point may disagree in their
first letter.  Rays are read as edge paths in the Cayley graph starting at
the identity; fellow-travel distances compare those vertex sets.  The greedy
codes of many points are stepped together, one margin matrix per depth
(`make_codes`).
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import groups, zoo
from .expansion import ExpansionDatum
from .geometry import Point, Value, margin_matrix, margin_values
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
    """Group-element sequence c_i = s_{alpha(0)} ... s_{alpha(i)}, held as
    its letters s_i (s_0 = c_0, s_i = c_{i-1}^-1 c_i): O(depth) words where
    the prefixes c_i take O(depth^2) letters.  Reading `words` multiplies
    the prefixes out once and keeps them with the ray; the length is the
    number of words."""

    __slots__ = ("symbols", "_words")
    _fields = ("symbols",)

    def __init__(self, symbols: Iterable):
        self.symbols, self._words = tuple(symbols), None

    @property
    def words(self) -> tuple:
        if self._words is None:
            self._words = tuple(itertools.accumulate(self.symbols, groups.multiply))
        return self._words

    def __len__(self) -> int:
        return len(self.symbols)


def _entry_map(datum: ExpansionDatum) -> dict:
    return {e.index: e for e in datum.entries}


class CodeSteps(NamedTuple):
    """A block of greedy code steps from a point: the chosen entries, the
    points p_1..p_k they lead to, and the CodingError of the step after
    them when no cover member admitted it (else None)."""

    entries: list
    points: list
    error: Optional[CodingError]


def _take(values, rows: np.ndarray):
    """The values at the given rows: angle arrays index at once, the lists of
    other spaces one row at a time."""
    return values[rows] if isinstance(values, np.ndarray) else [values[r] for r in rows.tolist()]


def _listed(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


def _moved(datum: ExpansionDatum, system: ActionSystem, k: int, values):
    """The values under the backward word of entry k (`system.apply_values`).
    On the circle a value that started within SNAP_TOL of a fixed angle of a
    one-letter word's map is pinned there (`zoo.snap_angles`): expanding
    steps amplify float noise, and the pin keeps the orbits of fixed angles
    constant."""
    inv, letter = datum.entries[k].backward
    images = system.apply_values(inv, values)
    if letter is not None and system.space.angular:
        images = zoo.snap_angles(system.letter_maps[letter], values, images)
    return images


def _stepped(datum: ExpansionDatum, system: ActionSystem, chosen: np.ndarray, values):
    """The values one code step on: row r's value moved by entry chosen[r],
    each entry's word applied once to the values of every row that chose it."""
    keys = sorted(set(chosen.tolist()))
    if len(keys) == 1:
        return _moved(datum, system, keys[0], values)
    members = [np.flatnonzero(chosen == k) for k in keys]
    moved = [_moved(datum, system, k, _take(values, rows)) for k, rows in zip(keys, members)]
    if isinstance(values, np.ndarray):
        out = np.empty(len(chosen))
        for rows, images in zip(members, moved):
            out[rows] = images
        return out
    out = [None] * len(chosen)
    for rows, images in zip(members, moved):
        for r, v in zip(rows.tolist(), images):
            out[r] = v
    return out


class Codes:
    """Greedy special codes of many points (`make_codes`), read one row, that
    is one point, at a time.  A row keeps its chosen entry positions and the
    values of its backward orbit as plain lists, and the text of the
    CodingError of the step that found no cover member, which reading its
    code raises; points and errors are made only when a row is read."""

    __slots__ = ("datum", "space", "points", "alphas", "orbits", "errors")

    def __init__(self, datum, space, points, alphas, orbits, errors):
        self.datum, self.space, self.points = datum, space, points
        self.alphas, self.orbits, self.errors = alphas, orbits, errors

    def steps(self, row: int) -> CodeSteps:
        entries = [self.datum.entries[k] for k in self.alphas[row]]
        error = self.errors.get(row)
        return CodeSteps(
            entries, [Point(self.space, v) for v in self.orbits[row]], None if error is None else CodingError(error)
        )

    def code(self, row: int) -> Code:
        entries, points, error = self.steps(row)
        if error is not None:
            raise error
        return Code(tuple(e.index for e in entries), (self.points[row], *points), True)


def make_codes(
    datum: ExpansionDatum,
    system: ActionSystem,
    eta: float,
    points: Sequence[Point],
    depth: int,
    reverse_ties: bool = False,
) -> Codes:
    """Greedy special codes of the points to the given depth, stepped
    together: maximal margin at every step, the initial label included, and
    the smallest entry index on ties (the largest with `reverse_ties`).

    Each depth takes one margin matrix over the rows still live.  Its
    columns are scanned in entry order (backwards with `reverse_ties`): an
    entry replaces a row's best only when its margin is more than 1e-15
    above the best's, which is the scan of one row at a time.  Each chosen
    entry's backward word is then applied once (`_stepped`).  A row whose
    best margin is below eta leaves with the text of its CodingError."""
    if not 0.0 < eta <= datum.delta:
        raise CodingError(f"eta must lie in (0, delta={datum.delta}], got {eta}")
    space, regions = system.space, [e.region for e in datum.entries]
    order = range(len(regions) - 1, -1, -1) if reverse_ties else range(len(regions))
    live, values, levels, errors = np.arange(len(points)), space.values(points), [], {}
    for d in range(depth):
        if not len(live):
            break
        # the first matrix takes the points, which refuses a point of another space
        margins = margin_matrix(regions, points) if d == 0 else margin_values(regions, values)
        best, top = np.full(len(live), -1), np.full(len(live), -math.inf)
        for k in order:
            take = margins[:, k] > top + 1e-15
            best[take], top[take] = k, margins[take, k]
        failed = np.flatnonzero(top < eta).tolist()
        if failed:
            at = _listed(values)
            for i in failed:
                x = points[live[i]] if d == 0 else Point(space, at[i])
                errors[int(live[i])] = (
                    f"no cover member admits an eta-ball at {x} (best margin {top[i]:.3e}, eta {eta:.3e})"
                )
            kept = np.flatnonzero(top >= eta)
            live, best, values = live[kept], best[kept], _take(values, kept)
        values = _stepped(datum, system, best, values)
        levels.append((live, best, values))
    alphas, orbits = [[] for _ in points], [[] for _ in points]
    for rows, chosen, stepped in levels:
        for r, k, v in zip(rows.tolist(), chosen.tolist(), _listed(stepped)):
            alphas[r].append(k)
            orbits[r].append(v)
    return Codes(datum, space, points, alphas, orbits, errors)


def make_code(
    datum: ExpansionDatum,
    system: ActionSystem,
    eta: float,
    x: Point,
    depth: int,
    reverse_ties: bool = False,
) -> Code:
    """The greedy special code of one point (`make_codes`)."""
    return make_codes(datum, system, eta, [x], depth, reverse_ties).code(0)


def enumerate_codes(
    datum: ExpansionDatum,
    system: ActionSystem,
    eta: float,
    x: Point,
    depth: int,
    cap: int,
) -> tuple:
    """All admissible codes to the given depth, breadth-first; every entry is
    allowed as the initial label.  Returns (codes, truncated)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not 0.0 < eta <= datum.delta:
        raise CodingError(f"eta must lie in (0, delta={datum.delta}], got {eta}")
    space, regions, truncated = system.space, [e.region for e in datum.entries], False
    # an entry admits the eta-ball at a point where its margin is at least
    # eta; the first level takes every entry at x
    branches, values = [([], [x])], space.values([x])
    parent, chosen = np.zeros(len(regions), dtype=int), np.arange(len(regions))
    for level in range(max(depth, 1)):
        if level:
            # (branch, entry position) of each new branch, in branch order and then entry order
            parent, chosen = np.nonzero(margin_values(regions, values) >= eta)
        if len(parent) > cap:
            parent, chosen, truncated = parent[:cap], chosen[:cap], True
        values = _stepped(datum, system, chosen, _take(values, parent))
        branches = [
            (branches[b][0] + [k], branches[b][1] + [Point(space, v)])
            for b, k, v in zip(parent.tolist(), chosen.tolist(), _listed(values))
        ]
    # a code is special when its free initial label is admissible at x
    special = {k: regions[k].margin(x) >= eta for k in {a[0] for a, _ in branches}}
    codes = [
        Code(tuple(datum.entries[k].index for k in a), tuple(p), special[a[0]]) for a, p in branches
    ]
    return codes, truncated


def code_ray(datum: ExpansionDatum, code: Code) -> Ray:
    entry_map = _entry_map(datum)
    ray = Ray(entry_map[a].symbol for a in code.alphas)
    lengths = [groups.word_length(w) for w in ray.words]
    # letters past the free initial one never cancel; a violation here
    # means the datum pairs a region with the wrong generator label
    for i in range(2, len(lengths)):
        if lengths[i] != lengths[i - 1] + groups.word_length(ray.symbols[i]):
            raise CodingError(f"ray letter {ray.symbols[i]} cancels at step {i}")
    return ray


# ---------------------------------------------------------------------------
# nested neighborhoods


def nested_images(system: ActionSystem, datum: ExpansionDatum, code: Code, eta: float) -> list:
    """Diameters of the image neighborhoods rho(c_i)[B_eta(p_{i+1})], one per
    step of the code: one `zoo.WordPush` grown by each entry symbol's
    letters, as the conjugacy grows its own, pushes the balls of every step
    through `space.push_balls`."""
    code_ray(datum, code)  # raises on a datum whose ray letters cancel
    if not code.alphas:
        return []
    entry_map, push, pushes = _entry_map(datum), zoo.WordPush(system.space, system.letter_maps), []
    for a in code.alphas:
        push = push.grown(groups.letters_of(entry_map[a].symbol))
        pushes.append(push)
    return [diam for _, diam in system.space.push_balls(pushes, code.points[1:], eta, 64)]


# ---------------------------------------------------------------------------
# fellow traveling


def _path_vertices(ray: Ray) -> list:
    # the ray's edge path in the Cayley graph starts at the identity
    return [ray.symbols[0].alphabet.identity(), *ray.words]


class RayTable:
    """Nearest-partner word distances between the path vertices of some
    rays, each ray addressed by its row: the rays' order.

    One `groups.distance_table` over every path vertex of every ray is
    reduced at once, and then dropped.  For rows a, b and a vertex v of a's
    path, ``whole[a, b, v]`` is the distance to the nearest vertex of b's
    path, `groups.UNKNOWN` when every distance in it is, and ``lens[a]``
    lists the word lengths along a's path.  Shorter paths are padded with
    their last vertex, which no minimum reads.

    Rows a and b are tail-close at n exactly when ``window[0, a, b] < n <=
    window[1, a, b]`` (`_tail_windows`), and ``first[a]`` is the first row
    with the same symbols.  The table keeps no ray: a certificate drops
    `whole` and `lens` once the point's fellow pass is done, so its chain
    search keeps only `window` and `first`.
    """

    __slots__ = ("lens", "whole", "window", "first")

    def __init__(self, rays: Sequence[Ray], cap: int = 64):
        paths = [_path_vertices(r) for r in rays]
        self.lens = [[groups.word_length(w) for w in p] for p in paths]
        sizes = np.array([len(p) for p in paths], dtype=int)
        k, width = len(paths), int(sizes.max(initial=0))
        flat = [w for p in paths for w in p + p[-1:] * (width - len(p))]
        table = groups.distance_table(flat, flat, cap).reshape(k, width, k, width)
        position = np.arange(width)
        in_path = position < sizes[:, None]
        # the tail half of a path of n words starts at index 1 + n // 2
        in_tail = in_path & (position >= 1 + (sizes[:, None] - 1) // 2)
        # axes (a, v, b, w): reduce over w, then read as (a, b, v)
        self.whole, tail = (
            table.min(axis=3, initial=groups.UNKNOWN, where=pool).transpose(0, 2, 1)
            for pool in (in_path, in_tail)
        )
        lens = [row + row[-1:] * (width - len(row)) for row in self.lens]
        self.window = _tail_windows(np.array(lens, np.int64).reshape(k, width), in_tail, tail)
        seen = {}
        self.first = [seen.setdefault(r.symbols, i) for i, r in enumerate(rays)]


_FLOOR, _CEILING = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _tail_windows(lens: np.ndarray, in_tail: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The n-interval (lower, upper] of tail closeness of every ray pair, as
    int32 of shape (2, k, k), from the word lengths along the paths, the
    tail mask and the tail minima ``tail[a, b, v]``.

    For rays a and b let [lo, hi] be the common range of their tail word
    lengths.  A tail vertex of length k lies in the window [lo + n, hi - n]
    exactly when n <= depth = min(k - lo, hi - k), and then lacks a partner
    within n exactly when n <= its minimum - 1.  So a's window is nonempty
    for n <= max(depth), and every vertex in it has a partner for
    n > max(min(depth, minimum - 1)); tail closeness asks both of a and b.
    """
    lo = lens.min(axis=1, initial=_CEILING, where=in_tail)
    hi = lens.max(axis=1, initial=_FLOOR, where=in_tail)
    lo, hi = np.maximum.outer(lo, lo), np.minimum.outer(hi, hi)
    depth = np.minimum(lens[:, None, :] - lo[:, :, None], hi[:, :, None] - lens[:, None, :])
    mask = in_tail[:, None, :]
    reach = depth.max(axis=2, initial=_FLOOR, where=mask)
    fails = np.minimum(depth, tail - 1).max(axis=2, initial=_FLOOR, where=mask)
    return np.array([np.maximum(fails, fails.T), np.minimum(reach, reach.T)], np.int32)


def _within(near: list, lens: list, top: int, n: int) -> Optional[bool]:
    """Every vertex of word length at most `top` has a partner within n; None
    when the first vertex without one has no known distance at all."""
    for m, k in zip(near, lens):
        if k <= top and m > n:
            return None if m == groups.UNKNOWN else False
    return True


def fellow_travel_distance(table: RayTable, a: int, b: int) -> Optional[int]:
    """Fellow-travel constant of the edge paths (identity included) of rows
    a and b of the table.

    Finite truncations need care at the far end: the smallest N is returned
    such that every vertex of word length at most (common horizon - N) has a
    partner within N on the other path.  The N-margin keeps the extra
    progress of a longer truncation from registering as divergence; on
    genuinely fellow-traveling rays this agrees with the Hausdorff distance
    of the full paths.  None when a needed word metric exceeds the table's
    cap.
    """
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


def _chain_reach(table: RayTable, n: int, max_chain: int) -> np.ndarray:
    """Boolean matrix over the table's ray classes, in row order: (p, q)
    when at most max_chain tail-close steps at n lead from class p to q.
    Tail closeness at n is one symmetric boolean matrix T, and the chains
    are the boolean power (I | T)^max_chain.  Over k classes a chain that
    joins two needs at most k - 1 steps, so the power stops growing there."""
    classes = sorted(set(table.first))
    lower, upper = table.window[:, classes][:, :, classes]
    step = (lower < n) & (n <= upper)
    np.fill_diagonal(step, True)
    reach = np.eye(len(classes), dtype=bool)
    for _ in range(min(max_chain, len(classes) - 1)):
        reach = reach @ step
    return reach


def n_equivalence(table: RayTable, n: int, max_chain: int = 3) -> tuple:
    """(joined pairs, pairs) over the distinct ray classes of the table: a
    pair joins when a chain of at most max_chain tail-close steps at n links
    it (`_chain_reach`)."""
    reach = _chain_reach(table, n, max_chain)
    k = len(reach)
    # count_nonzero, not a sum: summing bools casts through a 64 KB buffer
    return np.count_nonzero(np.triu(reach, 1)), k * (k - 1) // 2


# ---------------------------------------------------------------------------
# certificates


class Certificate(NamedTuple):
    """Desk-scale hyperbolicity certificate over a sampled net.

    fellow_constant: the largest fellow-travel distance between two rays of
    one net point, reported also above n_max (`fellow_ok` compares the
    two); None only when a word metric it needs exceeds metric_cap.
    chain_constant: the least candidate N at which every point joins all
    pairs of its distinct rays by chains of at most chain_steps tail-close
    steps (`n_equivalence`: the boolean power (I | T_N)^chain_steps of the
    point's tail-close matrix).  The candidates are 0..fellow_constant when
    that is known and at most n_max, else 0..n_max; None when no candidate
    chains every pair, which includes pairs whose tail windows, shrunk by N,
    are empty at this depth.  `fellow_ok` and `chain_ok` are both false when
    a net point has no ray: a bound over no rays certifies nothing.
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
        return all(self.rays_per_point) and self.fellow_constant is not None and self.fellow_constant <= self.n_max

    @property
    def chain_ok(self) -> bool:
        return all(self.rays_per_point) and self.chain_constant is not None


def shyp_certificate(
    system: ActionSystem,
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
    net = list(datum.net if net is None else net)
    truncated, fellow, worst_pair, fellow_known = False, 0, None, True
    # one point at a time: its codes, rays and table, then its fellow pass;
    # the rays die with their point, and the chain search below reads only
    # each table's tail windows and ray classes
    tables = []
    for x in net:
        codes, trunc = enumerate_codes(datum, system, datum.delta, x, depth, cap)
        truncated = truncated or trunc
        table = RayTable([code_ray(datum, c) for c in codes], metric_cap)
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                d = fellow_travel_distance(table, i, j)
                if d is None:
                    fellow_known = False
                elif d > fellow:
                    fellow, worst_pair = d, (x, i, j, d)
        table.whole = table.lens = None
        tables.append(table)

    top = fellow if fellow_known and fellow <= n_max else n_max
    chain_constant = next(
        (
            n
            for n in range(top + 1)
            if all(
                joined == pairs
                for joined, pairs in (n_equivalence(t, n, max_chain) for t in tables)
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
        rays_per_point=tuple(len(t.first) for t in tables),
        worst_pair=worst_pair,
    )


# ---------------------------------------------------------------------------
# the coding map


def require_boundary(system: ActionSystem) -> None:
    """Refuse a presentation that carries no boundary here: only free and cyclic ones do."""
    if system.alphabet.kind not in (groups.FREE, groups.CYCLIC):
        raise ValueError(f"coding map needs a free or cyclic presentation, not {system.alphabet.kind}")


def coding_map(
    system: ActionSystem,
    datum: ExpansionDatum,
    points: Sequence[Point],
    prefix_depth: int,
) -> list:
    """Boundary point of the greedy special ray of each point, as a reduced
    prefix.

    Only free and cyclic presentations carry a boundary here.  Each result
    is cross-checked against the reversed-tie greedy code and flagged
    unstabilized if the two prefixes disagree; the codes of all the points
    are stepped together, one `make_codes` call per tie order.  A point
    whose code fails raises its CodingError when its turn comes.
    """
    require_boundary(system)
    depth = prefix_depth + 8
    greedy, reversed_ties = (
        make_codes(datum, system, datum.delta, points, depth, reverse_ties) for reverse_ties in (False, True)
    )
    out = []
    for row in range(len(points)):
        primary = boundary_prefix(code_ray(datum, greedy.code(row)).words, prefix_depth)
        alt = boundary_prefix(code_ray(datum, reversed_ties.code(row)).words, prefix_depth)
        out.append(primary if alt.prefix == primary.prefix else BoundaryWord(primary.prefix, False))
    return out
