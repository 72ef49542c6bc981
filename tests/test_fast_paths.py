"""Exact fast paths against the slow loops they replace.

Each reference below is the loop the fast path replaced, kept here so the
fast path has an independent oracle; every comparison is exact (==, bit
patterns or object identity), never approximate.
"""
import functools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    ball_condition_rows,
    circular_runs_loop,
    code_step,
    conjugacy_map_steps,
    conjugacy_steps,
    enumerate_codes_loop,
    greedy_entry,
    greedy_step,
    pair_check_rows,
    scalar_lebesgue,
    scalar_margin,
    schottky_net_values,
    snap_angle,
    tangent_basis,
)

from expaction import coding, geometry, groups, zoo
from expaction.coding import CodingError, make_codes
from expaction.expansion import (
    LIP_SAFETY,
    SAFETY,
    ActionView,
    CheckResult,
    CoverEntry,
    ExpansionDatum,
    VerificationReport,
    _circular_runs,
    _sample_pairs,
    build_expansion_datum,
    strided_pairs,
    verify_expansion,
)
from expaction.geometry import (
    LEBESGUE_CHUNK,
    SCALAR_ANGLES,
    TAU,
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
    SpaceMismatchError,
    distance,
    is_reduced,
    lebesgue_number,
    letter_inverse,
    margin_matrix,
    margin_values,
)
from expaction.stability import (
    ConvergenceError,
    PerturbedSystem,
    conjugacy_map,
    conjugacy_point,
    lipschitz_distance,
    make_perturbed,
    net_pairs,
)

CIRCLES = [Circle(), CoveredCircle(degree=3)]
# angles that wrap to the ends of [0, TAU) and to exact ties
EDGE_ANGLES = [0.0, -0.0, 5e-324, 1e-15, math.pi, TAU, -1e-300, -1e-15,
               math.nextafter(TAU, 0.0), TAU - 1e-15]
ANGLES = st.one_of(st.floats(-1.0, TAU + 1.0), st.sampled_from(EDGE_ANGLES))


def _scan_nearest(space, x, net):
    return min(distance(space, x, p) for p in net)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    space=st.sampled_from(CIRCLES),
    values=st.lists(ANGLES, min_size=1, max_size=30),
    repeats=st.integers(0, 5),
    queries=st.lists(ANGLES, min_size=1, max_size=20),
)
def test_circle_nearest_net_point_equals_linear_scan(space, values, repeats, queries):
    # a zero-radius clip of the whole circle has margin minus the distance
    # to the nearest net point: the clip is never above the inner margin
    net = [space.point(v) for v in values]
    net += net[:repeats]  # duplicate net angles
    whole = ArcRegion(space=space, center=0.0, half_width=math.pi)
    region = ClippedRegion(space=space, inner=whole, net=tuple(net), radius=0.0)
    xs = [space.point(q) for q in queries + values]
    near = -margin_matrix([region], xs)[:, 0]
    assert near.tolist() == [_scan_nearest(space, x, net) for x in xs]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    space=st.sampled_from(CIRCLES),
    values=st.lists(ANGLES, min_size=1, max_size=30),
    center=ANGLES,
    half_width=st.floats(1e-6, math.pi),
    radius=st.floats(1e-6, 1.0),
    shrink=st.floats(0.0, 0.5),
    queries=st.lists(ANGLES, min_size=1, max_size=20),
    repeats=st.integers(0, 5),
)
def test_clipped_margin_equals_linear_scan(
    space, values, center, half_width, radius, shrink, queries, repeats
):
    # the clip takes the least distance to the net: queries at the ends of
    # [0, TAU), at net points, and nets with repeated angles
    net = tuple(space.point(v) for v in values)
    net += net[:repeats]
    inner = ArcRegion(space=space, center=space.point(center).value, half_width=half_width)
    region = ClippedRegion(space=space, inner=inner, net=net, radius=radius)
    if shrink:
        region = region.shrunk(shrink)
    for q in queries + values:
        x = space.point(q)
        expected = min(inner.margin(x), radius - _scan_nearest(space, x, net)) - region.offset
        assert region.margin(x) == expected


@st.composite
def _circle_cover(draw):
    space = draw(st.sampled_from(CIRCLES))
    regions = []
    for k in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            region = EmptyRegion(label=k, space=space)
        else:
            region = ArcRegion(
                label=k,
                space=space,
                center=space.point(draw(ANGLES)).value,
                half_width=draw(st.floats(1e-6, math.pi)),
            )
        shrink = draw(st.floats(0.0, 0.3))
        regions.append(region.shrunk(shrink) if shrink else region)
    return space, regions


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    cover=_circle_cover(),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(LEBESGUE_CHUNK + 1, 2 * LEBESGUE_CHUNK + 50),
    grid=st.booleans(),
)
def test_chunked_lebesgue_number_equals_scalar_loop(cover, seed, size, grid):
    space, regions = cover
    rng = np.random.default_rng(seed)
    if grid:  # few distinct angles: ties within and across chunks
        values = rng.integers(0, 16, size) * (TAU / 16)
    else:
        values = rng.uniform(0.0, TAU, size)
    # equal points as distinct objects, so the witness is told apart by identity
    net = [Point(space, space.normalize(v)) for v in values]
    value, witness = lebesgue_number(regions, net)
    ref_value, ref_witness = scalar_lebesgue(regions, net)
    assert type(value) is float
    assert value == ref_value
    assert witness is ref_witness


def test_chunked_lebesgue_number_keeps_first_tied_witness_across_chunks():
    space = Circle()
    regions = [ArcRegion(space=space, center=1.0, half_width=0.5)]
    inside = space.point(1.0)
    first, second = Point(space, 4.0), Point(space, 4.0)  # equal worst points
    net = [inside] * (LEBESGUE_CHUNK - 1) + [first] + [inside] * 5 + [second]
    value, witness = lebesgue_number(regions, net)
    assert (value, witness) == scalar_lebesgue(regions, net)
    assert witness is first


def test_lebesgue_number_of_mixed_region_kinds_equals_the_scalar_loop():
    space = Circle()
    net = tuple(space.point(v) for v in np.linspace(0.0, 6.0, 50))
    clipped = ClippedRegion(
        space=space, inner=ArcRegion(space=space, center=2.0, half_width=1.0),
        net=net[:10], radius=0.3,
    )
    regions = [clipped, ArcRegion(space=space, center=5.0, half_width=1.5)]
    value, witness = lebesgue_number(regions, net)
    ref_value, ref_witness = scalar_lebesgue(regions, net)
    assert value == ref_value and witness is ref_witness
    assert lebesgue_number(regions, []) == (math.inf, None)


# ---------------------------------------------------------------------------
# sampled pairs


def _all_pairs_strided(n, stride):
    k, out = 0, []
    for i in range(n):
        for j in range(i + 1, n):
            if k % stride == 0:
                out.append((i, j))
            k += 1
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(0, 60), stride=st.integers(1, 2000))
def test_strided_pairs_equal_the_all_pairs_enumeration(n, stride):
    i, j = strided_pairs(n, stride)
    assert list(zip(i.tolist(), j.tolist())) == _all_pairs_strided(n, stride)


def _old_sample_pairs(points, count):
    n = len(points)
    if n < 2:
        return []
    stride = max(1, (n * (n - 1) // 2) // max(count, 1))
    pairs = [(points[i], points[j]) for i, j in _all_pairs_strided(n, stride)]
    return pairs[: max(count, 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(0, 80), count=st.integers(0, 500))
def test_sample_pairs_equal_the_all_pairs_enumeration(n, count):
    i, j = _sample_pairs(n, count)
    assert list(zip(i.tolist(), j.tolist())) == _old_sample_pairs(list(range(n)), count)


# views of every zoo kind's own maps, and perturbed ones of each family
VERIFY_VIEWS = {
    "cyclic": ("cyclic_system", "cyclic_datum", None),
    "covered": ("covered_system", "covered_datum", None),
    "schottky": ("schottky_system", "schottky_datum", None),
    "free": ("fb_system", "fb_datum", None),
    "zn": ("zn_system", "zn_datum", None),
    "product-swap": ("product_system", "product_datum", None),
    "schottky-bump": (
        "schottky_system", "schottky_datum", lambda s: zoo.perturb(s, zoo.BumpCompose(1.0, 0.6, 5e-3))
    ),
    "schottky-jitter": (
        "schottky_system", "schottky_datum", lambda s: zoo.perturb(s, zoo.MatrixJitter(1e-3, seed=2))
    ),
    "zn-jitter": ("zn_system", "zn_datum", lambda s: zoo.perturb(s, zoo.MatrixJitter(1e-3, seed=4))),
    "cyclic-translation": ("cyclic_system", "cyclic_datum", lambda s: zoo.translation_conjugate(s, 1e-3)),
}
# the datum as built, one whose expansion rate no entry reaches, and one
# whose Lipschitz constant no letter keeps: the last two fail with witnesses
DATUM_EDITS = {
    "built": lambda d: d,
    "lam-tripled": lambda d: ExpansionDatum(d.entries, d.delta, 3 * d.lam, max(d.lip, 3 * d.lam), d.net),
    "lip-near-1": lambda d: ExpansionDatum(d.entries, d.delta, 1.0 + 1e-9, 1.0 + 2e-9, d.net),
}


def _row_bits(row: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


@pytest.mark.parametrize("edit", sorted(DATUM_EDITS))
@pytest.mark.parametrize("name", sorted(VERIFY_VIEWS))
def test_verify_pair_checks_equal_the_pair_by_pair_loops(request, name, edit):
    system_name, datum_name, perturb = VERIFY_VIEWS[name]
    system = request.getfixturevalue(system_name)
    datum = DATUM_EDITS[edit](request.getfixturevalue(datum_name))
    view = ActionView(system, None if perturb is None else perturb(system))
    rows = {r["check"]: r for r in verify_expansion(view, datum).rows()}
    slow = pair_check_rows(view, datum)
    assert [_row_bits(rows[r["check"]]) for r in slow] == [_row_bits(r) for r in slow]
    failing = {"lam-tripled": "expansion", "lip-near-1": "lipschitz"}.get(edit)
    if failing:
        assert rows[failing]["witness"]


def _labels_swapped(datum):
    """The datum with its first two entries' labels exchanged: their regions
    are then expanded by the wrong inverses, and the ball condition fails."""
    a, b, *rest = datum.entries
    entries = (CoverEntry(a.index, b.symbol, a.region), CoverEntry(b.index, a.symbol, b.region), *rest)
    return ExpansionDatum(tuple(entries), datum.delta, datum.lam, datum.lip, datum.net)


@functools.cache
def _free_rank_3():
    system = zoo.make_free_boundary(3, 1.5)
    return system, build_expansion_datum(system, 1.5)


# the data on which the ball condition runs: spaces that are not geodesic
BALL_DATA = {
    "free": lambda r: (r.getfixturevalue("fb_system"), r.getfixturevalue("fb_datum")),
    "free-rank-3": lambda r: _free_rank_3(),
    "product-swap": lambda r: (r.getfixturevalue("product_system"), r.getfixturevalue("product_datum")),
    "free-labels-swapped": lambda r: (
        r.getfixturevalue("fb_system"), _labels_swapped(r.getfixturevalue("fb_datum"))
    ),
}


@pytest.mark.parametrize("name", sorted(BALL_DATA))
def test_verify_sampled_checks_equal_the_scalar_loops(request, name):
    # all four sampled rows bit for bit, the swapped labels' failing rows
    # with their witnesses and the first of their tied least slacks (180
    # ball slacks tie at the least)
    system, datum = BALL_DATA[name](request)
    view = ActionView(system)
    rows = {r["check"]: r for r in verify_expansion(view, datum).rows()}
    leb, witness = scalar_lebesgue([e.region for e in datum.entries], datum.net)
    short = leb < datum.delta - 1e-9
    lebesgue = CheckResult("lebesgue", not short, leb - datum.delta, len(datum.net), str(witness) if short else "")
    slow = [*VerificationReport((lebesgue,)).rows(), *pair_check_rows(view, datum), *ball_condition_rows(view, datum)]
    assert [_row_bits(rows[r["check"]]) for r in slow] == [_row_bits(r) for r in slow]
    assert rows["ball-condition"]["samples"] > 0
    assert rows["ball-condition"]["passed"] == (name != "free-labels-swapped")


def _old_lipschitz_distance(space, map_a, map_b, net, max_pairs=10000):
    # the all-pairs walk that lipschitz_distance replaced
    net = list(net)
    imgs_a = [map_a(x) for x in net]
    imgs_b = [map_b(x) for x in net]
    sup_disp = max(space.raw_distance(p.value, q.value) for p, q in zip(imgs_a, imgs_b))
    n = len(net)
    total = n * (n - 1) // 2
    stride = max(1, total // max_pairs)
    sup_quot, k = 0.0, 0
    for i in range(n):
        for j in range(i + 1, n):
            if k % stride:
                k += 1
                continue
            k += 1
            d0 = space.raw_distance(net[i].value, net[j].value)
            if d0 < 1e-13:
                continue
            qa = space.raw_distance(imgs_a[i].value, imgs_a[j].value) / d0
            qb = space.raw_distance(imgs_b[i].value, imgs_b[j].value) / d0
            sup_quot = max(sup_quot, abs(qa - qb))
    return sup_disp + sup_quot


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    values=st.lists(ANGLES, min_size=2, max_size=150),
    twins=st.lists(st.integers(0, 149), max_size=6),
    max_pairs=st.integers(1, 3000),
    m=st.floats(1.05, 4.0),
)
def test_lipschitz_distance_equals_all_pairs_walk(values, twins, max_pairs, m):
    # twins repeat net points, and a point 1e-14 off another, so that some
    # pairs are coincident (d0 < 1e-13) and skipped
    values = values + [values[k % len(values)] for k in twins] + [values[0] + 1e-14]
    space = Circle()
    net = [space.point(v) for v in values]
    base = zoo.MoebiusMap.from_matrix([[m, 0.0], [0.0, 1.0 / m]])
    bumped = zoo.CirclePostComposeMap(base, zoo.BumpDiffeo(1.0, 0.6, 0.05))

    def map_a(x):
        return space.point(base.apply_angle(x.value))

    def map_b(x):
        return space.point(bumped.apply_angle(x.value))

    fast = lipschitz_distance(space, base, bumped, net_pairs(space, net, max_pairs))
    assert fast.hex() == _old_lipschitz_distance(space, map_a, map_b, net, max_pairs).hex()


def test_lipschitz_distance_on_projective_nets_equals_all_pairs_walk(zn_system, zn_datum):
    # the generic path: the space's points, one raw distance at a time
    space = zn_system.space
    net = space.neighborhood(zn_datum.net, zn_datum.delta) + [zn_datum.net[0]]
    pert = zoo.perturb(zn_system, zoo.MatrixJitter(1e-3, seed=4))
    pairs = net_pairs(space, net, 40)
    for letter, m in pert.items():
        base = zn_system.letter_maps[letter]
        slow = _old_lipschitz_distance(
            space,
            lambda x: space.apply_maps((base,), x),
            lambda x: space.apply_maps((m,), x),
            net,
            40,
        )
        assert lipschitz_distance(space, base, m, pairs).hex() == slow.hex()


# ---------------------------------------------------------------------------
# perturbed pushes


def _bump_view():
    system = zoo.make_schottky()
    return ActionView(system, zoo.perturb(system, zoo.BumpCompose(1.0, 0.6, 5e-3)))


def _lifted_jitter_view():
    system = zoo.make_covered_cyclic(2.0, 3)
    return ActionView(system, zoo.perturb(system, zoo.MatrixJitter(0.05, seed=3)))


VIEWS = {"bump_compose": _bump_view(), "lifted_jitter": _lifted_jitter_view()}


def _per_letter_points(view, letters, x):
    # one Point per letter, as the letter-by-letter path built them
    for letter in reversed(letters):
        m = view.maps[letter]
        x = view.space.point(m.apply_angle(x.value))
    return x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(VIEWS)),
    picks=st.lists(st.integers(0, 3), max_size=40),
    theta=ANGLES,
)
def test_apply_letters_equals_per_letter_points(name, picks, theta):
    view = VIEWS[name]
    alphabet = view.system.alphabet.signed_letters()
    letters = [alphabet[k % len(alphabet)] for k in picks]
    x = view.space.point(theta)
    fast = zoo.apply_letters(view.space, view.maps, letters, x)
    slow = _per_letter_points(view, letters, x)
    assert fast.space == slow.space
    assert fast.value.hex() == slow.value.hex()


def test_apply_letters_on_projective_points_renormalizes_per_letter(zn_system):
    view = ActionView(zn_system, zoo.perturb(zn_system, zoo.MatrixJitter(1e-3, seed=5)))
    letters = [(0, 1), (1, -1), (0, 1), (1, 1), (0, -1)]
    x = zn_system.space.point((0.3, -0.5, 0.8))
    slow = x
    for letter in reversed(letters):
        m = view.maps[letter]
        slow = zn_system.space.point(m.apply_vec(slow.value))
    assert zoo.apply_letters(view.space, view.maps, letters, x) == slow


def test_apply_word_takes_the_letter_by_letter_path():
    view = VIEWS["bump_compose"]
    a, b = view.system.alphabet.generator(0, 1), view.system.alphabet.generator(1, -1)
    g = groups.multiply(groups.multiply(a, b), groups.multiply(a, a))
    x = view.space.point(0.4)
    assert view.apply_word(g, x) == _per_letter_points(view, groups.letters_of(g), x)


# ---------------------------------------------------------------------------
# free-word checks: string methods in place of per-letter loops


def _loop_is_reduced(word: str) -> bool:
    return all(word[i] != letter_inverse(word[i + 1]) for i in range(len(word) - 1))


def _loop_normalize(space: FreeBoundary, value) -> str:
    w = str(value)
    for ch in w:
        if ch.lower() not in space.letters:
            raise ValueError(f"letter {ch!r} outside rank-{space.rank} alphabet")
    if not _loop_is_reduced(w):
        raise ValueError(f"word {w!r} is not reduced")
    return w[: space.depth]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


# letters with their inverses next to them, ASCII noise, and the Kelvin sign
# U+212A, the one character outside ASCII whose lower case is an ASCII letter
LETTER_TEXT = st.text(st.sampled_from("aAbBcCkKz1 \u212a"), max_size=40)
ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=40)


@settings(max_examples=300, derandomize=True)
@given(word=st.one_of(LETTER_TEXT, ASCII_TEXT))
def test_is_reduced_equals_the_letter_loop(word):
    assert is_reduced(word) == _loop_is_reduced(word)


@settings(max_examples=300, derandomize=True)
@given(
    word=st.one_of(LETTER_TEXT, ASCII_TEXT, st.text(max_size=12)),
    rank=st.integers(1, 26),
    depth=st.integers(1, 50),
)
def test_normalize_equals_the_letter_loop(word, rank, depth):
    # same value, or the same ValueError message naming the first bad letter
    space = FreeBoundary(rank=rank, depth=depth)
    assert _outcome(space.normalize, word) == _outcome(_loop_normalize, space, word)


# ---------------------------------------------------------------------------
# the stacked projective stretch kernel


def _old_stretches(A, v):
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    Av = A @ v
    n = np.linalg.norm(Av)
    w = Av / n
    W = np.column_stack(tangent_basis(v))
    M = (np.eye(len(v)) - np.outer(w, w)) @ A @ W / n
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def _old_rings(space, center, radii, k):
    v = np.asarray(center.value)
    basis = tangent_basis(v)
    if len(basis) == 1:
        directions = [basis[0], -basis[0]]
    else:
        directions = [
            basis[0] * math.cos(TAU * t / k) + basis[1] * math.sin(TAU * t / k)
            for t in range(k)
        ]
    return [
        [space.point(tuple(math.cos(r) * v + math.sin(r) * w)) for w in directions]
        for r in radii
    ]


ZN_DIAGONALS = {
    1: [[4.0, 1.0]],
    2: [[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]],
    3: [[8.0, 1.0, 3.0, 2.0], [8.0, 3.0, 1.0, 2.0], [8.0, 2.0, 3.0, 1.0]],
}


@st.composite
def _lines(draw, d):
    """Rows spanning lines of P^(d-1): generic, exact axes, and lines near an
    axis.  At 1e-12 from an axis the first pass drops that axis; from about
    1e-9 to 1e-6 it loses orthogonality and the loop projects twice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["generic", "axis", "near"]), min_size=1,
                              max_size=12)):
        if kind == "generic":
            rows.append(rng.normal(size=d))
            continue
        row = np.eye(d)[draw(st.integers(0, d - 1))] * draw(st.sampled_from([1.0, -1.0, 3.5]))
        if kind == "near":
            row = row + 10.0 ** draw(st.integers(-15, -5)) * rng.normal(size=d)
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3, 4]), source=st.sampled_from(["random", "zn"]))
def test_stretch_rows_equal_the_one_line_routine(data, d, source):
    if source == "zn":
        maps = zoo.make_zn_projective(ZN_DIAGONALS[d - 1]).letter_maps
        A = maps[data.draw(st.sampled_from(sorted(maps)))].np_matrix
    else:
        A = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(d, d))
        if abs(np.linalg.det(A)) < 1e-3:
            A = A + 3.0 * np.eye(d)
    V = data.draw(_lines(d))
    lo, hi = ProjectiveSpace.stretch_rows(A, V)
    for i, v in enumerate(V):
        old = _old_stretches(A, v)
        assert (lo[i], hi[i]) == old


def test_stretch_rows_hand_near_axis_rows_to_the_loop(monkeypatch):
    # (4, 1e-6) is where one pass of the loop loses orthogonality: only that
    # row is projected a second time
    calls = []
    once = geometry._axis_gram_schmidt
    monkeypatch.setattr(
        geometry, "_axis_gram_schmidt", lambda V, passes: calls.append((V, passes)) or once(V, passes)
    )
    A = np.diag([3.0, 1.0])
    V = np.array([[4.0, 1e-6], [1.0, 2.0], [1.0, 0.0]])
    lo, hi = ProjectiveSpace.stretch_rows(A, V)
    assert [(len(rows), passes) for rows, passes in calls] == [(3, 1), (1, 2)]
    assert calls[1][0][0, 1] > 0  # the near-axis row
    monkeypatch.undo()
    assert [(lo[i], hi[i]) for i in range(3)] == [_old_stretches(A, v) for v in V]


def _bits(rows):
    return np.asarray(rows, dtype=float).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3, 4, 5]))
def test_tangent_frames_equal_the_two_pass_loop_bit_for_bit(data, d):
    # generic rows, exact axes and rows near an axis, where the loop projects twice
    V = data.draw(_lines(d))
    V = V / np.sqrt((V * V).sum(axis=1))[:, None]
    frames = ProjectiveSpace.tangent_frames(V)
    assert frames.shape == (len(V), d, d - 1)
    for v, frame in zip(V, frames):
        assert _bits(frame.T) == _bits(tangent_basis(v))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    center_kind=st.sampled_from(["generic", "axis", "near"]),
    radii=st.lists(st.floats(1e-9, 1.2), min_size=1, max_size=3),
    k=st.sampled_from([3, 4, 7, 24]),
)
def test_ring_rows_equal_the_ring_points(n, seed, center_kind, radii, k):
    space = ProjectiveSpace(n=n)
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=n + 1)
    if center_kind != "generic":
        coords = np.eye(n + 1)[seed % (n + 1)] + (1e-7 * coords if center_kind == "near" else 0)
    center = space.point(coords)
    v = np.asarray(center.value)
    directions = space.ring_directions(v, k)
    old = _old_rings(space, center, radii, k)
    new = space.rings(center, radii, k)
    for r, old_ring, new_ring in zip(radii, old, new):
        rows = space.ring_rows(v, directions, r)
        assert _bits(rows) == _bits([p.value for p in old_ring])
        assert _bits(rows) == _bits([p.value for p in new_ring])
        assert all(type(c) is float for p in new_ring for c in p.value)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    tiny=st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, -1e-13]),
)
def test_unit_rows_equal_normalize(d, seed, tiny):
    X = np.random.default_rng(seed).normal(size=(8, d))
    X[::2, 0] = tiny  # leading coordinates at and around the 1e-14 sign cut
    space = ProjectiveSpace(n=d - 1)
    assert _bits(ProjectiveSpace.unit_rows(X)) == _bits([space.normalize(x) for x in X])


def _old_projective_cover(system, lam):
    """Ball radii, delta and lip of the projective cover, by the per-point
    `ok` loop and the per-sample lip loop the stacked kernel replaced."""
    space = system.space
    net = system.limit_net(None)
    n = system.alphabet.rank
    e = [space.point(tuple(1.0 if i == k else 0.0 for i in range(n + 1))) for k in range(n + 1)]
    r_cap = 0.45 * min(
        space.raw_distance(e[i].value, e[j].value)
        for i in range(n + 1) for j in range(i + 1, n + 1)
    )

    def radius(letter, center):
        A = system.letter_maps[letter].np_matrix

        def ok(r):
            pts = [p for ring in _old_rings(space, center, (r, r / 2), 24) for p in ring]
            return all(_old_stretches(A, p.value)[0] > lam for p in pts + [center])

        assert ok(r_cap * 1e-3)
        lo, hi = r_cap * 1e-3, r_cap
        if ok(hi):
            lo = hi
        else:
            for _ in range(48):
                mid = (lo + hi) / 2.0
                if ok(mid):
                    lo = mid
                else:
                    hi = mid
        return 0.98 * lo

    radii = [radius((0, -1), e[0])] + [radius((j, 1), e[j + 1]) for j in range(n)]
    regions = [BallRegion(space=space, center=c, radius=r) for c, r in zip(e, radii)]
    regions += [EmptyRegion(space=space) for _ in range(1, n)]
    delta = float(SAFETY * lebesgue_number(regions, net)[0])
    samples = space.neighborhood(net, delta)
    lip_raw = max(
        _old_stretches(m.np_matrix, x.value)[1] for m in system.letter_maps.values() for x in samples
    )
    return radii, delta, float(LIP_SAFETY * max(lip_raw, lam))


@pytest.mark.parametrize("n, lam", [(2, 1.4), (2, 2.0), (3, 1.4)])
def test_projective_cover_equals_the_per_point_loop(n, lam):
    system = zoo.make_zn_projective(ZN_DIAGONALS[n])
    datum = build_expansion_datum(system, lam)
    radii, delta, lip = _old_projective_cover(system, lam)
    assert [e.region.radius for e in datum.entries if isinstance(e.region, BallRegion)] == radii
    assert (datum.delta, datum.lip) == (delta, lip)


# ---------------------------------------------------------------------------
# circle maps on angle arrays: each `apply_angles` against `apply_angle`


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _near(theta: float, steps: int = 3) -> list:
    """theta and its float neighbours, a few ulps and a few 1e-13 either side."""
    out, lo, hi = [theta], theta, theta
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out + [theta + f * 1e-13 for f in (-3.0, -1.0, 1.0, 3.0)]


ENTRIES = st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3)


@st.composite
def moebius_maps(draw):
    a, b, c = draw(ENTRIES), draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    d = (1.0 + b * c) / a  # determinant 1 before from_matrix renormalizes
    return zoo.MoebiusMap.from_matrix([[a, b], [c, d]])


def _angle_cases(draw, specials: list) -> np.ndarray:
    near = [t for s in draw(st.lists(st.sampled_from(specials), max_size=4)) for t in _near(s)]
    return np.array(draw(st.lists(ANGLES, max_size=30)) + near + EDGE_ANGLES, dtype=float)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(m=moebius_maps(), data=st.data())
def test_moebius_apply_angles_equal_apply_angle(m, data):
    fixed = list(m.pinned_angles) + [0.0, math.pi, TAU]
    thetas = _angle_cases(data.draw, fixed)
    assert _hexes(m.apply_angles(thetas)) == _hexes([m.apply_angle(t) for t in thetas.tolist()])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    maps=st.lists(moebius_maps(), min_size=1, max_size=4),
    scales=st.lists(st.sampled_from([1.0, 1e-3, 1e50, 1e100, 3.7e100, 1e200]), min_size=4, max_size=4),
    data=st.data(),
)
def test_matrix_rows_equal_apply_matrix_angle(maps, scales, data):
    # raw products as `compose_moebius` leaves them: up to 1e100 before it rescales
    mats = np.array([m.np_matrix * scales[r % 4] for r, m in enumerate(maps)])
    thetas = np.array([data.draw(st.lists(ANGLES, min_size=7, max_size=7)) for _ in maps])
    rows = zoo.MoebiusMap.apply_matrix_angles(mats, thetas)
    slow = [[zoo.MoebiusMap.apply_matrix_angle(mat, t) for t in row] for mat, row in zip(mats, thetas.tolist())]
    assert _hexes(rows) == _hexes(slow)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(multiplier=st.floats(1.01, 30.0), degree=st.integers(2, 5), invert=st.booleans(), data=st.data())
def test_lifted_apply_angles_equal_apply_angle(multiplier, degree, invert, data):
    m = zoo.LiftedCircleMap(1.0 / multiplier if invert else multiplier, degree)
    thetas = _angle_cases(data.draw, list(m.pinned_angles))
    assert _hexes(m.apply_angles(thetas)) == _hexes([m.apply_angle(t) for t in thetas.tolist()])


@st.composite
def bumps(draw):
    width = draw(st.floats(0.05, 2.0))
    height = draw(st.floats(-0.7, 0.7)) * width / zoo.BumpDiffeo.MAX_SLOPE
    return zoo.BumpDiffeo(draw(ANGLES), width, height)


def _support_edges(bump: zoo.BumpDiffeo) -> list:
    # the angles where |t| -> 1, and the center
    return [bump.center + f * bump.width for f in (-1.0, 1.0)] + [bump.center]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bump=bumps(), data=st.data())
def test_bump_apply_and_invert_angles_equal_the_scalar_maps(bump, data):
    thetas = _angle_cases(data.draw, _support_edges(bump))
    assert _hexes(bump.apply_angles(thetas)) == _hexes([bump.apply_angle(t) for t in thetas.tolist()])
    assert _hexes(bump.invert_angles(thetas)) == _hexes([bump.invert_angle(t) for t in thetas.tolist()])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(base=st.one_of(moebius_maps(), st.builds(zoo.LiftedCircleMap, st.floats(1.01, 9.0), st.integers(2, 4))),
       bump=bumps(), data=st.data())
def test_bumped_maps_apply_angles_equal_apply_angle(base, bump, data):
    post = zoo.CirclePostComposeMap(base, bump)
    for m in (post, post.inverse()):
        thetas = _angle_cases(data.draw, _support_edges(bump) + list(base.pinned_angles))
        assert _hexes(m.apply_angles(thetas)) == _hexes([m.apply_angle(t) for t in thetas.tolist()])


CIRCLE_MAPS = st.one_of(
    moebius_maps(),
    st.builds(zoo.LiftedCircleMap, st.floats(1.01, 9.0), st.integers(2, 4)),
    st.builds(zoo.CirclePostComposeMap, moebius_maps(), bumps()),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(m=CIRCLE_MAPS, size=st.integers(0, 2 * SCALAR_ANGLES + 2), data=st.data())
def test_circle_map_values_equal_apply_angles_on_both_sides_of_the_scalar_cut(m, size, data):
    # fewer than SCALAR_ANGLES angles go through `apply_angle` one by one
    thetas = np.array(data.draw(st.lists(ANGLES, min_size=size, max_size=size)), dtype=float)
    out = Circle().map_values(m, thetas)
    assert out.dtype == np.float64 and out.shape == thetas.shape
    assert _hexes(out) == _hexes(m.apply_angles(thetas))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    m=st.one_of(moebius_maps(), st.builds(zoo.LiftedCircleMap, st.floats(1.01, 9.0), st.integers(2, 4))),
    data=st.data(),
)
def test_snap_angles_equal_the_scalar_pin(m, data):
    # inputs at and around SNAP_TOL from each pinned angle, and elliptic
    # Moebius maps, which pin nothing
    near = [f + k * zoo.SNAP_TOL for f in m.pinned_angles for k in (-1.0, -0.999, -0.5, 0.0, 0.5, 0.999, 1.0)]
    thetas = np.array([Circle().normalize(t) for t in near + data.draw(st.lists(ANGLES, max_size=10))], dtype=float)
    images = m.apply_angles(thetas)
    fast = zoo.snap_angles(m, thetas, images)
    assert _hexes(fast) == _hexes([snap_angle(m, t, y) for t, y in zip(thetas.tolist(), images.tolist())])


def _deriv_angle(m, theta: float) -> float:
    """The arc-length derivative of a Moebius or lifted circle map at one
    angle, by the scalar `math` formulas that `deriv_angles` computes on
    arrays."""
    if isinstance(m, zoo.MoebiusMap):
        u, v = math.sin(theta / 2.0), math.cos(theta / 2.0)
        (a, b), (c, d) = m.matrix
        u2, v2 = a * u + b * v, c * u + d * v
        return 1.0 / (u2 * u2 + v2 * v2)
    y = m.degree * theta
    j = math.floor((y + math.pi) / TAU)
    y0 = y - TAU * j
    mu = m.multiplier
    u, v = math.sin(y0 / 2.0), math.cos(y0 / 2.0)
    return mu / (mu * mu * u * u + v * v)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(m=st.one_of(moebius_maps(), st.builds(zoo.LiftedCircleMap, st.floats(1.01, 30.0), st.integers(2, 5))),
       invert=st.booleans(), data=st.data())
def test_deriv_angles_equal_deriv_angle(m, invert, data):
    # `Circle.stretches` reads the array, for the datum's covers and constants
    m = m.inverse() if invert else m
    thetas = _angle_cases(data.draw, list(m.pinned_angles) + [0.0, math.pi, TAU])
    assert _hexes(m.deriv_angles(thetas)) == _hexes([_deriv_angle(m, t) for t in thetas.tolist()])


# ---------------------------------------------------------------------------
# the Schottky limit net as angle arrays


@pytest.mark.parametrize("multiplier", [3.0, 4.5])
@pytest.mark.parametrize("depth", range(1, 10))
def test_schottky_limit_values_equal_the_level_recursion(multiplier, depth):
    system = zoo.make_schottky(zoo.default_schottky_matrices(multiplier))
    values = system.limit_values(depth)
    assert _hexes(values) == _hexes(schottky_net_values(system, depth))
    assert system.limit_net(depth) == [system.space.point(t) for t in schottky_net_values(system, depth)]


# ---------------------------------------------------------------------------
# the conjugacy in blocks of rows against the loop one step at a time


@functools.lru_cache(maxsize=None)
def _perturbed_systems() -> dict:
    out = {}
    for name, system, lam in (
        ("schottky", zoo.make_schottky(), 1.4),
        ("cyclic_hyperbolic", zoo.make_cyclic_hyperbolic(2.0), 1.5),
        ("covered_cyclic", zoo.make_covered_cyclic(2.0, 3), 1.5),
    ):
        datum = build_expansion_datum(system, lam)
        families = {
            "matrix_jitter": zoo.perturb(system, zoo.MatrixJitter(3e-6, seed=7)),
            "bump_compose": zoo.perturb(system, zoo.BumpCompose(1.0, 0.6, 5e-4)),
        }
        if all(isinstance(m, zoo.MoebiusMap) for m in system.letter_maps.values()):
            families["translation_conjugate"] = zoo.translation_conjugate(system, 1e-3)
        for family, maps in families.items():
            ps = make_perturbed(ActionView(system, maps), datum, 1)
            # the iteration is compared past the admissible radius too (the
            # bump of 5e-4 exceeds it): no realized distance is recorded, so
            # the admissibility check that opens the conjugacy passes
            out[name, family] = PerturbedSystem(ps.base, ps.datum, ps.view, {}, ps.epsilon)
    return out


PERTURBED_KEYS = [
    (name, family)
    for name in ("schottky", "cyclic_hyperbolic", "covered_cyclic")
    for family in ("matrix_jitter", "bump_compose", "translation_conjugate")
    if not (name == "covered_cyclic" and family == "translation_conjugate")
]


def _conjugacy_outcome(run):
    """What a conjugacy iteration gives, in bits: phi(x) and its diagnostics,
    or the error it raises."""
    try:
        z, diag = run()
    except (CodingError, ConvergenceError) as err:
        return type(err).__name__, str(err)
    return z.space, z.value.hex(), diag.iterations, diag.stop_bound.hex()


def _row_conjugacy(ps, x, tol, max_depth):
    """phi(x) from x's row of a frontier over x and some other points, as
    `conjugacy_map` hands each point its first block of code steps."""
    space, delta = ps.base.space, ps.datum.delta
    others = [p for p in ps.datum.net[:5] if p != x]
    codes = make_codes(ps.datum, ps.base, delta, [*others[:2], x, *others[2:]], min(space.push_rows, max_depth))
    return _conjugacy_outcome(lambda: conjugacy_point(ps, x, tol, max_depth, codes.steps(min(2, len(others)))))


def _step_loop(ps, x, tol, max_depth):
    first = greedy_step(ps.datum, ps.base, x, ps.datum.delta)
    return _conjugacy_outcome(lambda: conjugacy_steps(ps, x, first, tol, max_depth))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    key=st.sampled_from(PERTURBED_KEYS),
    tol=st.sampled_from([1e-9, 1e-12, 1e-6, 1e-3, 1e-1]),
    max_depth=st.sampled_from([200, 1, 5, 12, 13, 25]),
    data=st.data(),
)
def test_row_conjugacy_equals_the_step_loop(key, tol, max_depth, data):
    ps = _perturbed_systems()[key]
    space = ps.base.space
    x = data.draw(st.one_of(st.sampled_from(list(ps.datum.net)), ANGLES.map(space.point)))
    try:
        greedy_step(ps.datum, ps.base, x, ps.datum.delta)
    except CodingError as err:
        # no first step: the step loop does not start, and the row raises its error
        assert _row_conjugacy(ps, x, tol, max_depth) == ("CodingError", str(err))
        return
    assert _row_conjugacy(ps, x, tol, max_depth) == _step_loop(ps, x, tol, max_depth)
    assert _conjugacy_outcome(lambda: conjugacy_point(ps, x, tol, max_depth)) == _step_loop(ps, x, tol, max_depth)


def _failing_step(ps, x) -> int:
    """The first code step from x that finds no cover member."""
    base, datum = ps.base, ps.datum
    e, point = greedy_step(datum, base, x, datum.delta)
    for k in range(1, 200):
        try:
            e, point = greedy_step(datum, base, point, datum.delta)
        except CodingError:
            return k
    raise AssertionError("the code of x never fails")


def test_row_conjugacy_hides_a_coding_error_past_the_stop():
    # a point off the limit set whose code fails at step 7 while the loop
    # stops at step 2, inside the first block of rows: the error must not surface
    ps = _perturbed_systems()["schottky", "matrix_jitter"]
    x = ps.base.space.point(19 * TAU / 400)
    assert _failing_step(ps, x) == 7 < ps.base.space.push_rows
    fast = _row_conjugacy(ps, x, 0.1, 200)
    assert fast[2] == 2
    assert fast == _step_loop(ps, x, 0.1, 200)


@pytest.mark.parametrize("max_depth", [5, 12, 13, 30])
def test_row_conjugacy_reaches_max_depth_as_the_step_loop(max_depth):
    # at tol 0 no row stops: both loops run out of depth at the same step
    ps = _perturbed_systems()["schottky", "bump_compose"]
    x = ps.datum.net[5]
    fast = _row_conjugacy(ps, x, 0.0, max_depth)
    assert fast[0] == "ConvergenceError"
    assert fast == _step_loop(ps, x, 0.0, max_depth)


# ---------------------------------------------------------------------------
# margin matrices against each kind's scalar formula, and the code steps
# that read them against the loops that asked one region at a time


def _assert_margins_equal_the_scalar_formula(regions, points):
    matrix = margin_matrix(regions, points)
    assert matrix.shape == (len(points), len(regions))
    slow = [[scalar_margin(reg, x) for reg in regions] for x in points]
    assert _bits(matrix) == _bits(np.reshape(slow, matrix.shape))
    space = regions[0].space
    assert _bits(margin_values(regions, space.values(points))) == _bits(matrix)
    for x in points[:3]:
        assert [reg.margin(x) for reg in regions] == slow[points.index(x)]


def _shrunk(region, offsets):
    for r in offsets:
        region = region.shrunk(r)
    return region


OFFSETS = st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.25, 1.0 / 3.0]), max_size=2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    space=st.sampled_from(CIRCLES),
    arcs=st.lists(st.tuples(ANGLES, st.floats(1e-6, math.pi), OFFSETS), min_size=1, max_size=6),
    values=st.lists(ANGLES, max_size=30),
)
def test_arc_margins_equal_the_scalar_formula(space, arcs, values):
    # centers and angles at and around 0 and TAU, centers off [0, TAU) too,
    # and shrunk arcs
    regions = [
        _shrunk(ArcRegion(space=space, center=c, half_width=hw), offsets) for c, hw, offsets in arcs
    ]
    _assert_margins_equal_the_scalar_formula(regions, [space.point(v) for v in values])


@st.composite
def _reduced_words(draw, rank: int, max_size: int):
    chars = "abcdefghijklmnopqrstuvwxyz"[:rank]
    chars += chars.upper()
    word = ""
    for k in draw(st.lists(st.integers(0, len(chars) - 1), max_size=max_size)):
        ch = chars[k]
        if not word or ch != letter_inverse(word[-1]):
            word += ch
    return word


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rank=st.integers(1, 3),
    a=st.sampled_from([2.0, 3.0, 1.5, 1.1, math.e]),
    data=st.data(),
)
def test_cylinder_margins_equal_the_scalar_formula(rank, a, data):
    # prefixes of length 0 to 3, and words that share 0 to all of their letters
    space = FreeBoundary(rank=rank, a=a, depth=6)
    prefixes = data.draw(st.lists(_reduced_words(rank, 3), min_size=1, max_size=5))
    regions = [
        _shrunk(CylinderRegion(space=space, prefix=w), data.draw(OFFSETS)) for w in prefixes
    ]
    words = data.draw(st.lists(_reduced_words(rank, 8), max_size=25))
    tails = data.draw(st.lists(_reduced_words(rank, 3), max_size=3))
    words += [w + t for w in prefixes for t in tails if is_reduced(w + t)]
    _assert_margins_equal_the_scalar_formula(regions, [space.point(w) for w in words])


def _projective_points(space, rng, k: int) -> list:
    # generic lines, and lines at and near the coordinate axes
    rows = list(rng.normal(size=(k, space.n + 1)))
    rows += [np.eye(space.n + 1)[i % (space.n + 1)] + 1e-9 * rng.normal(size=space.n + 1) for i in range(2)]
    return [space.point(row) for row in rows] + [space.point(np.eye(space.n + 1)[0])]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    balls=st.lists(st.tuples(st.floats(1e-6, 1.5), OFFSETS), min_size=1, max_size=4),
    size=st.integers(0, 20),
)
def test_ball_margins_on_the_projective_plane_equal_the_scalar_formula(seed, balls, size):
    space = ProjectiveSpace(2)
    rng = np.random.default_rng(seed)
    centers = _projective_points(space, rng, len(balls))
    regions = [
        _shrunk(BallRegion(space=space, center=c, radius=r), offsets)
        for c, (r, offsets) in zip(centers, balls)
    ]
    points = _projective_points(space, rng, size) + centers[:2]
    _assert_margins_equal_the_scalar_formula(regions, points)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    space=st.sampled_from([Circle(), ProjectiveSpace(2), FreeBoundary(), DisjointUnion.of([Circle(), Circle()])]),
    offsets=st.lists(OFFSETS, min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_empty_margins_equal_the_scalar_formula(space, offsets, seed):
    regions = [_shrunk(EmptyRegion(space=space, label=k), o) for k, o in enumerate(offsets)]
    rng = np.random.default_rng(seed)
    _assert_margins_equal_the_scalar_formula(regions, [space.random_point(rng) for _ in range(seed % 7)])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    copies=st.sampled_from(["circle", "free"]),
    picks=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5), OFFSETS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 25),
)
def test_component_margins_on_both_copies_equal_the_scalar_formula(copies, picks, seed, size):
    inner_space = Circle() if copies == "circle" else FreeBoundary(rank=2, a=2.0, depth=6)
    union = DisjointUnion.of([inner_space, inner_space])
    if copies == "circle":
        inners = [ArcRegion(space=inner_space, center=0.7 * k, half_width=0.3 + 0.2 * k) for k in range(5)]
    else:
        inners = [CylinderRegion(space=inner_space, prefix=w) for w in ("a", "A", "ab", "Ba", "")]
    inners.append(EmptyRegion(space=inner_space))
    regions = [
        _shrunk(ComponentRegion(space=union, component=idx, inner=_shrunk(inners[k], offsets)), offsets[:1])
        for idx, k, offsets in picks
    ]
    rng = np.random.default_rng(seed)
    _assert_margins_equal_the_scalar_formula(regions, [union.random_point(rng) for _ in range(size)])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    on=st.sampled_from(["circle", "projective"]),
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(1e-3, 1.0),
    offsets=OFFSETS,
    size=st.integers(0, 25),
)
def test_clipped_margins_on_circle_and_projective_nets_equal_the_scalar_formula(on, seed, radius, offsets, size):
    rng = np.random.default_rng(seed)
    if on == "circle":
        space = Circle()
        net = tuple(space.point(t) for t in rng.uniform(0.0, TAU, 1 + seed % 12))
        inner = ArcRegion(space=space, center=float(rng.uniform(0.0, TAU)), half_width=1.0)
        points = [space.point(t) for t in rng.uniform(-0.5, TAU + 0.5, size)] + list(net[:2])
    else:
        space = ProjectiveSpace(2)
        net = tuple(_projective_points(space, rng, 1 + seed % 12))
        inner = BallRegion(space=space, center=net[0], radius=0.8)
        points = _projective_points(space, rng, size) + list(net[:2])
    clipped = ClippedRegion(space=space, inner=inner.shrunk(0.05), net=net, radius=radius)
    # a cover of one kind, and one that mixes the clipped region with others
    _assert_margins_equal_the_scalar_formula([_shrunk(clipped, offsets)], points)
    _assert_margins_equal_the_scalar_formula([inner, _shrunk(clipped, offsets), EmptyRegion(space=space)], points)


def test_a_margin_refuses_a_point_of_another_space():
    # arcs and the nearest net point of a clipped region, whose clip refused
    # foreign points on its own before margins were matrices
    space, foreign = Circle(), CoveredCircle(degree=2).point(1.0)
    arc = ArcRegion(space=space, center=1.0, half_width=0.5)
    clipped = ClippedRegion(space=space, inner=arc, net=(space.point(1.0),), radius=0.3)
    for region in (arc, clipped):
        with pytest.raises(SpaceMismatchError):
            region.margin(foreign)
        with pytest.raises(SpaceMismatchError):
            lebesgue_number([region], [space.point(1.0), foreign])
        with pytest.raises(SpaceMismatchError):
            margin_matrix([EmptyRegion(space=space), region], [foreign])


# margins within 1e-15 of each other, about the greedy scan's tie tolerance
NEAR_TIES = [0.0, 3e-16, -3e-16, 1e-15, -1e-15, 1.2e-15, -2e-15, 5e-15]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    base=st.sampled_from([0.01, 0.125, 0.3, 1.0]),
    steps=st.lists(st.sampled_from(NEAR_TIES + ["empty"]), min_size=1, max_size=7),
    reverse_ties=st.booleans(),
    eta=st.sampled_from([1e-3, 0.125, 0.125 + 1e-15, 0.3, 2.0]),
)
def test_the_greedy_choice_and_admissible_row_equal_the_scalar_scans(base, steps, reverse_ties, eta):
    # at the arcs' common center each margin is its half-width; the greedy
    # choice is the first code step of a one-point frontier
    system = zoo.make_cyclic_hyperbolic(2.0)
    space, symbol = system.space, system.alphabet.generator(0, 1)
    regions = [
        EmptyRegion(space=space) if step == "empty" else ArcRegion(space=space, center=1.0, half_width=base + step)
        for step in steps
    ]
    entries = tuple(CoverEntry(f"{k:02d}", symbol, reg) for k, reg in enumerate(regions))
    datum = ExpansionDatum(entries, 2.0, 2.0, 2.0, ())
    x = space.point(1.0)
    row = margin_matrix(regions, [x])[0].tolist()

    def outcome(choose):
        try:
            return choose().index
        except CodingError as err:
            return str(err)

    def first_step():
        steps = make_codes(datum, system, eta, [x], 1, reverse_ties).steps(0)
        if steps.error is not None:
            raise steps.error
        return steps.entries[0]

    fast = outcome(first_step)
    assert fast == outcome(lambda: greedy_entry(datum, x, eta, reverse_ties))
    admissible = [e.index for e, m in zip(datum.entries, row) if m >= eta]
    assert admissible == [e.index for e in datum.entries if scalar_margin(e.region, x) >= eta]


@functools.lru_cache(maxsize=None)
def _coded_systems() -> dict:
    free = zoo.make_free_boundary(2, 2.0)
    out = {}
    for name, system, lam, depth in (
        ("schottky", zoo.make_schottky(), 1.4, None),
        ("cyclic", zoo.make_cyclic_hyperbolic(2.0), 1.5, None),
        ("covered", zoo.make_covered_cyclic(2.0, 3), 1.5, None),
        ("free", free, 2.0, None),
        ("zn", zoo.make_zn_projective(ZN_DIAGONALS[2]), 2.0, None),
        ("product", zoo.make_product(free, free, with_swap=True), 2.0, 3),
    ):
        out[name] = system, build_expansion_datum(system, lam, depth)
    # arcs widened until they overlap: codes branch, and truncation at cap
    # happens at every level, not only the first
    system, datum = out["schottky"]
    wide = tuple(CoverEntry(e.index, e.symbol, e.region.shrunk(-1.5)) for e in datum.entries)
    out["schottky-wide"] = system, ExpansionDatum(wide, datum.delta, datum.lam, datum.lip, datum.net)
    return out


def _code_bits(code) -> tuple:
    return code.alphas, [repr(p.value) for p in code.points], [p.space for p in code.points], code.special


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["schottky", "cyclic", "covered", "free", "zn", "product", "schottky-wide"]),
    depth=st.integers(1, 7),
    cap=st.sampled_from([1, 2, 3, 5, 8, 13, 40, 200]),
    eta_frac=st.sampled_from([1.0, 0.5, 0.1]),
    data=st.data(),
)
def test_enumerate_codes_equals_the_branch_loop(name, depth, cap, eta_frac, data):
    # small caps truncate at the first level, larger ones deeper down
    system, datum = _coded_systems()[name]
    x = data.draw(st.sampled_from(list(datum.net)))
    eta = datum.delta * eta_frac
    codes, truncated = coding.enumerate_codes(datum, system, eta, x, depth, cap)
    slow, slow_truncated = enumerate_codes_loop(datum, system, eta, x, depth, cap)
    assert truncated == slow_truncated
    assert [_code_bits(c) for c in codes] == [_code_bits(c) for c in slow]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["schottky", "cyclic", "covered", "free", "zn", "product"]),
    reverse_ties=st.booleans(),
    data=st.data(),
)
def test_make_code_equals_the_scalar_greedy_loop(name, reverse_ties, data):
    system, datum = _coded_systems()[name]
    x = data.draw(st.sampled_from(list(datum.net)))
    points, alphas = [x], []
    try:
        for _ in range(12):
            e = greedy_entry(datum, points[-1], datum.delta, reverse_ties)
            alphas.append(e.index)
            points.append(code_step(system, e, points[-1]))
    except CodingError as err:
        with pytest.raises(CodingError, match=re.escape(str(err))):
            coding.make_code(datum, system, datum.delta, x, 12, reverse_ties)
        return
    code = coding.make_code(datum, system, datum.delta, x, 12, reverse_ties)
    assert _code_bits(code) == (tuple(alphas), [repr(p.value) for p in points], [p.space for p in points], True)


@functools.lru_cache(maxsize=None)
def _squared_systems() -> dict:
    # entry symbols of two letters: their backward words are composed
    # matrices on Schottky, letter by letter on the covered circle
    out = {}
    for name in ("schottky", "covered"):
        system, datum = _coded_systems()[name]
        square = tuple(CoverEntry(e.index, groups.multiply(e.symbol, e.symbol), e.region) for e in datum.entries)
        out[name + "-squared"] = system, ExpansionDatum(square, datum.delta, datum.lam, datum.lip, datum.net)
    return out


def _step_rows(datum, system, eta, points, depth, reverse_ties) -> list:
    """Per point, the scalar loop's entry indices, the reprs and spaces of
    its points, and its error text (None when every step was taken)."""
    rows = []
    for x in points:
        alphas, orbit, error = [], [x], None
        for _ in range(depth):
            try:
                e = greedy_entry(datum, orbit[-1], eta, reverse_ties)
            except CodingError as err:
                error = str(err)
                break
            alphas.append(e.index)
            orbit.append(code_step(system, e, orbit[-1]))
        rows.append((alphas, [repr(p.value) for p in orbit], [p.space for p in orbit], error))
    return rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(
        ["schottky", "cyclic", "covered", "free", "zn", "product", "schottky-wide",
         "schottky-squared", "covered-squared"]
    ),
    depth=st.sampled_from([0, 1, 2, 5, 12, 20]),
    reverse_ties=st.booleans(),
    eta_frac=st.sampled_from([1.0, 0.5]),
    seeds=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    data=st.data(),
)
def test_make_codes_equals_the_scalar_greedy_loop_row_by_row(name, depth, reverse_ties, eta_frac, seeds, data):
    # net points, repeated ones, and random points off the limit set whose
    # codes fail at different depths: each row is its own scalar loop, with
    # the same error text, whatever the other rows do
    system, datum = {**_coded_systems(), **_squared_systems()}[name]
    net = list(datum.net)
    points = data.draw(st.lists(st.sampled_from(net), min_size=0, max_size=6))
    points += [system.space.random_point(random.Random(seed)) for seed in seeds]
    points = data.draw(st.permutations(points))
    eta = datum.delta * eta_frac
    codes = make_codes(datum, system, eta, points, depth, reverse_ties)
    for row, slow in enumerate(_step_rows(datum, system, eta, points, depth, reverse_ties)):
        entries, orbit, error = codes.steps(row)
        orbit = [points[row], *orbit]
        fast = ([e.index for e in entries], [repr(p.value) for p in orbit], [p.space for p in orbit],
                None if error is None else str(error))
        assert fast == slow
        if error is None:
            assert _code_bits(codes.code(row)) == (tuple(slow[0]), slow[1], slow[2], True)
        else:
            with pytest.raises(CodingError, match=re.escape(slow[3])):
                codes.code(row)


def test_make_codes_pins_an_orbit_to_the_first_fixed_angle_within_reach():
    # a point at a fixed angle of the applied letter stays there; the snap
    # tolerance is far below the distance between two fixed angles, so the
    # first pinned angle within it is the only one
    system, datum = _coded_systems()["schottky"]
    pinned = [(e, system.letter_maps[e.backward[1]].pinned_angles) for e in datum.entries]
    points = [system.space.point(f + off) for _, angles in pinned for f in angles for off in (0.0, 1e-13, -4e-13)]
    codes = make_codes(datum, system, datum.delta, points, 3)
    for row, slow in enumerate(_step_rows(datum, system, datum.delta, points, 3, False)):
        entries, orbit, error = codes.steps(row)
        assert ([e.index for e in entries], [repr(p.value) for p in [points[row], *orbit]]) == tuple(slow[:2])


@functools.lru_cache(maxsize=None)
def _zn_jitter():
    system = zoo.make_zn_projective(ZN_DIAGONALS[2])
    datum = build_expansion_datum(system, 1.4)
    ps = make_perturbed(ActionView(system, zoo.perturb(system, zoo.MatrixJitter(1e-6, seed=7))), datum, 1)
    return PerturbedSystem(ps.base, ps.datum, ps.view, {}, ps.epsilon)


def _table_bits(entries, extra, failures) -> tuple:
    return (
        [(x, phi.value if isinstance(phi.value, tuple) else phi.value.hex(), n, bound.hex())
         for x, phi, n, bound in entries],
        {y: phi.value if isinstance(phi.value, tuple) else phi.value.hex() for y, phi in extra.items()},
        failures,
    )


@pytest.mark.parametrize("tol, max_depth", [(1e-9, 200), (1e-12, 200), (0.0, 13), (1e-3, 5)])
@pytest.mark.parametrize("key", PERTURBED_KEYS + [("zn", "matrix_jitter")])
def test_conjugacy_map_equals_the_step_loop_point_by_point(key, tol, max_depth):
    # a slice of the net, a repeated point, points near the net and points
    # off the limit set, whose codes fail at different steps.  Schottky points
    # stop past their first block of 12 at tol 1e-12, and at tol 0 every point
    # runs out of depth past it; on P^2 (push_rows = 1) every step past the
    # first continues on its own, and the points near the axes fail at step 2
    ps = _zn_jitter() if key[0] == "zn" else _perturbed_systems()[key]
    space = ps.base.space
    net = list(ps.datum.net)
    net = net[: len(net) // 4 or None] + net[:1]
    if key[0] == "zn":
        net += [space.point((1.0, 1e-3, 2e-3)), space.point((2e-3, 1e-3, 1.0))]
    else:
        net += [space.point(x.value + 1e-4) for x in net[:2]]
    net += [space.random_point(random.Random(seed)) for seed in range(3)]
    table = conjugacy_map(ps, net, tol, max_depth)
    entries = [(e.x, e.phi, e.iterations, e.stop_diameter) for e in table.entries]
    assert _table_bits(entries, table.extra, table.failures) == _table_bits(*conjugacy_map_steps(ps, net, tol, max_depth))
    assert table.failures or max_depth < 200  # off-limit points fail at tol 1e-9


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=40), shift=st.integers(0, 39))
def test_circular_runs_equal_the_entry_loop(mask, shift):
    # the arcs of a circle cover: runs across the end of the grid, and grids
    # all True or all False
    mask = np.roll(np.array(mask), shift)
    assert _circular_runs(mask) == circular_runs_loop(mask)
    for fill in (True, False):
        full = np.full(len(mask), fill)
        assert _circular_runs(full) == circular_runs_loop(full)
