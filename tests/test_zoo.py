import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import expansion_factor_fd, parse

from expaction import groups, zoo
from expaction.expansion import ActionView
from expaction.geometry import TAU, circle_dist, letter_inverse
from expaction.zoo import (
    BumpDiffeo,
    ConstructionError,
    MatrixJitter,
    MoebiusMap,
    expansion_factor,
    validate_inverses,
)

RNG = np.random.default_rng(99)


def chart_point(space, x):
    return space.point(2.0 * math.atan(x))


# ---------------------------------------------------------------------------
# cyclic hyperbolic


def test_apply_identity_and_fixed_point(cyclic_system):
    s = cyclic_system
    x = s.space.point(1.234)
    assert s.apply(s.alphabet.identity(), x) == x
    g = s.alphabet.generator(0, 1)
    assert s.apply(g, s.space.point(0.0)).value == 0.0


def test_apply_chart_evaluation(cyclic_system):
    # gamma: x -> 4x in the chart, so chart 1 goes to chart 4
    s = cyclic_system
    g = s.alphabet.generator(0, 1)
    y = s.apply(g, chart_point(s.space, 1.0))
    assert y.value == pytest.approx(2.0 * math.atan(4.0), abs=1e-12)


def test_expansion_factor_at_fixed_point(cyclic_system):
    g = cyclic_system.alphabet.generator(0, 1)
    x = cyclic_system.space.point(0.0)
    assert expansion_factor(cyclic_system, g, x) == pytest.approx(4.0, abs=1e-12)


def test_expansion_factor_chart_formula_and_fd_oracle(cyclic_system):
    # analytic value 4*(1+x^2)/(1+16x^2) at x = 1, i.e. 8/17
    s = cyclic_system
    g = s.alphabet.generator(0, 1)
    x = chart_point(s.space, 1.0)
    analytic = expansion_factor(s, g, x)
    assert analytic == pytest.approx(8.0 / 17.0, abs=1e-12)
    fd6 = expansion_factor_fd(s, g, x, h=1e-6)
    fd8 = expansion_factor_fd(s, g, x, h=1e-8)
    assert fd6 == pytest.approx(analytic, abs=1e-8)
    assert fd8 == pytest.approx(analytic, abs=1e-6)


def test_cyclic_limit_set_and_validation(cyclic_system):
    net = cyclic_system.limit_net()
    assert [p.value for p in net] == [0.0, math.pi]
    samples = [cyclic_system.space.random_point(RNG) for _ in range(1000)]
    assert validate_inverses(cyclic_system, samples) <= 1e-9


def test_cyclic_isometric_arcs_disjoint():
    m = MoebiusMap.from_matrix([[2.0, 0.0], [0.0, 0.5]])
    c1, h1 = m.isometric_arc()
    c2, h2 = m.inverse().isometric_arc()
    assert c1 == pytest.approx(0.0, abs=1e-12)
    assert c2 == pytest.approx(math.pi, abs=1e-12)
    assert circle_dist(c1, c2) > h1 + h2


def test_cyclic_rejects_small_multiplier():
    with pytest.raises(ConstructionError):
        zoo.make_cyclic_hyperbolic(1.0)


# ---------------------------------------------------------------------------
# covered cyclic


def test_covered_fixed_points(covered_system):
    expected = sorted(
        ((base + TAU * j) / 3) % TAU for base in (0.0, math.pi) for j in range(3)
    )
    got = sorted(p.value for p in covered_system.limit_net())
    assert got == pytest.approx(expected, abs=1e-12)


def test_covering_semiconjugacy(covered_system, cyclic_system):
    # p(lift(theta)) = gamma(p(theta)) on a uniform grid
    k = covered_system.space.degree
    g_cov = covered_system.alphabet.generator(0, 1)
    g_base = cyclic_system.alphabet.generator(0, 1)
    worst = 0.0
    for theta in np.linspace(0, TAU, 1000, endpoint=False):
        lifted = covered_system.apply(g_cov, covered_system.space.point(theta))
        down = (k * lifted.value) % TAU
        base = cyclic_system.apply(g_base, cyclic_system.space.point((k * theta) % TAU))
        worst = max(worst, circle_dist(down, base.value))
    assert worst <= 1e-9


def test_covered_expansion_matches_base(covered_system, cyclic_system):
    g = covered_system.alphabet.generator(0, 1)
    lifted_rep = covered_system.space.point(0.0)
    analytic = expansion_factor(covered_system, g, lifted_rep)
    fd = expansion_factor_fd(covered_system, g, lifted_rep, h=1e-7)
    base = expansion_factor(
        cyclic_system, cyclic_system.alphabet.generator(0, 1), cyclic_system.space.point(0.0)
    )
    assert analytic == pytest.approx(base, abs=1e-12)
    assert fd == pytest.approx(base, rel=1e-5)


def test_covered_rejects_bad_input():
    with pytest.raises(ConstructionError):
        zoo.make_covered_cyclic(2.0, 1)
    with pytest.raises(ConstructionError):
        zoo.make_covered_cyclic(1.0, 3)


# ---------------------------------------------------------------------------
# schottky


def test_schottky_net_counts(schottky_system):
    # one sample per cutting cylinder: 2k*(2k-1)^(depth-1) points
    assert len(schottky_system.limit_net(4)) == 4 * 3**3
    assert len(schottky_system.limit_net(2)) == 4 * 3


def test_schottky_ping_pong_on_samples(schottky_system):
    arcs = {letter: m.isometric_arc() for letter, m in schottky_system.letter_maps.items()}
    net = schottky_system.limit_net(4)
    for letter, (center, hw) in arcs.items():
        g = schottky_system.alphabet.generator(letter[0], letter[1])
        inv_arc = arcs[(letter[0], -letter[1])]
        for x in net:
            if circle_dist(x.value, center) < hw:
                continue  # x in the repelling arc of g is not mapped inside
            y = schottky_system.apply(g, x)
            assert circle_dist(y.value, inv_arc[0]) < inv_arc[1]


def test_schottky_rejects_overlapping_arcs():
    # multipliers this small make the four arcs overlap
    with pytest.raises(ConstructionError):
        zoo.make_schottky(zoo.default_schottky_matrices(1.2))


def test_schottky_rank_one_degenerates():
    sys1 = zoo.make_schottky([[[2.0, 0.0], [0.0, 0.5]]])
    g = sys1.alphabet.generator(0, 1)
    assert expansion_factor(sys1, g, sys1.space.point(0.0)) == pytest.approx(4.0)


def test_schottky_net_is_backward_stable(schottky_system):
    # deepening the net refines cylinders: every depth-4 point has a depth-5
    # point within the cylinder contraction scale
    net4 = schottky_system.limit_net(4)
    net5 = schottky_system.limit_net(5)
    vals5 = sorted(p.value for p in net5)
    import bisect

    worst = 0.0
    for p in net4:
        i = bisect.bisect(vals5, p.value)
        best = min(
            circle_dist(p.value, vals5[j % len(vals5)]) for j in (i - 1, i, i + 1)
        )
        worst = max(worst, best)
    assert worst < 0.05


def test_schottky_inverse_consistency(schottky_system):
    samples = [schottky_system.space.random_point(RNG) for _ in range(1000)]
    assert validate_inverses(schottky_system, samples) <= 1e-9


def word_by_word_net(system, depth: int) -> list:
    """Reference: enumerate the reduced words, then evaluate each from scratch
    (attracting angle of the last letter, the others applied right to left)."""
    maps = system.letter_maps
    chars = [(i, s) for i in range(system.alphabet.rank) for s in (1, -1)]
    words = [[ch] for ch in chars]
    for _ in range(depth - 1):
        words = [w + [ch] for w in words for ch in chars if ch != (w[-1][0], -w[-1][1])]
    angles = []
    for w in words:
        theta = maps[w[-1]].fixed_angles()[0]
        for letter in reversed(w[:-1]):
            theta = maps[letter].apply_angle(theta)
        angles.append(theta)
    return angles


def _rotated_boost(m: float, a: float) -> list:
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s], [s, c]])
    return (rot @ np.diag([m, 1.0 / m]) @ rot.T).tolist()


# three boosts with axes 60 degrees apart: six disjoint isometric arcs
RANK3_MATRICES = [_rotated_boost(4.0, a) for a in (0.0, math.pi / 6, math.pi / 3)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(m=st.floats(min_value=2.5, max_value=8.0), depth=st.integers(1, 7))
def test_schottky_net_equals_word_by_word_reference(m, depth):
    system = zoo.make_schottky(zoo.default_schottky_matrices(m))
    assert [p.value for p in system.limit_net(depth)] == word_by_word_net(system, depth)


@settings(max_examples=7, derandomize=True, deadline=None)
@given(depth=st.integers(1, 7))
def test_rank3_schottky_net_equals_word_by_word_reference(depth):
    system = zoo.make_schottky(RANK3_MATRICES)
    assert [p.value for p in system.limit_net(depth)] == word_by_word_net(system, depth)


def test_schottky_attracting_angles_computed_once_per_letter(monkeypatch):
    calls = []
    original = MoebiusMap.fixed_angles

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MoebiusMap, "fixed_angles", counted)
    system = zoo.make_schottky()
    assert len(calls) == 2 * 2  # one per signed letter of the rank-2 group
    assert len(system.limit_net(9)) == 4 * 3**8
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# free boundary


def test_free_boundary_exact_scaling(fb_system):
    s = fb_system
    a_inv = s.alphabet.generator(0, -1)  # strips the leading 'a'
    x, y = s.space.point("abab"), s.space.point("abba")
    d0 = s.space.raw_distance(x.value, y.value)
    fx, fy = s.apply(a_inv, x), s.apply(a_inv, y)
    assert s.space.raw_distance(fx.value, fy.value) == 2.0 * d0


def test_free_boundary_round_trip_exact(fb_system):
    s = fb_system
    g, ginv = s.alphabet.generator(1, 1), s.alphabet.generator(1, -1)
    x = s.space.point("abaB")
    assert s.apply(g, s.apply(ginv, x)).value == x.value


def test_free_boundary_exact_expansion_factor(fb_system):
    s = fb_system
    x = s.space.point("abab")
    assert expansion_factor(s, s.alphabet.generator(0, -1), x) == pytest.approx(2.0)
    assert expansion_factor(s, s.alphabet.generator(0, 1), x) == pytest.approx(0.5)


def test_free_boundary_expansion_factor_of_a_long_word_at_a_net_point(fb_system):
    # three prepended letters: the old probe flipped a letter past the depth
    # and read 0.0
    s = fb_system
    x = s.limit_net()[0]
    assert x.value == "a" * s.space.depth
    assert expansion_factor(s, parse(s.alphabet, "aaa"), x) == 0.125
    assert expansion_factor(s, parse(s.alphabet, "AAA"), x) == 8.0


FREE_SYSTEMS = [zoo.make_free_boundary(2, 2.0), zoo.make_free_boundary(3, 1.3)]


@st.composite
def _free_point_word_and_partner(draw):
    """(system, x, g, y): x a limit-net or random point, g a reduced word and
    y a point that agrees with x on c letters, |g| <= c < len(x) - |g|."""
    system = draw(st.sampled_from(FREE_SYSTEMS))
    space = system.space
    chars = space.letters + space.letters.upper()
    if draw(st.booleans()):
        x = draw(st.sampled_from(system.limit_net(draw(st.integers(1, 3)))))
    else:
        x = space.random_point(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    picks = draw(st.lists(st.sampled_from(system.alphabet.signed_letters()), max_size=10))
    g = groups.Word(system.alphabet, tuple(picks))
    n = groups.word_length(g)
    c = draw(st.integers(n, len(x.value) - n - 1))
    w = x.value[:c]
    while len(w) < len(x.value):
        # the first new letter differs from x's; all keep the word reduced
        banned = {letter_inverse(w[-1])} if w else set()
        if len(w) == c:
            banned.add(x.value[c])
        w += draw(st.sampled_from([ch for ch in chars if ch not in banned]))
    return system, x, g, space.point(w)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_free_point_word_and_partner())
def test_free_boundary_stretch_is_the_distance_ratio(case):
    system, x, g, y = case
    space = system.space
    gx, gy = system.apply(g, x), system.apply(g, y)
    ratio = space.raw_distance(gx.value, gy.value) / space.raw_distance(x.value, y.value)
    assert expansion_factor(system, g, x) == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("a", [1.05, 1.5, 1.69, 2.0])
def test_free_boundary_builds_for_every_visual_parameter(a):
    # full-depth samples lost their last letter to truncation in the inverse
    # round trip, an error a**-39 that exceeded 1e-9 below a = 1.70
    assert zoo.make_free_boundary(2, a).space.a == a


@pytest.mark.parametrize("a", [1.05, 2.0])
def test_a_broken_inverse_fails_the_construction_check(a):
    system = zoo.make_free_boundary(2, a)
    maps = dict(system.letter_maps)
    maps[(0, -1)] = maps[(1, -1)]  # a undone by B
    with pytest.raises(ConstructionError, match="inverse consistency"):
        broken = zoo.ActionSystem(
            system.name, system.alphabet, system.space, maps, system.net_fn, system.default_depth
        )
        zoo._construction_check(broken)


def test_free_boundary_parameter_validation():
    with pytest.raises(ConstructionError):
        zoo.make_free_boundary(1, 2.0)
    with pytest.raises(ConstructionError):
        zoo.make_free_boundary(2, 2.5)


# ---------------------------------------------------------------------------
# projective Z^n


def test_zn_expansion_eigenvalue_ratio(zn_system):
    # at e_0 the inverse generator stretches by (top eigenvalue / next) = 3
    e0 = zn_system.space.point((1.0, 0.0, 0.0))
    g1_inv = zn_system.alphabet.generator(0, -1)
    analytic = expansion_factor(zn_system, g1_inv, e0)
    fd = expansion_factor_fd(zn_system, g1_inv, e0, h=1e-6)
    assert analytic == pytest.approx(3.0, abs=1e-12)
    assert fd == pytest.approx(3.0, rel=1e-4)


def test_zn_limit_set_invariant(zn_system):
    for g in zn_system.generators():
        for x in zn_system.limit_net():
            assert zn_system.apply(g, x) == x


def test_zn_bi_proximality_validation():
    with pytest.raises(ConstructionError):
        zoo.make_zn_projective([[9.0, 1.0, 3.0], [3.0, 9.0, 1.0]])


# ---------------------------------------------------------------------------
# products


def test_product_componentwise_action(product_system, fb_system):
    s = product_system
    ga = s.alphabet.generator(0, 1)  # (a, e)
    x0 = s.space.embed(0, fb_system.space.point("bab"))
    x1 = s.space.embed(1, fb_system.space.point("bab"))
    moved = s.apply(ga, x0)
    assert moved.value[0] == 0 and moved.value[1] == "abab"[: len(moved.value[1])]
    assert s.apply(ga, x1) == x1  # identity on the other component


def test_product_swap_involution(product_system):
    s = product_system
    swap = s.alphabet.generator(s.alphabet.rank - 1, 1)
    x = s.space.embed(0, zoo.make_free_boundary(2, 2.0).space.point("ab"))
    assert s.apply(groups.multiply(swap, swap), x) == x
    assert s.apply(swap, x).value[0] == 1


def test_product_swap_requires_identical_components(fb_system, schottky_system):
    with pytest.raises(ConstructionError):
        zoo.make_product(fb_system, schottky_system, with_swap=True)


# ---------------------------------------------------------------------------
# perturbations


def test_zero_jitter_is_identity(schottky_system):
    pm = zoo.perturb(schottky_system, MatrixJitter(0.0, seed=3))
    for letter, m in pm.letter_maps.items():
        base = schottky_system.letter_maps[letter]
        for theta in np.linspace(0, TAU, 17, endpoint=False):
            assert m.apply_angle(theta) == base.apply_angle(theta)


def test_jitter_seed_determinism(schottky_system):
    p1 = zoo.perturb(schottky_system, MatrixJitter(1e-4, seed=5))
    p2 = zoo.perturb(schottky_system, MatrixJitter(1e-4, seed=5))
    assert p1.letter_maps == p2.letter_maps


@pytest.mark.parametrize("name", ["fb_system", "product_system"])
def test_nonzero_jitter_off_a_perturbable_space_is_a_construction_error(request, name):
    system = request.getfixturevalue(name)
    with pytest.raises(ConstructionError, match=f"matrix jitter unsupported on {system.space.kind}"):
        zoo.perturb(system, MatrixJitter(1e-6))
    assert zoo.perturb(system, MatrixJitter(0.0)).letter_maps == system.letter_maps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_constructors_refuse_non_finite_entries(bad):
    # a NaN determinant passes `det <= 0` and `abs(det) < 1e-12` alike
    with pytest.raises(ConstructionError, match="matrix entries must be finite"):
        MoebiusMap.from_matrix([[2.0, bad], [0.0, 0.5]])
    with pytest.raises(ConstructionError, match="projective matrix entries must be finite"):
        zoo.ProjectiveMap.from_matrix([[9.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, 1.0]])


def test_moebius_from_matrix_refuses_an_overflowing_determinant():
    with pytest.raises(ConstructionError, match="matrix determinant overflows"):
        MoebiusMap.from_matrix([[1e200, 0.0], [0.0, 1e200]])


def test_translation_conjugate_by_a_huge_t_is_a_construction_error(cyclic_system):
    # the conjugated matrix overflows to inf - inf
    with pytest.raises(ConstructionError, match="matrix entries must be finite"):
        zoo.translation_conjugate(cyclic_system, 1e308)


class _Draws:
    def __init__(self, value):
        self.value = value

    def uniform(self, low, high):
        return self.value


@pytest.mark.parametrize("noise", [-1.0, -3.0, 1e308])
def test_a_jittered_lift_needs_a_positive_finite_multiplier(noise):
    with pytest.raises(ConstructionError, match="jittered multiplier must be positive and finite"):
        zoo.LiftedCircleMap(2.0, 3).jittered(_Draws(noise), 1.0, False)


def test_translation_conjugate_fixed_points(cyclic_system):
    t = 1e-3
    pm = zoo.translation_conjugate(cyclic_system, t)
    # gamma' = 4x - 3t fixes chart t and infinity
    fixed = cyclic_system.space.point(2.0 * math.atan(t))
    moved = ActionView(cyclic_system, pm).apply_letter((0, 1), fixed)
    assert circle_dist(moved.value, fixed.value) <= 1e-12
    inf = cyclic_system.space.point(math.pi)
    assert circle_dist(ActionView(cyclic_system, pm).apply_letter((0, 1), inf).value, math.pi) <= 1e-12


def test_bump_rejects_non_injective():
    with pytest.raises(ConstructionError):
        BumpDiffeo(center=0.0, width=0.1, height=0.2)


@pytest.mark.parametrize(
    "center, width, height",
    [
        (1.0, 0.0, 1e-6),
        (1.0, -0.5, 1e-6),
        (1.0, math.inf, 1e-6),
        (1.0, math.nan, 1e-6),
        (1.0, 0.5, math.nan),
        (1.0, 0.5, -math.inf),
        (math.nan, 0.5, 1e-6),
        (math.inf, 0.5, 1e-6),
    ],
    ids=["zero-width", "negative-width", "infinite-width", "nan-width", "nan-height",
         "infinite-height", "nan-center", "infinite-center"],
)
def test_bump_rejects_bad_parameters(center, width, height):
    # a zero width divided by zero, and a negative, infinite or NaN one
    # passed the slope test for any height
    with pytest.raises(ConstructionError):
        BumpDiffeo(center, width, height)


def test_bump_perturbation_rejects_a_zero_width(schottky_system):
    with pytest.raises(ConstructionError):
        zoo.perturb(schottky_system, zoo.BumpCompose(1.0, 0.0, 1e-6))


def test_bump_inverse_round_trip(schottky_system):
    pm = zoo.perturb(schottky_system, zoo.BumpCompose(center=1.0, width=0.5, height=1e-3))
    x = schottky_system.space.point(1.1)
    y = ActionView(schottky_system, pm).apply_letter((0, 1), x)
    back = ActionView(schottky_system, pm).apply_letter((0, -1), y)
    assert circle_dist(back.value, x.value) <= 1e-12


def test_limit_net_invariance(schottky_system):
    # generator images of net points stay within the net's fattening by
    # twice its resolution, the largest nearest-neighbor distance in it
    net = schottky_system.limit_net(4)
    res = max(
        min(circle_dist(x.value, y.value) for j, y in enumerate(net) if j != i)
        for i, x in enumerate(net)
    )
    for g in schottky_system.generators():
        for x in net[::7]:
            y = schottky_system.apply(g, x)
            nearest = min(circle_dist(y.value, p.value) for p in net)
            assert nearest <= 2.0 * res
