"""Per-kind evaluation on the spaces and the one Moebius composer, against
the module functions and loops they replaced.

Each reference below is the replaced code, kept here as an independent
oracle; every comparison is exact (==, reprs or bit patterns).
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles import product_apply, tangent_basis

from expaction import groups, zoo
from expaction.expansion import ActionView
from expaction.geometry import (
    TAU,
    Circle,
    CoveredCircle,
    DisjointUnion,
    FreeBoundary,
    ProjectiveSpace,
)

# ---------------------------------------------------------------------------
# references: the replaced module functions


def _old_tangent_basis(v):
    basis = []
    for e in np.eye(len(v)):
        u = e - (e @ v) * v
        for b in basis:
            u = u - (u @ b) * b
        if np.linalg.norm(u) > 1e-9:
            basis.append(u / np.linalg.norm(u))
    return basis


def _old_ball_net(space, center, eta, k=64):
    pts = [center]
    if isinstance(space, (Circle, CoveredCircle)):
        for t in range(k):
            f = -1.0 + 2.0 * (t + 0.5) / k
            pts.append(space.point(center.value + f * eta * (1 - 1e-12)))
    elif isinstance(space, ProjectiveSpace):
        v = np.asarray(center.value)
        basis = _old_tangent_basis(v)
        per_ring = max(4, k // 3)
        for frac in (0.33, 0.66, 0.999):
            r = frac * eta
            if len(basis) == 1:  # a ring of P^1 is the two points at +-r
                pts.extend(space.point(tuple(math.cos(r) * v + math.sin(r) * w))
                           for w in (basis[0], -basis[0]))
                continue
            for t in range(per_ring):
                ang = TAU * t / per_ring
                w = basis[0] * math.cos(ang) + basis[1] * math.sin(ang)
                pts.append(space.point(tuple(math.cos(r) * v + math.sin(r) * w)))
    return pts


def _old_neighborhood_samples(space, net, delta):
    pts = list(net)
    if isinstance(space, (Circle, CoveredCircle)):
        for x in net:
            for f in (-1.0, -0.5, 0.5, 1.0):
                pts.append(space.point(x.value + f * delta))
    elif isinstance(space, ProjectiveSpace):
        for x in net:
            v = np.asarray(x.value)
            for w in _old_tangent_basis(v):
                for f in (-1.0, -0.5, 0.5, 1.0):
                    r = f * delta
                    pts.append(space.point(tuple(math.cos(r) * v + math.sin(r) * w)))
    elif isinstance(space, DisjointUnion):
        for idx, comp in enumerate(space.components):
            inner_net = [space.component_point(x) for x in net if x.value[0] == idx]
            pts.extend(
                space.embed(idx, p) for p in _old_neighborhood_samples(comp, inner_net, delta)
            )
    return pts


def _old_set_diameter(space, pts):
    if isinstance(space, (Circle, CoveredCircle)):
        vals = sorted(p.value for p in pts)
        gaps = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        gaps.append(vals[0] + TAU - vals[-1])
        return TAU - max(gaps)
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, space.raw_distance(pts[i].value, pts[j].value))
    return best


def _old_moebius_word(maps, letters, x):
    # the composed-matrix branch of the old ActionSystem.apply
    mat = np.eye(2)
    for l in letters:
        mat = mat @ maps[l].np_matrix
        scale = np.max(np.abs(mat))
        if scale > 1e100:
            mat = mat / scale
    return zoo.MoebiusMap.apply_matrix_angle(mat, x.value)


# ---------------------------------------------------------------------------
# the spaces


FREE = FreeBoundary(rank=2, a=2.0, depth=12)
SPACES = {
    "circle": Circle(),
    "covered": CoveredCircle(degree=3),
    "projective": ProjectiveSpace(n=2),
    "projective-line": ProjectiveSpace(n=1),
    "projective-3": ProjectiveSpace(n=3),
    "free": FREE,
    "union-free": DisjointUnion.of([FREE, FREE]),
    "union-mixed": DisjointUnion.of([Circle(), ProjectiveSpace(n=2)]),
}
# the kinds that define ball_net: a command pushes balls only on circles
# (nested images, the conjugacy) and projective spaces (the conjugacy)
BALL_NET_SPACES = ("circle", "covered", "projective", "projective-line", "projective-3")


def _points(space, seed, count):
    rng = np.random.default_rng(seed)
    return [space.random_point(rng) for _ in range(count)]


def _same(new, old):
    assert new == old
    assert [repr(p.value) for p in new] == [repr(p.value) for p in old]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(BALL_NET_SPACES),
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(1e-6, 1.0),
    k=st.integers(1, 70),
)
def test_ball_net_equals_the_module_function(name, seed, eta, k):
    space = SPACES[name]
    (center,) = _points(space, seed, 1)
    _same(space.ball_net(center, eta, k), _old_ball_net(space, center, eta, k))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 12),
    delta=st.floats(1e-9, 1.0),
)
def test_neighborhood_equals_the_module_function(name, seed, size, delta):
    space = SPACES[name]
    net = _points(space, seed, size)
    _same(space.neighborhood(net, delta), _old_neighborhood_samples(space, net, delta))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 25),
)
def test_set_diameter_equals_the_module_function(name, seed, size):
    space = SPACES[name]
    pts = _points(space, seed, size)
    assert space.set_diameter(pts).hex() == float(_old_set_diameter(space, pts)).hex()


# tiny coordinates put v within 1e-12..1e-6 of a coordinate axis
COORDS = st.one_of(
    st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6), st.floats(1e-12, 1e-6)
)


def _frame_error(v, basis):
    frame = np.column_stack([v] + basis)
    return np.abs(frame.T @ frame - np.eye(len(frame.T))).max()


@settings(max_examples=500, derandomize=True, deadline=None)
@given(coords=st.lists(COORDS, min_size=2, max_size=6), axis=st.integers(0, 11))
def test_tangent_basis_equals_the_loop_and_is_orthonormal(coords, axis):
    if axis < len(coords):  # also probe coordinate axes, where the loop drops one
        coords = [1.0 if i == axis else 0.0 for i in range(len(coords))]
    if not any(coords):
        coords[0] = 1.0
    v = np.asarray(ProjectiveSpace(n=len(coords) - 1).point(coords).value)
    basis = list(ProjectiveSpace.tangent_frames(v[None])[0].T)
    assert [b.tobytes() for b in basis] == [b.tobytes() for b in tangent_basis(v)]
    assert len(basis) == len(v) - 1
    assert _frame_error(v, basis) < 1e-9
    old = _old_tangent_basis(v)
    if len(old) == len(v) - 1 and _frame_error(v, old) < 1e-9:
        # where the one-pass loop was orthonormal its basis is kept bit for bit
        assert all(np.array_equal(b, o) for b, o in zip(basis, old))


def test_tangent_basis_near_an_axis_is_orthonormal():
    # the one-pass loop returned two "tangent" vectors of P^1 here, one of
    # them along v
    v = np.asarray(ProjectiveSpace(n=1).point((4.0, 1e-6)).value)
    assert max(abs(b @ v) for b in _old_tangent_basis(v)) > 0.5
    (b,) = ProjectiveSpace.tangent_frames(v[None])[0].T
    assert abs(b @ v) < 1e-15


# ---------------------------------------------------------------------------
# the Moebius composer


CYCLIC3 = zoo.make_cyclic_hyperbolic(3.0)
SCHOTTKY = zoo.make_schottky()


def _three_routes(system, g, x):
    """rho(g)(x) through the system, through a perturbed view whose maps
    equal the base maps, and through the composer."""
    pm = zoo.perturb(system, zoo.MatrixJitter(0.0))
    assert pm == system.letter_maps
    letters = groups.letters_of(g)
    composed = zoo.compose_moebius(np.eye(2), [system.letter_maps[l] for l in letters])
    return (
        system.apply(g, x).value,
        ActionView(system, pm).apply_word(g, x).value,
        system.space.point(zoo.MoebiusMap.apply_matrix_angle(composed, x.value)).value,
    )


def test_a_300_letter_word_crosses_the_rescale():
    gamma = CYCLIC3.letter_maps[(0, 1)]
    assert 3.0**300 > 1e100
    assert np.max(np.abs(zoo.compose_moebius(np.eye(2), [gamma] * 300))) <= 1e100


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(-400, 400).filter(lambda n: abs(n) > 1), theta=st.floats(0.0, TAU))
def test_long_cyclic_words_agree_on_every_route(n, theta):
    g = groups.Word(CYCLIC3.alphabet, n)
    x = CYCLIC3.space.point(theta)
    old = CYCLIC3.space.point(_old_moebius_word(CYCLIC3.letter_maps, groups.letters_of(g), x))
    routes = _three_routes(CYCLIC3, g, x)
    assert [v.hex() for v in routes] == [old.value.hex()] * 3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    picks=st.lists(st.sampled_from(SCHOTTKY.alphabet.signed_letters()), min_size=2, max_size=400),
    theta=st.floats(0.0, TAU),
)
def test_schottky_words_agree_on_every_route(picks, theta):
    g = groups.Word(SCHOTTKY.alphabet, tuple(picks))
    letters = groups.letters_of(g)
    x = SCHOTTKY.space.point(theta)
    routes = _three_routes(SCHOTTKY, g, x)
    if len(letters) > 1:
        old = SCHOTTKY.space.point(_old_moebius_word(SCHOTTKY.letter_maps, letters, x))
        assert [v.hex() for v in routes] == [old.value.hex()] * 3


PUSH_SYSTEMS = {
    "schottky": SCHOTTKY,
    "cyclic": CYCLIC3,
    "covered": zoo.make_covered_cyclic(3.0, 3),
    "free": zoo.make_free_boundary(2, 1.5),
    "zn": zoo.make_zn_projective([[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]]),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(PUSH_SYSTEMS)), data=st.data())
def test_a_grown_word_push_equals_apply_letters_at_every_prefix(name, data):
    # symbols of 1-3 letters, unreduced as a code spells them; the empty
    # prefix is the identity and a one-letter prefix applies the map itself
    system = PUSH_SYSTEMS[name]
    letters = system.alphabet.signed_letters()
    symbols = data.draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=3), max_size=8))
    x = system.space.random_point(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    push, spelled = zoo.WordPush(system.space, system.letter_maps), []
    assert repr(push(x).value) == repr(x.value)
    for symbol in symbols:
        push, spelled = push.grown(symbol), spelled + symbol
        whole = zoo.apply_letters(system.space, system.letter_maps, spelled, x)
        assert repr(push(x).value) == repr(whole.value)


def test_the_empty_word_push_is_the_identity_bit_for_bit():
    # the identity matrix moves about one angle in 25 by an ulp
    push = zoo.WordPush(SCHOTTKY.space, SCHOTTKY.letter_maps)
    for x in _points(SCHOTTKY.space, 5, 1000):
        assert push(x).value.hex() == x.value.hex()


# ---------------------------------------------------------------------------
# product words, which act by their letters


PRODUCTS = {
    "free-swap": zoo.make_product(PUSH_SYSTEMS["free"], PUSH_SYSTEMS["free"], with_swap=True),
    "free-schottky": zoo.make_product(PUSH_SYSTEMS["free"], SCHOTTKY),
    "schottky-swap": zoo.make_product(SCHOTTKY, SCHOTTKY, with_swap=True),
    "covered-zn": zoo.make_product(PUSH_SYSTEMS["covered"], PUSH_SYSTEMS["zn"]),
    "zn-swap": zoo.make_product(PUSH_SYSTEMS["zn"], PUSH_SYSTEMS["zn"], with_swap=True),
}


def _product_word(system, letters):
    g = system.alphabet.identity()
    for i, s in letters:
        g = groups.multiply(g, system.alphabet.generator(i, s))
    return g


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(PRODUCTS)), data=st.data())
def test_a_product_word_acts_by_its_letters_as_by_its_components(name, data):
    # one letter: the same map on the same value, bit for bit; on free
    # components any word, whose letters act exactly
    system = PRODUCTS[name]
    picks = st.sampled_from(system.alphabet.signed_letters())
    free = name == "free-swap"
    g = _product_word(system, data.draw(st.lists(picks, min_size=1, max_size=12 if free else 1)))
    x = system.space.random_point(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    by_letters, by_components = system.apply(g, x), product_apply(system, g, x)
    assert repr(by_letters.value) == repr(by_components.value)
    assert repr(ActionView(system).apply_word(g, x).value) == repr(by_letters.value)
    assert system.apply_values(g, [x.value]) == [by_letters.value]
