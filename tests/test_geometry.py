import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import OldCoveredCircle, OldProjectiveSpace, old_point, old_space

from expaction.geometry import (
    TAU,
    ArcRegion,
    BallRegion,
    Circle,
    ComponentRegion,
    CoveredCircle,
    CylinderRegion,
    DisjointUnion,
    EmptyRegion,
    FreeBoundary,
    ProjectiveSpace,
    SpaceMismatchError,
    distance,
    letter_inverse,
)

RNG = np.random.default_rng(20240811)

SPACES = [
    Circle(),
    ProjectiveSpace(2),
    FreeBoundary(rank=2, a=2.0),
    DisjointUnion.of([Circle(), Circle()]),
]


def test_circle_antipodal_distance():
    c = Circle()
    assert distance(c, c.point(0.0), c.point(math.pi)) == pytest.approx(math.pi)


def test_free_boundary_prefix_distance():
    # common prefix of length 2 forces a^-2 under the chosen normalization
    fb = FreeBoundary(rank=2, a=2.0)
    x, y = fb.point("abaaa"), fb.point("abbab")
    assert distance(fb, x, y) == 0.25


def test_projective_line_angle_against_brute_force():
    ps = ProjectiveSpace(2)
    x, y = ps.point((1, 0, 0)), ps.point((1, 1, 0))
    # oracle: minimize the angle over both sign representatives
    u = np.array([1.0, 0, 0])
    v = np.array([1.0, 1, 0]) / math.sqrt(2)
    oracle = min(
        math.acos(min(1.0, abs(float(np.dot(su * u, sv * v)))))
        for su in (1, -1)
        for sv in (1, -1)
    )
    assert oracle == pytest.approx(math.pi / 4)
    assert distance(ps, x, y) == pytest.approx(math.pi / 4, abs=1e-12)


def test_space_mismatch_rejected():
    c, ps = Circle(), ProjectiveSpace(2)
    with pytest.raises(SpaceMismatchError):
        distance(c, c.point(0.0), ps.point((1, 0, 0)))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_triangle_inequality_sampled(space):
    pts = [space.random_point(RNG) for _ in range(60)]
    idx = RNG.integers(0, len(pts), size=(10_000, 3))
    worst = 0.0
    for i, j, k in idx:
        x, y, z = pts[i], pts[j], pts[k]
        worst = max(
            worst,
            space.raw_distance(x.value, z.value)
            - space.raw_distance(x.value, y.value)
            - space.raw_distance(y.value, z.value),
        )
    assert worst <= 1e-12


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_metric_axioms_sampled(space):
    pts = [space.random_point(RNG) for _ in range(40)]
    for x in pts[:10]:
        assert space.raw_distance(x.value, x.value) == 0.0
    for x in pts[:20]:
        for y in pts[:20]:
            assert space.raw_distance(x.value, y.value) == pytest.approx(
                space.raw_distance(y.value, x.value), abs=1e-15
            )
            assert space.raw_distance(x.value, y.value) >= 0.0


def _circle_midpoint(space, x, y):
    d = (y.value - x.value) % TAU
    if d > math.pi:
        d -= TAU
    return space.point(x.value + d / 2.0)


def _projective_midpoint(space, x, y):
    u, v = np.asarray(x.value), np.asarray(y.value)
    if float(u @ v) < 0:
        v = -v
    m = u + v
    return space.point(tuple(m))


def test_geodesic_midpoints_circle():
    c = Circle()
    for _ in range(1000):
        x, y = c.random_point(RNG), c.random_point(RNG)
        m = _circle_midpoint(c, x, y)
        d = distance(c, x, y)
        assert distance(c, x, m) == pytest.approx(d / 2, abs=1e-9)
        assert distance(c, m, y) == pytest.approx(d / 2, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ring_point_lies_at_its_radius(n):
    space = ProjectiveSpace(n)
    axis = space.point([1.0] + [0.0] * n)
    radii = (0.4, 0.05, 1e-5)
    for center in [axis] + [space.random_point(RNG) for _ in range(5)]:
        for r, ring in zip(radii, space.rings(center, radii, 24)):
            assert len(set(ring)) == (2 if n == 1 else 24)
            for p in ring:
                assert distance(space, p, center) == pytest.approx(r, rel=1e-9, abs=1e-15)


def test_geodesic_midpoints_projective():
    ps = ProjectiveSpace(2)
    for _ in range(1000):
        x, y = ps.random_point(RNG), ps.random_point(RNG)
        if distance(ps, x, y) > math.pi / 2 - 1e-6:
            continue  # antipodal-cut points have two midpoints; skip the cut
        m = _projective_midpoint(ps, x, y)
        d = distance(ps, x, y)
        assert distance(ps, x, m) == pytest.approx(d / 2, abs=1e-9)
        assert distance(ps, m, y) == pytest.approx(d / 2, abs=1e-9)


# ---------------------------------------------------------------------------
# regions


def test_arc_ball_containment():
    c = Circle()
    # arc (0, 1): margin at 0.5 is 0.5
    arc = ArcRegion(space=c, center=0.5, half_width=0.5, label="u")
    assert arc.margin(c.point(0.5)) >= 0.4
    assert not arc.margin(c.point(0.5)) >= 0.6


def test_cylinder_margin_is_the_diameter():
    fb = FreeBoundary(rank=2, a=2.0)
    cyl = CylinderRegion(space=fb, prefix="a", label="a")
    x = fb.point("abab")
    assert cyl.margin(x) == pytest.approx(0.5)
    assert cyl.margin(x) >= 0.5
    # margin >= r is sound: every net point within r lies in the cylinder
    chars = "abAB"
    words = [c for c in chars]
    for _ in range(5):
        words = [w + c for w in words for c in chars if c != letter_inverse(w[-1])]
    net = [fb.point(w) for w in words]
    r = cyl.margin(x)
    for y in net:
        if fb.raw_distance(x.value, y.value) < r:
            assert cyl.margin(y) > 0.0


def test_shrink_region_arc():
    c = Circle()
    arc = ArcRegion(space=c, center=0.5, half_width=0.5, label="u")
    small = arc.shrunk(0.2)
    # arc (0,1) shrunk by 0.2 is (0.2, 0.8)
    assert small.margin(c.point(0.5)) == pytest.approx(0.3)
    assert small.margin(c.point(0.25)) == pytest.approx(0.05)
    assert not small.margin(c.point(0.15)) > 0.0
    gone = arc.shrunk(0.5)
    assert gone.is_empty()


def test_shrink_cylinder_empties_depth_one():
    fb = FreeBoundary(rank=2, a=2.0)
    cyl = CylinderRegion(space=fb, prefix="a", label="a")
    shr = cyl.shrunk(0.5)
    assert shr.margin(fb.point("abab")) == pytest.approx(0.0)
    assert not shr.margin(fb.point("abab")) > 0.0


def test_shrink_composes_exactly():
    c = Circle()
    arc = ArcRegion(space=c, center=1.0, half_width=0.7, label="u")
    twice = arc.shrunk(0.2).shrunk(0.3)
    once = arc.shrunk(0.2 + 0.3)
    for _ in range(200):
        x = c.random_point(RNG)
        assert twice.margin(x) == once.margin(x)


def _sample_region_pairs(space, region, n):
    pts = [space.random_point(RNG) for _ in range(n)]
    return pts


@pytest.mark.parametrize(
    "space,region",
    [
        (Circle(), ArcRegion(space=Circle(), center=1.0, half_width=0.6, label="arc")),
        (
            ProjectiveSpace(2),
            BallRegion(
                space=ProjectiveSpace(2),
                center=ProjectiveSpace(2).point((1, 0, 0)),
                radius=0.4,
                label="ball",
            ),
        ),
        (
            FreeBoundary(rank=2, a=2.0),
            CylinderRegion(space=FreeBoundary(rank=2, a=2.0), prefix="ab", label="cyl"),
        ),
        (Circle(), EmptyRegion(space=Circle(), label="empty")),
    ],
    ids=["arc", "ball", "cylinder", "empty"],
)
def test_margin_one_lipschitz(space, region):
    pts = _sample_region_pairs(space, region, 160)
    idx = RNG.integers(0, len(pts), size=(10_000, 2))
    worst = 0.0
    for i, j in idx:
        x, y = pts[i], pts[j]
        gap = abs(region.margin(x) - region.margin(y)) - space.raw_distance(
            x.value, y.value
        )
        worst = max(worst, gap)
    assert worst <= 1e-9


def test_component_region_margin_lipschitz_across_components():
    union = DisjointUnion.of([Circle(), Circle()])
    inner = ArcRegion(space=Circle(), center=1.0, half_width=0.6, label="arc")
    reg = ComponentRegion(space=union, component=0, inner=inner, label="arc@0")
    pts = [union.random_point(RNG) for _ in range(120)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = abs(reg.margin(pts[i]) - reg.margin(pts[j])) - union.raw_distance(
                pts[i].value, pts[j].value
            )
            assert gap <= 1e-9
    foreign = union.point((1, 0.5))
    assert reg.margin(foreign) <= 0.0


def test_union_separation_default():
    union = DisjointUnion.of([Circle(), Circle()])
    assert union.separation == pytest.approx(math.pi + 1.0)
    x, y = union.point((0, 1.0)), union.point((1, 1.0))
    assert union.raw_distance(x.value, y.value) == union.separation


# ---------------------------------------------------------------------------
# equality and hash of points and spaces, against the frozen dataclasses they
# were: hashes feed set and dict order, so those must match too

# small shared ranges, so that a covered circle of degree k meets P^k, and
# equal spaces built apart meet equal points
KINDS = st.one_of(
    st.builds(Circle),
    st.builds(CoveredCircle, degree=st.integers(1, 3)),
    st.builds(ProjectiveSpace, n=st.integers(1, 3)),
    st.builds(FreeBoundary, rank=st.integers(1, 2), a=st.sampled_from([1.5, 2.0]),
              depth=st.integers(2, 4)),
)
ANY_SPACE = st.one_of(KINDS, st.lists(KINDS, min_size=1, max_size=2).map(DisjointUnion.of))
POINTS = st.builds(
    lambda space, seed: space.random_point(np.random.default_rng(seed)),
    ANY_SPACE, st.integers(0, 2),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(points=st.lists(POINTS, max_size=10))
def test_points_and_spaces_compare_and_hash_as_the_old_dataclasses(points):
    old = [old_point(p) for p in points]
    for p, o in zip(points, old):
        assert hash(p) == hash(o) == hash((p.space, p.value))
        assert hash(p.space) == hash(o.space)
        assert p != (p.space, p.value) and p != o  # only two Points are ever equal
    pairs = zip(itertools.product(points, repeat=2), itertools.product(old, repeat=2))
    for (p, q), (op, oq) in pairs:
        assert (p == q, p != q) == (op == oq, op != oq)
        assert (p.space == q.space, p.space != q.space) == (op.space == oq.space, op.space != oq.space)
    assert [old_point(p) for p in set(points)] == list(set(old))
    assert [old_point(p) for p in dict.fromkeys(points)] == list(dict.fromkeys(old))
    assert list({p: i for i, p in enumerate(points)}.values()) == list(
        {o: i for i, o in enumerate(old)}.values()
    )


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_a_covered_circle_is_no_projective_space_of_the_same_hash(k):
    covered, projective = CoveredCircle(degree=k), ProjectiveSpace(n=k)
    assert hash(covered) == hash(projective) == hash(OldCoveredCircle(k)) == hash(OldProjectiveSpace(k))
    assert covered != projective and covered == CoveredCircle(degree=k)
    assert covered.point(0.0) != projective.point([1.0] + [0.0] * k)
    assert hash(Circle()) == hash(old_space(Circle())) == hash(())
