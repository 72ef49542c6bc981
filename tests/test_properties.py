"""Property-based invariants with hypothesis-generated inputs."""
from hypothesis import given, settings, strategies as st

from expaction import groups
from expaction.geometry import (
    ArcRegion,
    Circle,
    CylinderRegion,
    FreeBoundary,
)
from expaction.groups import Alphabet, inverse, multiply, word_length, word_metric

F2 = Alphabet.free(2)
FB = FreeBoundary(rank=2, a=2.0)

letters = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=8
)


def make_word(ls):
    return groups.Word(F2, tuple(ls))


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=200, derandomize=True)
@given(letters, letters, letters)
def test_free_multiplication_associative(a, b, c):
    u, v, w = make_word(a), make_word(b), make_word(c)
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@settings(max_examples=200, derandomize=True)
@given(letters)
def test_inverse_cancels(a):
    u = make_word(a)
    assert multiply(u, inverse(u)) == F2.identity()
    assert word_length(inverse(u)) == word_length(u)


@settings(max_examples=200, derandomize=True)
@given(letters, letters)
def test_word_metric_left_invariant(a, b):
    u, v = make_word(a), make_word(b)
    g = make_word([(0, 1), (1, -1)])
    assert word_metric(u, v) == word_metric(multiply(g, u), multiply(g, v))


@settings(max_examples=200, derandomize=True)
@given(angles, angles, st.floats(min_value=0.01, max_value=1.5))
def test_arc_margin_lipschitz_and_sound(x, y, hw):
    c = Circle()
    arc = ArcRegion(space=c, center=1.0, half_width=hw, label="u")
    px, py = c.point(x), c.point(y)
    d = c.raw_distance(px.value, py.value)
    assert abs(arc.margin(px) - arc.margin(py)) <= d + 1e-12
    # margin certifies ball containment: anything closer than the margin of
    # an interior point is itself interior
    if arc.margin(px) > 0 and d < arc.margin(px):
        assert arc.margin(py) > 0.0


@settings(max_examples=100, derandomize=True)
@given(
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.5),
    angles,
)
def test_shrink_twice_equals_shrink_of_sum(r, s, x):
    c = Circle()
    arc = ArcRegion(space=c, center=2.0, half_width=1.4, label="u")
    p = c.point(x)
    assert arc.shrunk(r).shrunk(s).margin(p) == arc.shrunk(r + s).margin(p)


reduced_words = st.text(alphabet="abAB", min_size=1, max_size=10).filter(
    lambda w: all(
        w[i] != (w[i + 1].lower() if w[i + 1].isupper() else w[i + 1].upper())
        for i in range(len(w) - 1)
    )
)


@settings(max_examples=200, derandomize=True)
@given(reduced_words, reduced_words)
def test_visual_metric_is_ultrametric(u, v):
    x, y = FB.point(u), FB.point(v)
    d = FB.raw_distance(x.value, y.value)
    assert 0.0 <= d <= 1.0
    z = FB.point("a" if not u.startswith("A") else "b")
    assert d <= max(
        FB.raw_distance(x.value, z.value), FB.raw_distance(z.value, y.value)
    ) + 1e-15


@settings(max_examples=100, derandomize=True)
@given(reduced_words, st.floats(min_value=0.0, max_value=0.6))
def test_cylinder_ball_containment_sound(w, r):
    cyl = CylinderRegion(space=FB, prefix="a", label="a")
    p = FB.point(w)
    if cyl.margin(p) >= r:
        assert w.startswith("a")
        assert r <= 0.5
