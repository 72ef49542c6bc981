"""Metric substrate: spaces, points, regions with margins, Lebesgue numbers.

Every space kind carries its own canonical point coordinates:

* circles: an angle in [0, 2*pi), arc-length metric;
* projective spaces: a unit vector with first nonzero coordinate positive,
  angle metric between lines;
* free-group boundaries: a reduced word prefix (lowercase letter = generator,
  uppercase = its inverse), visual metric a**(-common prefix length);
* disjoint unions: a (component index, inner point) pair, with a constant
  inter-component distance.

Regions are carried as 1-Lipschitz margin functions: margin(x) >= r certifies
that the open r-ball at x is contained in the region.
"""
from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

TAU = 2.0 * math.pi
DEFAULT_TOL = 1e-9


class SpaceMismatchError(ValueError):
    """Raised when two points do not live on the same space."""


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % TAU
    return min(d, TAU - d)


def circle_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`circle_dist` of the angles of two arrays that broadcast together, by
    its float operations: the one array form of the circle's metric."""
    d = np.abs(a - b) % TAU
    return np.minimum(d, TAU - d)


def wrap_angle(theta: float) -> float:
    t = theta % TAU
    if t >= TAU:  # guards the t == TAU float edge case
        t -= TAU
    return t


def wrap_angles(thetas: np.ndarray) -> np.ndarray:
    """`wrap_angle` of each angle of the array, to the same floats (`np.mod`
    rounds as the float `%` does)."""
    t = np.mod(thetas, TAU)
    return np.where(t >= TAU, t - TAU, t)


# letter helpers for free-group boundary prefixes ("a" is a generator,
# "A" its inverse); shared with the word layer in groups.py

def letter_inverse(ch: str) -> str:
    return ch.lower() if ch.isupper() else ch.upper()


def is_reduced(word: str) -> bool:
    # no letter is followed by its inverse (swapcase inverts letters)
    return not any(map(str.__eq__, word, word[1:].swapcase()))


def common_prefix_len(u: Sequence, v: Sequence) -> int:
    """Length of the common prefix of two strings or letter tuples."""
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return i
    return n


class Value:
    """Value semantics of a frozen dataclass, declared without the code that
    `@dataclass` generates and compiles for each class at import: instances
    of one class are equal when their `_fields` are, hash as the tuple of
    them, and show them in their repr.  `_fields` names the fields in
    order, as a tuple or as the keys of a dict.  Fields are set once, in
    `__init__`, and never reassigned: hashes, `Alphabet`'s cached one
    included, are taken from them."""

    __slots__ = ()
    _fields: tuple | dict = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Point:
    """A point of a space in its canonical coordinates.  Two points are equal
    when their spaces and values are, and a point hashes as that pair."""

    __slots__ = ("space", "value")

    def __init__(self, space: "Space", value: Any):
        self.space = space
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.value) == (other.space, other.value)

    def __hash__(self) -> int:
        return hash((self.space, self.value))

    def __repr__(self) -> str:  # keep reports readable
        return f"Point({self.space.kind}, {self.value!r})"


class Space(Value):
    """Base class; concrete kinds implement the raw metric and normalization."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    def is_geodesic(self) -> bool:
        return False

    def normalize(self, value: Any) -> Any:
        raise NotImplementedError

    def point(self, value: Any) -> Point:
        return Point(self, self.normalize(value))

    def raw_distance(self, a: Any, b: Any) -> float:
        raise NotImplementedError

    def random_point(self, rng) -> Point:
        """A point drawn through `rng.random()` alone, which numpy's
        generators and the standard library's `random.Random` both have."""
        raise NotImplementedError

    # whether actions by maps outside the group (perturbations) are defined
    perturbable = False
    # whether points are angles on one circle, which the SVG figures draw
    angular = False
    # code steps the conjugacy pushes at once, as rows (see `push_balls`)
    push_rows = 1
    # the deepest code whose steps the points resolve: each step takes a
    # letter off a free-group boundary's `depth`
    max_code_depth = math.inf

    def values(self, pts: Sequence[Point]):
        """The values of the points, as `map_values` and `distances` take them."""
        return [p.value for p in pts]

    def map_values(self, m, values):
        """The values of the images of the points with the given values
        under one self-map."""
        return [self.apply_maps((m,), Point(self, v)).value for v in values]

    def distances(self, a, b, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The raw distance of a[i[k]] and b[j[k]] for every k, as an array."""
        return np.array([self.raw_distance(a[p], b[q]) for p, q in zip(i.tolist(), j.tolist())])

    def push_balls(self, pushes: Sequence, centers: Sequence[Point], eta: float, k: int) -> list:
        """Per row r, (pushes[r] of centers[r], the diameter of the pushed
        `ball_net` of radius eta and size k about it); the center is the
        first point of its ball net and is pushed once.  The conjugacy and
        `coding.nested_images` push their balls through here."""
        out = []
        for push, center in zip(pushes, centers):
            probes = [push(q) for q in self.ball_net(center, eta, k)]
            out.append((probes[0], self.set_diameter(probes)))
        return out

    def apply_maps(self, maps: Sequence, x: Point) -> Point:
        """Image of x under a sequence of self-maps, maps[0] acting first."""
        raise NotImplementedError

    def stretches(self, m, values) -> tuple:
        """Arrays of the least and the largest factor by which the self-map
        m stretches distances at the points with the given values (as
        `values` gives them), in the limit of nearby points: every expansion
        and Lipschitz constant of a datum is read from here."""
        raise TypeError(f"stretch undefined on {self.kind}")

    def neighborhood(self, net: Sequence[Point], delta: float) -> list:
        """Deterministic sample of the closed delta-neighborhood of the net;
        the net itself where it already samples the whole limit set."""
        return list(net)

    def set_diameter(self, pts: Sequence[Point]) -> float:
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, self.raw_distance(pts[i].value, pts[j].value))
        return best


# fewer angles than this are mapped one by one (`Circle.map_values`)
SCALAR_ANGLES = 16


class Circle(Space):
    """Circle of circumference 2*pi with the arc-length (geodesic) metric."""

    __slots__ = ()

    @property
    def diameter(self) -> float:
        return math.pi

    def is_geodesic(self) -> bool:
        return True

    def normalize(self, value: Any) -> float:
        return wrap_angle(float(value))

    def raw_distance(self, a: float, b: float) -> float:
        return circle_dist(a, b)

    def random_point(self, rng) -> Point:
        return self.point(TAU * rng.random())

    perturbable = True
    angular = True
    # most points of the Schottky net stop after 9 to 11 code steps at
    # tol 1e-9, so that one block of 12 rows usually holds the stop
    push_rows = 12

    def values(self, pts: Sequence[Point]) -> np.ndarray:
        return np.array([p.value for p in pts], dtype=float)

    def map_values(self, m, values: np.ndarray) -> np.ndarray:
        # one `apply_angles` call costs about what 16 angles through
        # `apply_angle` do, so fewer go one by one, to the same floats
        if len(values) < SCALAR_ANGLES:
            return np.array([m.apply_angle(t) for t in values.tolist()], dtype=float)
        return m.apply_angles(values)

    def distances(self, a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return circle_dists(a[i], b[j])

    def push_balls(self, pushes: Sequence, centers: Sequence[Point], eta: float, k: int) -> list:
        # the ball nets as rows of angles, pushed at once by the pushes'
        # `angle_rows`
        images = pushes[0].angle_rows(pushes, self.ball_angles(self.values(centers), eta, k))
        diam = self.row_diameters(images)
        return [(self.point(z), d) for z, d in zip(images[:, 0].tolist(), diam.tolist())]

    def apply_maps(self, maps: Sequence, x: Point) -> Point:
        # circle maps return wrapped angles and wrap_angle fixes those, so
        # one wrap at the end gives the letter-by-letter floats
        t = x.value
        for m in maps:
            t = m.apply_angle(t)
        return self.point(t)

    def stretches(self, m, values: np.ndarray) -> tuple:
        # one direction: the least and the largest stretch are the derivative
        d = m.deriv_angles(values)
        return d, d

    def ball_net(self, center: Point, eta: float, k: int = 64) -> list:
        """Deterministic net of the open eta-ball at the center (center
        included); every space kind defines one."""
        angles = self.ball_angles(np.array([center.value]), eta, k)[0, 1:]
        return [center] + [self.point(t) for t in angles.tolist()]

    @staticmethod
    def ball_angles(centers: np.ndarray, eta: float, k: int) -> np.ndarray:
        """The angles of `ball_net` about each center, one row each: the
        center, then k angles spread evenly over the open ball."""
        offsets = np.array([(-1.0 + 2.0 * (t + 0.5) / k) * eta * (1 - 1e-12) for t in range(k)])
        return np.column_stack([centers, wrap_angles(centers[:, None] + offsets)])

    def neighborhood(self, net: Sequence[Point], delta: float) -> list:
        pts = list(net)
        for x in net:
            for f in (-1.0, -0.5, 0.5, 1.0):
                pts.append(self.point(x.value + f * delta))
        return pts

    def set_diameter(self, pts: Sequence[Point]) -> float:
        return float(self.row_diameters(self.values(pts)[None])[0])

    @staticmethod
    def row_diameters(rows: np.ndarray) -> np.ndarray:
        """The diameter of the angles of each row: the complement of the
        widest gap between the sorted angles, the gap across 0 included."""
        s = np.sort(rows, axis=1)
        gaps = np.diff(s, axis=1).max(axis=1, initial=-math.inf)
        return TAU - np.maximum(gaps, (s[:, 0] + TAU) - s[:, -1])


class CoveredCircle(Circle):
    """Degree-k covering circle; metrically a circle, the degree tags the
    covering map theta -> k*theta onto the base."""

    __slots__ = _fields = ("degree",)

    def __init__(self, degree: int = 2):
        self.degree = degree


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, by stacked matmul:
    each row takes the BLAS ddot that `a[i] @ b[i]` takes, to the same bits
    (einsum and `(a * b).sum(1)` round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _axis_gram_schmidt(V: np.ndarray, passes: int) -> tuple:
    """Gram-Schmidt of the coordinate axes against each unit row of V, every
    axis projected `passes` times onto the complement of the row and of the
    vectors kept before it; an axis is kept when its residual's norm exceeds
    1e-9.  Per row, its kept vectors in axis order (a (rows, n+1, n+1)
    array, zero past the last kept) and how many it kept."""
    k, d = V.shape
    basis = np.zeros((k, d, d))
    kept = np.zeros(k, dtype=int)
    for i, e in enumerate(np.eye(d)):
        u = np.broadcast_to(e, V.shape)
        for _ in range(passes):
            u = u - _row_dots(u, V)[:, None] * V
            for j in range(i):
                b = basis[:, j]
                u = np.where((kept > j)[:, None], u - _row_dots(u, b)[:, None] * b, u)
        norm = np.sqrt(_row_dots(u, u))
        take = np.flatnonzero(norm > 1e-9)
        basis[take, kept[take]] = u[take] / norm[take, None]
        kept[take] += 1
    return basis, kept


class ProjectiveSpace(Space):
    """P^n(R) with the angle metric between lines; geodesic, diameter pi/2."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int = 2):
        self.n = n

    @property
    def diameter(self) -> float:
        return math.pi / 2.0

    def is_geodesic(self) -> bool:
        return True

    def normalize(self, value: Any) -> tuple:
        v = [float(c) for c in value]
        if len(v) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coordinates, got {len(v)}")
        norm = math.sqrt(sum(c * c for c in v))
        if norm == 0.0:
            raise ValueError("zero vector does not define a line")
        v = [c / norm for c in v]
        for c in v:
            if abs(c) > 1e-14:
                if c < 0:
                    v = [-x for x in v]
                break
        return tuple(v)

    def raw_distance(self, a: tuple, b: tuple) -> float:
        # 2*asin(|u -+ v|/2) is well conditioned near zero, unlike acos
        dot = sum(x * y for x, y in zip(a, b))
        s = 1.0 if dot >= 0 else -1.0
        diff = math.sqrt(sum((x - s * y) ** 2 for x, y in zip(a, b)))
        return 2.0 * math.asin(min(1.0, diff / 2.0))

    def random_point(self, rng) -> Point:
        return self.point([rng.random() - 0.5 for _ in range(self.n + 1)])

    perturbable = True

    def apply_maps(self, maps: Sequence, x: Point) -> Point:
        for m in maps:
            x = self.point(m.apply_vec(x.value))
        return x

    def stretches(self, m, values) -> tuple:
        return self.stretch_rows(m.np_matrix, np.array(values, dtype=float))

    @staticmethod
    def stretch_rows(A: np.ndarray, V: np.ndarray) -> tuple:
        """Arrays of the (min, max) directional stretch of the projective
        action of A at the lines spanned by the rows of V.  Each row gets the
        floats of a one-row call: every dot product and norm is a stacked
        matmul, which calls the BLAS routine (ddot, gemv, gemm) that the same
        product on one vector calls."""
        V = V / np.sqrt(_row_dots(V, V))[:, None]
        AV = (A @ V[:, :, None])[:, :, 0]
        n = np.sqrt(_row_dots(AV, AV))
        W = AV / n[:, None]
        P = np.eye(V.shape[1]) - W[:, :, None] * W[:, None, :]
        M = P @ A @ ProjectiveSpace.tangent_frames(V) / n[:, None, None]
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[:, -1], sv[:, 0]

    @staticmethod
    def tangent_frames(V: np.ndarray) -> np.ndarray:
        """An orthonormal basis of the tangent space at each unit row of V
        (its orthogonal complement), by Gram-Schmidt over the coordinate
        axes, as the columns of a stacked (rows, n+1, n) array.  Near an axis
        one pass leaves rounding residuals that are far from orthogonal, or
        even keeps a vector along the row: a row whose one-pass frame fails
        the orthonormality check is projected twice instead."""
        d = V.shape[1]
        basis, kept = _axis_gram_schmidt(V, 1)
        frame = np.concatenate([V[:, None, :], basis[:, : d - 1]], axis=1)
        good = (kept == d - 1) & (
            np.abs(frame @ frame.transpose(0, 2, 1) - np.eye(d)).max(axis=(1, 2)) < 1e-9
        )
        retry = np.flatnonzero(~good)
        if retry.size:
            basis[retry] = _axis_gram_schmidt(V[retry], 2)[0]
        return np.ascontiguousarray(basis[:, : d - 1].transpose(0, 2, 1))

    @staticmethod
    def unit_rows(X: np.ndarray) -> np.ndarray:
        """`normalize` of each row of X, to the same floats: the squares
        summed in coordinate order, and the sign that makes the first
        coordinate above 1e-14 in size positive.  `normalize` keeps its
        Python loop, which is faster on the single points it sees."""
        norm = X[:, 0] * X[:, 0]
        for j in range(1, X.shape[1]):
            norm = norm + X[:, j] * X[:, j]
        U = X / np.sqrt(norm)[:, None]
        big = np.abs(U) > 1e-14
        lead = U[np.arange(len(U)), big.argmax(axis=1)]
        return np.where((big.any(axis=1) & (lead < 0))[:, None], -U, U)

    def ring_directions(self, v: np.ndarray, k: int) -> np.ndarray:
        """The k unit tangent vectors at the unit vector v at equal angles in
        the plane of its first two tangent directions; on P^1, whose one
        tangent direction spans no plane, that direction and its negative."""
        basis = self.tangent_frames(v[None])[0].T
        if len(basis) == 1:
            return np.array([basis[0], -basis[0]])
        return np.array([
            basis[0] * math.cos(TAU * t / k) + basis[1] * math.sin(TAU * t / k)
            for t in range(k)
        ])

    def ring_rows(self, v: np.ndarray, directions: np.ndarray, r: float) -> np.ndarray:
        """Coordinates of the points at distance r from the line [v] along
        each direction (see `ring_directions`), one row each."""
        return self.unit_rows(math.cos(r) * v + math.sin(r) * directions)

    def rings(self, center: Point, radii: Sequence[float], k: int) -> list:
        """Per radius r, the points at distance r from the center along its
        `ring_directions`."""
        v = np.asarray(center.value)
        directions = self.ring_directions(v, k)
        return [
            [Point(self, tuple(row)) for row in self.ring_rows(v, directions, r).tolist()]
            for r in radii
        ]

    def ball_net(self, center: Point, eta: float, k: int = 64) -> list:
        radii = [frac * eta for frac in (0.33, 0.66, 0.999)]
        return [center] + [p for ring in self.rings(center, radii, max(4, k // 3)) for p in ring]

    def neighborhood(self, net: Sequence[Point], delta: float) -> list:
        pts = list(net)
        V = np.array(self.values(net), dtype=float).reshape(len(pts), self.n + 1)
        for v, frame in zip(V, self.tangent_frames(V)):
            for w in frame.T:
                for f in (-1.0, -0.5, 0.5, 1.0):
                    r = f * delta
                    pts.append(self.point(tuple(math.cos(r) * v + math.sin(r) * w)))
        return pts


class FreeBoundary(Space):
    """Boundary of a rank-k free group with the visual metric a**(-cpl).

    Points are reduced word prefixes of depth at most `depth`; two points
    closer than a**(-depth) are indistinguishable at this resolution.
    """

    __slots__ = _fields = ("rank", "a", "depth")

    def __init__(self, rank: int = 2, a: float = 2.0, depth: int = 40):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not a > 1.0:
            raise ValueError("visual parameter a must exceed 1")
        self.rank, self.a, self.depth = rank, a, depth

    @property
    def diameter(self) -> float:
        return 1.0

    @property
    def letters(self) -> str:
        return "abcdefghijklmnopqrstuvwxyz"[: self.rank]

    @property
    def max_code_depth(self) -> int:
        return self.depth

    def normalize(self, value: Any) -> str:
        w = str(value)
        if not set(w.lower()).issubset(self.letters):
            bad = next(ch for ch in w if ch.lower() not in self.letters)
            raise ValueError(f"letter {bad!r} outside rank-{self.rank} alphabet")
        if not is_reduced(w):
            raise ValueError(f"word {w!r} is not reduced")
        return w[: self.depth]

    def raw_distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self.a ** (-common_prefix_len(a, b))

    def apply_maps(self, maps: Sequence, x: Point) -> Point:
        w = x.value
        for m in maps:
            w = m.apply_word(w)
        return self.point(w)

    def stretches(self, m, values: Sequence[str]) -> tuple:
        # a letter that cancels the first letter of a word brings its first
        # difference from every nearby point one place nearer the front, so
        # distances grow by a; any other letter is prepended and they shrink by a
        inv = letter_inverse(m.letter)
        factor = np.where([w[:1] == inv for w in values], self.a, 1.0 / self.a)
        return factor, factor

    def random_point(self, rng) -> Point:
        # one letter short of the depth, so that a generator moves it without
        # truncation and round trips through a generator and its inverse are exact
        chars = self.letters + self.letters.upper()
        word = [chars[int(rng.random() * len(chars))]]
        while len(word) < self.depth - 1:
            choices = [c for c in chars if c != letter_inverse(word[-1])]
            word.append(choices[int(rng.random() * len(choices))])
        return self.point("".join(word))


class DisjointUnion(Space):
    """Disjoint union of spaces, distinct components at constant distance."""

    __slots__ = _fields = ("components", "separation")

    def __init__(self, components: tuple = (), separation: float = 0.0):
        self.components, self.separation = components, separation

    @staticmethod
    def of(components: Sequence[Space]) -> "DisjointUnion":
        """The union at one more than the largest component diameter apart,
        which keeps the triangle inequality across components."""
        comps = tuple(components)
        return DisjointUnion(comps, float(max(c.diameter for c in comps) + 1.0))

    @property
    def diameter(self) -> float:
        return max(self.separation, max(c.diameter for c in self.components))

    @property
    def max_code_depth(self) -> float:
        return min(c.max_code_depth for c in self.components)

    def normalize(self, value: Any) -> tuple:
        idx, inner = value
        idx = int(idx)
        comp = self.components[idx]
        if isinstance(inner, Point):
            inner = inner.value
        return (idx, comp.normalize(inner))

    def raw_distance(self, a: tuple, b: tuple) -> float:
        if a[0] != b[0]:
            return self.separation
        return self.components[a[0]].raw_distance(a[1], b[1])

    def random_point(self, rng) -> Point:
        idx = int(rng.random() * len(self.components))
        inner = self.components[idx].random_point(rng)
        return self.point((idx, inner.value))

    def apply_maps(self, maps: Sequence, x: Point) -> Point:
        for m in maps:
            x = m.apply_union(self, x)
        return x

    def neighborhood(self, net: Sequence[Point], delta: float) -> list:
        pts = list(net)
        for idx, comp in enumerate(self.components):
            inner_net = [self.component_point(x) for x in net if x.value[0] == idx]
            pts.extend(self.embed(idx, p) for p in comp.neighborhood(inner_net, delta))
        return pts

    def embed(self, idx: int, inner: Point) -> Point:
        return self.point((idx, inner.value))

    def component_point(self, x: Point) -> Point:
        idx, inner = x.value
        return Point(self.components[idx], inner)


def distance(space: Space, x: Point, y: Point) -> float:
    """Metric of the given space; both points must carry its tag."""
    if x.space != space or y.space != space:
        raise SpaceMismatchError(
            f"points tagged {x.space.kind}/{y.space.kind} do not match {space.kind}"
        )
    return space.raw_distance(x.value, y.value)


# ---------------------------------------------------------------------------
# regions


class Region(Value):
    """A subset carried by its margin function.

    margin(x) >= r guarantees B_r(x) is inside the region; margin is
    nonpositive outside and 1-Lipschitz.  `offset` accumulates shrinking, so
    repeated shrinks compose exactly.  A region is built from keyword
    arguments: its fields, each with the default `_fields` gives it.  Each
    kind's margins come from one routine, its `margins` (see `margin_values`).
    """

    __slots__ = ("label", "offset")
    _fields = {"label": None, "offset": 0.0}

    def __init__(self, **values):
        for name, default in self._fields.items():
            setattr(self, name, values.pop(name, default))
        if values:
            raise TypeError(f"{type(self).__name__} has no field {min(values)!r}")

    def margin(self, x: Point) -> float:
        return float(margin_matrix([self], [x])[0, 0])

    @property
    def peak(self) -> float:
        """Supremum of the margin; nonpositive means the region is empty."""
        raise NotImplementedError

    def shrunk(self, r: float) -> "Region":
        """The same region with its margin lowered by r."""
        values = {name: getattr(self, name) for name in self._fields}
        values["offset"] += r
        return type(self)(**values)

    def is_empty(self) -> bool:
        return self.peak <= 0.0

    def sample(self, k: int) -> list:
        """Deterministic interior sample points (may be empty)."""
        return []


def _offsets(regions: Sequence[Region]) -> np.ndarray:
    return np.array([reg.offset for reg in regions], dtype=float)


def _matrix(rows: list, regions: Sequence[Region]) -> np.ndarray:
    """Rows of margins before the offsets, one per value, less the offsets."""
    return np.array(rows, dtype=float).reshape(len(rows), len(regions)) - _offsets(regions)


class ArcRegion(Region):
    """Open circular arc (center - half_width, center + half_width)."""

    __slots__ = ("space", "center", "half_width")
    _fields = {**Region._fields, "space": None, "center": 0.0, "half_width": 0.0}

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        # the half-width less the arc-length distance to the center,
        # broadcast over angles and arcs
        center, half_width, offset = np.array([(reg.center, reg.half_width, reg.offset) for reg in regions]).T
        return (half_width - circle_dists(np.asarray(values, dtype=float)[:, None], center)) - offset

    @property
    def peak(self) -> float:
        return self.half_width - self.offset

    def sample(self, k: int) -> list:
        hw = self.half_width - self.offset
        if hw <= 0 or k <= 0:
            return []
        step = 2.0 * hw / (k + 1)
        return [
            self.space.point(self.center - hw + step * (i + 1)) for i in range(k)
        ]


class BallRegion(Region):
    """Open metric ball; margin is exact on geodesic spaces."""

    __slots__ = ("space", "center", "radius")
    _fields = {**Region._fields, "space": None, "center": None, "radius": 0.0}

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        rows = [[reg.radius - reg.space.raw_distance(v, reg.center.value) for reg in regions] for v in values]
        return _matrix(rows, regions)

    @property
    def peak(self) -> float:
        return self.radius - self.offset


class CylinderRegion(Region):
    """Cylinder [w] of a free-group boundary: all points extending `prefix`.

    The margin is the cylinder diameter a**(-len(prefix)), constant on the
    cylinder.  This is conservative: margin >= r still certifies B_r(x) in
    the cylinder, while some larger balls also fit (distances are quantized).
    """

    __slots__ = ("space", "prefix")
    _fields = {**Region._fields, "space": None, "prefix": ""}

    def __init__(self, **values):
        super().__init__(**values)
        if not is_reduced(self.prefix):
            raise ValueError(f"prefix {self.prefix!r} is not reduced")

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        # the diameter a**(-m) inside, less a**(-c) outside for the c letters
        # a word shares with the prefix, by Python powers
        cyls = [(reg.prefix, reg.space.a, reg.space.a ** (-len(reg.prefix))) for reg in regions]
        rows = [[d if w.startswith(p) else d - a ** (-common_prefix_len(w, p)) for p, a, d in cyls] for w in values]
        return _matrix(rows, regions)

    @property
    def peak(self) -> float:
        return self.space.a ** (-len(self.prefix)) - self.offset

    def sample(self, k: int) -> list:
        if self.is_empty() or k <= 0:
            return []
        pts, stack = [], [self.prefix]
        chars = self.space.letters + self.space.letters.upper()
        while stack and len(pts) < k:
            w = stack.pop(0)
            pts.append(self.space.point(w))
            for ch in chars:
                if not w or ch != letter_inverse(w[-1]):
                    stack.append(w + ch)
        return pts[:k]


class EmptyRegion(Region):
    """First-class empty region (margin constantly minus the diameter)."""

    __slots__ = ("space",)
    _fields = {**Region._fields, "space": None}

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        return np.full((len(values), len(regions)), [reg.peak for reg in regions])

    @property
    def peak(self) -> float:
        return -self.space.diameter - self.offset


class ComponentRegion(Region):
    """A region living on one component of a disjoint union.

    On foreign components the margin is the constant inner peak minus the
    separation, the largest 1-Lipschitz-compatible nonpositive value.
    """

    __slots__ = ("space", "component", "inner")
    _fields = {**Region._fields, "space": None, "component": 0, "inner": None}

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        # off its component, a region's margin is constant; on it, the inner one
        out = np.full((len(values), len(regions)), [reg.inner.peak - reg.space.separation for reg in regions])
        on = np.array([v[0] for v in values], dtype=int)
        for idx in {reg.component for reg in regions}:
            cols = [k for k, reg in enumerate(regions) if reg.component == idx]
            rows = np.flatnonzero(on == idx)
            inner = [regions[k].inner for k in cols]
            out[rows[:, None], cols] = margin_values(inner, [values[i][1] for i in rows.tolist()])
        return out - _offsets(regions)

    @property
    def peak(self) -> float:
        return self.inner.peak - self.offset

    def sample(self, k: int) -> list:
        return [self.space.embed(self.component, p) for p in self.inner.sample(k)]


class ClippedRegion(Region):
    """Intersection of a region with the open radius-neighborhood of a net."""

    __slots__ = ("space", "inner", "net", "radius")
    _fields = {**Region._fields, "space": None, "inner": None, "net": (), "radius": 0.0}

    @classmethod
    def margins(cls, regions, values) -> np.ndarray:
        # the radius less the least of each value's distances to the net,
        # one net point at a time
        every, nearest = np.arange(len(values)), {}
        for reg in regions:
            if id(reg.net) not in nearest:
                net, d = reg.space.values(reg.net), np.full(len(values), math.inf)
                for j in range(len(net)):
                    d = np.minimum(d, reg.space.distances(values, net, every, np.full(len(values), j)))
                nearest[id(reg.net)] = d
        clip = np.column_stack([reg.radius - nearest[id(reg.net)] for reg in regions])
        inner = margin_values([reg.inner for reg in regions], values)
        # the inner margin unless the clip is below it, as `min` picks
        return np.where(clip < inner, clip, inner) - _offsets(regions)

    @property
    def peak(self) -> float:
        return min(self.inner.peak, self.radius) - self.offset

    def sample(self, k: int) -> list:
        pts = self.inner.sample(k)
        inside = margin_matrix([self], pts)[:, 0] > 0
        return [p for p, keep in zip(pts, inside.tolist()) if keep]


def margin_values(regions: Sequence[Region], values) -> np.ndarray:
    """The (values × regions) margin matrix at the points with the values
    (as their space's `values` gives them): each kind's columns from one
    call of its `margins`."""
    if regions and all(type(reg) is type(regions[0]) for reg in regions):
        return type(regions[0]).margins(regions, values)
    kinds = {}
    for k, reg in enumerate(regions):
        kinds.setdefault(type(reg), []).append(k)
    out = np.empty((len(values), len(regions)))
    for kind, cols in kinds.items():
        out[:, cols] = kind.margins([regions[k] for k in cols], values)
    return out


def _values_on(regions: Sequence[Region], points: Sequence[Point]):
    """The values of points of the regions' space; another's are refused."""
    if not regions:
        return [p.value for p in points]
    space = regions[0].space
    for p in points:
        if p.space is not space and p.space != space:
            raise SpaceMismatchError(f"point tagged {p.space.kind} on {space.kind}")
    return space.values(points)


def margin_matrix(regions: Sequence[Region], points: Sequence[Point]) -> np.ndarray:
    """`margin_values` at points of the regions' space."""
    return margin_values(regions, _values_on(regions, points))


# values past this many are evaluated in chunks of this many
LEBESGUE_CHUNK = 4096


def lebesgue_values(regions: Sequence[Region], values) -> tuple:
    """(worst best margin, index of its first value) over the values, chunk
    by chunk; (inf, None) for no values."""
    worst, at = math.inf, None
    for start in range(0, len(values), LEBESGUE_CHUNK):
        best = margin_values(regions, values[start : start + LEBESGUE_CHUNK]).max(axis=1, initial=-math.inf)
        i = int(np.argmin(best))
        if best[i] < worst:
            worst, at = float(best[i]), start + i
    return worst, at


def lebesgue_number(regions: Sequence[Region], net: Sequence[Point]) -> tuple[float, Point | None]:
    """Margin-certified Lebesgue number of a cover over a finite net.

    Returns (value, witness) where witness is a worst point (the first one
    on ties); value <= 0 means some net point is not certified inside any
    region.  A net point of another space than the regions' is refused.
    """
    worst, at = lebesgue_values(regions, _values_on(regions, net))
    return worst, None if at is None else net[at]
