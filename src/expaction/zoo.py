"""Concrete group actions: generators as invertible self-maps with analytic
derivatives, limit-set samplers, and perturbation families.

Circle actions use homogeneous coordinates for the boundary chart
theta = 2*arctan(x) of the upper half-plane, so the point at infinity needs
no special casing and derivatives stay finite everywhere.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import groups
from .geometry import (
    TAU,
    Circle,
    CoveredCircle,
    DisjointUnion,
    FreeBoundary,
    Point,
    ProjectiveSpace,
    Space,
    Value,
    circle_dist,
    circle_dists,
    letter_inverse,
    wrap_angle,
    wrap_angles,
)
from .groups import Alphabet, Word

Letter = tuple  # (generator index, +1 | -1)
SNAP_TOL = 5e-13  # how near a fixed angle `snap_angles` pins an orbit to it


class ConstructionError(ValueError):
    """Raised when a zoo constructor's validation fails."""


class KindError(ConstructionError):
    """A perturbation that the system's kind does not take."""


# ---------------------------------------------------------------------------
# self-maps: values, so that two maps of the same class and fields are equal
# (seeded perturbations compare their letter maps); a map with cached
# properties keeps an instance dict for them


def _moebius_angles(a, b, c, d, thetas: np.ndarray) -> np.ndarray:
    """The angle action of the matrix ((a, b), (c, d)) on an angle array, to
    the floats of `MoebiusMap.apply_angle`: numpy computes sin, cos and the
    products as `math` does, but not atan2, which runs per element.  The
    entries may be arrays that broadcast against the angles."""
    half = thetas / 2.0
    u, v = np.sin(half), np.cos(half)
    u2, v2 = a * u + b * v, c * u + d * v
    doubled = np.fromiter(map(math.atan2, u2.ravel().tolist(), v2.ravel().tolist()), float, u2.size)
    return wrap_angles(2.0 * doubled.reshape(u2.shape))


def _read_only(matrix: tuple) -> np.ndarray:
    """A map's matrix as a float array, built once per map: read-only, so
    that no caller can change the map through it."""
    array = np.array(matrix, dtype=float)
    array.flags.writeable = False
    return array


class MoebiusMap(Value):
    """Real 2x2 matrix acting on the boundary circle of the upper half-plane.

    The chart is theta = 2*arctan(x); in homogeneous coordinates
    [u : v] = [sin(theta/2) : cos(theta/2)] the action is linear and the
    arc-length derivative is 1/(u'^2 + v'^2).
    """

    _fields = ("matrix",)

    def __init__(self, matrix: tuple):
        self.matrix = matrix  # ((a, b), (c, d)) with determinant 1

    @staticmethod
    def from_matrix(m) -> "MoebiusMap":
        m = np.asarray(m, dtype=float)
        if not np.isfinite(m).all():
            raise ConstructionError("matrix entries must be finite")
        with np.errstate(over="ignore"):  # an overflowing determinant is refused below
            det = float(np.linalg.det(m))
        if not det > 0:
            raise ConstructionError("matrix must have positive determinant")
        if det == math.inf:
            raise ConstructionError("matrix determinant overflows")
        m = m / math.sqrt(det)
        return MoebiusMap(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])))

    @cached_property
    def np_matrix(self) -> np.ndarray:
        return _read_only(self.matrix)

    def apply_angle(self, theta: float) -> float:
        return self.apply_matrix_angle(self.matrix, theta)

    def apply_angles(self, thetas: np.ndarray) -> np.ndarray:
        (a, b), (c, d) = self.matrix
        return _moebius_angles(a, b, c, d, thetas)

    def deriv_angles(self, thetas: np.ndarray) -> np.ndarray:
        u, v = np.sin(thetas / 2.0), np.cos(thetas / 2.0)
        (a, b), (c, d) = self.matrix
        u2, v2 = a * u + b * v, c * u + d * v
        return 1.0 / (u2 * u2 + v2 * v2)

    def inverse(self) -> "MoebiusMap":
        (a, b), (c, d) = self.matrix
        return MoebiusMap(((d, -b), (-c, a)))

    def trace(self) -> float:
        return self.matrix[0][0] + self.matrix[1][1]

    def fixed_angles(self) -> tuple:
        """(attracting, repelling) fixed angles of a hyperbolic element."""
        if abs(self.trace()) <= 2.0 + 1e-12:
            raise ConstructionError("matrix is not hyperbolic (|trace| <= 2)")
        vals, vecs = np.linalg.eig(self.np_matrix)
        order = np.argsort(-np.abs(vals))
        out = []
        for k in order:
            u, v = float(np.real(vecs[0, k])), float(np.real(vecs[1, k]))
            out.append(wrap_angle(2.0 * math.atan2(u, v)))
        return out[0], out[1]

    @cached_property
    def pinned_angles(self) -> tuple:
        """The fixed angles `snap_angles` pins orbits to: both fixed angles of
        a hyperbolic map, none otherwise."""
        try:
            return self.fixed_angles()
        except ConstructionError:
            return ()

    def jittered(self, rng, magnitude: float, diagonal_only: bool) -> "MoebiusMap":
        """The map of the matrix plus seeded uniform noise (on the diagonal
        only, if asked), renormalized to determinant 1."""
        noise = rng.uniform(-magnitude, magnitude, size=(2, 2))
        if diagonal_only:
            noise = np.diag(np.diag(noise))
        return MoebiusMap.from_matrix(self.np_matrix + noise)

    @staticmethod
    def apply_matrix_angle(mat, theta: float) -> float:
        """Evaluate a raw (possibly unnormalized) positive-determinant matrix;
        the homogeneous form is scaling invariant."""
        u, v = math.sin(theta / 2.0), math.cos(theta / 2.0)
        u2 = mat[0][0] * u + mat[0][1] * v
        v2 = mat[1][0] * u + mat[1][1] * v
        return wrap_angle(2.0 * math.atan2(u2, v2))

    @staticmethod
    def apply_matrix_angles(mats: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """`apply_matrix_angle` of the (rows, 2, 2) matrices, row r of the
        matrices on row r of the (rows, k) angles."""
        a, b, c, d = (mats[:, i, j, None] for i in (0, 1) for j in (0, 1))
        return _moebius_angles(a, b, c, d, thetas)

    def isometric_arc(self) -> tuple:
        """(center, half_width) of the circle arc where the map expands.

        Computed from the isometric circle of the conjugated disk-model
        matrix; the chart offset disk angle = theta + pi is accounted for.
        """
        C = np.array([[1.0, -1.0j], [1.0, 1.0j]])
        M = C @ self.np_matrix.astype(complex) @ np.linalg.inv(C)
        c, d = M[1, 0], M[1, 1]
        if abs(c) < 1e-12:
            raise ConstructionError("isometric circle undefined (c = 0 in disk chart)")
        u = -d / c
        rho = 1.0 / abs(c)
        mag = abs(u)
        cos_hw = (1.0 + mag * mag - rho * rho) / (2.0 * mag)
        if not -1.0 <= cos_hw <= 1.0:
            raise ConstructionError("isometric circle misses the boundary circle")
        half_width = math.acos(cos_hw)
        center = wrap_angle(float(np.angle(u)) - math.pi)
        return center, half_width


class LiftedCircleMap(Value):
    """Lift of x -> multiplier*x through the degree-k covering theta -> k*theta,
    pinned to fix every preimage of the base fixed points 0 and pi."""

    _fields = ("multiplier", "degree")

    def __init__(self, multiplier: float, degree: int):
        self.multiplier = multiplier  # derivative at the base repelling point, > 0
        self.degree = degree

    def _lift(self, y: float) -> float:
        # monotone branch on (-pi, pi], endpoints fixed
        if y >= math.pi:
            return math.pi
        if y <= -math.pi:
            return -math.pi
        return 2.0 * math.atan(self.multiplier * math.tan(y / 2.0))

    def apply_angle(self, theta: float) -> float:
        y = self.degree * theta
        j = math.floor((y + math.pi) / TAU)
        y0 = y - TAU * j
        return wrap_angle((self._lift(y0) + TAU * j) / self.degree)

    def apply_angles(self, thetas: np.ndarray) -> np.ndarray:
        # the tangents and arctangents per element: numpy's differ from math's
        y = self.degree * thetas
        j = np.floor((y + math.pi) / TAU)
        y0 = y - TAU * j
        lifted = np.array(list(map(self._lift, y0.ravel().tolist()))).reshape(y0.shape)
        return wrap_angles((lifted + TAU * j) / self.degree)

    def deriv_angles(self, thetas: np.ndarray) -> np.ndarray:
        y = self.degree * np.asarray(thetas)
        y0 = y - TAU * np.floor((y + math.pi) / TAU)
        m = self.multiplier
        u, v = np.sin(y0 / 2.0), np.cos(y0 / 2.0)
        return m / (m * m * u * u + v * v)

    def inverse(self) -> "LiftedCircleMap":
        return LiftedCircleMap(1.0 / self.multiplier, self.degree)

    @cached_property
    def pinned_angles(self) -> tuple:
        """The fixed angles `snap_angles` pins orbits to: the lifts of the
        base fixed points 0 and pi."""
        k = self.degree
        return tuple(wrap_angle((base + TAU * j) / k) for base in (0.0, math.pi) for j in range(k))

    def jittered(self, rng, magnitude: float, diagonal_only: bool) -> "LiftedCircleMap":
        """The lift of a multiplier scaled by 1 plus seeded uniform noise."""
        multiplier = self.multiplier * (1.0 + rng.uniform(-magnitude, magnitude))
        if not 0.0 < multiplier < math.inf:
            raise ConstructionError("jittered multiplier must be positive and finite")
        return LiftedCircleMap(multiplier, self.degree)


class BoundaryShiftMap(Value):
    """Left multiplication by a single letter on a free-group boundary."""

    __slots__ = _fields = ("space", "letter")

    def __init__(self, space: FreeBoundary, letter: str):
        self.space, self.letter = space, letter

    def apply_word(self, w: str) -> str:
        inv = letter_inverse(self.letter)
        if w.startswith(inv):
            return w[1:]
        return (self.letter + w)[: self.space.depth]


class ProjectiveMap(Value):
    """Projectivized invertible linear map; `ProjectiveSpace.stretches` reads
    its stretch factors off `np_matrix`, many lines at once."""

    _fields = ("matrix",)

    def __init__(self, matrix: tuple):
        self.matrix = matrix

    @staticmethod
    def from_matrix(m) -> "ProjectiveMap":
        m = np.asarray(m, dtype=float)
        if not np.isfinite(m).all():
            raise ConstructionError("projective matrix entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow still means invertible
            det = np.linalg.det(m)
        if not abs(det) >= 1e-12:
            raise ConstructionError("projective matrix must be invertible")
        return ProjectiveMap(tuple(tuple(float(x) for x in row) for row in m))

    @cached_property
    def np_matrix(self) -> np.ndarray:
        return _read_only(self.matrix)

    def apply_vec(self, v: tuple) -> tuple:
        return tuple(self.np_matrix @ np.asarray(v))

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap.from_matrix(np.linalg.inv(self.np_matrix))

    def jittered(self, rng, magnitude: float, diagonal_only: bool) -> "ProjectiveMap":
        """The map of the matrix plus seeded uniform noise, always on the
        diagonal, so that jittered commuting diagonals still commute."""
        m = self.np_matrix
        noise = np.diag(rng.uniform(-magnitude, magnitude, size=len(m)))
        return ProjectiveMap.from_matrix(m + noise)


class BumpDiffeo(Value):
    """Circle diffeomorphism theta -> theta + height*bump((theta-center)/width),
    smooth and compactly supported in (center-width, center+width)."""

    __slots__ = _fields = ("center", "width", "height")

    MAX_SLOPE = 2.1704  # sup |bump'| of exp(1 - 1/(1-t^2)), 2.17035708... at |t| = 0.7598, rounded up

    def __init__(self, center: float, width: float, height: float):
        if not all(map(math.isfinite, (center, width, height))):
            raise ConstructionError("bump center, width and height must be finite")
        if width <= 0.0:
            raise ConstructionError("bump width must be positive")
        if abs(height) * self.MAX_SLOPE / width >= 1.0:
            raise ConstructionError("bump too steep: composed map not injective")
        self.center, self.width, self.height = center, width, height

    def _bump(self, t: float) -> float:
        if abs(t) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - t * t))

    def _bump_deriv(self, t: float) -> float:
        if abs(t) >= 1.0:
            return 0.0
        s = 1.0 - t * t
        return self._bump(t) * (-2.0 * t / (s * s))

    def _signed_offset(self, theta: float) -> float:
        d = (theta - self.center + math.pi) % TAU - math.pi
        return d

    def apply_angle(self, theta: float) -> float:
        t = self._signed_offset(theta) / self.width
        return wrap_angle(theta + self.height * self._bump(t))

    def _offsets(self, thetas: np.ndarray) -> np.ndarray:
        """`_signed_offset` over the width, at each angle of the array."""
        return (np.mod(thetas - self.center + math.pi, TAU) - math.pi) / self.width

    def apply_angles(self, thetas: np.ndarray) -> np.ndarray:
        # the bump, and its exp per element (numpy's differs), only inside the support
        t = self._offsets(thetas)
        inside = np.abs(t) < 1.0
        bump = np.zeros_like(thetas)
        bump[inside] = list(map(math.exp, (1.0 - 1.0 / (1.0 - t[inside] ** 2)).tolist()))
        return wrap_angles(thetas + self.height * bump)

    def deriv_angle(self, theta: float) -> float:
        t = self._signed_offset(theta) / self.width
        return 1.0 + (self.height / self.width) * self._bump_deriv(t)

    def invert_angle(self, theta: float) -> float:
        # monotone in the lift; Newton from the identity guess with bisection
        lo, hi = theta - abs(self.height), theta + abs(self.height)
        x = theta
        for _ in range(80):
            fx = x + self.height * self._bump(self._signed_offset(x) / self.width)
            err = (fx - theta + math.pi) % TAU - math.pi
            if abs(err) < 1e-14:
                break
            d = self.deriv_angle(x)
            x = x - err / d
            x = min(max(x, lo), hi)
        return wrap_angle(x)

    def invert_angles(self, thetas: np.ndarray) -> np.ndarray:
        # outside the support the first Newton step already meets the
        # tolerance, so `invert_angle` returns the wrapped angle itself
        out = wrap_angles(thetas)
        inside = np.abs(self._offsets(thetas)) < 1.0
        out[inside] = list(map(self.invert_angle, thetas[inside].tolist()))
        return out


class CirclePostComposeMap(Value):
    """bump after a base circle map (a perturbation leaving the group)."""

    __slots__ = _fields = ("base", "bump")

    def __init__(self, base, bump: BumpDiffeo):
        self.base, self.bump = base, bump

    def apply_angle(self, theta: float) -> float:
        return self.bump.apply_angle(self.base.apply_angle(theta))

    def apply_angles(self, thetas: np.ndarray) -> np.ndarray:
        return self.bump.apply_angles(self.base.apply_angles(thetas))

    def inverse(self) -> "CirclePreInverseMap":
        return CirclePreInverseMap(self.base.inverse(), self.bump)


class CirclePreInverseMap(Value):
    """Inverse of a post-composed map: base inverse after the bump inverse."""

    __slots__ = _fields = ("base_inv", "bump")

    def __init__(self, base_inv, bump: BumpDiffeo):
        self.base_inv, self.bump = base_inv, bump

    def apply_angle(self, theta: float) -> float:
        return self.base_inv.apply_angle(self.bump.invert_angle(theta))

    def apply_angles(self, thetas: np.ndarray) -> np.ndarray:
        return self.base_inv.apply_angles(self.bump.invert_angles(thetas))


# ---------------------------------------------------------------------------
# numerically stable orbit helpers


def compose_moebius(mat: np.ndarray, maps: Iterable[MoebiusMap]) -> np.ndarray:
    """mat times the matrices of the maps, left to right.  A product whose
    largest entry grows huge is divided by it, which leaves the angle action
    unchanged and keeps long words finite."""
    for m in maps:
        mat = mat @ m.np_matrix
        scale = np.abs(mat).max()
        if scale > 1e100:
            mat = mat / scale
    return mat


class WordPush:
    """The map z -> rho(w)(z) of a word w grown on the right, with `maps`
    sending each letter to its self-map.

    When every map is a Moebius map, w is kept as its composed matrix: one
    exact-group composition instead of a letterwise orbit, which matters for
    long words whose intermediate points sit near fixed points.  Otherwise w
    is kept as its letters, whose maps the space applies one by one.
    """

    __slots__ = ("space", "maps", "letters", "matrix")

    def __init__(self, space: Space, maps: Mapping):
        self.space, self.maps, self.letters = space, maps, ()
        moebius = all(isinstance(m, MoebiusMap) for m in maps.values())
        self.matrix = np.eye(2) if moebius else None  # None: w is kept as letters

    def grown(self, letters: Sequence) -> "WordPush":
        """The push of w followed by `letters`; this one is left as it is."""
        out = object.__new__(WordPush)
        out.space, out.maps, out.letters = self.space, self.maps, self.letters + tuple(letters)
        out.matrix = None if self.matrix is None else compose_moebius(self.matrix, [self.maps[l] for l in letters])
        return out

    def __call__(self, x: Point) -> Point:
        if self.matrix is not None and self.letters:
            return self.space.point(MoebiusMap.apply_matrix_angle(self.matrix, x.value))
        return self.space.apply_maps([self.maps[l] for l in reversed(self.letters)], x)

    @staticmethod
    def angle_rows(pushes: Sequence["WordPush"], thetas: np.ndarray) -> np.ndarray:
        """Row r of the (rows, k) angle array pushed by pushes[r], to the
        floats of calling it on each angle.  The pushes are of one word grown
        step by step, so each row's letters begin the last row's.  Moebius
        rows apply their composed matrices entry by entry; letter rows take
        one `apply_angles` call per position of the word, on the rows whose
        word reaches it, the last position first."""
        out, last = thetas.copy(), pushes[-1]
        if last.matrix is not None:
            moved = [r for r, push in enumerate(pushes) if push.letters]
            mats = np.array([pushes[r].matrix for r in moved])
            out[moved] = MoebiusMap.apply_matrix_angles(mats, thetas[moved])
            return out
        lengths = [len(push.letters) for push in pushes]
        for pos in reversed(range(len(last.letters))):
            first = bisect_right(lengths, pos)
            rows = out[first:]
            out[first:] = last.maps[last.letters[pos]].apply_angles(rows.ravel()).reshape(rows.shape)
        return out


def apply_letters(space: Space, maps: Mapping, letters: Sequence, x: Point) -> Point:
    """Image of x under the word spelled by `letters` (the last letter acts
    first); see `WordPush`.  One map alone is applied directly, which gives
    the same floats without composing a matrix."""
    if len(letters) > 1:
        return WordPush(space, maps).grown(letters)(x)
    return space.apply_maps([maps[letter] for letter in letters], x)


def snap_angles(map_obj, thetas_in: np.ndarray, thetas_out: np.ndarray) -> np.ndarray:
    """Pin orbits to the fixed points of the applied circle map (its
    `pinned_angles`): each image whose input angle lies within SNAP_TOL of a
    pinned angle becomes the first such angle.

    Backward orbits amplify float noise by the derivative at every step; a
    point within SNAP_TOL of a fixed angle is treated as exactly fixed so
    constant tails stay constant.  The perturbation of the code relation is
    at most the derivative times SNAP_TOL, far below the code tolerance.
    """
    pinned = np.array(map_obj.pinned_angles)
    near = circle_dists(thetas_in[:, None], pinned) < SNAP_TOL
    if not np.count_nonzero(near):  # faster than `any` on the few rows of a step
        return thetas_out
    return np.where(near.any(axis=1), pinned[near.argmax(axis=1)], thetas_out)


# ---------------------------------------------------------------------------
# action systems


class ActionSystem:
    """A finitely generated group acting on a metric space.

    `letter_maps` sends each signed generator (index, sign) to its self-map;
    values are immutable and all evaluation is pure.  `net_fn` gives the
    values of the limit net's points at a depth (an angle array on circles).
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        space: Space,
        letter_maps: Mapping[Letter, object],
        net_fn: Callable[[int], Sequence],
        default_depth: int,
    ):
        self.name, self.alphabet, self.space = name, alphabet, space
        self.letter_maps, self.net_fn, self.default_depth = letter_maps, net_fn, default_depth

    def apply(self, g: Word, x: Point) -> Point:
        """Evaluate rho(g) at x (the rightmost letter acts first); see `apply_letters`."""
        if g.alphabet != self.alphabet:
            raise groups.AlphabetMismatchError("word over a different alphabet")
        return apply_letters(self.space, self.letter_maps, groups.letters_of(g), x)

    def apply_values(self, g: Word, values):
        """The values of rho(g) at the points with the given values (as
        `space.values` gives them), to the floats of `apply`: one letter by
        `space.map_values` on all of them at once, a longer word point by
        point through `apply`."""
        letters = groups.letters_of(g)
        if len(letters) == 1 and g.alphabet == self.alphabet:
            return self.space.map_values(self.letter_maps[letters[0]], values)
        return self.space.values([self.apply(g, Point(self.space, v)) for v in values])

    def limit_values(self, depth: int | None = None):
        """The values of the limit net's points (an angle array on circles)."""
        return self.net_fn(self.default_depth if depth is None else depth)

    def limit_net(self, depth: int | None = None) -> list:
        return [self.space.point(v) for v in self.limit_values(depth)]

    def generators(self) -> list:
        return self.alphabet.symmetric_generators()


class ProductSystem(ActionSystem):
    """Two systems acting on the two copies of a disjoint union; a word acts
    by its letters, as on every other system."""

    def __init__(self, *args, components: tuple = (), **kwargs):
        super().__init__(*args, **kwargs)
        self.components = components


def validate_inverses(system: ActionSystem, samples: Sequence[Point], tol: float = 1e-9) -> float:
    """Max round-trip error of s^-1(s(x)) over the samples."""
    worst = 0.0
    for i in range(system.alphabet.rank):
        g, ginv = system.alphabet.generator(i, 1), system.alphabet.generator(i, -1)
        for x in samples:
            y = system.apply(ginv, system.apply(g, x))
            worst = max(worst, system.space.raw_distance(x.value, y.value))
    if worst > tol:
        raise ConstructionError(f"inverse consistency violated: {worst:.3e}")
    return worst


def _construction_check(system: ActionSystem) -> ActionSystem:
    """Light construction-time sanity: inverse round trips on 64 seeded points
    (drawn by the standard library, so that a job loads no `numpy.random`)."""
    rng = random.Random(0)
    pts = [system.space.random_point(rng) for _ in range(64)]
    validate_inverses(system, pts, tol=1e-9)
    return system


# ---------------------------------------------------------------------------
# constructors


def make_cyclic_hyperbolic(multiplier: float) -> ActionSystem:
    """Cyclic group of a hyperbolic Moebius map with fixed points at chart
    coordinates 0 and infinity and derivative multiplier**2 at the repelling
    point (angle 0)."""
    if multiplier <= 1.0:
        raise ConstructionError("multiplier must exceed 1")
    space = Circle()
    alphabet = Alphabet.cyclic("g")
    gamma = MoebiusMap.from_matrix([[multiplier, 0.0], [0.0, 1.0 / multiplier]])
    maps = {(0, 1): gamma, (0, -1): gamma.inverse()}

    def net_fn(depth: int) -> np.ndarray:
        return np.array([0.0, math.pi])

    return _construction_check(ActionSystem(
        name=f"cyclic_hyperbolic(m={multiplier})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=1,
    ))


def make_covered_cyclic(multiplier: float, k: int) -> ActionSystem:
    """Degree-k cover of the cyclic hyperbolic circle action of the given
    multiplier; the lifted generator fixes all 2k preimages of the base fixed
    points."""
    if multiplier <= 1.0:
        raise ConstructionError("multiplier must exceed 1")
    if k < 2:
        raise ConstructionError("covering degree must be >= 2")
    if not math.isfinite(multiplier * multiplier):
        raise ConstructionError("multiplier squared must be finite")
    m2 = multiplier**2
    space = CoveredCircle(degree=k)
    alphabet = Alphabet.cyclic("g")
    lifted = LiftedCircleMap(m2, k)
    maps = {(0, 1): lifted, (0, -1): lifted.inverse()}

    def net_fn(depth: int) -> np.ndarray:
        return np.array(lifted.pinned_angles)

    return _construction_check(ActionSystem(
        name=f"covered_cyclic(k={k})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=1,
    ))


def default_schottky_matrices(multiplier: float = 3.0) -> list:
    """Two hyperbolic generators with perpendicular axes (fixed points at
    angles +-pi/2 and 0, pi); their four expanding arcs are disjoint."""
    m = multiplier
    if m == 0.0:
        raise ConstructionError("multiplier must be nonzero")
    c, s = (m + 1.0 / m) / 2.0, (m - 1.0 / m) / 2.0
    return [[[c, s], [s, c]], [[m, 0.0], [0.0, 1.0 / m]]]


def make_schottky(matrices: Sequence | None = None) -> ActionSystem:
    """Free group of hyperbolic Moebius maps validated by the ping-pong
    disjointness of the isometric-circle arcs; the limit set is sampled by
    backward iteration (one point per cutting cylinder)."""
    if matrices is None:
        matrices = default_schottky_matrices()
    rank = len(matrices)
    space = Circle()
    alphabet = Alphabet.free(rank)
    maps = {}
    for i, m in enumerate(matrices):
        fwd = MoebiusMap.from_matrix(m)
        if abs(fwd.trace()) <= 2.0:
            raise ConstructionError(f"generator {i} is not hyperbolic")
        maps[(i, 1)] = fwd
        maps[(i, -1)] = fwd.inverse()
    arcs = {letter: m.isometric_arc() for letter, m in maps.items()}
    if rank >= 2:
        keys = sorted(arcs)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                (c1, h1), (c2, h2) = arcs[keys[a]], arcs[keys[b]]
                if circle_dist(c1, c2) < h1 + h2:
                    raise ConstructionError(
                        f"ping-pong failure: arcs of {keys[a]} and {keys[b]} overlap"
                    )

    chars = [(i, s) for i in range(rank) for s in (1, -1)]  # chars[k ^ 1] inverts chars[k]
    attracting = np.array([maps[ch].fixed_angles()[0] for ch in chars])

    def net_fn(depth: int) -> np.ndarray:
        # one level per word length: the first letters and the angles of
        # every reduced word in lexicographic order; a word's angle is its
        # first letter applied to the angle of its tail, the word of the
        # level below, one array call per letter
        firsts, thetas = np.arange(len(chars)), attracting
        for _ in range(depth - 1):
            tails = [firsts != k ^ 1 for k in range(len(chars))]
            thetas = np.concatenate([maps[ch].apply_angles(thetas[t]) for ch, t in zip(chars, tails)])
            firsts = np.repeat(np.arange(len(chars)), [np.count_nonzero(t) for t in tails])
        return thetas

    return _construction_check(ActionSystem(
        name=f"schottky(rank={rank})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=4,
    ))


def make_free_boundary(rank: int, a: float) -> ActionSystem:
    """Free group acting on its own boundary by left multiplication; each
    inverse generator scales its depth-1 cylinder exactly by a."""
    if rank < 2:
        raise ConstructionError("rank must be >= 2")
    if not 1.0 < a <= 2.0:
        raise ConstructionError("visual parameter must satisfy 1 < a <= 2")
    space = FreeBoundary(rank=rank, a=a)
    alphabet = Alphabet.free(rank, names=tuple(space.letters))
    maps = {}
    for i, name in enumerate(space.letters):
        maps[(i, 1)] = BoundaryShiftMap(space, name)
        maps[(i, -1)] = BoundaryShiftMap(space, name.upper())

    chars = space.letters + space.letters.upper()

    def net_fn(depth: int) -> list:
        words = [c for c in chars]
        for _ in range(depth - 1):
            words = [w + c for w in words for c in chars if c != letter_inverse(w[-1])]
        # pad by repeating the last letter (the word's own attracting tail),
        # so codes can shift well beyond the net depth
        return [w + w[-1] * (space.depth - len(w)) for w in words]

    return _construction_check(ActionSystem(
        name=f"free_boundary(rank={rank}, a={a})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=4,
    ))


def make_zn_projective(diagonals: Sequence[Sequence[float]]) -> ActionSystem:
    """Z^n acting on P^n(R) by commuting diagonal matrices; each generator is
    bi-proximal with the top eigenvector at e_0 and the bottom at e_j."""
    n = len(diagonals)
    space = ProjectiveSpace(n=n)
    alphabet = Alphabet.free_abelian(n)
    maps = {}
    for j, diag in enumerate(diagonals):
        d = [float(x) for x in diag]
        if len(d) != n + 1:
            raise ConstructionError(f"generator {j}: expected {n + 1} diagonal entries")
        mags = [abs(x) for x in d]
        if mags.index(max(mags)) != 0 or mags.count(max(mags)) > 1:
            raise ConstructionError(f"generator {j}: top eigenvector is not e_0")
        if mags.index(min(mags)) != j + 1 or mags.count(min(mags)) > 1:
            raise ConstructionError(f"generator {j}: bottom eigenvector is not e_{j + 1}")
        mat = np.diag(d)
        maps[(j, 1)] = ProjectiveMap.from_matrix(mat)
        maps[(j, -1)] = ProjectiveMap.from_matrix(np.linalg.inv(mat))
    basis = [tuple(1.0 if i == k else 0.0 for i in range(n + 1)) for k in range(n + 1)]

    def net_fn(depth: int) -> list:
        return basis

    return _construction_check(ActionSystem(
        name=f"zn_projective(n={n})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=1,
    ))


class _ProductLetterMap(Value):
    __slots__ = _fields = ("component", "inner")

    def __init__(self, component: int, inner=None):
        self.component = component  # 0 or 1, or -1 for the swap
        self.inner = inner  # the component system's letter map

    def apply_union(self, space: DisjointUnion, x: Point) -> Point:
        idx, val = x.value
        if self.component == -1:
            return space.point((1 - idx, val))
        if idx != self.component or self.inner is None:
            return x
        comp = space.components[idx]
        return space.point((idx, comp.apply_maps((self.inner,), Point(comp, val)).value))


def make_product(first: ActionSystem, second: ActionSystem, with_swap: bool = False) -> ActionSystem:
    """Product group acting componentwise on the disjoint union; the optional
    swap generator (components must match) exchanges the two copies and
    carries an empty expansion region."""
    if with_swap and (first.space != second.space or first.alphabet != second.alphabet):
        raise ConstructionError("swap requires identical component systems")
    space = DisjointUnion.of([first.space, second.space])
    alphabet = Alphabet.product(first.alphabet, second.alphabet, with_swap)
    maps = {}
    n1 = first.alphabet.rank
    for i in range(first.alphabet.rank):
        for s in (1, -1):
            maps[(i, s)] = _ProductLetterMap(0, first.letter_maps[(i, s)])
    for i in range(second.alphabet.rank):
        for s in (1, -1):
            maps[(n1 + i, s)] = _ProductLetterMap(1, second.letter_maps[(i, s)])
    if with_swap:
        maps[(alphabet.rank - 1, 1)] = _ProductLetterMap(-1)
        maps[(alphabet.rank - 1, -1)] = _ProductLetterMap(-1)

    def net_fn(depth: int) -> list:
        return [(0, v) for v in first.limit_values(depth)] + [(1, v) for v in second.limit_values(depth)]

    return ProductSystem(
        name=f"product({first.name}, {second.name}, swap={with_swap})",
        alphabet=alphabet,
        space=space,
        letter_maps=maps,
        net_fn=net_fn,
        default_depth=min(first.default_depth, second.default_depth),
        components=(first, second),
    )


# ---------------------------------------------------------------------------
# perturbations


class MatrixJitter(NamedTuple):
    """Seeded uniform noise on matrix entries, renormalized to determinant 1.
    The noise is numpy's `default_rng(seed).uniform(-magnitude, magnitude)`
    stream, drawn by `pcg64.PCG64`.

    `diagonal_only` keeps the noise of Moebius generators on the diagonal.
    Projective generators are always jittered on the diagonal, so perturbed
    Z^n generators still commute; a cover's lifted generator has its
    multiplier jittered.
    """

    magnitude: float
    seed: int = 0
    diagonal_only: bool = False


class BumpCompose(NamedTuple):
    """Post-compose every generator with a compactly supported circle bump;
    the perturbation leaves the original transformation group."""

    center: float
    width: float
    height: float


def perturb(system: ActionSystem, family) -> dict:
    """The perturbed maps of the given family, one per signed letter, as
    `ActionSystem.letter_maps` holds the system's own (`expansion.ActionView`
    evaluates an action with them).

    Nonzero MatrixJitter requires a perturbable space, whose generator maps
    have a `jittered` method; BumpCompose requires a circle system.  A
    system without them raises KindError.  magnitude 0 (or height 0)
    reproduces the original maps.
    """
    if isinstance(family, MatrixJitter):
        if family.magnitude == 0.0:
            return dict(system.letter_maps)
        if not system.space.perturbable:
            raise KindError(f"matrix jitter unsupported on {system.space.kind}")
        from .pcg64 import PCG64  # numpy's default_rng stream, without numpy.random

        rng = PCG64(family.seed)
        out = {}
        for i in range(system.alphabet.rank):
            fwd = system.letter_maps[(i, 1)]
            m2 = fwd.jittered(rng, family.magnitude, family.diagonal_only)
            out[(i, 1)], out[(i, -1)] = m2, m2.inverse()
        return out
    if isinstance(family, BumpCompose):
        if not system.space.angular:
            raise KindError(f"bump perturbations need a circle system, not {system.space.kind}")
        bump = BumpDiffeo(family.center, family.width, family.height)
        out = {}
        for i in range(system.alphabet.rank):
            fwd = CirclePostComposeMap(system.letter_maps[(i, 1)], bump)
            out[(i, 1)], out[(i, -1)] = fwd, fwd.inverse()
        return out
    raise ConstructionError(f"unknown perturbation family {family!r}")


def translation_conjugate(system: ActionSystem, t: float) -> dict:
    """The letter maps of a Moebius system conjugated by the chart
    translation x -> x + t; on a cyclic system the perturbed generator has
    the closed-form fixed point at chart t."""
    if not all(isinstance(m, MoebiusMap) for m in system.letter_maps.values()):
        raise KindError(f"translation conjugation needs a Moebius system, not {system.name}")
    T = np.array([[1.0, t], [0.0, 1.0]])
    out = {}
    for i in range(system.alphabet.rank):
        m = system.letter_maps[(i, 1)].np_matrix
        with np.errstate(over="ignore", invalid="ignore"):  # from_matrix refuses non-finite entries
            conj = MoebiusMap.from_matrix(T @ m @ np.linalg.inv(T))
        out[(i, 1)], out[(i, -1)] = conj, conj.inverse()
    return out


ZOO_KINDS = {
    "cyclic_hyperbolic": "multiplier m > 1; Moebius x -> m^2 x on the circle, limit set {0, pi}",
    "covered_cyclic": "degree k >= 2 cover of cyclic_hyperbolic; 2k lifted fixed points",
    "schottky": "hyperbolic SL(2,R) matrices with disjoint isometric arcs; Cantor limit set",
    "free_boundary": "rank k >= 2, visual parameter 1 < a <= 2; boundary shift action",
    "zn_projective": "n commuting bi-proximal diagonals acting on P^n(R); limit set {e_0..e_n}",
    "product": "disjoint-union action of two systems, optional swap generator",
}
