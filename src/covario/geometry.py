"""Planar convex bodies: polygons, support-function bodies (disks among them), zonogons."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

C2PLUS_MARGIN = 1e-9
COLLINEAR_TOL = 1e-12
KMAX = 32


class PolygonNotSmooth(Exception):
    """Raised when a smooth-boundary operation is applied to a polygon."""


class NotC2Plus(Exception):
    """Raised when a support-function body fails the positive-curvature check."""


class DegenerateZonogon(Exception):
    """Raised when all zonogon generators are parallel."""


class InvalidFamilyParams(Exception):
    """Raised when parallelogram-family parameters violate their constraints."""


@dataclass(frozen=True)
class Direction:
    """Unit direction on the circle, stored by its angle in radians in [0, 2 pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))

    @property
    def u(self):
        return np.array([math.cos(self.theta), math.sin(self.theta)])

    @property
    def perp(self):
        """Unit vector obtained by rotating u by +90 degrees."""
        return np.array([-math.sin(self.theta), math.cos(self.theta)])

    def antipode(self):
        return Direction(self.theta + math.pi)


def _is_pair(value):
    """Whether value has the shape of two numbers; a ragged value has none."""
    try:
        return np.shape(value) == (2,)
    except ValueError:
        return False


def _one_number(name, value):
    """value as a float; anything but one number raises a ValueError naming it."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be one number, got {value!r}") from None
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} is beyond the float range") from None


@dataclass(frozen=True)
class Segment:
    """Segment [p, q] in the plane, used as a zonogon generator."""

    p: tuple
    q: tuple

    def __post_init__(self):
        for end in (self.p, self.q):
            if not _is_pair(end):
                raise ValueError(f"segment endpoint must be two numbers, got {end!r}")
        if np.array_equal(self.p, self.q):
            raise ValueError("segment endpoints coincide")


def _canonicalize_vertices(vertices):
    """CCW orientation, reflex and collinear vertices removed, start at lexicographic minimum."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("polygon needs at least 3 planar vertices")
    v = v[(v != v[np.arange(v.shape[0]) - 1]).any(axis=1)]  # a repeated vertex once
    if _shoelace(v) < 0:
        v = v[::-1]
    # drop the reflex vertices until none are left, then the collinear ones:
    # while a reflex vertex is left, one that turns by about a half turn stays
    while True:
        if v.shape[0] < 3:
            raise ValueError("polygon degenerates after collinear removal")
        cross, tol = _turns(v)
        keep = cross >= -tol
        if keep.all():
            keep = cross > tol
            if keep.all():
                break
        v = v[keep]
    if v.shape[0] < 3 or _shoelace(v) <= 0:
        raise ValueError("vertices do not form a convex polygon with positive area")
    start = np.lexsort((v[:, 1], v[:, 0]))[0]
    return v[(np.arange(v.shape[0]) + start) % v.shape[0]]


def _turns(v):
    """The cross product of the edges into and out of each vertex of the
    loops v, shape (..., n, 2), and COLLINEAR_TOL of their length product."""
    e1 = v - np.roll(v, 1, axis=-2)
    e2 = np.roll(e1, -1, axis=-2)
    return (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0],
            COLLINEAR_TOL * (np.linalg.norm(e1, axis=-1) * np.linalg.norm(e2, axis=-1)))


def _shoelace(v):
    x, y = v[:, 0], v[:, 1]
    nxt = np.arange(1 - v.shape[0], 1)
    return 0.5 * np.sum(x * y[nxt] - x[nxt] * y)


class Polygon:
    """Convex polygon with counterclockwise vertices, canonical and immutable."""

    __slots__ = ("vertices", "_hash")

    def __init__(self, vertices):
        try:
            with np.errstate(over="raise"):
                v = _canonicalize_vertices(vertices)
        except FloatingPointError:
            raise ValueError("polygon coordinates overflow in its edge products") from None
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_hash", hash(v.tobytes()))

    def __setattr__(self, *args):
        raise AttributeError("Polygon is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices.tobytes() == other.vertices.tobytes()

    def __repr__(self):
        return f"Polygon({self.vertices.shape[0]} vertices)"


# halvings of a bisection bracket: 60 take a bracket of length pi to 3e-18
BISECTION_STEPS = 60


@dataclass(frozen=True, eq=False)
class Harmonics:
    """f(t) = c0 + sum_k (a_k cos k t + b_k sin k t) over the harmonics k present.

    Read as a support function, f has the boundary point p = f n + f' n' at
    the normal n = (cos t, sin t), n' = (-sin t, cos t), and the radius of
    curvature f + f'' there.
    """

    c0: float
    k: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @staticmethod
    def of(c0, k, a, b):
        """The series with its zero harmonics dropped."""
        keep = (a != 0.0) | (b != 0.0)
        return Harmonics(float(c0), k[keep], a[keep], b[keep])

    def terms(self, t):
        """The series, its derivative and the series plus its second derivative at t."""
        kt = np.asarray(t, dtype=float)[..., None] * self.k
        c, s = np.cos(kt), np.sin(kt)
        f = c * self.a + s * self.b
        return (self.c0 + f.sum(-1), ((c * self.b - s * self.a) * self.k).sum(-1),
                self.c0 + (f * (1.0 - self.k * self.k)).sum(-1))

    def least(self):
        """The least value, exact to rounding: f at the angles of the 2K roots
        of z^K f'(t), a polynomial in z = e^{it} for the top harmonic K, among
        them every critical point. Harmonics below eps of the largest are left
        out of it, so a subnormal one cannot overflow its companion matrix."""
        size = np.maximum(np.abs(self.a), np.abs(self.b))
        keep = size > np.finfo(float).eps * size.max(initial=0.0)
        if not keep.any():
            return self.c0
        k = self.k[keep].astype(int)
        a, b = self.a[keep] / size.max(), self.b[keep] / size.max()
        top = k.max()
        poly = np.zeros(2 * top + 1, dtype=complex)
        poly[top - k] = k * (b + 1j * a)
        poly[top + k] = k * (b - 1j * a)
        return float(self.terms(np.angle(np.roots(poly)))[0].min())

    def integral(self, s, e):
        """Integral of the series over [s, e], from differences taken as products."""
        half, mid = 0.5 * (e - s), 0.5 * (e + s)
        kh, km = half[..., None] * self.k, mid[..., None] * self.k
        f = np.sin(kh) / self.k * (self.a * np.cos(km) + self.b * np.sin(km))
        return 2.0 * (self.c0 * half + f.sum(-1))

    def offsets(self, phi, e):
        """(<p(phi), e>, <p(phi), e perp>) for the unit vector e of angle e and
        e perp, e turned by +90 degrees."""
        f, f1, _ = self.terms(phi)
        c, s = np.cos(phi - e), np.sin(phi - e)
        return f * c - f1 * s, f * s + f1 * c

    def chord_at_offset(self, s, e, a, b):
        """The chord on the line <p, e> = s: its ends' normal angles phi, the
        one between a[0] and b[0] first, and its length <p(phi[0]) - p(phi[1]),
        e perp>.

        <p(phi), e> must be monotone on each bracket [a[i], b[i]] and s lie
        between its values at the ends; every argument broadcasts, so one call
        bisects many chords together.
        """
        fa = self.offsets(a, e)[0] - s
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (a + b)
            fm = self.offsets(mid, e)[0] - s
            left = fa * fm <= 0.0
            a, b, fa = np.where(left, a, mid), np.where(left, mid, b), np.where(left, fa, fm)
        phi = 0.5 * (a + b)
        along = self.offsets(phi, e)[1]
        return phi, along[0] - along[1]


@dataclass(frozen=True)
class SupportBody:
    """Body given by a truncated Fourier series support function h(theta).

    h(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta), k <= KMAX, with
    the exact least values of rho = h + h'' above C2PLUS_MARGIN (the C2+
    condition) and of h above 0 (the origin inside).
    The optional center translates the body.  series holds h as Harmonics;
    every quantity of the body reads it.
    """

    a0: float
    coeffs: tuple = ()
    center: tuple = (0.0, 0.0)
    series: Harmonics = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) > KMAX:
            raise NotC2Plus(f"at most {KMAX} harmonics supported")
        for k, c in enumerate(self.coeffs, start=1):
            if not _is_pair(c):
                raise ValueError(f"harmonic {k} must be two numbers, got {c!r}")
        object.__setattr__(self, "coeffs", tuple((float(a), float(b)) for a, b in self.coeffs))
        if not _is_pair(self.center):
            raise ValueError(f"center must be two numbers, got {self.center!r}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "a0", _one_number("a0", self.a0))
        ab = np.array(self.coeffs, dtype=float).reshape(-1, 2)
        if not np.isfinite([self.a0, *self.center, *ab.ravel()]).all():
            raise ValueError("support body numbers must be finite")
        try:
            finite = math.isfinite(area(self))
        except OverflowError:  # a0 ** 2 past the largest float
            finite = False
        if not finite:
            raise ValueError("support body area is not finite: its numbers are too large")
        h = Harmonics.of(self.a0, np.arange(1.0, ab.shape[0] + 1.0), ab[:, 0], ab[:, 1])
        object.__setattr__(self, "series", h)
        rho = Harmonics.of(h.c0, h.k, (1.0 - h.k * h.k) * h.a, (1.0 - h.k * h.k) * h.b).least()
        if rho <= C2PLUS_MARGIN:
            raise NotC2Plus(f"min(h + h'') = {rho:.3e} <= {C2PLUS_MARGIN}")
        if h.least() <= 0.0:
            raise NotC2Plus("support function must be positive (origin inside body)")

    def h(self, theta):
        """Support function of the untranslated shape."""
        return self.series.terms(theta)[0]

    def rho(self, theta):
        """Radius of curvature rho = h + h''."""
        return self.series.terms(theta)[2]

    def boundary(self, theta):
        """Boundary point with outer normal angle theta, shape (..., 2)."""
        x, y = self.series.offsets(theta, 0.0)
        return np.stack([x + self.center[0], y + self.center[1]], axis=-1)


class Disk(SupportBody):
    """The disk of the given radius about center: the support body h = radius."""

    def __init__(self, center, radius):
        radius = _one_number("radius", radius)
        if not radius > 0:
            raise ValueError("disk radius must be positive")
        SupportBody.__init__(self, radius, (), center)

    @property
    def radius(self):
        return self.a0


# A Body is a Polygon or a SupportBody, a Disk included.
Body = (Polygon, SupportBody)


def area(body):
    """Exact area of the body."""
    if isinstance(body, Polygon):
        return float(_shoelace(body.vertices))
    if isinstance(body, SupportBody):
        # area = (1/2) int (h^2 - h'^2) dtheta, closed form for the series
        s = 2.0 * math.pi * body.a0 ** 2
        for k, (a, b) in enumerate(body.coeffs, start=1):
            s += math.pi * (1.0 - k * k) * (a * a + b * b)
        return 0.5 * s
    raise TypeError(f"not a body: {body!r}")


def support(body, u: Direction):
    """Support function h_K(u) = max over K of <u, y>."""
    uv = u.u
    if isinstance(body, Polygon):
        return float(np.max(body.vertices @ uv))
    if isinstance(body, SupportBody):
        return float(body.h(u.theta)) + float(np.dot(body.center, uv))
    raise TypeError(f"not a body: {body!r}")


def width(body, u: Direction):
    """Width function w_K(u) = h_K(u) + h_K(-u)."""
    return support(body, u) + support(body, u.antipode())


def boundary_point(body, u: Direction):
    """Point of the boundary with outer normal u (inverse Gauss map)."""
    if isinstance(body, SupportBody):
        return body.boundary(u.theta)
    if isinstance(body, Polygon):
        v = body.vertices
        edges = np.roll(v, -1, axis=0) - v
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        hit = np.nonzero(normals @ u.u > 1.0 - 1e-12)[0]
        if hit.size == 0:
            raise PolygonNotSmooth(f"direction theta={u.theta} is not an edge normal")
        i = hit[0]
        return 0.5 * (v[i] + v[(i + 1) % v.shape[0]])
    raise TypeError(f"not a body: {body!r}")


def curvature(body, u: Direction):
    """Gauss curvature tau_K(u) = 1/(h + h'') at the boundary point with normal u."""
    if isinstance(body, SupportBody):
        return 1.0 / float(body.rho(u.theta))
    raise PolygonNotSmooth("curvature is undefined on a polygon")


def translate(body, x):
    """The body translated by the vector x."""
    x = np.asarray(x, dtype=float)
    if isinstance(body, Polygon):
        return Polygon(body.vertices + x)
    if isinstance(body, Disk):
        return Disk((body.center[0] + x[0], body.center[1] + x[1]), body.radius)
    if isinstance(body, SupportBody):
        return SupportBody(body.a0, body.coeffs, (body.center[0] + x[0], body.center[1] + x[1]))
    raise TypeError(f"not a body: {body!r}")


def reflect(body):
    """Reflection of the body in the origin, K -> -K."""
    if isinstance(body, Polygon):
        return Polygon(-body.vertices)
    if isinstance(body, Disk):
        return Disk((-body.center[0], -body.center[1]), body.radius)
    if isinstance(body, SupportBody):
        # h_{-K}(theta) = h_K(theta + pi): harmonic k picks up (-1)^k
        coeffs = tuple(((-1.0) ** k * a, (-1.0) ** k * b)
                       for k, (a, b) in enumerate(body.coeffs, start=1))
        return SupportBody(body.a0, coeffs, (-body.center[0], -body.center[1]))
    raise TypeError(f"not a body: {body!r}")


def sorted_distinct(x):
    """np.unique(x) of a 1-D array by its own steps: sort, then drop each entry
    equal to its predecessor.  np.unique also imports numpy.ma, about 6 ms."""
    x = np.sort(x)
    return np.concatenate([x[:1], x[1:][x[1:] != x[:-1]]])


def convex_hull(points):
    """Convex hull vertices (CCW) of a point cloud.

    The distinct points, in order of angle about their mean and nearer first
    on a shared ray, bound a polygon star-shaped about an interior point.
    Polygon drops its reflex and collinear vertices until none are left, and
    what remains is the hull.
    """
    # the distinct (x, y) records, as np.unique(axis=0) sorts them
    records = np.ascontiguousarray(points, dtype=float).view([("x", float), ("y", float)])
    pts = sorted_distinct(records.ravel()).view(float).reshape(-1, 2)
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 distinct points")
    d = pts - pts.mean(axis=0)
    return Polygon(pts[np.lexsort((np.sum(d * d, axis=1), np.arctan2(d[:, 1], d[:, 0])))]).vertices


def zonogon(center, generators):
    """Minkowski sum of segment generators, returned as a convex Polygon.

    The lower chain starts at c - sum s and adds the doubled half-vectors s,
    turned into [0, pi), in order of angle; the upper chain is its reflection
    in c.  Parallel generators give collinear edges, which Polygon merges;
    fewer than two distinct directions raise DegenerateZonogon.
    """
    if not _is_pair(center):
        raise ValueError(f"center must be two numbers, got {center!r}")
    if not generators:
        raise DegenerateZonogon("no generators")
    pq = np.array([(seg.p, seg.q) for seg in generators], dtype=float)
    s = 0.5 * (pq[:, 1] - pq[:, 0])
    c = np.sum(np.vstack([np.asarray(center, dtype=float), 0.5 * (pq[:, 1] + pq[:, 0])]), axis=0)
    ang = np.arctan2(s[:, 1], s[:, 0])
    s = np.where(((ang < 0.0) | (ang >= math.pi))[:, None], -s, s)
    s = s[np.argsort(np.arctan2(s[:, 1], s[:, 0]), kind="stable")]
    try:
        return Polygon(_zonogon_loops(c, s))
    except ValueError as exc:
        raise DegenerateZonogon("all generators are parallel") from exc


def _zonogon_loops(c, s):
    """Vertex loops of the zonogons c + sum [-s_i, s_i], c of shape (..., 2)
    and s of shape (..., g, 2), s sorted by angle in [0, pi): the chain from
    c - sum s adding the doubled s, then its reflection in c."""
    lower = np.cumsum(np.concatenate([(c - s.sum(axis=-2))[..., None, :], 2.0 * s], axis=-2),
                      axis=-2)[..., :-1, :]
    return np.concatenate([lower, 2.0 * c[..., None, :] - lower], axis=-2)


# the unit directions of the parallelogram generators, at angles 0, pi/4,
# pi/2 and 3 pi/4, then (m, 1) / |(m, 1)|, which each draw fills in
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_UNITS = ((1.0, 0.0), (_INV_SQRT2, _INV_SQRT2), (0.0, 1.0), (-_INV_SQRT2, _INV_SQRT2),
          (0.0, 0.0))
# (direction, half-length) of the generators of H, then of K, each two by
# angle, and the center of K; H is about the origin
_FAMILIES = {
    1: ((0, "alpha"), (1, "beta"), (2, "gamma"), (3, "delta"), "y"),
    2: ((0, "alpha"), (3, "delta"), (1, "beta"), (2, "gamma"), "y"),
    3: ((0, "alpha_p"), (2, "beta_p"), (0, "gamma_p"), (4, "delta_p"), "y_p"),
    4: ((0, "gamma_p"), (2, "beta_p"), (0, "alpha_p"), (4, "delta_p"), "y_p"),
}
FAMILY_DEFAULTS = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0, "alpha_p": 1.0,
                   "beta_p": 1.0, "gamma_p": 2.0, "delta_p": 1.0, "m": 0.0,
                   "y": (0.0, 0.0), "y_p": (0.0, 0.0)}


def parallelogram_loops(families, draws):
    """Vertex loops of the pairs (H, K) of each family at every draw, a dict of
    FAMILY_DEFAULTS names, from one array pass: shape (n, 2 len(families), 4,
    2).  Each is zonogon's chain c +- s1 +- s2 with a leading draw axis from
    its lexicographic minimum, Polygon(zonogon(...)).vertices bit for bit.  A
    parameter that is not finite or breaks its family's constraints raises
    InvalidFamilyParams, naming it and the first draw that holds it."""
    if not set(families) <= _FAMILIES.keys():
        raise InvalidFamilyParams(f"family must be 1..4, got {families}")
    if isinstance(draws, dict):
        raise TypeError("draws must be a sequence of parameter dicts, not one dict")
    unknown = set().union(*draws) - FAMILY_DEFAULTS.keys()
    if unknown:
        raise TypeError(f"unknown family parameter {min(unknown)!r}")
    p = {k: np.array([d.get(k, v) for d in draws], dtype=float).reshape(len(draws), np.size(v))
         for k, v in FAMILY_DEFAULTS.items()}
    half = sorted({k for f in families for _, k in _FAMILIES[f][:4]}, key=list(p).index)
    ap, bp, gp, dp, m = (p[k] for k in ("alpha_p", "beta_p", "gamma_p", "delta_p", "m"))
    rules = [(~np.isfinite(v).all(axis=1), f"{k} must be finite") for k, v in p.items()]
    rules.append((np.hstack([p[k] for k in half]).min(axis=1) <= 0,
                  f"{', '.join(half)} must be positive"))
    if {3, 4} & set(families):
        rules.append((((ap == gp) | (m == 0.0) & (bp == dp))[:, 0],
                      "alpha' != gamma' is required, and beta' != delta' where m = 0"))
    bad = np.any([rule for rule, _ in rules], axis=0)
    if bad.any():
        i = int(bad.argmax())
        raise InvalidFamilyParams(f"draw {i}: " + next(text for rule, text in rules if rule[i]))
    units = np.tile(_UNITS, (len(draws), 1, 1))
    with np.errstate(over="ignore"):  # |m| > 1e154: r = inf, a degenerate loop below
        r = np.sqrt(1.0 + m * m)
    units[:, 4] = np.hstack([m / r, 1.0 / r])
    s = np.stack([p[k] * units[:, i] for f in families for i, k in _FAMILIES[f][:4]], axis=1)
    # the center plus the generators' midpoints, 0.0, as zonogon sums them
    c = np.stack([z for f in families for z in (np.zeros((len(draws), 2)), p[_FAMILIES[f][4]])],
                 axis=1) + 0.0
    loops = _zonogon_loops(c, s.reshape(len(draws), 2 * len(families), 2, 2))
    turn, tol = _turns(loops)  # Polygon keeps a vertex that turns left by more than tol
    if not (turn > tol).all():
        raise DegenerateZonogon(f"draw {np.argwhere(turn <= tol)[0, 0]}: "
                                "all generators are parallel")
    start = np.lexsort((loops[..., 1], loops[..., 0]), axis=-1)[..., :1]
    return np.take_along_axis(loops, ((start + np.arange(4)) % 4)[..., None], axis=-2)


def example_pair(family, **params):
    """One of the four parallelogram pairs (H_i, K_i) with matching
    cross-covariograms, as Polygons: parallelogram_loops at the one draw
    params.  Families 1 and 2 share g_{H,K}; so do families 3 and 4."""
    h, k = parallelogram_loops((family,), [params])[0]
    return Polygon(h), Polygon(k)


def steiner_point(poly):
    """Steiner point (1/pi) * integral of h(u) u over the circle, exact for polygons:
    the vertices weighted by their exterior angles over 2 pi.  poly is a
    Polygon or vertex loops of shape (..., n, 2), one point a loop."""
    v = poly.vertices if isinstance(poly, Polygon) else poly
    e = np.roll(v, -1, axis=-2) - v  # e[i] leaves v[i], e[i - 1] enters it
    p = np.roll(e, 1, axis=-2)
    turn = np.arctan2(p[..., 0] * e[..., 1] - p[..., 1] * e[..., 0], np.sum(p * e, axis=-1))
    return (turn[..., None, :] @ v)[..., 0, :] / (2.0 * math.pi)


def polygonal_approximation(body, n=4096):
    """Inscribed n-gon with vertices on the boundary (identity for polygons)."""
    if isinstance(body, Polygon):
        return body
    if isinstance(body, SupportBody):
        return Polygon(body.boundary(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)))
    raise TypeError(f"not a body: {body!r}")


def slice_table(vertices):
    """Lower and upper boundary of a convex CCW polygon, as lines between x-knots.

    Returns the sorted distinct vertex abscissae x, shape (m,), and rows
    (a, a', b, b'), shape (4, m - 1): on [x[k], x[k+1]] the polygon is
    a[k] + a'[k] (t - x[k]) <= y <= b[k] + b'[k] (t - x[k]).  The chains run
    between the vertices of least and greatest x by argmin/argmax, not from the
    canonical start, which can be the top end of a near-vertical edge.  Each
    chain's edge is read at the interval's midpoint, never at a knot, so a
    chain that jumps at a vertical edge gives its limits from inside.
    """
    v = np.asarray(vertices, dtype=float)
    n = v.shape[0]
    lo, hi = int(np.argmin(v[:, 0])), int(np.argmax(v[:, 0]))
    knots = sorted_distinct(v[:, 0])
    mid = 0.5 * (knots[:-1] + knots[1:])
    lines = []
    for chain in (v[(lo + np.arange((hi - lo) % n + 1)) % n],   # lower: counterclockwise
                  v[(lo - np.arange((lo - hi) % n + 1)) % n]):  # upper: clockwise
        x, y = chain[:, 0], chain[:, 1]
        k = np.searchsorted(x[1:-1], mid, side="right")
        dx = x[k + 1] - x[k]
        slope = (y[k + 1] - y[k]) / np.where(dx > 0.0, dx, np.inf)
        lines += [y[k] + slope * (knots[:-1] - x[k]), slope]
    return knots, np.array(lines)


def body_to_spec(body):
    """JSON-serializable specification dict for a body."""
    if isinstance(body, Polygon):
        return {"kind": "polygon", "vertices": body.vertices.tolist()}
    if isinstance(body, Disk):
        return {"kind": "disk", "center": list(body.center), "radius": body.radius}
    if isinstance(body, SupportBody):
        spec = {"kind": "support2d", "a0": body.a0, "coeffs": [list(c) for c in body.coeffs]}
        if body.center != (0.0, 0.0):
            spec["center"] = list(body.center)
        return spec
    raise TypeError(f"not a body: {body!r}")


_SPEC_KEYS = {  # the keys each kind needs, then the ones it may leave out
    "polygon": ({"kind", "vertices"}, set()),
    "disk": ({"kind", "center", "radius"}, set()),
    "support2d": ({"kind", "a0"}, {"coeffs", "center"}),
    "zonogon": ({"kind", "generators"}, {"center"}),
}
_LIST_KEYS = {"vertices", "coeffs", "generators"}  # the keys whose value is a list


def _leaves(value):
    """The entries of a value nested in lists and tuples, depth first."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def body_from_spec(spec):
    """Body from a specification dict (see body_to_spec for the schema)."""
    if not isinstance(spec, dict):
        raise ValueError(f"body spec must be an object, got {spec!r:.40}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown body kind {kind!r}")
    needed, optional = _SPEC_KEYS[kind]
    unknown = set(spec) - needed - optional
    if unknown:
        raise ValueError(f"unknown keys for {kind!r} body: {sorted(unknown)}")
    missing = needed - set(spec)
    if missing:
        raise ValueError(f"missing key {min(missing)!r} in {kind!r} body")
    for key, value in spec.items():
        if key == "kind":
            continue
        if key in _LIST_KEYS and not isinstance(value, (list, tuple)):
            raise ValueError(f"{key!r} of {kind!r} body must be a list, got {value!r:.40}")
        for leaf in _leaves(value):
            # JSON numbers only: float() would take a bool or a numeric string
            if isinstance(leaf, bool) or not isinstance(leaf, numbers.Real):
                raise ValueError(f"{key!r} of {kind!r} body must hold numbers, got {leaf!r:.40}")
        try:
            finite = all(math.isfinite(leaf) for leaf in _leaves(value))
        except OverflowError:  # a JSON integer past the largest float
            raise ValueError(
                f"{key!r} of {kind!r} body holds a number beyond the float range") from None
        if not finite:
            raise ValueError(f"non-finite number in {key!r} of {kind!r} body")
    if kind == "polygon":
        v = np.asarray(spec["vertices"], dtype=float)
        poly = Polygon(v)
        if poly != Polygon(convex_hull(v)) or not math.isclose(
                area(poly), abs(_shoelace(v)), rel_tol=COLLINEAR_TOL):
            raise ValueError("polygon vertices are not in convex position")
        return poly
    if kind == "disk":
        return Disk(spec["center"], spec["radius"])
    if kind == "support2d":
        return SupportBody(spec["a0"], tuple(spec.get("coeffs", ())),
                           spec.get("center", (0.0, 0.0)))
    for i, gen in enumerate(spec["generators"], start=1):
        if not (isinstance(gen, (list, tuple)) and len(gen) == 2
                and all(isinstance(end, (list, tuple)) for end in gen)):
            raise ValueError(f"generator {i} must be two endpoints, got {gen!r:.40}")
    gens = [Segment(tuple(p), tuple(q)) for p, q in spec["generators"]]
    return zonogon(spec.get("center", (0.0, 0.0)), gens)


def body_hash(body):
    """Stable hex digest identifying the body's specification."""
    blob = json.dumps(body_to_spec(body), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
