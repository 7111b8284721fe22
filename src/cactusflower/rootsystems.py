"""Finite crystallographic root systems from Cartan data, permutahedron
faces and their centres, the star-to-permutahedron map, and the
star-to-real-locus coordinates.

Conventions.  Vectors live in the fundamental-weight basis of a fixed base
simple system, so a weight is a tuple of pairings with the base simple
coroots; roots additionally carry their integer coordinates in the base
simple roots.  Weights, coroot pairings, rho and every Weyl image of them
are integral, so the Weyl group is enumerated as integer matrices keyed by
the root permutations they induce.  Other simple systems are Weyl
translates of the base and are represented by the translating group
element.

A Cartan matrix is checked for finite type (every principal minor
positive) before any closure runs, so the closures end.  One integer
reflection closure builds the roots and their coroots together: the
coroot coordinates reflect under the transposed Cartan matrix.

The permutahedron paths compute on integers and stay exact.  Each simple
system keeps a table of doubled face centres, one integer vector per
keep-mask, which face_center, xi and verify_face_center read.  Face vertices
are walked in pairing coordinates (the pairings with a chamber's simple
coroots), where rho_Pi is (1, ..., 1) and a simple reflection s_j subtracts
p_j times column j of the Cartan matrix: the numbers game.  That W_J-orbit
is the same for every chamber, and a vertex is the chamber's matrix times
its point, so each root system keeps, per keep-mask, only the orbit's size
and coordinate sum.  The dominance loop takes the same step.  A rational
input point is scaled by the common denominator of its coordinates
(_scaled) before it is reflected, paired or compared, and simple-root
coordinates come from the integer matrix det(A) A^-1.  A Fraction is made
only for a returned value: the parallelepiped coordinates, xi, theta and
face centres (half-integral).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Dict, FrozenSet, List, Tuple

from .realgeometry import INF, NEG_INF, reparameterize

Vec = Tuple[Fraction, ...]

# the most Weyl elements a RootSystem enumerates: |W(E6)| = 51,840 is
# within it; |W(E7)| = 2,903,040 and |W(E8)| would need GiB
_WEYL_CAP = 10 ** 5

NAMED_CARTAN = {}


def _chain(n: int) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
        if i + 1 < n:
            a[i][i + 1] = a[i + 1][i] = -1
    return a


for _r in range(1, 5):
    NAMED_CARTAN[f"A{_r}"] = _chain(_r)
for _r in (2, 3, 4):
    _m = _chain(_r)
    _m[_r - 2][_r - 1] = -2  # short last root
    NAMED_CARTAN[f"B{_r}"] = _m
    _m2 = _chain(_r)
    _m2[_r - 1][_r - 2] = -2
    NAMED_CARTAN[f"C{_r}"] = _m2
_d4 = _chain(4)
_d4[2][3] = _d4[3][2] = 0
_d4[1][3] = _d4[3][1] = -1
NAMED_CARTAN["D4"] = _d4
NAMED_CARTAN["G2"] = [[2, -1], [-3, 2]]
_f4 = _chain(4)
_f4[1][2] = -2
NAMED_CARTAN["F4"] = _f4

EXPECTED_ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32, "C2": 8, "C3": 18, "C4": 32, "D4": 24,
    "F4": 48, "G2": 12,
}


def _scaled(x) -> Tuple[int, Tuple[int, ...]]:
    """(q, q*x) for the least q > 0 that makes every coordinate integral."""
    x = [v if type(v) in (int, Fraction) else Fraction(v) for v in x]
    q = math.lcm(*(v.denominator for v in x))
    return q, tuple(v.numerator * (q // v.denominator) for v in x)


@dataclass(frozen=True)
class Root:
    """A root: simple-root coordinates (integers, one sign) and weight-basis
    coordinates, plus the coroot's pairing functional on weight vectors."""

    simple: Tuple[int, ...]
    weight: Tuple[int, ...]
    copairing: Tuple[int, ...]  # <alpha^vee, x> = sum copairing[j] * x_j


class RootSystem:
    """The full root set generated from a Cartan matrix by reflection
    closure, with the Weyl group enumerated as integer matrices on weight
    space, keyed by the root permutations they induce."""

    def __init__(self, cartan):
        if not all(isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
                   for row in cartan):
            raise ValueError("a Cartan matrix is a list of rows of integers")
        a = [list(row) for row in cartan]
        r = len(a)
        if any(len(row) != r for row in a):
            raise ValueError("Cartan matrix must be square")
        for i in range(r):
            if a[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(r):
                if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                    raise ValueError("off-diagonal entries invalid")
        # finite type iff every principal minor is positive (Kac, section 4);
        # a finite-type matrix is symmetrizable and the closures below end
        subsets = (s for k in range(1, r + 1) for s in itertools.combinations(range(r), k))
        if any(_det([[a[i][j] for j in s] for i in s]) <= 0 for s in subsets):
            raise ValueError("not a finite-type Cartan matrix")
        self.cartan = tuple(tuple(row) for row in a)
        self.rank = r
        # simple coordinates are (det A)^-1 times _adj applied to a weight;
        # det A > 0 for every finite type, so _adj keeps their signs
        self._det, self._adj = _det(a), _adj(a)

        # reflection closure on simple-root coordinates c, each root carrying
        # its coroot in simple coroots, c^vee: s_i subtracts <alpha_i^vee,
        # alpha> = (A c)_i from c_i and <alpha^vee, alpha_i> = (A^T c^vee)_i
        # from c^vee_i.  images[c] lists s_1 c, ..., s_r c.
        simples = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
        at = list(zip(*a))
        coroots, images = dict(zip(simples, simples)), {}
        frontier = list(simples)
        while frontier:
            nxt = []
            for c in frontier:
                cv = coroots[c]
                images[c] = [c[:i] + (c[i] - sum(map(mul, a[i], c)),) + c[i + 1:] for i in range(r)]
                for i, c2 in enumerate(images[c]):
                    if c2 not in coroots:
                        coroots[c2] = cv[:i] + (cv[i] - sum(map(mul, at[i], cv)),) + cv[i + 1:]
                        nxt.append(c2)
            frontier = nxt

        if _weyl_order(coroots) > _WEYL_CAP:
            raise ValueError(f"Weyl group has more than {_WEYL_CAP} elements, too many to enumerate")

        # <alpha_i^vee, omega_j> = delta_ij, so the copairing is c^vee
        self.roots: List[Root] = [
            Root(c, tuple(sum(map(mul, row, c)) for row in a), coroots[c]) for c in sorted(coroots)
        ]
        self._root_index = {rt.simple: k for k, rt in enumerate(self.roots)}
        self._simple_idx = [self._root_index[s] for s in simples]
        reflections = [[self._root_index[images[rt.simple][i]] for rt in self.roots]
                       for i in range(r)]

        # Weyl group as matrices on weight coordinates (columns = images of
        # the fundamental weights), keyed by the induced root permutation.
        # Since <alpha_i^vee, omega_j> = delta_ij, s_i x = x - x_i alpha_i:
        # row k of s_i m is row k of m minus a_ki times row i.
        ident = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        key = tuple(range(len(self.roots)))
        self.elements: Dict[tuple, tuple] = {key: ident}
        frontier = [(key, ident)]
        while frontier:
            nxt = []
            for key, m in frontier:
                for i, perm in enumerate(reflections):
                    key2 = tuple(perm[k] for k in key)
                    if key2 not in self.elements:
                        mi = m[i]
                        m2 = tuple(
                            tuple(x - a[k][i] * y for x, y in zip(m[k], mi))
                            for k in range(r)
                        )
                        self.elements[key2] = m2
                        nxt.append((key2, m2))
            frontier = nxt
        self.order = len(self.elements)
        self._simple_systems = self._build_simple_systems()
        self._orbit_sums = [None] * (1 << r)  # per keep-mask, filled by orbit_sum
        self._supports = [sum(1 << i for i, x in enumerate(rt.simple) if x) if min(rt.simple) >= 0
                          else None for rt in self.roots]  # a positive root's support mask

    # -- pairings -----------------------------------------------------------

    def copair(self, root: Root, x: Vec) -> Fraction:
        """<alpha^vee, x> for a weight-basis vector x."""
        return sum(map(mul, root.copairing, x))

    def apply_matrix(self, m, x: Vec) -> Vec:
        return tuple(sum(map(mul, row, x)) for row in m)

    # -- derived data --------------------------------------------------------

    @property
    def rho(self) -> Tuple[int, ...]:
        return (1,) * self.rank

    def parabolic_orbit(self, mask: int) -> Tuple[Tuple[int, ...], ...]:
        """The orbit of rho under the simple reflections the mask keeps, in
        pairing coordinates, breadth first; the weight of alpha_j is column j."""
        gens = [(j, self.roots[k].weight) for j, k in enumerate(self._simple_idx) if mask >> j & 1]
        orbit = {self.rho: None}  # a dict keeps the order points are met
        frontier = list(orbit)
        while frontier:
            nxt = []
            for p in frontier:
                for j, w in gens:
                    # rho is regular: p_j < 0 leads back to a point already met
                    c = p[j]
                    if c > 0:
                        y = tuple([v - c * u for v, u in zip(p, w)])
                        if y not in orbit:
                            orbit[y] = None
                            nxt.append(y)
            frontier = nxt
        return tuple(orbit)

    def orbit_sum(self, mask: int) -> Tuple[int, Tuple[int, ...]]:
        """(size, coordinate sum) of parabolic_orbit(mask), kept from first use."""
        entry = self._orbit_sums[mask]
        if entry is None:
            orbit = self.parabolic_orbit(mask)
            entry = self._orbit_sums[mask] = (len(orbit), tuple(map(sum, zip(*orbit))))
        return entry

    def simple_systems(self) -> list["SimpleSystem"]:
        """Every simple system, one per Weyl element, sorted by the indices
        of its roots (a fresh list; the systems are built once)."""
        return list(self._simple_systems)

    def _build_simple_systems(self) -> list["SimpleSystem"]:
        out = []
        for perm, m in self.elements.items():
            inv = [0] * len(perm)
            for a, b in enumerate(perm):
                inv[b] = a
            inv = tuple(inv)
            out.append(SimpleSystem(self, tuple(perm[i] for i in self._simple_idx), m, inv))
        out.sort(key=lambda s: s.root_indices)
        return out


def _weyl_order(roots) -> int:
    """|W| from the simple-root coordinates of all the roots, before any
    element is built.  The numbers of positive roots of heights 1, 2, ...
    form the partition dual to the exponents m_i (Kostant), and |W| is the
    product of the degrees m_i + 1; both hold for reducible systems too.

    >>> _weyl_order([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    6
    """
    by_height: Dict[int, int] = {}
    for c in roots:
        h = sum(c)
        if h > 0:
            by_height[h] = by_height.get(h, 0) + 1
    counts = by_height.values()  # positive roots per height
    rank = by_height.get(1, 0)  # the simple roots
    return math.prod(1 + sum(1 for m in counts if m >= j) for j in range(1, rank + 1))


def _det(m) -> int:
    """The determinant of an integer matrix, by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _adj(a) -> tuple:
    """The adjugate det(A) A^-1 of an integer matrix, from its cofactors."""
    r = len(a)
    return tuple(
        tuple((-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
              for j in range(r))
        for i in range(r)
    )


def build_root_system(cartan_or_name) -> RootSystem:
    """Construct the root system from a Cartan matrix or a named type.

    >>> len(build_root_system("A2").roots)
    6
    >>> len(build_root_system("G2").roots)
    12
    """
    if isinstance(cartan_or_name, str):
        try:
            cartan = NAMED_CARTAN[cartan_or_name]
        except KeyError:
            raise ValueError(f"unknown type {cartan_or_name!r}") from None
    else:
        cartan = cartan_or_name
    return RootSystem(cartan)


@dataclass(frozen=True)
class SimpleSystem:
    """A simple system: the Weyl image of the base, carried by its element.

    It is identified by its system and its roots; the element's matrix and
    the inverse root permutation follow from those, so they are left out of
    equality and hashing.  The inverse element needs no matrix: the
    coordinates of w^-1 x are the pairings of x with this system's coroots."""

    system: RootSystem
    root_indices: Tuple[int, ...]  # images of the base simple roots
    matrix: tuple = field(compare=False)
    inv_perm: Tuple[int, ...] = field(compare=False)  # inverse of the induced root permutation

    def roots(self) -> list[Root]:
        return [self.system.roots[i] for i in self.root_indices]

    def rho(self) -> Vec:
        return self.system.apply_matrix(self.matrix, self.system.rho)

    def coords_in(self, root: Root) -> tuple:
        """Integer coordinates of a root in this simple system."""
        idx = self.system._root_index[root.simple]
        return self.system.roots[self.inv_perm[idx]].simple

    @cached_property
    def doubled_centres(self) -> Tuple[Tuple[int, ...], ...]:
        """Twice each face centre, indexed by the keep-mask J (bit i set when
        position i is kept): 2 rho_Pi minus the sum of the positive roots of
        this system whose support lies in J.  Built on first use, from one
        pass over the roots bucketed by support and a subset sum over masks."""
        r, supports = self.system.rank, self.system._supports
        sums = [(0,) * r] * (1 << r)
        for root, k in zip(self.system.roots, self.inv_perm):
            mask = supports[k]  # of the root's coordinates in this system
            if mask is not None:
                sums[mask] = tuple(map(add, sums[mask], root.weight))
        for i in range(r):
            for mask in range(1 << r):
                if mask >> i & 1:
                    sums[mask] = tuple(map(add, sums[mask], sums[mask ^ 1 << i]))
        rho2 = [2 * x for x in self.rho()]
        return tuple(tuple(map(sub, rho2, s)) for s in sums)

    def __str__(self):
        return f"Pi{self.root_indices}"


@dataclass(frozen=True)
class FaceDatum:
    """A face of the permutahedron presented as (Pi, Delta subset of Pi);
    delta is a set of positions into the simple system."""

    simple_system: SimpleSystem
    delta: FrozenSet[int]

    def __post_init__(self):
        if not all(0 <= i < self.simple_system.system.rank for i in self.delta):
            raise ValueError("delta positions out of range")

    @property
    def keep_mask(self) -> int:
        """The positions outside delta, as a bit mask."""
        return (1 << self.simple_system.system.rank) - 1 - sum(1 << i for i in self.delta)


def all_face_data(sys_: RootSystem):
    """Every face datum (Pi, Delta): each simple system with each subset of
    its positions, by increasing size of Delta."""
    for ss in sys_.simple_systems():
        for size in range(sys_.rank + 1):
            for delta in itertools.combinations(range(sys_.rank), size):
                yield FaceDatum(ss, frozenset(delta))


def face_center(fd: FaceDatum) -> Vec:
    """The centre of the face: rho_Pi minus the parabolic half-sum."""
    return tuple(Fraction(x, 2) for x in fd.simple_system.doubled_centres[fd.keep_mask])


def face_vertices(fd: FaceDatum) -> FrozenSet[Vec]:
    """The vertex set of the face: the orbit of rho_Pi under the reflections
    in Pi minus Delta, the chamber's matrix times rho's parabolic orbit."""
    ss, sys_ = fd.simple_system, fd.simple_system.system
    return frozenset(sys_.apply_matrix(ss.matrix, p) for p in sys_.parabolic_orbit(fd.keep_mask))


def verify_face_center(fd: FaceDatum) -> bool:
    """The vertex average of the face equals the centre formula, exactly:
    twice the vertex sum (matrix times orbit sum) is the count times the
    doubled centre."""
    ss, mask = fd.simple_system, fd.keep_mask
    count, total = ss.system.orbit_sum(mask)
    return all(2 * v == count * c
               for v, c in zip(ss.system.apply_matrix(ss.matrix, total), ss.doubled_centres[mask]))


# ---------------------------------------------------------------------------
# the star-to-permutahedron map


def xi(fd: FaceDatum, t: Dict[int, Fraction]) -> Vec:
    """The face-respecting map into the permutahedron.

    t assigns [0,1] values to the positions outside delta; delta positions
    are pinned at one.  Vertices go to face centres by design.

    With t_i = p_i / q_i this is the sum over subsets d of the positions of
    prod(p_i for i in d, q_i - p_i for i not in d) times the doubled centre
    of the face keeping the complement of d, over 2 prod(q_i).
    """
    ss = fd.simple_system
    r = ss.system.rank
    p, q = [1] * r, [1] * r
    for i in range(r):
        if i not in fd.delta:
            v = Fraction(t[i])
            if not 0 <= v <= 1:
                raise ValueError("coordinates lie in [0, 1]")
            p[i], q[i] = v.numerator, v.denominator
    table = ss.doubled_centres
    out = [0] * r
    for d in range(1 << r):
        coeff = 1
        for i in range(r):
            coeff *= p[i] if d >> i & 1 else q[i] - p[i]
        if coeff:
            for k, x in enumerate(table[(1 << r) - 1 - d]):
                out[k] += coeff * x
    den = 2 * math.prod(q)
    return tuple(Fraction(x, den) for x in out)


def star_point_coords(ss: SimpleSystem, t: Dict[int, Fraction]) -> Vec:
    """The point sum_i t_i * omega_i^Pi of the parallelepiped."""
    q, tq = _scaled([t[i] for i in range(ss.system.rank)])
    return tuple(Fraction(x, q) for x in ss.system.apply_matrix(ss.matrix, tq))


def theta_root(ss: SimpleSystem, t: Dict[int, Fraction]) -> Dict[Tuple[int, ...], object]:
    """The coordinates of the real locus point attached to a parallelepiped
    point: z_alpha is the pairing-weighted sum of reparameterized
    coordinates, with value infinity when a coordinate at one participates.

    Keyed by the root's base simple coordinates.
    """
    sys_ = ss.system
    fv = {i: reparameterize(t[i]) for i in range(sys_.rank)}
    out = {}
    for root in sys_.roots:
        c = ss.coords_in(root)
        total = Fraction(0)
        infinite = 0
        for i, ci in enumerate(c):
            if ci == 0:
                continue
            v = fv[i]
            if v == INF:
                infinite = 1 if ci > 0 else -1
            elif v == NEG_INF:
                infinite = -1 if ci > 0 else 1
            else:
                total += ci * v
        if infinite > 0:
            out[root.simple] = INF
        elif infinite < 0:
            out[root.simple] = NEG_INF
        else:
            out[root.simple] = total
    return out


# ---------------------------------------------------------------------------
# membership


def permutahedron_membership(sys_: RootSystem, x: Vec) -> bool:
    """Dominance criterion: bring x into the closed fundamental chamber and
    test that rho - x is a nonnegative rational combination of the simple
    roots.  Runs on q*x, q the common denominator of x."""
    q, y = _scaled(x)
    guard = 0
    while any(v < 0 for v in y):
        i = next(k for k, v in enumerate(y) if v < 0)
        # weight coordinates are the base pairings: the numbers-game step
        c = y[i]
        y = tuple([v - c * u for v, u in zip(y, sys_.roots[sys_._simple_idx[i]].weight)])
        guard += 1
        if guard > 10 * sys_.order:
            raise RuntimeError("dominance loop failed to terminate")
    diff = tuple(q * a - b for a, b in zip(sys_.rho, y))
    return all(v >= 0 for v in sys_.apply_matrix(sys_._adj, diff))


def star_membership(sys_: RootSystem, x: Vec):
    """The first simple system (in canonical order) whose parallelepiped
    contains x, with the [0,1] coordinates; None if x is outside the star.

    The enumeration order fixes the representative deterministically (the
    lexicographically least admissible system)."""
    ss, t = next(_star_charts(sys_, x), (None, None))
    return None if ss is None else (ss, dict(enumerate(t)))


def _star_charts(sys_: RootSystem, x: Vec):
    """Each simple system, in canonical order, whose parallelepiped contains
    x, with the coordinates <alpha_i^vee, x>; paired in int on q*x, q the
    common denominator of x."""
    q, y = _scaled(x)
    for ss in sys_.simple_systems():
        tq = [sys_.copair(root, y) for root in ss.roots()]
        if all(0 <= v <= q for v in tq):
            yield ss, [Fraction(v, q) for v in tq]


# ---------------------------------------------------------------------------
# the two point relations (quantified over all face presentations)


def star_presentations(sys_: RootSystem, x: Vec):
    """All presentations of x as a parallelepiped point: per containing
    simple system, the map root-index -> coordinate and the set of roots
    whose coordinate is strictly below one (which any retained set must
    contain)."""
    out = []
    for ss, t in _star_charts(sys_, x):
        pairing = dict(zip(ss.root_indices, t))
        need = frozenset(k for k, v in pairing.items() if v != 1)
        out.append((pairing, need))
    return out


def star_points_related(sys_: RootSystem, x: Vec, y: Vec, pres_x=None, pres_y=None) -> bool:
    """Whether two star points are identified: some pair of face
    presentations retains the same simple roots with equal coordinates."""
    pres_x = pres_x if pres_x is not None else star_presentations(sys_, x)
    pres_y = pres_y if pres_y is not None else star_presentations(sys_, y)
    for pair1, need1 in pres_x:
        for pair2, need2 in pres_y:
            keep = need1 | need2
            ok = True
            for k in keep:
                v1, v2 = pair1.get(k), pair2.get(k)
                if v1 is None or v1 != v2:
                    ok = False
                    break
            if ok:
                return True
    return False


def permutahedron_faces_containing(sys_: RootSystem, y: Vec):
    """All face data (Pi, Delta) whose face contains the permutahedron
    point.  Runs on q*y, q the common denominator of y."""
    out = []
    q, yq = _scaled(y)
    for ss in sys_.simple_systems():
        # Pi's coroots pair to 1 with rho_Pi: q*(y - rho_Pi) pairs as q*y, less q
        coords = sys_.apply_matrix(sys_._adj, [sys_.copair(root, yq) - q for root in ss.roots()])
        zero_positions = [i for i in range(sys_.rank) if coords[i] == 0]
        for size in range(len(zero_positions) + 1):
            for delta in itertools.combinations(zero_positions, size):
                out.append(FaceDatum(ss, frozenset(delta)))
    return out


def permutahedron_points_related(
    sys_: RootSystem, y1: Vec, y2: Vec, faces1=None, faces2=None, _vertex_cache=None
) -> bool:
    """Whether the parallel-face identification relates the two points."""
    faces1 = faces1 if faces1 is not None else permutahedron_faces_containing(sys_, y1)
    faces2 = faces2 if faces2 is not None else permutahedron_faces_containing(sys_, y2)
    cache = _vertex_cache if _vertex_cache is not None else {}

    def verts(fd):
        if fd not in cache:
            cache[fd] = (face_vertices(fd), fd.simple_system.doubled_centres[fd.keep_mask])
        return cache[fd]

    # the only translation carrying y1 to y2 is y2 - y1; vertices are
    # integral, so it carries no face onto another unless it is integral
    r = sys_.rank
    q, both = _scaled(tuple(y1) + tuple(y2))
    shift = [b - a for a, b in zip(both[:r], both[r:])]
    if any(s % q for s in shift):
        return False
    shift = [s // q for s in shift]
    # a face through y1 can only be carried onto a face of faces2 centred at
    # c1 + shift
    by_centre: Dict[tuple, list] = {}
    for fd2 in faces2:
        v2, c2 = verts(fd2)
        by_centre.setdefault(c2, []).append(v2)
    for fd1 in faces1:
        v1, c1 = verts(fd1)
        for v2 in by_centre.get(tuple(c + 2 * s for c, s in zip(c1, shift)), ()):
            if len(v1) == len(v2) and {tuple(a + s for a, s in zip(v, shift)) for v in v1} == v2:
                return True
    return False
