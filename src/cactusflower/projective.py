"""Exact projective-line coordinates and the defining equations of the
deformation families.

Every coordinate is a point of P^1 over Q or Q(i), stored as one canonical
Gaussian-integer triple h = (ur, ui, v) (see ProjPoint): NuTuple and MuTuple
keep the bare triples and make a ProjPoint only where one is asked for.
Equations between P^1-valued coordinates are multihomogenized: each relation
is cleared to a polynomial of degree at most one in each participating
homogeneous pair (so "ab = c" means a1*b1*c2 = c1*a2*b2, which is satisfied
by a = 0, b = infinity, c arbitrary) and evaluated in integers on the
triples.  The deformation parameter epsilon enters as an affine scalar.

The constructions of family members (orbit_map, cross_ratios,
losev_manin_iso, eps_family_delta) scale their inputs once to Gaussian
integers over one common denominator, form the pair differences once, and
turn each integer pair (ur + i ui : vr + i vi) into its triple with
_triple, the one normaliser, which ProjPoint(u, v) calls too.

Space families (VarietySpec tags):

  LosevManin            alpha on ordered pairs:  a_ij a_jk = a_ik, a_ij a_ji = 1
  Flower                nu on ordered pairs:     nu_ij + nu_ji = 0 and the
                        triangle nu_ij nu_jk = nu_ik nu_jk + nu_ij nu_ik
  DeformedFlower        the epsilon version of Flower
  DeligneMumford        mu on ordered triples of a label set:
                        m_ijk m_ikj = 1, m_ijk + m_jik = 1, m_ijk m_ilj = m_ilk
  MauWoodward           nu and mu jointly, with the link m_ijk nu_ik = nu_ij
  DeformedMauWoodward   the epsilon version of MauWoodward
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .combinatorics import (
    Permutation,
    SetPartition,
    lookup_table,
    partition_closure,
    refines,
)
from .forests import PlanarForest, _meets
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    Scalar,
    canon_scalar,
    format_scalar,
    parse_scalar,
)


class InvariantViolation(RuntimeError):
    """A precondition certified impossible by the theory was hit anyway."""


class NotAMember(ValueError):
    """A computation defined on a family was given a point outside it; the
    message carries the membership report."""


# ---------------------------------------------------------------------------
# points of the projective line

_new, _setattr = object.__new__, object.__setattr__  # bound once for the point constructors


@dataclass(frozen=True)
class ProjPoint:
    """A point (u : v) of P^1, stored as its canonical triple h.

    h = (ur, ui, d) is the value (ur + i ui)/d, with d > 0 and
    gcd(ur, ui, d) = 1; infinity is (1, 0, 0).  Equal points have equal
    triples.  u and v read the point back as (x : 1) or (1 : 0) over the
    exact scalars.
    """

    h: Tuple[int, int, int]

    def __init__(self, u, v):
        _, ((ur, ui), (vr, vi)) = _gaussian_ints((u, v))
        _setattr(self, "h", _triple(ur, ui, vr, vi))

    @property
    def u(self) -> Scalar:
        ur, ui, d = self.h
        return _scalar(ur, ui, d) if d else ONE

    @property
    def v(self) -> Scalar:
        return ONE if self.h[2] else ZERO

    @staticmethod
    def finite(x) -> "ProjPoint":
        return ProjPoint(x, ONE)

    def is_infinite(self) -> bool:
        return not self.h[2]

    def is_zero(self) -> bool:
        return not (self.h[0] or self.h[1])

    def value(self) -> Scalar:
        if self.is_infinite():
            raise ZeroDivisionError("point at infinity has no affine value")
        return self.u

    def reciprocal(self) -> "ProjPoint":
        ur, ui, d = self.h
        return _int_point(d, 0, ur, ui)

    def conj(self) -> "ProjPoint":
        ur, ui, d = self.h
        return _int_point(ur, -ui, d, 0)

    def __eq__(self, other):
        if isinstance(other, ProjPoint):
            return self.h == other.h
        if isinstance(other, (int, Fraction, GaussianRational)):
            return not self.is_infinite() and self.u == other
        return NotImplemented

    def __hash__(self):
        return hash(self.h)

    def __str__(self):
        if self.is_infinite():
            return "inf"
        return format_scalar(self.u)

    def __repr__(self):
        return f"ProjPoint({self.u!r}, {self.v!r})"


def _triple(ur: int, ui: int, vr: int, vi: int) -> Tuple[int, int, int]:
    """The canonical triple of the point (ur + i ui : vr + i vi) of
    Gaussian-integer parts, equal to ProjPoint(ur + i ui, vr + i vi).h: the
    one normaliser of a point's triple.

    >>> _triple(4, 0, -6, 0), _triple(0, 1, 0, 2), _triple(3, 0, 0, 0)
    ((-2, 0, 3), (1, 0, 2), (1, 0, 0))
    """
    if vi:  # multiply through by the conjugate of v, which makes v a positive int
        ur, ui, vr = ur * vr + ui * vi, ui * vr - ur * vi, vr * vr + vi * vi
    elif vr < 0:
        ur, ui, vr = -ur, -ui, -vr
    elif not vr:
        if not (ur or ui):
            raise ValueError("(0 : 0) is not a point of P^1")
        ur, ui = 1, 0
    g = math.gcd(ur, ui, vr)
    return ur // g, ui // g, vr // g


def _point(h: Tuple[int, int, int]) -> ProjPoint:
    """The ProjPoint of a canonical triple, made without normalising it."""
    point = _new(ProjPoint)
    _setattr(point, "h", h)
    return point


def _int_point(ur: int, ui: int, vr: int, vi: int) -> ProjPoint:
    """The point (ur + i ui : vr + i vi) of Gaussian-integer parts."""
    return _point(_triple(ur, ui, vr, vi))


PP_ZERO = _int_point(0, 0, 1, 0)
PP_ONE = _int_point(1, 0, 1, 0)
PP_INF = _int_point(1, 0, 0, 0)


def _gaussian_ints(values) -> Tuple[int, list]:
    """(d, [(re, im), ...]): each value, an int, Fraction or
    GaussianRational, is (re + i im)/d, with d the least common denominator
    of all their parts."""
    parts = [(x.re, x.im) if isinstance(x, GaussianRational) else (x, 0) for x in values]
    d = math.lcm(*(q.denominator for pair in parts for q in pair))
    return d, [
        (r.numerator * (d // r.denominator), i.numerator * (d // i.denominator)) for r, i in parts
    ]


def _differences(zs: list) -> list:
    """The Gaussian-integer differences zs[a] - zs[b], as diff[a][b]."""
    return [[(ar - br, ai - bi) for br, bi in zs] for ar, ai in zs]


def pp_sub_scalar(p: ProjPoint, c: Scalar) -> ProjPoint:
    """p - c on P^1 (infinity is fixed)."""
    return ProjPoint(p.u - c * p.v, p.v)


def pp_mul(p: ProjPoint, q: ProjPoint) -> ProjPoint:
    return ProjPoint(p.u * q.u, p.v * q.v)


def compose_nu(p: ProjPoint, q: ProjPoint, eps: Scalar) -> ProjPoint:
    """The unique z with eps*z + p*q' ... : solves the deformed triangle for
    nu_ik given nu_ij = p and nu_jk = q, i.e. z = p*q/(p + q - eps)."""
    u = p.u * q.u
    v = p.u * q.v + p.v * q.u - eps * p.v * q.v
    if u == 0 and v == 0:
        raise InvariantViolation("triangle completion degenerated to (0:0)")
    return ProjPoint(u, v)


# ---------------------------------------------------------------------------
# coordinate tuples


def ordered_pairs(labels: Iterable[int]):
    return list(itertools.permutations(sorted(labels), 2))


def ordered_triples(labels: Iterable[int]):
    return list(itertools.permutations(sorted(labels), 3))


@dataclass(frozen=True)
class NuTuple:
    """A map p([n]) -> P^1, with optional deformation parameter; nu holds
    each coordinate's canonical triple (ProjPoint.h) under its pair.

    Constructors may pass values only for i < j; the (j, i) values are
    synthesized from the antisymmetry nu_ij + nu_ji = eps.
    """

    n: int
    nu: Tuple[Tuple[Tuple[int, int], Tuple[int, int, int]], ...]
    epsilon: Optional[Scalar]

    def __init__(self, n: int, nu: Dict[Tuple[int, int], ProjPoint], epsilon=None):
        if n < 1:
            raise ValueError(f"a nu tuple needs n >= 1, not {n}")
        if epsilon is not None:
            epsilon = canon_scalar(epsilon)
        full = {ij: p.h for ij, p in nu.items()}
        # eps = E/e: nu_ji = eps - (ur + i ui)/v = (E v - e (ur + i ui) : e v)
        e, ((er, ei),) = _gaussian_ints([epsilon if epsilon is not None else ZERO])
        for (i, j), (ur, ui, v) in list(full.items()):
            if (j, i) not in full:
                full[(j, i)] = _triple(er * v - e * ur, ei * v - e * ui, e * v, 0) if v else PP_INF.h
        pairs = set(ordered_pairs(range(1, n + 1)))
        if full.keys() != pairs:
            raise ValueError(f"nu on [{n}] holds each ordered pair once; missing or extra: "
                             f"{sorted(full.keys() ^ pairs)[:4]}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nu", tuple(sorted(full.items())))
        object.__setattr__(self, "epsilon", epsilon)

    @staticmethod
    def _trusted(n: int, nu: tuple, epsilon: Optional[Scalar]) -> "NuTuple":
        """NuTuple(n, dict(nu), epsilon) unchecked: nu holds every ordered
        pair of [n] once, sorted, and epsilon is None or canonical."""
        point = object.__new__(NuTuple)
        object.__setattr__(point, "n", n)
        object.__setattr__(point, "nu", nu)
        object.__setattr__(point, "epsilon", epsilon)
        return point

    def as_dict(self) -> Dict[Tuple[int, int], ProjPoint]:
        return {ij: _point(h) for ij, h in self.nu}

    def __getitem__(self, ij) -> ProjPoint:
        return _point(lookup_table(self, self.nu)[ij])

    def delta(self, i: int, j: int) -> ProjPoint:
        """delta_ij = 1/nu_ij, the coordinate swap."""
        return self[(i, j)].reciprocal()

    def relabel(self, w: Permutation) -> "NuTuple":
        wi = w.inverse()
        return NuTuple(
            self.n,
            {(i, j): self[(wi(i), wi(j))] for (i, j) in ordered_pairs(range(1, self.n + 1))},
            self.epsilon,
        )


AlphaTuple = NuTuple  # same shape; alpha obeys the multiplicative equations


@dataclass(frozen=True)
class MuTuple:
    """A map t(S) -> P^1 for a finite label set S; mu holds each
    coordinate's canonical triple (ProjPoint.h) under its ordered triple."""

    labels: Tuple[int, ...]
    mu: Tuple[Tuple[Tuple[int, int, int], Tuple[int, int, int]], ...]

    def __init__(self, labels: Iterable[int], mu: Dict[Tuple[int, int, int], ProjPoint]):
        ls = tuple(sorted(labels))
        triples = set(ordered_triples(ls))
        if mu.keys() != triples:
            raise ValueError(f"mu on {list(ls)} holds each ordered triple once; missing or extra: "
                             f"{sorted(mu.keys() ^ triples)[:4]}")
        object.__setattr__(self, "labels", ls)
        object.__setattr__(self, "mu", tuple(sorted((t, p.h) for t, p in mu.items())))

    @staticmethod
    def _trusted(labels: Tuple[int, ...], mu: tuple) -> "MuTuple":
        """MuTuple(labels, dict(mu)) unchecked: labels are sorted and mu
        holds every ordered triple of them once, sorted."""
        point = object.__new__(MuTuple)
        object.__setattr__(point, "labels", labels)
        object.__setattr__(point, "mu", mu)
        return point

    def as_dict(self) -> Dict[Tuple[int, int, int], ProjPoint]:
        return {t: _point(h) for t, h in self.mu}

    def __getitem__(self, t) -> ProjPoint:
        return _point(lookup_table(self, self.mu)[t])


@dataclass(frozen=True)
class QTuple:
    """A joint (nu, mu) tuple for the Mau-Woodward family, both on [n]."""

    n: int
    nu: NuTuple
    mu: MuTuple
    epsilon: Optional[Scalar]

    def __init__(self, n, nu: NuTuple, mu: MuTuple, epsilon=None):
        if (nu.n, mu.labels) != (n, tuple(range(1, n + 1))):
            raise ValueError(f"a joint tuple on [{n}] has nu on [{nu.n}] and mu on {list(mu.labels)}")
        if epsilon is not None:
            epsilon = canon_scalar(epsilon)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True)
class VarietySpec:
    tag: str
    n: int

    TAGS = (
        "LosevManin",
        "Flower",
        "DeformedFlower",
        "DeligneMumford",
        "MauWoodward",
        "DeformedMauWoodward",
    )

    def __post_init__(self):
        if self.tag not in self.TAGS:
            raise ValueError(f"unknown variety tag {self.tag!r}")


@dataclass
class MembershipReport:
    spec: VarietySpec
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def add(self, name: str, indices, residual):
        self.violations.append((name, tuple(indices), residual))

    def __str__(self):
        if self.ok:
            return f"member of {self.spec.tag}(n={self.spec.n})"
        lines = [f"NOT a member of {self.spec.tag}(n={self.spec.n}):"]
        for name, idx, res in sorted(self.violations)[:12]:
            lines.append(f"  {name}{idx} residual {format_scalar(res)}")
        return "\n".join(lines)


# The relations are evaluated on the triples the tuples store, read into
# one dict per family by dict(point.nu) and dict(point.mu): a coordinate
# h = (ur, ui, v) is the homogeneous pair (ur + i ui : v), with v = 0 only at
# infinity (1, 0, 0); epsilon and 1 are affine constants (cr + i ci)/cd with
# cd > 0.  Each family's loop writes its relations' multihomogenized
# polynomials H, of degree one in each point, over these ints.  The residual
# is H over the product of the points' denominators (v, or 1 at infinity),
# built by _scalar only when H != 0, so a member costs no call per equation.
# The shape a*b = c has one loop, _products, but the mu loops write their
# own: mu_reciprocal beside mu_sum, in their per-triple report order, and
# mu_quad, the one n^4 loop, for speed.


def _scalar(hr: int, hi: int, d: int) -> Scalar:
    """(hr + i hi)/d for d > 0."""
    if not (hr or hi):
        return ZERO
    if hi:
        return GaussianRational(Fraction(hr, d), Fraction(hi, d))
    return Fraction(hr, d)


def _products(report: MembershipReport, name: str, rows) -> None:
    """a*b = c, homogenized as a1 b1 c2 = c1 a2 b2, for each (indices, a, b, c) of rows."""
    for idx, (ar, ai, av), (br, bi, bv), (cr, ci, cv) in rows:
        w = av * bv
        hr = (ar * br - ai * bi) * cv - cr * w
        hi = (ar * bi + ai * br) * cv - ci * w
        if hr or hi:
            report.add(name, idx, _scalar(hr, hi, (av or 1) * (bv or 1) * (cv or 1)))


def _mu_equations(labels, d: dict, report: MembershipReport, quad_style: str):
    for i, j, k in itertools.combinations(labels, 3):
        for a, b, c in itertools.permutations((i, j, k)):
            # m_abc m_acb = 1 and m_abc + m_bac = 1: x1 y1 = x2 y2 and
            # x1 z2 + z1 x2 = x2 z2 at (x, y, z) = (m_abc, m_acb, m_bac)
            xr, xi, xv = d[a, b, c]
            yr, yi, yv = d[a, c, b]
            zr, zi, zv = d[b, a, c]
            hr, hi = xr * yr - xi * yi - xv * yv, xr * yi + xi * yr
            if hr or hi:
                report.add("mu_reciprocal", (a, b, c), _scalar(hr, hi, (xv or 1) * (yv or 1)))
            hr, hi = xr * zv + zr * xv - xv * zv, xi * zv + zi * xv
            if hr or hi:
                report.add("mu_sum", (a, b, c), _scalar(hr, hi, (xv or 1) * (zv or 1)))
    dm = quad_style == "dm"
    for i, j, k in itertools.permutations(labels, 3):
        ar, ai, av = d[i, j, k]
        for l in labels:
            if l == i or l == j or l == k:
                continue
            # mu_ijk * mu_ilj = mu_ilk, or mu_ijk * mu_ikl = mu_ijl
            (br, bi, bv), (cr, ci, cv) = (d[i, l, j], d[i, l, k]) if dm else (d[i, k, l], d[i, j, l])
            w = av * bv
            hr = (ar * br - ai * bi) * cv - cr * w
            hi = (ar * bi + ai * br) * cv - ci * w
            if hr or hi:
                report.add("mu_quad", (i, j, k, l), _scalar(hr, hi, (av or 1) * (bv or 1) * (cv or 1)))


def _nu_equations(labels, d: dict, eps: Optional[Scalar], report: MembershipReport):
    er, ei, ed = PP_ZERO.h if eps is None else ProjPoint.finite(eps).h
    for i, j in itertools.combinations(labels, 2):
        # nu_ij + nu_ji = eps: x1 y2 e2 + y1 x2 e2 = e1 x2 y2
        xr, xi, xv = d[i, j]
        yr, yi, yv = d[j, i]
        w = xv * yv
        hr = (xr * yv + yr * xv) * ed - er * w
        hi = (xi * yv + yi * xv) * ed - ei * w
        if hr or hi:
            report.add("nu_antisym", (i, j), _scalar(hr, hi, (xv or 1) * (yv or 1) * ed))
    for i, j, k in itertools.permutations(labels, 3):
        # eps z + x y = z y + x z at (x, y, z) = (nu_ij, nu_jk, nu_ik):
        # H = z1 (e1 x2 y2 - e2 (y1 x2 + x1 y2)) + e2 x1 y1 z2
        xr, xi, xv = d[i, j]
        yr, yi, yv = d[j, k]
        zr, zi, zv = d[i, k]
        w = xv * yv
        wr = er * w - (yr * xv + xr * yv) * ed
        wi = ei * w - (yi * xv + xi * yv) * ed
        s = zv * ed
        hr = zr * wr - zi * wi + (xr * yr - xi * yi) * s
        hi = zr * wi + zi * wr + (xr * yi + xi * yr) * s
        if hr or hi:
            report.add("nu_triangle", (i, j, k), _scalar(hr, hi, (xv or 1) * (yv or 1) * (zv or 1) * ed))


def check_membership(spec: VarietySpec, point) -> MembershipReport:
    """Evaluate every defining polynomial of the family at the point, over its own labels."""
    report = MembershipReport(spec)
    tag = spec.tag
    shape = QTuple if "MauWoodward" in tag else MuTuple if tag == "DeligneMumford" else NuTuple
    if not isinstance(point, shape):
        raise ValueError(f"a {tag} point is a {shape.__name__}, not a {type(point).__name__}")
    labels = point.labels if shape is MuTuple else tuple(range(1, point.n + 1))
    if len(labels) != spec.n:
        raise ValueError(f"a {tag}(n={spec.n}) check got a point on {len(labels)} labels")
    if tag == "LosevManin":
        d = dict(point.nu)
        one = PP_ONE.h
        _products(report, "alpha_reciprocal",
                  (((i, j), d[i, j], d[j, i], one) for i, j in itertools.combinations(labels, 2)))
        _products(report, "alpha_transitive", (((i, j, k), d[i, j], d[j, k], d[i, k])
                                               for i, j, k in itertools.permutations(labels, 3)))
        return report
    if tag in ("Flower", "DeformedFlower"):
        eps = point.epsilon if tag == "DeformedFlower" else None
        _nu_equations(labels, dict(point.nu), eps, report)
        return report
    if tag == "DeligneMumford":
        _mu_equations(labels, dict(point.mu), report, quad_style="dm")
        return report
    if tag in ("MauWoodward", "DeformedMauWoodward"):
        eps = point.epsilon if tag == "DeformedMauWoodward" else None
        nud, mud = dict(point.nu.nu), dict(point.mu.mu)
        _nu_equations(labels, nud, eps, report)
        _mu_equations(labels, mud, report, quad_style="mw")
        # the link m_ijk nu_ik = nu_ij
        _products(report, "mu_nu_link", (((i, j, k), mud[i, j, k], nud[i, k], nud[i, j])
                                         for i, j, k in itertools.permutations(labels, 3)))
        return report
    raise ValueError(tag)


# ---------------------------------------------------------------------------
# strata


def classify_strata(point: NuTuple):
    """For a flower-space member, read off the two stratification partitions.

    S: i ~ j iff delta_ij != infinity (equivalently nu_ij != 0);
    B: i ~ j iff delta_ij = 0 (equivalently nu_ij = infinity).

    Returns (S, B, (dim_S, dim_B)) with dim_S = n - m and
    dim_B = n - 1 - r + p, the dimensions of the corresponding strata of the
    cactus-flower space (m, r = numbers of parts, p = singleton parts of B).
    B always refines S for members.
    """
    if not isinstance(point, NuTuple):
        raise ValueError(f"strata classification is for a NuTuple, not a {type(point).__name__}")
    if point.epsilon not in (None, ZERO):
        raise ValueError("strata classification is for the epsilon = 0 fibre")
    rep = check_membership(VarietySpec("Flower", point.n), point)
    if not rep.ok:
        raise NotAMember(f"not a flower-space member:\n{rep}")
    n = point.n
    finite, infinite = [], []  # the pairs i < j with nu_ij != 0, and with nu_ij = infinity
    for ij, (ur, ui, v) in point.nu:
        if ij[0] < ij[1]:
            if ur or ui:
                finite.append(ij)
            if not v:
                infinite.append(ij)
    s_part, b_part = partition_closure(n, finite), partition_closure(n, infinite)
    # a closure is its relation exactly when it relates no more pairs; for
    # members the relations are genuine equivalences
    if (sum(len(b) * (len(b) - 1) for b in s_part) != 2 * len(finite)
            or sum(len(b) * (len(b) - 1) for b in b_part) != 2 * len(infinite)):
        d = point.as_dict()
        for i, j in itertools.combinations(range(1, n + 1), 2):
            if s_part.same_block(i, j) != (not d[(i, j)].is_zero()):
                raise InvariantViolation(f"finiteness relation not transitive at {(i, j)}")
            if b_part.same_block(i, j) != d[(i, j)].is_infinite():
                raise InvariantViolation(f"vanishing relation not transitive at {(i, j)}")
    if not refines(b_part, s_part):
        raise InvariantViolation("vanishing partition does not refine finiteness partition")
    m, r = len(s_part), len(b_part)
    p = sum(1 for b in b_part if len(b) == 1)
    return s_part, b_part, (n - m, n - 1 - r + p)


def open_cover_membership(s_part: SetPartition, point: NuTuple) -> bool:
    """Membership of the affine chart attached to a set partition: nu != inf
    across parts and nu not in {0, eps} within parts."""
    zero_or_eps = (PP_ZERO.h, ProjPoint.finite(point.epsilon or ZERO).h)
    for (i, j), h in point.nu:
        if s_part.same_block(i, j):
            if h in zero_or_eps:
                return False
        elif not h[2]:  # infinity
            return False
    return True


def natural_chart(point: NuTuple) -> SetPartition:
    """The set partition whose chart contains the point: i ~ j iff
    nu_ij is not 0 or eps."""
    zero_or_eps = (PP_ZERO.h, ProjPoint.finite(point.epsilon or ZERO).h)
    return partition_closure(point.n, [(i, j) for (i, j), h in point.nu if i < j and h not in zero_or_eps])


def chart_membership(tau: PlanarForest, mus: Dict[frozenset, MuTuple]) -> list:
    """The tree-chart inequality check: classify each triple by comparing the
    meets of (i,k) and (i,j) in the tree, and demand

        above  -> mu_ijk not in {1, inf}
        equal  -> mu_ijk not in {0, inf}
        below  -> mu_ijk not in {0, 1}

    Returns the list of violations (empty means the point lies in the chart).
    """
    zero, one, inf = PP_ZERO.h, PP_ONE.h, PP_INF.h
    excluded = {"above": (one, inf), "equal": (zero, inf), "below": (zero, one)}
    bad, meet = [], _meets(tau)  # one walk of tau for every triple
    for part, mu in mus.items():
        table = lookup_table(mu, mu.mu)
        for (i, j, k) in ordered_triples(part):
            # a meet above another, nearer the leaves, has fewer leaves
            v_ik, v_ij, h = meet(i, k), meet(i, j), table[i, j, k]
            case = "above" if v_ik < v_ij else "equal" if v_ik == v_ij else "below"
            if h in excluded[case]:
                bad.append((case, (i, j, k), _point(h)))
    return bad


# ---------------------------------------------------------------------------
# the extension solver for chart products


def extend_nu(
    s_part: SetPartition,
    block_tuples: Dict[frozenset, NuTuple],
    core: NuTuple,
    eps: Scalar,
) -> NuTuple:
    """Complete a chart product to a full nu-tuple.

    block_tuples maps each part of the partition to a nu-tuple on that part's
    labels (relabelled 1..|part| in sorted order); core is a nu-tuple on the
    m part representatives (the minima, relabelled 1..m in sorted order).
    Every missing cross coordinate has exactly one consistent value, obtained
    by composing triangles through the representatives:
    nu_ab = nu_{a,r(a)} o nu_{r(a),r(b)} o nu_{r(b),b}.  Only the a < b half
    is composed; NuTuple supplies nu_ba = eps - nu_ab.
    """
    eps = canon_scalar(eps)
    parts = sorted(s_part.blocks, key=min)
    reps = [min(b) for b in parts]
    rep = {a: r for r, b in zip(reps, parts) for a in b}
    nu: Dict[Tuple[int, int], ProjPoint] = {}

    for b in parts:
        labels = sorted(b)
        bt = block_tuples[frozenset(b)]
        for (x, y) in ordered_pairs(range(1, len(labels) + 1)):
            nu[(labels[x - 1], labels[y - 1])] = bt[(x, y)]
    for (x, y) in ordered_pairs(range(1, len(reps) + 1)):
        nu[(reps[x - 1], reps[y - 1])] = core[(x, y)]

    via: Dict[Tuple[int, int], ProjPoint] = {}  # nu_{r(a),b}, shared by a's part
    for a, b in itertools.combinations(sorted(rep), 2):
        if (a, b) in nu:  # inside one part, or between representatives
            continue
        ra, rb = rep[a], rep[b]
        p = via.get((ra, b))
        if p is None:
            p = via[(ra, b)] = nu[(ra, b)] if b == rb else compose_nu(nu[(ra, rb)], nu[(rb, b)], eps)
        nu[(a, b)] = p if a == ra else compose_nu(nu[(a, ra)], p, eps)
    return NuTuple(len(rep), nu, eps)


# ---------------------------------------------------------------------------
# isomorphisms, group scheme, cross ratios


def losev_manin_iso(point: NuTuple) -> AlphaTuple:
    """alpha_ij = 1 - eps*delta_ij = (nu_ij - eps)/nu_ij, for eps != 0."""
    eps = point.epsilon
    if eps is None or eps == 0:
        raise ValueError("the multiplicative chart needs epsilon != 0")
    # nu_ij = X/x and eps = E/e: alpha_ij = (X e - E x : X e), and infinity
    # (1 : 0) goes to 1
    e, ((er, ei),) = _gaussian_ints([eps])
    alpha = []
    for ij, (xr, xi, x) in point.nu:
        alpha.append((ij, _triple(xr * e - er * x, xi * e - ei * x, xr * e, xi * e) if x else PP_ONE.h))
    return NuTuple._trusted(point.n, tuple(alpha), None)


def losev_manin_iso_inverse(alpha: AlphaTuple, eps: Scalar) -> NuTuple:
    eps = canon_scalar(eps)
    if eps == 0:
        raise ValueError("the multiplicative chart needs epsilon != 0")
    nu = {}
    for (i, j), a in alpha.as_dict().items():
        nu[(i, j)] = ProjPoint(a.v * eps, a.v - a.u)
    return NuTuple(alpha.n, nu, eps)


def g_mul(x1: Scalar, x2: Scalar, eps: Scalar) -> Scalar:
    """The deformed addition x1 + x2 - eps*x1*x2 (addition at eps = 0,
    conjugate to multiplication via x -> 1 - eps*x otherwise)."""
    for x in (x1, x2):
        if 1 - eps * x == 0:
            raise ValueError("1 - eps*x must not vanish")
    return canon_scalar(x1 + x2 - eps * x1 * x2)


def g_inv(x: Scalar, eps: Scalar) -> Scalar:
    if 1 - eps * x == 0:
        raise ValueError("1 - eps*x must not vanish")
    return canon_scalar(-x / (1 - eps * x))


def g_sigma(x: Scalar, eps: Scalar) -> tuple[Scalar, Scalar]:
    """The twisting involution (x, eps) -> (x/(1 + x*eps), -eps)."""
    if 1 + x * eps == 0:
        raise ValueError("1 + x*eps must not vanish")
    return canon_scalar(x / (1 + x * eps)), canon_scalar(-eps)


def orbit_map(xs: Dict[int, Scalar], eps: Scalar) -> NuTuple:
    """nu_ij = (1 - eps*x_j)/(x_i - x_j) for a configuration of distinct
    group-scheme points; the image is a chart member and is invariant under
    the diagonal group action."""
    eps = canon_scalar(eps)
    labels = sorted(xs)
    # x_i = X_i/d and eps = E/d: nu_ij = (d^2 - E X_j : d (X_i - X_j))
    d, ((er, ei), *zs) = _gaussian_ints([eps] + [xs[i] for i in labels])
    dd = d * d
    top = [(dd - er * xr + ei * xi, -er * xi - ei * xr) for xr, xi in zs]
    for i, (tr, ti) in zip(labels, top):
        if not (tr or ti):
            raise ValueError(f"1 - eps*x_{i} = 0")
    diff = _differences(zs)
    for a, b in itertools.combinations(range(len(labels)), 2):
        if not any(diff[a][b]):
            raise ValueError(f"coincident points x_{labels[a]} = x_{labels[b]}")
    n = len(labels)
    nu = [
        _triple(*top[b], d * dr, d * di)
        for a in range(n)
        for b, (dr, di) in enumerate(diff[a])
        if a != b
    ]
    return NuTuple._trusted(n, tuple(zip(ordered_pairs(range(1, n + 1)), nu)), eps)


def cross_ratios(zs: Dict[int, Scalar], distinguished: Optional[int] = None) -> MuTuple:
    """mu_ijk = (z_i - z_k)(z_l - z_j) / ((z_i - z_j)(z_l - z_k)) with l the
    distinguished label; distinguished None places the extra point at
    infinity, reducing to (z_i - z_k)/(z_i - z_j)."""
    labels = sorted(k for k in zs if k != distinguished)
    values = [zs[k] for k in labels]
    if distinguished is not None:
        values.append(zs[distinguished])
    # the common denominator cancels from every ratio of differences
    diff = _differences(_gaussian_ints(values)[1])
    triples = list(itertools.permutations(range(len(labels)), 3))
    if distinguished is None:
        mu = [_triple(*diff[i][k], *diff[i][j]) for i, j, k in triples]
    else:
        to_l = diff[-1]  # z_l - z_j
        mu = []
        for i, j, k in triples:
            (ar, ai), (br, bi) = diff[i][k], to_l[j]
            (cr, ci), (dr, di) = diff[i][j], to_l[k]
            mu.append(_triple(ar * br - ai * bi, ar * bi + ai * br,
                              cr * dr - ci * di, cr * di + ci * dr))
    return MuTuple._trusted(tuple(labels), tuple(zip(ordered_triples(labels), mu)))


def collapse_to_LM(mu: MuTuple, n: int) -> AlphaTuple:
    """The caterpillar collapse: alpha_ij = mu_{n+1, i, j} on labels [n]."""
    d = mu.as_dict()
    alpha = {(i, j): d[(n + 1, i, j)] for (i, j) in ordered_pairs(range(1, n + 1))}
    return AlphaTuple(n, alpha, None)


def eps_family_delta(us: Dict[int, Scalar], y: Scalar, eps: Scalar) -> NuTuple:
    """delta_ij = (u_i - u_j)/(y + eps*u_i): the line-bundle family chart."""
    eps, y = canon_scalar(eps), canon_scalar(y)
    labels = sorted(us)
    # u_i = U_i/d, y = Y/d and eps = E/d: nu_ij = (Y d + E U_i : d (U_i - U_j))
    d, ((er, ei), (yr, yi), *zs) = _gaussian_ints([eps, y] + [us[i] for i in labels])
    top = [(yr * d + er * ur - ei * ui, yi * d + er * ui + ei * ur) for ur, ui in zs]
    for i, (tr, ti) in zip(labels, top):
        if not (tr or ti):
            raise ValueError(f"y + eps*u_{i} = 0")
    n = len(labels)
    nu = [
        _triple(*top[a], d * dr, d * di)
        for a, row in enumerate(_differences(zs))
        for b, (dr, di) in enumerate(row)
        if a != b
    ]
    return NuTuple._trusted(n, tuple(zip(ordered_pairs(range(1, n + 1)), nu)), eps)


# ---------------------------------------------------------------------------
# involutions


def sigma_flower(point: NuTuple) -> NuTuple:
    """(nu, eps) -> (nu - eps, -eps); the identity on the eps = 0 fibre."""
    eps = point.epsilon if point.epsilon is not None else ZERO
    nu = {ij: pp_sub_scalar(p, eps) for ij, p in point.as_dict().items()}
    new_eps = None if point.epsilon is None else canon_scalar(-eps)
    return NuTuple(point.n, nu, new_eps)


def sigma_mau_woodward(point: QTuple) -> QTuple:
    """nu_ij -> nu_ij - eps and mu_ijk -> mu_ijk * (1 - eps/nu_kj)."""
    eps = point.epsilon if point.epsilon is not None else ZERO
    nud = point.nu.as_dict()
    new_nu = {ij: pp_sub_scalar(p, eps) for ij, p in nud.items()}
    new_mu = {}
    for (i, j, k), m in point.mu.as_dict().items():
        nkj = nud[(k, j)]
        q = ProjPoint(m.u * (nkj.u - eps * nkj.v), m.v * nkj.u)
        new_mu[(i, j, k)] = q
    new_eps = None if point.epsilon is None else canon_scalar(-eps)
    return QTuple(point.n, NuTuple(point.n, new_nu, new_eps), MuTuple(point.mu.labels, new_mu), new_eps)


def sigma_dm(mu: MuTuple, n: int) -> MuTuple:
    """The marked-point swap z_0 <-> z_{n+1} on the moduli of n+2 points:
    mu_ijk -> mu_ijk * mu_{n+1,k,j} on triples inside [n], and transposition
    of the two non-distinguished indices on triples containing n+1."""
    d = mu.as_dict()
    top = n + 1
    out = {}
    for (i, j, k) in d:
        if top not in (i, j, k):
            out[(i, j, k)] = pp_mul(d[(i, j, k)], d[(top, k, j)])
        elif i == top:
            out[(i, j, k)] = d[(top, k, j)]
        elif j == top:
            out[(i, j, k)] = d[(k, top, i)]
        else:
            out[(i, j, k)] = d[(j, i, top)]
    return MuTuple(mu.labels, out)


def involution_sigma(tag: str, point):
    if tag in ("Flower", "DeformedFlower"):
        return sigma_flower(point)
    if tag in ("MauWoodward", "DeformedMauWoodward"):
        return sigma_mau_woodward(point)
    if tag == "DeligneMumford":
        return sigma_dm(point, len(point.labels) - 1)
    raise ValueError(f"no involution for {tag!r}")


# ---------------------------------------------------------------------------
# the generic-fibre identification


def dm_to_q_identification(mu: MuTuple, eps: Scalar) -> QTuple:
    """Turn a moduli point on labels [n+1] into a deformed Mau-Woodward point
    on [n] via nu_ij = eps * mu_{i,j,n+1}, for eps != 0."""
    eps = canon_scalar(eps)
    if eps == 0:
        raise ValueError("identification needs epsilon != 0")
    labels = mu.labels
    n = len(labels) - 1
    top = n + 1
    if labels != tuple(range(1, n + 2)):
        raise ValueError("expected labels [n+1]")
    d = mu.as_dict()
    nu = {}
    for (i, j) in ordered_pairs(range(1, n + 1)):
        m = d[(i, j, top)]
        nu[(i, j)] = ProjPoint(eps * m.u, m.v)
    sub = {t: d[t] for t in ordered_triples(range(1, n + 1))}
    return QTuple(n, NuTuple(n, nu, eps), MuTuple(range(1, n + 1), sub), eps)


def q_to_dm_identification(q: QTuple) -> MuTuple:
    """Inverse of dm_to_q_identification (exact)."""
    eps = q.epsilon
    if eps is None or eps == 0:
        raise ValueError("identification needs epsilon != 0")
    n = q.n
    top = n + 1
    nud, mud = q.nu.as_dict(), q.mu.as_dict()
    out = dict(mud)
    for (i, j) in ordered_pairs(range(1, n + 1)):
        p = nud[(i, j)]
        out[(i, j, top)] = ProjPoint(p.u, eps * p.v)
        out[(i, top, j)] = ProjPoint(eps * p.v, p.u)
        # mu_{top,i,j} = 1 - mu_{i,top,j} = 1 - eps/nu_ij = (nu_ij - eps)/nu_ij
        out[(top, i, j)] = ProjPoint(p.u - eps * p.v, p.u)
    return MuTuple(range(1, n + 2), out)


# ---------------------------------------------------------------------------
# JSON interchange


def point_to_json(point) -> str:
    if isinstance(point, MuTuple):
        n = len(point.labels)
        if n < 3 and point.labels != tuple(range(1, n + 1)):  # no triple names these labels
            raise ValueError(f"mu on labels {list(point.labels)} has no triples; "
                             f"a file holds it on the labels 1..{n} only")
        d, blocks = {"n": n}, {"mu": point.mu}
    elif isinstance(point, (NuTuple, QTuple)):
        d = {"n": point.n, "epsilon": None if point.epsilon is None else format_scalar(point.epsilon)}
        blocks = {"nu": point.nu} if isinstance(point, NuTuple) else {"nu": point.nu.nu, "mu": point.mu.mu}
    else:
        raise TypeError(type(point))
    for name, coords in blocks.items():  # (u : v) is (x : 1), or (1 : 0) at infinity
        d[name] = {",".join(map(str, index)): [format_scalar(_scalar(*h)), "1"] if h[2] else ["1", "0"]
                   for index, h in coords}
    return json.dumps(d, sort_keys=True)


def _json_points(d: dict, name: str, arity: int) -> dict:
    """The points of d[name], each written "i,j": [u, v] (arity 2) or
    "i,j,k": [u, v] (arity 3) with scalar strings u and v; a ValueError
    names the coordinate it could not read."""
    if type(d[name]) is not dict:
        raise ValueError(f"{name} must be an object, not {json.dumps(d[name])}")
    points = {}
    for key, pair in d[name].items():
        try:
            index = tuple(map(int, key.split(",")))
            if len(index) != arity:
                raise ValueError(f"a {name} index has {arity} labels")
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"a point is a pair [u, v] of scalar strings, not {json.dumps(pair)}")
            points[index] = ProjPoint(parse_scalar(pair[0]), parse_scalar(pair[1]))
        except ValueError as exc:
            raise ValueError(f"{name} {key}: {exc}") from None
    return points


def _json_object(text: str, **fields) -> dict:
    """The JSON object in text; a ValueError names a field that is missing
    or not of its type (int, str, list or dict, as json.loads builds them)."""
    d = json.loads(text)
    if type(d) is not dict:
        raise ValueError(f"the file must hold a JSON object, not {json.dumps(d)}")
    for name, kind in fields.items():
        if type(d.get(name)) is not kind:
            what = {int: "an integer", str: "a string", list: "an array", dict: "an object"}[kind]
            raise ValueError(f"{name} must be {what}, not {json.dumps(d.get(name))}")
    return d


def point_from_json(text: str):
    d = _json_object(text, n=int)
    n = d["n"]
    if "nu" not in d and "mu" not in d:
        raise ValueError("a point file holds nu, mu or both")
    eps = parse_scalar(d["epsilon"]) if d.get("epsilon") else None
    nu = NuTuple(n, _json_points(d, "nu", 2), eps) if "nu" in d else None
    if "mu" not in d:
        return nu
    points = _json_points(d, "mu", 3)
    labels = {label for index in points for label in index}
    if not points and n < 3:  # no triple names the labels; point_to_json writes only 1..n
        labels = range(1, n + 1)
    mu = MuTuple(labels, points)
    if nu is not None:
        return QTuple(n, nu, mu, eps)
    if len(mu.labels) != n:
        raise ValueError(f"n is {n}, but mu has {len(mu.labels)} labels")
    return mu
