import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from cactusflower.acceptance import _random_member
from cactusflower.combinatorics import SetPartition, refines
from cactusflower.forests import (
    NoMeetError,
    PlanarForest,
    collapse_all,
    enumerate_planar_forests,
    leaves,
    meet,
    random_binary_tree,
)
from cactusflower.projective import (
    InvariantViolation,
    MembershipReport,
    MuTuple,
    NuTuple,
    PP_INF,
    PP_ONE,
    PP_ZERO,
    ProjPoint,
    QTuple,
    VarietySpec,
    chart_membership,
    check_membership,
    classify_strata,
    collapse_to_LM,
    compose_nu,
    cross_ratios,
    dm_to_q_identification,
    eps_family_delta,
    extend_nu,
    g_inv,
    g_mul,
    g_sigma,
    involution_sigma,
    losev_manin_iso,
    losev_manin_iso_inverse,
    natural_chart,
    open_cover_membership,
    orbit_map,
    ordered_pairs,
    ordered_triples,
    point_from_json,
    point_to_json,
    pp_mul,
    q_to_dm_identification,
    sigma_dm,
    sigma_flower,
    sigma_mau_woodward,
)
from cactusflower.projective import _int_point, _triple
from cactusflower.realgeometry import CubePoint, StarPoint, theta, theta_star
from cactusflower.scalars import ONE, ZERO, GaussianRational, I, canon_scalar, format_scalar


def q_member(xs, eps, n):
    nut = orbit_map(xs, eps)
    if eps == 0:
        mu = cross_ratios(xs, None)
    else:
        special = max(xs) + 1
        zs = dict(xs)
        zs[special] = 1 / eps
        full = cross_ratios(zs, special)
        mu = MuTuple(sorted(xs), {t: full[t] for t in ordered_triples(sorted(xs))})
    return QTuple(n, nut, mu, eps)


def test_projpoint_canonical():
    assert ProjPoint(F(2), F(4)) == ProjPoint(F(1), F(2))
    assert ProjPoint(5, 0) == PP_INF
    assert ProjPoint(3, 1).reciprocal() == ProjPoint(1, 3)
    with pytest.raises(ValueError):
        ProjPoint(0, 0)


def test_tuple_lookup_leaves_identity_alone():
    q = q_member({1: F(0), 2: F(1), 3: F(3), 4: F(7)}, F(0), 4)
    nu_twin = NuTuple(q.nu.n, q.nu.as_dict(), q.nu.epsilon)
    mu_twin = MuTuple(q.mu.labels, q.mu.as_dict())
    for tup, twin, key in ((q.nu, nu_twin, (2, 1)), (q.mu, mu_twin, (1, 3, 4))):
        assert tup[key] == tup.as_dict()[key]
        # the lookup table built by tup[...] is not a field
        assert tup == twin and hash(tup) == hash(twin) and repr(tup) == repr(twin)


def test_flower_membership_examples():
    spec = VarietySpec("Flower", 3)
    all_deltas_zero = NuTuple(3, {(i, j): PP_INF for (i, j) in [(1, 2), (1, 3), (2, 3)]})
    assert check_membership(spec, all_deltas_zero).ok
    all_deltas_inf = NuTuple(3, {(i, j): PP_ZERO for (i, j) in [(1, 2), (1, 3), (2, 3)]})
    assert check_membership(spec, all_deltas_inf).ok
    # delta_12 = 1, delta_23 = delta_13 = infinity
    mixed = NuTuple(3, {(1, 2): PP_ONE, (2, 3): PP_ZERO, (1, 3): PP_ZERO})
    assert check_membership(spec, mixed).ok
    # and a non-member: delta_12 = 1, delta_23 = 1, delta_13 = 3 breaks the triangle
    bad = NuTuple(3, {(1, 2): PP_ONE, (2, 3): PP_ONE, (1, 3): ProjPoint(1, 3)})
    rep = check_membership(spec, bad)
    assert not rep.ok and any(v[0] == "nu_triangle" for v in rep.violations)


def test_membership_reads_the_index_set_from_the_point():
    # a spec of another size is refused, not checked on a subset of the labels
    xs = {k: F(k * k, 3) for k in range(1, 10)}
    broken = orbit_map(xs, F(0)).as_dict()
    broken[(7, 9)] = ProjPoint.finite(F(5))
    with pytest.raises(ValueError, match=r"a Flower\(n=4\) check got a point on 9 labels"):
        check_membership(VarietySpec("Flower", 4), NuTuple(9, broken))
    mu = cross_ratios({2: F(0), 4: F(1), 5: F(3), 9: F(7)})
    assert check_membership(VarietySpec("DeligneMumford", 4), mu).ok
    with pytest.raises(ValueError, match=r"a DeligneMumford\(n=5\) check got a point on 4 labels"):
        check_membership(VarietySpec("DeligneMumford", 5), mu)
    q = q_member({1: F(0), 2: F(1), 3: F(5)}, F(0), 3)
    with pytest.raises(ValueError, match=r"a MauWoodward\(n=4\) check got a point on 3 labels"):
        check_membership(VarietySpec("MauWoodward", 4), q)
    # a joint tuple holds nu and mu on the same labels 1..n
    for nu, mu in ((q.nu, MuTuple((1, 2, 4), {t: PP_ONE for t in ordered_triples((1, 2, 4))})),
                   (orbit_map({1: F(0), 2: F(1)}, F(0)), q.mu)):
        with pytest.raises(ValueError, match=r"a joint tuple on \[3\] has nu on \[\d\] and mu on \[1, 2, \d\]"):
            QTuple(3, nu, mu, F(0))


def test_q3_example():
    q = q_member({1: F(0), 2: F(1), 3: F(5)}, F(0), 3)
    rep = check_membership(VarietySpec("MauWoodward", 3), q)
    assert rep.ok
    # mu*b = c and a(mu-1) = c in the named coordinates
    a, b, c = q.nu[(2, 3)], q.nu[(1, 3)], q.nu[(1, 2)]
    mu = q.mu[(1, 2, 3)]
    assert mu.u * b.u * c.v == c.u * mu.v * b.v
    lhs = a.u * (mu.u - mu.v)
    assert lhs * c.v == c.u * a.v * mu.v


def test_homogenization_soundness():
    # at all-finite points on three or four labels, check_membership names
    # exactly the relations that fail in affine arithmetic, each with its
    # affine difference as the residual
    rng = random.Random(5)
    values = [F(v, q) for v in range(-2, 3) for q in (1, 2)]  # small, so that some relations hold
    held = failed = 0
    for _ in range(150):
        n, eps = rng.choice((3, 4)), rng.choice((F(0), F(1), F(-1, 2)))
        labels = range(1, n + 1)
        nu = {ij: rng.choice(values) for ij in ordered_pairs(labels)}
        mu = {t: rng.choice(values) for t in ordered_triples(labels)}
        nut = NuTuple(n, {ij: ProjPoint.finite(v) for ij, v in nu.items()}, eps)
        mut = MuTuple(labels, {t: ProjPoint.finite(v) for t, v in mu.items()})
        alpha = {
            **{("alpha_reciprocal", (i, j)): nu[i, j] * nu[j, i] - 1 for i, j in itertools.combinations(labels, 2)},
            **{("alpha_transitive", (i, j, k)): nu[i, j] * nu[j, k] - nu[i, k]
               for i, j, k in itertools.permutations(labels, 3)},
        }

        def flower(e):
            out = {("nu_antisym", (i, j)): nu[i, j] + nu[j, i] - e for i, j in itertools.combinations(labels, 2)}
            for i, j, k in itertools.permutations(labels, 3):
                x, y, z = nu[i, j], nu[j, k], nu[i, k]
                out["nu_triangle", (i, j, k)] = e * z + x * y - z * y - x * z
            return out

        def moduli(style):
            out = {}
            for t in itertools.combinations(labels, 3):
                for a, b, c in itertools.permutations(t):
                    out["mu_reciprocal", (a, b, c)] = mu[a, b, c] * mu[a, c, b] - 1
                    out["mu_sum", (a, b, c)] = mu[a, b, c] + mu[b, a, c] - 1
            for i, j, k, l in itertools.permutations(labels, 4):
                b, c = (mu[i, l, j], mu[i, l, k]) if style == "dm" else (mu[i, k, l], mu[i, j, l])
                out["mu_quad", (i, j, k, l)] = mu[i, j, k] * b - c
            return out

        link = {("mu_nu_link", (i, j, k)): mu[i, j, k] * nu[i, k] - nu[i, j]
                for i, j, k in itertools.permutations(labels, 3)}
        cases = [
            ("LosevManin", nut, alpha),
            ("Flower", nut, flower(0)),
            ("DeformedFlower", nut, flower(eps)),
            ("DeligneMumford", mut, moduli("dm")),
            ("MauWoodward", QTuple(n, nut, mut, eps), {**flower(0), **moduli("mw"), **link}),
            ("DeformedMauWoodward", QTuple(n, nut, mut, eps), {**flower(eps), **moduli("mw"), **link}),
        ]
        for tag, point, affine in cases:
            got = {(name, idx): r for name, idx, r in check_membership(VarietySpec(tag, n), point).violations}
            assert got == {key: r for key, r in affine.items() if r}, (tag, point)
            held, failed = held + len(affine) - len(got), failed + len(got)
    assert held > 1000 and failed > 1000


def _sample_scalar(rng):
    x = F(rng.randrange(-9, 10), rng.randrange(1, 5))
    if rng.random() < 0.5:
        return x
    return GaussianRational(x, F(rng.randrange(-9, 10), rng.randrange(1, 5)))


def _assert_canonical(p):
    assert type(p.v) is F and (p.v == ONE or (p.v == ZERO and p.u == ONE)), repr(p)


def _canonical_scaling_pool():
    """Points made every way a point can be made, on seeded scalars."""
    rng = random.Random(8)
    for _ in range(300):
        x, y, eps = (_sample_scalar(rng) for _ in range(3))
        u, v = (rng.choice((x, F(0))), rng.choice((y, F(0), F(1))))
        if u == 0 and v == 0:
            continue
        p, q = ProjPoint(u, v), ProjPoint.finite(y)
        made = [p, q, PP_INF, p.reciprocal(), p.conj(), q.conj()]
        for binary in (lambda: pp_mul(p, q), lambda: compose_nu(p, q, eps)):
            try:
                made.append(binary())
            except (ValueError, InvariantViolation):
                pass  # 0 * infinity, or a (0 : 0) completion
        yield from made


def test_projpoints_are_canonically_scaled():
    # the equation evaluators' integer form reads v as 1 or 0, so every way
    # of making a point must scale it that way
    for point in _canonical_scaling_pool():
        _assert_canonical(point)
        # the stored triple is the canonical one, so equal points share it
        ur, ui, d = point.h
        assert d >= 0 and math.gcd(ur, ui, d) == 1, point.h
        assert (point.h == (1, 0, 0)) == point.is_infinite()
        twin = ProjPoint(point.u, point.v)
        assert twin.h == point.h and hash(twin) == hash(point)


def test_int_point_is_the_constructor_on_gaussian_integers():
    # negative and non-real second parts: the sign and the conjugate move
    # onto the first part before the gcd is taken
    rng = random.Random(26)
    for _ in range(400):
        ur, ui = rng.randrange(-30, 31), rng.choice((0, rng.randrange(-30, 31)))
        vr = rng.randrange(-30, 1)
        vi = rng.choice((0, rng.randrange(-30, 31)))
        if not (ur or ui or vr or vi):
            continue
        u = canon_scalar(GaussianRational(F(ur), F(ui)))
        v = canon_scalar(GaussianRational(F(vr), F(vi)))
        p, q = _int_point(ur, ui, vr, vi), ProjPoint(u, v)
        assert p == q and p.h == q.h == _triple(ur, ui, vr, vi) and hash(p) == hash(q)
        assert p.h[2] >= 0 and math.gcd(*p.h) == 1
        assert p.is_infinite() if v == 0 else p.u == u / v


def test_hom_round_trips_the_canonical_pool():
    # the membership kernels read a point's triple (ur, ui, v) as the
    # homogeneous pair (ur + i ui : v): v = 0 only at infinity (1, 0, 0), and
    # a finite point's v is the least common denominator of its parts
    for point in _canonical_scaling_pool():
        ur, ui, v = point.h
        assert all(type(x) is int for x in (ur, ui, v)), point
        assert ProjPoint(GaussianRational(F(ur), F(ui)), F(v)) == point
        if point.is_infinite():
            assert (ur, ui, v) == (1, 0, 0)
        else:
            assert v > 0 and math.gcd(ur, ui, v) == 1
            assert point.u == GaussianRational(F(ur, v), F(ui, v))


# The equation evaluators as they were before the integer kernel, on
# canonical points in scalar arithmetic throughout, with their branches at
# infinity.


def _ref_eq_prod(a, b, c):
    if not c.v:
        return -ONE if a.v and b.v else ZERO
    return a.u * b.u - c.u if a.v and b.v else a.u * b.u


def _ref_eq_prod_one(a, b):
    return a.u * b.u - ONE if a.v and b.v else a.u * b.u


def _ref_eq_sum_const(a, b, c):
    if a.v and b.v:
        return a.u + b.u - c
    return ONE if a.v or b.v else ZERO


def _ref_eq_triangle(x, y, z, eps):
    if x.v and y.v:
        return x.u * y.u - z.u * (x.u + y.u - eps) if z.v else eps - x.u - y.u
    if x.v:
        return x.u - z.u if z.v else -ONE
    if y.v:
        return y.u - z.u if z.v else -ONE
    return ONE if z.v else ZERO


def _perturbed(point, key, value):
    d = point.as_dict()
    d[key] = ProjPoint.finite(value)
    if isinstance(point, MuTuple):
        return MuTuple(point.labels, d)
    return NuTuple(point.n, d, point.epsilon)


def _nonmembers():
    xs = {1: F(-7, 3), 2: F(0), 3: F(5, 2), 4: F(11), 5: F(-1, 9)}
    big = F(-10**15 - 3, 7**9)
    q0, qi = q_member(xs, F(0), 5), q_member(xs, I, 5)
    return [
        ("LosevManin", _perturbed(losev_manin_iso(orbit_map(xs, F(1, 3))), (2, 4), big)),
        ("Flower", _perturbed(orbit_map(xs, F(0)), (1, 3), big)),
        ("DeformedFlower", _perturbed(orbit_map(xs, F(1)), (3, 5), F(2, 3))),
        ("DeligneMumford", _perturbed(cross_ratios(xs), (1, 2, 4), big)),
        ("MauWoodward", QTuple(5, q0.nu, _perturbed(q0.mu, (2, 3, 5), F(-4)), F(0))),
        ("DeformedMauWoodward", QTuple(5, _perturbed(qi.nu, (4, 1), big), qi.mu, I)),
    ]


def _reference_membership(spec, point, prod, prod_one, sum_const, triangle):
    """check_membership as it was before its integer kernel: the same
    equations in the same order, each evaluated by one of the given
    functions on the points, with the affine constants 1 and epsilon passed
    as scalars."""
    report, tag = MembershipReport(spec), spec.tag
    labels = point.labels if isinstance(point, MuTuple) else tuple(range(1, point.n + 1))

    def add(name, idx, r):
        if r:
            report.add(name, idx, r)

    def nu_equations(d, eps):
        for i, j in itertools.combinations(labels, 2):
            add("nu_antisym", (i, j), sum_const(d[i, j], d[j, i], eps))
        for i, j, k in itertools.permutations(labels, 3):
            add("nu_triangle", (i, j, k), triangle(d[i, j], d[j, k], d[i, k], eps))

    def mu_equations(d, style):
        for t in itertools.combinations(labels, 3):
            for a, b, c in itertools.permutations(t):
                add("mu_reciprocal", (a, b, c), prod_one(d[a, b, c], d[a, c, b]))
                add("mu_sum", (a, b, c), sum_const(d[a, b, c], d[b, a, c], ONE))
        for i, j, k, l in itertools.permutations(labels, 4):
            if style == "dm":
                add("mu_quad", (i, j, k, l), prod(d[i, j, k], d[i, l, j], d[i, l, k]))
            else:
                add("mu_quad", (i, j, k, l), prod(d[i, j, k], d[i, k, l], d[i, j, l]))

    eps = point.epsilon if tag.startswith("Deformed") and point.epsilon is not None else ZERO
    if tag == "LosevManin":
        d = point.as_dict()
        for i, j in itertools.combinations(labels, 2):
            add("alpha_reciprocal", (i, j), prod_one(d[i, j], d[j, i]))
        for i, j, k in itertools.permutations(labels, 3):
            add("alpha_transitive", (i, j, k), prod(d[i, j], d[j, k], d[i, k]))
    elif tag in ("Flower", "DeformedFlower"):
        nu_equations(point.as_dict(), eps)
    elif tag == "DeligneMumford":
        mu_equations(point.as_dict(), "dm")
    else:
        nud, mud = point.nu.as_dict(), point.mu.as_dict()
        nu_equations(nud, eps)
        mu_equations(mud, "mw")
        for i, j, k in itertools.permutations(labels, 3):
            add("mu_nu_link", (i, j, k), prod(mud[i, j, k], nud[i, k], nud[i, j]))
    return report


_REFERENCE_EVALUATORS = dict(
    prod=_ref_eq_prod, prod_one=_ref_eq_prod_one, sum_const=_ref_eq_sum_const, triangle=_ref_eq_triangle,
)
# the multihomogenized polynomials, in scalar arithmetic on (u : v)
_POLYNOMIALS = dict(
    prod=lambda a, b, c: a.u * b.u * c.v - c.u * a.v * b.v,
    prod_one=lambda a, b: a.u * b.u - a.v * b.v,
    sum_const=lambda a, b, eps: a.u * b.v + b.u * a.v - eps * a.v * b.v,
    triangle=lambda x, y, z, eps: (eps * z.u * x.v * y.v + x.u * y.u * z.v
                                   - z.u * y.u * x.v - x.u * z.u * y.v),
)


def test_residuals_match_homogenized_formulas():
    # at finite and infinite coordinates alike, including huge ones, the
    # residuals of the integer kernels must be the multihomogenized
    # polynomials' values
    pool = [PP_ZERO, PP_ONE, PP_INF, ProjPoint.finite(F(-3, 2)), ProjPoint.finite(F(5)),
            ProjPoint.finite(GaussianRational(F(1), F(2))), ProjPoint.finite(I),
            ProjPoint.finite(F(-123456789012345678901, 98765432109876543)),
            ProjPoint(F(3**41 + 2), F(-(2**67) + 1)), ProjPoint.finite(F(-1, 10**18 + 9))]
    rng = random.Random(6)
    for _ in range(200):
        n, eps = rng.choice((3, 4)), rng.choice((F(0), F(1), F(1, 3), I))
        labels = range(1, n + 1)
        nut = NuTuple(n, {ij: rng.choice(pool) for ij in ordered_pairs(labels)}, eps)
        mut = MuTuple(labels, {t: rng.choice(pool) for t in ordered_triples(labels)})
        q = QTuple(n, nut, mut, eps)
        for tag, point in (("LosevManin", nut), ("Flower", nut), ("DeformedFlower", nut),
                           ("DeligneMumford", mut), ("MauWoodward", q), ("DeformedMauWoodward", q)):
            spec = VarietySpec(tag, n)
            got = check_membership(spec, point).violations
            want = _reference_membership(spec, point, **_POLYNOMIALS).violations
            assert [v[:2] for v in got] == [v[:2] for v in want], (tag, point)
            for (_, idx, r), (_, _, w) in zip(got, want):
                assert r == w and format_scalar(r) == format_scalar(w), (tag, idx)


def test_membership_reports_match_scalar_evaluators():
    # one perturbed non-member of each family: the report, residuals
    # included, is the one the scalar evaluators give
    for tag, point in _nonmembers():
        spec = VarietySpec(tag, 5)
        rep, want = check_membership(spec, point), _reference_membership(spec, point, **_REFERENCE_EVALUATORS)
        assert not rep.ok
        assert (str(rep), repr(rep.violations)) == (str(want), repr(want.violations))


_SPECS_BY_SHAPE = {
    NuTuple: ("LosevManin", "Flower", "DeformedFlower"),
    MuTuple: ("DeligneMumford",),
    QTuple: ("MauWoodward", "DeformedMauWoodward"),
}


def _family_member(tag, xs, eps):
    """A member of the family built through its chart; a family without
    epsilon ignores it, except that the moduli points move off the real
    line with it."""
    n = len(xs)
    if tag == "LosevManin":
        return losev_manin_iso(orbit_map(xs, eps if eps != 0 else F(1)))
    if tag in ("Flower", "DeformedFlower"):
        return orbit_map(xs, eps)
    if tag == "DeligneMumford":
        return cross_ratios({k: x * (1 + eps) for k, x in xs.items()})
    return q_member(xs, eps, n)


def _with_coordinates(point, values, rng):
    """A copy of the point with rng-chosen coordinates set to the values in
    turn (the nu or the mu part of a joint tuple, by a coin)."""
    if isinstance(point, QTuple):
        if rng.random() < 0.5:
            return QTuple(point.n, _with_coordinates(point.nu, values, rng), point.mu, point.epsilon)
        return QTuple(point.n, point.nu, _with_coordinates(point.mu, values, rng), point.epsilon)
    d = point.as_dict()
    for key, value in zip(rng.sample(sorted(d), len(values)), values):
        d[key] = value
    if isinstance(point, MuTuple):
        return MuTuple(point.labels, d)
    return NuTuple(point.n, d, point.epsilon)


def _differential_points(n, rng):
    """Members of all six families at each epsilon, and copies of each with
    coordinates moved to 0, 1, infinity, a mix of those, or a Gaussian value."""
    for eps in (F(0), F(1), F(1, 3), I, GaussianRational(F(1), F(2))):
        xs = {}
        while len(xs) < n:  # clear of 1/eps, the extra point of q_member
            x = F(rng.randrange(-12, 13), rng.randrange(1, 7))
            if x not in xs.values() and x not in (1, 3):
                xs[len(xs) + 1] = x
        for tag in VarietySpec.TAGS:
            point = _family_member(tag, xs, eps)
            yield point
            for special in (PP_ZERO, PP_ONE, PP_INF):
                yield _with_coordinates(point, [special] * rng.randrange(1, 3), rng)
            yield _with_coordinates(point, [rng.choice((PP_ZERO, PP_ONE, PP_INF)) for _ in range(n)], rng)
            yield _with_coordinates(point, [ProjPoint.finite(_sample_scalar(rng))], rng)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_membership_reports_match_scalar_evaluators_differentially(n):
    # every report, violations and residuals in order, equals the one the
    # scalar references give, at members and at points with coordinates at
    # 0, 1 and infinity
    points = list(_differential_points(n, random.Random(100 + n)))
    checks = [(VarietySpec(tag, n), point) for point in points for tag in _SPECS_BY_SHAPE[type(point)]]
    got = [check_membership(spec, point) for spec, point in checks]
    assert sum(rep.ok for rep in got) >= 5 * 6 and sum(not rep.ok for rep in got) >= 5 * 6 * 4
    for (spec, point), rep in zip(checks, got):
        want = _reference_membership(spec, point, **_REFERENCE_EVALUATORS)
        assert repr(rep.violations) == repr(want.violations), (spec, point)
        assert str(rep) == str(want)


def test_classify_strata_examples():
    n = 3
    all_inf = NuTuple(3, {(i, j): PP_ZERO for (i, j) in [(1, 2), (1, 3), (2, 3)]})
    s, b, dims = classify_strata(all_inf)
    assert s == SetPartition([{1}, {2}, {3}]) and b == SetPartition([{1}, {2}, {3}])
    assert dims == (0, 2)
    all_zero = NuTuple(3, {(i, j): PP_INF for (i, j) in [(1, 2), (1, 3), (2, 3)]})
    s, b, dims = classify_strata(all_zero)
    assert s == SetPartition([{1, 2, 3}]) and b == SetPartition([{1, 2, 3}])
    assert dims == (3 - 1, 3 - 1 - 1 + 0)


def test_classify_strata_rejects_nonmembers():
    bad = NuTuple(3, {(1, 2): PP_ONE, (2, 3): PP_ONE, (1, 3): ProjPoint(1, 3)})
    with pytest.raises(ValueError):
        classify_strata(bad)


def test_strata_partition_property():
    rng = random.Random(11)
    from cactusflower.combinatorics import refines

    for _ in range(60):
        xs = {}
        while len(set(xs.values())) < 4:
            xs = {i: F(rng.randrange(-12, 13), rng.randrange(1, 5)) for i in range(1, 5)}
        point = orbit_map(xs, F(0))
        s, b, _ = classify_strata(point)
        assert refines(b, s)


def _predicate_closure(n, related):
    # the closure classify_strata used before it collected its pairs
    parts = {i: {i} for i in range(1, n + 1)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if related(i, j) and parts[i] is not parts[j]:
            merged = parts[i] | parts[j]
            for x in merged:
                parts[x] = merged
    return SetPartition({frozenset(b) for b in parts.values()})


def _ref_classify_strata(point):
    """classify_strata after its membership check, as it was: predicate
    closures, then a scan of every pair for one the closures relate but the
    relation does not."""
    n, d = point.n, point.as_dict()
    s_part = _predicate_closure(n, lambda i, j: not d[(i, j)].is_zero())
    b_part = _predicate_closure(n, lambda i, j: d[(i, j)].is_infinite())
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


def _assert_strata_match_reference(point):
    got, want = classify_strata(point), _ref_classify_strata(point)
    assert got == want and repr(got) == repr(want), point


def test_classify_strata_matches_reference_on_theta_images():
    # every forest on [n], n <= 5, once, each edge at 0, 1 or a seeded value:
    # infinite distances across trees, coincident leaves at the zeros
    rng = random.Random(41)
    for n in range(2, 6):
        for k in range(n):
            for forest in enumerate_planar_forests(n, k):
                t = {e: rng.choice((F(0), F(1), F(rng.randrange(17), 16))) for e in forest.edges()}
                image = theta(CubePoint(forest, t))
                _assert_strata_match_reference(image.nu)
                # the image's coincidence partition, read off the stored triples
                assert image.b_part() == _ref_classify_strata(image.nu)[1]


def test_classify_strata_matches_reference_on_seeded_members():
    # theta images of seeded forests on up to 8 labels, and orbit-map members
    rng = random.Random(43)
    for n in range(3, 9):
        for _ in range(30):
            labels = rng.sample(range(1, n + 1), n)
            cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
            trees = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            forest = PlanarForest([c[0] if len(c) == 1 else random_binary_tree(c, rng) for c in trees])
            t = {e: rng.choice((F(0), F(1), F(rng.randrange(17), 16))) for e in forest.edges()}
            _assert_strata_match_reference(theta(CubePoint(forest, t)).nu)
        xs = {}
        while len(set(xs.values())) < n:
            xs = {i: F(rng.randrange(-12, 13), rng.randrange(1, 5)) for i in range(1, n + 1)}
        _assert_strata_match_reference(orbit_map(xs, F(0)))


def test_classify_strata_names_the_first_intransitive_pair(monkeypatch):
    # a non-member whose relations are not equivalences, let past the
    # membership check, is refused at the pair the reference names
    import cactusflower.projective as pj

    monkeypatch.setattr(pj, "check_membership", lambda spec, point: MembershipReport(spec))
    points = [
        # nu_12, nu_23 != 0 but nu_13 = 0: finiteness is not transitive
        NuTuple(3, {(1, 2): PP_ONE, (2, 3): PP_ONE, (1, 3): PP_ZERO}),
        # nu_12 = nu_23 = infinity but nu_13 finite: vanishing is not transitive
        NuTuple(3, {(1, 2): PP_INF, (2, 3): PP_INF, (1, 3): PP_ONE}),
        # both fail first at (1, 4), where finiteness is named
        NuTuple(4, {(1, 2): PP_INF, (1, 3): PP_ZERO, (1, 4): PP_ZERO,
                    (2, 3): PP_ZERO, (2, 4): PP_INF, (3, 4): PP_ZERO}),
    ]
    for point in points:
        with pytest.raises(InvariantViolation) as want:
            _ref_classify_strata(point)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(str(want.value))}$"):
            classify_strata(point)


def test_open_cover():
    rng = random.Random(13)
    for eps in (F(0), F(1), I):
        for _ in range(40):
            xs = {}
            while len(set(xs.values())) < 4 or any(1 - eps * v == 0 for v in xs.values()):
                xs = {i: F(rng.randrange(-12, 13), rng.randrange(1, 5)) for i in range(1, 5)}
            point = orbit_map(xs, eps)
            chart = natural_chart(point)
            assert open_cover_membership(chart, point)
    # generic finite distinct distances lie in the one-petal chart
    point = orbit_map({1: F(0), 2: F(1), 3: F(3)}, F(0))
    assert natural_chart(point) == SetPartition([{1, 2, 3}])
    # the all-infinite-distance point lies in the all-singletons chart only
    all_inf = NuTuple(3, {(i, j): PP_ZERO for (i, j) in [(1, 2), (1, 3), (2, 3)]})
    assert natural_chart(all_inf) == SetPartition([{1}, {2}, {3}])
    assert open_cover_membership(SetPartition([{1}, {2}, {3}]), all_inf)
    assert not open_cover_membership(SetPartition([{1, 2, 3}]), all_inf)


def test_extend_nu_examples():
    # trivial: one part, nothing to extend
    xs = {1: F(0), 2: F(1), 3: F(4)}
    point = orbit_map(xs, F(0))
    out = extend_nu(
        SetPartition([{1, 2, 3}]), {frozenset({1, 2, 3}): point}, NuTuple(1, {}, F(0)), F(0)
    )
    assert out.nu == point.nu
    # n = 3, parts {1,2} and {3}: the completed delta satisfies the triangle
    spart = SetPartition([{1, 2}, {3}])
    blocks = {
        frozenset({1, 2}): orbit_map({1: F(0), 2: F(2)}, F(0)),
        frozenset({3}): NuTuple(1, {}, F(0)),
    }
    core = orbit_map({1: F(0), 2: F(5)}, F(0))
    full = extend_nu(spart, blocks, core, F(0))
    assert check_membership(VarietySpec("DeformedFlower", 3), full).ok
    d12, d13, d23 = full.delta(1, 2), full.delta(1, 3), full.delta(2, 3)
    assert d23.u == d13.u - d12.u  # oracle: solve in distance coordinates
    assert open_cover_membership(spart, full)
    # a random rational instance at eps = 1 passes all equations
    rng = random.Random(17)
    spart = SetPartition([{1, 3}, {2, 4}])
    blocks = {
        frozenset({1, 3}): orbit_map({1: F(0), 2: F(1, 3)}, F(1)),
        frozenset({2, 4}): orbit_map({1: F(1, 5), 2: F(2, 7)}, F(1)),
    }
    core = orbit_map({1: F(0), 2: F(4, 9)}, F(1))
    full = extend_nu(spart, blocks, core, F(1))
    assert check_membership(VarietySpec("DeformedFlower", 4), full).ok


def test_losev_manin_iso():
    point = orbit_map({1: F(0), 2: F(3), 3: F(5), 4: F(7)}, F(1))
    alpha = losev_manin_iso(point)
    assert check_membership(VarietySpec("LosevManin", 4), alpha).ok
    assert losev_manin_iso_inverse(alpha, F(1)).nu == point.nu
    # delta = 0 (nu infinite) maps to alpha = 1; delta infinite to alpha inf
    nut = NuTuple(2, {(1, 2): PP_INF}, F(1))
    assert losev_manin_iso(nut)[(1, 2)] == PP_ONE
    nut = NuTuple(2, {(1, 2): PP_ZERO}, F(1))
    assert losev_manin_iso(nut)[(1, 2)].is_infinite()
    with pytest.raises(ValueError):
        losev_manin_iso(orbit_map({1: F(0), 2: F(1)}, F(0)))


def test_group_scheme():
    assert g_mul(F(2), F(5), F(0)) == 7  # plain addition at the special fibre
    # x -> 1 - x conjugates the law to multiplication at eps = 1
    rng = random.Random(19)
    for _ in range(50):
        x1, x2 = F(rng.randrange(-5, 6), 3), F(rng.randrange(-5, 6), 3)
        if 1 - x1 == 0 or 1 - x2 == 0:
            continue
        assert (1 - x1) * (1 - x2) == 1 - g_mul(x1, x2, F(1))
        assert g_mul(x1, g_inv(x1, F(1)), F(1)) == 0
    # orbit invariance under translations
    for eps in (F(0), F(1), F(2)):
        xs = {1: F(0), 2: F(1, 3), 3: F(2), 4: F(5)}
        base = orbit_map(xs, eps)
        for _ in range(10):
            g = F(rng.randrange(-6, 7), 5)
            if 1 - eps * g == 0:
                continue
            try:
                shifted = {i: g_mul(g, x, eps) for i, x in xs.items()}
                moved = orbit_map(shifted, eps)
            except ValueError:
                continue
            assert moved.nu == base.nu


def test_group_scheme_sigma():
    # fixed on the special fibre; the twisted-real circle at eps = i
    x, eps = F(3, 7), F(0)
    assert g_sigma(x, eps) == (x, 0)
    # points with |x|^2 = 2 Im(x) satisfy conj(x) = x/(1 + i x)
    t = F(1, 3)
    a, b = 2 * t / (1 + t * t), 2 * t * t / (1 + t * t)
    x = GaussianRational(a, b)
    assert a * a + b * b == 2 * b
    sx, seps = g_sigma(x, I)
    assert sx == GaussianRational(a, -b)  # the conjugate
    assert seps == -I


def test_cross_ratios_and_relations():
    mu = cross_ratios({1: F(0), 2: F(1), 3: F(2)})
    assert mu[(1, 2, 3)] == F(2)
    rng = random.Random(23)
    for _ in range(30):
        vals = set()
        while len(vals) < 4:
            vals.add(F(rng.randrange(-9, 10), rng.randrange(1, 4)))
        zs = dict(enumerate(sorted(vals), start=1))
        mu = cross_ratios(zs)
        assert check_membership(VarietySpec("DeligneMumford", 4), mu).ok
        d = mu.as_dict()
        for (i, j, k) in ordered_triples(range(1, 5)):
            s = d[(i, j, k)]
            t = d[(j, i, k)]
            assert s.u * t.v + t.u * s.v == s.v * t.v  # mu_ijk + mu_jik = 1


def test_collapse_functoriality():
    # cross ratios of n+2 labelled points, then the caterpillar collapse,
    # equals the multiplicative pairwise ratios after sending the two
    # distinguished points to 0 and infinity
    rng = random.Random(29)
    n = 3
    for _ in range(25):
        vals = set()
        while len(vals) < n + 2:
            vals.add(F(rng.randrange(-20, 21), rng.randrange(1, 6)))
        ordered = sorted(vals)
        z0, ztop = ordered[0], ordered[-1]
        zs = {0: z0}
        for i, v in enumerate(ordered[1:], start=1):
            zs[i] = v
        mu = cross_ratios(zs, distinguished=0)
        alpha = collapse_to_LM(mu, n)
        assert check_membership(VarietySpec("LosevManin", n), alpha).ok
        xs = {i: (zs[i] - z0) / (ztop - zs[i]) for i in range(1, n + 1)}
        for (i, j) in ordered_pairs(range(1, n + 1)):
            expect = xs[i] / xs[j]
            assert alpha[(i, j)] == expect


def test_eps_family():
    nut = eps_family_delta({1: F(1), 2: F(0), 3: F(4)}, F(1), F(0))
    assert check_membership(VarietySpec("DeformedFlower", 3), nut).ok
    assert nut.delta(1, 2) == F(1)  # u_i - u_j at the special fibre
    nut = eps_family_delta({1: F(1), 2: F(0), 3: F(4)}, F(1), F(2))
    assert check_membership(VarietySpec("DeformedFlower", 3), nut).ok


def test_sigma_flower():
    point = orbit_map({1: F(0), 2: F(1), 3: F(3)}, F(0))
    assert sigma_flower(point).nu == point.nu  # identity on the special fibre
    for eps in (F(1), I, F(2)):
        pt = orbit_map({1: F(0), 2: F(1, 3), 3: F(3)}, eps)
        img = sigma_flower(pt)
        assert check_membership(VarietySpec("DeformedFlower", 3), img).ok
        assert sigma_flower(img).nu == pt.nu


def test_sigma_mau_woodward_and_dm():
    rng = random.Random(31)
    for eps in (F(0), I, F(2)):
        for _ in range(15):
            vals = set()
            while len(vals) < 4:
                v = F(rng.randrange(-9, 10), rng.randrange(1, 4))
                if 1 - eps * v != 0 and (eps == 0 or v != 1 / eps):
                    vals.add(v)
            xs = dict(enumerate(sorted(vals), start=1))
            q = q_member(xs, eps, 4)
            spec = VarietySpec("DeformedMauWoodward", 4)
            assert check_membership(spec, q).ok
            s1 = sigma_mau_woodward(q)
            assert check_membership(spec, s1).ok
            s2 = sigma_mau_woodward(s1)
            assert s2.nu.nu == q.nu.nu and s2.mu.mu == q.mu.mu
    # the marked-point swap on the moduli of five points
    zs5 = {1: F(0), 2: F(1), 3: F(3), 4: F(11), 5: F(4, 7)}
    mu5 = cross_ratios(zs5)
    spec5 = VarietySpec("DeligneMumford", 5)
    assert check_membership(spec5, mu5).ok
    sd = sigma_dm(mu5, 4)
    assert check_membership(spec5, sd).ok
    assert sigma_dm(sd, 4).mu == mu5.mu


_SIGMAS = {
    "Flower": sigma_flower,
    "DeformedFlower": sigma_flower,
    "MauWoodward": sigma_mau_woodward,
    "DeformedMauWoodward": sigma_mau_woodward,
    "DeligneMumford": lambda mu: sigma_dm(mu, len(mu.labels) - 1),
}


@pytest.mark.parametrize("tag", sorted(_SIGMAS))
def test_involution_sigma_on_seeded_members(tag):
    rng = random.Random(23)
    for _ in range(30):
        spec, point = _random_member(tag, rng)
        image = involution_sigma(tag, point)
        assert image == _SIGMAS[tag](point)
        assert check_membership(spec, image).ok
        assert involution_sigma(tag, image) == point


def test_involution_sigma_has_no_losev_manin_case():
    spec, point = _random_member("LosevManin", random.Random(23))
    with pytest.raises(ValueError, match="no involution"):
        involution_sigma(spec.tag, point)


def test_dm_q_identification_roundtrip():
    zs5 = {1: F(0), 2: F(1), 3: F(3), 4: F(11), 5: F(4, 7)}
    mu5 = cross_ratios(zs5)
    for eps in (F(1), F(3), I):
        q = dm_to_q_identification(mu5, eps)
        assert check_membership(VarietySpec("DeformedMauWoodward", 4), q).ok
        back = q_to_dm_identification(q)
        assert back.mu == mu5.mu
    with pytest.raises(ValueError):
        dm_to_q_identification(mu5, F(0))


def test_chart_membership_trichotomy():
    tau = PlanarForest([((1, (2, 3)), 4)])
    part = frozenset({1, 2, 3, 4})
    # every configuration of distinct points lies in every tree chart
    zs = {1: F(10), 2: F(9), 3: F(8), 4: F(0)}
    assert chart_membership(tau, {part: cross_ratios(zs)}) == []
    zs = {1: F(10), 2: F(0), 3: F(-1), 4: F(9)}
    assert chart_membership(tau, {part: cross_ratios(zs)}) == []
    # colliding a pair whose meet is at the bottom of its comparison chain
    # produces an excluded value (an infinite ratio at an equal-meet triple)
    zs_bad = {1: F(10), 2: F(10), 3: F(8), 4: F(0)}
    bad = chart_membership(tau, {part: cross_ratios(zs_bad)})
    assert any(case == "equal" for case, _, _ in bad)
    # colliding a pair whose meet is highest stays inside the chart
    zs_ok = {1: F(10), 2: F(9), 3: F(9), 4: F(0)}
    assert chart_membership(tau, {part: cross_ratios(zs_ok)}) == []


def _two_meet_chart_membership(tau, mus):
    """chart_membership with a forests.meet call, and so a walk of tau, per
    meet: two per ordered triple."""
    bad = []
    for part, mu in mus.items():
        for (i, j, k) in ordered_triples(part):
            v_ik, v_ij, m = meet(tau, i, k), meet(tau, i, j), mu[(i, j, k)]
            if v_ik < v_ij:
                if m == PP_ONE or m.is_infinite():
                    bad.append(("above", (i, j, k), m))
            elif v_ik == v_ij:
                if m.is_zero() or m.is_infinite():
                    bad.append(("equal", (i, j, k), m))
            elif m.is_zero() or m == PP_ONE:
                bad.append(("below", (i, j, k), m))
    return bad


def _colliding_points(labels, rng):
    """Seeded integer points on the labels, some disjoint pairs of them made
    to coincide, so that mu takes the values 0, 1 and infinity."""
    zs = dict(zip(labels, map(F, rng.sample(range(-30, 30), len(labels)))))
    shuffled = rng.sample(labels, len(labels))
    for a, b in zip(shuffled[::2], shuffled[1::2]):
        if rng.random() < 0.3:
            zs[b] = zs[a]
    return zs


def test_chart_membership_matches_two_meets_per_triple():
    # one walk of tau gives the violations, in order, of a walk per meet, on
    # seeded trees with some edges collapsed (the trunk too, making forests
    # whose parts are their trees); a part across two trees has no meets
    rng = random.Random(36)
    cases = Counter()
    for n in range(3, 9):
        for _ in range(25):
            forest = PlanarForest([random_binary_tree(range(1, n + 1), rng)])
            edges = forest.edges()
            tau = collapse_all(forest, rng.sample(edges, rng.randrange(len(edges))))
            parts = [leaves(t) for t in tau.trees if not isinstance(t, int) and len(leaves(t)) > 2]
            mus = {frozenset(part): cross_ratios(_colliding_points(part, rng)) for part in parts}
            got = chart_membership(tau, mus)
            assert got == _two_meet_chart_membership(tau, mus)
            cases.update(case for case, _, _ in got)
            if len(tau.trees) > 1:
                labels = list(range(1, n + 1))
                across = {frozenset(labels): cross_ratios(_colliding_points(labels, rng))}
                for check in (chart_membership, _two_meet_chart_membership):
                    with pytest.raises(NoMeetError, match="lie in different trees"):
                        check(tau, across)
    assert set(cases) == {"above", "equal", "below"}


def test_json_point_roundtrip():
    q = q_member({1: F(0), 2: F(1), 3: F(5)}, F(0), 3)
    q2 = point_from_json(point_to_json(q))
    assert q2.nu.nu == q.nu.nu and q2.mu.mu == q.mu.mu
    nut = orbit_map({1: F(0), 2: F(1, 3), 3: F(3)}, I)
    nut2 = point_from_json(point_to_json(nut))
    assert nut2.nu == nut.nu and nut2.epsilon == I


# The four constructions as they were before the Gaussian-integer form:
# field arithmetic through the canonicalising ProjPoint constructor, and the
# validating tuple constructors.


def _ref_orbit_map(xs, eps):
    eps = canon_scalar(eps)
    labels = sorted(xs)
    for i in labels:
        if 1 - eps * xs[i] == 0:
            raise ValueError(f"1 - eps*x_{i} = 0")
    for i, j in itertools.combinations(labels, 2):
        if xs[i] == xs[j]:
            raise ValueError(f"coincident points x_{i} = x_{j}")
    nu = {}
    for a, i in enumerate(labels, start=1):
        for b, j in enumerate(labels, start=1):
            if a != b:
                nu[(a, b)] = ProjPoint(1 - eps * xs[j], xs[i] - xs[j])
    return NuTuple(len(labels), nu, eps)


def _ref_cross_ratios(zs, distinguished=None):
    labels = sorted(k for k in zs if k != distinguished)
    mu = {}
    for i, j, k in itertools.permutations(labels, 3):
        if distinguished is None:
            mu[(i, j, k)] = ProjPoint(zs[i] - zs[k], zs[i] - zs[j])
        else:
            zl = zs[distinguished]
            mu[(i, j, k)] = ProjPoint(
                (zs[i] - zs[k]) * (zl - zs[j]), (zs[i] - zs[j]) * (zl - zs[k])
            )
    return MuTuple(labels, mu)


def _ref_losev_manin_iso(point):
    eps = point.epsilon
    if eps is None or eps == 0:
        raise ValueError("the multiplicative chart needs epsilon != 0")
    alpha = {}
    for (i, j), p in point.as_dict().items():
        alpha[(i, j)] = ProjPoint(p.u - eps * p.v, p.u)
    return NuTuple(point.n, alpha, None)


def _ref_eps_family_delta(us, y, eps):
    eps, y = canon_scalar(eps), canon_scalar(y)
    labels = sorted(us)
    for i in labels:
        if y + eps * us[i] == 0:
            raise ValueError(f"y + eps*u_{i} = 0")
    nu = {}
    for a, i in enumerate(labels, start=1):
        for b, j in enumerate(labels, start=1):
            if a != b:
                nu[(a, b)] = ProjPoint(y + eps * us[i], us[i] - us[j])
    return NuTuple(len(labels), nu, eps)


def _outcome(f, *args):
    """repr of the value, which tells an int from a Fraction and a reduced
    pair from an unreduced one, or the error's type and message."""
    try:
        return repr(f(*args))
    except ValueError as err:
        return f"ValueError: {err}"


def _construction_scalar(rng):
    # a small pool, so that coincidences and 1 - eps*x = 0 come up
    x = F(rng.randrange(-4, 5), rng.randrange(1, 4))
    if rng.random() < 0.5:
        return x
    return canon_scalar(GaussianRational(x, F(rng.randrange(-3, 4), rng.randrange(1, 3))))


def _construction_inputs(rng):
    """Seeded configurations on labels that need not be 1..n, and epsilon
    in {0, 1, i, a random value}."""
    n = rng.randrange(1, 7)
    labels = rng.sample(range(1, 12), n)
    xs = {k: _construction_scalar(rng) for k in labels}
    eps = rng.choice((F(0), F(1), I, _construction_scalar(rng)))
    return labels, xs, eps


def test_orbit_map_matches_reference():
    rng = random.Random(41)
    seen = set()
    for _ in range(600):
        _, xs, eps = _construction_inputs(rng)
        if eps != 0 and rng.random() < 0.3:  # one x at 1/eps
            xs[min(xs)] = canon_scalar(1 / eps)
        got = _outcome(orbit_map, xs, eps)
        assert got == _outcome(_ref_orbit_map, xs, eps), (xs, eps)
        seen.add(got.split("x_")[0] if got.startswith("ValueError") else "value")
    assert seen == {"value", "ValueError: 1 - eps*", "ValueError: coincident points "}


def test_cross_ratios_match_reference():
    rng = random.Random(43)
    errors = 0
    for _ in range(600):
        labels, zs, eps = _construction_inputs(rng)
        choice = rng.randrange(3)
        if choice == 0:
            distinguished = None
        elif choice == 1:
            distinguished = rng.choice(labels)
        else:  # the extra point of a deformed moduli point, at 1/i = -i
            distinguished = 0
            zs[0] = -I
        if len(labels) >= 3 and rng.random() < 0.2:  # three coincident points
            a, b, c = rng.sample(sorted(zs), 3)
            zs[b] = zs[c] = zs[a]
        got = _outcome(cross_ratios, zs, distinguished)
        assert got == _outcome(_ref_cross_ratios, zs, distinguished), (zs, distinguished)
        errors += got == "ValueError: (0 : 0) is not a point of P^1"
    assert errors >= 50


def test_losev_manin_iso_matches_reference():
    rng = random.Random(47)
    for _ in range(300):
        _, xs, eps = _construction_inputs(rng)
        try:
            point = orbit_map(xs, eps)
        except ValueError:
            continue
        # coordinates at 0 and infinity as well
        point = _with_coordinates(point, [PP_ZERO, PP_INF][: min(rng.randrange(3), len(point.nu))], rng)
        assert _outcome(losev_manin_iso, point) == _outcome(_ref_losev_manin_iso, point)
    with pytest.raises(ValueError, match="needs epsilon != 0"):
        losev_manin_iso(orbit_map({1: F(0), 2: F(1)}, F(0)))


def test_eps_family_delta_matches_reference():
    rng = random.Random(53)
    seen = set()
    for _ in range(600):
        _, us, eps = _construction_inputs(rng)
        y = _construction_scalar(rng)
        got = _outcome(eps_family_delta, us, y, eps)
        assert got == _outcome(_ref_eps_family_delta, us, y, eps), (us, y, eps)
        seen.add(got.startswith("ValueError: y + eps*u_"))
    assert seen == {True, False}


# The chart-product solver as it was before the one-pass form: two passes
# through the representatives, each writing both directions of a pair.


def _ref_extend_nu(s_part, block_tuples, core, eps):
    eps = canon_scalar(eps)
    parts = sorted(s_part.blocks, key=min)
    reps = [min(b) for b in parts]
    n = sum(len(b) for b in parts)
    nu = {}
    for b in parts:
        labels = sorted(b)
        bt = block_tuples[frozenset(b)]
        for (x, y) in ordered_pairs(range(1, len(labels) + 1)):
            nu[(labels[x - 1], labels[y - 1])] = bt[(x, y)]
    for (x, y) in ordered_pairs(range(1, len(reps) + 1)):
        nu[(reps[x - 1], reps[y - 1])] = core[(x, y)]
    for k in range(len(parts)):
        for l, bl in enumerate(parts):
            if k == l:
                continue
            ik, il = reps[k], reps[l]
            for b in sorted(bl):
                if b == il:
                    continue
                nu[(ik, b)] = compose_nu(nu[(ik, il)], nu[(il, b)], eps)
                nu[(b, ik)] = ProjPoint(eps * nu[(ik, b)].v - nu[(ik, b)].u, nu[(ik, b)].v)
    for k, bk in enumerate(parts):
        for a in sorted(bk):
            if a == reps[k]:
                continue
            for l, bl in enumerate(parts):
                if l == k:
                    continue
                for b in sorted(bl):
                    if (a, b) in nu:
                        continue
                    nu[(a, b)] = compose_nu(nu[(a, reps[k])], nu[(reps[k], b)], eps)
                    nu[(b, a)] = ProjPoint(eps * nu[(a, b)].v - nu[(a, b)].u, nu[(a, b)].v)
    return NuTuple(n, nu, eps)


_NONMEMBER_VALUES = [PP_ZERO, PP_INF, PP_ONE, ProjPoint(-1, 1), ProjPoint(2, 1), ProjPoint(F(1, 2), 1),
                     ProjPoint(I, 1)]


def _product_tuple(rng, m, eps, member):
    """A nu-tuple on [m]: an orbit-map member, or values drawn from
    _NONMEMBER_VALUES for i < j, which need not satisfy the triangles."""
    if m == 1:
        return NuTuple(1, {}, eps)
    if not member:
        return NuTuple(m, {ij: rng.choice(_NONMEMBER_VALUES) for ij in itertools.combinations(range(1, m + 1), 2)},
                       eps)
    return orbit_map(dict(zip(range(1, m + 1), (F(v, 3) for v in rng.sample(range(-30, 31), m)))), eps)


def test_extend_nu_matches_reference():
    # products on shuffled parts of [n], so a part's labels interleave with
    # the others'; a third have non-member blocks and core
    rng = random.Random(61)
    outcomes = set()
    for _ in range(2000):
        n = rng.randrange(2, 8)
        eps = rng.choice((F(0), F(1), I))
        labels = rng.sample(range(1, n + 1), n)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
        parts = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        member = rng.random() < 0.7
        try:
            blocks = {frozenset(p): _product_tuple(rng, len(p), eps, member or rng.random() < 0.5)
                      for p in parts}
            core = _product_tuple(rng, len(parts), eps, member)
        except ValueError:  # 1 - eps*x = 0 in an orbit map
            continue
        got, want = [], []
        for solver, out in ((extend_nu, got), (_ref_extend_nu, want)):
            try:
                out.append(solver(SetPartition(parts), blocks, core, eps).nu)
            except InvariantViolation as err:
                out.append(f"InvariantViolation: {err}")
        assert got == want, (parts, eps)
        outcomes.add((member, isinstance(got[0], str)))
    assert outcomes == {(True, False), (False, False), (False, True)}


def _stored_coordinates(point):
    """The stored coordinate fields of a NuTuple, MuTuple, QTuple or theta image."""
    if isinstance(point, QTuple):
        return [point.nu.nu, point.mu.mu]
    if isinstance(point, NuTuple):
        return [point.nu]
    if isinstance(point, MuTuple):
        return [point.mu]
    return [point.nu.nu] + [mu.mu for _, mu in point.mus]


def _assert_stores_canonical_triples(point):
    # ints, v >= 0, gcd 1 and infinity (1, 0, 0), under sorted indices; the
    # validating constructors, given the points back, store the same
    for stored in _stored_coordinates(point):
        assert [index for index, _ in stored] == sorted(index for index, _ in stored)
        for index, h in stored:
            assert type(h) is tuple and len(h) == 3 and all(type(x) is int for x in h), (index, h)
            ur, ui, v = h
            assert v >= 0 and math.gcd(ur, ui, v) == 1 and (v or h == (1, 0, 0)), (index, h)
    if isinstance(point, NuTuple):
        assert NuTuple(point.n, point.as_dict(), point.epsilon) == point
    elif isinstance(point, MuTuple):
        assert MuTuple(point.labels, point.as_dict()) == point


def _producer_outputs(rng, points):
    """Seeded outputs of every producer of stored coordinates, the
    constructors given points of the pool."""
    labels, xs, eps = _construction_inputs(rng)
    n = len(labels)
    half = {ij: rng.choice(points) for ij in itertools.combinations(range(1, n + 1), 2)}
    yield NuTuple(n, half, rng.choice((None, eps)))  # the (j, i) values synthesized
    yield MuTuple(labels, {t: rng.choice(points) for t in ordered_triples(labels)})
    for make in (lambda: orbit_map(xs, eps), lambda: cross_ratios(xs, rng.choice((None, labels[0]))),
                 lambda: eps_family_delta(xs, _construction_scalar(rng), eps)):
        try:
            point = make()
        except ValueError:  # coincident points, or 1 - eps*x = 0
            continue
        yield point
        few = isinstance(point, MuTuple) and len(point.labels) < 3
        if few and point.labels != tuple(range(1, len(point.labels) + 1)):
            # a mu file names its labels by its triples, and reads back 1..n without any
            with pytest.raises(ValueError, match=re.escape(f"mu on labels {list(point.labels)} has no triples")):
                point_to_json(point)
        else:
            yield point_from_json(point_to_json(point))
        if isinstance(point, NuTuple) and point.epsilon != 0:
            yield losev_manin_iso(_with_coordinates(point, [PP_ZERO, PP_INF][: min(2, len(point.nu))], rng))
    forest = rng.choice(enumerate_planar_forests(4, rng.randrange(4)))
    t = {e: rng.choice((F(0), F(1), F(rng.randrange(17), 16))) for e in forest.edges()}
    yield theta(CubePoint(forest, t))
    yield theta_star(StarPoint(rng.sample(range(1, 6), 5), [rng.choice((F(0), F(1), F(rng.randrange(9), 8)))
                                                            for _ in range(4)]))
    cut = rng.randrange(1, n + 1)
    parts = [p for p in (range(1, cut), range(cut, n + 1)) if p]
    try:
        blocks = {frozenset(p): _product_tuple(rng, len(p), eps, True) for p in parts}
        yield extend_nu(SetPartition(parts), blocks, _product_tuple(rng, len(parts), eps, True), eps)
    except ValueError:  # 1 - eps*x = 0 in an orbit map
        pass


def test_every_producer_stores_canonical_triples():
    rng, pool = random.Random(71), list(_canonical_scaling_pool())
    made = Counter()
    for _ in range(300):
        for point in _producer_outputs(rng, pool):
            _assert_stores_canonical_triples(point)
            made[type(point).__name__] += 1
    assert made["NuTuple"] > 1000 and made["MuTuple"] > 400 and made["ThetaImage"] == 300


def test_point_to_json_text():
    assert point_to_json(NuTuple(3, {(1, 2): ProjPoint(F(1, 2), 1), (1, 3): PP_INF, (2, 3): PP_ZERO})) == (
        '{"epsilon": null, "n": 3, "nu": {"1,2": ["1/2", "1"], "1,3": ["1", "0"], "2,1": ["-1/2", "1"], '
        '"2,3": ["0", "1"], "3,1": ["1", "0"], "3,2": ["0", "1"]}}')
    assert point_to_json(orbit_map({1: F(0), 2: F(1)}, I)) == (
        '{"epsilon": "1i", "n": 2, "nu": {"1,2": ["-1+1i", "1"], "2,1": ["1", "1"]}}')
    xs = {1: F(0), 2: F(1), 3: F(3)}
    mu = ('{"1,2,3": ["3", "1"], "1,3,2": ["1/3", "1"], "2,1,3": ["-2", "1"], "2,3,1": ["-1/2", "1"], '
          '"3,1,2": ["2/3", "1"], "3,2,1": ["3/2", "1"]}')
    assert point_to_json(cross_ratios(xs)) == f'{{"mu": {mu}, "n": 3}}'
    assert point_to_json(QTuple(3, orbit_map(xs, F(0)), cross_ratios(xs), F(0))) == (
        f'{{"epsilon": "0", "mu": {mu}, "n": 3, "nu": {{"1,2": ["-1", "1"], "1,3": ["-1/3", "1"], '
        '"2,1": ["1", "1"], "2,3": ["-1/2", "1"], "3,1": ["1/3", "1"], "3,2": ["1/2", "1"]}}')
    with pytest.raises(TypeError):
        point_to_json(PP_ONE)


def test_mu_files_without_triples_hold_the_labels_one_to_n():
    for xs in ({}, {1: F(0)}, {1: F(0), 2: F(1)}):
        point = cross_ratios(xs)
        assert point_to_json(point) == f'{{"mu": {{}}, "n": {len(xs)}}}'
        assert point_from_json(point_to_json(point)) == point
    for labels in ((2,), (1, 3), (4, 7)):
        with pytest.raises(ValueError, match=re.escape(f"mu on labels {list(labels)} has no triples")):
            point_to_json(cross_ratios({k: F(k) for k in labels}))


def test_point_json_roundtrip_of_every_family():
    rng = random.Random(67)
    for family in VarietySpec.TAGS:
        member = None
        while member is None:
            member = _random_member(family, rng)
        point = member[1]
        assert point_from_json(point_to_json(point)) == point, family
