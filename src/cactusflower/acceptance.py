"""The acceptance suite: thirteen checks, each an exact or fixed-tolerance
verification of a structural claim, runnable individually (also via the
command line) and printed one pass/fail line at a time.

Randomized checks draw from an explicitly seeded generator; tolerances are
pinned here and nowhere else (exact unless stated: the analytic path check
uses 1e-9 absolute).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

from . import cubecomplexes as cc
from . import groups as gr
from . import projective as pj
from . import realgeometry as rg
from . import rootsystems as rs
from .combinatorics import SetPartition
from .forests import (
    PlanarForest,
    collapse,
    collapse_all,
    enumerate_planar_forests,
    flip,
    forest_key,
    leafset,
    random_binary_tree,
)
from .scalars import Dual, I, matrix_rank

DEFAULT_SEED = 20240331
PATH_TOLERANCE = 1e-9
MAX_ATTEMPTS = 100  # draws a sampler makes before giving up on degenerate input


class RetriesExhausted(RuntimeError):
    """A random sampler drew only degenerate inputs, MAX_ATTEMPTS times over."""


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# 1: cell counts


def criterion_1(seed=DEFAULT_SEED) -> CriterionResult:
    hd = cc.build_complex("hatD", 3).f_vector()
    d = cc.build_complex("D", 3).f_vector()
    bd = cc.build_complex("breveD", 3).f_vector()
    oracle_one_cubes = len(enumerate_planar_forests(3, 1)) // 2
    ok = hd == (1, 6, 3) and d == (6, 9, 3) and d[1] == oracle_one_cubes and bd[0] == 2
    return CriterionResult(
        1,
        "cell counts",
        ok,
        f"hatD_3={hd} D_3={d} (1-cube oracle {oracle_one_cubes}) breveD_3 vertices={bd[0]}",
    )


# 2: non-positive curvature


def criterion_2(seed=DEFAULT_SEED) -> CriterionResult:
    details = []
    ok = True
    for kind in ("D", "hatD", "breveD"):
        for n in (3, 4):
            rep = cc.check_gromov_flag(cc.build_complex(kind, n))
            ok &= rep.ok
            details.append(f"{kind}_{n}:{'ok' if rep.ok else 'FAIL'}")
    c4 = cc.build_complex("hatD", 4)
    cube3 = next(iter(c4.subcubes[3]))
    face = c4.sub_face(cube3, list(cube3.edges())[:2])
    mutated = cc.check_gromov_flag(cc.remove_subcube(c4, face))
    ok &= (not mutated.ok) and mutated.witness is not None
    details.append(f"mutated:{'witness ' + str(mutated.witness[1]) if not mutated.ok else 'MISSED'}")
    return CriterionResult(2, "non-positive curvature", ok, " ".join(details))


# 3: local isometries


def criterion_3(seed=DEFAULT_SEED) -> CriterionResult:
    details = []
    ok = True
    for n in (3, 4):
        d, bd, hd = (cc.build_complex(kind, n) for kind in ("D", "breveD", "hatD"))
        r1 = cc.check_local_isometry(cc.quotient_map(d, bd))
        r2 = cc.check_local_isometry(cc.quotient_map(bd, hd))
        ok &= r1.ok and r2.ok
        details.append(f"n={n}: D->breveD {'ok' if r1.ok else 'FAIL'}, breveD->hatD {'ok' if r2.ok else 'FAIL'}")
    less = cc.remove_subcube(bd, min(bd.subcubes[2], key=forest_key))  # must FAIL: a square's image is gone
    control = cc.check_local_isometry(cc.quotient_map(d, less))
    ok &= not control.ok
    details.append(f"D_4->breveD_4 less a square:{'witness ' + str(control.witness) if not control.ok else 'MISSED'}")
    return CriterionResult(3, "local isometries", ok, "; ".join(details))


# 4: presentation extraction


def criterion_4(seed=DEFAULT_SEED) -> CriterionResult:
    details = []
    ok = True
    for n in (3, 4):
        e1 = cc.extract_presentation(cc.build_complex("hatD", n))
        g1 = gr.make_presentation("pure_virtual_cactus", n)
        m1 = cc.presentations_match(e1, g1)
        e2 = cc.extract_presentation(cc.build_complex("hatP", n))
        g2 = gr.make_presentation("pure_virtual_sym", n)
        m2 = cc.presentations_match(e2, g2)
        ok &= m1 and m2
        details.append(
            f"n={n}: hatD~PvC {'ok' if m1 else 'FAIL'}({len(e1.relators)} relators), "
            f"hatP~PvS {'ok' if m2 else 'FAIL'}({len(e2.relators)})"
        )
    return CriterionResult(4, "presentation extraction", ok, "; ".join(details))


# 5: the group diagram


def criterion_5(seed=DEFAULT_SEED) -> CriterionResult:
    ok = True
    checks = 0
    for n in range(2, 7):
        rep = gr.diagram_report(n)
        checks += len(rep)
        ok &= all(r[2] for r in rep)
        hom_rep = gr.verify_hom(gr.hom(("AC", "AS"), n), "solvable_target")
        ok &= hom_rep.all_proven
    return CriterionResult(
        5, "group diagram", ok, f"{checks} generator-path checks and all AC relators trivial in AS, n<=6"
    )


# 6: AC -> vC relator images decided in hatD_n


def criterion_6(seed=DEFAULT_SEED) -> CriterionResult:
    details = []
    ok = True
    for n in (3, 4):
        rep = gr.verify_hom(gr.hom(("AC", "vC"), n), "bounded_rewrite")
        proven = sum(1 for r in rep.results if r[1] == "proven")
        ok &= proven == len(rep.results)
        details.append(f"n={n}: {proven}/{len(rep.results)} proven")
    return CriterionResult(6, "rewriting certificates", ok, "; ".join(details))


# 7: variety membership


def _random_fraction(rng, span=12) -> Fraction:
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 7))


def _distinct_fractions(rng, count) -> list[Fraction]:
    vals = set()
    while len(vals) < count:
        vals.add(_random_fraction(rng))
    return sorted(vals)


def _random_member(family: str, rng):
    """A structured random member, via the chart generators.

    A degenerate draw is discarded and the whole draw repeated, at most
    MAX_ATTEMPTS times; then RetriesExhausted is raised.
    """
    for _ in range(MAX_ATTEMPTS):
        member = _draw_member(family, rng)
        if member is not None:
            return member
    raise RetriesExhausted(f"no {family} member in {MAX_ATTEMPTS} draws")


def _draw_member(family: str, rng):
    """One draw of _random_member; None when the draw is degenerate."""
    epsilons = [Fraction(0), Fraction(1), I]
    if family == "LosevManin":
        n = rng.randrange(2, 5)
        for _ in range(MAX_ATTEMPTS):
            xs = dict(enumerate(_distinct_fractions(rng, n), start=1))
            if all(1 - x != 0 for x in xs.values()):
                break
        else:
            return None
        return pj.VarietySpec("LosevManin", n), pj.losev_manin_iso(pj.orbit_map(xs, Fraction(1)))
    if family in ("Flower", "DeformedFlower"):
        eps = Fraction(0) if family == "Flower" else rng.choice(epsilons)
        n = rng.randrange(2, 5)
        if rng.random() < 0.3 and n >= 3:
            # a product point through the extension solver
            try:
                split = rng.randrange(1, n)
                parts = [
                    frozenset(range(1, split + 1)),
                    frozenset(range(split + 1, n + 1)),
                ]
                spart = SetPartition(parts)
                blocks = {}
                for p in parts:
                    xs = dict(enumerate(_distinct_fractions(rng, len(p)), start=1))
                    blocks[p] = (
                        pj.orbit_map(xs, eps)
                        if len(p) > 1
                        else pj.NuTuple(1, {}, eps)
                    )
                core_xs = dict(enumerate(_distinct_fractions(rng, len(parts)), start=1))
                core = pj.orbit_map(core_xs, eps)
                point = pj.extend_nu(spart, blocks, core, eps)
            except (pj.InvariantViolation, ValueError):
                return None
            if not pj.open_cover_membership(spart, point):
                return None
            return pj.VarietySpec("DeformedFlower" if family != "Flower" else "Flower", n), point
        xs = dict(enumerate(_distinct_fractions(rng, n), start=1))
        try:
            return pj.VarietySpec(family, n), pj.orbit_map(xs, eps)
        except ValueError:
            return None
    if family == "DeligneMumford":
        n = rng.randrange(3, 5)
        zs = dict(enumerate(_distinct_fractions(rng, n), start=1))
        return pj.VarietySpec("DeligneMumford", n), pj.cross_ratios(zs)
    if family in ("MauWoodward", "DeformedMauWoodward"):
        eps = Fraction(0) if family == "MauWoodward" else rng.choice(epsilons)
        n = rng.randrange(3, 5)
        xs = dict(enumerate(_distinct_fractions(rng, n), start=1))
        try:
            nu = pj.orbit_map(xs, eps)
            if eps == 0:
                mu = pj.cross_ratios(xs, None)
            else:
                special = n + 1
                zs = dict(xs)
                zs[special] = 1 / eps
                if any(zs[special] == v for v in xs.values()):
                    raise ValueError("special point collides")
                full = pj.cross_ratios(zs, special)
                mu = pj.MuTuple(
                    range(1, n + 1),
                    {t: full[t] for t in pj.ordered_triples(range(1, n + 1))},
                )
        except ValueError:
            return None
        return pj.VarietySpec(family, n), pj.QTuple(n, nu, mu, eps)
    raise ValueError(family)


def _perturb(spec, point, rng):
    """Change one coordinate; return the broken point and the changed index."""
    val = pj.ProjPoint.finite(_random_fraction(rng) + Fraction(rng.randrange(1, 5), 17))
    if isinstance(point, pj.NuTuple):
        pairs = pj.ordered_pairs(range(1, point.n + 1))
        ij = rng.choice(pairs)
        d = point.as_dict()
        if d[ij] == val:
            val = pj.ProjPoint.finite(val.u + 1)
        d[ij] = val
        return pj.NuTuple(point.n, d, point.epsilon), set(ij)
    if isinstance(point, pj.MuTuple):
        trips = list(point.as_dict())
        t = rng.choice(trips)
        d = point.as_dict()
        if d[t] == val:
            val = pj.ProjPoint.finite(val.u + 1)
        d[t] = val
        return pj.MuTuple(point.labels, d), set(t)
    if isinstance(point, pj.QTuple):
        broken, idx = _perturb(None, point.nu if rng.random() < 0.5 else point.mu, rng)
        if isinstance(broken, pj.NuTuple):
            return pj.QTuple(point.n, broken, point.mu, point.epsilon), idx
        return pj.QTuple(point.n, point.nu, broken, point.epsilon), idx
    raise TypeError(type(point))


def criterion_7(seed=DEFAULT_SEED) -> CriterionResult:
    per_family, perturbed = 1000, 100
    rng = random.Random(seed)
    ok = True
    details = []
    members = []
    for family in pj.VarietySpec.TAGS:
        good = 0
        for _ in range(per_family):
            spec, point = _random_member(family, rng)
            if pj.check_membership(spec, point).ok:
                good += 1
                members.append((spec, point))
        ok &= good == per_family
        details.append(f"{family}:{good}/{per_family}")
    bad_ok = 0
    for _ in range(perturbed):
        spec, point = members[rng.randrange(len(members))]
        broken, idx = _perturb(spec, point, rng)
        rep = pj.check_membership(spec, broken)
        witness_hits = any(idx <= set(v[1]) for v in rep.violations)
        if (not rep.ok) and witness_hits:
            bad_ok += 1
    ok &= bad_ok == perturbed
    details.append(f"perturbed:{bad_ok}/{perturbed} fail with witness")
    return CriterionResult(7, "variety membership", ok, " ".join(details))


# 8: strata


def _figure_point():
    """The nine-point example with three petals: {1,4,7} at one spot,
    {3},{8} on a second petal, {2,5,6} together plus {9} on a third."""
    positions = {1: 0, 4: 0, 7: 0, 3: 0, 8: 1, 2: 0, 5: 0, 6: 0, 9: 1}
    petal = {1: 0, 4: 0, 7: 0, 3: 1, 8: 1, 2: 2, 5: 2, 6: 2, 9: 2}
    nu = {}
    for i in range(1, 10):
        for j in range(1, 10):
            if i == j:
                continue
            if petal[i] != petal[j]:
                nu[(i, j)] = pj.PP_ZERO  # infinite distance
            else:
                d = Fraction(positions[i] - positions[j])
                nu[(i, j)] = pj.ProjPoint(1, d)
    return pj.NuTuple(9, nu, None)


def _stratum_S_parameterization(s_part: SetPartition):
    """Coordinates of the finiteness stratum as dual-number functions of the
    per-part positions (last position of each part pinned)."""
    parts = sorted(s_part.blocks, key=min)
    params = []
    for b in parts:
        params.extend((min(b), x) for x in sorted(b)[:-1])

    def coords(values: Dict) -> list:
        zs = {}
        for b in parts:
            labels = sorted(b)
            for x in labels[:-1]:
                zs[x] = values[(min(b), x)]
            zs[labels[-1]] = Dual(Fraction(0), Fraction(0))
        out = []
        for b in parts:
            labels = sorted(b)
            for i in labels:
                for j in labels:
                    if i != j:
                        out.append(zs[i] - zs[j])  # delta within a part
            for (i, j, k) in itertools.permutations(labels, 3):
                den = zs[i] - zs[j]
                num = zs[i] - zs[k]
                out.append(num / den)
        return out

    return params, coords


def _stratum_B_parameterization(b_part: SetPartition):
    """Coordinates of the coincidence stratum: petal positions (one pinned)
    and the per-part moduli with two points pinned."""
    parts = sorted(b_part.blocks, key=min)
    params = []
    for b in parts[:-1]:
        params.append(("y", min(b)))
    for b in parts:
        labels = sorted(b)
        for x in labels[2:]:
            params.append(("u", min(b), x))

    def coords(values: Dict) -> list:
        ys = {}
        for b in parts[:-1]:
            ys[frozenset(b)] = values[("y", min(b))]
        ys[frozenset(parts[-1])] = Dual(Fraction(0), Fraction(0))
        us = {}
        for b in parts:
            labels = sorted(b)
            if len(labels) >= 1:
                us[labels[0]] = Dual(Fraction(0), Fraction(0))
            if len(labels) >= 2:
                us[labels[1]] = Dual(Fraction(1), Fraction(0))
            for x in labels[2:]:
                us[x] = values[("u", min(b), x)]
        part_of = {x: frozenset(b) for b in parts for x in b}
        out = []
        n = max(x for b in parts for x in b)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and part_of[i] != part_of[j]:
                    out.append(ys[part_of[i]] - ys[part_of[j]])  # petal distances
        for (i, j, k) in itertools.permutations(range(1, n + 1), 3):
            if part_of[i] == part_of[j] == part_of[k]:
                out.append((us[i] - us[k]) / (us[i] - us[j]))
            elif len({part_of[i], part_of[j], part_of[k]}) == 3:
                out.append(
                    (ys[part_of[i]] - ys[part_of[k]]) / (ys[part_of[i]] - ys[part_of[j]])
                )
        return out

    return params, coords


def _jacobian_rank(params, coords, rng) -> int:
    # redraw the base point when it is degenerate (coincident positions give
    # zero division), at most MAX_ATTEMPTS times
    for _ in range(MAX_ATTEMPTS):
        base = {}
        for p in params:
            v = _random_fraction(rng) + Fraction(rng.randrange(1, 40), 37)
            base[p] = v
        rows = []
        try:
            for p in params:
                values = {
                    q: Dual(base[q], Fraction(1 if q == p else 0)) for q in params
                }
                rows.append([c.b for c in coords(values)])
        except ZeroDivisionError:
            continue
        if not rows:
            return 0
        return matrix_rank(rows)
    raise RetriesExhausted(f"no regular base point in {MAX_ATTEMPTS} draws")


def criterion_8(seed=DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 8)
    s, b, dims = pj.classify_strata(_figure_point())
    fig_ok = (
        s == SetPartition([{1, 4, 7}, {3, 8}, {2, 5, 6, 9}])
        and b == SetPartition([{1, 4, 7}, {3}, {8}, {2, 5, 6}, {9}])
    )
    dim_ok = True
    tested = 0
    from .combinatorics import all_set_partitions

    for n in (2, 3, 4):
        for part in all_set_partitions(n):
            m = len(part)
            params, coords = _stratum_S_parameterization(part)
            rank = _jacobian_rank(params, coords, rng)
            dim_ok &= rank == n - m
            r, p = len(part), sum(1 for blk in part if len(blk) == 1)
            params, coords = _stratum_B_parameterization(part)
            rank = _jacobian_rank(params, coords, rng)
            dim_ok &= rank == n - 1 - r + p
            tested += 2
    ok = fig_ok and dim_ok
    return CriterionResult(
        8,
        "strata",
        ok,
        f"figure point {'ok' if fig_ok else 'FAIL'}; {tested} tangent counts {'match' if dim_ok else 'MISMATCH'}",
    )


# 9: the commuting square


def _random_cube_point(n, rng, forests: dict) -> rg.CubePoint:
    """A cube point on a forest drawn from enumerate_planar_forests(n, k),
    kept in forests under (n, k): one table per criterion call."""
    k = rng.randrange(0, n)
    if (n, k) not in forests:
        forests[(n, k)] = enumerate_planar_forests(n, k)
    candidates = forests[(n, k)]
    forest = candidates[rng.randrange(len(candidates))]
    return rg.CubePoint(forest, {e: Fraction(rng.randrange(0, 17), 16) for e in forest.edges()})


def criterion_9(seed=DEFAULT_SEED) -> CriterionResult:
    samples = 100
    rng = random.Random(seed + 9)
    forests: dict = {}
    ok = True
    for n in (3, 4, 5):
        for _ in range(samples):
            p = _random_cube_point(n, rng, forests)
            left = rg.theta(p).nu.nu
            right = rg.theta_star(rg.gamma(p)).nu
            if left != right:
                ok = False
                break
    return CriterionResult(9, "commuting square", ok, f"{samples} samples per n in (3,4,5), exact")


# 10: gluing and strata duality


def _subdivision_strata(p: rg.CubePoint):
    """The (S, B) partitions read from the little-cube index of the point:
    collapse edges at one, decorate edges at zero; parts of B are the leaf
    sets above outermost decorated edges, singletons elsewhere."""
    t = p.t_dict()
    forest = collapse_all(p.forest, [e for e, v in t.items() if v == 1])
    zeros = {e for e, v in t.items() if v == 0}
    s_parts = [leafset(tr) if not isinstance(tr, int) else frozenset([tr]) for tr in forest.trees]
    outer = [e for e in zeros if not any(e < f for f in zeros)]
    b_parts = list(outer)
    rest = set(range(1, p.forest.n + 1)) - set().union(*outer)
    b_parts.extend(frozenset([x]) for x in rest)
    return SetPartition(s_parts), SetPartition(b_parts)


def criterion_10(seed=DEFAULT_SEED) -> CriterionResult:
    samples = 20  # per forest and edge
    rng = random.Random(seed + 10)
    n = 4
    forests = {(n, k): enumerate_planar_forests(n, k) for k in range(n)}
    glue_ok = True
    cases = 0
    for k in range(1, n):
        for forest in forests[(n, k)]:
            for e in forest.edges():
                for _ in range(samples):
                    vals = {x: Fraction(rng.randrange(0, 17), 16) for x in forest.edges()}
                    v0 = dict(vals)
                    v0[e] = Fraction(0)
                    a = rg.theta(rg.CubePoint(forest, v0))
                    b = rg.theta(rg.CubePoint(flip(forest, e), v0))
                    glue_ok &= rg.theta_images_equal(a, b)
                    v1 = dict(vals)
                    v1[e] = Fraction(1)
                    a = rg.theta(rg.CubePoint(forest, v1))
                    del v1[e]
                    b = rg.theta(rg.CubePoint(collapse(forest, e), v1))
                    glue_ok &= rg.theta_images_equal(a, b)
                    cases += 2
    # the random points, then every forest with all its edges at 0 and at 1:
    # the corners put a trunk and its child edges at 1 together, which the
    # random points may never draw
    points = [_random_cube_point(n, rng, forests) for _ in range(200)]
    corners = [
        rg.CubePoint(forest, dict.fromkeys(forest.edges(), Fraction(v)))
        for k in range(1, n) for forest in forests[(n, k)] for v in (0, 1)
    ]
    strata_ok = True
    for p in points + corners:
        im = rg.theta(p)
        strata_ok &= (im.s_part, im.b_part()) == _subdivision_strata(p)
    ok = glue_ok and strata_ok
    return CriterionResult(
        10, "gluing and strata duality", ok,
        f"{cases} gluing cases exact; strata indices {'match' if strata_ok else 'MISMATCH'} "
        f"on {len(points)} points and {len(corners)} corner points",
    )


# 11: the inverse algorithm


def criterion_11(seed=DEFAULT_SEED) -> CriterionResult:
    samples = 200
    rng = random.Random(seed + 11)
    ok = True
    for _ in range(samples):
        n = rng.randrange(2, 8)
        tree = random_binary_tree(range(1, n + 1), rng)
        forest = PlanarForest([tree])
        vals = {e: Fraction(rng.randrange(1, 16), 16) for e in forest.edges()}
        im = rg.theta(rg.CubePoint(forest, vals))
        order = forest.leaf_order()
        zs = {order[0]: Fraction(0)}
        for a, b in zip(order, order[1:]):
            zs[b] = zs[a] - im.nu.delta(a, b).value()
        rec = rg.tree_of_configuration(zs)
        if rec.trees[0] != tree:
            ok = False
            break
    return CriterionResult(11, "inverse algorithm", ok, f"{samples} binary-tree round trips, n<=7")


# 12: the appendix


def criterion_12(seed=DEFAULT_SEED) -> CriterionResult:
    centre_ok = True
    count = 0
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"):
        for fd in rs.all_face_data(rs.build_root_system(name)):
            centre_ok &= rs.verify_face_center(fd)
            count += 1

    def xi_checks(name, grid, pair_budget, rng):
        system = rs.build_root_system(name)
        points = {}
        for ss in system.simple_systems():
            fd = rs.FaceDatum(ss, frozenset())
            for tt in itertools.product(grid, repeat=system.rank):
                t = dict(enumerate(tt))
                x = rs.star_point_coords(ss, t)
                y = rs.xi(fd, t)
                if not rs.permutahedron_membership(system, y):
                    return False
                points.setdefault(x, set()).add(y)
        if any(len(v) > 1 for v in points.values()):
            return False  # the map must glue across chambers
        # the map intertwines the identifications: x ~ x' on the star exactly
        # when the images are related by a parallel-face translation
        xs = sorted(points)
        images = {x: next(iter(ys)) for x, ys in points.items()}
        pres = {x: rs.star_presentations(system, x) for x in xs}
        faces = {x: rs.permutahedron_faces_containing(system, images[x]) for x in xs}
        cache = {}
        pairs = list(itertools.combinations(range(len(xs)), 2))
        if len(pairs) > pair_budget:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(pair_budget)]
        for i, j in pairs:
            a, b = xs[i], xs[j]
            lhs = rs.star_points_related(system, a, b, pres[a], pres[b])
            rhs = rs.permutahedron_points_related(
                system, images[a], images[b], faces[a], faces[b], cache
            )
            if lhs != rhs:
                return False
        return True

    rng = random.Random(seed + 12)
    a2_ok = xi_checks("A2", [Fraction(k, 4) for k in range(5)], 10**9, rng)
    a3_ok = xi_checks("A3", [Fraction(0), Fraction(1, 2), Fraction(1)], 800, rng)
    ok = centre_ok and a2_ok and a3_ok
    return CriterionResult(
        12, "root-system appendix", ok,
        f"{count} face centres exact; gluing/intertwining A2 {'ok' if a2_ok else 'FAIL'}, A3 {'ok' if a3_ok else 'FAIL'}",
    )


# 13: the twisted path


def criterion_13(seed=DEFAULT_SEED) -> CriterionResult:
    samples = 100
    rng = random.Random(seed + 13)
    ok = True
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(samples):
            k = rng.randrange(2, n + 1)
            t, s = rng.random(), rng.random()
            point = rg.affine_cactus_path(n, k, t, s)
            res = rg.path_sigma_residual(point)
            worst = max(worst, res)
            ok &= res <= PATH_TOLERANCE
            wall = rg.affine_cactus_path(n, k, 0.5, s)
            ok &= all(v == 2.0 for v in wall.mu_dict().values())
    return CriterionResult(
        13, "twisted path", ok, f"max sigma residual {worst:.2e} (tol {PATH_TOLERANCE}); wall ratios exactly 2",
    )


ALL_CRITERIA: List[Callable] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_criterion(number: int, seed=DEFAULT_SEED) -> CriterionResult:
    if not 1 <= number <= len(ALL_CRITERIA):
        raise ValueError(f"criteria are numbered 1..{len(ALL_CRITERIA)}")
    return ALL_CRITERIA[number - 1](seed)


def run_all(seed=DEFAULT_SEED) -> List[CriterionResult]:
    return [fn(seed) for fn in ALL_CRITERIA]
