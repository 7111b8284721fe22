"""Workload ``chart-points``: exact chart and equation work on a seeded
stream of points, n from 4 to 10.

Layers: ``realgeometry`` (theta, the commuting square, the inverse
algorithm), ``projective`` (construction, membership in the six families,
strata) and ``scalars`` (ranks of dual-number Jacobians); ``forests`` only
walks trees.  The theta stream has two parts: a shared-tree part, where
every forest on [4] and each of its edges comes back in several points (the
gluing pairs of criterion 10), and a fresh-tree part, where every point has
a new random binary tree on 5..10 leaves.  A per-tree cache gains on the
first and must cost nothing on the second.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

from harness import cli_op

FAMILIES = ("LosevManin", "Flower", "DeformedFlower", "DeligneMumford",
            "MauWoodward", "DeformedMauWoodward")
# the epsilon values each family draws from: "0", "1" or "i"; "-" has none
EPSILONS = {"LosevManin": "1i", "Flower": "0", "DeformedFlower": "01i",
            "DeligneMumford": "-", "MauWoodward": "0", "DeformedMauWoodward": "1i"}
AVOID = (Fraction(1), Fraction(-1))  # keeps 1 - eps*x and the special point 1/eps clear


PASS_S = 5  # nominal seconds of one pass with its set-up; see harness.pass_count
SIZES = {  # points per sub-stream: full run, tiny smoke run
    "shared_n": (4, 3), "fresh": (36, 6), "members": (42, 12),
    "ranks": (7, 2), "n_max": (10, 5),
}


def _fraction(rng, span=12):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 7))


def _distinct(rng, count, avoid=()):
    vals = set()
    while len(vals) < count:
        v = _fraction(rng)
        if v not in avoid:
            vals.add(v)
    return sorted(vals)


def _member_recipe(rng, family, n, eps, product):
    """Plain data from which the timed op constructs one family member."""
    recipe = {"family": family, "n": n, "eps": eps, "xs": _distinct(rng, n, avoid=AVOID)}
    if product:
        split = rng.randrange(1, n)
        recipe["product"] = {
            "split": split,
            "left": _distinct(rng, split, avoid=AVOID),
            "right": _distinct(rng, n - split, avoid=AVOID),
            "core": _distinct(rng, 2, avoid=AVOID),
        }
    return recipe


def _construct(lib, r):
    """Build the member point of a recipe through the library's charts."""
    pj = lib.projective
    n, family = r["n"], r["family"]
    xs = dict(enumerate(r["xs"], start=1))
    if family == "DeligneMumford":
        return pj.cross_ratios(xs)
    eps = {"0": Fraction(0), "1": Fraction(1), "i": lib.scalars.I}[r["eps"]]
    if family == "LosevManin":
        return pj.losev_manin_iso(pj.orbit_map(xs, eps))
    if family in ("Flower", "DeformedFlower"):
        if "product" not in r:
            return pj.orbit_map(xs, eps)
        pr = r["product"]
        parts = [frozenset(range(1, pr["split"] + 1)), frozenset(range(pr["split"] + 1, n + 1))]
        blocks = {}
        for part, vals in zip(parts, (pr["left"], pr["right"])):
            blocks[part] = (pj.orbit_map(dict(enumerate(vals, start=1)), eps)
                            if len(part) > 1 else pj.NuTuple(1, {}, eps))
        core = pj.orbit_map(dict(enumerate(pr["core"], start=1)), eps)
        return pj.extend_nu(lib.combinatorics.SetPartition(parts), blocks, core, eps)
    nu = pj.orbit_map(xs, eps)
    if eps == 0:
        return pj.QTuple(n, nu, pj.cross_ratios(xs, None), eps)
    zs = dict(xs)
    zs[n + 1] = 1 / eps
    full = pj.cross_ratios(zs, n + 1)
    labels = range(1, n + 1)
    return pj.QTuple(n, nu, pj.MuTuple(labels, {t: full[t] for t in pj.ordered_triples(labels)}),
                     eps)


def _product_ok(lib, recipe) -> bool:
    pj = lib.projective
    try:
        point = _construct(lib, recipe)
    except (pj.InvariantViolation, ValueError):
        return False
    split = recipe["product"]["split"]
    parts = [range(1, split + 1), range(split + 1, recipe["n"] + 1)]
    return pj.open_cover_membership(lib.combinatorics.SetPartition(parts), point)


def _perturb(lib, point, where):
    """Change the coordinate ``where`` picks; returns the broken point."""
    pj = lib.projective
    part, pick, bump = where
    if isinstance(point, pj.QTuple):
        inner = point.nu if part == "nu" else point.mu
        broken, idx = _perturb(lib, inner, (None, pick, bump))
        if part == "nu":
            return pj.QTuple(point.n, broken, point.mu, point.epsilon), idx
        return pj.QTuple(point.n, point.nu, broken, point.epsilon), idx
    d = point.as_dict()
    key = sorted(d)[int(pick * len(d))]
    old = d[key]
    new = pj.ProjPoint.finite(bump)
    if new == old:
        new = pj.ProjPoint.finite(bump + 1)
    d[key] = new
    if isinstance(point, pj.MuTuple):
        return pj.MuTuple(point.labels, d), set(key)
    return type(point)(point.n, d, point.epsilon), set(key)


def _dual_rank(lib, n, eps, xs):
    """Rank of the Jacobian of the orbit map (eps in {0, 1}) at xs, by dual
    numbers; the diagonal group action makes it n - 1."""
    sc = lib.scalars
    rows = []
    for p in range(n):
        x = [sc.Dual(v, Fraction(1 if q == p else 0)) for q, v in enumerate(xs)]
        rows.append([((1 - eps * x[j]) / (x[i] - x[j])).b
                     for i in range(n) for j in range(n) if i != j])
    return sc.matrix_rank(rows)


def _edge_product(t, edges):
    """One difference of gamma: the product of the edge values on the path
    from the meet of two leaves down to the root."""
    prod = Fraction(1)
    for e in edges:
        prod *= t[e]
    return prod


def setup(lib, seed, tmp, tiny):
    fo, rg, pj = lib.forests, lib.realgeometry, lib.projective
    size = {k: v[1 if tiny else 0] for k, v in SIZES.items()}
    rng = random.Random(seed)

    shared = []  # (point, partner point) gluing pairs on shared trees
    n = size["shared_n"]
    for k in range(1, n):
        for forest in fo.enumerate_planar_forests(n, k):
            for e in forest.edges():
                vals = {x: Fraction(rng.randrange(0, 17), 16) for x in forest.edges()}
                at0, at1 = dict(vals), dict(vals)
                at0[e], at1[e] = Fraction(0), Fraction(1)
                rest = dict(at1)
                del rest[e]
                shared.append((rg.CubePoint(forest, at0), rg.CubePoint(fo.flip(forest, e), at0)))
                shared.append((rg.CubePoint(forest, at1),
                               rg.CubePoint(fo.collapse(forest, e), rest)))

    # The sizes, families, epsilons and perturbations follow a fixed schedule
    # so that every seed asks for the same amount of work; the seed draws
    # the trees and the values.
    fresh = []
    for i in range(size["fresh"]):
        m = 5 + i % (size["n_max"] - 4)
        forest = fo.PlanarForest([fo.random_binary_tree(range(1, m + 1), rng)])
        fresh.append(rg.CubePoint(
            forest, {e: Fraction(rng.randrange(1, 16), 16) for e in forest.edges()}))

    members = []
    sizes = range(4, size["n_max"] + 1)
    for i in range(size["members"]):
        family, step = FAMILIES[i % len(FAMILIES)], i // len(FAMILIES)
        eps = EPSILONS[family][step % len(EPSILONS[family])]
        product = family in ("Flower", "DeformedFlower") and step % 3 == 0
        recipe = _member_recipe(rng, family, sizes[step % len(sizes)], eps, product)
        if product and not _product_ok(lib, recipe):
            del recipe["product"]  # as criterion 7: keep products in the open cover
        if (step + i) % 2:  # half of each family and of each size
            part = rng.choice(("nu", "mu")) if family.endswith("MauWoodward") else None
            where = (part, rng.random(), _fraction(rng) + Fraction(rng.randrange(1, 5), 17))
            # the non-member is an input, so it is built here and not timed
            recipe["broken"] = _perturb(lib, _construct(lib, recipe), where)
        members.append(recipe)

    ranks = []
    for i in range(size["ranks"]):
        m = sizes[i % len(sizes)]
        ranks.append((m, Fraction(i % 2), _distinct(rng, m, avoid=(Fraction(1),))))

    # temp files for the command-line stage
    flower = pj.orbit_map(dict(enumerate(_distinct(rng, 5), start=1)), Fraction(0))
    broken, _ = _perturb(lib, flower, (None, rng.random(), Fraction(rng.randrange(20, 40), 7)))
    files = {}
    for name, text in (("member", pj.point_to_json(flower)),
                       ("perturbed", pj.point_to_json(broken)),
                       ("cube", fresh[0].to_json())):
        files[name] = str(tmp / f"chart-{name}.json")
        with open(files[name], "w") as fh:
            fh.write(text)
    return {"shared": shared, "fresh": fresh, "members": members, "ranks": ranks,
            "files": files}


def summary(inp) -> str:
    hist: dict[int, int] = {}
    for p in inp["fresh"]:
        hist[p.forest.n] = hist.get(p.forest.n, 0) + 1
    for r in inp["members"]:
        hist[r["n"]] = hist.get(r["n"], 0) + 1
    shared_theta = 2 * len(inp["shared"])
    eps_mix: dict[str, int] = {}
    for r in inp["members"]:
        eps_mix[r["eps"]] = eps_mix.get(r["eps"], 0) + 1
    families = {f: sum(1 for r in inp["members"] if r["family"] == f) for f in FAMILIES}
    return json.dumps({
        "n_histogram": dict(sorted(hist.items())),
        "shared_tree_fraction": shared_theta / (shared_theta + len(inp["fresh"])),
        "gluing_pairs": len(inp["shared"]), "fresh_points": len(inp["fresh"]),
        "families": families, "eps_mix": dict(sorted(eps_mix.items())),
        "perturbed": sum(1 for r in inp["members"] if "broken" in r),
        "products": sum(1 for r in inp["members"] if "product" in r),
        "jacobians": len(inp["ranks"]),
    }, sort_keys=True)


def run_pass(lib, inp, p):
    fo, rg, pj = lib.forests, lib.realgeometry, lib.projective

    for i, (a, b) in enumerate(inp["shared"]):
        ia = p.op("realgeometry.theta_shared", rg.theta, a)
        ib = p.op("realgeometry.theta_shared", rg.theta, b)
        p.op("realgeometry.theta_shared", rg.theta_images_equal, ia, ib,
             check=lambda same: same is True, what="gluing")
        if i % 2 and ia is not None:
            p.op("projective.strata", pj.classify_strata, ia.nu,
                 check=lambda res, im=ia: res[0] == im.s_part and res[1] == im.b_part(),
                 what="strata duality")

    for point in inp["fresh"]:
        forest, t = point.forest, point.t_dict()
        im = p.op("realgeometry.theta_fresh", rg.theta, point)
        order = p.op("forests.navigate", forest.leaf_order)
        if im is None or order is None:
            continue
        # a fresh point has one tree, so every pair of leaves has a meet
        paths = [p.op("forests.navigate",
                      lambda a=a, b=b: fo.path_edges(forest, fo.meet(forest, a, b)))
                 for a, b in zip(order, order[1:])]
        x = p.op("realgeometry.star", rg.gamma, point,
                 check=lambda x: x.diffs == tuple(_edge_product(t, es) for es in paths))
        p.op("realgeometry.star", rg.theta_star, x, check=lambda nu: nu.nu == im.nu.nu,
             what="commuting square")
        zs = {order[0]: Fraction(0)}
        for a, b in zip(order, order[1:]):
            zs[b] = zs[a] - im.nu.delta(a, b).value()
        p.op("realgeometry.inverse", rg.tree_of_configuration, zs,
             check=lambda f: f.trees[0] == forest.trees[0], what="round trip")

    for r in inp["members"]:
        spec = pj.VarietySpec(r["family"], r["n"])
        point = p.op("projective.construct", _construct, lib, r, what=r["family"])
        if point is not None:
            p.op("projective.membership_member", pj.check_membership, spec, point,
                 check=lambda rep: rep.ok, what=f"{r['family']} n={r['n']}")
        if "broken" in r:
            broken, idx = r["broken"]
            p.op("projective.membership_perturbed", pj.check_membership, spec, broken,
                 check=lambda rep, idx=idx: (not rep.ok)
                 and any(idx <= set(v[1]) for v in rep.violations),
                 what=f"{r['family']} n={r['n']}")

    for m, eps, xs in inp["ranks"]:
        p.op("scalars.rank", _dual_rank, lib, m, eps, xs, check=lambda rank, m=m: rank == m - 1)

    f = inp["files"]
    cli_op(p, lib, ["verify", "membership", "--variety", "f", "--in", f["member"]], 0,
           lambda out: json.loads(out)["pass"] is True)
    cli_op(p, lib, ["verify", "membership", "--variety", "f", "--in", f["perturbed"]], 1,
           lambda out: json.loads(out)["violations"])
    cli_op(p, lib, ["classify", "--in", f["member"]], 0,
           lambda out: json.loads(out)["S"] == [[1, 2, 3, 4, 5]])
    cli_op(p, lib, ["map", "--which", "theta", "--in", f["cube"]], 0,
           lambda out: "nu" in json.loads(out))
    cli_op(p, lib, ["map", "--which", "gamma", "--in", f["cube"]], 0,
           lambda out: len(json.loads(out)["diffs"]) == len(json.loads(out)["order"]) - 1)
    cli_op(p, lib, ["classify", "--in", f["member"], "--no-such-flag"], 2)
