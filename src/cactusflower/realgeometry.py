"""The star, the cube-to-star map, tree charts on the real cactus-flower
space, and the inverse tree-of-configuration algorithm.

Everything here is exact rational arithmetic except affine_cactus_path,
which evaluates an analytic path (it needs cot(pi/n)) in floating point.

The interval-to-line reparameterization is fixed: f(t) = t / (1 - t^2)
(``reparameterize``), odd, strictly increasing on (-1, 1), with f(0) = 0 and
f(+-1) = +-infinity, and rational at rationals.

Sign convention: on the fundamental domain the positions decrease along the
order (consecutive differences x_i - x_{i+1} lie in [0, 1]), and theta_star
sums f over these nonnegative differences, which makes the square
gamma-then-star-map = flower-map-then-theta commute exactly.  Like the tree
charts, it sums on ints: the finite f values over one common denominator.

gamma and the charts read trees through forests._tree_walk, and
tree_of_configuration builds its tree from vertex spans (forests._keeping).
"""
from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Dict, FrozenSet, NamedTuple, Tuple

from .combinatorics import Permutation, SetPartition, interval_reversal, partition_closure
from .forests import (
    PlanarForest,
    PlanarForestWithZeros,
    _forest,
    _keeping,
    _tree_walk,
    binary_refinement,
    forest_from_newick,
    forest_to_newick,
)
from .projective import (
    MuTuple,
    NuTuple,
    PP_INF,
    PP_ZERO,
    _json_object,
    ordered_pairs,
    ordered_triples,
)
from .scalars import ONE, nonzero_denominator

INF = "inf"
NEG_INF = "-inf"


# ---------------------------------------------------------------------------
# the reparameterization


def reparameterize(t) -> object:
    """The chart reparameterization f(t) = t / (1 - t^2) of [-1, 1] onto
    [-inf, inf]; INF and NEG_INF at +-1.

    >>> reparameterize(Fraction(1, 2))
    Fraction(2, 3)
    >>> reparameterize(1)
    'inf'
    """
    if type(t) is not Fraction:
        t = Fraction(t)
    p, q = t.numerator, t.denominator  # q > 0
    if not -q <= p <= q:
        raise ValueError(f"argument {t} outside [-1, 1]")
    if p == q:
        return INF
    if p == -q:
        return NEG_INF
    return Fraction(*_f_ints(p, q))


def _f_ints(p: int, q: int) -> Tuple[int, int]:
    """f(p/q) = pq/(q^2 - p^2), the one formula for f, as an int numerator
    and a positive denominator for |p| < q.  They are in lowest terms when
    gcd(p, q) = 1: a prime dividing q and q^2 - p^2 divides p.

    >>> _f_ints(1, 2)
    (2, 3)
    """
    return p * q, q * q - p * p


# ---------------------------------------------------------------------------
# star points and cube points


@dataclass(frozen=True)
class StarPoint:
    """A parallelepiped point: a total order of [n] and the consecutive
    differences x_{w(k)} - x_{w(k+1)}, each in [0, 1]."""

    order: Tuple[int, ...]
    diffs: Tuple[Fraction, ...]

    def __init__(self, order, diffs):
        order = tuple(order)
        diffs = tuple(Fraction(d) for d in diffs)
        if not order:
            raise ValueError("a star point needs at least one label")
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError("order must be a permutation of [n]")
        if len(diffs) != len(order) - 1:
            raise ValueError("need one difference per consecutive pair")
        if any(not 0 <= d <= 1 for d in diffs):
            raise ValueError("differences must lie in [0, 1]")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "diffs", diffs)

    @property
    def n(self) -> int:
        return len(self.order)

    def relabel(self, w: Permutation) -> "StarPoint":
        return StarPoint(tuple(w(x) for x in self.order), self.diffs)

    @staticmethod
    def from_json(text: str) -> "StarPoint":
        d = _json_object(text, order=list, diffs=list)
        if any(type(k) is not int for k in d["order"]):
            raise ValueError(f"order must be an array of integer labels, not {json.dumps(d['order'])}")
        return StarPoint(d["order"], [_json_fraction(v, "diffs") for v in d["diffs"]])


def _edge_key(item) -> Tuple[int, int]:
    """A cube point's edges in order: by least leaf, then by size (edges
    sharing a least leaf are nested, so the order is total)."""
    e = item[0]
    return min(e), len(e)


@dataclass(frozen=True)
class CubePoint:
    """A point of a cube: a planar forest and a [0,1] value per internal
    edge (edges are addressed by the leaf set above them)."""

    forest: PlanarForest
    t: Tuple[Tuple[FrozenSet[int], Fraction], ...]

    def __init__(self, forest: PlanarForest, t: Dict[FrozenSet[int], Fraction]):
        if not forest.trees:  # every tree has a leaf
            raise ValueError("a cube point needs a forest with at least one leaf")
        t = {frozenset(e): v if type(v) is Fraction else Fraction(v) for e, v in t.items()}
        if t.keys() != set(forest.edges()):
            raise ValueError("t must assign a value to every internal edge")
        for v in t.values():  # 0 <= v <= 1, the denominator being positive
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError("edge values must lie in [0, 1]")
        object.__setattr__(self, "forest", forest)
        object.__setattr__(self, "t", tuple(sorted(t.items(), key=_edge_key)))

    def t_dict(self) -> Dict[FrozenSet[int], Fraction]:
        return dict(self.t)

    def to_json(self) -> str:
        return json.dumps(
            {
                "forest": forest_to_newick(self.forest),
                "t": {",".join(map(str, sorted(e))): str(v) for e, v in self.t},
            }
        )

    @staticmethod
    def from_json(text: str) -> "CubePoint":
        d = _json_object(text, forest=str, t=dict)
        t = {frozenset(map(int, key.split(","))): _json_fraction(v, f"t {key}") for key, v in d["t"].items()}
        return CubePoint(forest_from_newick(d["forest"]), t)


def _json_fraction(v, where: str) -> Fraction:
    """A value read from a point file: a string such as "1/2", or an integer;
    a ValueError names the field where it could not be read."""
    if type(v) not in (str, int):
        raise ValueError(f'{where}: a value is a string such as "1/2" or an integer, not {json.dumps(v)}')
    try:
        return nonzero_denominator(Fraction, v)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def gamma(p: CubePoint) -> StarPoint:
    """The cube-to-star map: a gap's difference is the product of the edge
    values on its owner's root path (its leaves' meet), and 1 across trees.

    >>> t = {frozenset({1, 2, 3}): Fraction(1, 2), frozenset({2, 3}): Fraction(1, 3)}
    >>> gamma(CubePoint(PlanarForest([(1, (2, 3)), 4]), t)).diffs
    (Fraction(1, 2), Fraction(1, 6), Fraction(1, 1))
    """
    order, vertices, _, parent, owner = _tree_walk(p.forest)
    t = p.t_dict()
    prod: list = []  # per vertex: the product of t on its root path
    for e, q in zip(vertices, parent):
        prod.append(t[e] if q < 0 else prod[q] * t[e])
    return StarPoint(order, tuple(ONE if j < 0 else prod[j] for j in owner))


# ---------------------------------------------------------------------------
# the star equivalence


def star_equivalence_class(x: StarPoint):
    """The set partition into maximal consecutive blocks with difference
    below 1, together with the reduced per-block points.

    A block's point is its position function normalised to put the minimal
    label at zero; this is what two equivalent boundary representatives must
    share (orders may differ where positions coincide)."""
    blocks = [[x.order[0]]]
    block_diffs = [[]]
    for d, lab in zip(x.diffs, x.order[1:]):
        if d < 1:
            blocks[-1].append(lab)
            block_diffs[-1].append(d)
        else:
            blocks.append([lab])
            block_diffs.append([])
    part = SetPartition(blocks)
    reduced = {}
    for b, ds in zip(blocks, block_diffs):
        run = Fraction(0)
        pos = {b[0]: Fraction(0)}
        for lab, d in zip(b[1:], ds):
            run -= d  # positions decrease along the order
            pos[lab] = run
        base = pos[min(b)]
        reduced[frozenset(b)] = tuple(sorted((lab, p - base) for lab, p in pos.items()))
    return part, reduced


def star_related(x: StarPoint, y: StarPoint) -> bool:
    px, rx = star_equivalence_class(x)
    py, ry = star_equivalence_class(y)
    return px == py and rx == ry


def theta_star(x: StarPoint) -> NuTuple:
    """The star-to-flower map: distances are sums of reparameterized
    consecutive differences, extended off the fundamental domain by
    equivariance.  Returns the point in nu coordinates (nu = 1/delta).

    The finite f values are put over one common denominator, so a distance
    is a difference of int prefix sums over it; a pair with a difference of
    1 (f = inf) between them is at infinite distance, nu = 0."""
    n = x.n
    fd = [reparameterize(d) for d in x.diffs]  # INF at a difference of 1
    den = math.lcm(*(v.denominator for v in fd if v is not INF))
    # per position: the prefix sum of the finite f values times den
    sums = list(accumulate((0 if v is INF else v.numerator * (den // v.denominator) for v in fd), initial=0))
    rows = [lab - 1 for lab in x.order]
    nu = [PP_ZERO.h] * (n * (n - 1))
    start = 0
    for s, v in enumerate(fd + [INF]):
        if v is INF:  # positions start..s have no f = inf between them
            _write_distances(nu, n - 1, rows[start:s + 1], sums[start:s + 1], 1, den)
            start = s + 1
    return NuTuple._trusted(n, tuple(zip(_pair_keys(n), nu)), None)


def _write_distances(nu: list, n1: int, rows: list, prefix: list, num: int, den: int) -> None:
    """Fill nu, the triples of the ordered pairs of [n1 + 1] in order, for
    one block whose labels less one are rows: for each pair of positions
    r < s, a = rows[r] and c = rows[s], nu_ac = (den : diff) and
    nu_ca = (-den : diff) with diff = num (prefix[s] - prefix[r]).  Both are
    normalised by the one gcd of den > 0 and diff, as projective._triple
    would; diff = 0, where two leaves coincide, writes infinity to both."""
    inf = PP_INF.h
    for s, c in enumerate(rows):
        zc = prefix[s]
        for r in range(s):
            a = rows[r]
            diff = num * (zc - prefix[r])
            if diff:
                g = math.gcd(den, diff) if diff > 0 else -math.gcd(den, diff)  # so that diff // g > 0
                u, v = den // g, diff // g
                p, q = (u, 0, v), (-u, 0, v)
            else:
                p = q = inf
            nu[a * n1 + c - (c > a)] = p
            nu[c * n1 + a - (a > c)] = q


# ---------------------------------------------------------------------------
# tree charts


def b_map(tree, t: Dict[FrozenSet[int], Fraction]):
    """The chart reparameterization: on a binary tree with edge values in
    [0, 1] and trunk value below 1, b_trunk = f(t_trunk) and otherwise

        b_e = f(t_e * P) / f(P),  P the product over the edges below e,

    falling back to b_e = t_e when some edge below carries 0."""
    order, vertices, _, parent, _ = _tree_walk(_forest((tree,)))
    if len(vertices) != len(order) - 1:  # m leaves, m - 1 vertices: binary
        raise ValueError("charts are indexed by binary trees")
    tv = [Fraction(t[e]) for e in vertices]
    for e, v in zip(vertices, tv):
        if not 0 <= v <= 1:
            raise ValueError(f"edge {','.join(map(str, sorted(e)))}: value {v} outside [0, 1]")
    if tv and tv[0] == 1:  # vertices[0] is the trunk; a bare leaf has none
        raise ValueError("the chart needs trunk value < 1")
    bn, bd = _b_values(parent, tv)
    return {e: Fraction(num, den) for e, num, den in zip(vertices, bn, bd)}


def _b_values(parent, tv) -> Tuple[list, list]:
    """b_map on a walked tree, in ints: the t values, each in [0, 1] and the
    trunk's below 1, are listed by vertex in preorder, so each parent comes
    before its children; the b values come back as their numerators and
    their positive denominators, in lowest terms.  A vertex's t_e * P is its
    children's P, and its f(t_e * P) their f(P), so both are formed once per
    vertex, t_e * P with one gcd and f with none (_f_ints); a child's b is
    one quotient, reduced by one gcd.

    >>> _b_values([-1, 0, 1], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    ([2, 9, 175], [3, 35, 899])
    """
    pn: list = []  # t_e * P per vertex: numerators
    pd: list = []  # and denominators
    fn: list = []  # f(t_e * P) per vertex: numerators
    fd: list = []  # and denominators
    bn: list = []
    bd: list = []
    for t, p in zip(tv, parent):
        num, den = a, c = t.numerator, t.denominator
        if p >= 0:  # P is the parent's t * P
            a, c = a * pn[p], c * pd[p]
            g = math.gcd(a, c)
            a, c = a // g, c // g
        fa, fc = _f_ints(a, c)
        if p < 0:  # the trunk: b = f(t)
            num, den = fa, fc
        elif pn[p]:  # b = f(t_e * P) / f(P); otherwise P = 0 and b = t
            num, den = fa * fd[p], fc * fn[p]
            g = math.gcd(num, den)
            num, den = num // g, den // g
        pn.append(a)
        pd.append(c)
        fn.append(fa)
        fd.append(fc)
        bn.append(num)
        bd.append(den)
    return bn, bd


# Plans are kept in a bounded cache: a process evaluates charts on few
# distinct trees (criterion 10 uses 348), trees are immutable nested tuples,
# so a plan never goes stale, and the bound caps the memory that a stream of
# fresh trees can take.
_PLAN_CACHE = 1024


class _Plan(NamedTuple):
    """Everything about one chart evaluation that depends only on the tree.

    The tree is refined to a binary tree (the added edges carry the value 1)
    and walked in preorder.  The consecutive planar gaps z_r - z_{r+1} are
    monomials in the b values (the root path of the consecutive pair's
    meet); any pair difference is a contiguous sum of them, and any triple
    ratio is a pair of such sums divided by the common monomial of the
    spanning interval, the root path of the interval's meet c (which keeps
    the denominator's constant term alive when b values vanish).

    So each vertex c keeps the prefix sums of the gaps inside its span taken
    relative to c: a gap's relative value is the product of b over the edges
    on the path from its meet to c, c's own edge excluded, and it is 0
    exactly when a zero edge survives the cancellation.  The relative gaps
    of c are scaled to one common denominator, the lcm of its children's,
    so its prefix sums are ints; the prefix sums of all vertices are laid
    end to end, in preorder, in one flat list.  A ratio is a quotient of two
    differences of prefix sums at c, in which that denominator cancels: the
    three differences of an unordered triple give all six of its ratios.  A
    distance is a difference of the root's prefix sums times the root's b
    over the root's denominator.

    The int fields of a plan's own are flat and hold only small ints; what
    depends on the number of leaves alone (six) or on the labels alone
    (keys) is shared between plans."""

    part: FrozenSet[int]  # the leaf set
    labels: Tuple[int, ...]  # sorted
    order: Tuple[int, ...]  # the planar leaf order
    edges: tuple  # per vertex in preorder: its leaf set, or None on an added edge
    parent: Tuple[int, ...]  # per vertex: its parent's index, -1 at the root
    kids: Tuple[int, ...]  # per vertex: its left and right child vertices, -1 at a leaf
    # per x < y < z of range(len(labels)), in combinations order: the flat
    # prefix indices, at the meet of the three leaves, of the labels of
    # rank x, y and z; and where in `keys` their six ratios go
    triples: Tuple[int, ...]
    six: Tuple[int, ...]  # _six_slots(len(labels))
    keys: tuple  # ordered_triples(labels)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _triple_keys(labels: Tuple[int, ...]) -> tuple:
    return tuple(ordered_triples(labels))


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _pair_keys(n: int) -> tuple:
    return tuple(ordered_pairs(range(1, n + 1)))


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _six_slots(m: int) -> Tuple[int, ...]:
    """Per x < y < z of range(m), in combinations order, the indices among
    the ordered triples of range(m) of (x,y,z), (x,z,y), (y,x,z), (y,z,x),
    (z,x,y) and (z,y,x)."""
    index = {t: k for k, t in enumerate(permutations(range(m), 3))}
    return tuple(
        index[t]
        for x, y, z in combinations(range(m), 3)
        for t in ((x, y, z), (x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x))
    )


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _plan(tree) -> _Plan:
    btree, added = binary_refinement(tree)
    order, vertices, starts, parent, owner = _tree_walk(_forest((btree,)))
    kids = [-1] * (2 * len(vertices))
    for j in range(1, len(vertices)):  # a right child starts after its parent
        kids[2 * parent[j] + (starts[j] != starts[parent[j]])] = j
    offset = list(accumulate((len(v) for v in vertices), initial=0))
    m = len(order)
    # base[r0][r2]: the flat prefix index of position 0 at the meet of the
    # interval order[r0..r2], the first of its gap owners in preorder
    base = [[0] * m for _ in range(m)]
    for r0 in range(m - 1):
        c = owner[r0]
        for r2 in range(r0 + 1, m):
            c = min(c, owner[r2 - 1])
            base[r0][r2] = offset[c] - starts[c]
    labels = tuple(sorted(order))
    pos = {lab: r for r, lab in enumerate(order)}
    at = [pos[lab] for lab in labels]  # the position of each rank
    triples: list = []
    for x, y, z in combinations(range(m), 3):
        px, py, pz = at[x], at[y], at[z]
        b = base[min(px, py, pz)][max(px, py, pz)]
        triples += (b + px, b + py, b + pz)
    added = set(added)
    return _Plan(
        vertices[0], labels, tuple(order), tuple(None if v in added else v for v in vertices),
        tuple(parent), tuple(kids), tuple(triples), _six_slots(m), _triple_keys(labels),
    )


def _prefix_sums(kids, bn, bd) -> Tuple[list, int, int]:
    """The flat prefix sums of a plan's vertices at the b values (numerators
    bn and positive denominators bd, listed by vertex in preorder), and the
    root's b numerator and denominator times the root's common denominator,
    whose quotient scales a difference of the root's prefix sums to a
    distance."""
    count = len(kids) // 2
    gaps: list = [()] * count
    den = [1] * count
    for j in reversed(range(count)):  # children before parents
        left, right = kids[2 * j], kids[2 * j + 1]
        dl = bd[left] * den[left] if left >= 0 else 1
        dr = bd[right] * den[right] if right >= 0 else 1
        d = math.lcm(dl, dr)
        own = [d]  # a vertex's own gap is 1
        if left >= 0:
            scale = bn[left] * (d // dl)
            own[:0] = [scale * g for g in gaps[left]]
        if right >= 0:
            scale = bn[right] * (d // dr)
            own += [scale * g for g in gaps[right]]
        gaps[j], den[j] = own, d
    prefix: list = []
    for g in gaps:
        prefix += accumulate(g, initial=0)
    return prefix, bn[0], bd[0] * den[0]


def _ratios(plan: _Plan, prefix) -> list:
    """The triples of the ratios mu_ijk = (z_i - z_k)/(z_i - z_j) of a
    plan's triples, in the order of its keys; at the meet of i, j and k,
    z_a - z_c is a multiple, the same for all three, of the prefix sum at c
    less that at a.  The six ratios are three reciprocal pairs (u : v) and
    (v : u), both normalised by the one gcd of u and v, as projective._triple
    would."""
    mu: list = [None] * len(plan.keys)
    inf, gcd = PP_INF.h, math.gcd
    it, slots = iter(plan.triples), iter(plan.six)
    for ix, iy, iz, s0, s1, s2, s3, s4, s5 in zip(it, it, it, slots, slots, slots, slots, slots, slots):
        zx = prefix[ix]
        xy, xz = prefix[iy] - zx, prefix[iz] - zx
        if not (xy or xz):
            raise ValueError("degenerate ratio outside the chart domain")
        yz = xz - xy
        g = gcd(xz, xy)  # (x, y, z) and (x, z, y)
        u, v = xz // g, xy // g
        mu[s0] = (u, 0, v) if v > 0 else (-u, 0, -v) if v else inf
        mu[s1] = (v, 0, u) if u > 0 else (-v, 0, -u) if u else inf
        g = gcd(yz, xy)  # (y, x, z) and (y, z, x)
        u, v = -yz // g, xy // g
        mu[s2] = (u, 0, v) if v > 0 else (-u, 0, -v) if v else inf
        mu[s3] = (v, 0, u) if u > 0 else (-v, 0, -u) if u else inf
        g = gcd(yz, xz)  # (z, x, y) and (z, y, x)
        u, v = yz // g, xz // g
        mu[s4] = (u, 0, v) if v > 0 else (-u, 0, -v) if v else inf
        mu[s5] = (v, 0, u) if u > 0 else (-v, 0, -u) if u else inf
    return mu


def chart_H(tree, b: Dict[FrozenSet[int], Fraction]):
    """Evaluate the chart: per-pair distances (exact rationals) and the full
    tuple of triple ratios as projective points.

    Ratios whose denominators vanish come out at infinity via cancellation of
    the common positive monomial; a (0:0) ratio cannot arise on the chart
    domain because the factored denominator has constant term one.
    """
    plan = _plan(tree)
    if None in plan.edges:
        raise ValueError("charts are indexed by binary trees")
    bs = [b[e] for e in plan.edges]
    prefix, num, den = _prefix_sums(plan.kids, [v.numerator for v in bs], [v.denominator for v in bs])
    order, delta = plan.order, {}
    for s, c in enumerate(order):
        for r in range(s):
            d = Fraction(num * (prefix[s] - prefix[r]), den)
            delta[(order[r], c)], delta[(c, order[r])] = d, -d
    mu = _ratios(plan, prefix)
    return delta, MuTuple._trusted(plan.labels, tuple(zip(plan.keys, mu)))


def chart_b(tree, zdiffs: Dict[tuple, Fraction]):
    """Inverse direction of the chart coordinates: from the consecutive
    planar differences read off the b ratios,

        b_e = (z_i - z_j)/(z_k - z_l)

    with (i,j) meeting at the upper vertex of e and (k,l) at the lower (the
    trunk takes the bare difference)."""
    order, vertices, _, parent, owner = _tree_walk(_forest((tree,)))
    if len(vertices) != len(order) - 1:
        raise ValueError("charts are indexed by binary trees")
    diff = [None] * len(vertices)  # a binary vertex owns exactly one gap
    for r, j in enumerate(owner):
        diff[j] = zdiffs[order[r], order[r + 1]]
    return {e: d if p < 0 else d / diff[p] for e, d, p in zip(vertices, diff, parent)}


# ---------------------------------------------------------------------------
# the full chart map


@dataclass(frozen=True)
class ThetaImage:
    """A real cactus-flower point in chart coordinates: the tree partition,
    the nu tuple (cross-part distances are infinite, i.e. nu = 0), and the
    per-part triple ratios."""

    s_part: SetPartition
    nu: NuTuple
    mus: Tuple[Tuple[FrozenSet[int], MuTuple], ...]

    def mu_dict(self) -> Dict[FrozenSet[int], MuTuple]:
        return dict(self.mus)

    def b_part(self) -> SetPartition:
        """The coincidence partition: i ~ j iff the distance vanishes."""
        return partition_closure(self.nu.n, [(i, j) for (i, j), (_, _, v) in self.nu.nu if i < j and not v])


def _split(tree, t: dict) -> list:
    """The tree's plan, or the plans of the trees left by collapsing its
    trunks at value 1; a leaf stays a leaf."""
    if isinstance(tree, int):
        return [tree]
    plan = _plan(tree)
    if t[plan.part] != 1:
        return [plan]
    return [s for child in tree for s in _split(child, t)]


def theta(p: CubePoint) -> ThetaImage:
    """The chart map on a cube point.

    Trunk values equal to one are removed first by the collapse
    identification (splitting trees); each remaining tree is refined to a
    binary tree with value one on the added edges, reparameterized by
    b_map, and evaluated through its chart (_Plan).
    """
    t = p.t_dict()
    # by least label, so the parts and their mu tuples come out sorted
    plans = sorted((s for tree in p.forest.trees for s in _split(tree, t)),
                   key=lambda s: s if isinstance(s, int) else s.labels[0])
    parts = tuple(frozenset([s]) if isinstance(s, int) else s.part for s in plans)
    n = sum(map(len, parts))
    # the forest's labels are distinct, so the parts are disjoint blocks
    if min(parts[0]) < 1 or max(map(max, parts)) > n:
        raise ValueError("theta needs a forest on the labels 1..n")
    n1 = n - 1
    nu = [PP_ZERO.h] * (n * n1)  # nu = 0 is the infinite distance across trees
    mus = []
    for plan in plans:
        if isinstance(plan, int):
            continue
        # the added edges carry 1; the trunk is below 1 after the collapse
        bn, bd = _b_values(plan.parent, [ONE if e is None else t[e] for e in plan.edges])
        prefix, num, den = _prefix_sums(plan.kids, bn, bd)
        # the root's prefix sums come first, one per position of the order
        _write_distances(nu, n1, [lab - 1 for lab in plan.order], prefix, num, den)
        mu = _ratios(plan, prefix)
        mus.append((plan.part, MuTuple._trusted(plan.labels, tuple(zip(plan.keys, mu)))))
    return ThetaImage(
        SetPartition._trusted(parts),
        NuTuple._trusted(n, tuple(zip(_pair_keys(n), nu)), None),
        tuple(mus),
    )


def theta_images_equal(a: ThetaImage, b: ThetaImage) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# the inverse algorithm


def tree_of_configuration(zs: Dict[int, Fraction]) -> PlanarForest:
    """The unique planar tree whose open chart contains the configuration.

    The input is a labelled configuration of distinct rationals; the planar
    order of the output is by decreasing position (matching the charts).
    Top-down, each run of the order is a vertex, cut at its widest gaps
    into its children; the runs of two or more points are the spans of the
    tree's vertices, so tied gaps give one vertex with several children.

    >>> print(tree_of_configuration({1: 0, 2: 1, 3: 2, 4: 4}))
    (4,(3,2,1))
    """
    items = sorted(zs.items(), key=lambda kv: kv[1], reverse=True)
    if len(items) != len({v for _, v in zs.items()}):
        raise ValueError("positions must be distinct")
    pos = [Fraction(v) for _, v in items]
    gaps = [a - b for a, b in zip(pos, pos[1:])]
    spans: list = []  # in preorder, as _keeping reads them
    runs = [(0, len(items))]  # a stack of the runs left to cut
    while runs:
        lo, hi = runs.pop()
        if hi - lo > 1:
            spans.append((lo, hi))
            widest = max(gaps[lo : hi - 1])
            cuts = [lo] + [r + 1 for r in range(lo, hi - 1) if gaps[r] == widest] + [hi]
            runs += reversed(list(zip(cuts, cuts[1:])))  # the leftmost on top
    return _keeping([lab for lab, _ in items], spans)


def tree_of_projective_configuration(zs: Dict[int, Fraction]) -> PlanarForestWithZeros:
    """The same tree considered up to overall reversal, recorded by
    decorating the trunk with a zero."""
    if len(zs) < 2:
        raise ValueError("need at least two points")
    (tree,) = tree_of_configuration(zs).trees
    return PlanarForestWithZeros([tree], [zs.keys()])  # the trunk is above every label


# ---------------------------------------------------------------------------
# the analytic path (floating point by design)


@dataclass(frozen=True)
class PathPoint:
    """A sample of the twisting path: deformation parameter, the consecutive
    nu coordinates, and the triple ratios that stay meaningful at the wall."""

    epsilon: complex
    nu: Tuple[Tuple[Tuple[int, int], complex], ...]
    mu: Tuple[Tuple[Tuple[int, int, int], complex], ...]

    def mu_dict(self):
        return dict(self.mu)


def _float_f(x: float) -> float:
    if x >= 1:
        return math.inf
    return x / (1 - x * x)


def affine_cactus_path(n: int, k: int, t: float, s: float) -> PathPoint:
    """The path H(t, s) joining the k-interval reverser loop at s = 0 to its
    twisted-form representative at s = 1.

    For t in [0, 1/2): the point has consecutive coordinates

        nu_{j,j+1} = i s/2 + (s/2) cot(pi/n) - f(2t)        (j < k)
        nu_{j,j+1} = i s/2 + (s/2)((1-2t) cot(pi/n)
                                   + 2t cot(pi/(n-k+1)))    (j >= k)

    over epsilon = i s.  At t = 1/2 the first block hits infinity and the
    surviving chart carries mu_{j,j+1,j+2} = 2 exactly.  For t > 1/2 the
    path continues by the reflection H(t,s) = w_{1k}(H(1-t,s)).
    """
    if n < 3 or not 1 < k <= n:
        raise ValueError("need n >= 3 and 1 < k <= n")
    if not (0 <= t <= 1 and 0 <= s <= 1):
        raise ValueError("parameters lie in the unit square")
    if t > 0.5:
        base = affine_cactus_path(n, k, 1 - t, s)
        w = interval_reversal(1, k, n)
        nu = {(w(i), w(j)): v for (i, j), v in base.nu}
        mu = {(w(a), w(b), w(c)): v for (a, b, c), v in base.mu}
        return PathPoint(base.epsilon, tuple(sorted(nu.items())), tuple(sorted(mu.items())))

    eps = 1j * s
    cot_n = 1 / math.tan(math.pi / n)
    a = 1j * s / 2 + (s / 2) * cot_n - _float_f(2 * t)
    nu = {(j, j + 1): a for j in range(1, k)}
    if k < n:
        cot_m = 1 / math.tan(math.pi / (n - k + 1))
        b = 1j * s / 2 + (s / 2) * ((1 - 2 * t) * cot_n + 2 * t * cot_m)
        nu.update(((j, j + 1), b) for j in range(k, n))
    mu = {}
    if t == 0.5:
        for j in range(1, k - 1):
            mu[(j, j + 1, j + 2)] = 2.0
    else:
        # complete the remaining coordinates through the triangle relation;
        # a vanishing denominator only occurs on the all-zero block at the
        # s = 0 wall, where the completed coordinate vanishes too
        full = dict(nu)
        for span in range(2, n):
            for i in range(1, n - span + 1):
                j = i + span
                p, q = full[(i, j - 1)], full[(j - 1, j)]
                den = p + q - eps
                full[(i, j)] = (p * q / den) if den != 0 else 0j
        nu = full
        for j in range(1, n - 1):
            if nu[(j, j + 2)] != 0:
                mu[(j, j + 1, j + 2)] = nu[(j, j + 1)] / nu[(j, j + 2)]
    pairs = {}
    for (i, j), v in nu.items():
        pairs[(i, j)] = v
        pairs[(j, i)] = eps - v
    return PathPoint(eps, tuple(sorted(pairs.items())), tuple(sorted(mu.items())))


def path_sigma_residual(p: PathPoint) -> float:
    """max |conj(nu) - (nu - eps)| over the finite coordinates: zero exactly
    on the twisted real locus."""
    worst = 0.0
    for _, v in p.nu:
        if not cmath.isfinite(v):
            continue
        worst = max(worst, abs(v.conjugate() - (v - p.epsilon)))
    return worst
