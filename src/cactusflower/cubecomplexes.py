"""Cube complexes indexed by planar forests, and permutahedron cell
complexes indexed by ordered set partitions, together with the curvature and
local-isometry certificates and presentation extraction from 2-skeleta.

Complex kinds:

    D       cubes indexed by planar forests modulo flipping
    hatD    additionally modulo permuting the trees
    breveD  additionally modulo cyclically permuting the trees
    P       cells indexed by ordered set partitions
    hatP    modulo forgetting the order
    breveP  modulo cyclic rotation of the order

A cell of the P kinds is a tuple of blocks, each block a sorted tuple of
labels, in the order that combinatorics.arrange gives for the kind (the
same routine arranges the trees of a forest): as listed for P, sorted for
hatP, and rotated to start at the block of the smallest label for breveP.
Disjoint sorted blocks compare by their least labels, so no key is needed.
build_complex stores the arrangements of set_partitions as they come, as
they are already in this form; _canon_p_cell brings any block list to it.

For the cube complexes, a sub-k-cube is a forest with k internal edges (with
the tree order reduced per kind); the big k-cube containing it is its class
modulo flipping.  Only the sub-cubes are stored.  The flips at the k edges
of a sub-k-cube generate (Z/2)^k, and this group acts freely: flips keep each
tree's leaf set, so they cannot permute the trees, and they reverse the
children (distinct leaf sets) of the topmost flipped vertex.  So every big
k-cube has exactly 2^k sub-cubes.  Each sub-cube touches exactly one 0-cube,
reached by collapsing all its edges, and the link of a 0-cube has one vertex
per incident sub-1-cube and one (k-1)-simplex per incident sub-k-cube.  The
non-positive-curvature certificate checks Gromov's flag condition in exactly
this combinatorial form.

The certificates work on keys read off a sub-cube's leaf order in one pass,
without building face forests: forests._vertices lists the leaf order and
the span (lo, hi) of every internal vertex in preorder, and one loop over
those pairs builds the corner keys.  A corner of a sub-cube (a link vertex)
is its canonical 1-face: collapsing every edge but one leaves one corolla on
that edge's leaf span order[lo:hi].  A corner key tells apart the corners
at one vertex key (links are per 0-cube); i is the smallest label's place:

    D       vertex key: the leaf order;  corner key: (lo, hi)
    hatD    vertex key: () (a single 0-cube);  corner key: order[lo:hi]
    breveD  vertex key: the leaf order rotated to start at its smallest
            label;  corner key: ((lo - i) mod n, hi - lo) for n leaves

A vertex key names a 0-cube (the leaf order up to the kind's tree order),
and a corner key the run of that order the corolla gathers: by place, by
labels, or by place on the rotated order and length, which rotating the
trees keeps.  So (vertex key, corner key) and the 1-face determine each
other, and the corner keys of one sub-cube, whose vertices have distinct
spans, are distinct: a square has two distinct corners and a sub-k-cube
spans k link vertices; no check tests for repeated corners.

A sub-2-cube is determined by its 0-cube and its two corners (its two edge
spans on the vertex's leaf order), so a face of a higher sub-cube is present
exactly when its corner pair indexes a square at that cube's vertex.

A complex builds one indexed link per 0-cube with a sub-1-cube once, on
first use, for every certificate call on it (CubeComplex._links, from
_link_graph): it is frozen, so its links cannot go stale.  One pass over
the sub-1-cubes in forest_key order appends each to its 0-cube's _Link as
the next bit, and one pass over the sub-2-cubes sets two bits of the int
adjacency masks (one mask per corner) for each square whose corners are
both sub-1-cubes.  A higher sub-cube's corners map to a mask, which is a
link simplex when each corner's mask holds the others; the flag check keys
the simplices at a vertex by mask and grows its cliques on masks, lowest
bit first.  The local-isometry check sends each source link into one
target link, keyed there by corner key alone.  Its witnesses and the flag
check's cliques follow bit order, and the flag check's other witnesses
name the least faulty cube in forest_key order, so they depend on the
complex alone.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .combinatorics import arrange, arrangements, set_partitions
from .forests import (
    PlanarForest,
    _decorations,
    _forest,
    _forests_on,
    _vertices,
    canon_forest,
    collapse,
    collapse_all,
    flip,
    forest_key,
    forest_to_newick,
    leaves,
)
from .groups import Presentation, _in_ranks, _ranked_presentation, _word_key

D_KINDS = {"D": "ordered", "hatD": "unordered", "breveD": "cyclic"}
P_KINDS = {"P": "ordered", "hatP": "unordered", "breveP": "cyclic"}


# ---------------------------------------------------------------------------
# the forest cube complexes


@dataclass(frozen=True)
class CubeComplex:
    """A forest complex stores its sub-cubes only.  Its big cubes are formed
    by canon_big where they are listed, and f_vector counts one big k-cube
    per 2^k sub-k-cubes (the flips act freely; see the module docstring).
    It is frozen: a mutant (a negative control) is a new complex."""

    kind: str
    n: int
    subcubes: Mapping[int, frozenset] = field(default_factory=dict)  # D-family only
    cells: Mapping[int, frozenset] = field(default_factory=dict)  # P-family only

    def __post_init__(self):
        for name in ("subcubes", "cells"):  # read-only maps to frozensets
            object.__setattr__(self, name, MappingProxyType({k: frozenset(v) for k, v in getattr(self, name).items()}))

    @functools.cached_property
    def _links(self):
        """_link_graph(self), built on first use for every certificate."""
        return _link_graph(self)

    @property
    def is_cubical(self) -> bool:
        return self.kind in D_KINDS

    @property
    def dim(self) -> int:
        table = self.subcubes if self.is_cubical else self.cells
        return max((k for k, v in table.items() if v), default=0)

    def f_vector(self) -> Tuple[int, ...]:
        if not self.is_cubical:
            return tuple(len(self.cells.get(k, ())) for k in range(self.dim + 1))
        subs = [len(self.subcubes.get(k, ())) for k in range(self.dim + 1)]
        if any(m % (1 << k) for k, m in enumerate(subs)):
            raise ValueError(f"sub-cube counts {subs} are not whole big cubes")
        return tuple(m >> k for k, m in enumerate(subs))

    def counts(self) -> Dict[int, int]:
        return {k: c for k, c in enumerate(self.f_vector())}

    # --- cube-complex structure -------------------------------------------

    def canon_sub(self, f: PlanarForest) -> PlanarForest:
        return canon_forest(D_KINDS[self.kind], f, mod_flips=False)

    def canon_big(self, f: PlanarForest) -> PlanarForest:
        return canon_forest(D_KINDS[self.kind], f, mod_flips=True)

    def vertex_of(self, f: PlanarForest) -> PlanarForest:
        """sub_face(f, ()): the leaf order as bare leaves, in tree order.

        >>> print(CubeComplex("breveD", 4).vertex_of(PlanarForest([(3, 1), (4, 2)])))
        1;4;2;3
        """
        return self.canon_sub(_forest(f.leaf_order()))

    def sub_face(self, f: PlanarForest, keep) -> PlanarForest:
        keep = set(keep)
        return self.canon_sub(collapse_all(f, [e for e in f.edges() if e not in keep]))

    def vertices(self) -> list:
        return sorted(self.subcubes.get(0, ()), key=forest_key)


def build_complex(kind: str, n: int) -> CubeComplex:
    """Build one of the six complexes at the given rank."""
    if n < 2:
        raise ValueError("need n >= 2")
    if kind in D_KINDS:
        labels, memo = tuple(range(1, n + 1)), {}  # one tree table
        return CubeComplex(kind, n, {
            k: frozenset(map(_forest, _forests_on(labels, k, D_KINDS[kind], 1, memo))) for k in range(n)
        })
    if kind in P_KINDS:
        partitions = list(set_partitions(range(1, n + 1)))
        return CubeComplex(kind, n, cells={k: frozenset(
            parts for blocks in partitions if len(blocks) == n - k for parts in arrangements(P_KINDS[kind], blocks)
        ) for k in range(n)})
    raise ValueError(f"unknown complex kind {kind!r}")


def _canon_p_cell(kind: str, parts) -> Tuple[Tuple[int, ...], ...]:
    """The stored form of the cell with these blocks (see the module
    docstring)."""
    return arrange(P_KINDS[kind], tuple(tuple(sorted(b)) for b in parts), None)


# ---------------------------------------------------------------------------
# the curvature certificate


@dataclass
class FlagReport:
    """cliques maps k to the number of k-cliques of the vertex links, summed
    over the 0-cubes, when the check passes: one per sub-k-cube."""

    ok: bool
    witness: Optional[tuple] = None
    detail: str = ""
    cliques: Dict[int, int] = field(default_factory=dict)

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "flag condition holds" if self.ok else f"FAIL: {self.detail} {self.witness}"


def _link_keys(kind: str, sigma: PlanarForest):
    """(vertex key, corner keys in edges() order) of a sub-cube, for a
    D_KINDS value `kind`, from one leaf-order pass (see the module
    docstring).  Any representative of sigma's class gives the same keys.

    >>> f = PlanarForest([((1, (2, 3)), 4)])
    >>> for kind in ("ordered", "cyclic", "unordered"): print(_link_keys(kind, f))
    ((1, 2, 3, 4), [(0, 4), (0, 3), (1, 3)])
    ((1, 2, 3, 4), [(0, 4), (0, 3), (1, 2)])
    ((), [(1, 2, 3, 4), (1, 2, 3), (2, 3)])
    """
    order, spans = _vertices(sigma)
    order = tuple(order)
    if kind == "ordered":
        return order, spans
    corners = []
    if kind == "unordered":
        for lo, hi in spans:
            corners.append(order[lo:hi])
        return (), corners
    n, i = len(order), order.index(min(order))
    for lo, hi in spans:
        corners.append(((lo - i) % n, hi - lo))
    return order[i:] + order[:i], corners


class _Link:
    """The link of one 0-cube, indexed: its vertices are bits of an int.

    ones[i] is the incident sub-1-cube of bit i, in forest_key order; bit
    maps the corner key of each to its bit; rows[i] is the mask of the bits
    joined to bit i by a square."""

    __slots__ = ("ones", "bit", "rows")

    def __init__(self):
        self.ones, self.bit, self.rows = [], {}, []

    def span(self, corners) -> Optional[int]:
        """The mask of the corners if they are pairwise joined, else None."""
        bit, rows = self.bit, self.rows
        mask, common = 0, -1  # common: the bits every corner is or is joined to
        try:
            for a in corners:
                i = bit[a]
                mask |= 1 << i
                common &= rows[i] | 1 << i
        except KeyError:
            return None
        return mask if common & mask == mask else None


_NO_LINK = _Link()  # the link at a 0-cube with no sub-1-cube


def _link_graph(c: CubeComplex):
    """The indexed links at every 0-cube of a cube complex, in one pass over
    its sub-1-cubes in forest_key order and one over its sub-2-cubes.

    Returns (links, open_square, doubled): links maps the vertex key of each
    0-cube with a sub-1-cube to its _Link.  A square joins its corners only
    when both are sub-1-cubes; open_square is the least square, in
    forest_key order, that does not, or None.  doubled is 1 when two
    squares join one corner pair, else 0.  The sort gives the bits, and so
    the witnesses, their order: the enumerator promises none.
    """
    kind = D_KINDS[c.kind]
    links: Dict[tuple, _Link] = {}
    for s1 in sorted(c.subcubes.get(1, ()), key=forest_key):
        v, (a,) = _link_keys(kind, s1)
        link = links.get(v)
        if link is None:
            link = links[v] = _Link()
        link.bit[a] = len(link.ones)
        link.ones.append(s1)
        link.rows.append(0)
    opened, doubled = [], 0
    for sq in c.subcubes.get(2, ()):
        v, (a, b) = _link_keys(kind, sq)
        link = links.get(v, _NO_LINK)
        bit = link.bit
        if a not in bit or b not in bit:
            opened.append(sq)
            continue
        i, j = bit[a], bit[b]
        rows = link.rows
        doubled |= rows[i] >> j & 1
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return links, min(opened, key=forest_key, default=None), doubled


def _twin_fault(c: CubeComplex, k: int, detail: str) -> FlagReport:
    """The failed report when two sub-k-cubes have one vertex and one corner
    set: in forest_key order, the first sub-k-cube whose vertex and corners
    an earlier one has, after that earlier one."""
    kind = D_KINDS[c.kind]
    first: dict = {}
    for sigma in sorted(c.subcubes[k], key=forest_key):
        v, corners = _link_keys(kind, sigma)
        twin = first.setdefault((v, frozenset(corners)), sigma)
        if twin is not sigma:
            return FlagReport(False, (forest_to_newick(twin), forest_to_newick(sigma)), detail)
    raise AssertionError("a repeated corner set has two cubes")


def check_gromov_flag(c: CubeComplex) -> FlagReport:
    """Certify non-positive curvature combinatorially.

    Checks, at every 0-cube: the two corners of each sub-2-cube are present
    and determine it uniquely, and every clique of sub-1-cubes pairwise
    joined by sub-2-cubes spans a unique sub-cube.  A missing face is
    reported with the cube and the expected face as witness; a passing
    report counts the cliques it visited per size.  A failure names the
    least faulty cube in forest_key order, so it depends on the complex alone.
    """
    if not c.is_cubical:
        raise ValueError("the flag certificate needs subcube data (a cube complex)")
    kind = D_KINDS[c.kind]
    links, open_square, doubled = c._links

    # face closure: both corners of every square are sub-1-cubes ...
    if open_square is not None:
        v, corners = _link_keys(kind, open_square)
        bit_v = links.get(v, _NO_LINK).bit
        missing = next(e for e, a in zip(open_square.edges(), corners) if a not in bit_v)
        return FlagReport(
            False,
            (forest_to_newick(open_square), forest_to_newick(c.sub_face(open_square, [missing]))),
            "missing edge face",
        )

    # ... and every corner pair of a higher sub-cube spans a square at its
    # vertex.  The same pass indexes the higher link simplices by corner mask.
    simplices: Dict[tuple, Dict[int, PlanarForest]] = {v: {} for v in links}
    twin_k = None  # the least k at which two sub-k-cubes span one simplex
    for k in range(3, c.dim + 1):
        unspanned = []
        for sigma in c.subcubes.get(k, ()):
            v, corners = _link_keys(kind, sigma)
            link = links.get(v, _NO_LINK)
            mask = link.span(corners)
            if mask is None:  # forest_key tells distinct sub-cubes apart
                unspanned.append((forest_key(sigma), sigma, link, corners))
            elif twin_k is None:
                at_v = simplices[v]  # a spanned mask has its corners in links[v]
                if mask in at_v:
                    twin_k = k
                at_v[mask] = sigma
        if unspanned:
            _, sigma, link, corners = min(unspanned)
            a, b = next(pair for pair in itertools.combinations(corners, 2) if link.span(pair) is None)
            edge = dict(zip(corners, sigma.edges()))
            face = c.sub_face(sigma, (edge[a], edge[b]))
            return FlagReport(False, (forest_to_newick(sigma), forest_to_newick(face)), "missing square face")
    if doubled:
        return _twin_fault(c, 2, "two squares on the same corner pair")
    if twin_k is not None:
        return _twin_fault(c, twin_k, "two cubes span the same link simplex")

    # flagness: every clique spans a unique simplex; the 2-cliques are the
    # squares themselves.  A clique grows by its lowest joined candidate
    # first, so cliques come in the forest_key order of their corners.
    cliques = [0] * (c.dim + 2)
    for v, link in links.items():
        rows = link.rows
        higher = simplices[v]
        for i, row in enumerate(rows):
            bad = _extend(1 << i, 1, row >> (i + 1) << (i + 1), rows, higher, cliques)
            if bad is not None:
                clique = [s1 for j, s1 in enumerate(link.ones) if bad >> j & 1]
                return FlagReport(
                    False,
                    (forest_to_newick(c.vertex_of(clique[0])), tuple(map(forest_to_newick, clique))),
                    f"{len(clique)}-clique spans no cube",
                )
    return FlagReport(True, cliques={k: cliques[k] for k in range(1, c.dim + 1)})


def _extend(mask: int, size: int, cands: int, rows: list, higher: dict, cliques: list):
    """Count the clique mask and the cliques grown from it, lowest candidate
    first; return the first of 3 or more that spans no simplex, or None."""
    cliques[size] += 1
    if size >= 3 and mask not in higher:
        return mask
    while cands:
        low = cands & -cands
        cands ^= low
        bad = _extend(mask | low, size + 1, cands & rows[low.bit_length() - 1], rows, higher, cliques)
        if bad is not None:
            return bad
    return None


def remove_subcube(c: CubeComplex, sigma: PlanarForest) -> CubeComplex:
    """A mutated copy with one subcube deleted (negative-control tool)."""
    k = sigma.num_edges()
    if sigma not in c.subcubes.get(k, ()):
        raise ValueError("subcube not present")
    return CubeComplex(c.kind, c.n, {d: v - {sigma} if d == k else v for d, v in c.subcubes.items()})


# ---------------------------------------------------------------------------
# combinatorial maps and the local-isometry certificate


@dataclass
class CombinatorialMap:
    source: CubeComplex
    target: CubeComplex
    name: str

    def apply(self, f: PlanarForest) -> PlanarForest:
        return self.target.canon_sub(f)


def quotient_map(source: CubeComplex, target: CubeComplex) -> CombinatorialMap:
    order = ["D", "breveD", "hatD"]
    if source.kind not in order or target.kind not in order:
        raise ValueError("quotient maps are between the forest cube complexes")
    if order.index(source.kind) > order.index(target.kind) or source.n != target.n:
        raise ValueError(f"no quotient map {source.kind} -> {target.kind}")
    return CombinatorialMap(source, target, f"{source.kind}->{target.kind}")


@dataclass
class IsometryReport:
    ok: bool
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def _isometry_fault(x: PlanarForest, y: PlanarForest, detail: str) -> IsometryReport:
    return IsometryReport(False, (forest_to_newick(x), forest_to_newick(y)), detail)


def check_local_isometry(phi: CombinatorialMap) -> IsometryReport:
    """Certify that phi is a local isometry, one source 0-cube at a time.

    The link of a source 0-cube must go into the target vertex link at its
    first sub-1-cube's image, onto sub-1-cubes there, injectively, and two
    sub-1-cubes must span a square exactly when their images do.  Only
    squares are compared: the verdict is sound for complexes that pass
    check_gromov_flag, whose links are flag.  A failure names two source
    sub-1-cubes (in bit order), or one and its image.

    >>> d, bd = build_complex("D", 3), build_complex("breveD", 3)
    >>> check_local_isometry(quotient_map(d, bd)).ok
    True
    >>> less = remove_subcube(bd, min(bd.subcubes[1], key=forest_key))
    >>> rep = check_local_isometry(quotient_map(d, less))
    >>> rep.detail, rep.witness
    ('image is no sub-1-cube of the target', ('1;(2,3)', '1;(2,3)'))
    """
    src, dst = phi.source, phi.target
    dst_kind = D_KINDS[dst.kind]
    dst_links = dst._links[0]

    for link in src._links[0].values():
        images = {}  # image corner key -> source bit
        for si, s1 in enumerate(link.ones):
            image = phi.apply(s1)
            vi, (im,) = _link_keys(dst_kind, image)
            if not images:  # the first image names the target 0-cube
                home, target = vi, dst_links.get(vi, _NO_LINK)
            if vi != home:
                return _isometry_fault(link.ones[0], s1, "link not sent into one vertex link")
            if im in images:
                return _isometry_fault(link.ones[images[im]], s1, "link not injective")
            if im not in target.bit:
                return _isometry_fault(s1, image, "image is no sub-1-cube of the target")
            images[im] = si
        tbits = [target.bit[im] for im in images]  # the target bit of each source bit
        for si, ti in enumerate(tbits):
            trow, srow = target.rows[ti], link.rows[si]
            for sj in range(si + 1, len(tbits)):
                joined = trow >> tbits[sj] & 1
                if joined != srow >> sj & 1:
                    detail = ("image square has no preimage square" if joined
                              else "square's image is no square of the target")
                    return _isometry_fault(link.ones[si], link.ones[sj], detail)
    return IsometryReport(True)


# ---------------------------------------------------------------------------
# cubical subdivision


@dataclass
class Subdivision:
    complex: CubeComplex
    little: Dict[int, set]  # dim -> set of canonical zero-forests

    def counts(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.little.items())}


def cubical_subdivision(c: CubeComplex) -> Subdivision:
    """Little cubes indexed by zero-decorated forests: the dimension is the
    number of undecorated internal edges, and forgetting the decoration is
    the embedding into the big cubes.  The cells are zero-forests with their
    trees in the order of the complex's kind."""
    if not c.is_cubical:
        raise ValueError("subdivision applies to the forest cube complexes")
    kind = D_KINDS[c.kind]
    little: Dict[int, set] = {}
    for k in range(c.n):
        for sub in c.subcubes.get(k, ()):
            for r, cell in _decorations(kind, sub):
                little.setdefault(k - r, set()).add(cell)
    return Subdivision(c, little)


# ---------------------------------------------------------------------------
# 1-skeleta, 2-cell boundaries, presentation extraction


def _edge_symbol_D(c: CubeComplex, sigma: PlanarForest):
    if c.kind == "hatD":
        for t in sigma.trees:
            if not isinstance(t, int):
                return ("sA", tuple(leaves(t)))
        raise AssertionError
    return ("e", forest_to_newick(sigma))


def _boundary_words_D(c: CubeComplex):
    """Boundary walks of the big squares, as directed sub-1-cube lists."""
    walks = []
    for big in sorted({c.canon_big(s) for s in c.subcubes.get(2, ())}, key=forest_key):
        e, f = big.edges()
        sides = [
            collapse(big, e),
            collapse(flip(big, f), f),
            collapse(flip(flip(big, e), f), e),
            collapse(flip(big, e), f),
        ]
        walks.append([c.canon_sub(s) for s in sides])
    return walks


def skeleton_D(c: CubeComplex):
    """(vertices, directed edge table) of the 1-skeleton.

    The directed 1-cells are the sub-1-cubes (a direction of a 1-cube is the
    choice of which sub-1-cube is traversed first); the reverse of one is its
    flip at its edge.  Each directed edge is (symbol, start, end,
    partner_symbol).
    """
    table = {}
    for sigma in sorted(c.subcubes.get(1, ()), key=forest_key):
        sym = _edge_symbol_D(c, sigma)
        (e,) = sigma.edges()
        rev = c.canon_sub(flip(sigma, e))
        table[sym] = (
            forest_to_newick(c.vertex_of(sigma)),
            forest_to_newick(c.vertex_of(rev)),
            _edge_symbol_D(c, rev),
        )
    return [forest_to_newick(v) for v in c.vertices()], table


def _p_cell_str(kind: str, cell) -> str:
    """[1|2,3] for P, {1|2,3} for hatP, (1|2,3) for breveP."""
    left, right = {"P": "[]", "hatP": "{}", "breveP": "()"}[kind]
    return left + "|".join(",".join(map(str, b)) for b in cell) + right


def skeleton_P(c: CubeComplex):
    """Directed edges of a permutahedron quotient: (pair (x, y), context).

    A directed 1-cell is the traversal from the refinement with x before y.
    For the plain permutahedron the context is the full ordered partition.
    """
    name = functools.partial(_p_cell_str, c.kind)
    table = {}
    for cell in sorted(c.cells.get(1, ()), key=name):
        fat = next(b for b in cell if len(b) == 2)
        x, y = fat
        for (u, vv) in ((x, y), (y, x)):
            sym = _p_edge_symbol(c, cell, (u, vv))
            start = _p_refined_vertex(c, cell, fat, (u, vv))
            end = _p_refined_vertex(c, cell, fat, (vv, u))
            table[sym] = (start, end, _p_edge_symbol(c, cell, (vv, u)))
    verts = sorted({name(v) for v in c.cells.get(0, ())})
    return verts, table


def _p_edge_symbol(c: CubeComplex, cell, pair):
    if c.kind == "hatP":
        return ("sig", pair[0], pair[1])
    return ("pe", _p_cell_str(c.kind, cell), pair)


def _p_refined_vertex(c: CubeComplex, cell, fat, pair) -> str:
    i = cell.index(fat)
    split = cell[:i] + (pair[:1], pair[1:]) + cell[i + 1 :]
    return _p_cell_str(c.kind, _canon_p_cell(c.kind, split))


def _boundary_words_P(c: CubeComplex):
    """Boundary walks of squares and hexagons as directed-pair letters.

    Each letter is (edge cell, (x, y)).  A walk starts at the refinement that
    lists every fat part in increasing order and swaps, in turn, the first
    and the second adjacent pair inside a fat part (a square's two fat pairs,
    or the two pairs of a hexagon's triple); the edge cell of a swap merges
    that pair only.  The walk stops when it is back at the start.
    """
    walks = []
    for cell in sorted(c.cells.get(2, ()), key=functools.partial(_p_cell_str, c.kind)):
        start = [x for b in cell for x in b]
        owner = [k for k, b in enumerate(cell) for _ in b]
        sites = [q for q in range(len(start) - 1) if owner[q] == owner[q + 1]]
        one = {x: (x,) for x in start}  # shared by every step
        order, seq = list(start), []
        while not seq or order != start:
            q = sites[len(seq) % 2]
            pair = (order[q], order[q + 1])
            parts = [one[x] for x in order[:q]] + [pair] + [one[x] for x in order[q + 2:]]
            seq.append((_canon_p_cell(c.kind, parts), pair))
            order[q], order[q + 1] = pair[1], pair[0]
        walks.append(seq)
    return walks


def extract_presentation(c: CubeComplex) -> Presentation:
    """Generators: directed 1-cells (with the reversal pairing); relators:
    boundary words of the 2-cells, rewritten over a spanning tree when the
    complex has several 0-cells, then freely reduced."""
    if c.is_cubical:
        verts, table = skeleton_D(c)
        walks = [[_edge_symbol_D(c, s) for s in walk] for walk in _boundary_words_D(c)]
    else:
        verts, table = skeleton_P(c)
        walks = [[_p_edge_symbol(c, ecell, pair) for ecell, pair in walk] for walk in _boundary_words_P(c)]

    partner = {sym: info[2] for sym, info in table.items()}
    # spanning tree over the 1-skeleton
    adj: Dict[str, list] = {v: [] for v in verts}
    for sym, (start, end, _rev_sym) in table.items():
        adj[start].append((end, sym))
    in_tree = set()
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for (w, sym) in sorted(adj[v], key=lambda t: _word_key((t[1],))):
                if w not in seen:
                    seen.add(w)
                    in_tree.add(sym)
                    in_tree.add(partner[sym])
                    nxt.append(w)
        frontier = nxt
    if seen != set(verts):
        raise ValueError("complex is not connected")

    gens = tuple(sym for sym in sorted(table, key=lambda s: _word_key((s,))) if sym not in in_tree)
    genset = set(gens)
    words = (_free_reduce(tuple(x for x in walk if x in genset), partner) for walk in walks)
    return _ranked_presentation(
        f"extracted-{c.kind}", c.n, gens, partner, _in_ranks(word for word in words if word)
    )


def _free_reduce(word, partner):
    out = []
    for x in word:
        if out and partner.get(out[-1]) == x:
            out.pop()
        else:
            out.append(x)
    # cyclic reduction
    while len(out) >= 2 and partner.get(out[0]) == out[-1]:
        out = out[1:-1]
    return tuple(out)


def presentations_match(a: Presentation, b: Presentation) -> bool:
    """Equality of presentations in the declared sense: same generator set
    with the same inverse pairing, and the same set of relators up to cyclic
    rotation and inversion."""
    if set(a.generators) != set(b.generators):
        return False
    pa, pb = dict(a.partner), dict(b.partner)
    for g in a.generators:
        if pa[g] != pb.get(g, pa[g]):
            return False

    # the pairings agree where both are given, so pa serves both sides
    def canonical_relators(p: Presentation):
        words = (r for r in p.relators if len(r) != 2 or r[0] != r[1])
        return _ranked_presentation(p.family, p.n, a.generators, pa, _in_ranks(words)).relators

    return canonical_relators(a) == canonical_relators(b)


# ---------------------------------------------------------------------------
# exports


def export_dot(c: CubeComplex) -> str:
    """The 1-skeleton in DOT format."""
    verts, table = skeleton_D(c) if c.is_cubical else skeleton_P(c)
    lines = ["graph skeleton {", *(f'  "{v}";' for v in verts)]
    seen = set()
    for sym, (start, end, rev) in sorted(table.items(), key=lambda kv: str(kv[0])):
        if rev in seen:
            continue
        seen.add(sym)
        lines.append(f'  "{start}" -- "{end}" [label="{sym}"];')
    lines.append("}")
    return "\n".join(lines)


def export_poset(c: CubeComplex) -> str:
    """The graded cell poset with faces, as JSON."""
    out: Dict[str, dict] = {}
    if c.is_cubical:
        for k in sorted(c.subcubes):
            cells = {}
            for big in sorted({c.canon_big(s) for s in c.subcubes[k]}, key=forest_key):
                faces = set()
                for e in big.edges():
                    faces.add(forest_to_newick(c.canon_big(collapse(big, e))))
                    faces.add(forest_to_newick(c.canon_big(collapse(flip(big, e), e))))
                cells[forest_to_newick(big)] = sorted(faces)
            out[str(k)] = cells
    else:
        name = functools.partial(_p_cell_str, c.kind)
        for k in sorted(c.cells):
            cells = {}
            for cell in sorted(c.cells[k], key=name):
                faces = set()
                for bi, blk in enumerate(cell):
                    for r in range(1, len(blk)):
                        for sub in itertools.combinations(blk, r):
                            rest = tuple(x for x in blk if x not in sub)
                            split = cell[:bi] + (sub, rest) + cell[bi + 1 :]
                            faces.add(name(_canon_p_cell(c.kind, split)))
                cells[name(cell)] = sorted(faces)
            out[str(k)] = cells
    return json.dumps(out, sort_keys=True)
