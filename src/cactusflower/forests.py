"""Planar rooted forests and their flip / collapse calculus.

A subtree is either a leaf label (int) or a tuple of at least two subtrees,
giving the ordered ascending edges at an internal vertex.  A tree of a forest
hangs from its own root by a trunk; the trunk is an internal edge unless the
tree is a bare leaf.  Internal edges are identified with their upper vertices,
and an upper vertex is identified by the frozenset of leaf labels above it
(distinct vertices of a forest always carry distinct leaf sets, so this gives
stable edge ids that survive flips and collapses of other edges).

Forests are enumerated from set partitions of the labels: one planar tree
per block, then the trees arranged in every order a complex kind tells apart.
Only "cyclic" and "unordered" sort the trees, as their canonical forms need,
so the yield order is not fixed: enumerate_planar_forests sorts by forest_key.

Flipping at an edge mirrors the whole subtree above it.  Collapsing a
non-trunk edge splices the children into the parent; collapsing a trunk
splits the tree into the consecutive sequence of its top-level subtrees.

Forests are ordered by forest_key, a flat int code of the tree sequence: a
leaf x is the two tokens 1, x and a vertex is 2, its children's codes, then
0.  The code is prefix-free, so comparing two codes compares the trees one
by one, a leaf before a vertex, leaves by label, and a vertex's children in
order, the shorter child list first when one is a prefix of the other.

The canonical forms of plain forests need no keys.  Two subtrees with
disjoint leaf sets, such as two children of one vertex or two trees of one
forest, compare in that order as their leftmost leaves do, by (depth,
label) (_leftmost): the codes first differ on the leftmost path.  So a tree
modulo flips orients each vertex by comparing the leftmost leaves of its
canonical first and last child, and a forest's trees are sorted, or rotated
to put the least first, by their leftmost leaves.

Zero-decorated forests mark a subset of internal edges; they are considered
up to flips at the marked edges only.  One is stored as a canonical
PlanarForest plus the frozenset of its decorated edges (leaf sets, which
flips do not change).  The canonical trees come from one bottom-up pass that
returns, for every subtree, two forms: the minimum of its flip orbit and the
minimum over the mirrors of that orbit.  At an undecorated vertex the orbit
is the product of the children's orbits, so its minimum keeps the children's
minima in order, and the mirrored orbit's minimum is the children's mirror
minima in reverse order.  At a decorated vertex the orbit is the union of
those two sets and is closed under mirroring, so both forms are the smaller
of the two.  These minima are taken by a key that orders a leaf as
(0, label) and a vertex as (1, decorated flag, child keys), and the tree
sequence is then arranged per complex kind as canon_forest arranges it.
Bushy forests allow roots of degree greater than one and are considered up
to order reversal at non-root vertices.

At the API, edges are always leaf-set frozensets.  Internally, flip and
collapse find their vertex by its int leaf mask (bit x set for every leaf x
above it), ORed up from the leaves.  A vertex returns its mask while the
edge is not found; once it is, the vertex returns its rebuilt tuple instead,
the caller tells the two apart by type and stops walking, so only the path
down to the edge is rebuilt and every other subtree, and every other tree,
is kept as the same object.  The other passes read a vertex as its span
(start, stop) of the planar leaf order, listed in preorder by _spans:
collapse_all and the certificates' keys directly; meet, gamma and the charts
through _tree_walk, which adds each vertex's leaf set and parent and each
gap's owner; tree_of_configuration by building spans for _keeping.  edges()
keeps its own walk (_leafsets): read off spans, it was slower at n = 5.
PlanarForest(...) validates its trees (ordered children, at least two per
internal vertex, distinct non-negative int labels); forests derived here
from valid ones skip that (_forest sets the slot directly).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import FrozenSet, Iterable, Sequence, Tuple, Union

from .combinatorics import Permutation, arrange, arrangements, set_partitions

Subtree = Union[int, tuple]


class NoMeetError(LookupError):
    """Raised when two leaves are equal or lie in different trees."""


# ---------------------------------------------------------------------------
# basic subtree helpers


def leaves(s: Subtree) -> list[int]:
    if isinstance(s, int):
        return [s]
    out: list[int] = []
    for c in s:
        if isinstance(c, int):
            out.append(c)
        else:
            out += leaves(c)
    return out


def leafset(s: Subtree) -> FrozenSet[int]:
    return frozenset(leaves(s))


def mirror(s: Subtree) -> Subtree:
    """The subtree with every child list reversed, the planar mirror image.

    >>> mirror(((1, (2, 3)), 4))
    (4, ((3, 2), 1))
    """
    if isinstance(s, int):
        return s
    kids = []
    for c in reversed(s):
        kids.append(c if isinstance(c, int) else mirror(c))
    return tuple(kids)


def _validate(s: Subtree) -> None:
    if isinstance(s, int):
        if s < 0:
            raise ValueError(f"leaf labels must be non-negative: {s!r}")
        return
    if not isinstance(s, tuple) or len(s) < 2:
        raise ValueError(f"internal vertex needs >= 2 ordered children: {s!r}")
    for c in s:
        _validate(c)


def _leafsets(s: tuple, order: list, out: list) -> None:
    """Append s's leaves to order and the leaf set of every internal vertex
    of s to out, in preorder."""
    i = len(out)
    out.append(None)
    start = len(order)
    for c in s:
        if isinstance(c, int):
            order.append(c)
        else:
            _leafsets(c, order, out)
    out[i] = frozenset(order[start:])


@dataclass(frozen=True, slots=True)
class PlanarForest:
    """An ordered sequence of planar rooted trees with distinct leaf labels."""

    trees: Tuple[Subtree, ...]

    def __init__(self, trees: Iterable[Subtree]):
        ts = tuple(trees)
        labels = []
        for t in ts:
            _validate(t)
            labels.extend(leaves(t))
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate leaf labels")
        object.__setattr__(self, "trees", ts)

    @property
    def labels(self) -> FrozenSet[int]:
        return frozenset(self.leaf_order())

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> list[FrozenSet[int]]:
        """Internal edges, as leaf sets of their upper vertices, in preorder."""
        order: list = []
        out: list = []
        for t in self.trees:
            if not isinstance(t, int):
                _leafsets(t, order, out)
        return out

    def num_edges(self) -> int:
        return len(self.edges())

    def leaf_order(self) -> Tuple[int, ...]:
        out = []
        for t in self.trees:
            out.extend(leaves(t))
        return tuple(out)

    def __str__(self):
        return forest_to_newick(self)


_set_trees = PlanarForest.trees.__set__  # the slot's setter, past the frozen __setattr__


def _forest(trees: tuple) -> PlanarForest:
    """A PlanarForest on trees known to be valid, built without the checks
    of the public constructor."""
    f = object.__new__(PlanarForest)
    _set_trees(f, trees)
    return f


def total_order(forest: PlanarForest) -> Permutation:
    """The depth-first leaf reading order, as a permutation when labels = [n].

    >>> total_order(PlanarForest([((1, (2, 3)), 4)])).images
    (1, 2, 3, 4)
    """
    order = forest.leaf_order()
    if set(order) != set(range(1, len(order) + 1)):
        raise ValueError("labels are not [n]; use leaf_order() instead")
    return Permutation(order)


# ---------------------------------------------------------------------------
# flip and collapse
#
# flip and collapse walk the trees in order and stop at the vertex whose
# leaf mask equals their edge's (see the module docstring).  The other
# passes read a vertex as its span of the planar leaf order: the leaves
# above a vertex are an interval of that order, so contracting edges only
# regroups it, and each surviving vertex keeps its interval, nested as
# before.


def _edge_mask(edge: Iterable[int]) -> int:
    m = 0
    try:
        for x in edge:
            m |= 1 << x
    except (TypeError, ValueError):
        raise ValueError(f"not an internal edge: {set(edge)}") from None
    return m


def _flip_at(s: tuple, target: int):
    """s's leaf mask if no vertex of s has the target mask, else s with the
    subtree above that vertex mirrored.  Only the path to it is rebuilt:
    subtrees without that vertex come back as the same objects."""
    m = 0
    for c in s:
        if isinstance(c, int):
            m |= 1 << c
        else:
            r = _flip_at(c, target)
            if not isinstance(r, int):
                i = s.index(c)  # found once per vertex on the path
                return s[:i] + (r,) + s[i + 1 :]
            m |= r
    return mirror(s) if m == target else m


def flip(forest: PlanarForest, edge: FrozenSet[int]) -> PlanarForest:
    """Mirror the subtree above the given internal edge.

    >>> print(flip(PlanarForest([((1, (2, 3)), 4)]), frozenset({1, 2, 3})))
    (((3,2),1),4)
    """
    target = _edge_mask(edge)
    trees = forest.trees
    for i, t in enumerate(trees):
        if not isinstance(t, int):
            r = _flip_at(t, target)
            if not isinstance(r, int):
                return _forest(trees[:i] + (r,) + trees[i + 1 :])
    raise ValueError(f"not an internal edge: {set(edge)}")


def _splice_at(s: tuple, target: int):
    """s's leaf mask if no vertex strictly inside s has the target mask, else
    s with the children of that vertex spliced into its parent's child list
    in place, rebuilt along the path to it only.  When s itself is that
    vertex, the mask returned equals the target and the caller splices."""
    m = 0
    for c in s:
        if isinstance(c, int):
            m |= 1 << c
        else:
            r = _splice_at(c, target)
            if not isinstance(r, int):
                i = s.index(c)
                return s[:i] + (r,) + s[i + 1 :]
            if r == target:
                i = s.index(c)
                return s[:i] + c + s[i + 1 :]
            m |= r
    return m


def collapse(forest: PlanarForest, edge: FrozenSet[int]) -> PlanarForest:
    """Contract the given internal edge (see collapse_all), walking the trees
    only up to it.

    >>> print(collapse(PlanarForest([((1, (2, 3)), 4)]), frozenset({2, 3})))
    ((1,2,3),4)
    >>> print(collapse(PlanarForest([((1, (2, 3)), 4)]), frozenset({1, 2, 3, 4})))
    (1,(2,3));4
    """
    target = _edge_mask(edge)
    trees = forest.trees
    for i, t in enumerate(trees):
        if not isinstance(t, int):
            r = _splice_at(t, target)
            if not isinstance(r, int):
                return _forest(trees[:i] + (r,) + trees[i + 1 :])
            if r == target:  # the trunk: the tree splits into its subtrees
                return _forest(trees[:i] + t + trees[i + 1 :])
    raise ValueError(f"not an internal edge: {set(edge)}")


def _spans(s: tuple, order: list, out: list) -> None:
    """Append s's leaves to order and the span (start, stop) of every
    internal vertex of s to out, in preorder: the leaves above the vertex
    are order[start:stop]."""
    i = len(out)
    out.append(None)
    start = len(order)
    for c in s:
        if isinstance(c, int):
            order.append(c)
        else:
            _spans(c, order, out)
    out[i] = (start, len(order))


def _vertices(forest: PlanarForest):
    """(leaf order, the spans of the internal vertices in preorder), in one
    pass per tree."""
    order: list = []
    spans: list = []
    for t in forest.trees:
        if isinstance(t, int):
            order.append(t)
        else:
            _spans(t, order, spans)
    return order, spans


def _tree_walk(forest: PlanarForest):
    """(leaf order, leaf sets, span starts, parents, owners) of a forest
    from one _vertices pass: per internal vertex in preorder, its leaf set,
    the start of its span and its parent's index (-1 at a root); per gap r,
    between order[r] and order[r + 1], the index of its owner, the deepest
    vertex above both leaves (-1 between two trees).

    >>> order, vertices, starts, parent, owner = _tree_walk(PlanarForest([(1, (2, 3)), 4]))
    >>> [sorted(v) for v in vertices], starts, parent, owner
    ([[1, 2, 3], [2, 3]], [0, 1], [-1, 0], [0, 1, -1])
    """
    order, spans = _vertices(forest)
    vertices, starts, parent, stack = [], [], [], []
    owner = [-1] * (len(order) - 1)
    for j, (start, stop) in enumerate(spans):
        while stack and spans[stack[-1]][1] <= start:
            stack.pop()
        parent.append(stack[-1] if stack else -1)
        stack.append(j)
        vertices.append(frozenset(order[start:stop]))
        starts.append(start)
        for r in range(start, stop - 1):
            owner[r] = j  # a deeper vertex, later in preorder, overwrites
    return order, vertices, starts, parent, owner


def _nest(order: list, spans: list, lo: int, hi: int, j: int):
    """The subtrees covering order[lo:hi] when the vertices left are those of
    spans[j:] (preorder) that start before hi; return them and the index of
    the first span past hi."""
    items = []
    while j < len(spans) and spans[j][0] < hi:
        start, stop = spans[j]
        items += order[lo:start]
        kids, j = _nest(order, spans, start, stop, j + 1)
        items.append(tuple(kids))
        lo = stop
    items += order[lo:hi]
    return items, j


def _keeping(order: list, spans) -> PlanarForest:
    """The forest on the leaf order whose internal vertices are the spans."""
    return _forest(tuple(_nest(order, spans, 0, len(order), 0)[0]))


def collapse_all(forest: PlanarForest, edges: Iterable[FrozenSet[int]]) -> PlanarForest:
    """Contract a set of distinct internal edges, in one pass per tree.

    Contracting a trunk splits its tree into the consecutive sequence of
    top-level subtrees; contracting any other edge splices the children into
    the parent's child list in place.  The result is the one of contracting
    the edges one at a time, in any order.
    """
    edges = list(edges)
    if not edges:
        return forest
    targets = {frozenset(e) for e in edges}
    if len(targets) != len(edges):
        raise ValueError("repeated edge")
    order, spans = _vertices(forest)
    kept = [v for v in spans if frozenset(order[v[0] : v[1]]) not in targets]
    if len(kept) != len(spans) - len(targets):
        found = {frozenset(order[a:b]) for a, b in spans}
        missing = next(e for e in edges if frozenset(e) not in found)
        raise ValueError(f"not an internal edge: {set(missing)}")
    return _keeping(order, kept)


def meet(forest: PlanarForest, a: int, b: int) -> FrozenSet[int]:
    """The meet of two leaves: the maximal vertex lying below both.

    Returns the vertex as its leaf set: the first owner, in preorder, of the
    gaps between the two leaves (_tree_walk).  Raises NoMeetError if the
    leaves are equal or lie in different trees, KeyError if one is missing.

    >>> f = PlanarForest([(1, (2, 3)), 4])
    >>> sorted(meet(f, 1, 3)), sorted(meet(f, 3, 2))
    ([1, 2, 3], [2, 3])
    """
    return _meets(forest)(a, b)


def _meets(forest: PlanarForest):
    """meet on one forest from one _tree_walk, for callers that take many."""
    order, vertices, _, _, owner = _tree_walk(forest)
    pos = {x: r for r, x in enumerate(order)}

    def meet_of(a: int, b: int) -> FrozenSet[int]:
        lo, hi = sorted((pos[a], pos[b]))
        if lo == hi:
            raise NoMeetError(f"need distinct leaves, got {a}, {b}")
        j = min(owner[lo:hi])
        if j < 0:
            raise NoMeetError(f"leaves {a}, {b} lie in different trees")
        return vertices[j]
    return meet_of


def path_edges(forest: PlanarForest, vertex: FrozenSet[int]) -> list[FrozenSet[int]]:
    """Internal edges on the path from a vertex to the root of its tree.

    These are exactly the edges whose leaf sets contain the given vertex's
    leaf set (the vertex's own descending edge included).
    """
    return [ls for ls in forest.edges() if vertex <= ls]


# ---------------------------------------------------------------------------
# enumeration


def _edge_splits(total: int, parts: Sequence[tuple]):
    """The ways to give each part a number of internal edges, summing to
    total, in lexicographic order: a tree on s >= 2 leaves has between 1 and
    s - 1 edges, a bare leaf none."""
    size = len(parts[0])
    lo, hi = (1, size - 1) if size > 1 else (0, 0)
    if len(parts) == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    for first in range(lo, min(hi, total) + 1):
        for rest in _edge_splits(total - first, parts[1:]):
            yield (first,) + rest


def _leftmost(s: Subtree) -> tuple:
    """(depth, label) of the leftmost leaf of a subtree.  On subtrees with
    disjoint leaf sets this is the order of their forest_key codes: two
    codes first differ on the leftmost path, where a leaf (1, label) sorts
    before a vertex (2, ...) and two leaves by label."""
    depth = 0
    while not isinstance(s, int):
        s = s[0]
        depth += 1
    return depth, s


def _forests_on(labels: tuple, k: int, kind: str, min_trees: int, memo: dict):
    """Yield the forests on the sorted labels with k internal edges and at
    least min_trees trees, as tuples of trees, one per class of the kind in
    canon_forest(kind, f, False) form.

    Each comes from a set partition, one tree per block: the tree table's
    trees for one block, every permutation of the trees for "ordered", and
    for the others the trees sorted by _leftmost (the forest_key order of
    disjoint trees) and arranged, "cyclic" as arrange's minimal rotation.
    """
    # a forest of m trees on s leaves has at most s - m internal edges
    for blocks in set_partitions(labels):
        if min_trees <= len(blocks) <= len(labels) - k:
            for split in _edge_splits(k, blocks):
                if len(blocks) == 1:  # every kind keeps a one-tree forest
                    yield from zip(_planar_trees(labels, k, memo))
                    continue
                choices = [_planar_trees(b, e, memo) for b, e in zip(blocks, split)]
                for trees in itertools.product(*choices):
                    yield from arrangements(kind, trees if kind == "ordered" else sorted(trees, key=_leftmost))


def _planar_trees(labels: tuple, k: int, memo: dict) -> list:
    """The planar trees on the sorted labels with exactly k internal edges,
    kept in memo."""
    trees = memo.get((labels, k))
    if trees is None:
        if len(labels) == 1:
            trees = [labels[0]] if k == 0 else []
        else:
            # the trunk is one edge; the root's ordered children share the rest
            trees = list(_forests_on(labels, k - 1, "ordered", 2, memo))
        memo[labels, k] = trees
    return trees


def planar_forests(n: int, k: int, kind: str):
    """Yield each planar forest on [n] with exactly k internal edges once,
    up to the tree order of a complex kind, in canon_forest(kind, f, False)
    form, in no promised order (see _forests_on).

    The sub-cubes of D_3, breveD_3 and hatD_3 per dimension:

    >>> [[len(list(planar_forests(3, k, kind))) for k in range(3)]
    ...  for kind in ("ordered", "cyclic", "unordered")]
    [[6, 18, 12], [2, 12, 12], [1, 12, 12]]
    """
    if not 0 <= k <= max(n - 1, 0):
        raise ValueError("need 0 <= k <= n-1")
    arrangements(kind, ())  # refuses an unknown kind, which one-tree forests skip
    yield from map(_forest, _forests_on(tuple(range(1, n + 1)), k, kind, 1, {}))


def enumerate_planar_forests(n: int, k: int) -> list[PlanarForest]:
    """All planar forests labelled by [n] with exactly k internal edges.

    >>> [len(enumerate_planar_forests(3, k)) for k in range(3)]
    [6, 18, 12]
    """
    return sorted(planar_forests(n, k, "ordered"), key=forest_key)


# ---------------------------------------------------------------------------
# canonical forms


def canon_tree_mod_flips(s: Subtree) -> Subtree:
    """Canonical representative of a tree modulo flips at all its edges.

    Flips generate an independent orientation choice at every internal
    vertex, so the bottom-up lexicographic minimum is canonical.  A vertex
    keeps its canonical children in order unless the last one's leftmost
    leaf comes before the first one's: their leaf sets are disjoint, so that
    decides between the two orders.
    """
    return s if isinstance(s, int) else _canon_flips(s)[0]


def _canon_flips(s: tuple):
    """(canon_tree_mod_flips(s), depth, label), the last two its _leftmost,
    carried up the pass: a vertex's leftmost leaf is one deeper than its
    first child's."""
    kids = []
    first_depth = None
    for c in s:
        if isinstance(c, int):
            kids.append(c)
            depth, label = 1, c
        else:
            form, depth, label = _canon_flips(c)
            kids.append(form)
            depth += 1
        if first_depth is None:
            first_depth, first_label = depth, label
    if depth < first_depth or depth == first_depth and label < first_label:
        kids.reverse()  # the last child's leftmost leaf comes first
        return tuple(kids), depth, label
    return tuple(kids), first_depth, first_label


def _code(trees: tuple, out: list) -> None:
    """Append the forest_key code of each subtree in turn to out."""
    for s in trees:
        if isinstance(s, int):
            out += (1, s)
        else:
            out.append(2)
            _code(s, out)
            out.append(0)


def forest_key(f: PlanarForest) -> Tuple[int, ...]:
    """The sort key of a forest: its trees' codes in turn, a leaf x as
    1, x and a vertex as 2, its children's codes, 0 (see the module
    docstring).

    >>> forest_key(PlanarForest([(1, (2, 3)), 4]))
    (2, 1, 1, 2, 1, 2, 1, 3, 0, 0, 1, 4)
    """
    out: list = []
    _code(f.trees, out)
    return tuple(out)


def canon_forest(kind: str, f: PlanarForest, mod_flips: bool) -> PlanarForest:
    """Canonical form of a forest for a complex kind.

    kind "ordered" keeps the tree sequence, "unordered" sorts it, "cyclic"
    takes the minimal rotation, both by _leftmost.  With mod_flips, each
    tree is first reduced modulo flipping.
    """
    trees = f.trees
    if mod_flips:
        forms = []
        for t in trees:
            forms.append(t if isinstance(t, int) else _canon_flips(t)[0])
        trees = tuple(forms)
    if kind != "ordered" and (len(trees) > 1 or kind not in ("cyclic", "unordered")):
        trees = arrange(kind, trees, _leftmost)  # which refuses an unknown kind
    return f if trees is f.trees else _forest(trees)


# ---------------------------------------------------------------------------
# serialization


def _subtree_to_newick(s: Subtree, zeros: FrozenSet[FrozenSet[int]] = frozenset()) -> str:
    """Newick text of a subtree; a group whose leaf set is in zeros is
    marked ":0"."""
    if isinstance(s, int):
        return str(s)
    body = "(" + ",".join(_subtree_to_newick(c, zeros) for c in s) + ")"
    return body + ":0" if zeros and leafset(s) in zeros else body


def forest_to_newick(f: PlanarForest) -> str:
    return ";".join(_subtree_to_newick(t) for t in f.trees)


def _parse_subtree(s: str, pos: int, zeros: list):
    """Parse the subtree at s[pos]; return it and the position after it.  The
    leaf set of every group marked ":0" is appended to zeros."""
    if s[pos : pos + 1] == "(":
        pos += 1
        kids = []
        while True:
            kid, pos = _parse_subtree(s, pos, zeros)
            kids.append(kid)
            sep = s[pos : pos + 1]
            pos += 1
            if sep == ")":
                break
            if sep != ",":
                raise ValueError(f"expected ',' or ')' at {pos - 1} in {s!r}")
        node = tuple(kids)
        if s[pos : pos + 2] == ":0":
            zeros.append(leafset(node))
            pos += 2
        return node, pos
    j = pos
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == pos:
        raise ValueError(f"parse error at {pos} in {s!r}")
    return int(s[pos:j]), j


def _parse_forest(text: str):
    """The trees of a ';'-separated Newick forest, and the leaf sets of its
    groups marked ":0"."""
    trees: list = []
    zeros: list = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        t, pos = _parse_subtree(part, 0, zeros)
        if pos != len(part):
            raise ValueError(f"trailing characters in {part!r}")
        trees.append(t)
    return trees, zeros


def forest_from_newick(text: str) -> PlanarForest:
    trees, zeros = _parse_forest(text)
    if zeros:
        raise ValueError(
            f"zero decoration ':0' in a plain forest {text!r}; "
            "zero-decorated forests are read by zforest_from_newick"
        )
    return PlanarForest(trees)


# ---------------------------------------------------------------------------
# zero-decorated forests


def _zero_canon(s: Subtree, zmasks: set):
    """(form, key, mirror form, mirror key, leaf mask) of a subtree, up to
    flips at the vertices whose leaf masks are in zmasks.

    The form is the minimum of the subtree's flip orbit, the mirror form the
    minimum over the mirrors of that orbit, both by the key (0, label) of a
    leaf and (1, decorated flag, child keys) of an internal vertex.
    """
    if isinstance(s, int):
        return s, (0, s), s, (0, s), 1 << s
    forms, keys, mforms, mkeys, masks = zip(*[_zero_canon(c, zmasks) for c in s])
    m = sum(masks)  # the children's leaf sets are disjoint
    flag = 1 if m in zmasks else 0
    key, mkey = (1, flag, keys), (1, flag, mkeys[::-1])
    if not flag:
        return forms, key, mforms[::-1], mkey, m
    if mkey < key:
        forms, key = mforms[::-1], mkey
    return forms, key, forms, key, m


def _zero_forest(kind: str, trees: tuple, zeros: FrozenSet[FrozenSet[int]]):
    """The canonical zero-forest on valid trees with the given decorated
    edges, its trees in the order of a complex kind (see canon_forest); built
    without the checks of the public constructor."""
    zmasks = {_edge_mask(e) for e in zeros}
    keyed = arrange(kind, tuple([_zero_canon(t, zmasks)[:2] for t in trees]), itemgetter(1))
    zf = object.__new__(PlanarForestWithZeros)
    object.__setattr__(zf, "forest", _forest(tuple([t for t, _ in keyed])))
    object.__setattr__(zf, "zeros", zeros)
    return zf


def _decorations(kind: str, f: PlanarForest):
    """(number of decorated edges, zero-forest) for every subset of f's
    internal edges, in itertools.combinations order over edges()."""
    edges = f.edges()
    for r in range(len(edges) + 1):
        for dec in itertools.combinations(edges, r):
            yield r, _zero_forest(kind, f.trees, frozenset(dec))


@dataclass(frozen=True)
class PlanarForestWithZeros:
    """A planar forest with zero-decorated internal edges, up to flipping at
    the decorated edges.  Stored canonically: the forest is the minimum over
    the flip orbit, and zeros holds the decorated edges as leaf sets.  The
    constructor sorts the trees (the unordered quotient); the cells of
    cubecomplexes.cubical_subdivision keep their complex's tree order."""

    forest: PlanarForest
    zeros: FrozenSet[FrozenSet[int]]

    def __init__(self, trees: Iterable[Subtree], zeros: Iterable[Iterable[int]]):
        forest = PlanarForest(trees)
        zeros = frozenset(frozenset(e) for e in zeros)
        if not zeros.issubset(forest.edges()):
            raise ValueError(f"decorations {sorted(map(sorted, zeros))} are not all internal edges")
        canon = _zero_forest("unordered", forest.trees, zeros)
        object.__setattr__(self, "forest", canon.forest)
        object.__setattr__(self, "zeros", zeros)

    def decorated_edges(self) -> list[FrozenSet[int]]:
        return [e for e in self.forest.edges() if e in self.zeros]

    def undecorated_edges(self) -> list[FrozenSet[int]]:
        return [e for e in self.forest.edges() if e not in self.zeros]

    def __str__(self):
        return ";".join(_subtree_to_newick(t, self.zeros) for t in self.forest.trees)


def zforest_from_newick(text: str) -> PlanarForestWithZeros:
    """Read a zero-forest; a group followed by ":0" is a decorated edge."""
    return PlanarForestWithZeros(*_parse_forest(text))


def zeros_to_planar(zf: PlanarForestWithZeros) -> PlanarForest:
    """Forget the decorations; the result is well defined modulo flipping, so
    it is returned in the fully flip-reduced unordered canonical form."""
    return canon_forest("unordered", zf.forest, mod_flips=True)


def enumerate_zero_forests(n: int) -> list[PlanarForestWithZeros]:
    """All zero-decorated unordered planar forests labelled by [n]."""
    seen = set()
    out = []
    for k in range(n):
        for f in enumerate_planar_forests(n, k):
            for _, zf in _decorations("unordered", f):
                if zf not in seen:
                    seen.add(zf)
                    out.append(zf)
    return out


# ---------------------------------------------------------------------------
# bushy forests


@dataclass(frozen=True)
class BushyForest:
    """A set of bushy rooted trees: each tree is the ordered tuple of subtrees
    hanging off its root (the root may have any degree >= 1).  Orders at
    non-root vertices are reduced modulo reversal; trees are sorted."""

    trees: Tuple[tuple, ...]

    def __init__(self, trees: Iterable[tuple]):
        ts = []
        for t in trees:
            if not isinstance(t, tuple) or len(t) < 1:
                raise ValueError("a bushy tree is a nonempty tuple of subtrees")
            forms = tuple([canon_tree_mod_flips(c) for c in t])
            ts.append((forms, _leftmost(forms[0])))  # trees with disjoint leaves differ there
        ts.sort(key=itemgetter(1))
        labels = [x for t, _ in ts for c in t for x in leaves(c)]
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate leaf labels")
        object.__setattr__(self, "trees", tuple(t for t, _ in ts))

    @property
    def labels(self) -> FrozenSet[int]:
        return frozenset(x for t in self.trees for c in t for x in leaves(c))


def zeros_to_bushy(zf: PlanarForestWithZeros) -> BushyForest:
    """Contract all undecorated internal edges, then erase the decorations."""
    return BushyForest([tuple(_bushy_contract(t, zf.zeros)) for t in zf.forest.trees])


def _bushy_contract(s: Subtree, zeros: FrozenSet[FrozenSet[int]]) -> list[Subtree]:
    """Children of the (merged) vertex at the bottom of this subtree.

    A decorated vertex (its leaf set in zeros) survives; an undecorated
    vertex merges downward, contributing its recursively contracted children
    in order.
    """
    if isinstance(s, int):
        return [s]
    spliced: list[Subtree] = []
    for c in s:
        spliced.extend(_bushy_contract(c, zeros))
    if leafset(s) in zeros:
        assert len(spliced) >= 2
        return [tuple(spliced)]
    return spliced


def random_binary_tree(labels: Sequence[int], rng) -> Subtree:
    """A random planar binary tree on the given labels."""
    items: list[Subtree] = list(labels)
    rng.shuffle(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        pair = (items[i], items[i + 1])
        items[i : i + 2] = [pair]
    return items[0]


def binary_refinement(s: Subtree) -> tuple[Subtree, list[FrozenSet[int]]]:
    """A planar binary tree refining s (left-comb expansion at each vertex),
    together with the list of edges added by the refinement.

    Collapsing the added edges recovers s, and the planar leaf order is
    unchanged.
    """
    added: list[FrozenSet[int]] = []
    return _refine(s, added), added


def _refine(t: Subtree, added: list) -> Subtree:
    """binary_refinement's tree, appending the edges it adds to added."""
    if isinstance(t, int):
        return t
    kids = [_refine(c, added) for c in t]
    while len(kids) > 2:
        pair = (kids[0], kids[1])
        added.append(leafset(pair))
        kids[0:2] = [pair]
    return tuple(kids)
