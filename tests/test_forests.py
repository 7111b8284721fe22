import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random

import pytest

from cactusflower.combinatorics import arrangements, interval_reversal, set_partitions
from cactusflower.forests import (
    BushyForest,
    NoMeetError,
    PlanarForest,
    PlanarForestWithZeros,
    _bushy_contract,
    _edge_splits,
    _forest,
    _forests_on,
    _leftmost,
    _zero_forest,
    binary_refinement,
    canon_forest,
    canon_tree_mod_flips,
    collapse,
    collapse_all,
    enumerate_planar_forests,
    enumerate_zero_forests,
    flip,
    forest_from_newick,
    forest_key,
    forest_to_newick,
    leafset,
    meet,
    mirror,
    planar_forests,
    total_order,
    zeros_to_bushy,
    zeros_to_planar,
    zforest_from_newick,
)

RUNNING = PlanarForest([((1, (2, 3)), 4)])
E_LOW = frozenset({1, 2, 3})  # the edge flipped in the running example


def test_total_order_examples():
    one_vertex = PlanarForest([(2, 3, 1)])
    assert one_vertex.leaf_order() == (2, 3, 1)
    assert total_order(RUNNING).images == (1, 2, 3, 4)
    assert total_order(flip(RUNNING, E_LOW)).images == (3, 2, 1, 4)


def test_flip_involution_and_example():
    assert flip(flip(RUNNING, E_LOW), E_LOW) == RUNNING
    assert flip(RUNNING, E_LOW) == PlanarForest([(((3, 2), 1), 4)])


def test_flip_order_law_exhaustive_pf4():
    n = 4
    for k in range(1, n):
        for forest in enumerate_planar_forests(n, k):
            w = total_order(forest)
            for e in forest.edges():
                positions = sorted(w.inverse()(x) for x in e)
                # labels above an edge fill a contiguous interval of the order
                assert positions == list(range(positions[0], positions[0] + len(positions)))
                wij = interval_reversal(positions[0], positions[-1], n)
                assert total_order(flip(forest, e)) == w * wij


def test_flips_commute_and_collapse_compatible():
    for k in range(2, 4):
        for forest in enumerate_planar_forests(4, k):
            edges = forest.edges()
            for e, f in itertools.permutations(edges, 2):
                assert flip(flip(forest, e), f) == flip(flip(forest, f), e)
                assert collapse(flip(forest, f), e) == flip(collapse(forest, e), f)


def test_collapse_examples():
    assert collapse(RUNNING, frozenset({2, 3})) == PlanarForest([((1, 2, 3), 4)])
    inner = PlanarForest([(1, 2, 3), (4, 5)])
    assert collapse(inner, frozenset({1, 2, 3})) == PlanarForest([1, 2, 3, (4, 5)])
    with pytest.raises(ValueError):
        collapse(RUNNING, frozenset({9}))


def test_meet_examples():
    assert meet(RUNNING, 2, 3) == frozenset({2, 3})
    assert meet(RUNNING, 1, 3) == frozenset({1, 2, 3})
    assert meet(RUNNING, 1, 4) == frozenset({1, 2, 3, 4})
    with pytest.raises(NoMeetError):
        meet(PlanarForest([(1, 2), (3, 4)]), 1, 3)
    # meets (as leaf sets) are untouched by flips
    for forest in enumerate_planar_forests(4, 2):
        for e in forest.edges():
            flipped = flip(forest, e)
            for a, b in itertools.combinations(range(1, 5), 2):
                try:
                    m1 = meet(forest, a, b)
                except NoMeetError:
                    continue
                assert m1 == meet(flipped, a, b)


def test_meet_of_equal_leaves_or_a_missing_label():
    # equal leaves have no meet, at a bare leaf as inside a tree; a label
    # that is not a leaf of the forest is a KeyError
    with pytest.raises(NoMeetError):
        meet(RUNNING, 2, 2)
    with pytest.raises(NoMeetError):
        meet(forest_from_newick("1;(2,3)"), 1, 1)
    with pytest.raises(KeyError):
        meet(RUNNING, 1, 9)


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def test_enumeration_counts():
    assert [len(enumerate_planar_forests(3, k)) for k in range(3)] == [6, 18, 12]
    for n in range(1, 7):
        binary = enumerate_planar_forests(n, n - 1)
        assert len(binary) == math.factorial(n) * catalan(n - 1)
    with pytest.raises(ValueError):
        enumerate_planar_forests(3, 3)


# distinct sub-cubes of D_n, breveD_n and hatD_n, pinned in perfbench/complexes.py
SUBCUBE_TOTALS = {
    3: {"ordered": 36, "cyclic": 26, "unordered": 25},
    5: {"ordered": 10800, "cyclic": 7704, "unordered": 7341},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_planar_forests_yield_each_canonical_form_once(n):
    totals = dict.fromkeys(("ordered", "cyclic", "unordered"), 0)
    for k in range(n):
        ordered = enumerate_planar_forests(n, k)
        keys = list(map(forest_key, ordered))
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for kind in totals:
            got = list(planar_forests(n, k, kind))
            assert len(set(got)) == len(got)
            assert set(got) == {canon_forest(kind, f, False) for f in ordered}
            totals[kind] += len(got)
    if n in SUBCUBE_TOTALS:
        assert totals == SUBCUBE_TOTALS[n]


def test_serialization_roundtrip():
    for k in range(3):
        for forest in enumerate_planar_forests(3, k):
            assert forest_from_newick(forest_to_newick(forest)) == forest


def test_zero_forest_roundtrip_and_well_definedness():
    tree = ((1, (2, 3)), 4)
    dec = frozenset([frozenset({1, 2, 3})])
    zf = PlanarForestWithZeros([tree], dec)
    assert zforest_from_newick(str(zf)) == zf
    # flipping at the decorated edge gives the same class, the same images
    rep2 = ((((3, 2), 1), 4))
    zf2 = PlanarForestWithZeros([rep2], dec)
    assert zf == zf2
    assert zeros_to_planar(zf) == zeros_to_planar(zf2)
    assert zeros_to_bushy(zf) == zeros_to_bushy(zf2)
    # flipping at an undecorated edge changes the class
    rep3 = ((1, (3, 2)), 4)
    assert PlanarForestWithZeros([rep3], dec) != zf


def test_zeros_to_bushy_examples():
    # no decorations: everything collapses to one vertex per tree
    zf = PlanarForestWithZeros([((1, (2, 3)), 4)], frozenset())
    bushy = zeros_to_bushy(zf)
    assert bushy.trees == ((1, 2, 3, 4),)
    # decorating the edge below the (1,(2,3)) vertex keeps that vertex, the
    # rest merges into the root: a bushy tree with children {(1,2,3), 4}
    zf = PlanarForestWithZeros([((1, (2, 3)), 4)], [frozenset({1, 2, 3})])
    bushy = zeros_to_bushy(zf)
    assert bushy.trees == (((1, 2, 3), 4),)
    # a fully decorated binary tree maps to itself (up to vertex reversals)
    tree = ((1, 2), (3, 4))
    edges = frozenset(PlanarForest([tree]).edges())
    zf = PlanarForestWithZeros([tree], edges)
    bushy = zeros_to_bushy(zf)
    assert bushy == BushyForest([(tree,)])


def test_zeros_to_planar_lands_in_flip_classes():
    for zf in enumerate_zero_forests(3):
        plain = zeros_to_planar(zf)
        # a canonical unordered flip-reduced forest: stable under re-canon
        assert canon_forest("unordered", plain, mod_flips=True) == plain


def test_zero_forest_counts():
    zf3 = enumerate_zero_forests(3)
    by_undecorated = {}
    for z in zf3:
        by_undecorated.setdefault(len(z.undecorated_edges()), 0)
        by_undecorated[len(z.undecorated_edges())] += 1
    assert by_undecorated == {0: 10, 1: 24, 2: 12}


def test_single_leaf_tree_allowed():
    f = PlanarForest([1])
    assert f.n == 1 and f.edges() == []
    assert f.leaf_order() == (1,)


# ---------------------------------------------------------------------------
# the enumerator against the one that sorted and arranged every product
#
# _ref_forests_on sorts each product of per-block trees by _leftmost and
# arranges it for the kind, the one-block products and "ordered" included,
# as the enumerator did before it took those straight from the tree table.


def _ref_forests_on(labels, k, kind, min_trees, memo):
    for blocks in set_partitions(labels):
        if min_trees <= len(blocks) <= len(labels) - k:
            for split in _edge_splits(k, blocks):
                choices = [_ref_planar_trees(b, e, memo) for b, e in zip(blocks, split)]
                for trees in itertools.product(*choices):
                    yield from arrangements(kind, sorted(trees, key=_leftmost))


def _ref_planar_trees(labels, k, memo):
    trees = memo.get((labels, k))
    if trees is None:
        if len(labels) == 1:
            trees = [labels[0]] if k == 0 else []
        else:
            trees = list(_ref_forests_on(labels, k - 1, "ordered", 2, memo))
        memo[labels, k] = trees
    return trees


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forests_on_matches_the_sort_then_arrange_reference(n):
    labels = tuple(range(1, n + 1))
    for kind in ("ordered", "cyclic", "unordered"):
        memo, ref_memo = {}, {}
        for k in range(n):
            got = list(_forests_on(labels, k, kind, 1, memo))
            assert len(set(got)) == len(got)
            assert set(got) == set(_ref_forests_on(labels, k, kind, 1, ref_memo))
        # the same tree table: every entry holds the same trees, each once
        assert memo.keys() == ref_memo.keys()
        for key, trees in memo.items():
            assert len(set(trees)) == len(trees)
            assert set(trees) == set(ref_memo[key])


# ---------------------------------------------------------------------------
# the one-pass forest core against a sequential reference
#
# The reference re-derives leaf sets at every vertex and contracts one edge
# at a time, as the forest core did before it worked on leaf masks.


def _ref_nodes(s):
    if isinstance(s, int):
        return
    yield leafset(s), s
    for c in s:
        yield from _ref_nodes(c)


def _ref_edges(forest):
    return [ls for t in forest.trees for ls, _ in _ref_nodes(t)]


def _ref_mirror(s):
    return s if isinstance(s, int) else tuple(_ref_mirror(c) for c in reversed(s))


def _ref_flip(forest, edge):
    if edge not in _ref_edges(forest):
        raise ValueError(edge)

    def rec(s):
        if isinstance(s, int):
            return s
        if leafset(s) == edge:
            return _ref_mirror(s)
        return tuple(rec(c) for c in s)

    return PlanarForest([rec(t) for t in forest.trees])


def _ref_collapse(forest, edge):
    if edge not in _ref_edges(forest):
        raise ValueError(edge)

    def rec(s):
        out = []
        for c in s:
            if not isinstance(c, int) and leafset(c) == edge:
                out.extend(rec(c))
            elif isinstance(c, int):
                out.append(c)
            else:
                out.append(tuple(rec(c)))
        return out

    trees = []
    for t in forest.trees:
        if isinstance(t, int):
            trees.append(t)
        elif leafset(t) == edge:
            trees.extend(rec(t))
        else:
            trees.append(tuple(rec(t)))
    return PlanarForest(trees)


def _ref_collapse_all(forest, edges):
    for e in edges:
        forest = _ref_collapse(forest, e)
    return forest


def _ref_key(s):
    return (0, s) if isinstance(s, int) else (1, tuple(_ref_key(c) for c in s))


def _ref_canon_tree(s):
    if isinstance(s, int):
        return s
    kids = tuple(_ref_canon_tree(c) for c in s)
    return min(kids, kids[::-1], key=lambda t: tuple(map(_ref_key, t)))


def _ref_canon_forest(kind, forest, mod_flips):
    trees = list(forest.trees)
    if mod_flips:
        trees = [_ref_canon_tree(t) for t in trees]
    if kind == "unordered":
        trees.sort(key=_ref_key)
    elif kind == "cyclic":
        rots = [trees[i:] + trees[:i] for i in range(len(trees))]
        trees = min(rots, key=lambda ts: [_ref_key(t) for t in ts])
    return PlanarForest(trees)


def _all_forests(n):
    return [f for k in range(n) for f in enumerate_planar_forests(n, k)]


def _revalidates(forest):
    return PlanarForest(forest.trees) == forest


def _vertex_ids(forest):
    """The ids of the internal vertices (tuples) of a forest."""
    ids = set()
    stack = list(forest.trees)
    while stack:
        s = stack.pop()
        if not isinstance(s, int):
            ids.add(id(s))
            stack.extend(s)
    return ids


def _check_kept_objects(forest, e, flipped, collapsed):
    """Assert that flip and collapse at e keep what their walk does not
    rebuild as the same objects, and return where e lies: (in a later tree,
    at a trunk, at a vertex whose children are all leaves)."""
    i, vertex = next((i, s) for i, t in enumerate(forest.trees) for ls, s in _ref_nodes(t) if ls == e)
    after = len(forest.trees) - i - 1
    for new in (flipped, collapsed):
        assert all(a is b for a, b in zip(forest.trees[:i], new.trees))
        assert all(a is b for a, b in zip(forest.trees[i + 1 :], new.trees[len(new.trees) - after :]))
    # inside the edge's tree: under a flip every subtree disjoint from e,
    # under a collapse every subtree that does not hold e (e's children are
    # spliced as they are)
    kept_flip, kept_collapse = _vertex_ids(flipped), _vertex_ids(collapsed)
    for ls, s in _ref_nodes(forest.trees[i]):
        assert bool(ls & e) or id(s) in kept_flip
        assert e <= ls or id(s) in kept_collapse
    return i > 0, vertex is forest.trees[i], all(isinstance(c, int) for c in vertex)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forest_core_matches_sequential_reference(n):
    cases = set()
    for forest in _all_forests(n):
        edges = forest.edges()
        assert edges == _ref_edges(forest)  # same sets, same preorder
        for e in edges:
            flipped, collapsed = flip(forest, e), collapse(forest, e)
            assert flipped == _ref_flip(forest, e) and _revalidates(flipped)
            assert collapsed == _ref_collapse(forest, e)
            cases.add(_check_kept_objects(forest, e, flipped, collapsed))
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                got = collapse_all(forest, subset)
                assert got == _ref_collapse_all(forest, subset) and _revalidates(got)
                if r == 1:
                    assert collapse(forest, subset[0]) == got
        for kind in ("ordered", "unordered", "cyclic"):
            for mod_flips in (False, True):
                got = canon_forest(kind, forest, mod_flips)
                assert got == _ref_canon_forest(kind, forest, mod_flips)
                assert _revalidates(got)
        for t in forest.trees:
            assert canon_tree_mod_flips(t) == _ref_canon_tree(t)
            assert mirror(t) == _ref_mirror(t)
    if n == 5:  # every combination of where an edge lies is met
        assert len(cases) == 8


# ---------------------------------------------------------------------------
# the flat forest_key and the key-free canonical forms against nested keys
#
# _ref_key is the nested sort key the forests had before forest_key became a
# flat code: a leaf as (0, label), a vertex as (1, child keys).


def _ref_forest_key(forest):
    return tuple(_ref_key(t) for t in forest.trees)


def _relabel(s, labels):
    if isinstance(s, int):
        return labels[s]
    return tuple(_relabel(c, labels) for c in s)


def test_forest_key_sorts_like_the_nested_key():
    rng = random.Random(18)
    pool = []
    for forest in (f for n in range(1, 6) for f in _all_forests(n)):
        pool.append(forest)
        # the same shape on another label set, the labels out of order
        labels = dict(zip(range(1, 6), rng.sample(range(12), 5)))
        pool.append(PlanarForest([_relabel(t, labels) for t in forest.trees]))
    rng.shuffle(pool)
    assert sorted(pool, key=forest_key) == sorted(pool, key=_ref_forest_key)
    assert len({forest_key(f) for f in pool}) == len(set(pool))


def _flip_orbit(forest):
    """The forest flipped at every subset of its edges, 2^k forests."""
    orbit = [forest]
    for e in forest.edges():
        orbit += [flip(g, e) for g in orbit]
    return orbit


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canon_mod_flips_is_the_least_flip_under_the_nested_key(n):
    for forest in _all_forests(n):
        orbit = _flip_orbit(forest)
        for kind in ("ordered", "unordered", "cyclic"):
            want = min((_ref_canon_forest(kind, g, False) for g in orbit), key=_ref_forest_key)
            assert canon_forest(kind, forest, True) == want
            assert canon_forest(kind, forest, False) == _ref_canon_forest(kind, forest, False)


def test_collapse_of_a_non_edge_names_it():
    forest = PlanarForest([((1, (2, 3)), 4), (5, 6)])
    e = frozenset({2, 3})
    for bad in (frozenset({1, 2}), frozenset({9}), frozenset(), frozenset({-1, 2}), {5, 6, 7}):
        message = f"not an internal edge: {set(bad)}"
        for op in (collapse, flip, lambda f, x: collapse_all(f, [e, x])):
            with pytest.raises(ValueError) as err:
                op(forest, bad)
            assert str(err.value) == message


def test_bushy_forms_match_the_nested_key_sort():
    for n in range(1, 5):
        for zf in enumerate_zero_forests(n):
            raw = [tuple(_bushy_contract(t, zf.zeros)) for t in zf.forest.trees]
            forms = [tuple(_ref_canon_tree(c) for c in t) for t in raw]
            want = tuple(sorted(forms, key=lambda t: tuple(map(_ref_key, t))))
            assert zeros_to_bushy(zf).trees == want
            assert BushyForest(raw[::-1]).trees == want
            assert BushyForest([tuple(map(_ref_mirror, t)) for t in raw]).trees == want


def test_forest_core_error_parity():
    forest = PlanarForest([((1, (2, 3)), 4), (5, 6)])
    e = frozenset({2, 3})
    for bad in (frozenset({1, 2}), frozenset({9}), frozenset(), frozenset({-1, 2})):
        for op in (flip, collapse, _ref_flip, _ref_collapse):
            with pytest.raises(ValueError):
                op(forest, bad)
        with pytest.raises(ValueError):
            collapse_all(forest, [e, bad])
    for op in (collapse_all, _ref_collapse_all):
        with pytest.raises(ValueError):
            op(forest, [e, e])
    # canon_forest skips arrange on one tree, and still refuses an unknown
    # kind; so does planar_forests, where only one-tree forests have k = n - 1
    for mod_flips in (False, True):
        with pytest.raises(ValueError, match="unknown kind"):
            canon_forest("dihedral", PlanarForest([(1, 2)]), mod_flips)
    for n in (1, 3):
        with pytest.raises(ValueError, match="unknown kind"):
            next(planar_forests(n, n - 1, "dihedral"))
    # the public constructor still validates; the leaf-mask passes need
    # non-negative labels
    for trees in ([(1,)], [(1, 2), 2], [(1, "a")], [(-1, 2)]):
        with pytest.raises(ValueError):
            PlanarForest(trees)


@pytest.mark.parametrize(
    "read, text, match",
    [
        (forest_from_newick, "((1,(2,3)),4", "expected ',' or '\\)' at 12"),  # truncated
        (forest_from_newick, "((1,(2,3)),4)(", "trailing"),
        (forest_from_newick, "(1(2,3))", "expected ',' or '\\)' at 2"),
        (forest_from_newick, "((1,2):0,3)", "zero decoration"),
        (zforest_from_newick, "((1,(2,3):0,4", "expected ',' or '\\)'"),
        (zforest_from_newick, "(1):0", ">= 2 ordered children"),
        (zforest_from_newick, "((1,2):0,(2,3))", "duplicate leaf labels"),
    ],
)
def test_newick_errors_are_value_errors(read, text, match):
    with pytest.raises(ValueError, match=match):
        read(text)


def test_zero_forest_validates_its_decorations():
    with pytest.raises(ValueError):
        PlanarForestWithZeros([((1, 2), 3)], [frozenset({1, 3})])
    with pytest.raises(ValueError):
        PlanarForestWithZeros([((1, 2), 3)], [frozenset({1})])
    zf = zforest_from_newick("((1,2):0,3);(4,5):0")
    assert zf.zeros == {frozenset({1, 2}), frozenset({4, 5})}
    assert set(zf.decorated_edges()) == zf.zeros
    assert zf.undecorated_edges() == [frozenset({1, 2, 3})]


# ---------------------------------------------------------------------------
# zero-forest canonical forms against the orbit search
#
# The reference encodes a vertex as ("z", flag, children), flag marking a
# decorated edge, walks the whole orbit under flips at the decorated edges
# breadth first and takes its minimum, as the zero-forests did before they
# were canonicalised bottom-up.


def _ref_z_from_plain(s, zeros):
    if isinstance(s, int):
        return s
    flag = 1 if leafset(s) in zeros else 0
    return ("z", flag, tuple(_ref_z_from_plain(c, zeros) for c in s))


def _ref_z_leafset(s):
    if isinstance(s, int):
        return frozenset([s])
    return frozenset().union(*(_ref_z_leafset(c) for c in s[2]))


def _ref_z_mirror(s):
    if isinstance(s, int):
        return s
    _, flag, kids = s
    return ("z", flag, tuple(_ref_z_mirror(c) for c in reversed(kids)))


def _ref_z_decorated(s):
    if isinstance(s, int):
        return
    _, flag, kids = s
    if flag:
        yield _ref_z_leafset(s)
    for c in kids:
        yield from _ref_z_decorated(c)


def _ref_z_flip_at(s, target):
    if isinstance(s, int):
        return s
    _, flag, kids = s
    if _ref_z_leafset(s) == target:
        return _ref_z_mirror(s)
    return ("z", flag, tuple(_ref_z_flip_at(c, target) for c in kids))


def _ref_z_key(s):
    if isinstance(s, int):
        return (0, s)
    _, flag, kids = s
    return (1, flag, tuple(_ref_z_key(c) for c in kids))


def _ref_z_canon_tree(t):
    """Minimum of the orbit under flips at decorated edges."""
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for e in set(_ref_z_decorated(cur)):
                v = _ref_z_flip_at(cur, e)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return min(seen, key=_ref_z_key)


def _ref_z_to_newick(s):
    if isinstance(s, int):
        return str(s)
    _, flag, kids = s
    body = "(" + ",".join(_ref_z_to_newick(c) for c in kids) + ")"
    return body + ":0" if flag else body


def _ref_zero_trees(kind, trees, zeros):
    ts = [_ref_z_canon_tree(_ref_z_from_plain(t, zeros)) for t in trees]
    if kind == "unordered":
        ts.sort(key=_ref_z_key)
    elif kind == "cyclic":
        rots = [ts[i:] + ts[:i] for i in range(len(ts))]
        ts = min(rots, key=lambda tt: tuple(_ref_z_key(t) for t in tt))
    return tuple(ts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_canon_matches_orbit_search(n):
    for forest in _all_forests(n):
        edges = forest.edges()
        for r in range(len(edges) + 1):
            for dec in itertools.combinations(edges, r):
                zeros = frozenset(dec)
                for kind in ("ordered", "unordered", "cyclic"):
                    zf = _zero_forest(kind, forest.trees, zeros)
                    want = _ref_zero_trees(kind, forest.trees, zeros)
                    assert zf.zeros == zeros and _revalidates(zf.forest)
                    got = tuple(_ref_z_from_plain(t, zeros) for t in zf.forest.trees)
                    assert got == want
                    assert str(zf) == ";".join(_ref_z_to_newick(t) for t in want)
                    if kind == "unordered":
                        assert PlanarForestWithZeros(forest.trees, zeros) == zf
                        assert zforest_from_newick(str(zf)) == zf


def test_top_cells_of_hatD_are_double_factorials():
    from cactusflower.cubecomplexes import build_complex

    for n, want in ((3, 3), (4, 15), (5, 105)):
        assert build_complex("hatD", n).f_vector()[-1] == want == math.prod(range(1, 2 * n - 2, 2))


def test_slotted_forest_keeps_the_frozen_dataclass_behaviour():
    # a slotted PlanarForest: no per-instance dict, still frozen, and it
    # copies, pickles, compares and hashes as the plain frozen dataclass did
    assert not hasattr(RUNNING, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        RUNNING.trees = ()
    for twin in (pickle.loads(pickle.dumps(RUNNING)), copy.copy(RUNNING), copy.deepcopy(RUNNING)):
        assert type(twin) is PlanarForest and twin == RUNNING and hash(twin) == hash(RUNNING)
        assert twin.trees == RUNNING.trees
    for k in range(4):
        for forest in enumerate_planar_forests(4, k):
            built = _forest(forest.trees)
            assert type(built) is PlanarForest and built.trees is forest.trees
            assert built == forest == PlanarForest(forest.trees)
            assert hash(built) == hash(PlanarForest(forest.trees)) == hash((forest.trees,))


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_build_complex_keeps_the_enumeration_order(kind):
    # one tree table for the whole build yields the forests of planar_forests
    # in the same order, so each stored set iterates, and names its
    # witnesses, as one built from planar_forests alone
    from cactusflower.cubecomplexes import D_KINDS, build_complex

    for n in range(2, 6):
        c = build_complex(kind, n)
        for k in range(n):
            assert list(c.subcubes[k]) == list(set(planar_forests(n, k, D_KINDS[kind])))


def _cycles_left_by(call):
    """The objects that only the cyclic collector frees after call(), run
    once to warm any cache first, with the collector off meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.collect()
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _theta_through_split():
    from fractions import Fraction

    from cactusflower.realgeometry import CubePoint, theta

    # the trunks {1..6} and {3, 4, 5, 6} at value 1 split the tree twice
    f = PlanarForest([((1, 2), (3, (4, 5, 6))), 7])
    ones = {frozenset(range(1, 7)), frozenset(range(3, 7))}
    return theta(CubePoint(f, {e: Fraction(1) if e in ones else Fraction(1, 4) for e in f.edges()}))


def _flag_check():
    from cactusflower.cubecomplexes import build_complex, check_gromov_flag

    return check_gromov_flag(build_complex("hatD", 4))


@pytest.mark.parametrize("call", [
    lambda: list(set_partitions(range(1, 5))),
    lambda: binary_refinement(((1, 2, 3), (4, 5, 6, 7))),
    _theta_through_split,
    _flag_check,
], ids=["set_partitions", "binary_refinement", "theta", "build_and_flag"])
def test_recursive_calls_leave_no_reference_cycles(call):
    # each recursion passes its state as arguments, so no closure refers to
    # itself and refcounting frees everything a call leaves behind
    assert _cycles_left_by(call) == 0
