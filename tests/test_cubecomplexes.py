import dataclasses
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import pytest

from cactusflower import cubecomplexes
from cactusflower.combinatorics import (
    SetPartition,
    all_permutations,
    all_set_partitions,
    arrangements,
    set_partitions,
)
from cactusflower.cubecomplexes import (
    D_KINDS,
    P_KINDS,
    CombinatorialMap,
    CubeComplex,
    FlagReport,
    IsometryReport,
    _canon_p_cell,
    _link_graph,
    _link_keys,
    build_complex,
    check_gromov_flag,
    check_local_isometry,
    cubical_subdivision,
    export_dot,
    export_poset,
    extract_presentation,
    presentations_match,
    quotient_map,
    remove_subcube,
    skeleton_D,
)
from cactusflower.forests import (
    PlanarForest,
    PlanarForestWithZeros,
    collapse,
    enumerate_planar_forests,
    enumerate_zero_forests,
    forest_from_newick,
    forest_key,
    forest_to_newick,
    planar_forests,
    zeros_to_planar,
)
from cactusflower.forests import _keeping, _vertices
from cactusflower.groups import canonical_cyclic, make_presentation, ordered_subsets


def test_cell_counts_rank_three():
    assert build_complex("hatD", 3).f_vector() == (1, 6, 3)
    assert build_complex("D", 3).f_vector() == (6, 9, 3)
    assert build_complex("breveD", 3).f_vector()[0] == 2
    assert build_complex("P", 3).f_vector() == (6, 6, 1)
    assert build_complex("hatP", 3).f_vector() == (1, 3, 1)
    assert build_complex("breveP", 3).f_vector()[0] == 2


def test_ordered_set_partitions_count_and_no_duplicates():
    for n in range(1, 7):
        unordered = all_set_partitions(n)
        for k in range(1, n + 1):
            ordered = [
                parts
                for blocks in set_partitions(range(1, n + 1))
                if len(blocks) == k
                for parts in arrangements("ordered", blocks)
            ]
            stirling = sum(1 for p in unordered if len(p) == k)
            assert len(ordered) == math.factorial(k) * stirling
            assert len(set(ordered)) == len(ordered)
            assert {SetPartition(p) for p in ordered} == {p for p in unordered if len(p) == k}


def test_f_vector_matches_forest_counts():
    for n in (3, 4, 5):
        c = build_complex("D", n)
        for k in range(n):
            count = len(enumerate_planar_forests(n, k))
            assert count % (2 ** k) == 0
            assert c.f_vector()[k] == count // 2 ** k


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_f_vector_counts_the_flip_classes(kind):
    for n in (2, 3, 4, 5):
        c = build_complex(kind, n)
        classes = tuple(len({c.canon_big(s) for s in c.subcubes[k]}) for k in range(n))
        assert c.f_vector() == classes
        assert c.counts() == dict(enumerate(classes))
        assert c.dim == n - 1


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_f_vector_rejects_a_partial_big_cube(kind):
    c = build_complex(kind, 4)
    mutant = remove_subcube(c, min(c.subcubes[2], key=forest_key))
    with pytest.raises(ValueError):
        mutant.f_vector()
    with pytest.raises(ValueError):
        mutant.counts()
    assert mutant.dim == c.dim == 3
    assert len(mutant.subcubes[2]) == len(c.subcubes[2]) - 1


def test_gromov_flag_certificates():
    for kind in ("D", "hatD", "breveD"):
        for n in (3, 4):
            assert check_gromov_flag(build_complex(kind, n)).ok


def test_gromov_flag_needs_cube_data():
    with pytest.raises(ValueError):
        check_gromov_flag(build_complex("P", 3))


def test_corrupted_complex_fails_with_witness():
    c = build_complex("hatD", 4)
    cube3 = next(iter(c.subcubes[3]))
    face = c.sub_face(cube3, list(cube3.edges())[:2])
    rep = check_gromov_flag(remove_subcube(c, face))
    assert not rep.ok
    assert rep.detail == "missing square face"
    assert rep.witness is not None


def test_local_isometries():
    # every quotient map, the identities included
    for n in (3, 4, 5):
        built = {kind: build_complex(kind, n) for kind in ("D", "breveD", "hatD")}
        for source, target in itertools.combinations_with_replacement(built, 2):
            assert check_local_isometry(quotient_map(built[source], built[target])).ok
    with pytest.raises(ValueError):
        quotient_map(build_complex("hatD", 3), build_complex("D", 3))


def test_one_cells_biject_with_ordered_subsets():
    for n in (3, 4):
        c = build_complex("hatD", n)
        verts, table = skeleton_D(c)
        assert verts == ["1;2;3" if n == 3 else "1;2;3;4"]
        symbols = set(table)
        expected = {("sA", a) for a in ordered_subsets(n)}
        assert symbols == expected
        # pairing is reversal
        for sym, (_, _, rev) in table.items():
            assert rev == ("sA", tuple(reversed(sym[1])))


def test_subdivision():
    c = build_complex("hatD", 3)
    sub = cubical_subdivision(c)
    zf = enumerate_zero_forests(3)
    strata = {}
    for z in zf:
        strata[len(z.undecorated_edges())] = strata.get(len(z.undecorated_edges()), 0) + 1
    assert sub.counts() == strata
    for big in {c.canon_big(s) for s in c.subcubes[2]}:
        assert sum(1 for z in sub.little[2] if zeros_to_planar(z) == big) == 4
    all_decorated = sum(1 for z in zf if not z.undecorated_edges())
    assert len(sub.little[0]) == all_decorated


@pytest.mark.parametrize(
    "kind, counts",
    [
        ("hatD", {0: 91, 1: 330, 2: 360, 3: 120}),
        ("D", {0: 171, 1: 474, 2: 420, 3: 120}),
        ("breveD", {0: 102, 1: 342, 2: 360, 3: 120}),
    ],
)
def test_subdivision_counts_at_n4(kind, counts):
    sub = cubical_subdivision(build_complex(kind, 4))
    assert sub.counts() == counts
    for k, cells in sub.little.items():
        for z in cells:
            assert isinstance(z, PlanarForestWithZeros)
            assert len(z.undecorated_edges()) == k


def test_extracted_presentations_match_generated():
    for n in (3, 4):
        assert presentations_match(
            extract_presentation(build_complex("hatD", n)),
            make_presentation("pure_virtual_cactus", n),
        )
        assert presentations_match(
            extract_presentation(build_complex("hatP", n)),
            make_presentation("pure_virtual_sym", n),
        )


@pytest.mark.parametrize(
    "kind, family", [("hatD", "pure_virtual_cactus"), ("hatP", "pure_virtual_sym")]
)
def test_presentation_match_negative_controls(kind, family):
    extracted = extract_presentation(build_complex(kind, 4))
    generated = make_presentation(family, 4)
    assert presentations_match(extracted, generated)
    partner = dict(generated.partner)
    relators = extracted.relators
    dropped = dataclasses.replace(extracted, relators=relators[1:])
    assert not presentations_match(dropped, generated)
    # the last letter of the first relator replaced by its inverse
    word = relators[0][:-1] + (partner[relators[0][-1]],)
    assert canonical_cyclic(word, partner) not in {
        canonical_cyclic(r, partner) for r in generated.relators
    }
    altered = dataclasses.replace(extracted, relators=(word,) + relators[1:])
    assert not presentations_match(altered, generated)


def test_presentation_match_rejects_other_generators_or_pairings():
    p = make_presentation("pure_virtual_cactus", 3)
    assert presentations_match(p, p)
    # the same relators over one more generator
    extra = ("x",)
    more = dataclasses.replace(
        p, generators=p.generators + (extra,), partner=p.partner + ((extra, extra),)
    )
    assert not presentations_match(more, p) and not presentations_match(p, more)
    # the same generators and relators, a paired with the inverse of b and
    # b with the inverse of a
    partner = dict(p.partner)
    a, b = p.generators[:2]
    a2, b2 = partner[a], partner[b]
    partner.update({a: b2, b2: a, b: a2, a2: b})
    swapped = dataclasses.replace(p, partner=tuple(partner.items()))
    assert set(swapped.generators) == set(p.generators) and swapped.relators == p.relators
    assert not presentations_match(swapped, p) and not presentations_match(p, swapped)


def test_simply_connected_complex_trivialises():
    # every generator, or its partner, is killed by a one-letter relator
    p = extract_presentation(build_complex("P", 3))
    partner = dict(p.partner)
    assert p.relators and all(len(r) == 1 for r in p.relators)
    killed = {x for r in p.relators for x in r}
    assert killed | {partner[x] for x in killed} == set(p.generators)


def act_on_forest(w, f):
    def rec(s):
        if isinstance(s, int):
            return w(s)
        return tuple(rec(c) for c in s)

    return PlanarForest([rec(t) for t in f.trees])


def complex_action_commutes(c, w):
    """Relabelling permutes the subcubes and commutes with the face maps."""
    for k, subs in c.subcubes.items():
        for sigma in subs:
            im = c.canon_sub(act_on_forest(w, sigma))
            if im not in subs:
                return False
            for e in sigma.edges():
                left = c.canon_sub(act_on_forest(w, collapse(sigma, e)))
                right = c.canon_sub(collapse(im, frozenset(w(x) for x in e)))
                if left != right:
                    return False
    return True


def test_symmetric_group_action():
    for n in (3, 4):
        for kind in ("D", "hatD", "breveD"):
            c = build_complex(kind, n)
            for w in all_permutations(n):
                assert complex_action_commutes(c, w)


def test_exports():
    c = build_complex("hatD", 3)
    dot = export_dot(c)
    assert dot.startswith("graph") and dot.count("--") == 6
    poset = json.loads(export_poset(c))
    assert {k: len(v) for k, v in poset.items()} == {"0": 1, "1": 6, "2": 3}
    poset_p = json.loads(export_poset(build_complex("P", 3)))
    assert {k: len(v) for k, v in poset_p.items()} == {"0": 6, "1": 6, "2": 1}
    # faces of the hexagon are the six edges
    (hexagon,) = poset_p["2"].values()
    assert len(hexagon) == 6


# export_poset and export_dot of the three permutahedron kinds at n = 3
P3_EXPORTS = {
    "P": (
        {
            "0": {
                "[1|2|3]": [],
                "[1|3|2]": [],
                "[2|1|3]": [],
                "[2|3|1]": [],
                "[3|1|2]": [],
                "[3|2|1]": [],
            },
            "1": {
                "[1,2|3]": ["[1|2|3]", "[2|1|3]"],
                "[1,3|2]": ["[1|3|2]", "[3|1|2]"],
                "[1|2,3]": ["[1|2|3]", "[1|3|2]"],
                "[2,3|1]": ["[2|3|1]", "[3|2|1]"],
                "[2|1,3]": ["[2|1|3]", "[2|3|1]"],
                "[3|1,2]": ["[3|1|2]", "[3|2|1]"],
            },
            "2": {
                "[1,2,3]": ["[1,2|3]", "[1,3|2]", "[1|2,3]", "[2,3|1]", "[2|1,3]", "[3|1,2]"],
            },
        },
        [
            'graph skeleton {',
            '  "[1|2|3]";',
            '  "[1|3|2]";',
            '  "[2|1|3]";',
            '  "[2|3|1]";',
            '  "[3|1|2]";',
            '  "[3|2|1]";',
            '  "[1|2|3]" -- "[2|1|3]" [label="(\'pe\', \'[1,2|3]\', (1, 2))"];',
            '  "[1|3|2]" -- "[3|1|2]" [label="(\'pe\', \'[1,3|2]\', (1, 3))"];',
            '  "[1|2|3]" -- "[1|3|2]" [label="(\'pe\', \'[1|2,3]\', (2, 3))"];',
            '  "[2|3|1]" -- "[3|2|1]" [label="(\'pe\', \'[2,3|1]\', (2, 3))"];',
            '  "[2|1|3]" -- "[2|3|1]" [label="(\'pe\', \'[2|1,3]\', (1, 3))"];',
            '  "[3|1|2]" -- "[3|2|1]" [label="(\'pe\', \'[3|1,2]\', (1, 2))"];',
            '}',
        ],
    ),
    "hatP": (
        {
            "0": {
                "{1|2|3}": [],
            },
            "1": {
                "{1,2|3}": ["{1|2|3}"],
                "{1,3|2}": ["{1|2|3}"],
                "{1|2,3}": ["{1|2|3}"],
            },
            "2": {
                "{1,2,3}": ["{1,2|3}", "{1,3|2}", "{1|2,3}"],
            },
        },
        [
            'graph skeleton {',
            '  "{1|2|3}";',
            '  "{1|2|3}" -- "{1|2|3}" [label="(\'sig\', 1, 2)"];',
            '  "{1|2|3}" -- "{1|2|3}" [label="(\'sig\', 1, 3)"];',
            '  "{1|2|3}" -- "{1|2|3}" [label="(\'sig\', 2, 3)"];',
            '}',
        ],
    ),
    "breveP": (
        {
            "0": {
                "(1|2|3)": [],
                "(1|3|2)": [],
            },
            "1": {
                "(1,2|3)": ["(1|2|3)", "(1|3|2)"],
                "(1,3|2)": ["(1|2|3)", "(1|3|2)"],
                "(1|2,3)": ["(1|2|3)", "(1|3|2)"],
            },
            "2": {
                "(1,2,3)": ["(1,2|3)", "(1,3|2)", "(1|2,3)"],
            },
        },
        [
            'graph skeleton {',
            '  "(1|2|3)";',
            '  "(1|3|2)";',
            '  "(1|2|3)" -- "(1|3|2)" [label="(\'pe\', \'(1,2|3)\', (1, 2))"];',
            '  "(1|3|2)" -- "(1|2|3)" [label="(\'pe\', \'(1,3|2)\', (1, 3))"];',
            '  "(1|2|3)" -- "(1|3|2)" [label="(\'pe\', \'(1|2,3)\', (2, 3))"];',
            '}',
        ],
    ),
}


def test_p_family_exports_at_n3():
    for kind, (poset, dot) in P3_EXPORTS.items():
        c = build_complex(kind, 3)
        assert export_poset(c) == json.dumps(poset, sort_keys=True)
        assert export_dot(c) == "\n".join(dot)


def test_p_cells_are_stored_canonical():
    for kind in P_KINDS:
        for n in (2, 3, 4, 5):
            c = build_complex(kind, n)
            for cells in c.cells.values():
                for cell in cells:
                    assert _canon_p_cell(kind, cell) == cell
    # a rotation of the blocks, or unsorted blocks, name the same breveP cell
    assert _canon_p_cell("breveP", [(4,), (1, 2), (3,)]) == ((1, 2), (3,), (4,))
    assert _canon_p_cell("breveP", [(4,), (2, 1), (3,)]) == ((1, 2), (3,), (4,))
    assert _canon_p_cell("breveP", [(3,), (4,), (1, 2)]) == ((1, 2), (3,), (4,))
    assert _canon_p_cell("breveP", [(3,), (1, 2), (4,)]) == ((1, 2), (4,), (3,))
    assert _canon_p_cell("hatP", [(3,), (4,), (2, 1)]) == ((1, 2), (3,), (4,))
    assert _canon_p_cell("P", [(4,), (2, 1), (3,)]) == ((4,), (1, 2), (3,))


def test_build_rejects_small_n():
    with pytest.raises(ValueError):
        build_complex("D", 1)
    with pytest.raises(ValueError):
        build_complex("X", 3)


# ---------------------------------------------------------------------------
# the link-key certificates against the forest-building reference


def faces(forest, size):
    """The forests left by contracting all internal edges but `size` of them,
    one per kept subset, in itertools.combinations order over edges(): the
    faces of the forest's sub-cube that keep `size` of its directions."""
    order, spans = _vertices(forest)
    return [_keeping(order, keep) for keep in itertools.combinations(spans, size)]


def _sub_faces(c, sigma, size):
    """The canonical faces of a sub-cube that keep `size` of its edges, one
    per edge subset in itertools.combinations order, built by faces above
    rather than by CubeComplex.sub_face."""
    return [c.canon_sub(f) for f in faces(sigma, size)]


def _reference_square_index(c):
    index, fault = {}, None
    for sq in sorted(c.subcubes.get(2, ()), key=forest_key):
        a, b = _sub_faces(c, sq, 1)
        pairs = index.setdefault(c.vertex_of(sq), {})
        pair = frozenset((a, b))
        if fault is None:
            if a == b:
                fault = ("degenerate square link", (forest_to_newick(sq),))
            elif pair in pairs:
                fault = (
                    "two squares on the same corner pair",
                    (forest_to_newick(pairs[pair]), forest_to_newick(sq)),
                )
        pairs[pair] = sq
    return index, fault


def _reference_flag(c):
    """The flag check as it was when it built and canonicalised every face
    forest, reading each dimension's sub-cubes in forest_key order; it
    raises KeyError when a square's corner is not a sub-1-cube."""
    squares = c.subcubes.get(2, set())
    for k in range(3, c.dim + 1):
        for sigma in sorted(c.subcubes.get(k, ()), key=forest_key):
            for face in _sub_faces(c, sigma, 2):
                if face not in squares:
                    return FlagReport(
                        False, (forest_to_newick(sigma), forest_to_newick(face)), "missing square face"
                    )
    by_square, fault = _reference_square_index(c)
    if fault is not None:
        detail, witness = fault
        return FlagReport(False, witness, detail)
    simplices = {v: dict(pairs) for v, pairs in by_square.items()}
    for k in range(3, c.dim + 1):
        for sigma in sorted(c.subcubes.get(k, ()), key=forest_key):
            verts = frozenset(_sub_faces(c, sigma, 1))
            if len(verts) != k:
                return FlagReport(False, (forest_to_newick(sigma),), "repeated corner in a link simplex")
            at_v = simplices.setdefault(c.vertex_of(sigma), {})
            if verts in at_v:
                return FlagReport(
                    False,
                    (forest_to_newick(at_v[verts]), forest_to_newick(sigma)),
                    "two cubes span the same link simplex",
                )
            at_v[verts] = sigma
    ones_by_vertex = {}
    for s1 in c.subcubes.get(1, ()):
        ones_by_vertex.setdefault(c.vertex_of(s1), []).append(s1)
    for v, ones in ones_by_vertex.items():
        names = sorted(ones, key=forest_key)
        adj = {a: set() for a in names}
        for pair in by_square.get(v, ()):
            a, b = tuple(pair)
            adj[a].add(b)
            adj[b].add(a)
        at_v = simplices.get(v, {})

        def extend(clique, candidates):
            size = len(clique)
            if size >= 2 and frozenset(clique) not in at_v:
                return FlagReport(
                    False,
                    (str(v and forest_to_newick(v)), tuple(forest_to_newick(x) for x in clique)),
                    f"{size}-clique spans no cube",
                )
            for idx, cand in enumerate(candidates):
                rep = extend(clique + [cand], [x for x in candidates[idx + 1 :] if x in adj[cand]])
                if rep is not None:
                    return rep
            return None

        for idx, a in enumerate(names):
            rep = extend([a], [b for b in names[idx + 1 :] if b in adj[a]])
            if rep is not None:
                return rep
    return FlagReport(True)


def _reference_vertex_link(c, vertex):
    """(the sub-1-cubes at a 0-cube, the simplices of its link): one simplex
    per face set of corners of each incident sub-cube, corners as forests."""
    ones = sorted((s for s in c.subcubes.get(1, ()) if c.vertex_of(s) == vertex), key=forest_key)
    simplices = set()
    for k in range(1, c.dim + 1):
        for sigma in c.subcubes.get(k, ()):
            if c.vertex_of(sigma) != vertex:
                continue
            corners = [c.sub_face(sigma, [e]) for e in sigma.edges()]
            for size in range(1, len(corners) + 1):
                for combo in itertools.combinations(corners, size):
                    simplices.add(frozenset(combo))
    return tuple(ones), frozenset(simplices)


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_flag_single_deletions_match_reference(kind):
    for n in (3, 4):
        c = build_complex(kind, n)
        for k in range(1, c.dim + 1):
            for sigma in sorted(c.subcubes[k], key=forest_key):
                mutant = remove_subcube(c, sigma)
                rep = check_gromov_flag(mutant)
                if k == 1:
                    assert not rep.ok and rep.detail == "missing edge face"
                    square, corner = rep.witness
                    assert corner == forest_to_newick(sigma)
                    assert forest_from_newick(square) in c.subcubes[2]
                else:
                    ref = _reference_flag(mutant)
                    assert (rep.ok, rep.detail, rep.witness) == (ref.ok, ref.detail, ref.witness)


def test_clique_witness_names_link_vertices_by_newick():
    # D_4 without its first sub-3-cube: the three corners are sub-1-cubes at
    # the vertex, each named by its Newick string
    c = build_complex("D", 4)
    rep = check_gromov_flag(remove_subcube(c, min(c.subcubes[3], key=forest_key)))
    assert (rep.ok, rep.detail) == (False, "3-clique spans no cube")
    assert rep.witness == ("1;2;3;4", ("1;2;(3,4)", "1;(2,3,4)", "(1,2,3,4)"))
    assert all(forest_from_newick(name) in c.subcubes[1] for name in rep.witness[1])


@pytest.mark.parametrize("kind", ["breveD", "hatD"])
def test_two_squares_on_one_corner_pair_fail_naming_both(kind):
    # a second representative of a square, its trees rotated, has the same
    # corners at the same vertex
    c = build_complex(kind, 4)
    square = min((s for s in c.subcubes[2] if len(s.trees) > 1), key=forest_key)
    twin = PlanarForest(square.trees[1:] + square.trees[:1])
    assert twin != square and c.canon_sub(twin) == square
    mutant = CubeComplex(kind, 4, {k: v | {twin} if k == 2 else v for k, v in c.subcubes.items()})
    rep = check_gromov_flag(mutant)
    assert not rep.ok and rep.detail == "two squares on the same corner pair"
    assert set(rep.witness) == {forest_to_newick(square), forest_to_newick(twin)}
    ref = _reference_flag(mutant)
    assert (rep.ok, rep.detail, rep.witness) == (ref.ok, ref.detail, ref.witness)


@pytest.mark.parametrize("kind", ["breveD", "hatD"])
def test_two_cubes_on_one_link_simplex_fail_naming_both(kind):
    # a second representative of a 3-cube, its trees rotated, has the same
    # corners at the same vertex, and all its square faces are present
    c = build_complex(kind, 5)
    cube = min((s for s in c.subcubes[3] if len(s.trees) > 1), key=forest_key)
    twin = PlanarForest(cube.trees[1:] + cube.trees[:1])
    assert twin != cube and c.canon_sub(twin) == cube
    mutant = CubeComplex(kind, 5, {k: v | {twin} if k == 3 else v for k, v in c.subcubes.items()})
    rep = check_gromov_flag(mutant)
    assert not rep.ok and rep.detail == "two cubes span the same link simplex"
    assert set(rep.witness) == {forest_to_newick(cube), forest_to_newick(twin)}
    ref = _reference_flag(mutant)
    assert (rep.ok, rep.detail, rep.witness) == (ref.ok, ref.detail, ref.witness)


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_corner_keys_of_a_subcube_are_distinct(kind):
    # why the flag check never meets a degenerate square or a repeated
    # corner in a link simplex: distinct spans of one leaf order give
    # distinct corner keys
    for n in range(2, 7):
        for k in range(n):
            for sigma in planar_forests(n, k, D_KINDS[kind]):
                corners = _link_keys(D_KINDS[kind], sigma)[1]
                assert len(set(corners)) == len(corners) == k


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_link_keys_are_faithful(kind):
    for n in (2, 3, 4, 5):
        c = build_complex(kind, n)
        corner_of, face_of = {}, {}
        vertex_of_key, key_of_vertex = {}, {}
        for subs in c.subcubes.values():
            for sigma in subs:
                v, corners = _link_keys(D_KINDS[kind], sigma)
                vertex = c.vertex_of(sigma)
                assert vertex_of_key.setdefault(v, vertex) == vertex
                assert key_of_vertex.setdefault(vertex, v) == v
                faces1 = _sub_faces(c, sigma, 1)
                assert len(corners) == len(faces1) == sigma.num_edges()
                # links are per vertex: a corner is named by both keys
                for a, face in zip(corners, faces1):
                    assert corner_of.setdefault((v, a), face) == face
                    assert face_of.setdefault(face, (v, a)) == (v, a)
        assert len(vertex_of_key) == len(c.subcubes[0])
        assert len(corner_of) == len(c.subcubes[1])


def _ref_link_keys(kind, sigma):
    """The keys of the module docstring, with each edge's span read off the
    leaf order by position."""
    order = sigma.leaf_order()
    pos = {x: r for r, x in enumerate(order)}
    spans = []
    for e in sigma.edges():
        lo = min(pos[x] for x in e)
        spans.append((lo, lo + len(e)))
    assert _vertices(sigma) == (list(order), spans)
    if kind == "ordered":
        return order, spans
    if kind == "unordered":
        return (), [order[lo:hi] for lo, hi in spans]
    i = order.index(min(order))
    rotated = order[i:] + order[:i]
    # a run's start on the rotated order, found by its first label
    return rotated, [(rotated.index(order[lo]), hi - lo) for lo, hi in spans]


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_link_keys_match_the_span_reference(kind):
    for subs in build_complex(kind, 5).subcubes.values():
        for sigma in subs:
            assert _link_keys(D_KINDS[kind], sigma) == _ref_link_keys(D_KINDS[kind], sigma)


def _link_corner(c):
    """The corner key of a sub-1-cube in the links of c."""
    kind = D_KINDS[c.kind]
    return lambda f: _link_keys(kind, f)[1][0]


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_vertex_of_is_the_face_with_every_edge_collapsed(kind):
    for n in range(2, 6):
        c = build_complex(kind, n)
        for subs in c.subcubes.values():
            for sigma in subs:
                assert c.vertex_of(sigma) == c.sub_face(sigma, ())


def test_vertex_link_is_flag_when_certified():
    # the link read from _link_graph: every set of pairwise-joined corners
    # spans a simplex, and the simplices are closed under faces
    c = build_complex("hatD", 3)
    assert check_gromov_flag(c).ok
    (v,) = c.vertices()
    corner = _link_corner(c)
    key = _link_keys(D_KINDS[c.kind], v)[0]
    link = _link_graph(c)[0][key]
    assert len(link.ones) == 12  # directed-cell pairs: 6 one-cubes
    _, simplices = _reference_vertex_link(c, v)
    spans = {frozenset(map(corner, s)) for s in simplices}
    for size in range(1, len(link.ones) + 1):
        for clique in itertools.combinations(link.ones, size):
            names = list(map(corner, clique))
            if link.span(names) is not None:  # pairwise joined
                assert frozenset(names) in spans
    for simplex in simplices:
        for size in range(1, len(simplex)):
            for sub in itertools.combinations(simplex, size):
                assert frozenset(sub) in simplices  # closed under faces


def test_vertex_link_matches_reference():
    # _link_graph's link at each 0-cube against the forest-building reference
    complexes = [build_complex(kind, n) for kind, n in
                 (("hatD", 3), ("D", 4), ("breveD", 4), ("hatD", 4), ("hatD", 5))]
    c = build_complex("D", 3)
    (sigma,) = [s for s in c.subcubes[1] if forest_to_newick(s) == "(1,2);3"]
    mutant = remove_subcube(c, sigma)  # its squares keep the deleted corner
    complexes.append(mutant)
    for c in complexes:
        corner = _link_corner(c)
        links, open_square, _ = _link_graph(c)
        for v in c.vertices():
            ref_ones, simplices = _reference_vertex_link(c, v)
            for simplex in simplices:
                for sub in itertools.combinations(simplex, len(simplex) - 1):
                    assert not sub or frozenset(sub) in simplices  # closed under faces
            link = links[_link_keys(D_KINDS[c.kind], v)[0]]
            # bit i is the i-th sub-1-cube in forest_key order
            assert link.ones == list(ref_ones)
            assert link.bit == {corner(s1): i for i, s1 in enumerate(ref_ones)}
            assert len(link.rows) == len(ref_ones)
            assert set(link.bit) <= {corner(f) for s in simplices if len(s) == 1 for f in s}
            # a square joins its corners when both are sub-1-cubes, else nothing
            joined = {(a, b) for a, b in itertools.permutations(link.bit, 2) if link.span((a, b)) is not None}
            edges = (set(map(corner, s)) for s in simplices if len(s) == 2)
            assert joined == {pair for e in edges if e <= set(link.bit) for pair in itertools.permutations(e)}
        if c is mutant:
            assert sigma in _sub_faces(c, open_square, 1)
        else:
            assert open_square is None


@pytest.mark.parametrize("kind", ["D", "breveD", "hatD"])
def test_flag_report_counts_one_clique_per_subcube(kind):
    # each k-clique of a certified link is the corner set of one sub-k-cube
    # (ROADMAP item 7's counting argument)
    for n in (2, 3, 4, 5):
        c = build_complex(kind, n)
        rep = check_gromov_flag(c)
        assert rep.ok
        assert rep.cliques == {k: len(c.subcubes[k]) for k in range(1, n)}
        if kind == "hatD":
            assert tuple(rep.cliques.values()) == _hatD_subcube_counts(n)[1:]
    mutant = remove_subcube(c, min(c.subcubes[3], key=forest_key))
    rep = check_gromov_flag(mutant)
    assert (rep.ok, rep.cliques) == (False, {})


@dataclass
class _MergeTwo(CombinatorialMap):
    """The identity, except that one sub-1-cube goes onto another."""

    merged: tuple = ()

    def apply(self, f):
        return self.merged[1] if f == self.merged[0] else super().apply(f)


def test_isometry_negative_controls():
    d = build_complex("D", 4)
    a, b = sorted(
        (s for s in d.subcubes[1] if forest_to_newick(d.vertex_of(s)) == "1;2;3;4"), key=forest_key
    )[:2]
    rep = check_local_isometry(_MergeTwo(d, d, "merge", (b, a)))
    assert not rep.ok and rep.detail == "link not injective"
    assert rep.witness == (forest_to_newick(a), forest_to_newick(b))

    square = min(d.subcubes[2], key=forest_key)
    rep = check_local_isometry(quotient_map(remove_subcube(d, square), build_complex("breveD", 4)))
    assert not rep.ok and rep.detail == "image square has no preimage square"
    assert rep.witness == ("1;2;(3,4)", "1;(2,3,4)")


def _reference_isometry(phi):
    """The local-isometry check on link graphs kept as a dict of corner-key
    sets per vertex key, each link in the forest_key order of its
    sub-1-cubes.  Each source link must go into the target link at its first
    sub-1-cube's image, where the images are keyed by corner key alone and
    must be sub-1-cubes of the target; two sub-1-cubes span a square exactly
    when their images do."""
    def link_sets(c):
        kind = D_KINDS[c.kind]
        ones, adj = {}, {}
        for s1 in sorted(c.subcubes.get(1, ()), key=forest_key):
            v, (a,) = _link_keys(kind, s1)
            ones.setdefault(v, {})[a] = s1
            adj.setdefault(v, {})[a] = set()
        for sq in c.subcubes.get(2, ()):
            v, (a, b) = _link_keys(kind, sq)
            at_v = adj.setdefault(v, {})
            at_v.setdefault(a, set()).add(b)
            at_v.setdefault(b, set()).add(a)
        return ones, adj

    def fail(x, y, detail):
        return IsometryReport(False, (forest_to_newick(x), forest_to_newick(y)), detail)

    src, dst = phi.source, phi.target
    dst_kind = D_KINDS[dst.kind]
    src_ones, src_adj = link_sets(src)
    dst_ones, dst_adj = link_sets(dst)
    for v, ones in src_ones.items():
        first = next(iter(ones.values()))
        home = _link_keys(dst_kind, phi.apply(first))[0]
        images = {}  # image corner key at home -> (source corner key, sub-1-cube)
        for a, s1 in ones.items():
            image = phi.apply(s1)
            vi, (im,) = _link_keys(dst_kind, image)
            if vi != home:
                return fail(first, s1, "link not sent into one vertex link")
            if im in images:
                return fail(images[im][1], s1, "link not injective")
            if im not in dst_ones.get(home, {}):
                return fail(s1, image, "image is no sub-1-cube of the target")
            images[im] = (a, s1)
        for (ia, (a, fa)), (ib, (b, fb)) in itertools.combinations(images.items(), 2):
            if ib in dst_adj[home][ia] and b not in src_adj[v][a]:
                return fail(fa, fb, "image square has no preimage square")
            if b in src_adj[v][a] and ib not in dst_adj[home][ia]:
                return fail(fa, fb, "square's image is no square of the target")
    return IsometryReport(True)


def _same_isometry_verdict(phi):
    rep, ref = check_local_isometry(phi), _reference_isometry(phi)
    assert (rep.ok, rep.detail, rep.witness) == (ref.ok, ref.detail, ref.witness)
    return rep


@pytest.mark.parametrize("source, target", [("D", "breveD"), ("breveD", "hatD")])
def test_isometry_single_square_deletions_match_reference(source, target):
    src, dst = build_complex(source, 4), build_complex(target, 4)
    assert _same_isometry_verdict(quotient_map(src, dst)).ok
    failed = 0
    for square in sorted(src.subcubes[2], key=forest_key):
        failed += not _same_isometry_verdict(quotient_map(remove_subcube(src, square), dst)).ok
    assert failed == len(src.subcubes[2])  # every deleted square is some image's preimage


def test_isometry_merges_match_reference():
    d = build_complex("D", 4)
    ones = sorted(
        (s for s in d.subcubes[1] if forest_to_newick(d.vertex_of(s)) == "1;2;3;4"), key=forest_key
    )
    for merged in itertools.permutations(ones, 2):
        rep = _same_isometry_verdict(_MergeTwo(d, d, "merge", merged))
        assert not rep.ok and rep.detail == "link not injective"


def _ones_at(c, vertex):
    """The sub-1-cubes at the 0-cube named `vertex`, in forest_key order."""
    return sorted((s for s in c.subcubes[1] if forest_to_newick(c.vertex_of(s)) == vertex), key=forest_key)


@pytest.mark.parametrize("kind, away, maps", [("D", "2;1;3;4", 72), ("breveD", "1;3;2;4", 288)])
def test_isometry_of_a_corner_sent_to_an_equal_position_key_elsewhere(kind, away, maps):
    # a sub-1-cube at 1;2;3;4 sent onto one at another 0-cube whose corner
    # key (a position on its own vertex) is also a corner key at 1;2;3;4:
    # the link of 1;2;3;4 no longer goes into one vertex link, so every map
    # fails, from the whole complex and with its least square deleted, and
    # names the moved sub-1-cube beside another at 1;2;3;4
    c = build_complex(kind, 4)
    corner = _link_corner(c)
    home, there = _ones_at(c, "1;2;3;4"), _ones_at(c, away)
    assert {corner(s) for s in there} == {corner(s) for s in home}
    holed = remove_subcube(c, min(c.subcubes[2], key=forest_key))
    names = set(map(forest_to_newick, home))
    verdicts = Counter()
    for x, z in itertools.product(home, there):
        for src in (c, holed):
            rep = _same_isometry_verdict(_MergeTwo(src, c, "elsewhere", (x, z)))
            verdicts[rep.ok, rep.detail] += 1
            assert forest_to_newick(x) in rep.witness and set(rep.witness) <= names
            assert rep.witness[0] != rep.witness[1]
    assert verdicts == {(False, "link not sent into one vertex link"): maps}
    assert maps == 2 * len(home) * len(there)


@pytest.mark.parametrize("source, target, n, maps", [
    ("D", "breveD", 3, 12), ("breveD", "hatD", 3, 12), ("D", "breveD", 4, 72), ("breveD", "hatD", 4, 60),
])
def test_isometry_into_a_target_less_one_sub_1_cube_fails(source, target, n, maps):
    # negative control: a quotient map into its target with one sub-1-cube
    # deleted sends some source sub-1-cube onto the deleted one
    src, dst = build_complex(source, n), build_complex(target, n)
    assert len(dst.subcubes[1]) == maps
    for s1 in sorted(dst.subcubes[1], key=forest_key):
        rep = _same_isometry_verdict(quotient_map(src, remove_subcube(dst, s1)))
        assert (rep.ok, rep.detail) == (False, "image is no sub-1-cube of the target")
        assert rep.witness[1] == forest_to_newick(s1)
        assert dst.canon_sub(forest_from_newick(rep.witness[0])) == s1


@pytest.mark.parametrize("source, target, n, maps", [
    ("D", "breveD", 3, 12), ("breveD", "hatD", 3, 12), ("D", "hatD", 3, 12),
    ("D", "breveD", 4, 180), ("breveD", "hatD", 4, 180), ("D", "hatD", 4, 180),
])
def test_isometry_into_a_target_less_one_square_fails(source, target, n, maps):
    # negative control: a quotient map into its target with one square
    # deleted sends two source sub-1-cubes that span a square onto the
    # deleted square's corners
    src, dst = build_complex(source, n), build_complex(target, n)
    assert len(dst.subcubes[2]) == maps
    for square in sorted(dst.subcubes[2], key=forest_key):
        rep = _same_isometry_verdict(quotient_map(src, remove_subcube(dst, square)))
        assert (rep.ok, rep.detail) == (False, "square's image is no square of the target")
        assert {dst.canon_sub(forest_from_newick(w)) for w in rep.witness} == set(_sub_faces(dst, square, 1))


@pytest.mark.parametrize("source, target", [("D", "breveD"), ("breveD", "hatD"), ("D", "hatD")])
def test_a_lost_sub_3_cube_passes_the_isometry_check_and_fails_the_flag_check(source, target):
    # check_local_isometry compares links up to squares, which determine the
    # higher simplices of flag links only: a source or target less one
    # sub-3-cube passes it, and check_gromov_flag rejects that complex
    src, dst = build_complex(source, 4), build_complex(target, 4)
    for side, c in (("source", src), ("target", dst)):
        assert len(c.subcubes[3]) == 120
        for cube in sorted(c.subcubes[3], key=forest_key):
            less = remove_subcube(c, cube)
            phi = quotient_map(less, dst) if side == "source" else quotient_map(src, less)
            assert _same_isometry_verdict(phi).ok
            rep = check_gromov_flag(less)
            assert (rep.ok, rep.detail) == (False, "3-clique spans no cube")


def _reordered(c):
    """An equal copy of c whose sub-cube sets were filled in reverse order."""
    return CubeComplex(c.kind, c.n, {k: set(reversed(list(v))) for k, v in c.subcubes.items()})


def _verdict(rep):
    return rep.ok, rep.detail, rep.witness


def test_isometry_witness_names_the_least_sub_1_cube_of_a_link():
    # breveD_4 with the sub-1-cube 2;3;(4,1) at 1;2;3;4 moved onto 1;3;2;4:
    # the witness pairs it with the forest_key-least sub-1-cube at 1;2;3;4,
    # whatever order the complex's sets iterate in
    c = build_complex("breveD", 4)
    twin = _reordered(c)
    (x,) = (s for s in c.subcubes[1] if forest_to_newick(s) == "2;3;(4,1)")
    witness = (forest_to_newick(_ones_at(c, "1;2;3;4")[0]), "2;3;(4,1)")
    assert witness == ("1;2;(3,4)", "2;3;(4,1)")
    for z in _ones_at(c, "1;3;2;4"):
        for src in (c, twin):
            rep = check_local_isometry(_MergeTwo(src, src, "elsewhere", (x, z)))
            assert _verdict(rep) == (False, "link not sent into one vertex link", witness)


@pytest.mark.parametrize("kind, away", [("D", "2;1;3;4"), ("breveD", "1;3;2;4"), ("hatD", None)])
def test_witnesses_depend_only_on_the_complex(kind, away):
    # an equal copy whose sets iterate in another order gives the same flag
    # report, on the complex and on it less any one sub-cube at n = 3, 4,
    # and the same isometry report on every map of the elsewhere test above
    c = build_complex(kind, 4)
    for cx in (build_complex(kind, 3), c):
        for sigma in [None] + [s for subs in cx.subcubes.values() for s in subs]:
            holed = cx if sigma is None else remove_subcube(cx, sigma)
            assert _verdict(check_gromov_flag(holed)) == _verdict(check_gromov_flag(_reordered(holed)))
    if away is None:  # hatD has one 0-cube, so no map sends a corner elsewhere
        return
    holed = remove_subcube(c, min(c.subcubes[2], key=forest_key))
    twin = _reordered(c)
    for src, src_twin in ((c, twin), (holed, _reordered(holed))):
        for x, z in itertools.product(_ones_at(c, "1;2;3;4"), _ones_at(c, away)):
            rep = check_local_isometry(_MergeTwo(src, c, "elsewhere", (x, z)))
            again = check_local_isometry(_MergeTwo(src_twin, twin, "elsewhere", (x, z)))
            assert _verdict(rep) == _verdict(again)


KINDS = ("D", "breveD", "hatD")
QUOTIENTS = (("D", "breveD"), ("breveD", "hatD"))


@pytest.mark.parametrize("kind", KINDS)
def test_cached_links_equal_a_fresh_build_after_the_checks(kind):
    # the table a complex keeps is the one _link_graph builds, and the
    # certificates that read it leave it so, on the complex and on a mutant
    # whose squares keep a deleted corner
    for n in (2, 3, 4, 5):
        c = build_complex(kind, n)
        for cx in (c, remove_subcube(c, min(c.subcubes[1], key=forest_key))):
            check_gromov_flag(cx)
            check_local_isometry(quotient_map(cx, c))
            check_local_isometry(quotient_map(c, cx))
            links, open_square, doubled = cx._links
            fresh, fresh_open, fresh_doubled = _link_graph(cx)
            assert (open_square, doubled) == (fresh_open, fresh_doubled)
            assert (open_square is None) == (cx is c or n == 2)  # no complex at n = 2 has squares
            assert links.keys() == fresh.keys()
            for v, link in links.items():
                assert (link.ones, link.bit, link.rows) == (fresh[v].ones, fresh[v].bit, fresh[v].rows)


def _flag_then_isometry(build):
    """The flag reports of D, breveD and hatD, then the isometry reports of
    the two quotient maps, into their target, the target less its least
    square or sub-1-cube, and between reordered copies; build(kind) gives
    each complex."""
    reports = [check_gromov_flag(build(kind)) for kind in KINDS]
    for a, b in QUOTIENTS:
        src, dst = build(a), build(b)
        for target in (dst, *(remove_subcube(dst, min(dst.subcubes[k], key=forest_key)) for k in (2, 1))):
            reports.append(check_local_isometry(quotient_map(src, target)))
        reports.append(check_local_isometry(quotient_map(_reordered(src), _reordered(dst))))
    return reports


@pytest.mark.parametrize("n", [3, 4])
def test_shared_complexes_certify_as_fresh_builds(n):
    # each complex built once and read by every check gives the reports
    # (verdicts, details, witnesses and cliques) of a build per check
    shared = {kind: build_complex(kind, n) for kind in KINDS}
    reports = _flag_then_isometry(shared.__getitem__)
    assert reports == _flag_then_isometry(lambda kind: build_complex(kind, n))
    assert [rep.ok for rep in reports] == [True] * 3 + [True, False, False, True] * 2


def test_a_flag_and_isometry_pass_builds_each_link_table_once(monkeypatch):
    # the pass the complexes benchmark makes: three flag checks, then the
    # two quotient maps, breveD as their target and then their source
    built = []
    monkeypatch.setattr(cubecomplexes, "_link_graph", lambda c: built.append(c.kind) or _link_graph(c))
    shared = {kind: build_complex(kind, 4) for kind in KINDS}
    assert all(check_gromov_flag(c).ok for c in shared.values())
    assert all(check_local_isometry(quotient_map(shared[a], shared[b])).ok for a, b in QUOTIENTS)
    assert built == list(KINDS)


def test_a_complex_is_frozen_and_its_mutants_are_new_complexes():
    c, p = build_complex("hatD", 4), build_complex("hatP", 3)
    square = min(c.subcubes[2], key=forest_key)
    for table, k in ((c.subcubes, 2), (p.cells, 1)):
        with pytest.raises(AttributeError):
            table[k].add(next(iter(table[k - 1])))
        with pytest.raises(TypeError):
            table[k] = frozenset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.kind = "D"
    assert check_gromov_flag(c).ok
    links = c._links
    mutant = remove_subcube(c, square)
    assert not check_gromov_flag(mutant).ok
    assert c._links is links and mutant._links is not links
    assert square in c.subcubes[2] and square not in mutant.subcubes[2]
    assert check_gromov_flag(c).ok


def _hatD_subcube_counts(n):
    """Sub-cubes of hatD_n by dimension, without building it: the exponential
    formula over planar trees counted by leaves and internal vertices.

    A sub-k-cube is a set of planar trees on the blocks of a set partition
    of [n] with k internal vertices in all; a tree is a leaf or a root with
    a sequence of at least two subtrees, and labelling its m leaves gives m!
    trees per shape."""
    shapes = [[0] * n for _ in range(n + 1)]  # [leaves][internal vertices]
    seqs = [[0] * n for _ in range(n + 1)]  # sequences of >= 1 shapes
    for m in range(1, n + 1):
        for j in range(n):
            if m == 1:
                shapes[m][j] = int(j == 0)
            elif j:
                shapes[m][j] = seqs[m][j - 1] - shapes[m][j - 1]  # >= 2 subtrees
            seqs[m][j] = shapes[m][j] + sum(
                shapes[m1][j1] * seqs[m - m1][j - j1] for m1 in range(1, m) for j1 in range(j + 1)
            )
    forests = [[1] + [0] * (n - 1)]  # forests[size][k]
    for size in range(1, n + 1):
        row = [0] * n
        for m in range(1, size + 1):  # the block holding the first label
            for j in range(n):
                trees = math.comb(size - 1, m - 1) * math.factorial(m) * shapes[m][j]
                for k in range(j, n):
                    row[k] += trees * forests[size - m][k - j]
        forests.append(row)
    return tuple(forests[n])


def test_hatD_subcube_counts_follow_the_exponential_formula():
    for n in (2, 3, 4, 5):
        c = build_complex("hatD", n)
        assert _hatD_subcube_counts(n) == tuple(len(c.subcubes[k]) for k in range(n))
    assert sum(_hatD_subcube_counts(4)) == 361
    assert sum(_hatD_subcube_counts(5)) == 7341
    assert _hatD_subcube_counts(6) == (1, 1950, 20580, 63840, 75600, 30240)
    assert sum(_hatD_subcube_counts(6)) == 192211
    assert sum(_hatD_subcube_counts(7)) == 6154933
