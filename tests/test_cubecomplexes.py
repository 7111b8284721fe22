import itertools
import json
import math

import pytest

from cactusflower.combinatorics import Permutation, SetPartition, all_permutations, all_set_partitions
from cactusflower.cubecomplexes import (
    _ordered_set_partitions,
    build_complex,
    build_breveD,
    build_breveP,
    build_D,
    build_hatD,
    build_hatP,
    build_P,
    check_gromov_flag,
    check_local_isometry,
    complex_action_commutes,
    cubical_subdivision,
    export_dot,
    export_poset,
    extract_presentation,
    identity_map,
    presentations_match,
    quotient_map,
    remove_subcube,
    simplify_presentation,
    skeleton_D,
)
from cactusflower.forests import enumerate_planar_forests, enumerate_zero_forests, zeros_to_planar
from cactusflower.groups import make_presentation, ordered_subsets


def test_cell_counts_rank_three():
    assert build_hatD(3).f_vector() == (1, 6, 3)
    assert build_D(3).f_vector() == (6, 9, 3)
    assert build_breveD(3).f_vector()[0] == 2
    assert build_P(3).f_vector() == (6, 6, 1)
    assert build_hatP(3).f_vector() == (1, 3, 1)
    assert build_breveP(3).f_vector()[0] == 2


def test_ordered_set_partitions_count_and_no_duplicates():
    for n in range(1, 7):
        unordered = all_set_partitions(n)
        for k in range(1, n + 1):
            ordered = list(_ordered_set_partitions(n, k))
            stirling = sum(1 for p in unordered if len(p) == k)
            assert len(ordered) == math.factorial(k) * stirling
            assert len(set(ordered)) == len(ordered)
            assert {SetPartition(p) for p in ordered} == {p for p in unordered if len(p) == k}


def test_f_vector_matches_forest_counts():
    for n in (3, 4, 5):
        c = build_D(n)
        for k in range(n):
            count = len(enumerate_planar_forests(n, k))
            assert count % (2 ** k) == 0
            assert c.f_vector()[k] == count // 2 ** k


def test_gromov_flag_certificates():
    for kind in ("D", "hatD", "breveD"):
        for n in (3, 4):
            assert check_gromov_flag(build_complex(kind, n)).ok


def test_gromov_flag_needs_cube_data():
    with pytest.raises(ValueError):
        check_gromov_flag(build_P(3))


def test_corrupted_complex_fails_with_witness():
    c = build_hatD(4)
    cube3 = next(iter(c.subcubes[3]))
    face = c.sub_face(cube3, list(cube3.edges())[:2])
    rep = check_gromov_flag(remove_subcube(c, face))
    assert not rep.ok
    assert rep.detail == "missing square face"
    assert rep.witness is not None


def test_local_isometries():
    for n in (3, 4):
        d, bd, hd = build_D(n), build_breveD(n), build_hatD(n)
        assert check_local_isometry(quotient_map(d, bd)).ok
        assert check_local_isometry(quotient_map(bd, hd)).ok
        assert check_local_isometry(identity_map(d)).ok
    with pytest.raises(ValueError):
        quotient_map(build_hatD(3), build_D(3))


def test_one_cells_biject_with_ordered_subsets():
    for n in (3, 4):
        c = build_hatD(n)
        verts, table = skeleton_D(c)
        assert verts == ["1;2;3" if n == 3 else "1;2;3;4"]
        symbols = set(table)
        expected = {("sA", a) for a in ordered_subsets(n)}
        assert symbols == expected
        # pairing is reversal
        for sym, (_, _, rev) in table.items():
            assert rev == ("sA", tuple(reversed(sym[1])))


def test_subdivision():
    c = build_hatD(3)
    sub = cubical_subdivision(c)
    zf = enumerate_zero_forests(3)
    strata = {}
    for z in zf:
        strata[len(z.undecorated_edges())] = strata.get(len(z.undecorated_edges()), 0) + 1
    assert sub.counts() == strata
    big = next(iter(c.bigcubes[2]))
    assert sum(1 for z in sub.little[2] if zeros_to_planar(z) == big) == 4
    all_decorated = sum(1 for z in zf if not z.undecorated_edges())
    assert len(sub.little[0]) == all_decorated


def test_extracted_presentations_match_generated():
    for n in (3, 4):
        assert presentations_match(
            extract_presentation(build_hatD(n)),
            make_presentation("pure_virtual_cactus", n),
        )
        assert presentations_match(
            extract_presentation(build_hatP(n)),
            make_presentation("pure_virtual_sym", n),
        )


def test_simply_connected_complex_trivialises():
    simp = simplify_presentation(extract_presentation(build_P(3)))
    assert simp.generators == () and simp.relators == ()


def test_symmetric_group_action():
    for n in (3, 4):
        for kind in ("D", "hatD", "breveD"):
            c = build_complex(kind, n)
            for w in all_permutations(n):
                assert complex_action_commutes(c, w)


def test_exports():
    c = build_hatD(3)
    dot = export_dot(c)
    assert dot.startswith("graph") and dot.count("--") == 6
    poset = json.loads(export_poset(c))
    assert {k: len(v) for k, v in poset.items()} == {"0": 1, "1": 6, "2": 3}
    poset_p = json.loads(export_poset(build_P(3)))
    assert {k: len(v) for k, v in poset_p.items()} == {"0": 6, "1": 6, "2": 1}
    # faces of the hexagon are the six edges
    (hexagon,) = poset_p["2"].values()
    assert len(hexagon) == 6


def test_build_rejects_small_n():
    with pytest.raises(ValueError):
        build_D(1)
    with pytest.raises(ValueError):
        build_complex("X", 3)


def test_vertex_link_is_flag_when_certified():
    from cactusflower.cubecomplexes import vertex_link

    c = build_hatD(3)
    assert check_gromov_flag(c).ok
    (v,) = c.vertices()
    link = vertex_link(c, v)
    assert len(link.vertices) == 12  # directed-cell pairs: 6 one-cubes
    # flagness: every pairwise-joined set spans a simplex
    from cactusflower.forests import forest_key

    names = [forest_key(x) for x in link.vertices]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i < j and frozenset({a, b}) in link.simplices:
                assert frozenset({a}) in link.simplices
    for simplex in link.simplices:
        for size in range(1, len(simplex)):
            for sub in itertools.combinations(simplex, size):
                assert frozenset(sub) in link.simplices  # closed under faces
