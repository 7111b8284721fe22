import itertools
import random

import pytest

from cactusflower.combinatorics import (
    AffinePermutation,
    CyclicInterval,
    ExtAffinePermutation,
    Permutation,
    all_permutations,
    interval_reversal,
    is_translation,
)
from cactusflower.groups import (
    DIAGRAM_PATHS_TO_EAS,
    DIAGRAM_PATHS_TO_S,
    FAMILIES,
    GroupHom,
    _cactus_relators,
    _coxeter_sym_relators,
    _cyclic_pairs,
    _evaluate_path,
    _family_of,
    _kernel_table,
    _letter_key,
    _pure_letters,
    _pure_virtual_cactus_words,
    _pvc_corner,
    _pvc_reduce,
    _standard_pairs,
    _sym_word,
    _vs_reduce,
    _word_key,
    canonical_cyclic,
    diagram_report,
    evaluate_word,
    generators_of,
    hom,
    make_presentation,
    merge_permutation_letters,
    ordered_subsets,
    parse_word,
    pure_generator,
    semidirect_action,
    shift_pair,
    verify_hom,
    vs_lattice_image,
)


def test_affine_cactus_3_relators():
    p = make_presentation("affine_cactus", 3)
    # the wrapped-interval nesting: s13 s12 = s23 s13
    assert (("s", 1, 3), ("s", 1, 2), ("s", 1, 3), ("s", 2, 3)) in p.relators
    assert len(p.generators) == 6


def test_affine_cactus_2_is_free_product_of_involutions():
    p = make_presentation("affine_cactus", 2)
    assert len(p.generators) == 2
    assert all(len(r) == 2 and r[0] == r[1] for r in p.relators)


def test_cactus_generator_count():
    for n in range(2, 7):
        p = make_presentation("cactus", n)
        assert len(p.generators) == n * (n - 1) // 2


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_presentation("coxeter", 3)
    with pytest.raises(ValueError):
        hom(("C", "AC"), 3)


def test_hom_examples():
    h = hom(("EAC", "vC"), 4)
    assert dict(h.images)[("s", 1, 3)] == (("s", 1, 3),)
    # the wrapped generator conjugates a standard one by the rotation
    img = dict(h.images)[("s", 3, 1)]
    assert img[0][0] == "w" and img[1] == ("s", 1, 3) and img[2][0] == "w"
    # its affine image squares to the identity
    h2 = hom(("AC", "AS"), 3)
    word = (("s", 1, 3), ("s", 1, 2), ("s", 1, 3), ("s", 2, 3))
    acc = AffinePermutation.identity(3)
    for x in word:
        acc = acc * dict(h2.images)[x]
    assert acc.is_identity()


SOLVABLE_ARROWS = [
    ("C", "S"), ("AC", "AS"), ("AC", "S"), ("EAC", "EAS"), ("EAC", "S"),
    ("EAS", "S"), ("vC", "S"), ("vS", "S"), ("S", "EAS"), ("S", "S"),
]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("pair", SOLVABLE_ARROWS)
def test_solvable_arrows_send_generators_to_letter_values(pair, n):
    src, dst = pair
    h = hom(pair, n)
    domain = set(generators_of(src, n)) | ({("r-",)} if src == "EAC" else set())
    assert [g for g, _ in h.images] == sorted(domain, key=_letter_key)
    for g, img in h.images:
        value = evaluate_word(dst, (g,), n)
        assert type(img) is type(value) and img == value
    if pair == ("EAS", "S"):
        assert dict(h.images)[("sigma", 0)] == Permutation.transposition(n, 1, n)
    if pair == ("S", "EAS"):
        for k in range(1, n):
            t = Permutation.transposition(n, k, k + 1)
            assert dict(h.images)[("sigma", k)] == ExtAffinePermutation(
                AffinePermutation.from_permutation(t), 0
            )
    if pair == ("EAC", "EAS"):
        shift_back = ExtAffinePermutation(AffinePermutation.identity(n), -1)
        assert dict(h.images)[("r-",)] == shift_back
    if pair == ("AC", "S"):
        assert dict(h.images)[("s", n, 1)] == interval_reversal(n, 1, n)


def test_evaluate_word_rejects_a_presentation_target():
    with pytest.raises(ValueError):
        evaluate_word("vC", (), 3)


def test_verify_hom_solvable_complete():
    for n in range(2, 7):
        rep = verify_hom(hom(("AC", "AS"), n), "solvable_target")
        assert rep.all_proven
    rep = verify_hom(hom(("C", "S"), 5), "solvable_target")
    assert rep.all_proven


def test_verify_hom_detects_shadow_failure():
    # corrupt one generator image and watch the shadow witness appear
    h = hom(("AC", "vC"), 3)
    images = dict(h.images)
    images[("s", 1, 2)] = (("s", 1, 3),)
    broken = GroupHom("AC", "vC", 3, tuple(sorted(images.items(), key=repr)))
    rep = verify_hom(broken, "bounded_rewrite")
    assert rep.failures
    relator, status, witness = rep.failures[0]
    assert status == "failed" and isinstance(witness, Permutation)
    assert not witness.is_identity()


@pytest.mark.parametrize("pair, failed, total, witness", [
    (("AC", "AS"), 10, 42, AffinePermutation((4, 2, 1, 3))),
    (("EAC", "EAS"), 12, 56, ExtAffinePermutation(AffinePermutation((4, 2, 1, 3)), 0)),
])
def test_verify_hom_solvable_target_negative_control(pair, failed, total, witness):
    # s12 sent where s13 goes: a product that returned the identity would
    # prove every relator
    h = hom(pair, 4)
    images = dict(h.images)
    images[("s", 1, 2)] = images[("s", 1, 3)]
    broken = GroupHom(*pair, 4, tuple(sorted(images.items(), key=repr)))
    rep = verify_hom(broken, "solvable_target")
    assert (len(rep.failures), len(rep.results)) == (failed, total)
    relator, status, found = rep.failures[0]
    assert relator == (("s", 1, 2), ("s", 3, 4), ("s", 1, 2), ("s", 3, 4))
    assert found == witness


def _swapped(h):
    """h with the images of s12 and s13 exchanged (of a[1] and a[2] from vS)."""
    x, y = ((("a", 1), ("a", 2)) if h.source == "vS" else (("s", 1, 2), ("s", 1, 3)))
    images = dict(h.images)
    images[x], images[y] = images[y], images[x]
    return GroupHom(h.source, h.target, h.n, tuple(sorted(images.items(), key=repr)))


def _object_products(h):
    """Each source relator with the product of its letters' images, formed
    through the target group's own multiplication."""
    table = dict(h.images)
    out = []
    for rel in make_presentation(_family_of(h.source), h.n).relators:
        acc = table[rel[0]]
        for x in rel[1:]:
            acc = acc * table[x]
        out.append((rel, acc))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_affine_products_stored_unchecked_are_valid(n, monkeypatch):
    # every product of generator images into AS and EAS skips the
    # constructor's checks, both when a relator's images are multiplied out
    # and on verify_hom's path for a failed relator; each must be what the
    # checking constructor builds
    products = []
    mul = AffinePermutation.__mul__

    def recording(self, other):
        products.append(mul(self, other))
        return products[-1]

    monkeypatch.setattr(AffinePermutation, "__mul__", recording)
    for pair in (("AC", "AS"), ("EAC", "EAS")):
        assert all(acc.is_identity() for _, acc in _object_products(hom(pair, n)))
        formed = len(products)
        assert formed
        assert verify_hom(_swapped(hom(pair, n)), "solvable_target").failures
        assert len(products) > formed
    for product in products:
        assert all(type(x) is int for x in product.window)
        assert AffinePermutation(product.window) == product


# the arrows into S, AS and EAS whose source has a presentation
PRESENTED_SOLVABLE_ARROWS = [
    ("C", "S"), ("AC", "S"), ("AC", "AS"), ("EAC", "S"), ("EAC", "EAS"), ("vC", "S"), ("vS", "S"),
]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("pair", PRESENTED_SOLVABLE_ARROWS)
def test_window_evaluation_agrees_with_object_products(pair, n):
    # verify_hom proves a relator on the window 1..n; the relators it leaves
    # failed, with their witnesses, are those whose product of images in the
    # target group is not the identity
    for h in (hom(pair, n), _swapped(hom(pair, n))):
        rep = verify_hom(h, "solvable_target")
        expected = [
            (rel, "proven", None) if acc.is_identity() else (rel, "failed", acc)
            for rel, acc in _object_products(h)
        ]
        assert rep.results == expected
    # the swapped images break some relator, except that at n = 3 they still
    # define a hom from C_3
    assert rep.failures or (pair, n) == (("C", "S"), 3)


def test_ac_to_vc_relators_are_proven():
    for n in (3, 4):
        rep = verify_hom(hom(("AC", "vC"), n), "bounded_rewrite")
        assert rep.all_proven


def test_words_of_trivial_shadow_are_refuted_in_vc_and_vs():
    # a vC word of trivial shadow whose pure letters s_12 s_12 do not cancel
    # (s_12 is inverse to s_21): the decision refutes it
    t = Permutation((2, 1, 3))
    word = (("s", 1, 2), ("w", t), ("s", 1, 2), ("w", t))
    assert evaluate_word("S", word, 3).is_identity()
    assert _pure_letters(word, 3) == [(1, 2), (1, 2)]
    assert _pvc_reduce(_pure_letters(word, 3)) == [(1, 2), (1, 2)]
    # its vS image is x_12 x_21, with m = inf: refuted with that reduced word
    word = (("a", t), ("w", t), ("a", t), ("w", t))
    assert evaluate_word("S", word, 3).is_identity()
    assert _vs_reduce(word, 3) == (Permutation.identity(3), ((1, 2), (2, 1)))


def test_vs_word_trivial_by_two_relations_is_proven():
    # w(2 3 1) a(2 1 3) w(2 3 1) a(1 3 2) w(2 3 1) a(2 3 1) is trivial in vS_3,
    # and no single relation shows it
    u = Permutation((2, 3, 1))
    word = (("w", u), ("a", Permutation((2, 1, 3))), ("w", u),
            ("a", Permutation((1, 3, 2))), ("w", u), ("a", u))
    assert evaluate_word("S", word, 3).is_identity()
    assert _vs_reduce(word, 3) == (Permutation.identity(3), ())


@pytest.mark.parametrize("n, count", [(3, 10), (4, 39), (5, 159)])
def test_vc_to_vs_relators_are_proven(n, count):
    rep = verify_hom(hom(("vC", "vS"), n), "bounded_rewrite")
    assert [st for _, st, _ in rep.results] == ["proven"] * count
    assert verify_hom(_swapped(hom(("vC", "vS"), n)), "bounded_rewrite").failures


def _x(pair, n):
    """x_ij as a vS word: b_u a_1 b_u^-1 for a u with (u(1), u(2)) = (i, j)."""
    rest = [v for v in range(1, n + 1) if v not in pair]
    u = Permutation(tuple(pair) + tuple(rest))
    return (("w", u), ("a", 1), ("w", u.inverse()))


def _kernel_letters(word, n):
    """The pairs that the `a` letters of a word of Coxeter-index letters read
    as: with u the `b` shadow of the prefix, a_k is x_(u(k), u(k+1))."""
    u, out = Permutation.identity(n), []
    for x in word:
        if x[0] == "a":
            out.append((u(x[1]), u(x[1] + 1)))
        else:
            u = u * Permutation.transposition(n, x[1], x[1] + 1)
    return out


def _coxeter_m(s, t):
    """The Coxeter matrix entry of the kernel K_n, from its definition."""
    if s == t:
        return 1
    if not set(s) & set(t):
        return 2
    if s[1] == t[0] and s[0] != t[1] or t[1] == s[0] and t[0] != s[1]:
        return 3
    return 0  # infinity


@pytest.mark.parametrize("n, pairs", [(3, 6), (4, 36), (5, 120)])
def test_vs_relators_conjugate_to_coxeter_relators_of_the_kernel(n, pairs):
    # Reidemeister-Schreier: every conjugate of a virtual_sym relator by the
    # b copy reads, in the kernel, as empty, x_s x_s, (x_s x_t)^2 on a
    # disjoint pair or (x_s x_t)^3 on a chained pair, and every disjoint and
    # every chained pair arises
    found = set()
    for rel in make_presentation("virtual_sym", n).relators:
        for u in all_permutations(n):
            letters = _kernel_letters(_sym_word("b", u) + rel + _sym_word("b", u.inverse()), n)
            if len(letters) > 2:
                s, t = letters[:2]
                m = _coxeter_m(s, t)
                assert m in (2, 3) and letters == [s, t] * m
                found.add(frozenset((s, t)))
            else:
                assert len(letters) in (0, 2) and letters[:1] == letters[1:]
    cyclic = _cyclic_pairs(n)
    finite = {frozenset((s, t)) for s in cyclic for t in cyclic if _coxeter_m(s, t) in (2, 3)}
    assert found == finite and len(found) == pairs
    # the decider's Cartan matrix is 2 cos(pi / m) negated, from the same m
    index, table_pairs, rows = _kernel_table(n)
    assert table_pairs == cyclic
    cartan = {0: -2, 1: 2, 2: 0, 3: -1}
    for s in cyclic:
        row = {table_pairs[t]: a for t, a in rows[index[s]]}
        assert row == {t: cartan[_coxeter_m(s, t)] for t in cyclic if _coxeter_m(s, t) != 2}


@pytest.mark.parametrize("s, t, m", [
    ((1, 2), (3, 4), 2),
    ((1, 2), (2, 3), 3),
    ((1, 2), (2, 1), None),
    ((1, 2), (1, 3), None),
    ((1, 2), (3, 2), None),
])
def test_kernel_products_have_their_coxeter_orders(s, t, m):
    for k in range(1, (m or 4) + 1):
        u, reduced = _vs_reduce((_x(s, 4) + _x(t, 4)) * k, 4)
        assert u.is_identity()
        if k == m:
            assert reduced == ()
        elif m is None:  # the infinite dihedral group: (s t)^k is reduced
            assert reduced == (s, t) * k
        else:  # (s t)^k, k < m, is (t s)^(m - k): the shorter is reduced
            assert reduced in ((s, t) * k, (t, s) * (m - k))
            assert len(reduced) == 2 * min(k, m - k)


def test_every_vs_letter_form_is_decided():
    identity = Permutation.identity(3)
    assert _vs_reduce(parse_word("a[1] b[2] a[1] b[2]"), 3) == (identity, ((1, 2), (1, 3)))
    assert _vs_reduce(parse_word("a(2 1 3) w(1 3 2) a(2 1 3) w(1 3 2)"), 3) == (
        identity, ((1, 2), (1, 3)))
    assert _vs_reduce(parse_word("b[1] a[1] b[1]"), 3) == (identity, ((2, 1),))
    # a permutation letter reads as its reduced word in the a_k
    longest = _vs_reduce(parse_word("a(3 2 1)"), 3)
    assert longest == _vs_reduce(parse_word("a[1] a[2] a[1]"), 3)
    assert longest == _vs_reduce(parse_word("a[2] a[1] a[2]"), 3)
    assert len(longest[1]) == 3
    # the b shadow is the product of the b and w letters alone
    word = parse_word("b[1] a[2] w(2 3 1) a(1 3 2) b[2]")
    expected = evaluate_word("S", parse_word("b[1] w(2 3 1) b[2]"), 3)
    assert _vs_reduce(word, 3)[0] == expected
    with pytest.raises(ValueError):
        _vs_reduce(parse_word("s[1,2]"), 3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_products_of_conjugated_vs_relators_are_proven(n):
    rng = random.Random(n)
    gens = generators_of("vS", n)
    relators = make_presentation("virtual_sym", n).relators
    for _ in range(100):
        # every letter is an involution, so a reversed word is its inverse
        word = ()
        for _ in range(3):
            g = tuple(rng.choice(gens) for _ in range(rng.randrange(6)))
            rel = rng.choice(relators)
            word += g + (rel if rng.randrange(2) else rel[::-1]) + g[::-1]
        assert _vs_reduce(word, n) == (Permutation.identity(n), ())


@pytest.mark.parametrize("n", [3, 4])
def test_vs_decision_is_sound_against_the_lattice_quotient(n):
    # no word the lattice quotient separates from the identity is proven
    rng = random.Random(n)
    gens = generators_of("vS", n)
    proven = separated = 0
    for _ in range(500):
        word = tuple(rng.choice(gens) for _ in range(rng.randrange(2, 9)))
        if vs_lattice_image(word, n) != (Permutation.identity(n), ()):
            assert _vs_reduce(word, n) != (Permutation.identity(n), ())
            separated += 1
        else:
            proven += _vs_reduce(word, n) == (Permutation.identity(n), ())
    assert proven and separated


@pytest.mark.parametrize("n, refuted", [(3, 4), (4, 12), (5, 42)])
def test_vs_kernel_refutes_what_the_shadow_cannot(n, refuted):
    # s12 sent to a(t) x_12 x_21 x_12 ... keeps every shadow, so no relator
    # fails; the kernel refutes the nesting relators it breaks, and each
    # witness spells the kernel part of the relator's image
    h = hom(("vC", "vS"), n)
    images = dict(h.images)
    t = Permutation.transposition(n, 1, 2)
    images[("s", 1, 2)] = (("a", t), ("w", t), ("a", t), ("w", t), ("a", t))
    twisted = GroupHom("vC", "vS", n, tuple(sorted(images.items(), key=repr)))
    rep = verify_hom(twisted, "bounded_rewrite")
    assert {st for _, st, _ in rep.results} == {"proven", "refuted"}
    witnesses = [(rel, w) for rel, st, w in rep.results if st == "refuted"]
    assert len(witnesses) == refuted
    for rel, witness in witnesses:
        inverse = sum((_x(p, n) for p in reversed(witness)), ())
        assert _vs_reduce(twisted.map_word(rel) + inverse, n) == (Permutation.identity(n), ())
    # s12 sent to w(t) keeps the S shadow but not the b shadow: failed with it
    images[("s", 1, 2)] = (("w", t),)
    twisted = GroupHom("vC", "vS", n, tuple(sorted(images.items(), key=repr)))
    failures = verify_hom(twisted, "bounded_rewrite").failures
    assert len(failures) == refuted
    for rel, _, witness in failures:
        assert evaluate_word("S", twisted.map_word(rel), n).is_identity()
        assert not witness.is_identity()


def test_vc_to_vs_is_not_injective():
    # a vC word of trivial shadow that is not trivial in vC (its pure letters
    # are stuck in hatD_3), while its image in vS is trivial
    word = parse_word("s[1,2] s[2,3] s[1,2] s[1,3]")
    assert evaluate_word("S", word, 3).is_identity()
    assert _pvc_reduce(_pure_letters(word, 3)) == [(1, 2), (1, 3), (2, 3), (3, 2, 1)]
    assert _vs_reduce(hom(("vC", "vS"), 3).map_word(word), 3) == (Permutation.identity(3), ())


def test_merge_permutation_letters_merges_neighbours_of_one_copy():
    u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    word = (("w", u), ("w", v), ("a", u), ("a", u), ("b", 1), ("w", u.inverse()), ("a", v))
    assert merge_permutation_letters(word) == (("w", u * v), ("b", 1), ("w", u), ("a", v))
    assert merge_permutation_letters((("s", 1, 2), ("w", u), ("a", v))) == (
        ("s", 1, 2), ("w", u), ("a", v))
    # Coxeter-index letters hold no permutation: they pass through unmerged
    word = parse_word("a[1] a[1] w(2 1 3) a(2 1 3) a[2] b[1] b[1]")
    assert merge_permutation_letters(word) == word


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pvc_corner_matches_relator_squares(n):
    # every rotation s_a s_b s_c s_d of every relator and of its inverse is
    # a corner s_a s_b = s_rev(d) s_rev(c) of a square of hatD_n
    squares = {}
    for rel in make_presentation("pure_virtual_cactus", n).relators:
        inv = tuple(("sA", x[1][::-1]) for x in reversed(rel))
        for w in (rel, inv):
            for k in range(4):
                (_, a), (_, b), (_, c), (_, d) = w[k:] + w[:k]
                corner = (d[::-1], c[::-1])
                assert squares.setdefault((a, b), corner) == corner
    subsets = list(ordered_subsets(n))
    for a in subsets:
        for b in subsets:
            assert _pvc_corner(a, b) == squares.get((a, b))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_virtual_cactus_is_a_semidirect_product(n):
    # vC_n = S_n x| PvC_n: every relator of vC_n has trivial shadow and
    # pure letters that cancel in hatD_n
    for rel in make_presentation("virtual_cactus", n).relators:
        assert evaluate_word("S", rel, n).is_identity()
        assert _pvc_reduce(_pure_letters(rel, n)) == []
    # the pure generators come back from their words
    for a in ordered_subsets(n):
        assert _pure_letters(pure_generator("pure_virtual_cactus", a, n), n) == [a]
    # S_n relabels the relators of PvC_n among themselves: enough to check
    # on the adjacent transpositions, which generate S_n
    if n <= 5:
        p = make_presentation("pure_virtual_cactus", n)
        partner = dict(p.partner)
        relators = set(p.relators)
        for k in range(1, n):
            u = Permutation.transposition(n, k, k + 1)
            for rel in p.relators:
                image = tuple(
                    ("sA", semidirect_action(u, "pure_virtual_cactus", x[1])) for x in rel
                )
                assert canonical_cyclic(image, partner) in relators


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_swapped_images_are_refuted(n):
    broken = _swapped(hom(("AC", "vC"), n))
    rep = verify_hom(broken, "bounded_rewrite")
    statuses = {st for _, st, _ in rep.results}
    assert statuses == {"proven", "failed", "refuted"}
    refuted = [(rel, witness) for rel, st, witness in rep.results if st == "refuted"]
    assert [rel for rel, _ in refuted] == [
        parse_word("s[1,3] s[1,2] s[1,3] s[2,3]"),
        parse_word("s[1,3] s[2,3] s[1,3] s[1,2]"),
    ]
    for rel, witness in refuted:
        assert witness and all(x[0] == "sA" for x in witness)
        word = broken.map_word(rel)
        assert list(witness) == [("sA", a) for a in _pvc_reduce(_pure_letters(word, n))]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decision_agrees_with_seeded_cross_checks(n):
    rng = random.Random(n)
    gens = generators_of("vC", n)
    to_vs = hom(("vC", "vS"), n)
    lattice_refuted = 0
    for _ in range(50):
        # a random word closed up to trivial shadow: a nontrivial image in
        # the pair-lattice quotient of vS must be refuted
        word = tuple(rng.choice(gens) for _ in range(8))
        word += (("w", evaluate_word("S", word, n).inverse()),)
        if vs_lattice_image(to_vs.map_word(word), n)[1]:
            assert _pvc_reduce(_pure_letters(word, n))
            lattice_refuted += 1
    assert lattice_refuted
    relators = make_presentation("virtual_cactus", n).relators
    for _ in range(50):
        # a product of conjugated relators (all letters are involutions)
        word = ()
        for _ in range(2):
            g = tuple(rng.choice(gens) for _ in range(rng.randrange(4)))
            rel = rng.choice(relators)
            word += g + (rel if rng.randrange(2) else rel[::-1]) + g[::-1]
        assert _pvc_reduce(_pure_letters(word, n)) == []


def test_diagram_commutes():
    for n in range(2, 7):
        assert all(ok for _, _, ok in diagram_report(n))


def test_involution_images_square_to_identity():
    for n in (3, 4, 5):
        for pair in (("C", "S"), ("AC", "AS"), ("EAC", "EAS")):
            h = hom(pair, n)
            for g, img in h.images:
                if g[0] != "s":
                    continue
                sq = img * img
                assert sq.is_identity()


def test_pure_generator_examples():
    # the consecutive ordered subset reduces to the standard interval pair
    w = pure_generator("pure_virtual_cactus", tuple(range(1, 4)), 4)
    assert w == ((("s", 1, 3), ("w", Permutation((3, 2, 1, 4)))))
    # identity witness for an adjacent pair
    w = pure_generator("pure_virtual_sym", (2, 3), 4, witness=(Permutation.identity(4), 2))
    t = Permutation.transposition(4, 2, 3)
    assert w == (("a", t), ("w", t))
    with pytest.raises(ValueError):
        pure_generator("pure_virtual_cactus", (1, 1), 4)


def test_pure_generator_witness_independence():
    im1 = vs_lattice_image(pure_generator("pure_virtual_sym", (1, 3), 4), 4)
    im2 = vs_lattice_image(
        pure_generator("pure_virtual_sym", (1, 3), 4, witness=(Permutation((4, 1, 3, 2)), 2)),
        4,
    )
    assert im1 == im2
    assert im1[0].is_identity()  # pure: trivial shadow
    assert im1 != vs_lattice_image(pure_generator("pure_virtual_sym", (3, 1), 4), 4)
    # cactus-side witnesses through the lattice quotient of the image words
    a = pure_generator("pure_virtual_cactus", (2, 4), 4)
    b = pure_generator(
        "pure_virtual_cactus", (2, 4), 4, witness=(Permutation((1, 2, 4, 3)), 2, 3)
    )
    assert vs_lattice_image(a, 4) == vs_lattice_image(b, 4)


def test_semidirect_action_examples():
    r = Permutation.long_cycle(3)
    assert semidirect_action(Permutation.identity(3), "pure_virtual_cactus", (1, 2)) == (1, 2)
    assert semidirect_action(r, "pure_virtual_cactus", (1, 2)) == (2, 3)
    assert semidirect_action(r, "pure_virtual_sym", (1, 3)) == (2, 1)
    # the relabelled generator has the relabelled lattice image
    u = Permutation((2, 3, 1, 4))
    im = vs_lattice_image(pure_generator("pure_virtual_sym", (1, 3), 4), 4)
    im_u = vs_lattice_image(
        pure_generator("pure_virtual_sym", semidirect_action(u, "pure_virtual_sym", (1, 3)), 4), 4
    )
    (pairs,) = (dict(im[1]),)
    relabelled = {}
    for (a, b), v in pairs.items():
        x, y = u(a), u(b)
        if x > y:
            x, y, v = y, x, -v
        relabelled[(x, y)] = v
    assert dict(im_u[1]) == relabelled


def test_rotation_preserves_affine_relators():
    for n in range(2, 7):
        p = make_presentation("affine_cactus", n)
        partner = dict(p.partner)
        canon = {canonical_cyclic(r, partner) for r in p.relators}
        rotated = {
            canonical_cyclic(
                tuple(("s", *shift_pair(x[1], x[2], 1, n)) for x in rel), partner
            )
            for rel in p.relators
        }
        assert rotated == canon


def test_ext_affine_relators_evaluate():
    # the extension relators hold in the concrete extended group
    p = make_presentation("ext_affine_cactus", 4)
    h = hom(("EAC", "EAS"), 4)
    for rel in p.relators:
        acc = ExtAffinePermutation.identity(4)
        for x in rel:
            acc = acc * dict(h.images)[x]
        assert acc.is_identity()


def test_pure_presentation_shapes():
    p = make_presentation("pure_virtual_sym", 4)
    assert len(p.generators) == 12
    lengths = sorted(len(r) for r in p.relators)
    assert lengths == [4, 4, 4, 6, 6, 6, 6]  # three squares, four hexagons
    p = make_presentation("pure_virtual_cactus", 3)
    assert len(p.generators) == 12  # ordered subsets of sizes 2 and 3
    assert len(p.relators) == 3


def test_word_syntax_roundtrip():
    from cactusflower.groups import format_word, parse_word

    w = parse_word("s[1,3] w(2 3 1) r^2 s[A:1,4,2]")
    assert format_word(w) == "s[1,3] w(2 3 1) r^2 s[A:1,4,2]"
    assert parse_word(format_word(w)) == w
    with pytest.raises(ValueError):
        parse_word("q[1,2]")
    relators = [format_word(r) for r in make_presentation("affine_cactus", 3).relators]
    assert "s[1,3] s[1,2] s[1,3] s[2,3]" in relators


@pytest.mark.parametrize("family", FAMILIES)
def test_every_presentation_dumps_and_parses_back(family):
    from cactusflower.groups import format_word, parse_word

    for n in range(3, 5 if family == "virtual_sym" else 6):
        p = make_presentation(family, n)
        for g in p.generators:
            assert parse_word(format_word((g,))) == (g,)
        for r in p.relators:
            assert parse_word(format_word(r)) == r
    assert format_word((("a", 2), ("r",), ("r-",), ("r-",))) == "a[2] r r^-2"


def test_hom_image_table_is_not_a_field():
    h, twin = hom(("AC", "vC"), 4), hom(("AC", "vC"), 4)
    g = h.images[0][0]
    assert h.map_word((g, g)) == twin.map_word((g, g))
    assert h == twin and hash(h) == hash(twin) and repr(h) == repr(twin)


# -- references for the table-free paths -------------------------------------


def _reference_canonical_cyclic(w, partner):
    """Every rotation of the word and of its inverse, keyed one by one."""
    inv = tuple(partner[x] for x in reversed(w))
    cands = [word[k:] + word[:k] for word in (w, inv) for k in range(len(word))]
    return min(cands, key=_word_key)


def _reference_pure_virtual_cactus_relators(n):
    """The relators from every spelling of each: the commuting word for
    every ordered pair of disjoint ordered subsets, and the nesting word for
    every A and context (C, B), each put in canonical form."""
    subsets = list(ordered_subsets(n))
    partner = {("sA", a): ("sA", a[::-1]) for a in subsets}
    rels = set()
    by_mask = {}
    for a in subsets:
        by_mask.setdefault(sum(1 << x for x in a), []).append(a)
    for (mask_a, group_a), (mask_b, group_b) in itertools.product(by_mask.items(), repeat=2):
        if not mask_a & mask_b:
            for a, b in itertools.product(group_a, group_b):
                w = (("sA", a), ("sA", b), ("sA", a[::-1]), ("sA", b[::-1]))
                rels.add(canonical_cyclic(w, partner))
    for a in subsets:
        ar = ("sA", a[::-1])
        rest = [x for x in range(1, n + 1) if x not in a]
        for csize in range(len(rest) + 1):
            for c in itertools.permutations(rest, csize):
                left = [x for x in rest if x not in c]
                for bsize in range(len(left) + 1):
                    if csize + bsize == 0:
                        continue
                    for b in itertools.permutations(left, bsize):
                        w = (ar, ("sA", c + a + b), ar, ("sA", b[::-1] + a + c[::-1]))
                        rels.add(canonical_cyclic(w, partner))
    return tuple(sorted(rels, key=_word_key))


def _reference_pure_virtual_sym_relators(n):
    """The squares and hexagons, each canonicalised by the reference."""
    partner = {("sig", i, j): ("sig", j, i) for i, j in itertools.permutations(range(1, n + 1), 2)}
    rels = set()
    for (i, j), (l, m) in itertools.product(itertools.permutations(range(1, n + 1), 2), repeat=2):
        if not {i, j} & {l, m}:
            w = (("sig", i, j), ("sig", l, m), ("sig", j, i), ("sig", m, l))
            rels.add(_reference_canonical_cyclic(w, partner))
    for i, j, l in itertools.permutations(range(1, n + 1), 3):
        w = (("sig", i, j), ("sig", i, l), ("sig", j, l),
             ("sig", j, i), ("sig", l, i), ("sig", l, j))
        rels.add(_reference_canonical_cyclic(w, partner))
    return tuple(sorted(rels, key=_word_key))


@pytest.mark.parametrize("n, count", [(3, 3), (4, 45), (5, 495), (6, 5145)])
def test_pure_virtual_cactus_relators_match_reference(n, count):
    relators = make_presentation("pure_virtual_cactus", n).relators
    assert len(relators) == count
    assert relators == _reference_pure_virtual_cactus_relators(n)


def test_pure_virtual_cactus_relator_count_at_7():
    assert len(make_presentation("pure_virtual_cactus", 7).relators) == 54810


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pure_virtual_cactus_words_spell_each_relator_once(n):
    p = make_presentation("pure_virtual_cactus", n)
    letters = sorted(p.generators, key=_letter_key)
    rank = {x: r for r, x in enumerate(letters)}
    partner = dict(p.partner)
    words = list(_pure_virtual_cactus_words(rank, n))
    canon = {canonical_cyclic(tuple(letters[r] for r in w), partner) for w in words}
    assert len(words) == len(canon) == len(p.relators)
    assert canon == set(p.relators)


@pytest.mark.parametrize("n, count", [(3, 1), (4, 7), (5, 25), (6, 65)])
def test_pure_virtual_sym_relators_match_reference(n, count):
    relators = make_presentation("pure_virtual_sym", n).relators
    assert len(relators) == count
    assert relators == _reference_pure_virtual_sym_relators(n)


def _reference_cactus_relators(pairs, n):
    """The relators with each pair's interval built as a CyclicInterval."""
    rel = []
    gens = {p: ("s", *p) for p in pairs}
    for p in pairs:
        rel.append((gens[p], gens[p]))
    ivals = {p: CyclicInterval(p[0], p[1], n) for p in pairs}
    sets = {p: frozenset(ivals[p].elements()) for p in pairs}
    for p, q in itertools.combinations(pairs, 2):
        if not sets[p] & sets[q]:
            rel.append((gens[p], gens[q], gens[p], gens[q]))
    for p in pairs:
        w = interval_reversal(p[0], p[1], n)
        for q in pairs:
            if q != p and ivals[q].is_subinterval_of(ivals[p]):
                rel.append((gens[p], gens[q], gens[p], ("s", w(q[1]), w(q[0]))))
    return rel


@pytest.mark.parametrize("n", range(2, 10))
def test_cactus_relators_match_interval_reference(n):
    for pairs in (_standard_pairs(n), _cyclic_pairs(n)):
        assert _cactus_relators(pairs, n) == _reference_cactus_relators(pairs, n)


def test_canonical_cyclic_matches_reference():
    from cactusflower.cubecomplexes import build_complex, extract_presentation

    presentations = [
        make_presentation(family, 4)
        for family in ("affine_cactus", "pure_virtual_sym", "ext_affine_cactus")
    ]
    # extracted relators: ("sA", subset) letters, and ("e", newick) str letters
    presentations += [extract_presentation(build_complex(kind, 4)) for kind in ("hatD", "D")]
    for p in presentations:
        partner = dict(p.partner)
        for rel in p.relators:
            for k in range(len(rel)):
                w = rel[k:] + rel[:k]
                assert canonical_cyclic(w, partner) == _reference_canonical_cyclic(w, partner)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_diagram_report_matches_per_call_evaluation(n):
    expected = []
    for paths, label, same in (
        (DIAGRAM_PATHS_TO_S, "", lambda v, w: v.images == w.images),
        (DIAGRAM_PATHS_TO_EAS, "=>EAS", lambda v, w: (v.base, v.shift) == (w.base, w.shift)),
    ):
        for src, chains in paths.items():
            for g in generators_of(src, n):
                vals = [_evaluate_path((g,), chain, n, {}) for chain in chains]
                expected.append((src + label, g, all(same(v, vals[0]) for v in vals)))
    assert diagram_report(n) == expected


def _reference_virtual_cactus(n):
    """The virtual cactus presentation as it was built by filtering every
    permutation of S_n with is_translation for every standard pair."""
    pairs = _standard_pairs(n)
    rel = _cactus_relators(pairs, n)
    rel += _coxeter_sym_relators("b", n)
    for (i, j) in pairs:
        for w in all_permutations(n):
            if w.is_identity() or not is_translation(w, i, j):
                continue
            bw = _sym_word("b", w)
            bwi = _sym_word("b", w.inverse())
            rel.append(bw + (("s", i, j),) + bwi + (("s", w(i), w(j)),))
    gens = tuple(("s", *p) for p in pairs) + tuple(("b", k) for k in range(1, n))
    return gens, tuple(rel), tuple((g, g) for g in gens)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_virtual_cactus_translations_match_the_filter(n):
    p = make_presentation("virtual_cactus", n)
    assert (p.generators, p.relators, p.partner) == _reference_virtual_cactus(n)
