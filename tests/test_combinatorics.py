import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cactusflower.combinatorics import (
    AffinePermutation,
    CyclicInterval,
    ExtAffinePermutation,
    Permutation,
    SetPartition,
    affine_decompose,
    affine_interval_reversal,
    affine_recompose,
    all_permutations,
    all_set_partitions,
    ext_affine_to_semidirect,
    interval_reversal,
    is_translation,
    partition_closure,
    refines,
    semidirect_mul,
    semidirect_to_ext_affine,
)


def test_refines_examples():
    assert refines(SetPartition([{1}, {2}, {3}]), SetPartition([{1, 2}, {3}]))
    s = SetPartition([{1, 2, 3}])
    assert refines(s, s)
    assert not refines(SetPartition([{1, 2}, {3}]), SetPartition([{1, 3}, {2}]))
    with pytest.raises(ValueError):
        refines(SetPartition([{1}, {2}]), SetPartition([{1, 2}, {3}]))


def _merge_loop_closure(n, related):
    # the loop partition_closure replaced, kept as the reference
    parts = {i: {i} for i in range(1, n + 1)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if related(i, j) and parts[i] is not parts[j]:
            merged = parts[i] | parts[j]
            for x in merged:
                parts[x] = merged
    return SetPartition({frozenset(b) for b in parts.values()})


def _related_pairs(n, related):
    return [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2) if related(i, j)]


def test_partition_closure_matches_merge_loop():
    relations = [
        (lambda i, j, p=p: p.same_block(i, j)) for p in all_set_partitions(4)
    ]
    # non-transitive relations: a path, a star missing an edge, i + j odd
    relations += [
        lambda i, j: j == i + 1,
        lambda i, j: i == 1 and j != 4,
        lambda i, j: (i + j) % 2 == 1,
        lambda i, j: False,
    ]
    for related in relations:
        got = partition_closure(4, _related_pairs(4, related))
        # built unchecked: the validating constructor gives the same partition
        assert got == _merge_loop_closure(4, related) and repr(got) == repr(SetPartition(got.blocks))
    for p in all_set_partitions(4):
        assert partition_closure(4, _related_pairs(4, p.same_block)) == p
    assert partition_closure(4, [(1, 2), (2, 3), (3, 4)]) == SetPartition([{1, 2, 3, 4}])
    assert partition_closure(4, []) == SetPartition([{1}, {2}, {3}, {4}])


def test_partition_closure_takes_pairs_in_any_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 8)
        pairs = _related_pairs(n, lambda i, j: rng.random() < 0.3)
        want = _merge_loop_closure(n, lambda i, j: (i, j) in pairs)
        rng.shuffle(pairs)
        pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
        got = partition_closure(n, pairs + pairs[:2])
        assert got == want and repr(got) == repr(SetPartition(got.blocks))


def test_refines_partial_order_on_5():
    parts = all_set_partitions(5)
    assert len(parts) == 52
    for a in parts:
        assert refines(a, a)
    rng = random.Random(1)
    sample = rng.sample(parts, 20)
    for a, b in itertools.combinations(sample, 2):
        if refines(a, b) and refines(b, a):
            assert a == b
    for a in sample[:8]:
        for b in sample[:8]:
            for c in sample[:8]:
                if refines(a, b) and refines(b, c):
                    assert refines(a, c)


def test_interval_reversal_paper_examples():
    assert interval_reversal(4, 1, 4).images == (4, 2, 3, 1)  # transposition (14)
    assert interval_reversal(1, 4, 4).images == (4, 3, 2, 1)  # (14)(23)
    assert interval_reversal(1, 2, 5).images == (2, 1, 3, 4, 5)


def test_interval_reversal_involution():
    for n in range(2, 9):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = interval_reversal(i, j, n)
                assert (w * w).is_identity()
                wa = affine_interval_reversal(i, j, n)
                assert (wa * wa).is_identity()
                assert wa.reduce_mod_n() == w


def test_interval_reversal_builds_what_the_checked_constructor_builds():
    # built unchecked: the checked constructor must accept its images and
    # give an equal permutation, which reverses the cyclic interval [i, j]
    for n in range(2, 8):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = interval_reversal(i, j, n)
                checked = Permutation(w.images)
                assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)
                interval = [(i - 1 + k) % n + 1 for k in range((j - i) % n + 1)]
                assert [w(x) for x in interval] == interval[::-1]
                assert all(w(x) == x for x in range(1, n + 1) if x not in interval)


def test_interval_reversal_rejects_degenerate():
    with pytest.raises(ValueError):
        interval_reversal(2, 2, 4)
    for i, j, n in ((0, 2, 4), (1, 5, 4), (5, 1, 4)):
        with pytest.raises(ValueError, match="endpoints out of range"):
            interval_reversal(i, j, n)
    with pytest.raises(ValueError):
        affine_interval_reversal(3, 3, 5)


def test_affine_interval_reversal_examples():
    assert affine_interval_reversal(1, 3, 3).window == (3, 2, 1)
    # reversing the integer intervals over the wrapped [2,1] in rank 2:
    # {2,3} reverses to give f(2) = 3, and {0,1} gives f(1) = 0
    assert affine_interval_reversal(2, 1, 2).window == (0, 3)
    assert sum(affine_interval_reversal(2, 1, 2).window) == 3
    assert affine_interval_reversal(3, 1, 3).window == (0, 2, 4)


def test_affine_decompose_examples():
    n = 3
    assert affine_decompose(AffinePermutation.identity(n)) == (
        Permutation.identity(n),
        (0, 0, 0),
    )
    sigma = Permutation((2, 1, 3))
    f = AffinePermutation.from_permutation(sigma)
    assert affine_decompose(f) == (sigma, (0, 0, 0))
    f = AffinePermutation((4, 2, 0))
    s, k = affine_decompose(f)
    assert affine_recompose(s, k) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_affine_decompose_roundtrip(n, data):
    sigma = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    k = [data.draw(st.integers(-3, 3)) for _ in range(n - 1)]
    k.append(-sum(k))
    f = affine_recompose(sigma, tuple(k))
    s2, k2 = affine_decompose(f)
    assert affine_recompose(s2, k2) == f
    assert s2 == sigma and tuple(k) == k2


def test_affine_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation((1, 1, 4))  # residues collide
    with pytest.raises(ValueError):
        AffinePermutation((2, 3, 4))  # wrong sum


def test_ext_affine_examples():
    g = ExtAffinePermutation(AffinePermutation.identity(3), 0)
    assert ext_affine_to_semidirect(g) == (Permutation.identity(3), (0, 0, 0))
    g = ExtAffinePermutation(AffinePermutation.identity(3), 1)
    u, k = ext_affine_to_semidirect(g)
    assert u == Permutation.long_cycle(3)
    assert sorted(k) in ([0, 0, 1], [-1, 0, 0])  # a standard basis vector mod diagonal


def test_ext_affine_bijection_and_group_law():
    # exhaustive with small windows for rank 2, randomized for rank 4
    n = 2
    elements = []
    for sigma in all_permutations(n):
        for k1 in range(-2, 3):
            for c in range(n):
                f = affine_recompose(sigma, (k1, -k1))
                elements.append(ExtAffinePermutation(f, c))
    for g in elements:
        u, k = ext_affine_to_semidirect(g)
        h = semidirect_to_ext_affine(u, k)
        assert h.base == g.base and h.shift == g.shift
    for g in elements[:20]:
        for h in elements[:20]:
            lhs = ext_affine_to_semidirect(g * h)
            rhs = semidirect_mul(ext_affine_to_semidirect(g), ext_affine_to_semidirect(h))
            assert lhs == rhs

    rng = random.Random(3)
    n = 4
    pool = []
    for _ in range(40):
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        k = [rng.randrange(-2, 3) for _ in range(n - 1)]
        k.append(-sum(k))
        pool.append(
            ExtAffinePermutation(affine_recompose(sigma, tuple(k)), rng.randrange(n))
        )
    for _ in range(400):
        g, h = rng.choice(pool), rng.choice(pool)
        assert ext_affine_to_semidirect(g * h) == semidirect_mul(
            ext_affine_to_semidirect(g), ext_affine_to_semidirect(h)
        )


def test_is_translation():
    for n in (3, 4, 5):
        ident = Permutation.identity(n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert is_translation(ident, i, j)
    w = Permutation((2, 1, 3, 4))
    assert is_translation(w, 3, 4)
    r = Permutation.long_cycle(4)
    assert is_translation(r, 1, 2)
    assert not is_translation(r, 3, 4)  # wraps


def test_cyclic_intervals():
    assert not CyclicInterval(3, 1, 3).is_subinterval_of(CyclicInterval(1, 3, 3))
    assert CyclicInterval(1, 2, 3).is_subinterval_of(CyclicInterval(3, 2, 3))
    assert CyclicInterval(3, 1, 4).elements() == (3, 4, 1)
    with pytest.raises(ValueError):
        CyclicInterval(2, 2, 4)


def _reference_elements(i, j, n):
    out = [i]
    while out[-1] != j:
        out.append(out[-1] % n + 1)
    return out


def test_cyclic_interval_containment_matches_element_lists():
    for n in range(2, 10):
        ivals = [CyclicInterval(i, j, n) for i, j in itertools.permutations(range(1, n + 1), 2)]
        for p in ivals:
            outer = _reference_elements(p.i, p.j, n)
            assert len(p) == len(outer)
            for q in ivals:
                inner = _reference_elements(q.i, q.j, n)
                # inner occurs in outer as a contiguous run, in order
                expected = any(
                    outer[k:k + len(inner)] == inner for k in range(len(outer) - len(inner) + 1)
                )
                assert q.is_subinterval_of(p) == expected
    with pytest.raises(ValueError):
        CyclicInterval(1, 2, 3).is_subinterval_of(CyclicInterval(1, 2, 4))


def _random_affine(rng, n):
    sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    k = [rng.randrange(-3, 4) for _ in range(n - 1)]
    return affine_recompose(sigma, tuple(k) + (-sum(k),))


def test_products_match_composition_of_maps():
    rng = random.Random(11)
    for n in range(1, 10):
        for _ in range(60):
            u = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            v = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            assert u * v == Permutation(tuple(u(v(x)) for x in range(1, n + 1)))
            f, g = _random_affine(rng, n), _random_affine(rng, n)
            # affine maps are compared on two periods, not only the window
            assert (f * g).window == tuple(f(g(a)) for a in range(1, n + 1))
            assert all((f * g)(a) == f(g(a)) for a in range(-n + 1, n + 1))
            for shift in (0, rng.randrange(n)):
                x = ExtAffinePermutation(f, shift)
                y = ExtAffinePermutation(g, rng.randrange(n))
                base = AffinePermutation(
                    tuple(f(g.rotate(shift)(a)) for a in range(1, n + 1))
                )
                assert x * y == ExtAffinePermutation(base, shift + y.shift)
    for a, b in (
        (Permutation.identity(2), Permutation.identity(3)),
        (AffinePermutation.identity(3), AffinePermutation.identity(2)),
        (ExtAffinePermutation.identity(2), ExtAffinePermutation.identity(3)),
    ):
        with pytest.raises(ValueError):
            a * b


def test_permutations_built_unchecked_are_the_validated_ones():
    # products, inverses, powers and the named permutations skip the
    # constructor's check; the constructor, given their images, must accept
    # them unchanged
    def validated(p):
        twin = Permutation(p.images)
        assert type(p.images) is tuple and p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
        return p

    rng = random.Random(12)
    for n in range(0, 8):
        validated(Permutation.identity(n))
        if n:
            validated(Permutation.long_cycle(n))
        for a, b in itertools.product(range(1, n + 1), repeat=2):
            t = validated(Permutation.transposition(n, a, b))
            assert t(a) == b and t(b) == a and (t * t).is_identity()
        for _ in range(20):
            u = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            v = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            validated(u * v)
            assert (validated(u.inverse()) * u).is_identity()
            k = rng.randrange(-3, 4)
            images, w = list(range(1, n + 1)), u if k >= 0 else u.inverse()
            for _ in range(abs(k)):
                images = [w(x) for x in images]
            assert validated(u ** k).images == tuple(images)
    for a, b in ((0, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError, match="swaps two of them"):
            Permutation.transposition(3, a, b)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1, 3))
