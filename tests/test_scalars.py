import random
from fractions import Fraction as F

import pytest

from cactusflower.scalars import Dual, GaussianRational, canon_scalar, matrix_rank


def _scalar(rng):
    x = F(rng.randrange(-9, 10), rng.randrange(1, 6))
    if rng.random() < 0.5:
        return x
    return canon_scalar(GaussianRational(x, F(rng.randrange(-9, 10), rng.randrange(1, 6))))


def _operand(rng):
    """An int, a Fraction or a Gaussian rational."""
    return rng.randrange(-5, 6) if rng.random() < 0.2 else _scalar(rng)


def _coerced(x):
    return Dual(canon_scalar(x), F(0))


# the dual-number formulas with every scalar operand first made (x, 0)
def _ref_mul(p, q):
    return Dual(p.a * q.a, p.a * q.b + p.b * q.a)


def _ref_sub(p, q):
    return Dual(p.a - q.a, p.b - q.b)


def _ref_div(p, q):
    return Dual(p.a / q.a, (p.b * q.a - p.a * q.b) / (q.a * q.a))


def test_dual_scalar_operands_match_the_coerced_formulas():
    rng = random.Random(61)
    for _ in range(400):
        p = Dual(_scalar(rng), _scalar(rng))
        q = Dual(_scalar(rng), _scalar(rng))
        x = _operand(rng)
        cases = [
            (p * x, _ref_mul(p, _coerced(x))),
            (x * p, _ref_mul(_coerced(x), p)),
            (p - x, _ref_sub(p, _coerced(x))),
            (x - p, _ref_sub(_coerced(x), p)),
            (p + x, Dual(p.a + x, p.b)),
            (p * q, _ref_mul(p, q)),
            (p - q, _ref_sub(p, q)),
        ]
        if x != 0:
            cases.append((p / x, _ref_div(p, _coerced(x))))
        if q.a != 0:
            cases.append((p / q, _ref_div(p, q)))
        if p.a != 0:
            cases.append((x / p, _ref_div(_coerced(x), p)))
        for got, want in cases:
            assert got == want, (p, q, x)
    with pytest.raises(ZeroDivisionError):
        Dual(F(1), F(2)) / 0


def test_dual_refuses_other_operands():
    with pytest.raises(TypeError):
        Dual(F(1), F(0)) * 1.5
    with pytest.raises(TypeError):
        "a" - Dual(F(1), F(0))


def _maybe_zero(rng):
    return F(0) if rng.random() < 0.4 else _scalar(rng)


def _assert_same_dual(got, want):
    assert type(got) is Dual and got == want, (got, want)
    for part in (got.a, got.b):  # canonical: no Gaussian rational on the real line
        assert not (isinstance(part, GaussianRational) and part.im == 0), got


def test_dual_skipping_zero_b_parts_matches_the_formulas():
    # every operand mix, with b parts zero about half the time
    rng = random.Random(62)
    seen = set()
    for _ in range(600):
        p, q = Dual(_scalar(rng), _maybe_zero(rng)), Dual(_scalar(rng), _maybe_zero(rng))
        x = _operand(rng)
        cases = [
            (p + q, Dual(p.a + q.a, p.b + q.b)), (p - q, _ref_sub(p, q)), (p * q, _ref_mul(p, q)),
            (p + x, Dual(p.a + x, p.b)), (x + p, Dual(p.a + x, p.b)),
            (p - x, _ref_sub(p, _coerced(x))), (x - p, _ref_sub(_coerced(x), p)),
            (p * x, _ref_mul(p, _coerced(x))), (x * p, _ref_mul(_coerced(x), p)),
            (-p, Dual(-p.a, -p.b)),
        ]
        if q.a != 0:
            cases.append((p / q, _ref_div(p, q)))
        if x != 0:
            cases.append((p / x, _ref_div(p, _coerced(x))))
        if p.a != 0:
            cases.append((x / p, _ref_div(_coerced(x), p)))
        for got, want in cases:
            _assert_same_dual(got, want)
        seen.add((p.b == 0, q.b == 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    with pytest.raises(ZeroDivisionError):
        Dual(F(1), F(0)) / Dual(F(0), F(1))


def _ref_rank(rows):
    # Gaussian elimination in the exact field, one quotient per entry
    m, rank = [[F(x) if isinstance(x, int) else x for x in r] for r in rows], 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _seeded_matrix(rng, entry):
    """A matrix with zero rows and columns, and rows that are combinations
    of earlier rows, so that its rank falls short of its size."""
    rows, cols = rng.randrange(0, 7), rng.randrange(1, 9)
    m = []
    for _ in range(rows):
        if m and rng.random() < 0.3:
            a, b = rng.choice(m), rng.choice(m)
            c, d = entry(rng), entry(rng)
            m.append([canon_scalar(c * x + d * y) for x, y in zip(a, b)])
        elif rng.random() < 0.1:
            m.append([F(0)] * cols)
        else:
            m.append([entry(rng) for _ in range(cols)])
    zero_col = rng.randrange(cols)
    for r in m:
        if rng.random() < 0.5:
            r[zero_col] = 0
    return m


def _rational_entry(rng):
    return rng.choice((0, 0, rng.randrange(-4, 5), F(rng.randrange(-20, 21), rng.randrange(1, 13))))


def test_rank_in_ints_matches_the_field_elimination():
    rng = random.Random(63)
    ranks = set()
    for _ in range(500):
        m = _seeded_matrix(rng, _rational_entry)
        want = _ref_rank(m)
        assert matrix_rank(m) == want, m
        # the same matrix over Q(i): the generic elimination, by quotients
        assert matrix_rank([[GaussianRational(x, 0) for x in r] for r in m]) == want
        ranks.add((want, len(m)))
    assert any(r < n for r, n in ranks) and any(r == n > 0 for r, n in ranks)
    assert matrix_rank([]) == 0 and matrix_rank([[0, F(0)], [F(0), 0]]) == 0
    # row 3 is three times row 1: an int / int quotient taken as a float
    # leaves a residue of 19/3 - 3.0 * 19/9 and counts it as a pivot
    m = [[-2, 0, F(12, 5), 0, 0, 0, F(-7, 2), 0], [0, 0, 0, 2, 0, 0, F(19, 9), F(-18, 5)],
         [0, 3, -4, 0, -3, 0, F(-1, 2), 0], [0, 0, 0, 6, 0, 0, F(19, 3), F(-54, 5)]]
    assert matrix_rank(m) == 3


def test_gaussian_matrices_take_the_generic_path():
    rng = random.Random(64)
    for _ in range(200):
        m = _seeded_matrix(rng, lambda rng: rng.choice((0, _scalar(rng))))
        assert matrix_rank(m) == _ref_rank(m), m
    # [[1, i], [i, -1]] has rank 1 over Q(i), and the real [[1, 0], [0, -1]] rank 2
    i = GaussianRational(F(0), F(1))
    assert matrix_rank([[1, i], [i, -1]]) == 1 and matrix_rank([[1, 0], [0, -1]]) == 2
    # int entries beside Gaussian ones: 2 / 1 stays exact
    assert matrix_rank([[1, i], [2, 3]]) == 2 and matrix_rank([[1, i], [2, 2 * i]]) == 1
