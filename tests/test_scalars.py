import random
from fractions import Fraction as F

import pytest

from cactusflower.scalars import Dual, GaussianRational, canon_scalar


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
