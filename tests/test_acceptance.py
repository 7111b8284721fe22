"""The acceptance gate: every criterion runs at its pinned tolerance and
prints one pass/fail line (run pytest with -s to see them)."""

import pytest

from cactusflower.acceptance import ALL_CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion):
    result = criterion(DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()


def test_samplers_give_up_after_bounded_degenerate_draws(monkeypatch):
    import random

    from cactusflower import acceptance

    def degenerate(*args, **kwargs):
        raise ValueError("always degenerate")

    monkeypatch.setattr(acceptance.pj, "orbit_map", degenerate)
    for family in ("Flower", "DeformedFlower", "MauWoodward"):
        with pytest.raises(acceptance.RetriesExhausted):
            acceptance._random_member(family, random.Random(1))

    def singular(values):
        raise ZeroDivisionError

    with pytest.raises(acceptance.RetriesExhausted):
        acceptance._jacobian_rank(["x"], singular, random.Random(1))
