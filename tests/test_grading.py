"""Graded enumeration against a brute-force oracle."""

import itertools

import pytest

from dxext.grading import compositions


@pytest.mark.parametrize("slots", [1, 2, 3, 4])
def test_compositions_are_every_tuple_in_lexicographic_order(slots):
    for total in range(-1, 7):
        want = [t for t in itertools.product(range(max(total, 0) + 1), repeat=slots) if sum(t) == total]
        assert list(compositions(total, slots)) == want
