import random

import pytest

from mockingbird.mterms import encode_term, split
from mockingbird.terms import decode_term
from tests_util import all_combinators, random_m_term


def assert_splits(t):
    key, leaves = encode_term(t)
    a, b = split(key)
    assert decode_term(a, leaves) == t.left
    assert decode_term(b, leaves) == t.right
    assert "." + a + b == key


@pytest.mark.parametrize("degree", range(1, 8))
def test_split_of_every_combinator(degree):
    for t in all_combinators(degree):
        assert_splits(t)


def test_split_of_random_terms_with_variables():
    rng = random.Random(30)
    for _ in range(300):
        assert_splits(random_m_term(rng, rng.randint(1, 10), rng.randint(0, 3)))
