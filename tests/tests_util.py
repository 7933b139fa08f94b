"""Shared helpers for the test suite."""

from mockingbird.terms import app, basic, var

_M = basic("M")


def random_m_term(rng, degree, variables=0):
    """A uniform-ish random binary tree with the given number of
    applications; its leaves are M, or with `variables` > 0 drawn
    uniformly from M, x1, ..., x<variables>."""
    if degree == 0:
        if variables:
            index = rng.randint(0, variables)
            return var(index) if index else _M
        return _M
    left_degree = rng.randint(0, degree - 1)
    return app(random_m_term(rng, left_degree, variables),
               random_m_term(rng, degree - 1 - left_degree, variables))
