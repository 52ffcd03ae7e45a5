"""Field samples of exact polynomial fields: every evaluator against sympy at random points."""

import numpy as np
import pytest
import sympy

from exact_reference import X, curl, div, grad, single_field
from finite_differences import fd_check
from tetcomplex.sampling import FieldSample

POINTS = np.random.default_rng(3).uniform(-1, 2, size=(7, 3))


def _at(expr, points=POINTS):
    return np.array([float(sympy.sympify(expr).subs(dict(zip(X, p)))) for p in points])


def _random_exprs(degree, count, seed):
    rng = np.random.default_rng(seed)
    monomials = sorted(sympy.itermonomials(X, degree), key=sympy.default_sort_key)
    return [sum(sympy.Rational(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) * m for m in monomials) for _ in range(count)]


@pytest.mark.parametrize("degree", range(4))
def test_scalar_sample_matches_sympy(degree):
    (p,) = _random_exprs(degree, 1, degree)
    sample = FieldSample.from_fields(single_field([p], degree))
    assert sample.scalar
    np.testing.assert_allclose(sample.value(POINTS), _at(p), rtol=1e-13, atol=1e-13)
    g = [q.as_expr() for q in grad(sympy.Poly(p, *X))]
    np.testing.assert_allclose(sample.gradient(POINTS), np.stack([_at(e) for e in g], axis=1), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("degree", range(4))
def test_vector_sample_matches_sympy(degree):
    u = _random_exprs(degree, 3, 10 + degree)
    sample = FieldSample.from_fields(single_field(u, degree))
    polys = [sympy.Poly(e, *X) for e in u]
    c = curl(polys)
    close = dict(rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(sample.value(POINTS), np.stack([_at(e) for e in u], axis=1), **close)
    np.testing.assert_allclose(sample.curl(POINTS), np.stack([_at(q.as_expr()) for q in c], axis=1), **close)
    np.testing.assert_allclose(sample.div(POINTS), _at(div(polys).as_expr()), **close)
    jacobian = np.stack([np.stack([_at(p.diff(x).as_expr()) for x in X], axis=-1) for p in polys], axis=1)
    np.testing.assert_allclose(sample.jacobian(POINTS), jacobian, **close)
    grad_curl = np.stack([np.stack([_at(q.diff(x).as_expr()) for x in X], axis=-1) for q in c], axis=1)
    np.testing.assert_allclose(sample.grad_curl(POINTS), grad_curl, **close)
    assert fd_check(sample, POINTS)["ok"]
