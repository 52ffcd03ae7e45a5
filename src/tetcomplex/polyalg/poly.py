"""Exact multivariate polynomial algebra over the rationals.

Polynomials are stored as sparse coefficient tables keyed by exponent
multi-indices.  All construction-time algebra runs in ``fractions.Fraction``
so that structural identities (complex property, constant divergence,
trace matching) can be asserted as exact equalities.  The same code paths
accept float coefficients for the fast evaluation/assembly paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from operator import add

import numpy as np

_ZERO = Fraction(0)


def _as_coeff(v):
    if isinstance(v, (Fraction, float)):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    raise TypeError(f"unsupported coefficient type {type(v)!r}")


def _trusted(table, nvars):
    """Polynomial over a table that already holds only nonzero coefficients
    (Fraction or float) under int tuple keys, without re-validating it.

    ``nvars`` follows the public constructor: the key length of a nonempty
    table, the given count for an empty one.
    """
    p = object.__new__(Polynomial)
    p.coeffs = table
    p.nvars = len(next(iter(table))) if table else nvars
    return p


def _mul_tables(p, q, zero):
    """Product of two coefficient tables, term by term in table order.

    A sum that cancels is dropped, and a key that reappears later moves to the
    end, so the key order depends only on the zero pattern of the sums.
    """
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(map(add, k1, k2))
            s = out.get(k, zero) + v1 * v2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


class Polynomial:
    """Sparse polynomial in ``nvars`` variables.

    Coefficients are keyed by exponent tuples; zero coefficients are never
    stored.  Instances are treated as immutable after construction.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs=None, nvars=3):
        table = {}
        if coeffs:
            for key, val in coeffs.items():
                val = _as_coeff(val)
                if val != 0:
                    table[tuple(int(e) for e in key)] = val
                    nvars = len(key)
        self.coeffs = table
        self.nvars = nvars

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars=3):
        return cls({}, nvars)

    @classmethod
    def constant(cls, value, nvars=3):
        value = _as_coeff(value)
        if value == 0:
            return cls.zero(nvars)
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): _as_coeff(coeff)}, len(exps))

    @classmethod
    def variable(cls, i, nvars=3):
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(e)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            if k in out:
                s = out[k] + v
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = v
        return _trusted(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({k: -v for k, v in self.coeffs.items()}, self.nvars)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return _trusted(_mul_tables(self.coeffs, other.coeffs, _ZERO), self.nvars)
        c = _as_coeff(other)
        if c == 0:
            return Polynomial.zero(self.nvars)
        # a float product can underflow to zero
        return _trusted({k: w for k, v in self.coeffs.items() if (w := v * c)}, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1, 1) / _as_coeff(scalar) if isinstance(_as_coeff(scalar), Fraction) else 1.0 / scalar)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return self.coeffs == Polynomial.constant(other, self.nvars).coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(k) for k in self.coeffs)

    # -- calculus ------------------------------------------------------

    def derivative(self, var):
        out = {}
        for k, v in self.coeffs.items():
            e = k[var]
            if e == 0:
                continue
            nk = list(k)
            nk[var] = e - 1
            out[tuple(nk)] = v * e
        return _trusted(out, self.nvars)

    def substitute(self, exprs):
        """Substitute variable ``i`` by ``exprs[i]`` (polynomials in m vars).

        Exact coefficients are expanded on integer numerators.  Expression
        ``i`` is scaled to integer coefficients by its common denominator
        ``D_i``, and the coefficient of ``x^k`` by ``B * prod D_i^(M_i - k_i)``,
        where ``B`` is the common denominator of the coefficients and ``M_i``
        the largest exponent of variable ``i``.  Every term and every partial
        sum is then the same positive multiple ``S = B * prod D_i^M_i`` of its
        rational value.  The terms are expanded and summed in the order of the
        rational algorithm, so the same sums cancel, the keys come out in the
        same order, and one division by ``S`` at the end gives the result.
        With a float coefficient on either side the same expansion runs on the
        values themselves.
        """
        nvars_out = exprs[0].nvars
        tables = [e.coeffs for e in exprs]
        try:
            dens = [lcm(*(v.denominator for v in t.values())) for t in tables]
            den = lcm(*(v.denominator for v in self.coeffs.values()))
        except AttributeError:  # a float coefficient
            den = None
        if den is not None:
            tables = [
                {k: v.numerator * (d // v.denominator) for k, v in t.items()}
                for t, d in zip(tables, dens)
            ]
            top = [max(col) for col in zip(*self.coeffs)]
            scale = den * prod(d**m for d, m in zip(dens, top))
        # memoized powers of the substituted expressions
        pow_cache = [{1: t} for t in tables]

        def power(i, e):
            cache = pow_cache[i]
            if e not in cache:
                cache[e] = _mul_tables(power(i, e - 1), tables[i], 0)
            return cache[e]

        const_key = (0,) * nvars_out
        out = {}
        for k, v in self.coeffs.items():
            if den is None:
                c = v
            else:
                c = v.numerator * (den // v.denominator)
                for d, m, e in zip(dens, top, k):
                    c *= d ** (m - e)
            term = {const_key: c}
            for i, e in enumerate(k):
                if e:
                    term = _mul_tables(term, power(i, e), 0)
            for kk, vv in term.items():
                s = out.get(kk, 0) + vv
                if s:
                    out[kk] = s
                else:
                    out.pop(kk, None)
        if den is not None:
            out = {k: Fraction(v, scale) for k, v in out.items()}
        return _trusted(out, nvars_out)

    def permute_variables(self, cols):
        """``p(S x)`` for the permutation ``(S x)[cols[j]] = x[j]``.

        Only the exponent keys move; no coefficient is recomputed.
        """
        return _trusted({tuple(k[c] for c in cols): v for k, v in self.coeffs.items()}, self.nvars)

    def compose_affine(self, matrix, shift):
        """Substitute x_i <- sum_j matrix[i][j] y_j + shift[i]."""
        m = len(matrix[0])
        exprs = []
        for i in range(self.nvars):
            table = {}
            if shift[i] != 0:
                table[(0,) * m] = _as_coeff(shift[i])
            for j in range(m):
                if matrix[i][j] != 0:
                    key = tuple(1 if jj == j else 0 for jj in range(m))
                    table[key] = _as_coeff(matrix[i][j])
            exprs.append(Polynomial(table, m))
        return self.substitute(exprs)

    # -- evaluation ----------------------------------------------------

    def __call__(self, point):
        """The value at ``point``.

        With Fraction coefficients and a point of ints and Fractions the sum
        runs on integer numerators: with ``D`` the point's common
        denominator, ``B`` the coefficients' and ``M`` the largest total
        degree, each term is scaled to ``B * D^M`` times its value, and one
        Fraction is formed at the end.  With a float on either side the
        terms are summed as they are.
        """
        try:
            den = lcm(*(v.denominator for v in self.coeffs.values()))
        except AttributeError:  # a float coefficient
            den = None
        if den is not None and all(isinstance(x, (int, Fraction)) for x in point):
            d = lcm(*(x.denominator for x in point))
            nums = [x.numerator * (d // x.denominator) for x in point]
            top = max(map(sum, self.coeffs), default=0)
            total = 0
            for k, v in self.coeffs.items():
                term = v.numerator * (den // v.denominator) * d ** (top - sum(k))
                for x, e in zip(nums, k):
                    if e:
                        term *= x**e
                total += term
            return Fraction(total, den * d**top)
        out = _ZERO
        for k, v in self.coeffs.items():
            term = v
            for x, e in zip(point, k):
                if e:
                    term = term * x**e
            out = out + term
        return out

    def eval_many(self, points):
        """Vectorized float evaluation; ``points`` is ``(m, nvars)``."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[0])
        for k, v in self.coeffs.items():
            term = np.full(points.shape[0], float(v))
            for i, e in enumerate(k):
                if e:
                    term = term * points[:, i] ** e
            out += term
        return out

    def to_float(self):
        # a tiny rational can round to zero
        return _trusted({k: f for k, v in self.coeffs.items() if (f := float(v))}, self.nvars)

    # -- formatting ----------------------------------------------------

    def dump(self, varnames=("x", "y", "z", "t")):
        """Sorted human-readable coefficient lines for golden tests."""
        lines = []
        for k in sorted(self.coeffs):
            mono = " ".join(
                f"{varnames[i]}^{e}" for i, e in enumerate(k) if e
            )
            lines.append(f"{self.coeffs[k]} * {mono}" if mono else f"{self.coeffs[k]} * 1")
        return lines

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        return "Polynomial(" + " + ".join(self.dump()) + ")"


# ---------------------------------------------------------------------------
# vector fields

class VectorField:
    """Three polynomial components forming an exact vector field."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        assert len(comps) == 3
        self.comps = comps

    @classmethod
    def zero(cls, nvars=3):
        z = Polynomial.zero(nvars)
        return cls((z, z, z))

    @classmethod
    def constant(cls, vec, nvars=3):
        return cls(tuple(Polynomial.constant(v, nvars) for v in vec))

    def __getitem__(self, i):
        return self.comps[i]

    def __iter__(self):
        return iter(self.comps)

    def __add__(self, other):
        return VectorField(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return VectorField(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return VectorField(tuple(-a for a in self.comps))

    def __mul__(self, scalar):
        return VectorField(tuple(c * scalar for c in self.comps))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.comps == other.comps

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    @property
    def degree(self):
        return max(c.degree for c in self.comps)

    @property
    def nvars(self):
        return self.comps[0].nvars

    def dot(self, other):
        out = Polynomial.zero(self.nvars)
        for a, b in zip(self.comps, other.comps):
            out = out + a * b
        return out

    def cross(self, other):
        a, b = self.comps, other.comps
        return VectorField((
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ))

    def matmul(self, matrix):
        """Apply a constant 3x3 matrix: returns ``matrix @ self``."""
        rows = []
        for i in range(3):
            acc = Polynomial.zero(self.nvars)
            for j in range(3):
                if matrix[i][j] != 0:
                    acc = acc + self.comps[j] * matrix[i][j]
            rows.append(acc)
        return VectorField(tuple(rows))

    def substitute(self, exprs):
        return VectorField(tuple(c.substitute(exprs) for c in self.comps))

    def compose_affine(self, matrix, shift):
        return VectorField(tuple(c.compose_affine(matrix, shift) for c in self.comps))

    def to_float(self):
        return VectorField(tuple(c.to_float() for c in self.comps))

    def __call__(self, point):
        return tuple(c(point) for c in self.comps)

    def eval_many(self, points):
        return np.stack([c.eval_many(points) for c in self.comps], axis=-1)

    def dump(self):
        out = []
        for name, c in zip("xyz", self.comps):
            out.append(f"[{name}]")
            out.extend(c.dump())
        return out

    def __repr__(self):
        return f"VectorField({self.comps!r})"


# ---------------------------------------------------------------------------
# differential operators (reference coordinates)

def grad(p: Polynomial) -> VectorField:
    return VectorField(tuple(p.derivative(i) for i in range(3)))


def curl(u: VectorField) -> VectorField:
    ux, uy, uz = u.comps
    return VectorField((
        uz.derivative(1) - uy.derivative(2),
        ux.derivative(2) - uz.derivative(0),
        uy.derivative(0) - ux.derivative(1),
    ))


def div(u: VectorField) -> Polynomial:
    return u.comps[0].derivative(0) + u.comps[1].derivative(1) + u.comps[2].derivative(2)


def differential(field, which):
    """Dispatch ``grad | curl | div`` on scalar/vector fields."""
    if which == "grad":
        if not isinstance(field, Polynomial):
            raise TypeError("grad expects a scalar polynomial")
        return grad(field)
    if which == "curl":
        return curl(field)
    if which == "div":
        return div(field)
    raise ValueError(f"unknown differential {which!r}")


def jacobian(u: VectorField):
    """3x3 table J[i][j] = d u_i / d x_j."""
    return [[u.comps[i].derivative(j) for j in range(3)] for i in range(3)]


def koszul2(u: VectorField) -> VectorField:
    """Cross product with the coordinate field: u x (x, y, z)."""
    x = VectorField(tuple(Polynomial.variable(i, u.nvars) for i in range(3)))
    return u.cross(x)


# ---------------------------------------------------------------------------
# exact integration on reference simplices

def integrate_unit_simplex(p: Polynomial) -> Fraction:
    """Exact integral over the unit simplex of dimension ``p.nvars``.

    Uses the factorial formula for monomials; for dimension d the simplex is
    ``{x_i >= 0, sum x_i <= 1}`` with volume 1/d!.
    """
    d = p.nvars
    total = Fraction(0)
    for k, v in p.coeffs.items():
        num = 1
        for e in k:
            num *= factorial(e)
        total += v * Fraction(num, factorial(sum(k) + d))
    return total


def _affine_from_vertices(vertices):
    """Matrix/shift mapping the unit simplex onto ``vertices`` (first = image of 0)."""
    v0 = vertices[0]
    dim_amb = len(v0)
    cols = [[vertices[j + 1][i] - v0[i] for j in range(len(vertices) - 1)] for i in range(dim_amb)]
    return cols, list(v0)


def integrate_simplex(field, vertices):
    """Exact integral of a scalar polynomial over a simplex with rational vertices.

    ``vertices`` is a list of d+1 points in R^3 (or R^d): 4 points -> tet,
    3 -> triangle, 2 -> segment.  For tets the result is exact rational.
    For triangles/segments the measure may be irrational; the exact value is
    returned whenever the measure is rational, otherwise a ``ValueError``
    explains that the parametric form must be used.
    """
    npts = len(vertices)
    d = npts - 1
    matrix, shift = _affine_from_vertices(vertices)
    composed = field.compose_affine(matrix, shift)
    base = integrate_unit_simplex(composed)
    if d == 3:
        det = _det3(matrix)
        if det == 0:
            raise ValueError("degenerate simplex")
        return base * abs(det) if isinstance(det, Fraction) else base * abs(det)
    # measure ratio relative to the unit simplex
    gram = [[sum(matrix[i][a] * matrix[i][b] for i in range(len(matrix))) for b in range(d)] for a in range(d)]
    if d == 2:
        g2 = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    else:
        g2 = gram[0][0]
    if g2 == 0:
        raise ValueError("degenerate simplex")
    root = _rational_sqrt(g2)
    if root is None:
        raise ValueError(
            "simplex measure is irrational; integrate the parametric pullback "
            "with integrate_unit_simplex and scale by the measure explicitly"
        )
    return base * root


def _rational_sqrt(q):
    if isinstance(q, float):
        return float(np.sqrt(q))
    q = Fraction(q)
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n):
    r = int(np.floor(np.sqrt(float(n)))) if n < (1 << 52) else int(n**0.5)
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand * cand == n:
            return cand
    return None


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# ---------------------------------------------------------------------------
# affine pullbacks (reference <-> physical)

def pullback_affine(field, matrix, shift, kind):
    """Pull a physical field back to reference coordinates: returns field∘F.

    ``F(xhat) = matrix @ xhat + shift``.  Kinds:

    - ``scalar``:        phat = p∘F
    - ``covariant``:     uhat = B^T (u∘F)          (tangential-moment preserving)
    - ``contravariant``: uhat = det(B) B^{-1} (u∘F) (flux preserving)
    """
    composed = field.compose_affine(matrix, shift) if isinstance(field, Polynomial) else field.compose_affine(matrix, shift)
    if kind == "scalar":
        return composed
    det = _det3(matrix)
    if det == 0:
        raise ValueError("singular mapping matrix")
    if kind == "covariant":
        bt = [[matrix[j][i] for j in range(3)] for i in range(3)]
        return composed.matmul(bt)
    if kind == "contravariant":
        inv = _inv3(matrix, det)
        scaled = [[inv[i][j] * det for j in range(3)] for i in range(3)]
        return composed.matmul(scaled)
    raise ValueError(f"unknown pullback kind {kind!r}")


def pushforward_affine(field, matrix, shift, kind):
    """Inverse of :func:`pullback_affine` (physical field from reference one)."""
    det = _det3(matrix)
    if det == 0:
        raise ValueError("singular mapping matrix")
    inv = _inv3(matrix, det)
    inv_shift = [-sum(inv[i][j] * shift[j] for j in range(3)) for i in range(3)]
    composed = field.compose_affine(inv, inv_shift)
    if kind == "scalar":
        return composed
    if kind == "covariant":
        # u = B^{-T} uhat∘F^{-1}
        invt = [[inv[j][i] for j in range(3)] for i in range(3)]
        return composed.matmul(invt)
    if kind == "contravariant":
        one_over = Fraction(1, 1) / det if isinstance(det, Fraction) else 1.0 / det
        scaled = [[matrix[i][j] * one_over for j in range(3)] for i in range(3)]
        return composed.matmul(scaled)
    raise ValueError(f"unknown pullback kind {kind!r}")


def _inv3(m, det=None):
    if det is None:
        det = _det3(m)
    cof = [
        [m[1][1] * m[2][2] - m[1][2] * m[2][1], m[0][2] * m[2][1] - m[0][1] * m[2][2], m[0][1] * m[1][2] - m[0][2] * m[1][1]],
        [m[1][2] * m[2][0] - m[1][0] * m[2][2], m[0][0] * m[2][2] - m[0][2] * m[2][0], m[0][2] * m[1][0] - m[0][0] * m[1][2]],
        [m[1][0] * m[2][1] - m[1][1] * m[2][0], m[0][1] * m[2][0] - m[0][0] * m[2][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]],
    ]
    if isinstance(det, Fraction) or isinstance(det, int):
        inv_det = Fraction(1, 1) / Fraction(det)
    else:
        inv_det = 1.0 / det
    return [[cof[i][j] * inv_det for j in range(3)] for i in range(3)]
