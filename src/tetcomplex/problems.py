"""Model problems: the fourth-order curl problem, Stokes flow, convergence studies.

The manufactured velocity field is a product of univariate trigonometric
factors per component, so every partial derivative (up to the fourth-order
forcing) evaluates exactly as a product of formally differentiated
univariate factors; no symbolic engine and no quadrature enter the forcing.

Every such factor is a cubic form in (sin(pi x), cos(pi x)), and a
translation x -> x + a maps the four cubic modes s^(3-a) c^a onto one
another (angle addition).  So on the cells of one congruence class, which
are translates of the first, every field of the solution is a per-cell
vector of 64 coefficients times 64 template modes taken at the first
cell's points: the packaged samples carry that representation as
``TranslationModes``, and load and error norms need no evaluation per
point and cell.  Interpolation evaluates at its few stencil points per
cell, which costs less than moving the mode coefficients there.
"""

from __future__ import annotations

import json
import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    DOF_POINT_SCALE,
    GlobalSpace,
    assemble,
    assemble_load,
    default_quadrature_degree,
    divergence_norm,
    error_norms,
    extend_vector,
    restrict_operator,
    restrict_vector,
)
from .mesh import build_structured_cube
from .quadrature import QuadratureRule
from .sampling import FieldSample

_log = logging.getLogger("tetcomplex.problems")


class SolverFailure(RuntimeError):
    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# univariate trigonometric factors and their translation modes


class TrigPoly1D:
    """Polynomial in (sin(pi x), cos(pi x)) with float coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v != 0.0}

    def derivative(self):
        out = {}
        for (a, b), c in self.terms.items():
            if a:
                key = (a - 1, b + 1)
                out[key] = out.get(key, 0.0) + np.pi * a * c
            if b:
                key = (a + 1, b - 1)
                out[key] = out.get(key, 0.0) - np.pi * b * c
        return TrigPoly1D(out)

    def cubic(self):
        """Coefficients of the four cubic modes s^(3-a) c^a, a = 0..3.

        A term of degree 1 is lifted to degree 3 by s^2 + c^2 = 1; other
        degrees have no cubic form.
        """
        out = np.zeros(4)
        for (a, b), coeff in self.terms.items():
            lift, odd = divmod(3 - a - b, 2)
            if odd or lift < 0:
                raise ValueError(f"term s^{a} c^{b} is not a cubic form")
            for j in range(lift + 1):  # (s^2 + c^2)^lift
                out[b + 2 * j] += math.comb(lift, j) * coeff
        return out


def shift_matrices(shifts):
    """(n, 4, 4) matrices M with ``f(x + a).cubic() == M(a) @ f.cubic()``.

    sin(pi (x + a)) = s cos(pi a) + c sin(pi a) and cos(pi (x + a)) =
    c cos(pi a) - s sin(pi a), so mode s^(3-b) c^b moved by a is the
    product of those linear forms; column b of M(a) holds its coefficients.
    """
    shifts = np.asarray(shifts, float)
    sa, ca = np.sin(np.pi * shifts), np.cos(np.pi * shifts)
    sine = (ca, sa)  # coefficients of s and c
    cosine = (-sa, ca)
    out = np.empty((len(shifts), 4, 4))
    for b in range(4):
        form = np.ones((len(shifts), 1))
        for s_coef, c_coef in [sine] * (3 - b) + [cosine] * b:
            grown = np.zeros((len(shifts), form.shape[1] + 1))
            grown[:, :-1] += form * s_coef[:, None]
            grown[:, 1:] += form * c_coef[:, None]
            form = grown
        out[:, :, b] = form
    return out


class TranslationModes:
    """Fields on the products of cubic modes per axis, at translated points.

    ``tensors`` maps a name to coefficients of shape (64, *components):
    row 16 a + 4 b + c multiplies the mode s1^(3-a) c1^a s2^(3-b) c2^b
    s3^(3-c) c3^c (s_i = sin(pi x_i), c_i = cos(pi x_i)).  At points p + t,
    a field is ``coefficients(name, t) @ template(p)``: the template holds
    the modes at p, and the coefficients are the tensor moved by t, one
    ``shift_matrices`` factor per axis.
    """

    count = 64

    def __init__(self, tensors):
        self.tensors = tensors

    def template(self, points):
        """The 64 modes at flat (m, 3) points, shape (64, m)."""
        x = np.pi * np.asarray(points, float)
        s, c = np.sin(x), np.cos(x)
        per_axis = [np.stack([s[:, i] ** (3 - a) * c[:, i] ** a for a in range(4)]) for i in range(3)]
        return np.einsum("am,bm,cm->abcm", *per_axis).reshape(64, -1)

    def coefficients(self, name, shifts):
        """Coefficients of field ``name`` moved by each of (cells, 3) shifts.

        Shape (cells, *components, 64); see :meth:`shifted`.
        """
        return self.shifted(shifts)(name)

    def shifted(self, shifts):
        """:meth:`coefficients` at (cells, 3) shifts, as a function of the name.

        The shift acts on one tensor axis at a time, with one matrix per
        distinct shift along that axis; the matrices are formed here once
        for every name the function is called with.
        """
        n = len(shifts)
        mx, my, mz = (
            shift_matrices(distinct)[inverse]
            for distinct, inverse in (np.unique(s, return_inverse=True) for s in shifts.T)
        )

        def coefficients(name):
            t = self.tensors[name]
            out = mx @ t.reshape(4, -1)  # (cells, x mode, rest)
            out = my[:, None] @ out.reshape(n, 4, 4, -1)  # (cells, x, y mode, rest)
            out = mz[:, None] @ out.reshape(n, 16, 4, -1)  # (cells, x y, z mode, components)
            return np.moveaxis(out.reshape(n, 64, -1), 1, -1).reshape((n,) + t.shape[1:] + (64,))

        return coefficients


class _PointFactors:
    """Univariate factors at flat (m, 3) points, each evaluated once."""

    def __init__(self, pts):
        x = np.pi * np.asarray(pts, float)
        self.size = len(x)
        self.powers = []
        for s, c in zip(np.sin(x).T, np.cos(x).T):
            self.powers.append(([np.ones_like(s), s, s * s, s * s * s],
                                [np.ones_like(c), c, c * c, c * c * c]))
        self._memo = {}

    def factor(self, f, axis):
        key = (tuple(f.terms.items()), axis)
        val = self._memo.get(key)
        if val is None:
            sines, cosines = self.powers[axis]
            val = np.zeros(self.size)
            for (a, b), coeff in f.terms.items():
                val += coeff * sines[a] * cosines[b]
            self._memo[key] = val
        return val


class _ModeFactors:
    """Univariate factors as cubic coefficients, in place of 64 points.

    A factor of axis 0 takes at "point" 16 a + 4 b + c its coefficient a
    (axis 1: b, axis 2: c), so the product of three factors that the
    evaluators form point by point is their Kronecker product, and an
    evaluator returns its ``TranslationModes`` tensor.
    """

    size = TranslationModes.count

    def factor(self, f, axis):
        shape = [1, 1, 1]
        shape[axis] = 4
        return np.broadcast_to(f.cubic().reshape(shape), (4, 4, 4)).ravel()


class SeparableProduct:
    """coef * f1(x) f2(y) f3(z) with derivative tables up to order 4."""

    def __init__(self, coef, f1, f2, f3, max_order=4):
        self.coef = coef
        self.tables = []
        for f in (f1, f2, f3):
            tab = [f]
            for _ in range(max_order):
                tab.append(tab[-1].derivative())
            self.tables.append(tab)

    def partial(self, alpha, factors):
        f1, f2, f3 = (factors.factor(self.tables[i][alpha[i]], i) for i in range(3))
        out = np.multiply(f1, f2)
        out *= f3
        if self.coef != 1.0:
            out *= self.coef
        return out


_EPS = np.zeros((3, 3, 3))
for _perm, _sign in ((((0, 1, 2)), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                     ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1)):
    _EPS[_perm] = _sign
_E = np.eye(3, dtype=int)
# (curl u)_a is the sum of sign * d u_c / d x_b over (sign, c, e_b) in _CURL[a]
_CURL = [
    [(int(_EPS[a, b, c]), c, _E[b]) for b in range(3) for c in range(3) if _EPS[a, b, c]]
    for a in range(3)
]


class ManufacturedSolution:
    """Trigonometric divergence-free field with vanishing boundary traces.

    Components (s_i = sin(pi x_i), c_i = cos(pi x_i)):

        u1 =    s1^3 (s2^2 c2) (s3^2 c3)
        u2 =    (s1^2 c1) s2^3 (s3^2 c3)
        u3 = -2 (s1^2 c1) (s2^2 c2) s3^3

    The forcing of the fourth-order problem, -curl(lap(curl u)) + u (which
    is lap(lap(u)) + u, as div u = 0), and the Stokes forcing
    -lap(u) + grad(p) with p = c1 c2 c3 are evaluated from the same
    univariate derivative tables.

    Every evaluator takes flat (m, 3) points and, optionally, the source
    of the univariate factors.  By default that is the factors at those
    points.  ``translation_modes`` passes the factors' cubic coefficients
    instead (``_ModeFactors``): the same sums of products then give each
    field's 64 mode coefficients, which the packaged samples carry as
    ``modes``.  The pressure's degree-1 factors lift to cubic forms.
    """

    def __init__(self):
        s3 = TrigPoly1D({(3, 0): 1.0})
        s2c = TrigPoly1D({(2, 1): 1.0})
        self.comps = (
            SeparableProduct(1.0, s3, s2c, s2c),
            SeparableProduct(1.0, s2c, s3, s2c),
            SeparableProduct(-2.0, s2c, s2c, s3),
        )
        c1 = TrigPoly1D({(0, 1): 1.0})
        self.pressure_product = SeparableProduct(1.0, c1, c1, c1, max_order=1)

    # -- raw partial evaluators ------------------------------------------
    # Each takes flat (m, 3) points and, optionally, the factor source of
    # those points, which several evaluators at one point set share.

    def _p(self, comp, alpha, factors):
        return self.comps[comp].partial(alpha, factors)

    def value(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return np.stack([self._p(i, (0, 0, 0), factors) for i in range(3)], axis=1)

    def divergence(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return sum(self._p(i, tuple(_E[i]), factors) for i in range(3))

    def jacobian(self, pts, factors=None):
        """(m, 3, 3) array with entry [:, i, j] = d u_i / d x_j."""
        factors = factors or _PointFactors(pts)
        out = np.empty((factors.size, 3, 3))
        for i in range(3):
            for j in range(3):
                out[:, i, j] = self._p(i, tuple(_E[j]), factors)
        return out

    def _sum(self, terms, factors):
        """Sum of sign * (d^alpha u_comp) over (sign, comp, alpha) terms, in place."""
        acc = None
        for sign, comp, alpha in terms:
            p = self._p(comp, tuple(alpha), factors)
            if acc is None:
                acc = p if sign > 0 else np.negative(p, out=p)
            elif sign > 0:
                acc += p
            else:
                acc -= p
        return acc

    def curl(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return np.stack([self._sum(_CURL[a], factors) for a in range(3)], axis=1)

    def grad_curl(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        out = np.empty((factors.size, 3, 3))
        for a in range(3):
            for d in range(3):
                out[:, a, d] = self._sum([(s, c, b + _E[d]) for s, c, b in _CURL[a]], factors)
        return out

    def lap_curl(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return np.stack([
            self._sum([(s, c, b + 2 * _E[d]) for d in range(3) for s, c, b in _CURL[a]], factors)
            for a in range(3)
        ], axis=1)

    def bilaplacian(self, pts, factors=None):
        """lap(lap(u)) from 18 partials: per component the three d^4/dx_d^4 and,
        counted twice, the three d^2/dx_d^2 d^2/dx_e^2 with d < e."""
        factors = factors or _PointFactors(pts)
        comps = []
        for i in range(3):
            mixed = [(1, i, 2 * (_E[d] + _E[e])) for d in range(3) for e in range(d + 1, 3)]
            acc = self._sum(mixed, factors)
            acc *= 2
            acc += self._sum([(1, i, 4 * _E[d]) for d in range(3)], factors)
            comps.append(acc)
        return np.stack(comps, axis=1)

    def forcing(self, pts, factors=None):
        """-curl(lap(curl u)) + u, which is lap(lap(u)) + u because div u = 0."""
        factors = factors or _PointFactors(pts)
        return self.bilaplacian(pts, factors) + self.value(pts, factors)

    def laplacian(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return np.stack(
            [
                sum(self._p(i, tuple(2 * _E[d]), factors) for d in range(3))
                for i in range(3)
            ],
            axis=1,
        )

    def pressure(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return self.pressure_product.partial((0, 0, 0), factors)

    def pressure_gradient(self, pts, factors=None):
        factors = factors or _PointFactors(pts)
        return np.stack(
            [self.pressure_product.partial(tuple(_E[i]), factors) for i in range(3)], axis=1
        )

    def stokes_forcing(self, pts, viscosity=1.0, factors=None):
        factors = factors or _PointFactors(pts)
        return -viscosity * self.laplacian(pts, factors) + self.pressure_gradient(pts, factors)

    # -- packaged samples ---------------------------------------------------

    def translation_modes(self, **evaluators):
        """TranslationModes with one tensor per keyword, from its evaluator.

        The evaluators get NaN points, so one that uses the coordinates
        besides the factors (a subclass adding a polynomial term, say)
        raises here instead of giving wrong coefficients.
        """
        pts = np.full((TranslationModes.count, 3), np.nan)
        tensors = {}
        for name, evaluate in evaluators.items():
            tensors[name] = evaluate(pts, factors=_ModeFactors())
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"{name} is not a sum of products of trigonometric factors")
        return TranslationModes(tensors)

    def solution_sample(self):
        return FieldSample(
            self.value, self.curl, self.grad_curl, self.divergence, jacobian=self.jacobian,
            modes=self.translation_modes(
                value=self.value, curl=self.curl, grad_curl=self.grad_curl,
                div=self.divergence, jacobian=self.jacobian,
            ),
        )

    def forcing_sample(self):
        return FieldSample(self.forcing, modes=self.translation_modes(value=self.forcing))

    def stokes_forcing_sample(self, viscosity=1.0):
        def forcing(pts, factors=None):
            return self.stokes_forcing(pts, viscosity, factors)

        return FieldSample(forcing, modes=self.translation_modes(value=forcing))

    def pressure_sample(self):
        return FieldSample(
            self.pressure, gradient=self.pressure_gradient, scalar=True,
            modes=self.translation_modes(value=self.pressure, gradient=self.pressure_gradient),
        )

    # -- validation -----------------------------------------------------------

    def validate(self, rng=None, n=40):
        """Divergence, boundary traces, and a finite-difference forcing check."""
        rng = rng or np.random.default_rng(123)
        pts = rng.random((n, 3))
        report = {}
        report["div"] = float(np.abs(self.divergence(pts)).max())

        edge = rng.random((n, 3))
        for axis in range(3):
            for val in (0.0, 1.0):
                q = edge.copy()
                q[:, axis] = val
                report.setdefault("boundary_value", 0.0)
                report.setdefault("boundary_curl", 0.0)
                report["boundary_value"] = max(
                    report["boundary_value"], float(np.abs(self.value(q)).max())
                )
                report["boundary_curl"] = max(
                    report["boundary_curl"], float(np.abs(self.curl(q)).max())
                )

        # Richardson-extrapolated curl of the analytic third-derivative field
        interior = rng.random((n, 3)) * 0.9 + 0.05
        fd = _richardson_curl(self.lap_curl, interior, h=1e-3)
        f_ref = -fd + self.value(interior)
        f_an = self.forcing(interior)
        scale = max(1.0, float(np.abs(f_an).max()))
        report["forcing_fd"] = float(np.abs(f_an - f_ref).max() / scale)
        report["ok"] = (
            report["div"] < 1e-10
            and report["boundary_value"] < 1e-12
            and report["boundary_curl"] < 1e-12
            and report["forcing_fd"] < 1e-8
        )
        return report


def _richardson_curl(f, pts, h):
    def curl_at(hh):
        eye = np.eye(3)
        d = [(f(pts + hh * eye[j]) - f(pts - hh * eye[j])) / (2 * hh) for j in range(3)]
        return np.stack(
            [d[1][:, 2] - d[2][:, 1], d[2][:, 0] - d[0][:, 2], d[0][:, 1] - d[1][:, 0]],
            axis=1,
        )

    c1 = curl_at(h)
    c2 = curl_at(h / 2)
    return (4 * c2 - c1) / 3


# ---------------------------------------------------------------------------
# problem definitions


@dataclass
class QuadCurlProblem:
    """Fourth-order curl model problem on the unit cube at one mesh level."""

    n: int
    r: int
    k: int
    tol: float = 1e-10
    quad_degree: int = None
    solver: str = "direct"
    solution: ManufacturedSolution = dc_field(default_factory=ManufacturedSolution)


@dataclass
class StokesProblem:
    n: int
    k: int
    viscosity: float = 1.0
    tol: float = 1e-12
    quad_degree: int = None
    solution: ManufacturedSolution = dc_field(default_factory=ManufacturedSolution)


class StageTimings(dict):
    """perf_counter seconds per solve stage; 0 for a stage an operation does not run."""

    STAGES = ("assemble", "load", "solve", "errors", "interpolate")

    def __init__(self):
        super().__init__(dict.fromkeys(self.STAGES, 0.0))

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self[name] += time.perf_counter() - t0


_space_cache = {}


def get_spaces(n, r, k, kinds):
    """Mesh plus global spaces, cached per (n, r, k); one mesh per level n."""
    key = (n, r, k)
    entry = _space_cache.get(key)
    if entry is None:
        mesh = next((e["mesh"] for (m, _, _), e in _space_cache.items() if m == n), None)
        if mesh is None:
            mesh = build_structured_cube(n)
        entry = {"mesh": mesh}
        _space_cache[key] = entry
    for kind in kinds:
        if kind not in entry:
            entry[kind] = GlobalSpace(entry["mesh"], kind, r, k)
    return entry


def _nested_dissection(points):
    """Nested-dissection order of integer points; returns (order, depth).

    Each part is cut at the lattice plane (a multiple of
    ``DOF_POINT_SCALE``) nearest the median of its points, along the
    longest extent that such a plane cuts.  The points on the plane, the
    separator, are ordered after both sides, and both sides are cut again;
    every side keeps the order its points had.  A part stops when no plane
    leaves points on both of its sides.  All parts of one level are cut at
    once: one sort of (part, coordinate) keys gives their medians, and one
    stable sort of (part, side) keys moves their points.  ``depth`` counts
    the levels.
    """
    points = np.asarray(points, dtype=np.int64)
    n = len(points)
    step = DOF_POINT_SCALE
    order = np.arange(n)
    low = points.min(initial=0)
    span = points.max(initial=0) - low + 1  # sort keys: part * span + coordinate - low
    start = np.zeros(min(n, 1), dtype=np.int64)  # first position in ``order`` of each live part
    size = np.full(len(start), n)
    depth = 0
    while len(start):
        parts = np.arange(len(size))
        offset = np.cumsum(size) - size  # each part's first index into ``at``
        at = np.repeat(start - offset, size) + np.arange(size.sum())
        pts = np.take(points, order[at], axis=0)
        lo, hi = np.minimum.reduceat(pts, offset), np.maximum.reduceat(pts, offset)
        first = (lo // step + 1) * step  # lowest plane above lo
        last = (hi - 1) // step * step  # highest plane below hi
        extent = np.where(first <= last, hi - lo, 0)
        axis = extent.argmax(axis=1)
        cut = extent[parts, axis] > 0
        if not cut.any():
            break
        depth += 1
        part = np.repeat(parts, size)
        coord = pts[np.arange(len(at)), axis[part]]
        median = np.sort(part * span + coord - low)[offset + size // 2] - parts * span + low
        plane = np.clip((median + step // 2) // step * step, first[parts, axis], last[parts, axis])
        plane = np.where(cut, plane, hi[parts, axis] + 1)  # a part that stops is all left side
        # within each part: left side, right side, then the separator, each in its old order
        group = 3 * part + np.where(coord < plane[part], 0, np.where(coord > plane[part], 1, 2))
        order[at] = order[at[np.argsort(group, kind="stable")]]
        count = np.bincount(group, minlength=3 * len(parts)).reshape(-1, 3)
        start = np.stack([start, start + count[:, 0]], axis=1)[cut].ravel()
        size = count[cut, :2].ravel()
    return order, depth


class SpdFactor:
    """SuperLU factor of ``A[order][:, order]``; ``solve`` takes and returns the original order.

    ``seconds`` is the time to order and factor; ``nnz`` the entries the
    factor stores.
    """

    def __init__(self, lu, order, seconds):
        self.lu = lu
        self.order = order
        self.seconds = seconds

    @property
    def nnz(self):
        return self.lu.nnz

    def solve(self, rhs):
        """Solution for a right-hand side of shape (n,) or (n, m)."""
        y = self.lu.solve(np.asarray(rhs)[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _factor_spd(a, points):
    """SuperLU factor of an SPD matrix, ordered by nested dissection of its DOFs.

    ``points`` are the integer DOF points of the matrix's rows
    (``GlobalSpace.dof_points`` restricted like the matrix).  Rows and
    columns are permuted by ``_nested_dissection`` of those points, and
    SuperLU keeps that order (``NATURAL``, ``SymmetricMode``) and always
    takes the diagonal pivot (``diag_pivot_thresh=0``): a Cholesky-shaped
    LU whose fill is confined to the separators' blocks.  A matrix that is
    not SPD is not detected here; the callers' residual and curvature
    checks raise SolverFailure for it.
    """
    start = time.perf_counter()
    order, depth = _nested_dissection(points)
    ordered = time.perf_counter() - start
    coo = a.tocoo()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    permuted = sp.csc_matrix((coo.data, (rank[coo.row], rank[coo.col])), shape=a.shape)
    lu = spla.splu(
        permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    seconds = time.perf_counter() - start
    _log.debug(
        "factored SPD matrix n=%d, nnz %d, LU fill %d, dissection depth %d, "
        "ordering %.4f s, in %.3f s",
        a.shape[0], a.nnz, lu.nnz, depth, ordered, seconds,
    )
    return SpdFactor(lu, order, seconds)


def _solve_spd(a0, rhs, solver, tol, points):
    """Solve an SPD restricted system; returns (x, iterations, factor).

    ``points`` are the DOF points of the rows of ``a0``.  The direct solver
    returns its ``SpdFactor``; the iterative solvers return None.
    """
    if solver == "direct":
        lu = _factor_spd(a0, points)
        return lu.solve(rhs), 1, lu
    if solver in ("cg", "cg-diagonal"):
        if solver == "cg":
            try:
                ilu = spla.spilu(a0.tocsc(), drop_tol=1e-5, fill_factor=12)
                pre = spla.LinearOperator(a0.shape, ilu.solve)
            except RuntimeError:
                pre = None
        else:
            d = a0.diagonal()
            pre = spla.LinearOperator(a0.shape, lambda x: x / d)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        x, info = spla.cg(a0, rhs, rtol=tol, atol=0.0, maxiter=20000, M=pre, callback=count)
        if info != 0:
            resid = float(np.linalg.norm(a0 @ x - rhs) / max(np.linalg.norm(rhs), 1e-300))
            raise SolverFailure(
                f"conjugate gradient stalled after {iters} iterations", iters, resid
            )
        return x, iters, None
    raise ConfigError(f"unknown solver {solver!r}")


def solve_quadcurl(problem: QuadCurlProblem):
    """Solve the restricted fourth-order system; returns (coeffs, report row)."""
    t0 = time.perf_counter()
    timings = StageTimings()
    spaces = get_spaces(problem.n, problem.r, problem.k, ["gradcurl"])
    v = spaces["gradcurl"]
    quad_degree = problem.quad_degree or max(
        default_quadrature_degree(problem.r, problem.k, v.basis_degree), 2 * v.basis_degree
    )
    with timings.stage("assemble"):
        a = assemble("gradcurl_stiffness", v, quad_degree)
    with timings.stage("load"):
        f = assemble_load(v, problem.solution.forcing_sample(), quad_degree)
    mask = v.boundary_mask
    a0 = restrict_operator(a, mask, mask)
    f0 = restrict_vector(f, mask)
    with timings.stage("solve"):
        x, iters, lu = _solve_spd(a0, f0, problem.solver, problem.tol, v.dof_points()[~mask])
    rhs_norm = float(np.linalg.norm(f0)) or 1.0
    residual = float(np.linalg.norm(a0 @ x - f0)) / rhs_norm
    if residual > problem.tol * 10:
        raise SolverFailure(
            f"linear solve residual {residual:.3e} above tolerance", iters, residual
        )
    coeffs = extend_vector(x, mask)
    with timings.stage("errors"):
        errs = error_norms(v, coeffs, problem.solution.solution_sample(), quad_degree)
    row = {
        "N": problem.n,
        "dofs": int(v.interior_dim),
        "l2": errs[0],
        "hcurl": errs[1],
        "gradcurl": errs[2],
        "residual": residual,
        "iterations": iters,
        "lu_nnz": lu.nnz if lu else 0,
        "factor_s": lu.seconds if lu else 0.0,
        "timings": dict(timings),
        "seconds": time.perf_counter() - t0,
    }
    return coeffs, row


def _pressure_constant_coeffs(w_space):
    const = FieldSample(value=lambda pts: np.ones(len(pts)))
    return w_space.interpolate(const, QuadratureRule(2))


def solve_stokes(problem: StokesProblem):
    """Stokes flow with the enriched velocity / discontinuous pressure pair.

    Returns (velocity coeffs, pressure coeffs, report) with the divergence
    norm of the discrete velocity in the report.
    """
    t0 = time.perf_counter()
    timings = StageTimings()
    spaces = get_spaces(problem.n, problem.k, problem.k, ["velocity", "pressure"])
    vel, pre = spaces["velocity"], spaces["pressure"]
    quad_degree = problem.quad_degree or max(
        default_quadrature_degree(problem.k, problem.k, vel.basis_degree),
        vel.basis_degree + pre.basis_degree,
    )
    with timings.stage("assemble"):
        a = assemble("h1", vel, quad_degree)
        b = assemble("div_pressure", vel, quad_degree, pressure_space=pre)
        mw = assemble("mass", pre, quad_degree).matrix
    mask = vel.boundary_mask
    a0 = restrict_operator(a, mask, mask) * problem.viscosity
    b0 = b.matrix[:, ~mask]
    with timings.stage("load"):
        f = assemble_load(
            vel, problem.solution.stokes_forcing_sample(problem.viscosity), quad_degree
        )
    f0 = restrict_vector(f, mask)

    with timings.stage("interpolate"):
        q_const = _pressure_constant_coeffs(pre)
    c_vec = mw @ q_const  # functional q -> integral of q over the domain

    with timings.stage("solve"):
        u0, p, iters, lu = _solve_saddle(
            a0, b0, f0, q_const, c_vec, problem.tol, vel.dof_points()[~mask]
        )
    coeffs = extend_vector(u0, mask)

    with timings.stage("errors"):
        div_norm = divergence_norm(vel, coeffs, quad_degree)
        errs = error_norms(vel, coeffs, problem.solution.solution_sample(), quad_degree)
        p_err = _pressure_error(pre, p, problem.solution.pressure_sample(), quad_degree)
    report = {
        "N": problem.n,
        "dofs": int(vel.interior_dim + pre.dim - 1),
        "velocity_l2": errs[0],
        "velocity_h1": errs[3],
        "pressure_l2": p_err,
        "div_norm": div_norm,
        "iterations": iters,
        "lu_nnz": lu.nnz,
        "factor_s": lu.seconds,
        "timings": dict(timings),
        "seconds": time.perf_counter() - t0,
    }
    return coeffs, p, report


def _solve_saddle(a0, b0, f0, q_const, c_vec, tol, points):
    """Velocity and pressure of the saddle-point system A u - B^T p = f, B u = 0.

    Pressures are taken modulo the constant ``q_const`` and projected onto
    ``c_vec . q = 0`` (``c_vec`` maps a pressure to its integral).  One
    factor of the SPD velocity block A, ordered by the velocity DOF
    ``points``, serves the projected Schur-complement CG and the velocity
    back-solve.  Returns (u0, p, CG iterations, SpdFactor).
    """
    lu = _factor_spd(a0, points)
    b0_t = b0.T.tocsr()  # built once: every CG iteration applies it

    def project(q):
        return q - q_const * (c_vec @ q)

    def schur(q):
        return project(b0 @ lu.solve(b0_t @ project(q)))

    rhs = project(-(b0 @ lu.solve(f0)))
    p, iters = _cg_operator(schur, rhs, tol=tol)
    p = project(p)
    u0 = lu.solve(f0 + b0_t @ p)
    return u0, p, iters, lu


def _pressure_error(space, coeffs, exact, quad_degree):
    return float(error_norms(space, coeffs, exact, quad_degree)[0])


def _cg_operator(apply_op, rhs, tol, maxiter=5000):
    """Conjugate gradients for an SPD operator; returns (x, iterations).

    Converged when the recursively updated residual is at most ``tol``
    relative to ``rhs``.  A non-positive curvature d.Ad, or ``maxiter``
    iterations without convergence, raises SolverFailure with the true
    residual.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = float(r @ r)
    rhs_norm = np.sqrt(rs) or 1.0
    it = 0
    while np.sqrt(rs) > tol * rhs_norm:
        if it == maxiter:
            reason = f"no convergence in {maxiter} iterations"
            break
        ad = apply_op(d)
        dad = float(d @ ad)
        if dad <= 0:
            reason = f"non-positive curvature {dad:.3e}"
            break
        alpha = rs / dad
        x += alpha * d
        r -= alpha * ad
        rs_new = float(r @ r)
        d = r + (rs_new / rs) * d
        rs = rs_new
        it += 1
    else:
        return x, it
    residual = float(np.linalg.norm(apply_op(x) - rhs)) / rhs_norm
    raise SolverFailure(
        f"Schur-complement CG: {reason} (residual {residual:.3e} after {it} iterations)",
        it,
        residual,
    )


def inf_sup_constant(n, k):
    """Discrete inf-sup constant of the velocity/pressure pair at level n.

    The square root of the smallest eigenvalue of the pressure Schur
    complement (with the full H1 velocity Gram) generalized against the
    pressure mass matrix, restricted to mean-zero pressures.
    """
    if n > 3:
        raise ConfigError("dense inf-sup eigenproblem is desk-scale: level <= 3")
    spaces = get_spaces(n, k, k, ["velocity", "pressure"])
    vel, pre = spaces["velocity"], spaces["pressure"]
    quad_degree = default_quadrature_degree(k, k, vel.basis_degree)
    a1 = (
        assemble("h1", vel, quad_degree).matrix
        + assemble("mass", vel, quad_degree).matrix
    )
    b = assemble("div_pressure", vel, quad_degree, pressure_space=pre)
    mask = vel.boundary_mask
    a0 = a1[:, ~mask][~mask, :]
    b0 = b.matrix[:, ~mask]
    mw = assemble("mass", pre, quad_degree).matrix.todense()

    lu = _factor_spd(a0, vel.dof_points()[~mask])
    bt = np.asarray(b0.todense()).T
    s = np.asarray(b0.todense()) @ lu.solve(bt)

    q_const = _pressure_constant_coeffs(pre)
    c = np.asarray(mw @ q_const).ravel()
    q, _ = np.linalg.qr(np.column_stack([c / np.linalg.norm(c), np.eye(len(c))]), mode="complete")
    z = q[:, 1:len(c)]
    s_red = z.T @ s @ z
    m_red = z.T @ np.asarray(mw) @ z
    from scipy.linalg import eigh

    vals = eigh(s_red, m_red, eigvals_only=True)
    lam_min = float(vals[0])
    return float(np.sqrt(max(lam_min, 0.0)))


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceReport:
    problem: str
    r: int
    k: int
    rows: list

    COLUMNS = ("N", "l2", "l2_rate", "hcurl", "hcurl_rate", "gradcurl", "gradcurl_rate")

    def compute_rates(self):
        for i, row in enumerate(self.rows):
            for key in ("l2", "hcurl", "gradcurl"):
                if i == 0:
                    row[f"{key}_rate"] = None
                else:
                    prev = self.rows[i - 1]
                    ratio = np.log(prev[key] / row[key]) / np.log(row["N"] / prev["N"])
                    row[f"{key}_rate"] = float(ratio)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for col in self.COLUMNS:
                    v = row.get(col)
                    if v is None:
                        cells.append("")
                    elif col == "N":
                        cells.append(str(v))
                    else:
                        cells.append(f"{v:.6e}")
                fh.write(",".join(cells) + "\n")

    def to_json(self, path=None):
        payload = {
            "problem": self.problem,
            "r": self.r,
            "k": self.k,
            "columns": list(self.COLUMNS),
            "rows": [
                {
                    **{c: row.get(c) for c in self.COLUMNS},
                    "dofs": row.get("dofs"),
                    "timings": row.get("timings"),
                    "seconds": row.get("seconds"),
                }
                for row in self.rows
            ],
        }
        text = json.dumps(payload, indent=2)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return payload

    def rate(self, key, level_pair="last"):
        rates = [row[f"{key}_rate"] for row in self.rows if row.get(f"{key}_rate") is not None]
        if not rates:
            return None
        return rates[-1] if level_pair == "last" else rates


def run_convergence(problem, levels, r, k, tol=1e-10, solver="direct", quad_degree=None):
    """Solve at each level and tabulate errors with consecutive-level rates."""
    if problem != "quadcurl":
        raise ConfigError(f"convergence studies support the quadcurl problem, not {problem!r}")
    rows = []
    for n in levels:
        prob = QuadCurlProblem(n=n, r=r, k=k, tol=tol, solver=solver, quad_degree=quad_degree)
        _, row = solve_quadcurl(prob)
        rows.append(row)
    report = ConvergenceReport(problem, r, k, rows)
    report.compute_rates()
    return report


def interpolation_study(levels, r, k, quad_degree=None):
    """Interpolation errors of the manufactured field per level, with rates."""
    ms = ManufacturedSolution()
    sample = ms.solution_sample()
    rows = []
    for n in levels:
        t0 = time.perf_counter()
        timings = StageTimings()
        spaces = get_spaces(n, r, k, ["gradcurl"])
        v = spaces["gradcurl"]
        qd = quad_degree or default_quadrature_degree(r, k, v.basis_degree)
        with timings.stage("interpolate"):
            coeffs = v.interpolate(sample, QuadratureRule(qd))
        with timings.stage("errors"):
            errs = error_norms(v, coeffs, sample, qd)
        rows.append(
            {
                "N": n,
                "dofs": int(v.dim),
                "l2": errs[0],
                "hcurl": errs[1],
                "gradcurl": errs[2],
                "timings": dict(timings),
                "seconds": time.perf_counter() - t0,
            }
        )
    report = ConvergenceReport("interpolation", r, k, rows)
    report.compute_rates()
    return report
