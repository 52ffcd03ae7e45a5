"""Model problems: the fourth-order curl problem, Stokes flow, convergence studies.

The manufactured velocity and pressure are sums of products of one cubic
mode s^(3-a) c^a per axis (s = sin(pi x), c = cos(pi x)).  A derivative
maps these four modes onto one another (``DERIVATIVE``), and so does a
translation x -> x + a (``shift_matrices``, by angle addition).  So every
field the problems need, up to the fourth-order forcing, is one tensor of
64 mode coefficients per component (``TranslationModes``), built once by
applying ``DERIVATIVE`` along the tensor's axes; no symbolic engine and
no quadrature enter the forcing.

On the cells of one congruence class, which are translates of the first,
a field is a per-cell vector of 64 coefficients times 64 template modes
taken at the first cell's points: the packaged samples carry that
representation, and load and error norms need no evaluation per point and
cell.  Interpolation evaluates at its few stencil points per cell, which
costs less than moving the mode coefficients there; a point value sums
the tensor's nonzero modes.
"""

from __future__ import annotations

import json
import logging
import resource
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
# cubic trigonometric modes per axis

# d/dx s^(3-a) c^a = pi ((3-a) s^(2-a) c^(a+1) - a s^(4-a) c^(a-1)): column a
# holds its coefficients on the four modes.
DERIVATIVE = np.pi * np.array([
    [0.0, -1.0, 0.0, 0.0],
    [3.0, 0.0, -2.0, 0.0],
    [0.0, 2.0, 0.0, -3.0],
    [0.0, 0.0, 1.0, 0.0],
])


def _partial(t, axis, order=1):
    """d^order / dx_axis^order of a (4, 4, 4, *components) mode tensor."""
    d = np.linalg.matrix_power(DERIVATIVE, order)
    return np.moveaxis(np.tensordot(d, t, axes=(1, axis)), 0, axis)


def shift_matrices(shifts):
    """(n, 4, 4) matrices M such that f(x + a) has cubic coefficients M(a) @ v
    when f(x) has v.

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


# fields that transform as curls, by det Q under an axis map Q
_PSEUDO = frozenset({"curl", "grad_curl", "lap_curl"})


class TranslationModes:
    """Fields on the products of cubic modes per axis, at translated points.

    ``tensors`` maps a name to coefficients of shape (64, *components):
    row 16 a + 4 b + c multiplies the mode s1^(3-a) c1^a s2^(3-b) c2^b
    s3^(3-c) c3^c (s_i = sin(pi x_i), c_i = cos(pi x_i)).  At points p + t,
    a field is the tensor moved by t, one ``shift_matrices`` factor per
    axis, times ``template(p)``, the modes at p; ``folded`` forms those
    products with the template's factors.  At any points, ``evaluate``
    gives the field directly.
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

    def evaluate(self, name, points):
        """Field ``name`` at flat (m, 3) points, shape (m, *components).

        Only the tensor's nonzero rows enter, each as a product of one
        cubic mode per axis.
        """
        t = self.tensors[name]
        rows = np.flatnonzero(t.reshape(self.count, -1).any(axis=1))
        x = np.pi * np.asarray(points, float).T
        s, c = np.sin(x), np.cos(x)
        ss, cc = s * s, c * c
        per_axis = np.stack([ss * s, ss * c, s * cc, cc * c], axis=1)  # (axis, mode, m)
        ax, ay, az = np.unravel_index(rows, (4, 4, 4))
        products = per_axis[0, ax] * per_axis[1, ay]
        products *= per_axis[2, az]
        return np.tensordot(products, t[rows], axes=(0, 0))

    def folded(self, left, shifts, names):
        """Coefficients of ``names`` moved by (cells, 3) shifts times ``left.T``, the x shift folded into ``left``.

        With M the shift matrices, the moved coefficients of a component
        are (M_x (x) M_y (x) M_z) t, so their product with ``left`` (rows,
        64) is A_x (I_4 (x) M_y (x) M_z) t with A_x = left (M_x (x) I_16).
        A_x is formed once per distinct x shift and the vector in brackets
        once per distinct (y, z) pair.  Yields, per distinct x shift, the
        indices of its cells in ``shifts`` and the products of each name
        for them, one matrix product each, as (cells x components, rows):
        each cell's components in turn, flattened.  A group at a time keeps
        the products small enough to stay in cache while they are used.
        """
        values, at = np.unique(shifts, return_inverse=True)  # one matrix per distinct coordinate
        matrices, at = shift_matrices(values), at.reshape(shifts.shape)
        xs, x_of = np.unique(at[:, 0], return_inverse=True)
        pairs, pair_of = np.unique(at[:, 1] * len(values) + at[:, 2], return_inverse=True)
        rows = len(left)
        # A_x^T: sum_a M_x[a, a'] left^T[(a, yz), r] in row (a', yz)
        folded = (matrices[xs].transpose(0, 2, 1) @ left.T.reshape(4, -1)).reshape(len(xs), 64, rows)
        my, mz = matrices[pairs // len(values)], matrices[pairs % len(values)]
        stages = []
        for name in names:
            t = self.tensors[name].reshape(4, 4, 4, -1)
            moved = mz[:, None, None] @ t  # (pairs, x, y, z mode, components)
            moved = my[:, None] @ moved.reshape(len(pairs), 4, 4, -1)
            stages.append(moved.reshape(len(pairs), 64, -1).transpose(0, 2, 1))  # (pairs, components, 64)
        order = np.argsort(x_of, kind="stable")
        bounds = np.searchsorted(x_of[order], np.arange(len(xs) + 1))
        for right, lo, hi in zip(folded, bounds[:-1], bounds[1:]):
            cells = order[lo:hi]
            yield cells, [(stage[pair_of[cells]] @ right).reshape(-1, rows) for stage in stages]

    def pulled_back(self, rotation):
        """The fields pulled back by a signed axis permutation Q (a 3x3 matrix), as new modes.

        Field f becomes Q^T f(Q p): its modes are gathered along the
        permuted axes, a flipped axis signing mode a by (-1)^(3 - a), as
        sin is odd and cos even.  Components transform as the tables
        compared with them: a vector by Q^T, a 3x3 tensor as Q^T J Q, the
        curls (``_PSEUDO``) times det Q; a scalar keeps its value.
        """
        perm = np.abs(rotation).argmax(axis=1)  # (Q p)[i] = signs[i] p[perm[i]]
        signs = rotation[np.arange(3), perm]
        source = np.argsort(perm)  # the axis of f that becomes axis l of the pull-back
        flips = signs[source][:, None] ** (3 - np.arange(4))  # (axis, mode)
        parity = np.einsum("a,b,c->abc", *flips).ravel()
        det = round(np.linalg.det(rotation))
        tensors = {}
        for name, t in self.tensors.items():
            moved = np.transpose(t.reshape((4, 4, 4) + t.shape[1:]), (*source, *range(3, t.ndim + 2)))
            moved = moved.reshape(t.shape) * parity.reshape((64,) + (1,) * (t.ndim - 1))
            for axis in range(1, t.ndim):
                moved = np.moveaxis(np.tensordot(moved, rotation, axes=(axis, 0)), -1, axis)
            tensors[name] = moved * (det if name in _PSEUDO else 1)
        return TranslationModes(tensors)


class ManufacturedSolution:
    """Trigonometric divergence-free field with vanishing boundary traces.

    Components (s_i = sin(pi x_i), c_i = cos(pi x_i)):

        u1 =    s1^3 (s2^2 c2) (s3^2 c3)
        u2 =    (s1^2 c1) s2^3 (s3^2 c3)
        u3 = -2 (s1^2 c1) (s2^2 c2) s3^3

    and the Stokes pressure p = c1 c2 c3, whose factors are the cubic forms
    c = s^2 c + c^3.  ``modes`` holds every field below as a
    ``TranslationModes`` tensor, built from those of u and p by
    ``DERIVATIVE``: among them the forcing of the fourth-order problem,
    -curl(lap(curl u)) + u, which is lap(lap(u)) + u as div u = 0.  Each
    evaluator takes flat (m, 3) points and evaluates its tensor there; the
    packaged samples carry the tensors they need as their ``modes``.
    """

    def __init__(self):
        s3, s2c, _, c3 = np.eye(4)

        def outer(f, g, h):
            return np.einsum("a,b,c->abc", f, g, h)

        def lap(t):
            return sum(_partial(t, d, 2) for d in range(3))

        u = np.stack([outer(s3, s2c, s2c), outer(s2c, s3, s2c), -2 * outer(s2c, s2c, s3)], axis=-1)
        p = outer(s2c + c3, s2c + c3, s2c + c3)
        jacobian = np.stack([_partial(u, j) for j in range(3)], axis=-1)  # [..., i, j] = d u_i / d x_j
        curl = np.stack([
            jacobian[..., 2, 1] - jacobian[..., 1, 2],
            jacobian[..., 0, 2] - jacobian[..., 2, 0],
            jacobian[..., 1, 0] - jacobian[..., 0, 1],
        ], axis=-1)
        laplacian = lap(u)
        fields = {
            "value": u,
            "jacobian": jacobian,
            "divergence": np.trace(jacobian, axis1=-2, axis2=-1),
            "curl": curl,
            "grad_curl": np.stack([_partial(curl, d) for d in range(3)], axis=-1),
            "lap_curl": lap(curl),
            "laplacian": laplacian,
            "forcing": lap(laplacian) + u,
            "pressure": p,
            "pressure_gradient": np.stack([_partial(p, j) for j in range(3)], axis=-1),
        }
        self.modes = TranslationModes(
            {name: t.reshape((TranslationModes.count,) + t.shape[3:]) for name, t in fields.items()}
        )

    # -- point evaluators, at flat (m, 3) points -------------------------------

    def value(self, pts):
        return self.modes.evaluate("value", pts)

    def divergence(self, pts):
        return self.modes.evaluate("divergence", pts)

    def jacobian(self, pts):
        """(m, 3, 3) array with entry [:, i, j] = d u_i / d x_j."""
        return self.modes.evaluate("jacobian", pts)

    def curl(self, pts):
        return self.modes.evaluate("curl", pts)

    def grad_curl(self, pts):
        return self.modes.evaluate("grad_curl", pts)

    def lap_curl(self, pts):
        return self.modes.evaluate("lap_curl", pts)

    def forcing(self, pts):
        """-curl(lap(curl u)) + u, which is lap(lap(u)) + u because div u = 0."""
        return self.modes.evaluate("forcing", pts)

    def laplacian(self, pts):
        return self.modes.evaluate("laplacian", pts)

    def pressure(self, pts):
        return self.modes.evaluate("pressure", pts)

    def pressure_gradient(self, pts):
        return self.modes.evaluate("pressure_gradient", pts)

    def stokes_forcing(self, pts, viscosity=1.0):
        return (
            -viscosity * self.modes.evaluate("laplacian", pts)
            + self.modes.evaluate("pressure_gradient", pts)
        )

    # -- packaged samples ---------------------------------------------------

    def solution_sample(self):
        t = self.modes.tensors
        return FieldSample(
            self.value, self.curl, self.grad_curl, self.divergence, jacobian=self.jacobian,
            modes=TranslationModes({
                "value": t["value"], "curl": t["curl"], "grad_curl": t["grad_curl"],
                "div": t["divergence"], "jacobian": t["jacobian"],
            }),
        )

    def forcing_sample(self):
        return FieldSample(self.forcing, modes=TranslationModes({"value": self.modes.tensors["forcing"]}))

    def stokes_forcing_sample(self, viscosity=1.0):
        def forcing(pts):
            return self.stokes_forcing(pts, viscosity)

        t = self.modes.tensors
        return FieldSample(
            forcing,
            modes=TranslationModes({"value": -viscosity * t["laplacian"] + t["pressure_gradient"]}),
        )

    def pressure_sample(self):
        t = self.modes.tensors
        return FieldSample(
            self.pressure, gradient=self.pressure_gradient, scalar=True,
            modes=TranslationModes({"value": t["pressure"], "gradient": t["pressure_gradient"]}),
        )


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
    solution: ManufacturedSolution = dc_field(default_factory=ManufacturedSolution)


@dataclass
class StokesProblem:
    n: int
    k: int
    viscosity: float = 1.0
    tol: float = 1e-12
    quad_degree: int = None
    solution: ManufacturedSolution = dc_field(default_factory=ManufacturedSolution)


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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


# the number of most recently used (n, r, k) entries that ``get_spaces`` keeps;
# after a quadcurl solve, the grad-curl class tables of a (3,3) level at
# quadrature degree 14 hold 12.3 MB and those of a (1,1) level at degree 8 hold
# 2.3 MB, the same at every N (one per congruence class, six on a structured cube)
SPACE_CACHE_SIZE = 4
_cache_log = logging.getLogger("tetcomplex.problems.spaces")


class SpaceCache(dict):
    """Meshes and global spaces by ``(n, r, k)``, the most recently used last.

    Each value maps ``"mesh"`` to the level's mesh and a space kind to its
    ``GlobalSpace``.  ``hits``, ``misses`` and ``evictions`` count what
    :func:`get_spaces` did.
    """

    def __init__(self):
        super().__init__()
        self.hits = self.misses = self.evictions = 0


_space_cache = SpaceCache()


def get_spaces(n, r, k, kinds):
    """Mesh plus global spaces, cached per (n, r, k); one mesh per level n.

    The cache keeps the ``SPACE_CACHE_SIZE`` most recently used entries.
    """
    cache = _space_cache
    key = (n, r, k)
    entry = cache.pop(key, None)
    if entry is None:
        cache.misses += 1
        mesh = next((e["mesh"] for (m, _, _), e in cache.items() if m == n), None)
        if mesh is None:
            mesh = build_structured_cube(n)
        entry = {"mesh": mesh}
    else:
        cache.hits += 1
    cache[key] = entry
    while len(cache) > SPACE_CACHE_SIZE:
        del cache[next(iter(cache))]
        cache.evictions += 1
    for kind in kinds:
        if kind not in entry:
            entry[kind] = GlobalSpace(entry["mesh"], kind, r, k)
    _cache_log.debug(
        "spaces N=%d (r,k)=(%d,%d): %d of %d entries, %d hits, %d misses, %d evictions",
        n, r, k, len(cache), SPACE_CACHE_SIZE, cache.hits, cache.misses, cache.evictions,
    )
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

    Every SPD system here is solved through one: the grad-curl stiffness,
    the Stokes velocity block and the inf-sup eigenproblem.  ``seconds``
    is the time to order and factor; ``nnz`` the entries the factor stores.
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


# Entries whose column labels ``_dissection_csc`` relabels at a time.
_RELABEL_CHUNK = 1 << 20


def _dissection_csc(a, points):
    """The CSC matrix that ``_factor_spd`` factors: ``a`` ordered by nested dissection of ``points``.

    Returns (P A P^T as CSC, the order, the dissection depth), row and
    column r of the result being row and column ``order[r]`` of A.  One
    gather of A's CSR rows in that order (``csr[order]``), a relabel of
    their columns by rank, a chunk at a time, and a sort within each row,
    in place, give the CSR of P A P^T with sorted rows, whose arrays are
    the CSC of its transpose: that of P A P^T itself, as every matrix
    factored here is symmetric.  No triplets are formed and no duplicates
    summed.
    """
    order, depth = _nested_dissection(points)
    rows = a.tocsr()[order]
    indices = rows.indices
    rank = np.empty(len(order), dtype=indices.dtype)
    rank[order] = np.arange(len(order))
    for lo in range(0, len(indices), _RELABEL_CHUNK):
        indices[lo:lo + _RELABEL_CHUNK] = rank[indices[lo:lo + _RELABEL_CHUNK]]
    permuted = sp.csc_matrix((rows.data, indices, rows.indptr), shape=a.shape)
    permuted.sort_indices()
    return permuted, order, depth


def _factor_spd(a, points):
    """SuperLU factor of an SPD matrix, ordered by nested dissection of its DOFs.

    ``points`` are the integer DOF points of the matrix's rows
    (``GlobalSpace.dof_points`` restricted like the matrix).  Rows and
    columns are permuted by ``_nested_dissection`` of those points
    (``_dissection_csc``), and SuperLU keeps that order (``NATURAL``,
    ``SymmetricMode``) and always takes the diagonal pivot
    (``diag_pivot_thresh=0``): a Cholesky-shaped LU whose fill is confined
    to the separators' blocks.  A matrix that is not SPD is not detected
    here; the callers' residual and curvature checks raise SolverFailure
    for it.
    """
    start = time.perf_counter()
    permuted, order, depth = _dissection_csc(a, points)
    ordered = time.perf_counter() - start
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


def solve_quadcurl(problem: QuadCurlProblem):
    """Solve the restricted fourth-order system; returns (coeffs, report row).

    The system is solved by one ``_factor_spd`` factor, so the row's
    ``iterations`` is 1; ``lu_nnz`` and ``factor_s`` are the factor's fill
    and its ordering plus factoring time.
    """
    t0 = time.perf_counter()
    timings = StageTimings()
    spaces = get_spaces(problem.n, problem.r, problem.k, ["gradcurl"])
    v = spaces["gradcurl"]
    quad_degree = problem.quad_degree or default_quadrature_degree(problem.r, problem.k, v.basis_degree)
    with timings.stage("assemble"):
        a = assemble("gradcurl_stiffness", v, quad_degree)
    mask = v.boundary_mask
    a0 = restrict_operator(a, mask, mask)
    del a  # the restriction alone is factored and checked
    with timings.stage("load"):
        f = assemble_load(v, problem.solution.forcing_sample(), quad_degree)
    f0 = restrict_vector(f, mask)
    with timings.stage("solve"):
        lu = _factor_spd(a0, v.dof_points()[~mask])
        x = lu.solve(f0)
    rhs_norm = float(np.linalg.norm(f0)) or 1.0
    residual = float(np.linalg.norm(a0 @ x - f0)) / rhs_norm
    if residual > problem.tol * 10:
        raise SolverFailure(f"linear solve residual {residual:.3e} above tolerance", 1, residual)
    coeffs = extend_vector(x, mask)
    lu_nnz, factor_s = lu.nnz, lu.seconds
    del lu  # so that the error norms' transients do not stack on the factor
    with timings.stage("errors"):
        errs = error_norms(v, coeffs, problem.solution.solution_sample(), quad_degree)
    row = {
        "N": problem.n,
        "dofs": int(v.interior_dim),
        "l2": errs[0],
        "hcurl": errs[1],
        "gradcurl": errs[2],
        "residual": residual,
        "iterations": 1,
        "lu_nnz": lu_nnz,
        "factor_s": factor_s,
        "timings": dict(timings),
        "seconds": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
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
    quad_degree = problem.quad_degree or default_quadrature_degree(problem.k, problem.k, vel.basis_degree)
    with timings.stage("assemble"):
        a = assemble("h1", vel, quad_degree)
        b = assemble("div_pressure", vel, quad_degree, pressure_space=pre)
        mw = assemble("mass", pre, quad_degree)
    mask = vel.boundary_mask
    a0 = restrict_operator(a, mask, mask)
    a0.data *= problem.viscosity  # in place: the restriction is a copy, and no unscaled one stays
    b0 = b.matrix[:, ~mask]
    del a, b  # the saddle-point solve needs the restrictions alone
    with timings.stage("load"):
        f = assemble_load(
            vel, problem.solution.stokes_forcing_sample(problem.viscosity), quad_degree
        )
    f0 = restrict_vector(f, mask)

    with timings.stage("interpolate"):
        q_const = _pressure_constant_coeffs(pre)
    c_vec = mw.matrix @ q_const  # functional q -> integral of q over the domain
    del mw

    with timings.stage("solve"):
        u0, p, iters, lu = _solve_saddle(
            a0, b0, f0, q_const, c_vec, problem.tol, vel.dof_points()[~mask]
        )
    coeffs = extend_vector(u0, mask)
    lu_nnz, factor_s = lu.nnz, lu.seconds
    del lu  # released before the error norms, as in solve_quadcurl

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
        "lu_nnz": lu_nnz,
        "factor_s": factor_s,
        "timings": dict(timings),
        "seconds": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
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
                    "peak_rss_mb": row.get("peak_rss_mb"),
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


def _check_levels(levels):
    """A study's levels must differ: a repeated level gives a 0/0 rate."""
    repeated = sorted({n for n in levels if levels.count(n) > 1})
    if repeated:
        raise ConfigError(f"mesh levels repeat: {', '.join(map(str, repeated))}")


def run_convergence(problem, levels, r, k, tol=1e-10, quad_degree=None):
    """Solve at each level and tabulate errors with consecutive-level rates."""
    if problem != "quadcurl":
        raise ConfigError(f"convergence studies support the quadcurl problem, not {problem!r}")
    _check_levels(levels)
    rows = []
    for n in levels:
        prob = QuadCurlProblem(n=n, r=r, k=k, tol=tol, quad_degree=quad_degree)
        _, row = solve_quadcurl(prob)
        rows.append(row)
    report = ConvergenceReport(problem, r, k, rows)
    report.compute_rates()
    return report


def interpolation_study(levels, r, k, quad_degree=None):
    """Interpolation errors of the manufactured field per level, with rates."""
    _check_levels(levels)
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
                "peak_rss_mb": _peak_rss_mb(),
            }
        )
    report = ConvergenceReport("interpolation", r, k, rows)
    report.compute_rates()
    return report
