"""One-command verification of the structural claims of the discretization.

Every claim is a named check with a mathematical statement, a measured
quantity, and a tolerance (zero for exact rational identities).  Claims
never raise on failure; they report.  The default configuration covers the
five supported (r, k) pairs on desk-scale meshes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

import numpy as np

from .assembly import discrete_d
from .bubbles import interior_bubbles
from .elements import (
    CellGeometry,
    SPACE_KINDS,
    _coefficients,
    dof_matrix,
    local_element,
    local_exactness_table,
    phys_curl,
    physical_face_bubble,
    poly_inclusion_check,
    reference_cell,
    space_dimension,
)
from .mesh import build_structured_cube, random_rational_cell
from .polyalg import (
    PARENT_FACE_VERTICES,
    REF_VERTICES,
    IntegerFields,
    dim_poly,
    flux_potential,
    monomial_exponents,
    pullback_table,
    scalar_potential,
    vector_potential,
)
from .polyalg.poincare import _CYCLIC
from .polyalg.spaces import degree_of_columns, derivatives, integer_matrix
from .quadrature import QuadratureRule
from .problems import ManufacturedSolution, get_spaces, interpolation_study
from .sampling import FieldSample

DEFAULT_CONFIGS = ((1, 1), (2, 1), (3, 1), (2, 2), (3, 3))


@dataclass
class ClaimResult:
    claim: str
    statement: str
    status: bool
    measured: object
    tolerance: object
    config: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {
            "claim": self.claim,
            "statement": self.statement,
            "status": "pass" if self.status else "fail",
            "measured": self.measured,
            "tolerance": self.tolerance,
            "config": self.config,
        }


@dataclass
class VerificationReport:
    results: list

    @property
    def ok(self):
        return all(r.status for r in self.results)

    def as_dict(self):
        return {
            "overall": "pass" if self.ok else "fail",
            "claims": [r.as_dict() for r in sorted(self.results, key=lambda r: r.claim)],
        }

    def to_json(self, path=None):
        text = json.dumps(self.as_dict(), indent=2, default=str)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def table(self):
        lines = []
        width = max(len(r.claim) for r in self.results) if self.results else 10
        for r in sorted(self.results, key=lambda r: r.claim):
            status = "PASS" if r.status else "FAIL"
            cfg = ",".join(f"{k}={v}" for k, v in r.config.items())
            lines.append(f"{status}  {r.claim:<{width}}  measured={r.measured}  tol={r.tolerance}  [{cfg}]")
        lines.append(("OVERALL PASS" if self.ok else "OVERALL FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# claim implementations


def check_dimension_fingerprint():
    dims = tuple(space_dimension(kind, 1, 1) for kind in SPACE_KINDS)
    return [
        ClaimResult(
            "dims-lowest-order",
            "lowest-order local spaces have dimensions (4, 18, 16, 1)",
            dims == (4, 18, 16, 1),
            list(dims),
            "exact",
        )
    ]


# ---------------------------------------------------------------------------
# exact reference-coordinate calculus on integer numerators (..., monomials)


def _grad(nums):
    """The gradients of scalar numerators: (..., 3, monomials of one degree lower)."""
    return derivatives(nums, axis=-2)


def _curl(nums):
    """The curls of vector numerators (..., 3, monomials): one degree lower."""
    d = derivatives(nums, axis=-2)  # [..., component, axis, :]
    return np.stack([d[..., k, j, :] - d[..., j, k, :] for _, j, k in _CYCLIC], axis=-2)


def _div(nums):
    """The divergences of vector numerators (..., 3, monomials): one degree lower."""
    d = derivatives(nums, axis=-2)
    return d[..., 0, 0, :] + d[..., 1, 1, :] + d[..., 2, 2, :]


def _lifted(nums, width):
    """Numerators on the first ``width`` monomials: zero columns appended."""
    pad = np.zeros((*nums.shape[:-1], width - nums.shape[-1]), dtype=object)
    return np.concatenate([nums, pad], axis=-1)


def _is_sum(target, *terms):
    """Whether the ``(numerators, den)`` terms sum exactly to ``target``, another such pair."""
    width = max(nums.shape[-1] for nums, _ in (target, *terms))
    den = lcm(*(d for _, d in (target, *terms)))
    total = sum(_lifted(nums, width) * (den // d) for nums, d in terms)
    return not (total - _lifted(target[0], width) * (den // target[1])).any()


def _vanishes_on_boundary(nums):
    """Whether piecewise numerators (fields, pieces, components, monomials) vanish on the
    boundary: piece ``i`` on parent face ``i``, by the face's integer pull-back table."""
    degree = degree_of_columns(nums.shape[-1])
    return not any(
        (nums[:, i] @ pullback_table(degree, tuple(REF_VERTICES[v] for v in face))[1].T).any()
        for i, face in enumerate(PARENT_FACE_VERTICES)
    )


def check_bubbles():
    """The bubble identities on the integer numerators the elements are built from.

    On the reference cell the physical divergence is the reference one.
    """
    out = []
    worst_trace = True
    worst_div = True
    cell = reference_cell()
    for i in range(4):
        beta, raw, div_value = physical_face_bubble(cell, i)
        dv = _div(beta.nums[0])  # (pieces, monomials) over beta.den
        constant = dv[:, 0].tolist()
        if dv[:, 1:].any() or any(v * div_value.denominator != div_value.numerator * beta.den for v in constant):
            worst_div = False
        width = max(beta.nums.shape[-1], raw.nums.shape[-1])
        if not _vanishes_on_boundary(_lifted(beta.nums, width) * raw.den - _lifted(raw.nums, width) * beta.den):
            worst_trace = False
    out.append(
        ClaimResult(
            "bubble-constant-divergence",
            "all four modified face bubbles have a single rational constant divergence",
            worst_div,
            "exact rational equality" if worst_div else "violated",
            0,
        )
    )
    out.append(
        ClaimResult(
            "bubble-boundary-trace",
            "modified face bubbles match the raw face bubbles on the whole boundary",
            worst_trace,
            "exact rational equality" if worst_trace else "violated",
            0,
        )
    )
    ok_int = True
    for k in (1, 2):
        for ib in interior_bubbles(k):
            bubble, target = ib.numerators, ib.target
            if not _is_sum((target.nums[:, :, 0], target.den), (_div(bubble.nums), bubble.den)):
                ok_int = False
            if not _vanishes_on_boundary(bubble.nums):
                ok_int = False
    out.append(
        ClaimResult(
            "bubble-interior-divergence",
            "interior bubbles vanish on the boundary and realize their two-layer divergence targets",
            ok_int,
            "exact rational equality" if ok_int else "violated",
            0,
        )
    )
    return out


def _random_rational_polynomial(rng, degree):
    """Coefficients on the monomials of degree <= ``degree``: each nonzero with probability 0.7, in {-9..9} / {1..6}."""
    return [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) if rng.random() < 0.7 else 0
        for _ in monomial_exponents(degree)
    ]


def _random_dense_polynomial(rng, degree):
    """Every monomial of degree <= ``degree``, with a coefficient in {-3..3} / {1, 2}."""
    return [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in monomial_exponents(degree)]


def _numerators(rows):
    """Rational coefficient rows as integer numerators (rows, monomials) and their denominator."""
    nums, den = integer_matrix(rows)
    return np.array(nums, dtype=object).reshape(len(rows), -1), den


def _single(rows):
    """Rational coefficient rows, one per component, as one field of :class:`IntegerFields` on every piece."""
    nums, den = _numerators(rows)
    return IntegerFields(np.tile(nums, (1, 4, 1, 1)), den, ["single"])


def check_poincare(count=100, max_degree=5, seed=20240):
    """The Poincare identities of :mod:`polyalg.poincare` on random rational polynomials.

    The operators and derivatives run on integer numerators, the kernels
    the element construction uses, and every identity is an exact integer
    equality.
    """
    rng = np.random.default_rng(seed)
    base = (0, 0, 0)
    null_ok = True
    complex_ok = True
    per_degree = max(1, count // (max_degree + 1))
    for degree in range(max_degree + 1):
        for _ in range(per_degree):
            u, u_den = _numerators([_random_rational_polynomial(rng, degree) for _ in range(3)])
            (q,), q_den = _numerators([_random_rational_polynomial(rng, degree)])
            # one degree up, so that derivatives keep a monomial
            u1 = _lifted(u, dim_poly(degree + 1))
            p1_u, p1_den = scalar_potential(u, u_den, base)
            p2_u, p2_den = vector_potential(u, u_den, base)
            p3_q, p3_den = flux_potential(q, q_den, base)
            if not _is_sum((u, u_den), (_grad(p1_u), p1_den), vector_potential(_curl(u1), u_den, base)):
                null_ok = False
            if not _is_sum((u, u_den), (_curl(p2_u), p2_den), flux_potential(_div(u1), u_den, base)):
                null_ok = False
            if not _is_sum((q, q_den), (_div(p3_q), p3_den)):
                null_ok = False
            if scalar_potential(p2_u, p2_den, base)[0].any():
                complex_ok = False
            if vector_potential(p3_q, p3_den, base)[0].any():
                complex_ok = False
    return [
        ClaimResult(
            "poincare-null-homotopy",
            "d p + p d = id exactly on random polynomials of each degree",
            null_ok,
            "exact rational equality" if null_ok else "violated",
            0,
            {"count": per_degree * (max_degree + 1), "max_degree": max_degree},
        ),
        ClaimResult(
            "poincare-complex-property",
            "p composed with p vanishes exactly on random polynomials",
            complex_ok,
            "exact rational equality" if complex_ok else "violated",
            0,
            {"count": per_degree * (max_degree + 1), "max_degree": max_degree},
        ),
    ]


def check_local_exactness(configs=DEFAULT_CONFIGS):
    out = []
    for (r, k) in configs:
        t = local_exactness_table(r, k)
        out.append(
            ClaimResult(
                "local-complex-exactness",
                "grad/curl/div rank table matches exactness on the reference cell",
                bool(t["exact"]),
                {
                    "rank_grad": t["rank_grad"],
                    "rank_curl": t["rank_curl"],
                    "rank_div": t["rank_div"],
                    "alternating_sum": t["alternating_sum"],
                },
                "exact ranks",
                {"r": r, "k": k},
            )
        )
    return out


def check_unisolvence(configs=DEFAULT_CONFIGS, cells=10, cond_limit=1e8, seed=7):
    out = []
    for (r, k) in configs:
        rng = np.random.default_rng(seed + 13 * r + k)
        worst = 0.0
        ok = True
        for _ in range(cells):
            cell = CellGeometry.standalone(random_rational_cell(rng))
            for kind in SPACE_KINDS:
                try:
                    el = local_element(kind, r, k, cell)
                except ArithmeticError:
                    ok = False
                    continue
                worst = max(worst, el.condition)
        out.append(
            ClaimResult(
                "unisolvence-condition",
                "DOF matrices invertible with bounded condition on random shape-regular cells",
                ok and worst < cond_limit,
                worst,
                cond_limit,
                {"r": r, "k": k, "cells": cells},
            )
        )
    return out


def _numeric_rank(matrix, tol=1e-8):
    m = np.asarray(matrix.todense() if hasattr(matrix, "todense") else matrix)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int((s > tol * max(s[0], 1.0)).sum())


def check_global_exactness(configs=((1, 1), (2, 2)), levels=(1, 2), product_tol=1e-12):
    out = []
    for (r, k) in configs:
        for n in levels:
            spaces = get_spaces(n, r, k, list(SPACE_KINDS))
            lag, gc, vel, pre = (spaces[kind] for kind in SPACE_KINDS)
            dg = discrete_d("grad", lag, gc)
            dc = discrete_d("curl", gc, vel)
            dd = discrete_d("div", vel, pre)
            prod1 = abs(dc.matrix @ dg.matrix).max() if dg.matrix.nnz else 0.0
            prod2 = abs(dd.matrix @ dc.matrix).max() if dc.matrix.nnz else 0.0
            scale = max(abs(dc.matrix).max(), 1.0)
            rg, rc, rd = (_numeric_rank(m.matrix) for m in (dg, dc, dd))
            free_ok = (
                prod1 <= product_tol * scale
                and prod2 <= product_tol * scale
                and rg == lag.dim - 1
                and gc.dim - rc == rg
                and rc == vel.dim - rd
                and rd == pre.dim
                and (-1 + lag.dim - gc.dim + vel.dim - pre.dim) == 0
            )
            out.append(
                ClaimResult(
                    "global-exactness-free",
                    "assembled grad/curl/div satisfy the complex and exactness rank identities",
                    bool(free_ok),
                    {"rank_grad": rg, "rank_curl": rc, "rank_div": rd,
                     "curl_grad": float(prod1), "div_curl": float(prod2)},
                    product_tol,
                    {"r": r, "k": k, "N": n},
                )
            )
            # boundary-restricted complex: kernel-free head, mean-zero tail
            ml, mg, mv = lag.boundary_mask, gc.boundary_mask, vel.boundary_mask
            dg0 = dg.matrix[:, ~ml][~mg, :]
            dc0 = dc.matrix[:, ~mg][~mv, :]
            dd0 = dd.matrix[:, ~mv]
            rg0, rc0, rd0 = (_numeric_rank(m) for m in (dg0, dc0, dd0))
            dims0 = (lag.interior_dim, gc.interior_dim, vel.interior_dim, pre.dim - 1)
            bc_ok = (
                rg0 == dims0[0]
                and dims0[1] - rc0 == rg0
                and rc0 == dims0[2] - rd0
                and rd0 == dims0[3]
                and (dims0[0] - dims0[1] + dims0[2] - dims0[3]) == 0
            )
            out.append(
                ClaimResult(
                    "global-exactness-bc",
                    "the boundary-restricted complex is exact onto mean-zero pressures",
                    bool(bc_ok),
                    {"rank_grad": rg0, "rank_curl": rc0, "rank_div": rd0, "dims": list(dims0)},
                    "exact ranks",
                    {"r": r, "k": k, "N": n},
                )
            )
    return out


def check_commuting(r=1, k=1, n=2, fields=10, tol=1e-10, seed=3, quad_degree=20):
    rng = np.random.default_rng(seed)
    spaces = get_spaces(n, r, k, list(SPACE_KINDS))
    lag, gc, vel, pre = (spaces[kind] for kind in SPACE_KINDS)
    quad = QuadratureRule(quad_degree)
    dg = discrete_d("grad", lag, gc)
    dc = discrete_d("curl", gc, vel)
    dd = discrete_d("div", vel, pre)

    worst = 0.0
    for _ in range(fields):
        ps = FieldSample.from_fields(_single([_random_dense_polynomial(rng, max(r, 2))]))
        us = FieldSample.from_fields(_single([_random_dense_polynomial(rng, max(k + 1, 2)) for _ in range(3)]))
        lhs = dg.matrix @ lag.interpolate(ps, quad)
        rhs = gc.interpolate(ps.gradient_sample(), quad)
        worst = max(worst, float(np.abs(lhs - rhs).max() / max(1, np.abs(rhs).max())))
        lhs = dc.matrix @ gc.interpolate(us, quad)
        rhs = vel.interpolate(FieldSample(value=us.curl), quad)
        worst = max(worst, float(np.abs(lhs - rhs).max() / max(1, np.abs(rhs).max())))
        lhs = dd.matrix @ vel.interpolate(us, quad)
        rhs = pre.interpolate(FieldSample(value=us.div), quad)
        worst = max(worst, float(np.abs(lhs - rhs).max() / max(1, np.abs(rhs).max())))

    ms = ManufacturedSolution()
    us = ms.solution_sample()
    lhs = dc.matrix @ gc.interpolate(us, quad)
    rhs = vel.interpolate(FieldSample(value=ms.curl), quad)
    worst_trig = float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))
    lhs = dd.matrix @ vel.interpolate(us, quad)
    rhs = pre.interpolate(FieldSample(value=ms.divergence), quad)
    worst_trig = max(worst_trig, float(np.abs(lhs - rhs).max()))
    return [
        ClaimResult(
            "commuting-diagram",
            "interpolation intertwines with grad/curl/div on polynomial and trigonometric fields",
            worst < tol and worst_trig < tol,
            {"polynomial": worst, "trigonometric": worst_trig},
            tol,
            {"r": r, "k": k, "N": n, "fields": fields},
        )
    ]


def check_poly_inclusion(configs=DEFAULT_CONFIGS, tol=1e-11):
    out = []
    for (r, k) in configs:
        rep = poly_inclusion_check(r, k, tol=tol)
        out.append(
            ClaimResult(
                "polynomial-inclusion",
                "the grad-curl interpolant reproduces vector polynomials of the guaranteed degree",
                rep["ok"],
                rep["max_rel_error"],
                tol,
                {"r": r, "k": k, "s": rep["s"]},
            )
        )
    return out


def check_dof_mapping(r=1, k=1, seed=11, tol=1e-10):
    """The interpolant reproduces every defining functional on random cells.

    On random rational cells, a random quadratic vector field is
    interpolated into the grad-curl element; each DOF functional applied
    to the interpolant (by :func:`dof_matrix`) must give back the value it
    took on the field.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        verts = random_rational_cell(rng)
        cell = CellGeometry.standalone(verts)
        el = local_element("gradcurl", r, k, cell)
        sample = FieldSample.from_fields(_single([_random_dense_polynomial(rng, 2) for _ in range(3)]))
        quad = QuadratureRule(12)
        coeffs = np.array([d.apply_sample(sample, quad, cell) for d in el.dofs])
        # the interpolant, its float coefficients read as the exact dyadic rationals they hold
        weights = [c.as_integer_ratio() for c in (el.nodal @ coeffs).tolist()]
        den = lcm(*(d for _, d in weights))
        basis = el.numerators["value"]
        combo = np.array([n * (den // d) for n, d in weights], dtype=object) @ basis.nums.reshape(len(basis), -1)
        fields = IntegerFields(combo.reshape(1, *basis.nums.shape[1:]), basis.den * den, ["L2"])
        tensors = (_coefficients(f, fields.degree) for f in (fields, phys_curl(cell, fields)))
        got = dof_matrix(el.dofs, *tensors)[:, 0]
        worst = max(worst, float(np.max(np.abs(got - coeffs) / np.maximum(1.0, np.abs(coeffs)))))
    return [
        ClaimResult(
            "dof-interpolation-consistency",
            "nodal interpolation reproduces every defining functional on random cells",
            worst < tol,
            worst,
            tol,
            {"r": r, "k": k},
        )
    ]


def check_stokes(levels=(2, 3), k=1, div_tol=1e-9):
    from .problems import StokesProblem, inf_sup_constant, solve_stokes

    out = []
    worst_div = 0.0
    vel_errors = []
    for n in levels:
        _, _, rep = solve_stokes(StokesProblem(n=n, k=k))
        worst_div = max(worst_div, rep["div_norm"])
        vel_errors.append(rep["velocity_l2"])
    out.append(
        ClaimResult(
            "stokes-divergence-free",
            "discrete Stokes velocities are divergence-free to solver precision",
            worst_div <= div_tol,
            worst_div,
            div_tol,
            {"levels": list(levels), "k": k},
        )
    )
    out.append(
        ClaimResult(
            "stokes-velocity-decrease",
            "Stokes velocity errors decrease under refinement",
            all(b < a for a, b in zip(vel_errors, vel_errors[1:])),
            vel_errors,
            "monotone",
            {"levels": list(levels), "k": k},
        )
    )
    alphas = [inf_sup_constant(n, k) for n in (1, 2, 3)]
    ratio = max(alphas) / min(alphas) if min(alphas) > 0 else float("inf")
    out.append(
        ClaimResult(
            "stokes-inf-sup-stability",
            "the discrete inf-sup constant is positive and level-stable",
            min(alphas) > 0 and ratio < 2.0,
            {"alphas": alphas, "ratio": ratio},
            "positive, ratio < 2",
            {"levels": [1, 2, 3], "k": k},
        )
    )
    return out


def check_interpolation_rates(configs=((1, 1), (2, 1)), levels=(4, 8), slack=0.3):
    out = []
    for (r, k) in configs:
        rep = interpolation_study(list(levels), r, k)
        expected = {
            "l2": float(r),  # min{s+(r-k-1), r} with s large
            "hcurl": float(k + 1),  # min{s, k+1}
            "gradcurl": float(k),  # min{s-1, k}
        }
        rates = {key: rep.rate(key) for key in expected}
        ok = all(rates[key] is not None and rates[key] >= expected[key] - slack for key in expected)
        out.append(
            ClaimResult(
                "interpolation-rates",
                "manufactured-field interpolation rates reach the guaranteed orders minus slack",
                ok,
                {k2: (None if v is None else round(v, 4)) for k2, v in rates.items()},
                {k2: v - slack for k2, v in expected.items()},
                {"r": r, "k": k, "levels": list(levels)},
            )
        )
    return out


def check_dimension_formulas(levels=(1, 2, 3), configs=((1, 1), (2, 2), (3, 3))):
    out = []
    ok = True
    details = []
    for n in levels:
        mesh = build_structured_cube(n)
        v, e, f, c = mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells
        for (r, k) in configs:
            dims = {}
            for kind in SPACE_KINDS:
                from .elements import entity_dof_counts

                cnt = entity_dof_counts(kind, r, k)
                dims[kind] = v * cnt["vertex"] + e * cnt["edge"] + f * cnt["face"] + c * cnt["cell"]
            lag_formula = (
                v
                + (r - 1) * e
                + (r - 2) * (r - 1) // 2 * f
                + (r - 3) * (r - 2) * (r - 1) // 6 * c
            )
            pre_formula = k * (k + 1) * (k + 2) // 6 * c
            alt = -1 + dims["lagrange"] - dims["gradcurl"] + dims["velocity"] - dims["pressure"]
            good = dims["lagrange"] == lag_formula and dims["pressure"] == pre_formula and alt == 0
            ok = ok and good
            details.append({"N": n, "r": r, "k": k, "alternating": alt})
    out.append(
        ClaimResult(
            "dimension-formulas",
            "global dimensions match the entity-count formulas and alternate to zero",
            ok,
            details[-3:],
            "exact",
        )
    )
    return out


def verify_all(groups=None, configs=None, levels=None):
    """Run claim groups (default: all) and assemble a report.

    ``configs``, a sequence of (r, k) pairs, narrows every check that runs
    per configuration (the exactness, unisolvence and inclusion groups);
    None runs each at its own default configurations.  The commuting,
    stokes and rates claims hold for fixed configurations.
    """
    per_config = {} if configs is None else {"configs": configs}
    results = []
    selected = groups or ["dims", "poincare", "bubbles", "exactness", "unisolvence",
                          "commuting", "inclusion", "stokes", "rates"]
    if "dims" in selected:
        results += check_dimension_fingerprint()
    if "poincare" in selected:
        results += check_poincare()
    if "bubbles" in selected:
        results += check_bubbles()
    if "exactness" in selected:
        results += check_local_exactness(**per_config)
        results += check_global_exactness(levels=levels or (1, 2), **per_config)
        results += check_dimension_formulas(levels=levels or (1, 2, 3), **per_config)
    if "unisolvence" in selected:
        results += check_unisolvence(**per_config)
    if "commuting" in selected:
        results += check_commuting(n=(levels or (2,))[-1])
        results += check_dof_mapping()
    if "inclusion" in selected:
        results += check_poly_inclusion(**per_config)
    if "stokes" in selected:
        results += check_stokes()
    if "rates" in selected:
        results += check_interpolation_rates()
    return VerificationReport(results)
