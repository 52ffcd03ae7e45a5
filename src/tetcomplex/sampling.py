"""Analytic field samples: value/curl/grad-curl/divergence evaluators.

A FieldSample bundles vectorized point evaluators for a smooth field and
the derived quantities interpolation DOFs and error norms need.  An exact
polynomial field (:class:`IntegerFields`) wraps into a sample whose
derivatives are formed exactly on its numerators and rounded once;
consistency of any sample can be spot-checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyalg.poincare import _CYCLIC
from .polyalg.spaces import degree_of_columns, derivative_table


@dataclass
class FieldSample:
    """Evaluable analytic field; ``value`` maps (m,3) points to (m,3) or (m,).

    Every evaluator takes flat (m, 3) points.  An exact polynomial field
    enters as :class:`IntegerFields` through :meth:`from_fields`.  A sample
    may also carry ``modes``: the same fields as per-cell coefficients of a
    few template functions, for the cells of a congruence class, which are
    translates of the class's first cell.  ``modes.count`` is the number of templates and
    ``modes.template(points)`` gives them at the first cell's (m, 3) points
    as a (count, m) array.  ``modes.folded(left, shifts, names)`` gives,
    grouped by x shift, the evaluators ``names``' coefficients at cells
    moved by (cells, 3) shifts times ``left.T``, for a (rows, count)
    ``left``: with ``left`` the template's transpose, the evaluators at
    the moved points.  ``modes.pulled_back(Q)`` gives the modes of the
    fields pulled back by a signed axis permutation Q, for a class whose
    map is Q times another's.  Load and error norms then work from the
    templates and coefficients alone; interpolation, and a sample without
    ``modes``, evaluate point by point.
    """

    value: callable
    curl: callable = None
    grad_curl: callable = None
    div: callable = None
    gradient: callable = None  # for scalar samples
    jacobian: callable = None  # (m, 3, 3), [:, i, j] = d value_i / d x_j
    scalar: bool = False
    modes: object = None  # e.g. problems.TranslationModes

    @classmethod
    def from_fields(cls, fields):
        """The sample of the first of :class:`IntegerFields` fields, whose four pieces agree.

        A scalar field gives ``value`` and ``gradient``; a vector field
        ``value``, ``curl``, ``grad_curl``, ``div`` and ``jacobian``.  Each
        derivative is formed on the integer numerators with
        :func:`derivative_table`, its coefficients rounded once, and every
        evaluator runs through the monomial table of the class quadrature
        (``elements._monomials``).
        """
        from .elements import _monomials

        nums, den = fields.nums[0, 0], fields.den  # (components, monomials)

        def partials(u):
            """The derivatives of numerators (..., monomials), stacked at axis -2: one degree lower."""
            tables = derivative_table(degree_of_columns(u.shape[-1]))
            return np.stack([u @ table.T for table in tables], axis=-2)

        def evaluator(u):
            coef = (u / den).astype(float)
            degree = degree_of_columns(u.shape[-1])
            return lambda pts: _monomials(np.asarray(pts, float), degree) @ coef.T

        if len(nums) == 1:
            return cls(evaluator(nums[0]), gradient=evaluator(partials(nums[0])), scalar=True)
        jacobian = partials(nums)  # [i, j] = d u_i / d x_j
        curl = np.stack([jacobian[k, j] - jacobian[j, k] for _, j, k in _CYCLIC])
        divergence = jacobian[0, 0] + jacobian[1, 1] + jacobian[2, 2]

        def matrices(u):  # numerators (3, 3, monomials) -> (m, 3, 3) values
            flat = evaluator(u.reshape(9, u.shape[-1]))
            return lambda pts: flat(pts).reshape(-1, 3, 3)

        return cls(
            evaluator(nums), evaluator(curl), matrices(partials(curl)), evaluator(divergence),
            jacobian=matrices(jacobian),
        )

    def gradient_sample(self):
        """The gradient of a scalar sample as a (curl-free) vector sample."""
        if not self.scalar or self.gradient is None:
            raise ValueError("a gradient sample needs a scalar sample with a gradient")

        def zero3(pts):
            return np.zeros((len(np.asarray(pts)), 3))

        def zero33(pts):
            return np.zeros((len(np.asarray(pts)), 3, 3))

        return FieldSample(self.gradient, zero3, zero33, None)

    def fd_check(self, pts, step=1e-6, tol=1e-4):
        """Relative agreement of curl/div/Jacobian/grad-curl/gradient with central differences."""
        pts = np.asarray(pts, float)
        report = {}
        eye = np.eye(3)

        def dpart(f, j):
            return (f(pts + step * eye[j]) - f(pts - step * eye[j])) / (2 * step)

        def compare(key, fd, ref):
            report[key] = float(np.abs(fd - ref).max() / max(1.0, np.abs(ref).max()))

        d = [dpart(self.value, j) for j in range(3)]  # d value / d x_j
        if self.curl is not None:
            fd_curl = np.stack(
                [d[1][:, 2] - d[2][:, 1], d[2][:, 0] - d[0][:, 2], d[0][:, 1] - d[1][:, 0]],
                axis=1,
            )
            compare("curl", fd_curl, self.curl(pts))
        if self.div is not None:
            compare("div", d[0][:, 0] + d[1][:, 1] + d[2][:, 2], self.div(pts))
        if self.jacobian is not None:
            compare("jacobian", np.stack(d, axis=2), self.jacobian(pts))
        if self.gradient is not None:
            compare("gradient", np.stack(d, axis=1), self.gradient(pts))
        if self.grad_curl is not None and self.curl is not None:
            compare("grad_curl", np.stack([dpart(self.curl, j) for j in range(3)], axis=2), self.grad_curl(pts))
        report["ok"] = all(v <= tol for k, v in report.items() if k != "ok")
        return report
