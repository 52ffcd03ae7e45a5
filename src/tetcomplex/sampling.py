"""Analytic field samples: value/curl/grad-curl/divergence evaluators.

A FieldSample bundles vectorized point evaluators for a smooth field and
the derived quantities interpolation DOFs and error norms need.  An exact
polynomial field (:class:`IntegerFields`) wraps into a sample whose
derivatives are formed exactly on its numerators and rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyalg.poincare import _CYCLIC
from .polyalg.spaces import degree_of_columns, derivatives


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
        derivative is formed on the integer numerators by
        :func:`derivatives`, its coefficients rounded once, and every
        evaluator runs through the monomial table of the class quadrature
        (``elements._monomials``).
        """
        from .elements import _monomials

        nums, den = fields.nums[0, 0], fields.den  # (components, monomials)

        def evaluator(u):
            coef = (u / den).astype(float)
            degree = degree_of_columns(u.shape[-1])
            return lambda pts: _monomials(np.asarray(pts, float), degree) @ coef.T

        if len(nums) == 1:
            return cls(evaluator(nums[0]), gradient=evaluator(derivatives(nums[0], axis=-2)), scalar=True)
        jacobian = derivatives(nums, axis=-2)  # [i, j] = d u_i / d x_j
        curl = np.stack([jacobian[k, j] - jacobian[j, k] for _, j, k in _CYCLIC])
        divergence = jacobian[0, 0] + jacobian[1, 1] + jacobian[2, 2]

        def matrices(u):  # numerators (3, 3, monomials) -> (m, 3, 3) values
            flat = evaluator(u.reshape(9, u.shape[-1]))
            return lambda pts: flat(pts).reshape(-1, 3, 3)

        return cls(
            evaluator(nums), evaluator(curl), matrices(derivatives(curl, axis=-2)), evaluator(divergence),
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
