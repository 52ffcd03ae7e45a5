"""Simplex quadrature: Gauss-Legendre on segments, collapsed tensor Gauss on simplices.

Rules are returned in reference coordinates of the unit simplex (segment
[0,1], triangle {xi,eta>=0, xi+eta<=1}, tetrahedron likewise) with weights
summing to the simplex volume (1, 1/2, 1/6).  An Alfeld-aware composite
variant maps a tet rule into each subtetrahedron of the reference split.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .polyalg.split import SUBTET_VERTICES


@lru_cache(maxsize=None)
def gauss_segment(degree):
    """Gauss-Legendre on [0, 1], exact to the requested degree."""
    npts = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    return ((x + 1.0) / 2.0).reshape(-1, 1), w / 2.0


@lru_cache(maxsize=None)
def collapsed_gauss(dim, degree):
    """Tensor Gauss rule under the collapsed (Duffy) map.

    All weights are positive, which keeps the rule well conditioned on the
    non-polynomial integrands of the trigonometric moment and error
    integrals.
    """
    n = degree // 2 + 2  # the Jacobian raises the per-direction degree
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    if dim == 2:
        xi, eta = np.meshgrid(x, x, indexing="ij")
        wx, wy = np.meshgrid(w, w, indexing="ij")
        pts = np.column_stack([xi.ravel(), (eta * (1 - xi)).ravel()])
        wts = (wx * wy * (1 - xi)).ravel()
        return pts, wts
    if dim == 3:
        xi, eta, zeta = np.meshgrid(x, x, x, indexing="ij")
        wx, wy, wz = np.meshgrid(w, w, w, indexing="ij")
        px = xi
        py = eta * (1 - xi)
        pz = zeta * (1 - xi) * (1 - eta)
        jac = (1 - xi) ** 2 * (1 - eta)
        pts = np.column_stack([px.ravel(), py.ravel(), pz.ravel()])
        wts = (wx * wy * wz * jac).ravel()
        return pts, wts
    raise ValueError(f"unsupported dimension {dim}")


def rule(dim, degree):
    if dim == 1:
        return gauss_segment(degree)
    return collapsed_gauss(dim, degree)


@lru_cache(maxsize=None)
def alfeld_composite(degree):
    """Tet rule mapped into the 4 subtets of the reference Alfeld split.

    Exactly integrates piecewise polynomials of the given degree on the
    split (each subtet sees an affine image of the base rule).
    """
    base_pts, base_wts = rule(3, degree)
    pts = []
    wts = []
    for i in range(4):
        verts = np.array([[float(c) for c in v] for v in SUBTET_VERTICES[i]])
        a = verts[1:] - verts[0]
        mapped = verts[0] + base_pts @ a
        pts.append(mapped)
        wts.append(base_wts * abs(np.linalg.det(a.T)))
    return np.vstack(pts), np.concatenate(wts)


class QuadratureRule:
    """Named rule bundle with a declared degree of exactness."""

    def __init__(self, degree):
        self.degree = degree
        self.tet = rule(3, degree)
        self.triangle = rule(2, degree)
        self.segment = rule(1, degree)

    def __repr__(self):
        return f"QuadratureRule(degree={self.degree})"
