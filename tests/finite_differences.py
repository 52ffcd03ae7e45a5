"""Central finite differences of sampled fields: consistency checks of analytic derivatives."""

import numpy as np

_EYE = np.eye(3)


def partials(f, pts, step):
    """``d f / d x_j`` at (m, 3) points by central differences, for j = 0, 1, 2."""
    return [(f(pts + step * _EYE[j]) - f(pts - step * _EYE[j])) / (2 * step) for j in range(3)]


def curl_of(d):
    """The curl from the partials ``d[j] = d u / d x_j`` of a vector field."""
    return np.stack([d[1][:, 2] - d[2][:, 1], d[2][:, 0] - d[0][:, 2], d[0][:, 1] - d[1][:, 0]], axis=1)


def richardson_curl(f, pts, h):
    """The curl of ``f`` from central differences at steps ``h`` and ``h / 2``, Richardson-extrapolated."""
    c1, c2 = (curl_of(partials(f, pts, step)) for step in (h, h / 2))
    return (4 * c2 - c1) / 3


def fd_check(sample, pts, step=1e-6, tol=1e-4):
    """Relative agreement of a sample's curl, divergence, Jacobian, grad-curl and gradient with
    central differences of its value (and of its curl for grad-curl): a report by name and ``"ok"``."""
    pts = np.asarray(pts, float)
    report = {}

    def compare(key, fd, ref):
        report[key] = float(np.abs(fd - ref).max() / max(1.0, np.abs(ref).max()))

    d = partials(sample.value, pts, step)
    if sample.curl is not None:
        compare("curl", curl_of(d), sample.curl(pts))
    if sample.div is not None:
        compare("div", d[0][:, 0] + d[1][:, 1] + d[2][:, 2], sample.div(pts))
    if sample.jacobian is not None:
        compare("jacobian", np.stack(d, axis=2), sample.jacobian(pts))
    if sample.gradient is not None:
        compare("gradient", np.stack(d, axis=1), sample.gradient(pts))
    if sample.grad_curl is not None and sample.curl is not None:
        compare("grad_curl", np.stack(partials(sample.curl, pts, step), axis=2), sample.grad_curl(pts))
    report["ok"] = all(v <= tol for v in report.values())
    return report
