"""Small-problem least squares: origin slopes and projected Gauss-Newton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitReport",
    "IdentifiabilityError",
    "slope_through_origin",
    "gauss_newton",
]


class IdentifiabilityError(ValueError):
    """Raised when the data cannot determine the requested parameters."""


@dataclass(frozen=True)
class FitReport:
    """Fit outcome: parameter map plus residual diagnostics."""

    parameters: dict
    residual_rms: float
    n_obs: int
    converged: bool
    iterations: int
    notes: tuple = ()


def _group_slopes(group, x, y):
    # slope of y on x through the origin, and its std error, for each group
    # 0..k-1 of at least 2 points, from bincount sums; the variance sums the
    # residuals themselves, as sum(y*y) - slope*sum(x*y) cancels
    n = np.bincount(group)
    sxx = np.bincount(group, weights=x * x)
    if np.any(sxx <= 0.0):
        raise IdentifiabilityError("regressor is identically zero")
    slope = np.bincount(group, weights=x * y) / sxx
    resid = y - slope[group] * x
    var = np.bincount(group, weights=resid * resid) / (n - 1)
    return slope, np.sqrt(var / sxx)


def slope_through_origin(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x with zero intercept, and its std error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need matching 1-d arrays with at least 2 points")
    slope, stderr = _group_slopes(np.zeros(len(x), dtype=np.intp), x, y)
    return float(slope[0]), float(stderr[0])


def _numeric_jacobian(residual, x, n_obs, columns=False, lo=-np.inf, hi=np.inf):
    # central differences of the n_obs residuals with a unit floor on the relative
    # step, inside [lo, hi]: a pair that would leave the box shifts in by its overshoot
    # and spans a narrower one (a point box: a zero column).  The 2k probes are the
    # columns of one (k, 2k) array; with columns, one residual call scores them all
    k, h = len(x), PROBE_STEP * np.maximum(np.abs(x), 1.0)
    probes = np.repeat(x[:, None], 2 * k, axis=1)
    np.fill_diagonal(probes[:, :k], np.minimum(np.maximum(x + h, lo + 2.0 * h), hi))
    np.fill_diagonal(probes[:, k:], np.maximum(np.minimum(x - h, hi - 2.0 * h), lo))
    r = residual(probes[..., None]) if columns else [residual(p) for p in probes.T]
    r = np.asarray(r, dtype=float).reshape(2 * k, n_obs)
    return (r[:k] - r[k:]).T / (2.0 * h)


MAX_ITER = 500
STEP_TOL = 1e-10
SSE_TOL = 1e-12
PROBE_STEP = 1e-6  # relative central-difference step of the numeric Jacobian


def gauss_newton(residual, x0, bounds, names=None, columns=False):
    """Minimize sum(residual(x)**2) inside box bounds by projected Gauss-Newton.

    residual maps a parameter vector to a residual vector.  It is evaluated
    inside the box only: x0 is clipped to it, and so is every Jacobian probe.
    Each iteration holds every coordinate that sits on a bound its gradient
    J'r pushes against (x = lo with J'r > 0, or x = hi with J'r < 0), solves
    for the step on the free coordinates only, halves it until the SSE does
    not increase, and clips it to the box.  Converged means the relative step
    fell below STEP_TOL, the relative SSE drop below SSE_TOL, or no step
    descends, within MAX_ITER iterations.  A residual at x0 or a Jacobian
    that is not finite ends the fit unconverged, and a note names it.

    With columns, residual also takes n parameter columns, shape (k, n, 1),
    and returns (n, n_obs): each Jacobian is then 1 call, not 2 per parameter.

    Returns (x, FitReport); the report and its notes name the parameters by
    names, "x0", "x1", ... by default.
    """
    lo, hi = np.asarray(bounds, dtype=float).T
    if len(lo) != len(x0) or np.any(lo > hi):
        raise ValueError("bounds must be (lo, hi) pairs, one per parameter")
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    names = [f"x{j}" for j in range(len(x))] if names is None else list(names)

    r = np.asarray(residual(x), dtype=float)
    sse = float(r @ r)
    converged, iterations, bad = False, 0, None if np.isfinite(r).all() else "residual"
    while bad is None and iterations < MAX_ITER:
        iterations += 1
        jac = _numeric_jacobian(residual, x, len(r), columns, lo, hi)
        if not np.isfinite(jac).all():
            bad = "Jacobian"
            break
        grad = jac.T @ r
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(jac[:, free], -r, rcond=None)[0]
        lam = 1.0
        while lam >= 1e-12:
            x_new = np.clip(x + lam * step, lo, hi)
            r_new = np.asarray(residual(x_new), dtype=float)
            sse_new = float(r_new @ r_new)
            if sse_new <= sse:
                break
            lam *= 0.5
        else:  # no descent direction left: already at a (possibly bound) minimum
            converged = True
            break
        rel_step = float(np.linalg.norm(x_new - x)) / max(float(np.linalg.norm(x)), 1e-300)
        rel_drop = (sse - sse_new) / max(sse, 1e-300)
        x, r, sse = x_new, r_new, sse_new
        if rel_step < STEP_TOL or rel_drop < SSE_TOL:
            converged = True
            break

    if bad:
        notes = (f"non-finite {bad} at " + ", ".join(f"{name}={v:.6g}" for name, v in zip(names, x)),)
    else:  # MAX_ITER >= 1, so the loop ran and jac is the last Jacobian taken
        dead = [name for name, c in zip(names, np.linalg.norm(jac, axis=0)) if c < 1e-9]
        notes = ("non-identifiable parameters: " + ", ".join(dead),) if dead else ()
    report = FitReport(
        parameters={name: float(v) for name, v in zip(names, x, strict=True)},
        residual_rms=float(np.sqrt(sse / len(r))),
        n_obs=len(r),
        converged=converged,
        iterations=iterations,
        notes=notes,
    )
    return x, report
