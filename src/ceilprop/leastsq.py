"""Small-problem least squares: origin slopes, damped Gauss-Newton, grid oracle."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitReport",
    "IdentifiabilityError",
    "slope_through_origin",
    "gauss_newton",
    "grid_oracle",
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


def _numeric_jacobian(residual, x, rel_step=1e-6):
    # central differences with a unit floor on the relative step
    r0 = residual(x)
    jac = np.empty((len(r0), len(x)))
    for j in range(len(x)):
        h = rel_step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (residual(xp) - residual(xm)) / (2.0 * h)
    return jac


def gauss_newton(
    residual,
    x0,
    bounds,
    max_iter: int = 500,
    step_tol: float = 1e-10,
    sse_tol: float = 1e-12,
):
    """Minimize sum(residual(x)**2) inside box bounds by damped Gauss-Newton.

    residual maps a parameter vector to a residual vector and must be
    evaluable slightly outside the bounds (numeric Jacobians probe there).
    Steps are halved until the SSE does not increase and clipped to the box.
    Converged means the relative step or the relative SSE change fell below
    tolerance before max_iter.

    Returns (x, FitReport); parameters in the report are indexed "x0", "x1", ...
    """
    x = np.asarray(x0, dtype=float).copy()
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if len(lo) != len(x) or np.any(lo > hi):
        raise ValueError("bounds must be (lo, hi) pairs, one per parameter")
    x = np.clip(x, lo, hi)

    r = np.asarray(residual(x), dtype=float)
    sse = float(r @ r)
    converged = False
    iterations = 0
    jac = None
    for iterations in range(1, max_iter + 1):
        jac = _numeric_jacobian(residual, x)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        accepted = False
        while lam >= 1e-12:
            x_new = np.clip(x + lam * step, lo, hi)
            r_new = np.asarray(residual(x_new), dtype=float)
            sse_new = float(r_new @ r_new)
            if sse_new <= sse:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            # no descent direction left: already at a (possibly bound) minimum
            converged = True
            break
        rel_step = float(np.linalg.norm(x_new - x)) / max(float(np.linalg.norm(x)), 1e-300)
        rel_drop = (sse - sse_new) / max(sse, 1e-300)
        x, r, sse = x_new, r_new, sse_new
        if rel_step < step_tol or rel_drop < sse_tol:
            converged = True
            break

    notes = []
    if jac is not None:
        col_norms = np.linalg.norm(jac, axis=0)
        dead = [f"x{j}" for j, c in enumerate(col_norms) if c < 1e-9]
        if dead:
            notes.append("non-identifiable parameters: " + ", ".join(dead))
    report = FitReport(
        parameters={f"x{j}": float(v) for j, v in enumerate(x)},
        residual_rms=float(np.sqrt(sse / len(r))),
        n_obs=len(r),
        converged=converged,
        iterations=iterations,
        notes=tuple(notes),
    )
    return x, report


def grid_oracle(objective, bounds, resolution: int = 100):
    """Exhaustive grid minimization of a scalar objective over box bounds.

    Brute-force reference for checking iterative fits: evaluates the
    objective on a full cartesian grid (up to 3 axes) and returns
    (best_params, best_value).  The objective takes a 1-d parameter vector;
    if it also accepts an (n, d) batch and returns (n,) values, the batch
    path is used.
    """
    if len(bounds) == 0:
        raise ValueError("bounds must not be empty")
    if len(bounds) > 3:
        raise ValueError("grid oracle supports at most 3 parameters")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    values = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scalar-only objectives may complain at the batch probe
            batch = np.asarray(objective(points), dtype=float)
        if batch.shape == (len(points),):
            values = batch
    except Exception:
        values = None
    if values is None:
        values = np.array([float(objective(p)) for p in points])

    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
