import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import (
    CeilingParams,
    Environment,
    GammaPoint,
    PropellerGeometry,
    ceiling_coefficient,
    fit_blade_coefficients,
    fit_ceiling_params,
    gauss_newton,
    slope_through_origin,
    thrust_coefficient,
    torque_coefficient,
)
from ceilprop import leastsq
from ceilprop.leastsq import IdentifiabilityError, _group_slopes, _numeric_jacobian

from _helpers import grid_oracle

# magnitudes whose squares neither underflow nor overflow
REGRESSOR = st.floats(0.01, 100.0) | st.floats(-100.0, -0.01)
RESPONSE = st.floats(1e-6, 100.0) | st.floats(-100.0, -1e-6) | st.just(0.0)
GROUPS = st.lists(st.lists(st.tuples(REGRESSOR, RESPONSE), min_size=2, max_size=8), min_size=1, max_size=6)


def reference_slope(x, y):
    # one group on its own: the slope by lstsq, the std error by exactly rounded sums
    (slope,), *_ = np.linalg.lstsq(x[:, None], y, rcond=None)
    resid = (y - slope * x).tolist()
    var = math.fsum(r * r for r in resid) / (len(x) - 1)
    return float(slope), math.sqrt(var / math.fsum(v * v for v in x.tolist()))


class TestSlopeThroughOrigin:
    def test_exact_line(self):
        x = np.linspace(1.0, 9.0, 7)
        slope, stderr = slope_through_origin(x, 3.5 * x)
        assert slope == pytest.approx(3.5, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_line(self):
        rng = np.random.default_rng(3)
        x = np.linspace(1.0, 10.0, 200)
        y = 2.0 * x + rng.normal(scale=0.1, size=len(x))
        slope, stderr = slope_through_origin(x, y)
        assert slope == pytest.approx(2.0, abs=4.0 * stderr)
        assert stderr > 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            slope_through_origin([1.0], [2.0])

    def test_zero_regressor_rejected(self):
        with pytest.raises(IdentifiabilityError):
            slope_through_origin([0.0, 0.0], [1.0, 2.0])


class TestGroupSlopes:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(GROUPS)
    def test_matches_per_group_reference(self, groups):
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        x, y = np.array([p for g in groups for p in g]).T
        order = np.random.default_rng(len(x)).permutation(len(x))  # groups interleaved
        slope, stderr = _group_slopes(group[order], x[order], y[order])
        for k in range(len(groups)):
            ref_slope, ref_stderr = reference_slope(x[group == k], y[group == k])
            # rounding in a residual is relative to y, not to the residual, so
            # the floor is 1e-12 of the slope the data's own scale gives
            scale = math.sqrt(math.fsum(y[group == k] ** 2) / math.fsum(x[group == k] ** 2))
            assert slope[k] == pytest.approx(ref_slope, rel=1e-12, abs=1e-12 * scale)
            assert stderr[k] == pytest.approx(ref_stderr, rel=1e-12, abs=1e-12 * scale)

    def test_small_ripple_on_a_large_level(self):
        # sum(y*y) - slope*sum(x*y) loses every digit of this variance
        x = np.linspace(999.0, 1001.0, 40)
        y = 3.0 * x * (1.0 + 1e-9 * np.random.default_rng(5).standard_normal(len(x)))
        slope, stderr = _group_slopes(np.zeros(len(x), dtype=np.intp), x, y)
        ref_slope, ref_stderr = reference_slope(x, y)
        assert slope[0] == pytest.approx(ref_slope, rel=1e-12)
        assert stderr[0] == pytest.approx(ref_stderr, rel=1e-6)
        assert stderr[0] > 0.0

    def test_zero_regressor_group_rejected(self):
        with pytest.raises(IdentifiabilityError):
            _group_slopes(np.array([0, 0, 1, 1]), np.array([1.0, 2.0, 0.0, 0.0]), np.ones(4))


class TestGaussNewton:
    def test_linear_residual_exact(self):
        target = np.array([1.3, -0.7])
        residual = lambda x: x - target
        x, report = gauss_newton(residual, [0.0, 0.0], bounds=[(-10.0, 10.0)] * 2)
        assert np.allclose(x, target, rtol=1e-12, atol=1e-12)
        assert report.converged
        assert report.residual_rms < 1e-12

    def test_nonlinear_fit(self):
        t = np.linspace(0.0, 4.0, 40)
        data = 2.5 * np.exp(-0.8 * t)
        residual = lambda x: x[0] * np.exp(-x[1] * t) - data
        x, report = gauss_newton(residual, [1.0, 0.1], bounds=[(0.0, 10.0), (0.0, 5.0)])
        assert x[0] == pytest.approx(2.5, rel=1e-8)
        assert x[1] == pytest.approx(0.8, rel=1e-8)
        assert report.converged

    def test_bound_clipping(self):
        residual = lambda x: x - 5.0
        x, report = gauss_newton(residual, [0.0], bounds=[(-1.0, 1.0)])
        assert x[0] == pytest.approx(1.0)
        assert report.converged

    def test_minimum_on_bound_reached_from_bound(self):
        # SSE (x0 - 1 + 0.9 v)^2 + 0.19 v^2 with v = x1 + 1: the free minimum
        # (1, -1) lies outside x1 >= 0, the bound minimum is (0.1, 0).  From
        # (1, 0) the full step (0, -1) clips to no move at all, so x1 must be
        # held on its bound and the step taken in x0 alone
        residual = lambda x: np.array([x[0] - 1.0 + 0.9 * (x[1] + 1.0), math.sqrt(0.19) * (x[1] + 1.0)])
        x, report = gauss_newton(residual, [1.0, 0.0], bounds=[(-10.0, 10.0), (0.0, 10.0)])
        assert x[0] == pytest.approx(0.1, rel=1e-9)
        assert x[1] == 0.0
        assert report.converged
        assert report.residual_rms == pytest.approx(math.sqrt(0.19 / 2.0), rel=1e-12)

    def test_dead_parameter_flagged(self):
        residual = lambda x: np.array([x[0] - 1.0, x[0] + 1.0])
        x, report = gauss_newton(residual, [0.0, 0.3], bounds=[(-5.0, 5.0)] * 2)
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert any("non-identifiable" in note and "x1" in note for note in report.notes)

    def test_names_label_report_and_notes(self):
        residual = lambda x: np.array([x[0] - 1.0, x[0] + 1.0])
        _, report = gauss_newton(residual, [0.0, 0.3], bounds=[(-5.0, 5.0)] * 2, names=("slope", "spare"))
        assert set(report.parameters) == {"slope", "spare"}
        assert report.notes == ("non-identifiable parameters: spare",)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            gauss_newton(lambda x: x, [0.0], bounds=[(1.0, -1.0)])

    def test_no_descent_exit_stays_at_kink_minimum(self):
        # r = 1 + max(x - 2, 3(2 - x)) has its minimum at the kink x = 2, where
        # the central-difference slope is -1: the step +1 and every halving of
        # it raise the SSE, so the first iteration takes the no-descent exit
        residual = lambda x: np.array([1.0 + max(x[0] - 2.0, 3.0 * (2.0 - x[0]))])
        x, report = gauss_newton(residual, [2.0], bounds=[(-10.0, 10.0)])
        assert x[0] == 2.0
        assert report.iterations == 1
        assert report.residual_rms == 1.0


def boxed(residual, bounds, seen):
    # residual, recording every parameter vector it is given in seen and
    # failing on the first that leaves the box
    lo, hi = np.array(bounds, dtype=float).T

    def inside(x):
        seen.append(np.array(x, dtype=float))
        assert np.all((lo <= x) & (x <= hi)), f"evaluated at {x}, outside {bounds}"
        return residual(x)

    return inside


class TestGaussNewtonStaysInTheBox:
    # the existing bound cases of TestGaussNewton, evaluated only inside the box
    @pytest.mark.parametrize(
        "residual, x0, bounds",
        [
            (lambda x: x - 5.0, [0.0], [(-1.0, 1.0)]),
            (
                lambda x: np.array([x[0] - 1.0 + 0.9 * (x[1] + 1.0), math.sqrt(0.19) * (x[1] + 1.0)]),
                [1.0, 0.0],
                [(-10.0, 10.0), (0.0, 10.0)],
            ),
        ],
        ids=["bound_clipping", "minimum_on_bound_reached_from_bound"],
    )
    def test_bound_cases_evaluate_inside(self, residual, x0, bounds):
        seen = []
        x, report = gauss_newton(boxed(residual, bounds, seen), x0, bounds)
        assert report.converged
        assert len(seen) > 2 * len(x0)  # the Jacobian's probes are among them

    def test_point_box_holds_its_coordinate(self):
        seen = []
        bounds = [(0.3, 0.3), (-10.0, 10.0)]
        residual = lambda x: np.array([x[0] + x[1] - 1.0, x[1] - 0.5])
        x, report = gauss_newton(boxed(residual, bounds, seen), [0.3, 4.0], bounds)
        assert x[0] == 0.3
        assert x[1] == pytest.approx(0.6, rel=1e-9)  # the least-squares x1 with x0 held
        assert report.converged
        assert all(p[0] == 0.3 for p in seen)
        assert np.isfinite(report.residual_rms)

    def test_probe_pair_shifted_inward_at_a_bound(self):
        # at x = lo the pair moves up by h, so the column is the forward
        # difference, exact for a quadratic up to rounding: d(x^2)/dx at 1 + h
        seen = []
        jac = _numeric_jacobian(boxed(lambda x: x * x, [(1.0, 2.0)], seen), np.array([1.0]), 1, lo=1.0, hi=2.0)
        assert [p[0] for p in seen] == [1.0 + 2e-6, 1.0]
        assert jac[0, 0] == pytest.approx(2.0 + 2e-6, rel=1e-9)


class TestGaussNewtonNonFinite:
    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_residual_not_finite_at_start(self, lstsq_calls):
        residual = lambda x: np.array([x[0] - 1.0, math.nan])
        x, report = gauss_newton(residual, [2.0, 0.5], bounds=[(0.0, 5.0)] * 2, names=("a", "b"))
        assert not report.converged
        assert report.iterations == 0
        assert report.notes == ("non-finite residual at a=2, b=0.5",)
        assert list(x) == [2.0, 0.5]
        assert lstsq_calls == []

    def test_jacobian_not_finite(self, lstsq_calls):
        # finite at x0 = 2, infinite just above it, where the probe x0 + h lands
        residual = lambda x: np.array([math.inf if x[0] > 2.0 else x[0] - 1.0])
        x, report = gauss_newton(residual, [2.0], bounds=[(0.0, 5.0)], names=("c0",))
        assert not report.converged
        assert report.iterations == 1
        assert report.notes == ("non-finite Jacobian at c0=2",)
        assert x[0] == 2.0
        assert lstsq_calls == []


class TestGridOracle:
    def test_interior_quadratic(self):
        objective = lambda p: float((p[0] - 0.37) ** 2)
        best, value = grid_oracle(objective, bounds=[(0.0, 1.0)], resolution=101)
        assert abs(best[0] - 0.37) <= 1.0 / 100.0
        assert value <= objective([best[0] + 0.01])

    def test_boundary_when_optimum_excluded(self):
        objective = lambda p: float((p[0] - 5.0) ** 2)
        best, _ = grid_oracle(objective, bounds=[(0.0, 1.0)], resolution=60)
        assert best[0] == pytest.approx(1.0)

    def test_two_axes(self):
        objective = lambda p: float((p[0] - 0.2) ** 2 + (p[1] + 0.4) ** 2)
        best, _ = grid_oracle(objective, bounds=[(-1.0, 1.0), (-1.0, 1.0)], resolution=81)
        assert abs(best[0] - 0.2) <= 2.0 / 80.0
        assert abs(best[1] + 0.4) <= 2.0 / 80.0

    def test_batch_objective_used(self):
        calls = {"batch": 0}

        def objective(p):
            p = np.asarray(p)
            if p.ndim == 2:
                calls["batch"] += 1
                return ((p - 0.5) ** 2).sum(axis=1)
            return float(((p - 0.5) ** 2).sum())

        best, _ = grid_oracle(objective, bounds=[(0.0, 1.0)], resolution=51)
        assert calls["batch"] == 1
        assert best[0] == pytest.approx(0.5, abs=1.0 / 50.0)

    def test_scalar_only_objective_falls_back(self):
        def objective(p):
            if np.asarray(p).ndim != 1:
                raise TypeError("scalar objective")
            return float((p[0] - 0.25) ** 2)

        best, _ = grid_oracle(objective, bounds=[(0.0, 1.0)], resolution=51)
        assert abs(best[0] - 0.25) <= 1.0 / 50.0

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            grid_oracle(lambda p: 0.0, bounds=[])

    def test_too_many_axes_rejected(self):
        with pytest.raises(ValueError):
            grid_oracle(lambda p: 0.0, bounds=[(0.0, 1.0)] * 4)


class TestNumericJacobian:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_residual_calls_per_parameter(self, k):
        calls = []
        matrix = np.arange(1.0, 4.0 * k + 1.0).reshape(4, k)

        def residual(x):
            calls.append(x.copy())
            return matrix @ x - 1.0

        x = np.linspace(0.5, 2.0, k)
        jac = _numeric_jacobian(residual, x, 4)
        assert len(calls) == 2 * k
        np.testing.assert_allclose(jac, matrix, rtol=1e-7)  # a 1e-6 step on residuals of about 30

    @pytest.mark.parametrize(
        "model, k", [("linear", 1), ("linear", 2), ("linear", 3), ("ceiling", 1), ("ceiling", 2), ("blade", 3)]
    )
    def test_columns_one_residual_call_same_matrix(self, model, k, monkeypatch):
        residual, x = self.fit_residual(model, k, monkeypatch)
        calls = []

        def counted(p):
            calls.append(np.shape(p))
            return residual(p)

        n_obs = len(residual(x))
        per_probe = _numeric_jacobian(counted, x, n_obs)
        assert len(calls) == 2 * k
        calls.clear()
        block = _numeric_jacobian(counted, x, n_obs, columns=True)
        assert calls == [(k, 2 * k, 1)]
        assert block.shape == (n_obs, k)
        assert block.tobytes() == per_probe.tobytes()

    @staticmethod
    def fit_residual(model, k, monkeypatch):
        # a residual that takes parameter columns, and the point where the
        # fit starts gauss_newton with it
        if model == "linear":
            matrix = np.arange(1.0, 4.0 * k + 1.0).reshape(4, k)
            return (lambda x: sum(matrix[:, j] * x[j] for j in range(k)) - 1.0), np.linspace(0.5, 2.0, k)
        started = []
        real = leastsq.gauss_newton

        def spy(residual, x0, *args, **kwargs):
            started.append((residual, x0))
            return real(residual, x0, *args, **kwargs)

        monkeypatch.setattr(leastsq, "gauss_newton", spy)
        ceiling = CeilingParams(asymmetry=1.6, recirculation=0.01)
        deltas = np.linspace(0.2, 5.0, 12)
        wobble = 1.0 + 0.01 * np.cos(3.0 * deltas)  # keeps the fit off the truth
        if model == "ceiling":
            gammas = ceiling_coefficient(deltas, ceiling) * wobble
            fit_ceiling_params([GammaPoint(d, g, 0.01, 16) for d, g in zip(deltas, gammas)], reduced=k == 1)
        else:
            env = Environment(air_density=1.2)
            geom = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.022))
            c_t = thrust_coefficient(geom, deltas, ceiling, env) * wobble
            c_tau = torque_coefficient(c_t, geom, env, gamma=ceiling_coefficient(deltas, ceiling))
            fit_blade_coefficients(
                list(zip(deltas, c_t)), list(zip(deltas[::2], c_tau[::2])),
                radius=0.023, figure_of_merit=0.5, ceiling=ceiling, env=env,
            )
        return started[0]
