import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import gauss_newton, grid_oracle, slope_through_origin
from ceilprop.leastsq import IdentifiabilityError, _group_slopes

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

    def test_dead_parameter_flagged(self):
        residual = lambda x: np.array([x[0] - 1.0, x[0] + 1.0])
        x, report = gauss_newton(residual, [0.0, 0.3], bounds=[(-5.0, 5.0)] * 2)
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert any("non-identifiable" in note and "x1" in note for note in report.notes)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            gauss_newton(lambda x: x, [0.0], bounds=[(1.0, -1.0)])


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
