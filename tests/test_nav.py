import numpy as np
import pytest

import fbt
from fbt import nav
from fbt.geoflow import connect, integrate_geodesic
from fbt.metric import PhaseState
from fbt.nav import (
    NotFermatGeodesic,
    StationaryData,
    WindTooStrong,
    ZermeloData,
    fermat_metric,
    grid_travel_time,
    lift_lightlike,
    travel_time,
    zermelo_to_randers,
)

from conftest import locally_constant
from _oracles import (constant_wind_time, point_set_gap_blocks, point_set_gap_brute,
                      travel_time_loop)
from fbt.nav import _point_set_gap


def _wind(wx, wy=0.0):
    return ZermeloData.from_exprs(
        2, [["1", "0"], ["0", "1"]], [repr(wx), repr(wy)],
        chart_box=[[-3, 3], [-3, 3]],
    )


class TestZermeloConversion:
    def test_no_wind_recovers_sqrt_h(self):
        m = zermelo_to_randers(_wind(0.0))
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=2)
            v = rng.normal(size=2)
            assert m.F(x, v) == pytest.approx(np.linalg.norm(v), rel=1e-12)

    def test_downwind_and_upwind_speeds(self):
        m = zermelo_to_randers(_wind(0.5))
        assert m.F([0, 0], [1, 0]) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert m.F([0, 0], [-1, 0]) == pytest.approx(2.0, abs=1e-14)

    def test_randers_bound_holds_by_construction(self):
        m = zermelo_to_randers(_wind(0.7, 0.5))
        a, b = m._c.stack(np.zeros(2), 0)[:2]
        assert float(b @ np.linalg.solve(a, b)) < 1.0

    def test_strong_wind_rejected(self):
        with pytest.raises(WindTooStrong):
            zermelo_to_randers(_wind(1.01))

    def test_variable_wind_validated_samplewise(self):
        z = ZermeloData.from_exprs(
            2, [["1", "0"], ["0", "1"]], ["0.5 + 0.6*tanh(x1)", "0"],
            chart_box=[[-2, 2], [-2, 2]],
        )
        with pytest.raises(WindTooStrong):
            zermelo_to_randers(z)

    @pytest.mark.parametrize("h, W, box", [
        ([["1", "0"], ["0", "1"]], ["0.6*exp(-x1^2)", "0"], [[-3, 3], [-3, 3]]),
        ([["1", "0.1*x1"], ["0.1*x1", "1+x1^2"]], ["0.3", "0.2*sin(x2)"], None),
        ([["1", "0"], ["0", "1"]], ["0.5 + 0.6*tanh(x1)", "0"], [[-2, 2], [-2, 2]]),
    ])
    def test_validate_matches_per_sample_formula(self, h, W, box):
        from _oracles import wind_bound_per_sample

        z = ZermeloData.from_exprs(2, h, W, chart_box=box)
        outcomes = []
        for check in (z.validate, lambda: wind_bound_per_sample(z)):
            try:
                outcomes.append(check())
            except WindTooStrong as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestTravelTime:
    def test_unit_segment_no_wind(self):
        # on a chart-constant metric a straight segment d takes F(x, d)
        m = zermelo_to_randers(_wind(0.0))
        assert m.F([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_downwind_segment(self):
        m = zermelo_to_randers(_wind(0.5))
        t = m.F([0.0, 0.0], [1.0, 0.0])
        assert t == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_stacked_sum_matches_point_loop(self):
        # bit for bit: the same terms, summed in the same order
        z = ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                   ["0.6*exp(-x1^2)", "0.1*sin(x2)"])
        m = zermelo_to_randers(z)
        path = integrate_geodesic(m, PhaseState([-1.0, 0.0], [1.0, 0.5]), 1.5)
        assert travel_time(m, path) == travel_time_loop(m, path)

    def test_connect_matches_closed_form(self):
        W = np.array([0.5, 0.0])
        m = zermelo_to_randers(_wind(0.5))
        rng = np.random.default_rng(4)
        for _ in range(8):
            d = rng.uniform(-1.5, 1.5, size=2)
            if np.linalg.norm(d) < 0.2:
                continue
            v = connect(m, [0, 0], d, d)
            path = integrate_geodesic(m, PhaseState([0, 0], v), 1.0)
            assert travel_time(m, path) == pytest.approx(
                constant_wind_time(d, W), abs=1e-6
            )

    def test_round_trip_slower_with_wind(self):
        # crossing and recrossing under any nonzero wind takes longer than
        # twice the windless time, even when the wind is perpendicular
        m = zermelo_to_randers(_wind(0.5))
        for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])):
            there = constant_wind_time(d, [0.5, 0.0])
            back = constant_wind_time(-d, [0.5, 0.0])
            assert there + back > 2 * np.linalg.norm(d) + 1e-12
        m0 = zermelo_to_randers(_wind(0.0))
        d = np.array([1.0, 0.0])
        assert constant_wind_time(d, [0, 0]) + constant_wind_time(-d, [0, 0]) == (
            pytest.approx(2.0, abs=1e-14)
        )


class TestGridOracle:
    def test_small_grid_matches_closed_form(self):
        m = zermelo_to_randers(_wind(0.5))
        res = grid_travel_time(m, [0, 0], [0.3, 0.2],
                               box=[[-0.5, 0.5], [-0.5, 0.5]], n=80)
        want = constant_wind_time(res.q_snapped - res.p_snapped, [0.5, 0.0])
        assert res.time >= want - 1e-12  # lattice paths can never beat the norm
        assert abs(res.time - want) <= res.cell_time

    def test_varying_wind_edge_costs_read_the_chart(self):
        # every edge priced at p instead would put the grid time 1.9 cells
        # above the geodesic's (1.2579 against 1.1285)
        z = ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                   ["0.6*exp(-x1^2)", "0"], chart_box=[[-3, 3], [-3, 3]])
        m = zermelo_to_randers(z)
        assert not m.chart_constant
        assert zermelo_to_randers(_wind(0.5)).chart_constant
        assert not locally_constant(2, "flat", lambda x: np.eye(2)).chart_constant
        p, q = np.array([-1.0, 0.0]), np.array([0.2, 0.9])
        path = integrate_geodesic(m, PhaseState(p, connect(m, p, q, q - p)), 1.0)
        res = grid_travel_time(m, p, q, box=[[-1.25, 0.45], [-0.25, 1.15]], n=60)
        assert abs(res.time - travel_time(m, path)) <= res.cell_time


class TestFermat:
    def test_reduces_to_sqrt_g0(self):
        s = StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0", "0"])
        fp, fm = fermat_metric(s)
        v = np.array([3.0, 4.0])
        assert fp.F([0, 0], v) == pytest.approx(5.0, rel=1e-12)
        assert fm.F([0, 0], v) == pytest.approx(5.0, rel=1e-12)

    def test_drift_value(self):
        s = StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.3", "0"], "1")
        fp, _ = fermat_metric(s)
        assert fp.F([0, 0], [1, 0]) == pytest.approx(np.sqrt(1.09) + 0.3, abs=1e-14)

    def test_pair_identity(self):
        s = StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.3", "0"])
        fp, fm = fermat_metric(s)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            y = rng.normal(size=2)
            root = np.sqrt((0.3 * y[0]) ** 2 + float(y @ y))
            assert fp.F(x, y) + fm.F(x, y) == pytest.approx(2 * root, rel=1e-12)
            # reversing the direction swaps the pair
            assert fm.F(x, -y) == pytest.approx(fp.F(x, y), rel=1e-12)

    def test_conformal_factor_divides(self):
        s = StationaryData.from_exprs(
            2, [["1", "0"], ["0", "1"]], ["0", "0"], "4",
        )
        fp, _ = fermat_metric(s)
        assert fp.F([0, 0], [1, 0]) == pytest.approx(0.5, rel=1e-12)


class TestLift:
    def _stationary(self):
        return StationaryData.from_exprs(
            2, [["1", "0"], ["0", "1"]], ["0.3", "0"], "1",
            chart_box=[[-4, 4], [-4, 4]],
        )

    def test_static_lift_is_45_degree_line(self):
        s = StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0", "0"])
        fp, _ = fermat_metric(s)
        path = integrate_geodesic(fp, PhaseState([0, 0], [1, 0]), 2.0)
        lift = lift_lightlike(s, path, fermat=fp)
        assert lift.null_residual_max <= 1e-12
        assert np.allclose(lift.t, lift.x[:, 0], atol=1e-9)

    def test_drift_lift_null_and_projection(self):
        s = self._stationary()
        fp, _ = fermat_metric(s)
        v = connect(fp, [0, 0], [1.2, 0.8], [1.2, 0.8])
        path = integrate_geodesic(fp, PhaseState([0, 0], v), 1.0)
        lift = lift_lightlike(s, path, fermat=fp, check_lorentz=True)
        assert lift.null_residual_max <= 1e-9
        assert lift.lorentz_gap <= 1e-5
        assert np.all(np.diff(lift.t) > 0)

    def test_stacked_lift_matches_per_point_samples(self, monkeypatch):
        monkeypatch.setattr(nav, "LIFT_SAMPLES", 41)
        s = self._stationary()
        fp, _ = fermat_metric(s)
        path = integrate_geodesic(fp, PhaseState([0, 0], [0.9, 0.5]), 1.3)
        lift = lift_lightlike(s, path, fermat=fp)
        ss = np.linspace(0.0, 1.3, 41)
        np.testing.assert_array_equal(lift.x, [path.x(t) for t in ss])
        total = [0.0]
        for a, b in zip(ss[:-1], ss[1:]):
            seg = 0.0
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            for node, wgt in zip(nav.GAUSS3_NODES, nav.GAUSS3_WEIGHTS):
                seg += half * wgt * fp.F(*path.state(mid + half * node))
            total.append(total[-1] + seg)
        assert np.max(np.abs(lift.t - np.array(total))) <= 1e-14

    def test_point_set_gap_matches_brute_force(self):
        s = self._stationary()
        fp, _ = fermat_metric(s)
        path = integrate_geodesic(fp, PhaseState([0, 0], [1.0, 0.6]), 1.5)
        # 150 samples span three row blocks, the last one partial
        fine = path.x(np.linspace(0.0, 1.5, 150))
        coarse = path.x(np.linspace(0.0, 1.5, 37)) + [0.0, 1e-4]
        rng = np.random.default_rng(5)
        cloud = fine + 1e-3 * rng.normal(size=fine.shape)
        for a, b in ((fine, coarse), (coarse, fine), (cloud, coarse), (fine, fine)):
            assert abs(_point_set_gap(a, b) - point_set_gap_brute(a, b)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_point_set_gap_bits_match_one_difference_array(self, dim):
        rng = np.random.default_rng(dim)
        fine = np.cumsum(0.01 * rng.normal(size=(804, dim)), axis=0)
        other = fine[::3] + 1e-4 * rng.normal(size=(268, dim))
        for a, b in ((fine, other), (other, fine), (fine, fine)):
            assert _point_set_gap(a, b) == point_set_gap_blocks(a, b)

    def test_variable_speed_path_rejected(self):
        s = self._stationary()
        fp, _ = fermat_metric(s)
        # circular-arc polyline reparametrized unevenly is not an F-geodesic
        # with constant associated speed; fake it with a curved metric path
        warped = fbt.sphere_stereo(1.0)
        path = integrate_geodesic(warped, PhaseState([0, -1], [1, 0]), 1.0)
        with pytest.raises(NotFermatGeodesic):
            lift_lightlike(s, path, fermat=fp)
