"""Thermal RC model."""

import pytest

from repro.power.calibration import CALIBRATION
from repro.power.thermal import ThermalModel, ThermalState


class TestThermal:
    def test_equilibrium_linear_in_power(self):
        model = ThermalModel()
        t0 = model.equilibrium_c(0.0)
        assert t0 == CALIBRATION.ambient_temp_c
        assert model.equilibrium_c(100.0) == pytest.approx(
            t0 + 100.0 * CALIBRATION.thermal_resistance_k_per_w
        )

    def test_evolution_approaches_equilibrium(self):
        model = ThermalModel()
        eq = model.equilibrium_c(150.0)
        t = CALIBRATION.ambient_temp_c
        t_after = model.evolve_c(t, 150.0, model.time_constant_s * 5)
        assert t_after == pytest.approx(eq, abs=0.3)

    def test_evolution_monotone(self):
        model = ThermalModel()
        t1 = model.evolve_c(30.0, 150.0, 10.0)
        t2 = model.evolve_c(30.0, 150.0, 20.0)
        assert 30.0 < t1 < t2

    def test_cooling(self):
        model = ThermalModel()
        t = model.evolve_c(80.0, 0.0, model.time_constant_s * 8)
        assert t == pytest.approx(CALIBRATION.ambient_temp_c, abs=0.3)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().evolve_c(30.0, 10.0, -1.0)

    def test_trajectory_matches_pointwise_evolution(self):
        model = ThermalModel()
        (traj,) = model.trajectories_c([30.0], [100.0], [0.0, 5.0, 10.0])
        assert traj[0] == pytest.approx(30.0)
        assert traj[1] == pytest.approx(model.evolve_c(30.0, 100.0, 5.0))
        assert traj[2] == pytest.approx(model.evolve_c(30.0, 100.0, 10.0))

    def test_settle_is_equilibrium(self):
        model = ThermalModel()
        assert model.settle(123.0) == model.equilibrium_c(123.0)

    def test_ambient_state_factory(self):
        state = ThermalState.ambient(2)
        assert state.temps_c == [CALIBRATION.ambient_temp_c] * 2

    def test_time_constant_order_of_minutes(self):
        # pre-heating matters (§V-E) but 10 s intervals are near-settled
        tau = ThermalModel().time_constant_s
        assert 20.0 < tau < 300.0
