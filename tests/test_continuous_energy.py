"""Tests for the energy/TCO plumbing (power model, job energy, lifetime
cost)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import EnergyModel, juwels_booster


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def model(self):
        return EnergyModel(system=juwels_booster())

    def test_idle_vs_peak_power(self, model):
        assert model.node_power(0.0) == pytest.approx(500.0)
        assert model.node_power(1.0) == pytest.approx(2500.0)
        with pytest.raises(ValueError):
            model.node_power(1.5)

    def test_job_energy_scales_linearly(self, model):
        one = model.job_energy(nodes=1, seconds=100.0)
        many = model.job_energy(nodes=10, seconds=100.0)
        assert many == pytest.approx(10 * one)

    def test_pue_applied(self):
        lean = EnergyModel(system=juwels_booster(), pue=1.0)
        fat = EnergyModel(system=juwels_booster(), pue=1.3)
        assert fat.job_energy(1, 100.0) == pytest.approx(
            1.3 * lean.job_energy(1, 100.0))

    def test_kwh_conversion(self, model):
        joules = model.job_energy(1, 3600.0, utilization=1.0)
        kwh = model.job_energy_kwh(1, 3600.0, utilization=1.0)
        assert kwh == pytest.approx(joules / 3.6e6)
        # one node-hour at peak + PUE: 2.5 kW * 1.15 = 2.875 kWh
        assert kwh == pytest.approx(2.875)

    def test_lifetime_cost_magnitude(self, model):
        """936 nodes for 6 years lands in the tens of MEUR -- the
        'substantial part of the overall project budget' (Sec. II-B)."""
        cost = model.lifetime_energy_cost(lifetime_years=6.0)
        assert 2e7 < cost < 3e8

    def test_flops_per_joule(self, model):
        eff = model.flops_per_joule(achieved_flops=44e15)  # HPL number
        assert 1e9 < eff < 1e11  # GF/J scale of an A100 system

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_power_monotone_in_utilization(self, u):
        model = EnergyModel(system=juwels_booster())
        assert model.node_power(u) <= model.node_power(1.0)
        assert model.node_power(u) >= model.node_power(0.0)

    def test_negative_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.job_energy(-1, 10.0)
