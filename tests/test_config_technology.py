"""Technology parameter dataclasses (paper Table 1)."""

import math

import pytest

from repro.config.technology import (
    C4Technology,
    EMParameters,
    OnChipMetal,
    PackageModel,
    TSVTechnology,
    default_c4,
    default_em,
    default_metal,
    default_tsv,
)


class TestC4Technology:
    def test_table1_defaults(self):
        c4 = default_c4()
        assert c4.pitch == pytest.approx(200e-6)
        assert c4.resistance == pytest.approx(10e-3)

    def test_pads_per_side(self):
        c4 = default_c4()
        # 6.64 mm die / 200 um pitch -> 33 sites per side.
        assert c4.pads_per_side(math.sqrt(44.12e-6)) == 33

    def test_pads_per_side_rejects_zero(self):
        with pytest.raises(ValueError):
            default_c4().pads_per_side(0.0)

    def test_rejects_nonpositive_pitch(self):
        with pytest.raises(ValueError):
            C4Technology(pitch=0.0)


class TestTSVTechnology:
    def test_table1_defaults(self):
        tsv = default_tsv()
        assert tsv.diameter == pytest.approx(5e-6)
        assert tsv.min_pitch == pytest.approx(10e-6)
        assert tsv.resistance == pytest.approx(44.539e-3)
        assert tsv.koz_side == pytest.approx(9.88e-6)

    def test_koz_area(self):
        assert default_tsv().koz_area == pytest.approx(9.88e-6**2)

    def test_koz_cannot_be_smaller_than_tsv(self):
        with pytest.raises(ValueError, match="keep-out"):
            TSVTechnology(diameter=10e-6, koz_side=5e-6)


class TestOnChipMetal:
    def test_table1_defaults(self):
        metal = default_metal()
        assert metal.pitch == pytest.approx(810e-6)
        assert metal.width == pytest.approx(400e-6)
        assert metal.thickness == pytest.approx(720e-6)

    def test_sheet_resistance_formula(self):
        metal = default_metal()
        expected = metal.resistivity / metal.thickness * (metal.pitch / metal.width)
        assert metal.sheet_resistance == pytest.approx(expected)

    def test_grid_edge_resistance_square_cell(self):
        metal = default_metal()
        assert metal.grid_edge_resistance(1e-3) == pytest.approx(metal.sheet_resistance)

    def test_grid_edge_rejects_zero_cell(self):
        with pytest.raises(ValueError):
            default_metal().grid_edge_resistance(0.0)


class TestPackageModel:
    def test_defaults_positive(self):
        pkg = PackageModel()
        assert pkg.resistance > 0

    def test_rejects_negative_resistance(self):
        with pytest.raises(ValueError):
            PackageModel(resistance=-1.0)


class TestEMParameters:
    def test_thermal_factor_is_exponential(self):
        em = default_em()
        from repro.config.technology import BOLTZMANN_EV

        expected = math.exp(em.activation_energy / (BOLTZMANN_EV * em.temperature))
        assert em.thermal_factor == pytest.approx(expected)

    def test_higher_temperature_lowers_factor(self):
        cold = EMParameters(temperature=300.0)
        hot = EMParameters(temperature=400.0)
        assert hot.thermal_factor < cold.thermal_factor

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            EMParameters(sigma=0.0)
