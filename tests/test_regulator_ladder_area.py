"""Converter area accounting."""

import pytest

from repro.config.converters import default_sc_spec
from repro.config.stackups import ProcessorSpec
from repro.regulator.area import converter_area, converters_area_overhead


class TestAreaAccounting:
    def test_paper_mim_area(self):
        assert converter_area(default_sc_spec()) == pytest.approx(0.472e-6)

    def test_technology_override(self):
        assert converter_area(default_sc_spec(), "trench") == pytest.approx(0.082e-6)

    def test_unknown_technology_rejected(self):
        with pytest.raises(ValueError):
            converter_area(default_sc_spec(), "unobtainium")

    def test_one_converter_is_three_percent_of_core(self):
        """Paper Sec. 5.2: one converter ~3% of an ARM core with
        high-density capacitors."""
        core_area = ProcessorSpec().core_area
        overhead = converters_area_overhead(
            default_sc_spec(), 1, core_area, technology="trench"
        )
        assert overhead == pytest.approx(0.03, abs=0.005)

    def test_eight_converters_match_dense_tsv_overhead(self):
        """Paper Sec. 5.2: 8 converters/core + Few TSV ~= Dense TSV area."""
        from repro.config.stackups import dense_tsv, few_tsv

        core_area = ProcessorSpec().core_area
        converters = converters_area_overhead(
            default_sc_spec(), 8, core_area, technology="trench"
        )
        vs_total = converters + few_tsv().area_overhead(core_area)
        dense_total = dense_tsv().area_overhead(core_area)
        assert vs_total == pytest.approx(dense_total, rel=0.05)

    def test_overhead_scales_linearly(self):
        core_area = ProcessorSpec().core_area
        one = converters_area_overhead(default_sc_spec(), 1, core_area)
        four = converters_area_overhead(default_sc_spec(), 4, core_area)
        assert four == pytest.approx(4 * one)
