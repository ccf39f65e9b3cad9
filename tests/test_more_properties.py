"""Second round of property-based tests across the substrates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables import format_table
from repro.config.stackups import ProcessorSpec
from repro.regulator.compact import SCCompactModel


class TestTableProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-999, max_value=999),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_align(self, rows):
        text = format_table(["a", "b"], rows)
        lines = text.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly rectangular output


class TestConverterModelProperties:
    @given(
        st.floats(min_value=1.2, max_value=4.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_operating_point_consistency(self, v_in, v_bottom_frac, load):
        model = SCCompactModel()
        v_bottom = v_bottom_frac
        v_top = v_bottom + v_in
        op = model.operating_point(v_top, v_bottom, load)
        assert op.ideal_output_voltage == pytest.approx((v_top + v_bottom) / 2)
        assert op.input_power >= op.output_power
        assert 0.0 <= op.efficiency <= 1.0

    @given(st.floats(min_value=0.005, max_value=0.1))
    @settings(max_examples=30, deadline=None)
    def test_sourcing_and_sinking_symmetric_losses(self, load):
        model = SCCompactModel()
        source = model.operating_point(2.0, 0.0, load)
        sink = model.operating_point(2.0, 0.0, -load)
        assert source.series_loss == pytest.approx(sink.series_loss)
        assert source.parasitic_loss == pytest.approx(sink.parasitic_loss)


class TestProcessorProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_layer_power_affine(self, activity):
        proc = ProcessorSpec()
        expected = proc.leakage_power + activity * proc.dynamic_power
        assert proc.layer_power(activity) == pytest.approx(expected)
