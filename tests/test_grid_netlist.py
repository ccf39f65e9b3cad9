"""Netlist construction: nodes, elements, tags."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.netlist import ISOURCE, RESISTOR, VSOURCE, Circuit


class TestNodes:
    def test_node_ids_are_stable(self):
        c = Circuit()
        a = c.node("a")
        assert c.node("a") == a

    def test_node_ids_increment(self):
        c = Circuit()
        assert c.node("a") == 0
        assert c.node("b") == 1

    def test_nodes_vectorised(self):
        c = Circuit()
        ids = c.nodes(["a", "b", "a"])
        assert list(ids) == [0, 1, 0]

    def test_has_node(self):
        c = Circuit()
        c.node("x")
        assert c.has_node("x")
        assert not c.has_node("y")

    def test_tuple_keys(self):
        c = Circuit()
        key = ("vdd", 0, 3, 4)
        assert c.node(key) == c.node(("vdd", 0, 3, 4))

    def test_ground_registration(self):
        c = Circuit()
        gid = c.set_ground("gnd")
        assert c.ground == gid


class TestNodeBlocks:
    """A node block resolves its keys by arithmetic, exactly as if each
    key had been created one by one."""

    def test_block_ids_follow_named_nodes(self):
        c = Circuit()
        c.set_ground("gnd")
        ids = c.node_block(("vdd", 0), 2, 3)
        assert ids.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert c.node("after") == 7
        assert c.node_count == 8
        assert c.node(("vdd", 0, 1, 2)) == 6
        assert c.node_keys == ["gnd"] + [
            ("vdd", 0, j, i) for j in range(2) for i in range(3)
        ] + ["after"]

    def test_keys_match_by_equality_like_dict_keys(self):
        c = Circuit()
        c.node_block(("vdd", 0), 3, 3)
        assert c.node(("vdd", np.int64(0), np.int64(2), 1)) == 7
        assert c.node(("vdd", 0, 2.0, True)) == 7
        assert c.has_node(("vdd", 0, 2, 2))
        assert c.node_count == 9

    @pytest.mark.parametrize(
        "key", [("vdd", 0, 3, 0), ("vdd", 0, -1, 0), ("vdd", 0, 1.5, 0), ("vdd", 1, 0, 0),
                ("vdd", 0, 0), ("vdd", 0, "0", 0)]
    )
    def test_keys_outside_a_block_are_named_nodes(self, key):
        c = Circuit()
        c.node_block(("vdd", 0), 3, 3)
        assert not c.has_node(key)
        assert c.node(key) == 9
        assert c.node_keys[9] == key

    def test_duplicate_or_overlapping_block_rejected(self):
        c = Circuit()
        c.node_block(("vdd", 0), 2, 2)
        with pytest.raises(ValueError, match="already exists"):
            c.node_block(("vdd", 0), 2, 2)
        c.node(("gnd", 0, 1, 1))
        with pytest.raises(ValueError, match="overlaps"):
            c.node_block(("gnd", 0), 2, 2)
        assert c.node_count == 5
        with pytest.raises(TypeError):
            c.node_block("gnd", 2, 2)

    @given(
        blocks=st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=4
        ),
        named=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_equals_per_key_path(self, blocks, named):
        """Same ids, keys, order and mesh matrix as per-key creation."""
        per_key, block = Circuit(), Circuit()
        for c in (per_key, block):
            c.set_ground("gnd")
        for k, (rows, cols) in enumerate(blocks):
            for c in (per_key, block):
                for n in range(named):
                    c.node(("pad", k, n))
            keys = [("mesh", k, j, i) for j in range(rows) for i in range(cols)]
            old = per_key.nodes(keys).reshape(rows, cols)
            new = block.node_block(("mesh", k), rows, cols)
            assert np.array_equal(old, new)
            for c, ids in ((per_key, old), (block, new)):
                c.add_resistors(ids[:, :-1].ravel(), ids[:, 1:].ravel(),
                                np.ones(rows * (cols - 1)))
                c.add_resistors(ids[:-1, :].ravel(), ids[1:, :].ravel(),
                                np.ones((rows - 1) * cols))
                c.add_resistors(ids[:1, 0], np.array([c.ground]), [1.0])
        assert per_key.node_count == block.node_count
        assert per_key.node_keys == block.node_keys
        keys = per_key.node_keys
        assert np.array_equal(per_key.nodes(keys), block.nodes(keys))
        assert all(block.has_node(key) for key in keys)
        a, b = per_key.assemble()._matrix, block.assemble()._matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


class TestElementConstruction:
    def test_add_resistor_returns_ref(self):
        c = Circuit()
        ref = c.add_resistor("a", "b", 2.0)
        assert ref.kind == RESISTOR
        assert ref.count == 1
        assert c.count(RESISTOR) == 1

    def test_resistor_rejects_nonpositive(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_resistor("a", "b", 0.0)

    def test_bulk_resistors(self):
        c = Circuit()
        ref = c.add_resistors(["a", "b"], ["b", "c"], [1.0, 2.0], tag="grid")
        assert ref.count == 2
        assert list(ref.indices) == [0, 1]

    def test_bulk_resistors_length_mismatch(self):
        c = Circuit()
        with pytest.raises(ValueError, match="equal lengths"):
            c.add_resistors(["a"], ["b", "c"], [1.0, 2.0])

    def test_bulk_accepts_resolved_ids(self):
        c = Circuit()
        ids = c.nodes(["a", "b", "c"])
        c.add_resistors(ids[:2], ids[1:], np.array([1.0, 1.0]))
        assert c.count(RESISTOR) == 2

    def test_resolved_ids_out_of_range_rejected(self):
        c = Circuit()
        c.node("a")
        with pytest.raises(ValueError, match="out of range"):
            c.add_resistors(np.array([5]), np.array([0]), [1.0])

    def test_converter_rejects_nonpositive_rseries(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_converter("t", "b", "m", r_series=-0.1)

    def test_tag_indices(self):
        c = Circuit()
        c.add_resistor("a", "b", 1.0, tag="x")
        c.add_resistor("b", "c", 1.0, tag="y")
        c.add_resistor("c", "d", 1.0, tag="x")
        store = c.store(RESISTOR)
        assert list(store.tag_indices("x")) == [0, 2]
        assert list(store.tag_indices("y")) == [1]
        assert list(store.tag_indices("missing")) == []

    def test_tags_listing(self):
        c = Circuit()
        c.add_current_source("a", "b", 1.0, tag="load")
        c.add_current_source("b", "c", 1.0, tag="load")
        assert c.tags(ISOURCE) == ["load"]

    def test_store_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Circuit().store("capacitor")


class TestAssemblyPreconditions:
    def test_assemble_requires_ground(self):
        c = Circuit()
        c.add_resistor("a", "b", 1.0)
        with pytest.raises(ValueError, match="ground"):
            c.assemble()

    def test_assemble_requires_elements(self):
        c = Circuit()
        c.set_ground("gnd")
        with pytest.raises(ValueError, match="conducting"):
            c.assemble()
