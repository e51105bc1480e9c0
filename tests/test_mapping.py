import json

import pytest

from crflight.mapping import Mapping, build_mapping
from crflight.model import LatticePoint, LogicalQubit, PhysicalParams


def params(d=4, r_max=6.0):
    return PhysicalParams(1.0, d, 2.5, 1.0, 1.0, r_max)


class TestBuildMapping:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            build_mapping(0, 1, params())
        with pytest.raises(ValueError):
            build_mapping(1, 0, params())

    def test_unit_cell(self):
        m = build_mapping(1, 1, params())
        assert len(m.qubits) == 1
        q = m.qubits[0]
        assert q.holes[0].center == LatticePoint(4, 4)
        assert q.holes[1].center == LatticePoint(8, 4)

    def test_tiling_shares_structure(self):
        m = build_mapping(2, 2, params())
        assert len(m.qubits) == 4
        xs = sorted({q.holes[0].center.x for q in m.qubits})
        ys = sorted({q.holes[0].center.y for q in m.qubits})
        assert xs == [4, 12]
        assert ys == [4, 12]

    def test_no_hole_overlap(self):
        m = build_mapping(4, 4, params())
        centers = [(h.center.x, h.center.y) for q in m.qubits for h in q.holes]
        side = m.params.d / 4.0
        for i, a in enumerate(centers):
            for b in centers[i + 1:]:
                assert abs(a[0] - b[0]) >= side or abs(a[1] - b[1]) >= side

    def test_channels_are_hole_free(self):
        m = build_mapping(3, 3, params())
        half = m.params.d / 8.0
        for y in m.channel_ys:
            for q in m.qubits:
                for h in q.holes:
                    assert abs(h.center.y - y) > half

    def test_every_qubit_adjacent_to_channels(self):
        m = build_mapping(3, 2, params())
        for q in m.qubits:
            y = q.holes[0].center.y
            d = m.params.d
            assert (y - d) in m.channel_ys
            assert (y + d) in m.channel_ys

    def test_physical_dimensions(self):
        m = build_mapping(2, 3, PhysicalParams(2.0, 4, 2.5, 1.0, 1.0, 6.0))
        assert m.width_mm == m.width_units * 2.0
        assert m.height_mm == m.height_units * 2.0


class TestSerialization:
    def test_json_document(self):
        m = build_mapping(2, 2, params())
        doc = json.loads(m.to_json())
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert doc["code_distance"] == 4
        assert len(doc["qubits"]) == 4
        assert doc["channel_ys"] == list(m.channel_ys)
        assert doc["qubits"][0]["holes"] == [[4, 4], [8, 4]]

    def test_json_deterministic(self):
        m = build_mapping(2, 2, params())
        assert m.to_json() == build_mapping(2, 2, params()).to_json()


class TestSingleQubitMapping:
    def test_wraps_explicit_qubit(self):
        q = LogicalQubit(LatticePoint(7, 0), 5)
        m = Mapping(1, 1, params(d=5), (q,), 40, 20)
        assert m.qubits == (q,)
        assert m.width_units == 40
        assert m.channel_ys == (5,)  # y - d = -5 is out of bounds

    def test_rejects_qubit_with_other_code_distance(self):
        # The planner moves each hole by params.d: a d = 5 qubit in a d = 4
        # mapping once planned hole0 -> (8, 4) and hole1 -> (12, 4), 4 apart.
        q = LogicalQubit(LatticePoint(8, 8), 5)
        with pytest.raises(ValueError, match="code_distance must be 4"):
            Mapping(1, 1, params(d=4), (q,), 40, 20)
