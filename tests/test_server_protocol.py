"""Wire format of the solver daemon: framing, task specs, validation."""

from __future__ import annotations

import json

import pytest

from repro.core.identity import instance_digest
from repro.core.serialization import instance_from_dict
from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    InstanceTable,
    ProtocolError,
    SolveTaskSpec,
    decode_line,
    encode_line,
)
from repro.solvers.registry import get_solver
from tests.conftest import random_instance


@pytest.fixture(scope="module")
def pair():
    return random_instance(6, 4, seed=11, family="E1")


class TestFraming:
    def test_encode_is_one_newline_terminated_line(self):
        line = encode_line({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_encoding_is_byte_stable(self):
        # same document, different insertion order -> same bytes (the smoke
        # tests cmp stdout produced from these lines)
        a = encode_line({"op": "solve", "id": 1, "task": {"x": 1, "y": 2}})
        b = encode_line({"task": {"y": 2, "x": 1}, "id": 1, "op": "solve"})
        assert a == b

    def test_round_trip(self):
        doc = {"op": "batch", "id": 3, "tasks": [{"solver": "H1"}]}
        assert decode_line(encode_line(doc)) == doc

    def test_undecodable_line_raises(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{not json\n")

    def test_non_object_line_raises(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")

    def test_protocol_constants_sane(self):
        assert PROTOCOL_VERSION == 1
        assert MAX_LINE_BYTES >= 1024 * 1024


class TestSolveTaskSpec:
    def test_round_trip_preserves_instance_and_bounds(self, pair):
        app, platform = pair
        spec = SolveTaskSpec(
            application=app,
            platform=platform,
            solver="H1",
            period_bound=12.0,
            latency_bound=60.0,
            max_steps=100,
        )
        again = SolveTaskSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.solver == "H1"
        assert again.period_bound == 12.0
        assert again.latency_bound == 60.0
        assert again.max_steps == 100
        assert again.time_budget is None
        # the embedded instance survives the round trip exactly
        a0, p0, _ = instance_from_dict(spec.to_dict()["instance"])
        a1, p1, _ = instance_from_dict(again.to_dict()["instance"])
        assert (a0.works == a1.works).all() and (p0.speeds == p1.speeds).all()

    def test_missing_instance_rejected(self):
        with pytest.raises(ProtocolError, match="instance"):
            SolveTaskSpec.from_dict({"solver": "H1"})

    def test_missing_solver_rejected(self, pair):
        app, platform = pair
        document = SolveTaskSpec(app, platform, "H1").to_dict()
        document["solver"] = "  "
        with pytest.raises(ProtocolError, match="solver"):
            SolveTaskSpec.from_dict(document)

    def test_non_numeric_bound_rejected(self, pair):
        app, platform = pair
        document = SolveTaskSpec(app, platform, "H1").to_dict()
        document["period_bound"] = "twelve"
        with pytest.raises(ProtocolError, match="period_bound"):
            SolveTaskSpec.from_dict(document)

    def test_fractional_max_steps_rejected(self, pair):
        app, platform = pair
        document = SolveTaskSpec(app, platform, "H1").to_dict()
        document["max_steps"] = 1.5
        with pytest.raises(ProtocolError, match="max_steps"):
            SolveTaskSpec.from_dict(document)

    def test_corrupt_instance_rejected(self, pair):
        app, platform = pair
        document = SolveTaskSpec(app, platform, "H1").to_dict()
        document["instance"] = {"application": {"bogus": True}}
        with pytest.raises(ProtocolError, match="deserialise"):
            SolveTaskSpec.from_dict(document)


def _wire(spec: SolveTaskSpec) -> dict:
    """``spec``'s document as the daemon receives it: through the wire."""
    return decode_line(encode_line(spec.to_dict()))


class TestInstanceTable:
    def test_same_document_decodes_to_the_same_objects(self, pair):
        app, platform = pair
        table = InstanceTable()
        first = SolveTaskSpec.from_dict(
            _wire(SolveTaskSpec(app, platform, "H1")), table
        )
        again = SolveTaskSpec.from_dict(
            _wire(SolveTaskSpec(app, platform, "H2", period_bound=9.0)), table
        )
        assert again.application is first.application
        assert again.platform is first.platform
        assert len(table) == 1

    def test_display_name_gets_its_own_entry_with_the_same_result(self, pair):
        app, platform = pair
        table = InstanceTable()
        plain = _wire(SolveTaskSpec(app, platform, "H1", period_bound=12.0))
        renamed = _wire(SolveTaskSpec(app, platform, "H1", period_bound=12.0))
        renamed["instance"]["application"]["name"] = "renamed"
        a = SolveTaskSpec.from_dict(plain, table)
        b = SolveTaskSpec.from_dict(renamed, table)
        assert len(table) == 2
        assert b.application is not a.application
        assert b.application.name == "renamed" != a.application.name
        # names are display metadata: same digest, same answer
        assert instance_digest(a.application, a.platform) == instance_digest(
            b.application, b.platform
        )
        handle = get_solver("H1")
        request = handle.default_request(period_bound=12.0)
        assert (
            handle.solve(a.application, a.platform, request).identity()
            == handle.solve(b.application, b.platform, request).identity()
        )

    def test_malformed_instance_is_rejected_every_time_and_never_stored(self, pair):
        app, platform = pair
        table = InstanceTable()
        SolveTaskSpec.from_dict(_wire(SolveTaskSpec(app, platform, "H1")), table)
        document = _wire(SolveTaskSpec(app, platform, "H1"))
        document["instance"]["application"]["works"] = "not a vector"
        for _ in range(2):
            with pytest.raises(ProtocolError, match="deserialise"):
                SolveTaskSpec.from_dict(document, table)
        assert len(table) == 1

    def test_table_never_grows_past_its_bound(self):
        table = InstanceTable(maxsize=3)
        documents = [
            _wire(SolveTaskSpec(*random_instance(4, 3, seed=seed, family="E1"), "H1"))[
                "instance"
            ]
            for seed in range(5)
        ]
        decoded = []
        for document in documents:
            decoded.append(table.decode(document))
            assert len(table) <= 3
        assert len(table) == 3
        # least recently used first out: the newest stays, the oldest is gone
        assert table.decode(documents[-1])[0] is decoded[-1][0]
        assert table.decode(documents[0])[0] is not decoded[0][0]
