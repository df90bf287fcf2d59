"""Edit sessions over HTTP: store semantics plus the /sessions routes."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.incremental.session import IncrementalSession
from repro.service.api import local_service
from repro.service.sessions import SessionError, SessionStore

SOURCE = """
class Item { }
class Box {
    field v;
    method set(x) { this.v = x; }
    method get()  { r = this.v; return r; }
}
class Main {
    static method main() {
        b = new Box();
        o = new Item();
        b.set(o);
        g = b.get();
    }
}
"""


# ----------------------------------------------------------------------
# Store unit tests (no HTTP)
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_create_validates_payload(self):
        store = SessionStore()
        with pytest.raises(SessionError, match="JSON object"):
            store.create([])
        with pytest.raises(SessionError, match="unknown session fields"):
            store.create({"source": SOURCE, "bogus": 1})
        with pytest.raises(SessionError, match="exactly one"):
            store.create({})
        with pytest.raises(SessionError, match="exactly one"):
            store.create({"benchmark": "antlr", "source": SOURCE})
        with pytest.raises(SessionError, match="unknown session fields"):
            store.create({"source": SOURCE, "engine": "solver"})
        with pytest.raises(SessionError, match="positive integer"):
            store.create({"source": SOURCE, "max_tuples": 0})
        with pytest.raises(SessionError, match="unknown benchmark"):
            store.create({"benchmark": "nope"})
        with pytest.raises(SessionError):
            store.create({"source": SOURCE, "analysis": "3dwave"})

    def test_capacity_limit_is_a_409(self):
        store = SessionStore(max_sessions=1)
        store.create({"source": SOURCE, "analysis": "insens"})
        with pytest.raises(SessionError) as exc:
            store.create({"source": SOURCE, "analysis": "insens"})
        assert exc.value.status == 409

    def test_lifecycle_and_edit_rollback(self):
        store = SessionStore()
        record = store.create({"source": SOURCE, "analysis": "insens"})
        assert store.get(record.id) is record
        assert len(store) == 1

        out = store.apply_edits(
            record.id,
            {"edits": [{"op": "add-class", "name": "ZNew"}]},
        )
        assert out["session_id"] == record.id
        assert out["edits_applied"] == 1
        assert out["tier"] in ("noop", "monotonic", "rederive", "full")
        assert "result_delta" in out and "timing" in out

        # A rejected script must leave the session unchanged...
        with pytest.raises(SessionError, match="session unchanged"):
            store.apply_edits(
                record.id,
                {"edits": [{"op": "add-class", "name": "ZNew"}]},
            )
        assert record.session.edits_applied == 1
        assert record.session.check_against_scratch() == []

        # ... and junk payloads are 400s, unknown sessions 404s.
        with pytest.raises(SessionError, match="'edits'"):
            store.apply_edits(record.id, {"nope": []})
        with pytest.raises(SessionError) as exc:
            store.apply_edits("ffffffffffff", {"edits": []})
        assert exc.value.status == 404

        assert store.delete(record.id) is True
        assert store.delete(record.id) is False
        assert len(store) == 0


# ----------------------------------------------------------------------
# HTTP routes
# ----------------------------------------------------------------------
def _req(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestSessionRoutes:
    @pytest.fixture(scope="class")
    def base(self):
        with local_service(workers=0) as url:
            yield url

    def test_full_session_lifecycle(self, base):
        status, created = _req(
            base + "/sessions",
            "POST",
            {"source": SOURCE, "analysis": "2objH"},
        )
        assert status == 201, created
        sid = created["id"]
        assert "engine" not in created
        assert created["edits_url"] == f"/sessions/{sid}/edits"
        assert created["initial_solve_seconds"] >= 0

        status, listed = _req(base + "/sessions")
        assert status == 200
        assert sid in {s["id"] for s in listed["sessions"]}

        status, outcome = _req(
            base + f"/sessions/{sid}/edits",
            "POST",
            {
                "edits": [
                    {
                        "op": "insert-instruction",
                        "method_id": "Main.main/0",
                        "instruction": {
                            "op": "alloc",
                            "target": "zv",
                            "class": "Box",
                        },
                    }
                ]
            },
        )
        assert status == 200, outcome
        assert outcome["tier"] == "monotonic"
        assert outcome["result_delta"]["added"]
        assert outcome["timing"]["solve_seconds"] >= 0
        assert outcome["edits_applied"] == 1

        status, snap = _req(base + f"/sessions/{sid}")
        assert status == 200
        assert snap["edits_applied"] == 1
        assert snap["tier_counts"].get("monotonic") == 1

        status, health = _req(base + "/healthz")
        assert health["sessions"] >= 1

        status, deleted = _req(base + f"/sessions/{sid}", "DELETE")
        assert status == 200 and deleted["deleted"] is True
        status, _ = _req(base + f"/sessions/{sid}")
        assert status == 404

    def test_error_statuses(self, base):
        status, err = _req(base + "/sessions", "POST", {"bogus": True})
        assert status == 400 and "error" in err
        status, err = _req(
            base + "/sessions/ffffffffffff/edits", "POST", {"edits": []}
        )
        assert status == 404
        status, err = _req(base + "/sessions/ffffffffffff", "DELETE")
        assert status == 404

    def test_deletion_is_rederived_and_counted(self, base):
        _, created = _req(
            base + "/sessions", "POST", {"source": SOURCE, "analysis": "2objH"}
        )
        sid = created["id"]
        # Box.get's ``return r``: its caller's ``g`` loses the item.
        status, outcome = _req(
            base + f"/sessions/{sid}/edits",
            "POST",
            {"edits": [
                {"op": "delete-instruction", "method_id": "Box.get/0", "index": 1}
            ]},
        )
        assert status == 200, outcome
        assert outcome["tier"] == "rederive"
        assert outcome["reason"].startswith("rederive: FORMALRETURN; ")
        assert outcome["result_delta"]["removed"]["VARPOINTSTO"]["count"] >= 1
        with urllib.request.urlopen(base + "/metrics") as resp:
            metrics = resp.read().decode()
        assert 'repro_service_session_edits_total{tier="rederive"} ' in metrics
        _req(base + f"/sessions/{sid}", "DELETE")

    def test_rejected_edit_keeps_session(self, base):
        _, created = _req(
            base + "/sessions", "POST", {"source": SOURCE, "analysis": "insens"}
        )
        sid = created["id"]
        status, err = _req(
            base + f"/sessions/{sid}/edits",
            "POST",
            {"edits": [{"op": "remove-class", "name": "NoSuchClass"}]},
        )
        assert status == 400
        assert "session unchanged" in err["error"]
        status, snap = _req(base + f"/sessions/{sid}")
        assert status == 200 and snap["edits_applied"] == 0
        _req(base + f"/sessions/{sid}", "DELETE")

    def test_server_fault_is_a_500_and_keeps_session(self, base, monkeypatch):
        # Not a bad edit but a fault inside the solve: a 500 with the
        # exception named, and the session still answers.
        _, created = _req(
            base + "/sessions", "POST", {"source": SOURCE, "analysis": "insens"}
        )
        sid = created["id"]

        def broken(_session, _script):
            raise RuntimeError("solver invariant violated")

        monkeypatch.setattr(IncrementalSession, "apply", broken)
        status, err = _req(
            base + f"/sessions/{sid}/edits",
            "POST",
            {"edits": [{"op": "add-class", "name": "ZNew"}]},
        )
        assert status == 500
        assert err["error"] == "RuntimeError: solver invariant violated"
        status, snap = _req(base + f"/sessions/{sid}")
        assert status == 200 and snap["edits_applied"] == 0
        _req(base + f"/sessions/{sid}", "DELETE")
