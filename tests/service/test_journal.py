"""The crash-safe job journal: framing, recovery, and the pending fold."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    pending_jobs,
    read_journal,
)

SPEC = {"benchmark": "antlr", "analysis": "insens"}


def _seed(path: str) -> "tuple[bytes, list[int]]":
    """Write a representative journal; return (bytes, line-end offsets)."""
    journal = JobJournal(path)
    journal.accepted("job000000001", SPEC)
    journal.accepted("job000000002", {**SPEC, "analysis": "2objH"})
    journal.done("job000000001", "done")
    journal.accepted("job000000003", SPEC)
    journal.requeue("job000000003", attempts=1, worker="w1")
    journal.accepted("job000000004", SPEC)
    journal.done("job000000003", "done")
    journal.close()
    data = Path(path).read_bytes()
    ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
    return data, ends


class TestFraming:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        rec = journal.accepted("aaaa", SPEC)
        journal.close()
        assert rec["schema"] == JOURNAL_SCHEMA
        assert rec["seq"] == 0 and rec["type"] == "accepted"
        records, good_bytes, torn = read_journal(path)
        assert records == [rec]
        assert good_bytes == os.path.getsize(path)
        assert torn == 0

    def test_seq_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = JobJournal(path)
        first.accepted("aaaa", SPEC)
        first.close()
        second = JobJournal(path)
        assert second.append("done", id="aaaa", state="done")["seq"] == 1
        second.close()

    def test_unknown_record_type_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        try:
            journal.append("exploded")
            raise AssertionError("expected ValueError")
        except ValueError:
            pass
        finally:
            journal.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == ([], 0, 0)


class TestRecovery:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation_at_any_byte_offset_recovers_acked_prefix(self, data):
        """Model a crash mid-append: kill the file at an arbitrary byte.

        Every record fully written before the cut must be recovered
        exactly once, in order; the torn tail must be discarded and
        truncated so subsequent appends are clean.
        """
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "j.jsonl")
            full, ends = _seed(path)
            offset = data.draw(st.integers(0, len(full)), label="cut_offset")
            Path(path).write_bytes(full[:offset])

            recovered = JobJournal(path)
            try:
                intact = sum(1 for end in ends if end <= offset)
                # Exactly the fully-acked prefix, each record once.
                assert [r["seq"] for r in recovered.records] == list(
                    range(intact)
                )
                assert recovered.torn_records == (
                    0 if offset in (0, *ends) else 1
                )
                # The torn tail is gone from disk.
                expected_size = ends[intact - 1] if intact else 0
                assert os.path.getsize(path) == expected_size
                # Appends continue with the next sequence number …
                appended = recovered.append("done", id="x", state="done")
                assert appended["seq"] == intact
            finally:
                recovered.close()
            # … and the healed journal reads back clean.
            records, _, torn = read_journal(path)
            assert len(records) == intact + 1
            assert torn == 0

    def test_corrupt_middle_record_stops_reading(self, tmp_path):
        """A flipped byte mid-file distrusts everything after it."""
        path = str(tmp_path / "j.jsonl")
        full, ends = _seed(path)
        corrupt = bytearray(full)
        corrupt[ends[1] + 5] ^= 0xFF  # inside the third record
        Path(path).write_bytes(bytes(corrupt))
        records, good_bytes, torn = read_journal(path)
        assert len(records) == 2
        assert good_bytes == ends[1]
        assert torn == 1

    def test_foreign_schema_is_torn(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {"schema": "other/9", "seq": 0, "type": "accepted",
                  "id": "a", "check": "000000000000"}
        path.write_text(json.dumps(record) + "\n")
        records, good_bytes, torn = read_journal(str(path))
        assert records == [] and good_bytes == 0 and torn == 1


class TestPendingFold:
    def test_done_jobs_drop_out(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _seed(path)
        records, _, _ = read_journal(path)
        pending, attempts = pending_jobs(records)
        # job1 done, job3 requeued-then-done; 2 and 4 remain pending.
        assert sorted(pending) == ["job000000002", "job000000004"]
        assert pending["job000000002"]["spec"]["analysis"] == "2objH"
        assert attempts == {}

    def test_requeue_attempts_survive_for_pending_jobs(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.accepted("aaaa", SPEC)
        journal.requeue("aaaa", attempts=1, worker="w1")
        journal.requeue("aaaa", attempts=2, worker="w2")
        pending, attempts = journal.pending()
        journal.close()
        assert set(pending) == {"aaaa"}
        assert attempts == {"aaaa": 2}
