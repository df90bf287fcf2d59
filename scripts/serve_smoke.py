#!/usr/bin/env python3
"""Crash-safety smoke check for ``repro serve`` with real processes.

Runs ``repro serve --journal F --workers 2 --receipt-dir D`` and kills
parts of it.

Phase 1 — a pool process dies mid-batch:
  * submit a 20-job batch through ``ServiceClient``; one job is a
    multi-second solve, and one pool process is SIGKILLed while it runs;
  * every job must end terminal; the jobs in flight at the kill end
    ``error`` naming ``BrokenProcessPool``; every other job matches an
    in-process ``execute_job`` run (state, facts digest, tuple count);
  * a follow-up job must be ``done`` (the pool replaced itself), and the
    warehouse must hold exactly one receipt per ``done`` job.

Phase 2 — the server dies with pending work:
  * occupy both worker slots with two multi-second solves, queue 5 more
    jobs behind them, and SIGKILL the server with its pool processes;
  * the journal must hold 0 torn records, and the server restarted on it
    must replay every pending job under its original id, with results
    matching in-process runs.

Exit code 0 on success; any assertion failure or timeout is fatal.
Artifacts (journal, receipts, server logs) are left in the directory
named by ``--artifact-dir`` (default: a temp dir printed on exit).
Linux only: pool processes are found through ``/proc``.
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import ServiceClient  # noqa: E402
from repro.service.journal import read_journal  # noqa: E402
from repro.service.workers import execute_job  # noqa: E402

LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")
WORKERS = 2

# 20 distinct (benchmark, flavor) cells for phase 1, then 5 more for the
# replay phase.  Distinct cells mean distinct cache keys, so every job is
# executed uncached and every done job writes exactly one receipt.
BENCHMARKS = [
    "antlr", "bloat", "chart", "eclipse", "hsqldb",
    "jython", "lusearch", "pmd", "xalan",
]
FLAVORS = ["insens", "1call", "2objH"]


def slow_spec(max_tuples):
    """A ~3 s solve; ``max_tuples`` only keeps the cache keys distinct."""
    return {"benchmark": "jython", "analysis": "2callH",
            "max_tuples": max_tuples}


def make_specs():
    grid = [
        {"benchmark": b, "analysis": f}
        for f in FLAVORS
        for b in BENCHMARKS
    ]
    # Two introspective cells so the smoke covers the two-pass pipeline
    # (and pass-1 reuse) too.
    grid.insert(0, {
        "benchmark": "antlr", "analysis": "2objH",
        "introspective": "B", "heuristic_constants": "150,250",
    })
    grid.insert(1, {
        "benchmark": "hsqldb", "analysis": "2objH",
        "introspective": "A",
    })
    # The job phase 1 kills a pool process under.
    grid.insert(4, slow_spec(4_000_000))
    return grid[:20], grid[20:25]


def expected_for(spec):
    payload = execute_job(dict(spec))
    return {
        "state": payload["state"],
        "facts_digest": payload.get("facts_digest"),
        "tuple_count": (payload.get("stats") or {}).get("tuple_count"),
    }


def check_matches(client, job_id, spec, want):
    result = client.result(job_id)
    got = result["result"]
    assert result["state"] == want["state"], (spec, result["state"], want)
    assert got.get("facts_digest") == want["facts_digest"], (spec, "digest")
    assert (got.get("stats") or {}).get("tuple_count") == want["tuple_count"], (
        spec, "tuple_count")


def start_server(artifacts, journal, receipts, tag):
    log_path = artifacts / f"server-{tag}.log"
    log = open(log_path, "w", buffering=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # Its own process group: the pool processes fork into it, so one
    # killpg takes the whole server down.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(WORKERS),
            "--journal", str(journal),
            "--receipt-dir", str(receipts),
        ],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
        start_new_session=True,
    )
    proc._smoke_log = log  # type: ignore[attr-defined]
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"server exited early; see {log_path}")
        match = LISTEN_RE.search(log_path.read_text())
        if match:
            return proc, f"http://{match.group(1)}:{match.group(2)}"
        time.sleep(0.05)
    sys.exit(f"server never announced its port; see {log_path}")


def kill_server(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    proc._smoke_log.close()  # type: ignore[attr-defined]


def pool_pids(server_pid):
    """PIDs of the server's worker processes (its forked children).

    Each thread lists the children it forked, so read every thread's.
    """
    return sorted(
        int(pid)
        for task in Path(f"/proc/{server_pid}/task").iterdir()
        for pid in (task / "children").read_text().split()
    )


def wait_until(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    sys.exit(f"timed out waiting for {what}")


def receipt_count(receipts):
    return len(list(receipts.glob("service-job-*.json")))


def state_of(client, job_id):
    return client.status(job_id)["state"]


def terminal(client, job_ids):
    return all(
        state_of(client, j) not in ("queued", "running") for j in job_ids
    )


def phase1(client, server, receipts, batch, expected):
    job_ids = [client.submit(**spec) for spec in batch]
    slow_id = job_ids[batch.index(slow_spec(4_000_000))]
    wait_until(
        lambda: state_of(client, slow_id) == "running"
        and len(pool_pids(server.pid)) == WORKERS,
        120, "the slow job to run on a full pool",
    )
    victim = pool_pids(server.pid)[0]
    print(f"[smoke] SIGKILLing pool process {victim} mid-batch", flush=True)
    os.kill(victim, signal.SIGKILL)

    wait_until(lambda: terminal(client, job_ids), 300, "all 20 jobs")
    errored = [j for j in job_ids if state_of(client, j) == "error"]
    assert slow_id in errored, "the job in flight at the kill must fail"
    assert len(errored) <= WORKERS, (
        f"{len(errored)} jobs failed, more than could be in flight")
    for job_id in errored:
        error = client.result(job_id)["result"]["error"]
        assert error.startswith("BrokenProcessPool: "), (job_id, error)
    done = 0
    for job_id, spec, want in zip(job_ids, batch, expected):
        if job_id not in errored:
            check_matches(client, job_id, spec, want)
            done += want["state"] == "done"

    follow_up = client.submit(benchmark="antlr", analysis="2typeH")
    assert client.wait(follow_up, timeout=120)["state"] == "done"
    done += 1
    assert receipt_count(receipts) == done, (
        f"expected {done} receipts, found {receipt_count(receipts)}")
    assert client.metric_value("repro_service_pool_restarts_total") == 1
    assert client.metric_value("repro_service_jobs_running") == 0
    print(f"[smoke] phase 1 ok: {len(errored)} in-flight job(s) failed with "
          f"BrokenProcessPool, {len(job_ids) - len(errored)} match in-process "
          f"results, follow-up done, {done} receipts", flush=True)
    return done


def phase2(artifacts, journal, receipts, client, server, extra, done):
    blockers = [slow_spec(5_000_000), slow_spec(6_000_000)]
    blocker_ids = [client.submit(**spec) for spec in blockers]
    wait_until(
        lambda: all(state_of(client, j) == "running" for j in blocker_ids),
        60, "both slots to be busy",
    )
    extra_ids = [client.submit(**spec) for spec in extra]
    assert all(state_of(client, j) == "queued" for j in extra_ids)
    kill_server(server)
    print("[smoke] server SIGKILLed with 5 accepted jobs pending", flush=True)

    _records, _good, torn = read_journal(str(journal))
    assert torn == 0, f"{torn} torn journal records"

    server, url = start_server(artifacts, journal, receipts, "b")
    client = ServiceClient(url)
    pending = list(zip(blocker_ids + extra_ids, blockers + extra))
    assert client.metric_value("repro_service_replayed_jobs_total") == len(
        pending)
    wait_until(
        lambda: terminal(client, [j for j, _ in pending]), 300,
        "the replayed jobs",
    )
    for job_id, spec in pending:
        check_matches(client, job_id, spec, expected_for(spec))
    done += len(pending)
    assert receipt_count(receipts) == done, (
        f"expected {done} receipts, found {receipt_count(receipts)}")
    print(f"[smoke] phase 2 ok: {len(pending)} journal-replayed jobs completed "
          f"with original ids, 0 torn records, {done} receipts total",
          flush=True)
    return server


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact-dir", type=Path, default=None)
    args = parser.parse_args()
    artifacts = args.artifact_dir or Path(
        tempfile.mkdtemp(prefix="serve-smoke-"))
    artifacts.mkdir(parents=True, exist_ok=True)
    journal = artifacts / "journal.jsonl"
    receipts = artifacts / "receipts"

    batch, extra = make_specs()
    print(f"[smoke] computing {len(batch)} expected results in-process",
          flush=True)
    expected = [expected_for(spec) for spec in batch]

    servers = []
    try:
        server, url = start_server(artifacts, journal, receipts, "a")
        servers.append(server)
        client = ServiceClient(url)
        print(f"[smoke] server at {url} with {WORKERS} workers", flush=True)
        done = phase1(client, server, receipts, batch, expected)
        servers.append(
            phase2(artifacts, journal, receipts, client, server, extra, done))
    finally:
        for server in servers:
            kill_server(server)
        print(f"[smoke] artifacts in {artifacts}", flush=True)

    print("[smoke] PASS", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
