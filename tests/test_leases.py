"""The multi-host campaign layer: leases, shards, merge, recovery.

The load-bearing guarantees under test:

* a lease is held by exactly one host — acquisition is atomic and a
  fresh lease is never breakable;
* a dead host's lease ages past its TTL and is reclaimed by exactly one
  contender; the presumed-dead owner cannot resurrect it (``refresh``
  raises instead of overwriting the reclaimer's lease);
* a torn lease body (SIGKILL mid-write) parses as stale and is
  breakable immediately;
* ``done`` markers retire chunks permanently;
* two hosts claiming concurrently over one shared store, merged, are
  byte-identical to a serial single-host run — including after one host
  is SIGKILLed mid-chunk and its work is reclaimed;
* ``merge_shards`` accounts torn lines per shard, treats byte-identical
  cross-shard duplicates as idempotent, and raises on a payload
  disagreement (a broken determinism contract, never silent).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, render_report, run_campaign
from repro.campaigns.cli import main as cli_main
from repro.campaigns.executor import claim_chunk_size
from repro.campaigns.leases import LeaseManager, chunk_id
from repro.campaigns.store import merge_shards

REPO_ROOT = Path(__file__).parent.parent


class FakeClock:
    """An injectable clock so TTL expiry is deterministic, not slept for."""

    def __init__(self, now: float = 1_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def claim_spec(**overrides) -> CampaignSpec:
    """A campaign small enough to race two hosts over in a unit test."""
    payload = dict(
        name="claimable",
        kind="exact_poa",
        seed=7,
        grids=(
            {
                "family": "trees",
                "n": 6,
                "alpha": [2, "9/2"],
                "concept": ["PS", "BGE"],
            },
            {
                "kind": "dynamics",
                "concept": "PS",
                "n": 7,
                "alpha": 3,
                "max_rounds": 200,
                "index": {"$range": 3},
            },
        ),
    )
    payload.update(overrides)
    return CampaignSpec(**payload)


def _comparable_records(store: CampaignStore) -> dict:
    records = {}
    for record in store.ok_records():
        stripped = dict(record)
        stripped.pop("elapsed")
        records[record["key"]] = stripped
    return records


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- the lease protocol, under an injected clock -----------------------------


class TestLeaseProtocol:
    def test_acquire_is_exclusive_and_reentrant_for_the_holder(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=10.0, clock=clock)
        b = LeaseManager(tmp_path, "host-b", ttl=10.0, clock=clock)
        assert a.claim("c1")
        assert "c1" in a.held
        assert a.claim("c1")  # the holder re-claims trivially
        assert not b.claim("c1")  # a fresh lease is never breakable
        assert b.reclaimed == 0
        lease = b.read("c1")
        assert lease.host == "host-a" and lease.ttl == 10.0
        assert not lease.stale(clock())

    def test_heartbeat_pushes_refreshed_forward(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=10.0, clock=clock)
        b = LeaseManager(tmp_path, "host-b", ttl=10.0, clock=clock)
        assert a.claim("c1")
        acquired = a.read("c1").acquired
        clock.advance(8.0)
        a.refresh("c1")
        lease = a.read("c1")
        assert lease.refreshed == clock() and lease.acquired == acquired
        # 9s past the *refresh* is within the TTL even though 17s have
        # passed since the acquire — staleness is heartbeat-relative
        clock.advance(9.0)
        assert not b.claim("c1")

    def test_ttl_expiry_reclaim_and_fenced_out_owner(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=10.0, clock=clock)
        b = LeaseManager(tmp_path, "host-b", ttl=10.0, clock=clock)
        assert a.claim("c1")
        clock.advance(10.5)  # past the TTL with no heartbeat: host-a "died"
        assert b.claim("c1")
        assert b.reclaimed == 1
        assert b.read("c1").host == "host-b"
        # the presumed-dead owner must not resurrect its lease: the
        # ownership check fences it out with a diagnosable error
        with pytest.raises(ValueError, match="reclaimed by host-b"):
            a.refresh("c1")
        assert "c1" not in a.held
        # ...and its release is a no-op against the reclaimer's lease
        a.release("c1")
        assert b.read("c1").host == "host-b"

    def test_torn_lease_body_is_breakable_immediately(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=1_000.0, clock=clock)
        (tmp_path / "claims" / "c1.lease").write_text('{"host": "dead", "acq')
        lease = a.read("c1")
        assert lease.host == "?" and lease.stale(clock())
        assert a.claim("c1")  # no TTL wait: torn == stale
        assert a.reclaimed == 1

    def test_done_marker_retires_a_chunk_permanently(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=10.0, clock=clock)
        b = LeaseManager(tmp_path, "host-b", ttl=10.0, clock=clock)
        assert a.claim("c1")
        a.release("c1", done=True)
        assert a.is_done("c1") and b.is_done("c1")
        assert a.read("c1") is None  # the lease itself is dropped
        assert not a.claim("c1") and not b.claim("c1")
        clock.advance(1_000.0)  # done is forever, not TTL-bound
        assert not b.claim("c1")

    def test_release_all_and_active_listing(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(tmp_path, "host-a", ttl=10.0, clock=clock)
        assert a.claim("c1") and a.claim("c2")
        assert {lease.chunk for lease in a.active()} == {"c1", "c2"}
        a.release_all()
        assert a.held == set() and a.active() == []

    def test_manager_rejects_unsafe_identities(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty host id"):
            LeaseManager(tmp_path, "")
        with pytest.raises(ValueError, match="filename-safe"):
            LeaseManager(tmp_path, "a/b")
        with pytest.raises(ValueError, match="ttl must be positive"):
            LeaseManager(tmp_path, "a", ttl=0.0)

    def test_chunk_id_is_content_addressed(self):
        keys = ["k1", "k2", "k3"]
        assert chunk_id(keys) == chunk_id(tuple(keys))
        assert chunk_id(keys) != chunk_id(["k1", "k2"])
        assert chunk_id(keys) != chunk_id(["k2", "k1", "k3"])
        assert claim_chunk_size(7) == 1  # tiny campaigns: per-trial chunks
        assert claim_chunk_size(10_000) == 32


# -- sharded execution + merge -----------------------------------------------


class TestShardsAndMerge:
    def test_two_claiming_hosts_merge_byte_identical_to_serial(self, tmp_path):
        """Two concurrent ``run --claim`` processes over one shared store,
        merged, reproduce a serial single-host run byte-for-byte."""
        spec = claim_spec()
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store_dir = tmp_path / "shared"

        def host(host_id: str) -> subprocess.Popen:
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro.campaigns", "run",
                    str(spec_path), "--store", str(store_dir),
                    "--claim", "--host-id", host_id, "--quiet",
                ],
                env=_cli_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        procs = [host("host-a"), host("host-b")]
        for proc in procs:
            assert proc.wait(timeout=300) == 0

        sharded = CampaignStore(store_dir)
        shard_names = [path.name for path in sharded.shard_paths()]
        assert shard_names  # at least one host actually wrote a shard
        assert len(sharded.completed_keys()) == len(spec.trials())
        # every chunk retired: a third claiming run has nothing to take
        with CampaignStore(store_dir, host_id="host-c") as late:
            stats = run_campaign(spec, late, claim=True)
        assert stats.executed == 0 and stats.claimed_chunks == 0
        assert stats.lease_skips + stats.skipped > 0

        assert cli_main(["merge", str(store_dir), "--prune"]) == 0
        merged = CampaignStore(store_dir)
        assert merged.shard_paths() == []  # collapsed to single-file layout
        assert (store_dir / "results.jsonl").exists()

        serial = CampaignStore(tmp_path / "serial")
        with serial:
            assert run_campaign(spec, serial).failed == 0
        assert _comparable_records(merged) == _comparable_records(serial)
        assert render_report(spec, merged) == render_report(spec, serial)

    def test_sigkilled_host_is_reclaimed_and_merge_stays_identical(
        self, tmp_path
    ):
        """The full recovery story: SIGKILL host-a mid-chunk, let its lease
        age past the TTL, reclaim as host-b, merge, compare to serial."""
        spec = claim_spec(
            name="killable-claim",
            grids=(
                {
                    "kind": "dynamics",
                    "concept": "BGE",
                    "n": 22,
                    "alpha": 3,
                    "max_rounds": 500,
                    "index": {"$range": 6},
                },
            ),
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store_dir = tmp_path / "shared"
        ttl = 1.0
        # one chunk spanning the whole campaign, so the victim holds its
        # lease for the entire run and the kill always lands mid-chunk
        chunk = len(spec.trials())
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaigns", "run",
                str(spec_path), "--store", str(store_dir),
                "--claim", "--host-id", "host-a",
                "--lease-ttl", str(ttl), "--chunk-size", str(chunk),
                "--quiet",
            ],
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        shard = store_dir / "results-host-a.jsonl"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if shard.exists() and shard.read_text().count("\n") >= 2:
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill it — still fine
                time.sleep(0.05)
            else:
                pytest.fail("claiming host produced no records within 120s")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        orphaned = list((store_dir / "claims").glob("*.lease"))
        time.sleep(ttl + 0.5)  # let the orphaned lease age past its TTL

        with CampaignStore(store_dir, host_id="host-b") as rescuer:
            stats = run_campaign(
                spec, rescuer, claim=True, lease_ttl=ttl, chunk_size=chunk,
            )
        assert stats.failed == 0
        if orphaned:  # the overwhelmingly common path: killed mid-chunk
            assert stats.reclaimed == 1
        assert len(CampaignStore(store_dir).completed_keys()) == len(
            spec.trials()
        )

        merge_shards(store_dir, prune=True)
        merged = CampaignStore(store_dir)
        fresh = CampaignStore(None)
        assert run_campaign(spec, fresh).failed == 0
        assert _comparable_records(merged) == _comparable_records(fresh)
        assert render_report(spec, merged) == render_report(spec, fresh)

    def test_merge_accounts_torn_lines_per_shard(self, tmp_path):
        spec = claim_spec(name="torn-merge")
        store_dir = tmp_path / "store"
        with CampaignStore(store_dir, host_id="host-a") as a:
            run_campaign(spec, a, claim=True, max_trials=3)
        with CampaignStore(store_dir, host_id="host-b") as b:
            stats_b = run_campaign(spec, b, claim=True)
        assert stats_b.failed == 0
        # a SIGKILL mid-append leaves a torn, newline-less final line
        shard_a = store_dir / "results-host-a.jsonl"
        with shard_a.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "torn-mid-wri')

        stats = merge_shards(store_dir)
        assert stats.corrupt_lines["results-host-a.jsonl"] == 1
        assert stats.corrupt_lines["results-host-b.jsonl"] == 0
        assert stats.records["results-host-a.jsonl"] == 3
        assert stats.total_merged == len(spec.trials())
        assert not stats.pruned

        # merging again is a no-op: everything is an idempotent duplicate
        again = merge_shards(store_dir, prune=True)
        assert again.total_merged == 0
        assert sum(again.duplicates.values()) == len(spec.trials())
        assert sorted(again.pruned) == [
            "results-host-a.jsonl", "results-host-b.jsonl",
        ]
        merged = CampaignStore(store_dir)
        assert len(merged.completed_keys()) == len(spec.trials())
        assert merged.corrupt_lines == 0  # the torn line never merged

    def test_cross_shard_payload_disagreement_raises(self, tmp_path):
        spec = claim_spec(name="disagree")
        store_dir = tmp_path / "store"
        with CampaignStore(store_dir) as store:
            run_campaign(spec, store, max_trials=2)
        line = (store_dir / "results.jsonl").read_text().splitlines()[0]
        record = json.loads(line)
        # elapsed is ambient — two hosts legitimately differ there
        record["elapsed"] = record["elapsed"] + 1.0
        benign = dict(record)
        (store_dir / "results-benign.jsonl").write_text(
            json.dumps(benign, sort_keys=True) + "\n"
        )
        assert len(CampaignStore(store_dir).completed_keys()) == 2
        stats = merge_shards(store_dir, prune=True)
        assert stats.duplicates["results-benign.jsonl"] == 1

        # ...but a *payload* difference is a broken determinism contract
        record["result"] = {"forged": True}
        (store_dir / "results-evil.jsonl").write_text(
            json.dumps(record, sort_keys=True) + "\n"
        )
        with pytest.raises(ValueError, match="disagree"):
            CampaignStore(store_dir)
        with pytest.raises(ValueError, match="disagree"):
            merge_shards(store_dir)

    def test_cli_guards(self, tmp_path):
        spec = claim_spec(name="guards")
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        with pytest.raises(SystemExit, match="--host-id"):
            cli_main([
                "run", str(spec_path), "--store", str(tmp_path / "s"),
                "--host-id", "lonely",
            ])
        with pytest.raises(ValueError, match="on-disk store"):
            run_campaign(claim_spec(), CampaignStore(None), claim=True)
