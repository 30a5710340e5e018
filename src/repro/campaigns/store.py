"""Append-only, content-addressed result store for campaigns.

Layout of a store directory::

    spec.json            the campaign spec that produced the results
    results.jsonl        canonical record file, append-only
    results-<host>.jsonl per-host shard (``host_id`` stores append here)
    claims/              chunk-claim leases (:mod:`repro.campaigns.leases`)

Each record carries the trial's content hash
(:func:`repro.campaigns.spec.trial_key`), its exactly-encoded parameters
and result (``Fraction`` values survive as tagged ``p/q`` strings —
never floats), a status (``ok`` / ``error``) and the wall time.  The
*manifest* is the key -> record map rebuilt by scanning the JSONL files
on open — the canonical file first, then every shard in sorted name
order; a campaign run consults it to skip every trial that already has
an ``ok`` record, which is what makes runs resumable: kill a campaign at
any point and the next run re-executes only what is missing.

Robustness: a SIGKILL mid-append can leave one torn final line in any
of the files.  The scanner tolerates undecodable lines (counted in
:attr:`CampaignStore.corrupt_lines` overall and per file in
:attr:`CampaignStore.file_corrupt_lines`) instead of failing, so the
affected trial simply re-runs on resume.  Within one file, an ``ok``
record is final — appending a second ``ok`` for the same key is a bug
and raises.  *Across* files the invariant relaxes to idempotence: two
hosts may legitimately race the same trial (a lease reclaimed from a
host presumed dead), and because trials are deterministic their records
must agree byte-for-byte outside the ambient ``elapsed`` field — the
scanner keeps the first and verifies the rest, raising only on a
*disagreement*, which would mean the determinism contract is broken.

:func:`merge_shards` folds the shards into the canonical file (same
idempotence rule, per-shard accounting) so a finished multi-host
campaign collapses back to the single-file layout.

``root=None`` gives an ephemeral in-memory store with the identical
interface, used by the examples and the ported benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

from repro.campaigns.spec import (
    CampaignSpec,
    from_jsonable,
    to_jsonable,
    trial_key,
    upgrade_trial,
)

__all__ = ["CampaignStore", "MergeStats", "TrialRecord", "merge_shards"]

_RESULTS_NAME = "results.jsonl"
_SHARD_GLOB = "results-*.jsonl"
_SPEC_NAME = "spec.json"

#: A decoded results line: key, kind, params, status, result, error, elapsed.
TrialRecord = dict[str, Any]


def _record_identity(record: TrialRecord) -> dict[str, Any]:
    """A record minus its ambient fields — the cross-shard equality basis.

    ``elapsed`` is wall time and differs between two hosts that ran the
    same deterministic trial; everything else must agree exactly.
    """
    return {k: v for k, v in record.items() if k != "elapsed"}


def _read_records(path: Path) -> Iterator[TrialRecord | None]:
    """Every non-blank line of a record file, decoded; ``None`` for a
    torn or undecodable line.

    A record of a legacy PoA kind is re-keyed in memory under its
    ``exact_poa`` spelling (:func:`~repro.campaigns.spec.upgrade_trial`),
    so an old store resumes and reports without a migration.
    """
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict) or not {"key", "status"} <= (
                record.keys()
            ):
                yield None
                continue
            kind, params = upgrade_trial(
                record.get("kind"), record.get("params") or {}
            )
            if kind != record.get("kind"):
                record.update(
                    kind=kind, params=params, key=trial_key(kind, params)
                )
            yield record


class CampaignStore:
    """Manifest + append-only JSONL persistence for one campaign.

    ``host_id`` switches the store into *sharded* mode: appends go to
    ``results-<host_id>.jsonl`` instead of the canonical file, so any
    number of cooperating hosts can write to one store directory on a
    shared filesystem without write contention — each host owns its
    shard, and the scanner folds all of them into one manifest.
    """

    def __init__(self, root: str | Path | None, host_id: str | None = None):
        if host_id is not None and (
            not host_id or any(c in host_id for c in "/\\\0")
        ):
            raise ValueError(f"host id {host_id!r} must be filename-safe")
        self.root = Path(root) if root is not None else None
        self.host_id = host_id
        if host_id is not None and self.root is None:
            raise ValueError("sharded (host_id) stores need an on-disk root")
        self._forget()
        self._handle: IO[str] | None = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._scan()

    # -- scanning / manifest -------------------------------------------------

    @property
    def results_path(self) -> Path | None:
        """The canonical (merged / single-host) record file."""
        return None if self.root is None else self.root / _RESULTS_NAME

    @property
    def append_path(self) -> Path | None:
        """Where this store instance appends: its shard, or the canonical
        file when no ``host_id`` was given."""
        if self.root is None:
            return None
        if self.host_id is None:
            return self.results_path
        return self.root / f"results-{self.host_id}.jsonl"

    @property
    def spec_path(self) -> Path | None:
        return None if self.root is None else self.root / _SPEC_NAME

    def shard_paths(self) -> list[Path]:
        """Every per-host shard present, in sorted (deterministic) order."""
        if self.root is None:
            return []
        return sorted(self.root.glob(_SHARD_GLOB))

    def _scan(self) -> None:
        paths = []
        if self.results_path is not None and self.results_path.exists():
            paths.append(self.results_path)
        paths.extend(self.shard_paths())
        for path in paths:
            self._scan_file(path)

    def _scan_file(self, path: Path) -> None:
        corrupt = 0
        decoded = 0
        for record in _read_records(path):
            if record is None:
                # torn final line from a killed run: the trial it
                # belonged to simply re-runs on resume
                corrupt += 1
                continue
            decoded += 1
            key = record["key"]
            if record["status"] == "ok":
                existing = self._ok.get(key)
                if existing is None:
                    self._ok[key] = record
                elif _record_identity(existing) != _record_identity(record):
                    raise ValueError(
                        f"shards disagree on trial {key}: two ok records "
                        "with different payloads (trials must be "
                        "deterministic)"
                    )
                # identical re-run from another shard: idempotent
            else:
                self._errors.setdefault(key, record)
        self.file_record_counts[path.name] = (
            self.file_record_counts.get(path.name, 0) + decoded
        )
        if corrupt:
            self.file_corrupt_lines[path.name] = (
                self.file_corrupt_lines.get(path.name, 0) + corrupt
            )
            self.corrupt_lines += corrupt

    def refresh(self) -> None:
        """Rescan every record file, folding in other hosts' progress.

        Claiming executors call this between chunks so trials another
        host completed since open are skipped instead of re-run (re-runs
        would still be harmless — records are idempotent — just wasted).
        """
        if self.root is None:
            return
        self._forget()
        self._scan()

    def _forget(self) -> None:
        """Start an empty manifest with zeroed scan accounting."""
        self._ok: dict[str, TrialRecord] = {}
        self._errors: dict[str, TrialRecord] = {}
        self.corrupt_lines = 0
        self.file_corrupt_lines: dict[str, int] = {}
        #: file name -> decoded records scanned (shard-progress breakdown
        #: for ``python -m repro.campaigns status`` in claim mode)
        self.file_record_counts: dict[str, int] = {}

    def completed_keys(self) -> frozenset:
        """Keys with a successful record (skipped on resume)."""
        return frozenset(self._ok)

    def error_keys(self) -> frozenset:
        """Keys whose latest attempt failed (retried on resume by default)."""
        return frozenset(self._errors) - frozenset(self._ok)

    def __len__(self) -> int:
        return len(self._ok)

    def __contains__(self, key: str) -> bool:
        return key in self._ok

    def result(self, key: str) -> dict[str, Any] | None:
        """The decoded (exact) result dict of an ``ok`` trial, else None."""
        record = self._ok.get(key)
        if record is None:
            return None
        return from_jsonable(record["result"])

    def record_for(self, key: str) -> TrialRecord | None:
        return self._ok.get(key) or self._errors.get(key)

    def ok_records(self) -> Iterator[TrialRecord]:
        return iter(self._ok.values())

    # -- appending -----------------------------------------------------------

    def append(
        self,
        key: str,
        kind: str,
        params: Mapping[str, Any],
        status: str,
        result: Mapping[str, Any] | None,
        error: str | None,
        elapsed: float,
    ) -> TrialRecord:
        """Append one finished-trial record (flushed to disk immediately)."""
        if status not in ("ok", "error"):
            raise ValueError(f"bad record status {status!r}")
        if status == "ok" and key in self._ok:
            raise ValueError(f"duplicate ok record for trial {key}")
        record: TrialRecord = {
            "key": key,
            "kind": kind,
            "params": to_jsonable(dict(params)),
            "status": status,
            "result": None if result is None else to_jsonable(dict(result)),
            "error": error,
            "elapsed": elapsed,
        }
        if self.root is not None:
            if self._handle is None:
                path = self.append_path
                # a SIGKILLed run can leave a torn final line with no
                # newline; terminate it before appending so the next
                # record starts on its own line instead of gluing onto
                # the garbage
                needs_newline = False
                if path.exists() and path.stat().st_size > 0:
                    with path.open("rb") as probe:
                        probe.seek(-1, 2)
                        needs_newline = probe.read(1) != b"\n"
                self._handle = path.open("a", encoding="utf-8")
                if needs_newline:
                    self._handle.write("\n")
            self._handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._handle.flush()
        if status == "ok":
            self._ok[key] = record
        else:
            self._errors[key] = record
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the spec ------------------------------------------------------------

    def save_spec(self, spec: CampaignSpec) -> None:
        """Persist the spec into the store (guards against mixing stores).

        An equal spec on disk — a legacy spelling included — is left as is.
        """
        existing = self.load_spec()
        if existing is not None and existing.name != spec.name:
            raise ValueError(
                f"store at {self.root} belongs to campaign "
                f"{existing.name!r}, not {spec.name!r}"
            )
        if self.spec_path is not None and existing != spec:
            spec.save(self.spec_path)

    def load_spec(self) -> CampaignSpec | None:
        path = self.spec_path
        if path is None or not path.exists():
            return None
        return CampaignSpec.load(path)


# -- merging shards ----------------------------------------------------------


@dataclass
class MergeStats:
    """What one :func:`merge_shards` invocation did, per shard."""

    #: shard file name -> decoded record count
    records: dict[str, int] = field(default_factory=dict)
    #: shard file name -> records folded into the canonical file
    merged: dict[str, int] = field(default_factory=dict)
    #: shard file name -> idempotent duplicates skipped (verified equal)
    duplicates: dict[str, int] = field(default_factory=dict)
    #: shard file name -> torn/undecodable lines tolerated
    corrupt_lines: dict[str, int] = field(default_factory=dict)
    #: shard files deleted after folding (``prune=True``)
    pruned: list[str] = field(default_factory=list)

    @property
    def total_merged(self) -> int:
        return sum(self.merged.values())


def merge_shards(root: str | Path, prune: bool = False) -> MergeStats:
    """Fold every ``results-<host>.jsonl`` shard into ``results.jsonl``.

    Deterministic: shards fold in sorted file-name order, records in
    file order, so two merges of the same shard set produce the same
    canonical file.  Cross-shard duplicates follow the scanner's
    idempotence rule — verified equal outside ``elapsed`` (first
    occurrence wins, later ones are counted and dropped; a payload
    disagreement raises).  ``error`` records fold only for keys with no
    record yet, mirroring the manifest's ok-beats-error preference.
    ``prune=True`` deletes each shard after it folded, leaving the
    single-file layout (the merge is append+flush first, so a crash
    mid-prune loses no records — re-merging is a no-op).
    """
    root = Path(root)
    canonical = CampaignStore(root)
    try:
        # the canonical manifest must reflect only the canonical file:
        # rebuild from it alone so shard records actually *fold* instead
        # of being pre-marked as present
        canonical._forget()
        if canonical.results_path.exists():
            canonical._scan_file(canonical.results_path)

        stats = MergeStats()
        shards = canonical.shard_paths()
        for shard in shards:
            name = shard.name
            stats.records[name] = 0
            stats.merged[name] = 0
            stats.duplicates[name] = 0
            stats.corrupt_lines[name] = 0
            for record in _read_records(shard):
                if record is None or record["status"] not in ("ok", "error"):
                    stats.corrupt_lines[name] += 1
                    continue
                stats.records[name] += 1
                key, status = record["key"], record["status"]
                if status == "ok":
                    existing = canonical._ok.get(key)
                    if existing is not None:
                        if _record_identity(existing) != (
                            _record_identity(record)
                        ):
                            raise ValueError(
                                f"shard {name} disagrees with the "
                                f"canonical store on trial {key}"
                            )
                        stats.duplicates[name] += 1
                        continue
                elif key in canonical._ok or key in canonical._errors:
                    stats.duplicates[name] += 1
                    continue
                canonical.append(
                    key=key,
                    kind=record["kind"],
                    params=from_jsonable(record["params"]),
                    status=status,
                    result=from_jsonable(record["result"]),
                    error=record["error"],
                    elapsed=record["elapsed"],
                )
                stats.merged[name] += 1
    finally:
        canonical.close()
    if prune:
        for shard in shards:
            shard.unlink()
            stats.pruned.append(shard.name)
    return stats
