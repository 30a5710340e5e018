"""End-to-end benchmark of the bilateral network creation reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table.  The exit code is 0 when every output checked
out, 1 on a correctness failure, 2 when the benchmark itself could not
run (for instance, in a directory without the package's sources).

Workloads (each repetition runs in a fresh process, so the enumerator's
layer memo, the canonical-key cache and the serve caches start cold):

``campaigns``
    The two campaigns that reproduce the paper's tables, each through
    ``run_campaign`` into an on-disk store and then ``render_report``
    (see ``campaign_child.py``).  First an ``exact_poa`` spec over all
    connected graphs on 8 nodes with 7..13 edges (4,271 classes), alpha
    in {2, 9/2}, concepts {PS, BGE}: 28 trials, 17,084 game states,
    ``nproc`` workers.  Every state is a fresh graph: canonical
    enumeration, one APSP build per state and the exact checkers, with
    no reuse.  Then a ``dynamics`` spec run serially: best-response BGE
    dynamics at n=40, alpha=4, from one fixed random tree (51 rounds).
    One long-lived engine is updated incrementally: move generation,
    BFS repair of distance rows, bridge upkeep and the batched kernels
    of ``core.batch``.
``serve_mixed``
    ``python -m repro.serve`` answering a seeded trace of fresh,
    relabelled and repeated n=16 instances plus view reads, replayed
    closed-loop over one keep-alive HTTP connection (see
    ``serve_child.py``).  Every repetition starts a fresh server, so the
    warm-engine and response caches start empty.  Its ``best_response``
    requests run move generation and price each candidate with the
    speculative evaluator (incremental distance repair) on warm engines;
    its ``classify`` requests run canonical relabelling and the exact
    checkers.

End-to-end metrics (``--trace 0``), every one on every workload:

``setup_s``
    Process launch until the first timed operation (imports, spec and
    trace generation, the server up with its views), median of at least
    three fresh-process set-ups.
``peak_rss_mb``
    Peak resident memory of the processes doing the work: the campaign
    process plus its largest pool worker, or the server.
``throughput_per_s``
    Work done per second over every repetition of the run (total work
    over total measured time): campaign trials completed, from the first
    campaign's start through the second's rendered report (campaigns);
    requests answered (serve).
``latency_p50_ms`` / ``latency_tail_ms``
    Median and a high percentile (nearest rank; see ``TAIL_Q``) of the
    time a user waits for the workload's unit of work, pooled over the
    repetitions: one campaign trial as the executor ran it (campaigns,
    p80), one request (serve, p90).

``--trace 1`` runs the workload again with the benchmark's layer
wrappers (``tracer.py``) and prints per-layer self time, call counts,
the unattributed share of wall time, the tracing overhead, and the
program's own ``repro.obs`` counter deltas.  On ``campaigns`` it
also checks that those counters repeat exactly between an untraced and
a traced serial run.

Every run appends one record, stamped with its provenance (git sha when
available, CPU count and model, Python, numpy and backend), to
``.perfbench_out/results.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import uuid

import common

WORKLOADS = ("campaigns", "serve_mixed")
SETUPS = 3  # fresh-process set-ups measured per run for setup_s
#: the latency_tail_ms quantile of each workload.  Campaigns: the highest
#: that leaves at least ten samples beyond it in a run (60+ trials).  Serve: p90,
#: the request at the edge between cache hits and computed answers; the
#: p95..p99 of ten seeds spread by 0.18-0.26 of their median on a shared
#: 2-vCPU machine, too close to the bound to gate, so the p99 is kept in
#: the result record only.
TAIL_Q = {"campaigns": 0.80, "serve_mixed": 0.90}
DEADLINE = 170.0  # seconds after start by which every child has ended
STARTED = common.now()

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)

#: the per-layer metrics of ``--trace 1``, as listed in BENCHMARK.json
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit)
     for layer in ("canonical", "enumerate", "distances_build", "distances_incr",
                   "bridges", "equilibria", "movegen", "batch", "state",
                   "driver", "campaigns", "serve")
     for kind, unit in (("self_pct", "%"), ("calls", "count"))]
    + [
        ("canonical.cache_hit_ratio", "ratio"),
        ("enumerate.keys_per_class", "ratio"),
        ("distances.apsp_builds", "count"),
        ("distances.repair_rows", "count"),
        ("bridges.rebuilds", "count"),
        ("bridges.sweeps", "count"),
        ("equilibria.checks", "count"),
        ("equilibria.dfs_runs", "count"),
        ("movegen.candidates_per_call", "ratio"),
        ("batch.dispatch_add", "count"),
        ("batch.dispatch_remove", "count"),
        ("batch.dispatch_swap", "count"),
        ("batch.dispatch_fallback", "count"),
        ("speculative.evaluations", "count"),
        ("executor.idle_frac", "ratio"),
        ("store.bytes", "B"),
        ("serve.handle_p50_ms", "ms"),
        ("serve.handle_p99_ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.response_hit_ratio", "ratio"),
        ("serve.engine_hit_ratio", "ratio"),
        ("serve.engine_builds", "count"),
        ("serve.evictions", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
)

#: counters that must repeat exactly between two serial runs of a seed
DETERMINISTIC_COUNTERS = (
    "repro_engine_apsp_builds_total",
    "repro_canonical_cache_hits_total",
    "repro_canonical_cache_misses_total",
    "repro_engine_bfs_repair_rows_total",
    'repro_batch_dispatch_total{arm="add"}',
    'repro_batch_dispatch_total{arm="remove"}',
    'repro_batch_dispatch_total{arm="swap"}',
    'repro_batch_dispatch_total{arm="fallback"}',
    "repro_strong_fold_dfs_runs_total",
    "repro_strong_engine_dfs_runs_total",
)

#: the end-to-end metric each layer should move, and where (printed with
#: the traced table so a later change can be checked against it)
LAYER_EFFECT = {
    "canonical": "campaigns throughput (exact); serve tail (every graph "
                 "request is relabelled)",
    "enumerate": "campaigns throughput (exact)",
    "distances_build": "campaigns throughput (one build per exact state); "
                       "serve tail",
    "distances_incr": "campaigns throughput (dynamics; exact removal checks); "
                      "serve throughput (best_response prices moves by repair)",
    "bridges": "campaigns throughput (dynamics); serve throughput",
    "equilibria": "campaigns throughput (exact); serve tail (classify runs "
                  "the ladder)",
    "movegen": "campaigns throughput (dynamics); serve throughput (best_response)",
    "batch": "campaigns throughput (dynamics sweeps); serve throughput "
             "(best_response evaluations)",
    "state": "campaigns throughput (exact); serve tail (engine builds)",
    "driver": "campaigns throughput",
    "campaigns": "campaigns throughput",
    "serve": "serve p50 (hits, transport); serve throughput and tail",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- subprocesses -------------------------------------------------------------


def spawn(script: str, args: list, setup_only: bool = False) -> dict:
    """Run one fresh-process child to completion; its JSON result.

    The child runs in its own session so that on a timeout its whole
    process group (pool workers, a server) is stopped with it.
    """
    runs = common.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = runs / f"{uuid.uuid4().hex}.json"
    launched = common.now()
    cmd = [
        sys.executable, str(common.BENCH_DIR / script),
        *(str(arg) for arg in args), repr(launched), str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, STARTED + DEADLINE - common.now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{script} did not finish {DEADLINE} s after start")
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(
            f"{script} exited with {proc.returncode}:\n{stderr[-3000:]}"
        )
    with open(out) as handle:
        data = json.load(handle)
    out.unlink()
    spans = out.with_suffix(".spans.jsonl")
    if spans.exists():
        data["_spans"] = spans
    return data


def setup_samples(script: str, args: list, measured: list[float]) -> list[float]:
    samples = list(measured)
    while len(samples) < SETUPS:
        samples.append(spawn(script, args, setup_only=True)["setup_s"])
    return samples


# -- correctness and metrics: campaigns --------------------------------------


def check_campaigns(reps: list[dict]) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every trial of every repetition.

    Exact PoA: every cell's PoA, equilibrium count, class count and
    witness digest; dynamics: every trajectory's (rounds, converged,
    cycled, final social cost); and both rendered reports' digests, all
    against the values committed in ``expected/`` (both campaigns are
    fixed, so they hold for every seed).  Every repetition (a fresh
    process, possibly with another worker count or tracing) must also
    give the same values and the same report bytes as the first, and a
    pool worker that died (its chunk re-run in the parent) counts as a
    failure.
    """
    with open(common.EXPECTED / "exact_poa_n8.json") as handle:
        exact = json.load(handle)
    with open(common.EXPECTED / "br_dynamics_n40.json") as handle:
        dynamics = json.load(handle)
    want = {"exact_poa": exact["cells"], "dynamics": dynamics["trajectories"]}
    report_sha = {"exact_poa": exact["report_sha256"],
                  "dynamics": dynamics["report_sha256"]}
    attempted = failed = 0
    problems: list = []
    for rep in reps:
        rows = rep["rows"]
        attempted += len(rows)
        if rep["fallbacks"]:
            failed += rep["fallbacks"]
            problems.append({"problem": "pool worker died; chunks re-run in the "
                             "parent", "fallbacks": rep["fallbacks"]})
        for kind, cells in want.items():
            seen = {row["cell"] for row in rows if row["kind"] == kind}
            for cell in sorted(set(cells) - seen):
                failed += 1
                problems.append({"kind": kind, "cell": cell, "problem": "missing"})
            digest = hashlib.sha256(rep["reports"][kind].encode()).hexdigest()
            if digest != report_sha[kind]:
                failed += 1
                problems.append({"kind": kind, "problem": "report digest",
                                 "got": digest})
        for row in rows:
            expected = want[row["kind"]].get(row["cell"])
            if row["status"] != "ok" or row["value"] != expected:
                failed += 1
                problems.append({
                    "kind": row["kind"], "cell": row["cell"],
                    "status": row["status"], "got": row["value"],
                    "want": expected, "error": (row["error"] or "")[-500:],
                })
    first = {(row["kind"], row["cell"]): row["value"] for row in reps[0]["rows"]}
    for rep in reps[1:]:
        differ = [row["cell"] for row in rep["rows"]
                  if row["value"] != first.get((row["kind"], row["cell"]))]
        if differ or rep["reports"] != reps[0]["reports"]:
            failed += 1
            problems.append({"problem": "repetitions disagree", "cells": differ,
                             "workers": rep["workers"], "traced": rep["traced"]})
    return attempted, failed, problems


def repeat_until(seconds: float, run_once) -> list[dict]:
    """Fresh-process repetitions for about ``seconds``: another one starts
    while at least half of a repetition still fits."""
    reps: list[dict] = []
    started = common.now()
    while True:
        reps.append(run_once())
        elapsed = common.now() - started
        if elapsed + elapsed / len(reps) / 2 > seconds:
            return reps


def run_campaigns_workload(seed: int, seconds: float) -> dict:
    args = [seed, common.nproc(), 0]
    reps = repeat_until(seconds, lambda: spawn("campaign_child.py", args))
    attempted, failed, problems = check_campaigns(reps)
    setups = setup_samples("campaign_child.py", args, [r["setup_s"] for r in reps])
    # one trial as the campaign executor ran it
    latencies = [row["elapsed"] * 1000 for rep in reps for row in rep["rows"]]
    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in reps]),
        "throughput_per_s": len(latencies) / sum(r["wall_s"] for r in reps),
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": common.quantile(latencies, TAIL_Q["campaigns"]),
    }
    detail = {
        "oracle": "committed (expected/exact_poa_n8.json, "
                  "expected/br_dynamics_n40.json)",
        "repetitions": len(reps),
        "workers": common.nproc(),
        "wall_s": [r["wall_s"] for r in reps],
        "exact_wall_s": [r["exact_wall_s"] for r in reps],
        "dynamics_wall_s": [r["dynamics_wall_s"] for r in reps],
        "setup_samples_s": setups,
        "latency_samples": len(latencies),
        "problems": problems,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}


# -- correctness and metrics: serve ------------------------------------------


def check_serve(reps: list[dict], expected: dict) -> tuple[int, int, list]:
    """Every answer of every repetition against the in-process answer:
    same status, same body apart from the ``cached`` marker."""
    attempted = failed = 0
    problems: list = []
    want = list(zip(expected["statuses"], expected["digests"]))
    for rep in reps:
        got = list(zip(rep["statuses"], rep["digests"]))
        attempted += len(got)
        bad = [i for i, pair in enumerate(got) if pair != want[i]]
        failed += len(bad)
        for index in bad[:3]:
            problems.append({"request": index, "endpoint": rep["endpoints"][index],
                             "got": got[index], "want": want[index]})
        if not (rep["clean_shutdown"] and rep["server_exit"] == 0):
            failed += 1
            problems.append({"problem": "server did not shut down cleanly",
                             "exit": rep["server_exit"]})
    return attempted, failed, problems


def run_serve_workload(seed: int, seconds: float) -> dict:
    args = [seed, "replay"]
    reps = repeat_until(seconds, lambda: spawn("serve_child.py", args))
    # the expected answers, computed after every timed replay
    expected = spawn("serve_child.py", [seed, "oracle"])
    attempted, failed, problems = check_serve(reps, expected)
    setups = setup_samples("serve_child.py", args, [r["setup_s"] for r in reps])
    latencies = [x for rep in reps for x in rep["latencies_ms"]]
    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in reps]),
        "throughput_per_s": len(latencies) / sum(r["wall_s"] for r in reps),
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": common.quantile(latencies, TAIL_Q["serve_mixed"]),
    }
    detail = {
        "oracle": "in-process ServeApp on the same trace",
        "repetitions": len(reps),
        "requests": len(reps[0]["latencies_ms"]),
        "latency_samples": len(latencies),
        "latency_p99_ms": common.quantile(latencies, 0.99),
        "kinds": reps[0]["kinds"],
        "wall_s": [r["wall_s"] for r in reps],
        "setup_samples_s": setups,
        "problems": problems,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}


# -- traced runs ---------------------------------------------------------------


def layer_metrics(summary: dict, header: dict, counters: dict, wall_s: float,
                  spans: list, classes: int = 0) -> dict:
    """The per-layer metrics shared by every workload."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer, self_s in summary["self_s"].items():
        metrics[f"{layer}.self_pct"] = (100.0 * self_s / wall_s, "%")
        metrics[f"{layer}.calls"] = (summary["calls"][layer], "count")
    hits = common.series_sum(counters, "repro_canonical_cache_hits_total")
    misses = common.series_sum(counters, "repro_canonical_cache_misses_total")
    metrics["canonical.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    metrics["enumerate.keys_per_class"] = (
        enumeration_keys(spans) / classes if classes else 0.0, "ratio")
    metrics["distances.apsp_builds"] = (
        common.series_sum(counters, "repro_engine_apsp_builds_total"), "count")
    metrics["distances.repair_rows"] = (
        common.series_sum(counters, "repro_engine_bfs_repair_rows_total"), "count")
    metrics["bridges.rebuilds"] = (
        common.series_sum(counters, "repro_engine_bridge_rebuilds_total"), "count")
    metrics["bridges.sweeps"] = (
        common.series_sum(counters, "repro_engine_bridge_sweeps_total"), "count")
    checker_calls = sum(
        entry["calls"] for key, entry in summary["functions"].items()
        if key.startswith("equilibria:is_")
    )
    metrics["equilibria.checks"] = (checker_calls, "count")
    metrics["equilibria.dfs_runs"] = (
        common.series_sum(counters, "repro_strong_fold_dfs_runs_total")
        + common.series_sum(counters, "repro_strong_engine_dfs_runs_total"), "count")
    calls = header["yields"].get("improving_moves:invocations", 0)
    metrics["movegen.candidates_per_call"] = (
        header["yields"].get("improving_moves", 0) / calls if calls else 0.0,
        "ratio",
    )
    for arm in ("add", "remove", "swap", "fallback"):
        metrics[f"batch.dispatch_{arm}"] = (
            counters.get(f'repro_batch_dispatch_total{{arm="{arm}"}}', 0), "count")
    metrics["speculative.evaluations"] = (
        common.series_sum(counters, "repro_engine_evaluations_total"), "count")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.unattributed_pct"] = (100.0 * summary["unattributed_frac"], "%")
    return metrics


def enumeration_keys(spans: list) -> int:
    """Canonical keys computed inside enumeration (the numerator of
    keys per class kept: extensions canonicalised, duplicates included)."""
    by_id = {span[0]: span for span in spans}

    def under_enumerate(span) -> bool:
        parent = span[5]
        while parent in by_id:
            if by_id[parent][1] == "enumerate":
                return True
            parent = by_id[parent][5]
        return False

    return sum(
        1 for span in spans
        if span[2] == "key_of_masks" and under_enumerate(span)
    )


def count_check(a: dict, b: dict) -> list[str]:
    return [
        name for name in DETERMINISTIC_COUNTERS
        if a.get(name, 0) != b.get(name, 0)
    ]


def run_campaigns_traced(seed: int) -> dict:
    """Serial untraced, serial traced (the wrappers see every call) and
    parallel untraced runs; idle share and store size from the last."""
    import tracer

    plain = spawn("campaign_child.py", [seed, 1, 0])
    traced = spawn("campaign_child.py", [seed, 1, 1])
    parallel = spawn("campaign_child.py", [seed, common.nproc(), 0])
    attempted, failed, problems = check_campaigns([plain, traced, parallel])
    mismatched = count_check(plain["counters"], traced["counters"])
    if mismatched:
        failed += 1
        problems.append({"problem": "counters did not repeat", "counters": {
            name: [plain["counters"].get(name, 0), traced["counters"].get(name, 0)]
            for name in mismatched}})
    header, spans = tracer.load_spans(traced["_spans"])
    traced["_spans"].unlink()
    # classes kept: each edge layer's size, counted once (one price, one concept)
    classes = sum(
        row["value"]["candidates"] for row in traced["rows"]
        if row["kind"] == "exact_poa" and row["cell"].endswith("|alpha=2|PS")
    )
    summary = tracer.summarise(spans, traced["wall_ns"])
    metrics = layer_metrics(
        summary, header, traced["counters"], traced["wall_s"], spans, classes)
    # the pool's idle share, over the exact campaign (the serial dynamics
    # campaign keeps all but one CPU idle by design)
    busy = sum(row["elapsed"] for row in parallel["rows"]
               if row["kind"] == "exact_poa")
    metrics["executor.idle_frac"] = (
        max(0.0, 1.0 - busy / (parallel["exact_wall_s"] * parallel["workers"])),
        "ratio")
    metrics["store.bytes"] = (parallel["store_bytes"], "B")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"], "%")
    detail = {
        "untraced_serial_wall_s": plain["wall_s"],
        "traced_serial_wall_s": traced["wall_s"],
        "parallel_wall_s": parallel["wall_s"],
        "functions": summary["functions"],
        "self_s": summary["self_s"],
        "counters_untraced": plain["counters"],
        "counters_traced": traced["counters"],
        "count_self_check": "repeat" if not mismatched else mismatched,
        "oracle": "committed (expected/exact_poa_n8.json, "
                  "expected/br_dynamics_n40.json)",
        "problems": problems,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}


def run_serve_traced(seed: int) -> dict:
    """The trace replayed twice, against the stock server and against
    the same ``main`` under the layer wrappers; layer spans are those the
    traced server recorded inside its replay window."""
    import tracer

    plain = spawn("serve_child.py", [seed, "replay"])
    traced = spawn("serve_child.py", [seed, "traced"])
    expected = spawn("serve_child.py", [seed, "oracle"])
    attempted, failed, problems = check_serve([plain, traced], expected)
    header, spans = tracer.load_spans(traced["_spans"])
    traced["_spans"].unlink()
    start_ns, end_ns = traced["window_ns"]
    spans = [span for span in spans if span[3] >= start_ns and span[4] <= end_ns]
    summary = tracer.summarise(spans, end_ns - start_ns)
    counters = common.registry_delta(traced["scrape_before"]["metricsz"],
                                     traced["scrape_after"]["metricsz"])
    metrics = layer_metrics(summary, header, counters, traced["wall_s"], spans)
    stats = {key: traced["scrape_after"]["statsz"][key]
             - traced["scrape_before"]["statsz"][key]
             for key in ("hits", "misses", "engine_builds", "evictions",
                         "response_hits", "response_misses")}
    lookups = stats["hits"] + stats["misses"]
    answers = stats["response_hits"] + stats["response_misses"]
    handle_ms = [(span[4] - span[3]) / 1e6 for span in spans
                 if span[2] == "ServeApp.handle"]
    client_ms = traced["latencies_ms"]
    metrics["executor.idle_frac"] = (max(0.0, 1.0 - sum(handle_ms) / 1000.0
                                         / (traced["wall_s"] * common.nproc())),
                                     "ratio")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"], "%")
    metrics["serve.handle_p50_ms"] = (common.median(handle_ms), "ms")
    metrics["serve.handle_p99_ms"] = (common.quantile(handle_ms, 0.99), "ms")
    metrics["serve.wait_ms"] = (
        (sum(client_ms) - sum(handle_ms)) / len(client_ms), "ms")
    metrics["serve.response_hit_ratio"] = (
        stats["response_hits"] / answers if answers else 0.0, "ratio")
    metrics["serve.engine_hit_ratio"] = (
        stats["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["serve.engine_builds"] = (stats["engine_builds"], "count")
    metrics["serve.evictions"] = (stats["evictions"], "count")
    detail = {
        "oracle": "in-process ServeApp on the same trace",
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "self_s": summary["self_s"],
        "functions": summary["functions"],
        "endpoints": traced["scrape_after"]["statsz"]["endpoints"],
        "counters": counters,
        "problems": problems,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro").is_dir():
        print(f"no package sources under {common.SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "serve_mixed":
            outcome = (
                run_serve_traced(args.seed) if args.trace
                else run_serve_workload(args.seed, args.seconds)
            )
        elif args.trace:
            outcome = run_campaigns_traced(args.seed)
        else:
            outcome = run_campaigns_workload(args.seed, args.seconds)
        return report(args, outcome)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


def report(args, outcome: dict) -> int:
    if args.trace:
        # every workload prints the whole per-layer set; a layer that the
        # workload does not reach reads 0
        unknown = set(outcome["metrics"]) - {name for name, _ in PER_LAYER}
        if unknown:
            raise BenchmarkError(f"unlisted per-layer metrics {sorted(unknown)}")
        metrics = {name: {"value": outcome["metrics"].get(name, (0, unit))[0],
                          "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in outcome["metrics"].items()}
    correct = outcome["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics, "detail": outcome["detail"],
        "provenance": common.provenance(),
    }
    common.append_record(record)
    print_table(args, outcome, metrics)
    print(json.dumps({
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


def print_table(args, outcome: dict, metrics: dict) -> None:
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome['attempted']} failed={outcome['failed']}")
    print(f"oracle: {outcome['detail']['oracle']}")
    if "latency_samples" in outcome["detail"]:
        print(f"latency samples: {outcome['detail']['latency_samples']}")
    if "latency_p99_ms" in outcome["detail"]:
        print(f"latency p99 (not gated): {outcome['detail']['latency_p99_ms']:.4f} ms")
    if args.trace and "self_s" in outcome["detail"]:
        self_s = outcome["detail"]["self_s"]
        print(f"{'layer':<16}{'self_s':>10}{'self%':>8}{'calls':>10}  should move")
        for layer, seconds in self_s.items():
            print(f"{layer:<16}{seconds:>10.3f}"
                  f"{metrics[layer + '.self_pct']['value']:>8.1f}"
                  f"{metrics[layer + '.calls']['value']:>10}  {LAYER_EFFECT[layer]}")
    for name, entry in metrics.items():
        if args.trace and name.endswith((".self_pct", ".calls")):
            continue
        print(f"{name:<32}{entry['value']:>14.4f} {entry['unit']}")
    for problem in outcome["detail"].get("problems", [])[:5]:
        print("problem:", json.dumps(problem)[:400])


if __name__ == "__main__":
    raise SystemExit(main())
