"""One fresh-process repetition of the ``serve_mixed`` workload.

Usage (spawned by ``run.py``)::

    python perfbench/serve_child.py SEED MODE LAUNCHED OUT_JSON [--setup-only]

``MODE`` is ``replay`` (the stock server), ``traced`` (the same
``main`` started through ``serve_launcher.py`` with the layer wrappers)
or ``oracle`` (no server: an in-process ``ServeApp`` answers the trace,
which gives the expected bodies).

The process generates the seeded request trace, builds a small exact-PoA
campaign store for the ``poa`` views, starts ``python -m repro.serve
--threads <nproc> --port 0 --views <store>`` and replays the trace
closed-loop over one keep-alive HTTP connection: each request is sent
when the previous answer has arrived, and its latency is the time from
sending it to reading the whole answer.  With one request in flight the
server sees the trace in its order, so every answer is determined by the
trace alone and must equal the in-process answer byte for byte (the
``cached`` marker aside).

Client and server never compute at the same time (one request is in
flight), so the process pins itself, and with it the server, to one CPU:
a hand-off between two CPUs waits for a cross-CPU wake-up whose cost
varied threefold from minute to minute on a shared 2-vCPU machine, and
made the median latency measure that rather than the service.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import common

N = 16
REQUESTS = 3000
RECENT = 64  # exact repeats are drawn from this many recent graph requests
# Random trees priced near stability are asked best_response only: a
# classify of such a tree runs the exhaustive coalition search and about
# one in 300 takes ~1 s, so a run would measure those few requests.
TREE_ALPHAS = (N // 2, f"{N + 1}/2")
# G(16, 0.25) at these prices classifies in 5-40 ms.  alpha = 1 is left
# out for the same reason as tree classifies (one instance took 19.9 s).
GNP_ALPHAS = (2, "5/2", 3)

VIEW_SPEC = {
    "name": "perfbench-serve-views",
    "kind": "exact_poa",
    "seed": 0,
    "grids": [
        {"family": "graphs", "n": 5, "m": {"$range": [4, 11]},
         "alpha": [2, 3], "concept": ["PS", "BGE"]},
    ],
}
POA_QUERIES = [
    {"kind": "exact_poa",
     "params": {"family": "graphs", "n": 5, "alpha": alpha, "concept": concept}}
    for alpha in (2, 3) for concept in ("PS", "BGE")
] + [
    {"kind": "exact_poa",
     "params": {"family": "graphs", "n": 5, "m": m, "alpha": 2, "concept": "PS"}}
    for m in range(4, 11)
]


def make_trace(seed: int) -> tuple[list[tuple[str, dict]], dict[str, int]]:
    """The seeded request trace and its mix.

    Exactly 15% fresh instances, 25% isomorphic relabellings of earlier
    instances (engine hit, response miss), 50% exact repeats of recent
    graph requests (response hit) and 10% ``poa`` view reads, in a seeded
    order; fixed shares keep the seeds' traces alike in cost.  Fresh
    instances alternate between random trees at alpha in {8, 17/2},
    asked ``best_response`` (PS), and G(16, 0.25) at alpha in
    {2, 5/2, 3}, asked ``classify`` 60% and ``best_response`` 40% of the
    time.
    """
    from repro.graphs.generation import random_connected_gnp, random_tree

    rng = random.Random(seed)
    shares = {"fresh": 0.15, "relabel": 0.25, "repeat": 0.50, "poa": 0.10}
    schedule = [kind for kind, share in shares.items()
                for _ in range(round(share * REQUESTS))]
    schedule.remove("fresh")
    rng.shuffle(schedule)
    schedule.insert(0, "fresh")  # repeats and relabellings need a source
    instances: list[tuple[list[list[int]], object, bool]] = []
    recent: list[tuple[str, dict]] = []
    trace: list[tuple[str, dict]] = []

    def graph_request(edges, alpha, tree: bool) -> tuple[str, dict]:
        payload = {"edges": edges, "alpha": alpha, "n": N}
        if not tree and rng.random() < 0.6:
            return "classify", payload
        return "best_response", dict(payload, agent=rng.randrange(N), concept="PS")

    for kind in schedule:
        if kind == "fresh":
            tree = len(instances) % 2 == 0
            if tree:
                graph, alpha = random_tree(N, rng), rng.choice(TREE_ALPHAS)
            else:
                graph = random_connected_gnp(N, 0.25, rng)
                alpha = rng.choice(GNP_ALPHAS)
            instances.append((_edges(graph.edges), alpha, tree))
            request = graph_request(*instances[-1])
        elif kind == "relabel":
            edges, alpha, tree = rng.choice(instances)
            perm = list(range(N))
            rng.shuffle(perm)
            request = graph_request(
                _edges((perm[u], perm[v]) for u, v in edges), alpha, tree
            )
        elif kind == "repeat":
            request = rng.choice(recent[-RECENT:])
        else:
            request = ("poa", rng.choice(POA_QUERIES))
        if kind in ("fresh", "relabel"):
            recent.append(request)
        trace.append(request)
    kinds = {kind: schedule.count(kind) for kind in shares}
    return trace, kinds


def _edges(pairs) -> list[list[int]]:
    return sorted([min(u, v), max(u, v)] for u, v in pairs)


def body_digest(body: dict) -> str:
    """Digest of an answer with the ``cached`` marker left out."""
    if isinstance(body, dict):
        body = {k: v for k, v in body.items() if k != "cached"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- server lifecycle ---------------------------------------------------------


def build_views(root: Path) -> None:
    from repro.campaigns import CampaignSpec, CampaignStore, run_campaign

    spec = CampaignSpec.from_dict(VIEW_SPEC)
    with CampaignStore(root) as store:
        stats = run_campaign(spec, store)
    if stats.failed:
        raise RuntimeError("view campaign failed")


def start_server(views: Path, spans: Path | None,
                 threads: int) -> tuple[subprocess.Popen, int]:
    argv = ["--threads", str(threads), "--port", "0", "--views", str(views)]
    if spans is None:
        cmd = [sys.executable, "-m", "repro.serve", *argv]
    else:
        cmd = [sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
               str(spans), *argv]
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    for line in proc.stderr:
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1])
    proc.wait(timeout=30)
    raise RuntimeError(f"server exited before listening (code {proc.returncode})")


def stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        rest = proc.stderr.read()
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return rest


def _call(conn: http.client.HTTPConnection, endpoint: str, body: bytes | None):
    if body is None:
        conn.request("GET", f"/{endpoint}")
    else:
        conn.request("POST", f"/{endpoint}", body=body,
                     headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def scrape(conn: http.client.HTTPConnection) -> dict:
    _, statsz = _call(conn, "statsz", None)
    _, metricsz = _call(conn, "metricsz", None)
    return {"statsz": json.loads(statsz), "metricsz": _parse_prom(metricsz.decode())}


def _parse_prom(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def replay(port: int, trace: list[tuple[str, dict]]) -> dict:
    """Send the trace closed-loop; per-request latency, status, digest."""
    bodies = [json.dumps(payload).encode() for _, payload in trace]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        before = scrape(conn)
        latencies, answers = [], []
        window = [common.now()]
        for (endpoint, _), body in zip(trace, bodies):
            sent = common.now()
            answers.append(_call(conn, endpoint, body))
            latencies.append((common.now() - sent) * 1000.0)
        window.append(common.now())
        after = scrape(conn)
    finally:
        conn.close()
    return {
        "latencies_ms": latencies,
        "statuses": [status for status, _ in answers],
        "digests": [body_digest(json.loads(payload)) if status == 200 else ""
                    for status, payload in answers],
        "wall_s": window[1] - window[0],
        "window_ns": [int(t * 1e9) for t in window],
        "scrape_before": before,
        "scrape_after": after,
    }


def oracle(views: Path, trace: list[tuple[str, dict]]) -> dict:
    """The in-process answers to the trace, in its order."""
    from repro.serve import MaterialisedViews, ServeApp

    app = ServeApp(views=MaterialisedViews([views]))
    statuses, digests = [], []
    for endpoint, payload in trace:
        status, body = app.handle(endpoint, json.loads(json.dumps(payload)))
        statuses.append(status)
        digests.append(body_digest(json.loads(json.dumps(body))))
    return {"statuses": statuses, "digests": digests}


def main(argv: list[str]) -> int:
    seed, mode, launched, out = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    seed, launched, out = int(seed), float(launched), Path(out)
    if mode not in ("replay", "traced", "oracle"):
        raise SystemExit(f"unknown mode {mode!r}")

    threads = common.nproc()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import repro.serve  # noqa: F401  (imports belong to set-up)

    trace, kinds = make_trace(seed)
    # one fixed place: a ``poa`` answer names its store, so the server
    # and the oracle must read the views from the same path
    views = common.OUT / "tmp" / "serve-views"
    shutil.rmtree(views, ignore_errors=True)
    spans = out.with_suffix(".spans.jsonl") if mode == "traced" else None
    try:
        build_views(views)
        if mode == "oracle":
            result = oracle(views, trace)
        else:
            proc, port = start_server(views, spans, threads)
            try:
                setup_s = common.now() - launched
                result = {} if setup_only else replay(port, trace)
                result["setup_s"] = setup_s
            finally:
                stderr_tail = stop_server(proc)
            result["peak_rss_mb"] = common.children_peak_rss_mb()
            result["server_exit"] = proc.returncode
            result["clean_shutdown"] = "shut down cleanly" in stderr_tail
    finally:
        shutil.rmtree(views, ignore_errors=True)
    result.update(seed=seed, kinds=kinds,
                  endpoints=[endpoint for endpoint, _ in trace])
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
