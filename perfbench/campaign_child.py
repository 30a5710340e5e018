"""One fresh-process repetition of the ``campaigns`` workload.

Usage (spawned by ``run.py``; one process per repetition so the
enumerator's layer memo, the canonical cache and every other per-process
memo start empty)::

    python perfbench/campaign_child.py SEED WORKERS TRACED LAUNCHED OUT_JSON \
        [--setup-only]

``LAUNCHED`` is the parent's :func:`common.now` stamp taken just before
the spawn, so ``setup_s`` covers interpreter start, imports and spec
generation up to the first timed operation.

A repetition runs the two campaigns a reproduction of the paper's tables
runs, each into its own on-disk store and through its rendered report:
the exact-PoA campaign on ``WORKERS`` processes, then the best-response
dynamics ensemble serially (the single-threaded baseline).
"""

from __future__ import annotations

import json
import shutil
import sys
import uuid
from pathlib import Path

import common

# connected graphs on 8 nodes, edge layers 7..13
EXACT_LAYERS = list(range(7, 14))
EXACT_ALPHAS = [2, "9/2"]
EXACT_CONCEPTS = ["PS", "BGE"]
# best-response BGE dynamics from a random tree on 40 nodes: a fixed
# trajectory (campaign seed 0, index 0: 51 rounds), so it has committed
# expected values whatever the benchmark seed.  One trajectory keeps a
# repetition near 17 s, so a run pools three repetitions' trials.
DYN_SEED = 0
DYN_INDICES = 1


def exact_spec():
    """The exact-PoA campaign.  It is exhaustive, so it has no random
    input: every seed runs the same trials in the same order."""
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="perfbench-exact-poa-n8",
        kind="exact_poa",
        seed=0,
        grids=(
            {
                "family": "graphs",
                "n": 8,
                "m": EXACT_LAYERS,
                "alpha": EXACT_ALPHAS,
                "concept": EXACT_CONCEPTS,
            },
        ),
        report={
            "reducer": "exact_poa_table",
            "options": {
                "n": 8,
                "alphas": EXACT_ALPHAS,
                "title": "Exact PoA at n={n}, edge layers 7..13",
                "columns": [
                    {"header": "PoA(PS)", "concept": "PS",
                     "params": {"family": "graphs"}},
                    {"header": "PoA(BGE)", "concept": "BGE",
                     "params": {"family": "graphs"}},
                ],
            },
        },
    )


def dynamics_spec():
    """The best-response dynamics ensemble: n=40, BGE, alpha=4,
    scheduler ``best``, at most 2,000 rounds per trajectory."""
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="perfbench-br-dynamics-n40",
        kind="dynamics",
        seed=DYN_SEED,
        grids=(
            {
                "concept": "BGE",
                "n": 40,
                "alpha": 4,
                "scheduler": "best",
                "max_rounds": 2000,
                "index": {"$range": DYN_INDICES},
            },
        ),
        report={"reducer": "convergence", "options": {}},
    )


def _outcome_row(kind: str, outcome) -> dict:
    from repro.campaigns.spec import to_jsonable

    params = outcome.params
    result = outcome.result or {}
    row = {
        "kind": kind,
        "status": outcome.status,
        "error": outcome.error,
        "elapsed": outcome.elapsed,
    }
    if kind == "exact_poa":
        row["cell"] = f"m={params['m']}|alpha={params['alpha']}|{params['concept'].name}"
        row["states"] = result.get("candidates", 0)
        row["value"] = json.loads(json.dumps(to_jsonable({
            key: result.get(key)
            for key in ("poa", "equilibria", "candidates", "witness_key")
        })))
    else:
        row["cell"] = f"index={params['index']}"
        row["rounds"] = result.get("rounds", 0)
        row["value"] = [
            result.get("rounds"),
            result.get("converged"),
            result.get("cycled"),
            str(result.get("final_social_cost")),
        ]
    return row


def run_one(spec, workers: int, root: Path) -> dict:
    """Run one campaign into a fresh store and render its report."""
    from repro.campaigns import CampaignStore, render_report, run_campaign

    started = common.now()
    try:
        with CampaignStore(root) as store:
            stats = run_campaign(spec, store, workers=workers)
            report = render_report(spec, store)
        wall_s = common.now() - started
        store_bytes = common.dir_bytes(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "wall_s": wall_s,
        "fallbacks": stats.fallbacks,
        "rows": [_outcome_row(spec.kind, outcome) for outcome in stats.outcomes],
        "report": report,
        "store_bytes": store_bytes,
    }


def main(argv: list[str]) -> int:
    seed, workers, traced, launched, out = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    seed, workers, traced = int(seed), int(workers), traced == "1"
    launched = float(launched)

    import repro.campaigns  # noqa: F401  (imports belong to set-up)

    specs = (exact_spec(), dynamics_spec())
    for spec in specs:
        spec.trials()
    tmp = common.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = common.registry_snapshot()
    setup_s = common.now() - launched
    if setup_only:
        with open(out, "w") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0

    started = common.now()
    exact = run_one(specs[0], workers, tmp / f"exact-{uuid.uuid4().hex}")
    dynamics = run_one(specs[1], 1, tmp / f"dynamics-{uuid.uuid4().hex}")
    finished = common.now()
    after = common.registry_snapshot()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(out).with_suffix(".spans.jsonl"))

    payload = {
        "seed": seed,
        "workers": workers,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": finished - started,
        "wall_ns": int((finished - started) * 1e9),
        "exact_wall_s": exact["wall_s"],
        "dynamics_wall_s": dynamics["wall_s"],
        "peak_rss_mb": common.peak_rss_mb(include_children=workers > 1),
        "fallbacks": exact["fallbacks"] + dynamics["fallbacks"],
        "rows": exact["rows"] + dynamics["rows"],
        "reports": {"exact_poa": exact["report"], "dynamics": dynamics["report"]},
        "store_bytes": exact["store_bytes"] + dynamics["store_bytes"],
        "counters": common.registry_delta(before, after),
    }
    with open(out, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
