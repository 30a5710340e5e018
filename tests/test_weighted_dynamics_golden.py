"""Golden trajectories for best-response dynamics under demand matrices.

Seeded BGE and BNE trajectories under the five demand models of
``campaigns/traffic_regimes.json`` (uniform, hub-and-spoke, broadcast,
gravity, seeded random), at n = 10..16 from random trees and connected
G(n, p) starts.  Every round goes through the best-improvement
scheduler, so the golden pins move *pricing* (the speculative kernel and
its batch sweeps), not only the checkers' verdicts.  Each trajectory
records its chosen moves, final edge set, final social cost and the
``repro_engine_evaluations_total`` delta (candidate evaluations spent).

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_weighted_dynamics_golden.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from repro.core.concepts import Concept
from repro.core.speculative import evaluation_count
from repro.core.traffic import traffic_from_spec
from repro.dynamics.engine import run_dynamics
from repro.dynamics.schedulers import best_improvement_scheduler
from repro.graphs.generation import random_connected_gnp, random_tree

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "weighted_dynamics.txt"
#: (concept, alpha, sizes, seeds); BNE stays at n=10, where its exact
#: convergence check (an exhaustive neighborhood search) stays cheap
CASES = (
    (Concept.BGE, Fraction(3), (10, 13, 16), (0, 1, 2)),
    (Concept.BNE, Fraction(5, 2), (10,), (0, 1)),
)
MAX_ROUNDS = 60


def traffic_specs(n: int) -> list[dict]:
    """The campaign's five demand models, resized to ``n`` agents (the
    gravity weights keep their heavy head and pad with ones)."""
    spec = json.loads((ROOT / "campaigns" / "traffic_regimes.json").read_text())
    specs = []
    for traffic in spec["grids"][0]["traffic"]:
        traffic = dict(traffic)
        if traffic["model"] == "gravity":
            head = traffic["weights"][:3]
            traffic["weights"] = head + [1] * (n - len(head))
        specs.append(traffic)
    return specs


def start_graph(n: int, seed: int):
    rng = random.Random(1_000 * n + seed)
    if seed % 2 == 0:
        return random_tree(n, rng)
    return random_connected_gnp(n, 0.2, rng)


def render() -> str:
    lines = []
    for concept, alpha, sizes, seeds in CASES:
        for n in sizes:
            for traffic_spec in traffic_specs(n):
                traffic = traffic_from_spec(traffic_spec, n)
                for seed in seeds:
                    before = evaluation_count()
                    result = run_dynamics(
                        start_graph(n, seed),
                        alpha,
                        concept,
                        scheduler=best_improvement_scheduler,
                        max_rounds=MAX_ROUNDS,
                        rng=random.Random(seed),
                        traffic=traffic,
                    )
                    evaluations = evaluation_count() - before
                    final = result.final
                    edges = sorted(tuple(sorted(e)) for e in final.edges())
                    lines.append(
                        f"n={n} traffic={json.dumps(traffic_spec, sort_keys=True)}"
                        f" seed={seed} concept={concept.name} alpha={alpha}"
                    )
                    for index, move in enumerate(result.moves):
                        lines.append(f"  round {index}: {move!r}")
                    lines.append(
                        f"  converged={result.converged}"
                        f" cycled={result.cycled} rounds={result.rounds}"
                    )
                    lines.append(f"  social_cost={final.social_cost()}")
                    lines.append(f"  final_edges={edges}")
                    lines.append(f"  evaluations={evaluations}")
    return "\n".join(lines) + "\n"


def test_weighted_dynamics_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
