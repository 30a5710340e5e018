"""The paper's headline, in one table: more cooperation, better anarchy.

For a fixed number of agents and a grid of edge prices, compute the *exact*
worst-case Price of Anarchy over all tree equilibria for each rung of the
cooperation ladder (PS -> BSwE -> BGE -> 3-BSE), by exhaustive enumeration
of all non-isomorphic trees.  The table mirrors Table 1 of the paper at
laptop scale: PS is the worst, swaps help, and 3-coalitions pin the PoA to
a constant.

The sweep itself is a campaign (:mod:`repro.campaigns`): this script
builds the spec in code and runs it against an in-memory store, and is
output-identical to the committed ``campaigns/cooperation_ladder.json``
run through ``python -m repro.campaigns run`` — which also gives you
multiprocessing workers and kill-and-resume for free.

Run:  python examples/cooperation_ladder.py [n]
"""

import sys

from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    render_report,
    run_campaign,
)


def ladder_spec(n: int = 9, alphas=(2, 4, 8, 16, 32, 64)) -> CampaignSpec:
    """The cooperation-ladder sweep as a declarative campaign."""
    ladder = [
        ("PoA(PS)", "PS", None),
        ("PoA(BSwE)", "BSWE", None),
        ("PoA(BGE)", "BGE", None),
        ("PoA(3-BSE)", "BGE", 3),
    ]
    return CampaignSpec(
        name="cooperation-ladder",
        kind="exact_poa",
        grids=tuple(
            {"family": "trees", "n": n, "alpha": list(alphas),
             "concept": concept}
            | ({} if k is None else {"k": k})
            for _, concept, k in ladder
        ),
        report={
            "reducer": "poa_table",
            "options": {
                "n": n,
                "family": "trees",
                "alphas": list(alphas),
                "title": (
                    "Exact tree PoA by cooperation level (all trees, n={n})"
                ),
                "columns": [
                    {"header": header, "concept": concept}
                    | ({} if k is None else {"k": k})
                    for header, concept, k in ladder
                ],
            },
            "footer": (
                "Paper, Table 1: PS = Theta(min(sqrt a, n/sqrt a)); "
                "BSwE, BGE = Theta(log a); 3-BSE = Theta(1)."
            ),
        },
    )


def main(n: int = 9) -> None:
    spec = ladder_spec(n)
    store = CampaignStore(None)  # ephemeral in-memory store
    stats = run_campaign(spec, store)
    assert stats.failed == 0, "a ladder trial failed"
    print(render_report(spec, store))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
