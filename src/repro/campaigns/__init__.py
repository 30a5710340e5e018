"""Parallel experiment campaigns: declarative sweeps over the engine.

The paper's empirical story — Table 1, the PoA ladder, the convergence
questions of its conclusion — is a grid of instances x exact alpha
regimes x solution concepts x seeds.  This package makes that grid a
first-class object:

* :mod:`~repro.campaigns.spec` — declarative :class:`CampaignSpec`
  (JSON round-trip, committed next to the code) expanding
  deterministically into content-addressed :class:`Trial`\\ s;
* :mod:`~repro.campaigns.runners` — the per-trial execution kinds
  (``exact_poa``, the one PoA runner, plus ``conjecture_hunt``,
  ``constructions``, ``ladder_classify`` and ``dynamics``), all
  bit-reproducible from the campaign seed;
* :mod:`~repro.campaigns.executor` — sharded ``multiprocessing``
  execution that survives worker crashes and streams records;
* :mod:`~repro.campaigns.store` — append-only JSONL store + manifest
  keyed by trial hash (resume skips completed trials; ``Fraction``\\ s
  survive exactly);
* :mod:`~repro.campaigns.aggregate` — reducers to Table-1-style
  renderings and :class:`~repro.dynamics.convergence.ConvergenceStats`;
* :mod:`~repro.campaigns.cli` — ``python -m repro.campaigns``
  (``run`` / ``status`` / ``report``).
"""

from repro.campaigns.aggregate import (
    REDUCERS,
    convergence_stats,
    render_report,
)
from repro.campaigns.executor import RunStats, TrialOutcome, run_campaign
from repro.campaigns.spec import CampaignSpec, Trial, trial_key
from repro.campaigns.store import CampaignStore

__all__ = [
    "REDUCERS",
    "CampaignSpec",
    "CampaignStore",
    "RunStats",
    "Trial",
    "TrialOutcome",
    "convergence_stats",
    "render_report",
    "run_campaign",
    "trial_key",
]
