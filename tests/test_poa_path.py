"""One PoA path: the ``exact_poa`` runner, ``poa_table`` and legacy names.

The byte-identity evidence under ``tests/data`` was rendered by the code
that still had five PoA runner kinds and four table reducers:

* ``reports/<spec>.txt`` — the reports of committed specs, as
  ``python -m repro.campaigns report --out`` writes them;
* ``legacy_store/`` — a store written with the ``tree_poa``,
  ``graph_poa``, ``weighted_poa`` and ``generalized_poa`` kinds, with
  ``legacy_reports.json`` holding the report configs rendered into
  ``reports/legacy_<name>.txt``.
"""

from __future__ import annotations

import json
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.poa import (
    _scan,
    empirical_layer_poa,
    empirical_tree_poa,
    empirical_weighted_poa,
    exact_weighted_tree_poa,
)
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    render_report,
    run_campaign,
    trial_key,
)
from repro.campaigns.aggregate import REDUCERS
from repro.campaigns.runners import RUNNERS, execute_trial
from repro.campaigns.spec import LEGACY_KINDS, LEGACY_REDUCERS
from repro.campaigns.store import merge_shards
from repro.core.concepts import Concept
from repro.core.costmodel import costmodel_from_spec
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.serve.views import MaterialisedViews

REPO_ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
LEGACY_STORE = DATA / "legacy_store"


def _golden(name: str) -> str:
    return (DATA / "reports" / f"{name}.txt").read_text()


def _run_committed(name: str) -> tuple[CampaignSpec, CampaignStore]:
    spec = CampaignSpec.load(REPO_ROOT / "campaigns" / f"{name}.json")
    store = CampaignStore(None)
    assert run_campaign(spec, store).failed == 0
    return spec, store


def _legacy_copy(tmp_path: Path) -> Path:
    root = tmp_path / "legacy"
    shutil.copytree(LEGACY_STORE, root)
    return root


def _legacy_spec(report) -> CampaignSpec:
    """The legacy store's own spec.json, with ``report`` swapped in."""
    raw = json.loads((LEGACY_STORE / "spec.json").read_text())
    return CampaignSpec.from_dict({**raw, "report": report})


LEGACY_REPORTS = json.loads((DATA / "legacy_reports.json").read_text())


class TestCommittedReportsAreByteIdentical:
    @pytest.mark.parametrize(
        "name", ["traffic_regimes", "generalized_regimes", "poa_scaling"]
    )
    def test_report_matches_golden(self, name):
        spec, store = _run_committed(name)
        assert render_report(spec, store) + "\n" == _golden(name)

    def test_smoke_trial_table_changes_only_as_documented(self):
        """``trial_table`` prints kind, params and results verbatim: the
        PoA rows turn from ``tree_poa`` into ``exact_poa``, gain
        ``family=trees`` and gain the two witness fields; nothing else
        in the report moves."""
        spec, store = _run_committed("smoke")
        new = render_report(spec, store).splitlines()
        old = _golden("smoke").splitlines()
        assert len(new) == len(old) and new[0] == old[0]

        def cells(line):
            return re.split(r"\s{2,}", line.strip(), maxsplit=3)

        for before, after in zip(old[3:], new[3:]):
            kind, params, status, result = cells(before)
            if kind == "dynamics":
                assert cells(after) == cells(before)
                continue
            assert kind == "tree_poa"
            got = cells(after)
            assert got[:3] == [
                "exact_poa", params.replace(" n=", " family=trees n="), status,
            ]
            assert got[3].startswith(result + "  witness_edges=[[")
            assert re.search(r"  witness_key=[0-9a-f]{32}$", got[3])


class TestLegacyStore:
    def test_resume_runs_nothing_and_leaves_files_alone(self, tmp_path):
        root = _legacy_copy(tmp_path)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        store = CampaignStore(root)
        spec = store.load_spec()
        assert spec.kind == "exact_poa"
        stats = run_campaign(spec, store)
        store.close()
        assert stats.executed == 0
        assert stats.skipped == stats.total == len(spec.trials()) == 24
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("name", sorted(LEGACY_REPORTS))
    def test_report_matches_golden(self, tmp_path, name):
        spec = _legacy_spec(LEGACY_REPORTS[name])
        store = CampaignStore(_legacy_copy(tmp_path))
        assert render_report(spec, store) + "\n" == _golden(f"legacy_{name}")

    def test_legacy_shard_merges_under_new_keys(self, tmp_path):
        root = tmp_path / "sharded"
        root.mkdir()
        shutil.copy(LEGACY_STORE / "spec.json", root / "spec.json")
        shutil.copy(
            LEGACY_STORE / "results.jsonl", root / "results-old-host.jsonl"
        )
        stats = merge_shards(root, prune=True)
        assert stats.total_merged == 24
        store = CampaignStore(root)
        assert run_campaign(store.load_spec(), store).executed == 0
        spec = _legacy_spec(LEGACY_REPORTS["tree_table"])
        assert render_report(spec, store) + "\n" == _golden(
            "legacy_tree_table"
        )

    def test_legacy_spec_upgrade_is_idempotent(self):
        spec = _legacy_spec(LEGACY_REPORTS["weighted_table"])
        assert spec.report["reducer"] == "poa_table"
        assert "kind" not in spec.report["options"]
        assert {trial.kind for trial in spec.trials()} == {"exact_poa"}
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_serve_answers_legacy_and_new_spellings_alike(self, tmp_path):
        views = MaterialisedViews([_legacy_copy(tmp_path)])
        cell = {"n": 6, "alpha": 4, "concept": "PS"}
        legacy = views.lookup("tree_poa", cell)
        assert legacy is not None
        assert legacy == views.lookup(
            "exact_poa", {**cell, "family": "trees"}
        )
        assert views.lookup("graph_poa", {**cell, "n": 5}) == views.lookup(
            "exact_poa", {**cell, "n": 5, "family": "graphs"}
        )


class TestTrialKeysArePinned:
    @pytest.mark.parametrize(
        "params, key",
        [
            ({"family": "graphs", "n": 8, "m": 7, "alpha": 2,
              "concept": "PS"}, "fcfde18bf50151c7bd9a91e9b1fa638f"),
            ({"family": "graphs", "n": 8, "m": 13, "alpha": "9/2",
              "concept": "BGE"}, "9cb8fcd2d0cc97dba0b6e1bd872c0b12"),
            ({"family": "graphs", "n": 8, "m": 28, "alpha": 3,
              "concept": "PS"}, "225065fee74cf3c8cf289431596ccd23"),
            ({"family": "trees", "n": 8, "alpha": 3, "concept": "BGE"},
             "79f36c3160de58fddd998f7be0c59f7b"),
        ],
    )
    def test_exact_poa_key(self, params, key):
        assert trial_key("exact_poa", params) == key

    def test_committed_exact_poa_spec_keys(self):
        spec = CampaignSpec.load(REPO_ROOT / "campaigns" / "exact_poa.json")
        keys = {trial.key for trial in spec.trials()}
        assert "fcfde18bf50151c7bd9a91e9b1fa638f" in keys
        assert "225065fee74cf3c8cf289431596ccd23" in keys
        assert "79f36c3160de58fddd998f7be0c59f7b" in keys


class TestOnePath:
    def test_registries_hold_no_legacy_names(self):
        assert not set(LEGACY_KINDS) & set(RUNNERS)
        assert not set(LEGACY_REDUCERS) & set(REDUCERS)

    def test_no_committed_spec_example_or_bench_uses_legacy_names(self):
        names = "|".join(sorted({*LEGACY_KINDS, *LEGACY_REDUCERS}))
        quoted = re.compile(rf"""["']({names})["']""")
        files = [
            *(REPO_ROOT / "campaigns").glob("*.json"),
            *(REPO_ROOT / "examples").glob("*.py"),
            *(REPO_ROOT / "benchmarks").glob("*.py"),
        ]
        assert files
        offenders = [
            f"{path.name}: {match.group(1)}"
            for path in files
            for match in quoted.finditer(path.read_text())
        ]
        assert offenders == []

    def test_rho_scan_never_prices_a_non_equilibrium(self, monkeypatch):
        calls = []
        original = GameState.social_cost

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(GameState, "social_cost", counted)
        result = empirical_layer_poa(6, 7, 2, Concept.PS)
        assert result.candidates > result.equilibria > 0
        assert len(calls) <= result.equilibria  # rho() may price them

    def test_family_relative_ratio_refuses_a_layer(self):
        with pytest.raises(ValueError, match="whole family"):
            execute_trial(
                "exact_poa",
                {"family": "graphs", "n": 5, "m": 5, "alpha": Fraction(2),
                 "concept": Concept.PS, "traffic": {"model": "uniform"}},
                base_seed=0,
            )

    def test_poa_fit_layered_equals_whole(self):
        n, alphas = 5, [2, 3, 4]
        report = {
            "reducer": "poa_fit",
            "options": {
                "n": n, "alphas": alphas, "family": "graphs",
                "columns": [{"header": "PS", "concept": "PS"}],
            },
        }
        grid = {"family": "graphs", "n": n, "alpha": alphas, "concept": "PS"}
        layered = CampaignSpec(
            name="fit-layered", kind="exact_poa", report=report,
            grids=({**grid, "m": {"$range": [n - 1, 11]}},),
        )
        whole = CampaignSpec(
            name="fit-whole", kind="exact_poa", report=report, grids=(grid,)
        )
        texts = []
        for spec in (layered, whole):
            store = CampaignStore(None)
            assert run_campaign(spec, store).failed == 0
            texts.append(render_report(spec, store))
        assert texts[0] == texts[1]
        assert re.search(r"^PS\s+3\s", texts[0], re.MULTILINE)


class TestSingleNodeGame:
    """n = 1: the only graph costs 0, so both ratio modes report 1."""

    def test_rho_mode(self):
        assert empirical_tree_poa(1, 2, Concept.PS).poa == 1

    @pytest.mark.parametrize(
        "traffic, costmodel",
        [
            (None, None),
            ({"model": "uniform"}, None),
            (None, {"model": "linear"}),
            (None, {"model": "max"}),
        ],
    )
    def test_family_relative_mode(self, traffic, costmodel):
        result = empirical_weighted_poa(
            1, 2, Concept.PS,
            traffic=TrafficMatrix.uniform(1) if traffic else None,
            cost_model=costmodel_from_spec(costmodel, 1),
        )
        assert result.poa == 1
        assert result.worst_cost == result.best_cost == 0

    def test_labelled_trees(self):
        uniform = TrafficMatrix.uniform(1)
        assert exact_weighted_tree_poa(1, 2, Concept.PS, uniform).poa == 1

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"family": "graphs"},
            {"traffic": {"model": "uniform"}},
            {"costmodel": {"model": "max"}},
            {"family": "labelled_trees", "traffic": {"model": "uniform"}},
        ],
    )
    def test_runner(self, extra):
        params = {"family": "trees", "n": 1, "alpha": Fraction(2),
                  "concept": Concept.PS}
        result = execute_trial("exact_poa", {**params, **extra}, 0)
        assert result["poa"] == 1

    def test_empty_family_raises(self):
        with pytest.raises(ValueError, match="empty"):
            _scan(iter(()), 0, 2, Concept.PS, None, relative=True)
