"""Unit tests for the on-disk result cache (repro.api.cache)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    REGISTRY,
    ResultStore,
    SchemeSpec,
    simulate_trials,
)
from repro.simulation.sweep import KDGridSweep, ParameterSweep

SPEC = SchemeSpec(scheme="kd_choice", params={"n_bins": 128, "k": 2, "d": 4}, seed=3)


@pytest.fixture
def counting_scheme(monkeypatch):
    """Patch the registered ``single_choice`` runner with a counting stub.

    Returns the call log; every scheme execution appends its seed, so a test
    can assert exactly how many runner invocations a (cached) run performed.
    """
    info = REGISTRY.get("single_choice")
    calls = []

    def counting_runner(n_bins, n_balls=None, seed=None, rng=None):
        calls.append(seed)
        return info.runner(n_bins, n_balls=n_balls, seed=seed, rng=rng)

    patched = dataclasses.replace(info, runner=counting_runner, kernel=None)
    monkeypatch.setitem(REGISTRY._schemes, "single_choice", patched)
    return calls


class TestCacheKeying:
    def test_cache_key_ignores_seed_trials_label_engine(self):
        base = SPEC.cache_key()
        assert SPEC.with_seed(99).cache_key() == base
        assert dataclasses.replace(
            SPEC, trials=7, label="x", engine="scalar", params=dict(SPEC.params)
        ).cache_key() == base

    def test_cache_key_tracks_content(self):
        assert SPEC.with_params(d=8).cache_key() != SPEC.cache_key()
        assert (
            dataclasses.replace(
                SPEC, policy="greedy", params=dict(SPEC.params)
            ).cache_key()
            != SPEC.cache_key()
        )

    def test_cache_key_resolves_aliases(self):
        alias = SchemeSpec(scheme="kd", params=dict(SPEC.params))
        assert alias.cache_key() == SPEC.cache_key()

    def test_entry_key_separates_seed_engine_and_metrics(self):
        key = ResultStore.entry_key(SPEC, 1, "scalar", ["max_load"])
        assert ResultStore.entry_key(SPEC, 2, "scalar", ["max_load"]) != key
        assert ResultStore.entry_key(SPEC, 1, "vectorized", ["max_load"]) != key
        assert ResultStore.entry_key(SPEC, 1, "scalar", ["gap"]) != key
        # Metric-name order is canonicalized.
        assert ResultStore.entry_key(SPEC, 1, "scalar", ["gap", "max_load"]) == (
            ResultStore.entry_key(SPEC, 1, "scalar", ["max_load", "gap"])
        )


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        first = simulate_trials(SPEC, trials=3, cache=store)
        assert store.stats() == {"hits": 0, "misses": 3, "stores": 3, "pruned": 0}
        second = simulate_trials(SPEC, trials=3, cache=store)
        assert store.hits == 3 and store.misses == 3
        assert [t.seed for t in second.trials] == [t.seed for t in first.trials]
        assert [t.metrics for t in second.trials] == [t.metrics for t in first.trials]

    def test_cache_accepts_directory_path(self, tmp_path):
        first = simulate_trials(SPEC, trials=2, cache=tmp_path)
        second = simulate_trials(SPEC, trials=2, cache=str(tmp_path))
        assert [t.metrics for t in second.trials] == [t.metrics for t in first.trials]
        assert len(ResultStore(tmp_path)) == 2

    def test_cached_results_identical_to_uncached(self, tmp_path):
        uncached = simulate_trials(SPEC, trials=3)
        simulate_trials(SPEC, trials=3, cache=tmp_path)  # warm
        cached = simulate_trials(SPEC, trials=3, cache=tmp_path)  # all hits
        assert [t.metrics for t in cached.trials] == [
            t.metrics for t in uncached.trials
        ]

    def test_corrupt_entry_recomputed_and_repaired(self, tmp_path, counting_scheme):
        spec = SchemeSpec(scheme="single_choice", params={"n_bins": 64}, seed=0)
        store = ResultStore(tmp_path)
        simulate_trials(spec, trials=1, cache=store)
        assert len(counting_scheme) == 1
        (entry,) = list(store.cache_dir.glob("*/*.json"))
        entry.write_text("{not json", encoding="utf-8")
        outcome = simulate_trials(spec, trials=1, cache=store)
        assert len(counting_scheme) == 2  # recomputed
        assert outcome.trials[0].metrics["max_load"] >= 1
        # The entry was rewritten and is valid again.
        assert json.loads(entry.read_text(encoding="utf-8"))["seed"] == (
            outcome.trials[0].seed
        )

    def test_mismatched_metric_names_are_a_miss(self, tmp_path, counting_scheme):
        spec = SchemeSpec(scheme="single_choice", params={"n_bins": 64}, seed=0)
        simulate_trials(spec, trials=1, cache=tmp_path)
        store = ResultStore(tmp_path)

        def custom(result):
            return float(result.max_load)

        simulate_trials(spec, trials=1, cache=store, metrics={"custom": custom})
        assert store.misses == 1 and store.hits == 0
        assert len(counting_scheme) == 2


class TestWarmSweepSkipsRunners:
    def test_second_sweep_run_executes_zero_scheme_runners(
        self, tmp_path, counting_scheme
    ):
        sweep = ParameterSweep(
            grid={"n_bins": [32, 64], "n_balls": [64]}, scheme="single_choice"
        )
        sweep.run_table(trials=2, seed=0, cache=tmp_path)
        cold_calls = len(counting_scheme)
        assert cold_calls == 2 * 2  # 2 grid points x 2 trials

        store = ResultStore(tmp_path)
        table = sweep.run_table(trials=2, seed=0, cache=store)
        assert len(counting_scheme) == cold_calls  # zero new runner executions
        assert store.hits == cold_calls and store.misses == 0
        assert len(table) == 2

    def test_sweep_results_identical_with_and_without_cache(self, tmp_path):
        sweep = KDGridSweep(n=64, k_values=[1, 2], d_values=[2, 4])
        plain = sweep.run_table(trials=2, seed=5)
        sweep.run_table(trials=2, seed=5, cache=tmp_path)  # warm
        warm = sweep.run_table(trials=2, seed=5, cache=tmp_path)
        assert plain.rows == warm.rows

    def test_table1_reports_hits_on_second_run(self, tmp_path):
        from repro.experiments.table1 import run_table1

        store = ResultStore(tmp_path)
        first = run_table1(n=64, trials=2, k_values=[1], d_values=[2, 4], cache=store)
        assert store.misses == 4 and store.hits == 0
        second = run_table1(n=64, trials=2, k_values=[1], d_values=[2, 4], cache=store)
        assert store.hits == 4
        assert {kd: c.max_loads for kd, c in first.cells.items()} == {
            kd: c.max_loads for kd, c in second.cells.items()
        }


class TestPrune:
    def _fill(self, tmp_path, trials=6):
        store = ResultStore(tmp_path)
        simulate_trials(SPEC, trials=trials, cache=store)
        return store

    def test_prune_is_a_noop_without_limits(self, tmp_path):
        store = self._fill(tmp_path)
        assert store.prune() == 0
        assert len(store) == 6

    def test_prune_to_max_entries_keeps_the_newest(self, tmp_path):
        import os
        import time

        store = self._fill(tmp_path)
        entries = sorted(store.cache_dir.glob("*/*.json"))
        # Give the files distinct, known mtimes so the eviction order is
        # observable (oldest first).
        now = time.time()
        for index, path in enumerate(entries):
            os.utime(path, (now + index, now + index))
        evicted = store.prune(max_entries=2)
        assert evicted == 4
        survivors = set(store.cache_dir.glob("*/*.json"))
        assert survivors == set(entries[-2:])
        assert store.pruned == 4

    def test_prune_to_max_bytes(self, tmp_path):
        store = self._fill(tmp_path)
        sizes = [p.stat().st_size for p in store.cache_dir.glob("*/*.json")]
        budget = sum(sorted(sizes)[:3])  # room for about three entries
        store.prune(max_bytes=budget)
        remaining = list(store.cache_dir.glob("*/*.json"))
        assert 0 < len(remaining) <= 3
        assert sum(p.stat().st_size for p in remaining) <= budget

    def test_prune_preserves_hit_miss_counters_and_recomputes(self, tmp_path):
        store = self._fill(tmp_path, trials=3)
        assert store.misses == 3
        store.prune(max_entries=0)
        assert len(store) == 0
        assert store.misses == 3 and store.hits == 0  # untouched by eviction
        outcome = simulate_trials(SPEC, trials=3, cache=store)
        assert store.misses == 6  # evicted entries recompute as plain misses
        assert len(outcome.trials) == 3

    def test_prune_validates_limits(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)
        with pytest.raises(ValueError):
            store.prune(max_bytes=-1)

    def test_prune_results_unchanged_after_eviction(self, tmp_path):
        store = self._fill(tmp_path)
        before = simulate_trials(SPEC, trials=6, cache=store)
        store.prune(max_entries=2)
        after = simulate_trials(SPEC, trials=6, cache=store)
        assert [t.metrics for t in before.trials] == [
            t.metrics for t in after.trials
        ]
