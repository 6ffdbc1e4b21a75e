"""Fault-tolerant pool execution: deterministic injection + recovery.

Pins the crash-safety guarantee of docs/SEARCH.md: under injected worker
crashes, chunk timeouts and evaluation exceptions, every search returns
the *bit-identical* best mapping and cost of a fault-free run, and every
recovery event is counted in ``SearchStats.faults``.

The process pool is the evaluation path of a numpy-less install; the
``scalar`` fixture puts these tests on that path (numpy stays installed,
only the engine's availability flag is cleared), so every run drives a
real 2-worker pool.
"""

import pytest

from repro.arch import tiny
from repro.core import SchedulerOptions, schedule
from repro.mapping.serialize import mapping_to_dict
from repro.search import FaultPlan, InjectedFault, SearchEngine, plan_from_env
from repro.search.faults import checkpoint_kill_after, trip_chunk_fault
from repro.workloads import conv1d
from tests.harness import scalar_paths

WORKLOAD = conv1d(K=4, C=4, P=14, R=3)
ARCH = tiny(l1_words=64, l2_words=512, pes=4)


@pytest.fixture(autouse=True)
def scalar():
    """Every test here runs on the no-numpy paths, where ``workers > 1``
    reaches the process pool."""
    with scalar_paths():
        yield


def _cost_tuple(result):
    return (result.cost.energy_pj, result.cost.cycles, result.cost.edp)


def _oracle():
    """Fault-free serial reference (the same scalar pipeline the pooled
    runs use, minus the pool)."""
    return schedule(WORKLOAD, ARCH, SchedulerOptions())


def _pooled(plan, **engine_kwargs):
    """One search through a genuine 2-worker pool with ``plan`` armed.

    ``clamp_workers=False`` keeps the pool real even on 1-core CI
    runners — the recovery paths under test need actual worker
    processes to crash.
    """
    engine = SearchEngine(workers=2, fault_plan=plan,
                          clamp_workers=False, **engine_kwargs)
    with engine:
        result = schedule(WORKLOAD, ARCH, SchedulerOptions(workers=2),
                          engine=engine)
    # The sweep's cohorts really went over the pool.
    assert "pool" in engine.stats.stage_time_s
    return result, engine.stats.faults


# ---------------------------------------------------------------------------
# FaultPlan unit behaviour
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_explicit_sites_fire_once(self):
        plan = FaultPlan(chunk_faults={2: "crash"})
        assert plan.chunk_fault(0, 0) is None
        assert plan.chunk_fault(2, 0) == "crash"
        # The retry of the same site succeeds (attempt 1 >= attempts=1).
        assert plan.chunk_fault(2, 1) is None
        assert plan.fired == [("crash", 2, 0)]

    def test_attempts_controls_repeat_failures(self):
        plan = FaultPlan(chunk_faults={0: "timeout"}, attempts=3)
        assert [plan.chunk_fault(0, a) for a in range(4)] == \
            ["timeout", "timeout", "timeout", None]

    def test_max_faults_budget(self):
        plan = FaultPlan(chunk_faults={0: "crash", 1: "crash"}, max_faults=1)
        assert plan.chunk_fault(0, 0) == "crash"
        assert plan.chunk_fault(1, 0) is None

    def test_eval_faults_raise(self):
        plan = FaultPlan(eval_faults={3})
        plan.check_eval(0, 0)  # silent
        with pytest.raises(InjectedFault):
            plan.check_eval(3, 0)
        plan.check_eval(3, 1)  # retry succeeds

    def test_seeded_rates_are_order_insensitive(self):
        decisions = {}
        for order in (range(50), reversed(range(50))):
            plan = FaultPlan(seed=7, crash_rate=0.3)
            decisions[str(order)] = [plan.chunk_fault(s, 0) for s in
                                     sorted(order)]
        first, second = decisions.values()
        assert first == second
        assert any(k == "crash" for k in first)
        assert any(k is None for k in first)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(attempts=0)
        with pytest.raises(ValueError):
            FaultPlan(chunk_faults={0: "segfault"})

    def test_trip_exception_kind(self):
        trip_chunk_fault(None)  # no-op
        with pytest.raises(InjectedFault):
            trip_chunk_fault("exception")


class TestEnvHooks:
    def test_plan_from_env_parses_sites(self):
        plan = plan_from_env({"REPRO_FAULTS": "crash@2, timeout@5,evalexc@0"})
        assert plan.chunk_faults == {2: "crash", 5: "timeout"}
        assert plan.eval_faults == frozenset({0})

    def test_plan_from_env_unset_is_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "  "}) is None

    def test_plan_from_env_rejects_garbage(self):
        with pytest.raises(ValueError):
            plan_from_env({"REPRO_FAULTS": "crash"})
        with pytest.raises(ValueError):
            plan_from_env({"REPRO_FAULTS": "segfault@1"})

    def test_checkpoint_kill_after(self):
        assert checkpoint_kill_after({}) is None
        assert checkpoint_kill_after(
            {"REPRO_CHECKPOINT_KILL_AFTER": "3"}) == 3
        with pytest.raises(ValueError):
            checkpoint_kill_after({"REPRO_CHECKPOINT_KILL_AFTER": "0"})


# ---------------------------------------------------------------------------
# Recovery paths: bit-identical results under injected faults
# ---------------------------------------------------------------------------


def test_worker_crash_is_recovered_bit_identically():
    oracle = _oracle()
    result, faults = _pooled(FaultPlan(chunk_faults={0: "crash"}))
    assert faults.injected == 1
    assert faults.crashes_recovered == 1
    assert faults.pool_rebuilds == 1
    assert faults.retries >= 1
    assert not faults.degraded_serial
    assert mapping_to_dict(result.mapping) == mapping_to_dict(oracle.mapping)
    assert _cost_tuple(result) == _cost_tuple(oracle)
    assert result.stats.evaluations == oracle.stats.evaluations


def test_chunk_timeout_is_recovered_bit_identically():
    oracle = _oracle()
    result, faults = _pooled(FaultPlan(chunk_faults={1: "timeout"}))
    assert faults.injected == 1
    assert faults.chunk_timeouts == 1
    assert faults.pool_rebuilds == 1
    assert mapping_to_dict(result.mapping) == mapping_to_dict(oracle.mapping)
    assert _cost_tuple(result) == _cost_tuple(oracle)


def test_worker_exception_is_recovered_bit_identically():
    oracle = _oracle()
    result, faults = _pooled(FaultPlan(chunk_faults={0: "exception"}))
    assert faults.injected == 1
    assert faults.retries >= 1
    # An exception does not break the pool: no rebuild needed.
    assert faults.pool_rebuilds == 0
    assert mapping_to_dict(result.mapping) == mapping_to_dict(oracle.mapping)
    assert _cost_tuple(result) == _cost_tuple(oracle)


def test_repeated_crashes_degrade_to_serial_bit_identically():
    """Exhausting the rebuild budget falls back to in-process evaluation
    (permanently), still converging to the fault-free answer."""
    oracle = _oracle()
    plan = FaultPlan(chunk_faults={0: "crash"}, attempts=5)
    result, faults = _pooled(plan)
    assert faults.degraded_serial
    assert faults.degraded_chunks >= 1
    assert faults.pool_rebuilds == 1  # budget is max_pool_rebuilds=1
    assert mapping_to_dict(result.mapping) == mapping_to_dict(oracle.mapping)
    assert _cost_tuple(result) == _cost_tuple(oracle)


def test_inprocess_eval_fault_is_retried():
    plan = FaultPlan(eval_faults={0})
    engine = SearchEngine(workers=1, fault_plan=plan)
    result = schedule(WORKLOAD, ARCH, SchedulerOptions(), engine=engine)
    oracle = _oracle()
    assert engine.stats.faults.injected == 1
    assert engine.stats.faults.retries == 1
    assert _cost_tuple(result) == _cost_tuple(oracle)


def test_inprocess_eval_fault_exhausts_retries():
    import random

    from repro.baselines.random_search import sample_random_mapping

    plan = FaultPlan(eval_faults={0}, attempts=99)
    engine = SearchEngine(workers=1, cache=False, fault_plan=plan)
    mapping = sample_random_mapping(WORKLOAD, ARCH, random.Random(0))
    with pytest.raises(InjectedFault):
        engine.evaluate(mapping)


def test_fault_stats_surface_in_profile_and_json():
    result, faults = _pooled(FaultPlan(chunk_faults={0: "crash"}))
    stats = result.stats.search
    doc = stats.to_dict()
    assert doc["faults"]["crashes_recovered"] == 1
    assert doc["faults"]["pool_rebuilds"] == 1
    assert "faults:" in stats.profile_summary()
    assert "crashes recovered 1" in stats.faults.summary()


def test_fault_free_run_reports_no_faults():
    result = _oracle()
    assert not result.stats.search.faults.any()
    assert "faults:" not in result.stats.search.profile_summary()


def test_cli_picks_up_fault_env(monkeypatch, tmp_path, capsys):
    """REPRO_FAULTS drives the unmodified CLI; the search still succeeds
    and the injected faults are visible in --stats-json."""
    import json

    from repro.cli import main

    monkeypatch.setenv("REPRO_FAULTS", "evalexc@0")
    stats_path = tmp_path / "stats.json"
    code = main(["schedule", "--workload", "conv1d", "--arch", "tiny",
                 "--stats-json", str(stats_path),
                 "K=4", "C=4", "P=14", "R=3"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(stats_path.read_text())
    assert doc["search"]["faults"]["injected"] >= 1
    assert doc["search"]["faults"]["retries"] >= 1
