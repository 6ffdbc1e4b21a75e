"""Deterministic fault injection and in-process recovery.

Pins the crash-safety guarantee of docs/SEARCH.md: under injected
evaluation exceptions, every search returns the *bit-identical* best
mapping and cost of a fault-free run, and every injected fault and
retry is counted in ``SearchStats.faults``.

Injected faults fire in scalar cost-model calls; the ``scalar`` fixture
puts these tests on the no-numpy paths (numpy stays installed, only the
engine's availability flag is cleared), so every evaluation is one.
"""

import pytest

from repro.arch import tiny
from repro.core import SchedulerOptions, schedule
from repro.search import FaultPlan, InjectedFault, SearchEngine, plan_from_env
from repro.search.faults import checkpoint_kill_after
from repro.workloads import conv1d
from tests.harness import scalar_paths

WORKLOAD = conv1d(K=4, C=4, P=14, R=3)
ARCH = tiny(l1_words=64, l2_words=512, pes=4)


@pytest.fixture(autouse=True)
def scalar():
    """Every test here runs on the no-numpy paths, where every
    evaluation is a scalar (fault-injectable) call."""
    with scalar_paths():
        yield


def _cost_tuple(result):
    return (result.cost.energy_pj, result.cost.cycles, result.cost.edp)


def _oracle():
    """Fault-free reference on the same scalar pipeline."""
    return schedule(WORKLOAD, ARCH, SchedulerOptions())


def _faulted(plan):
    """One search with ``plan`` armed; returns (result, fault stats)."""
    engine = SearchEngine(fault_plan=plan)
    result = schedule(WORKLOAD, ARCH, SchedulerOptions(), engine=engine)
    return result, engine.stats.faults


def _fires(plan, site, attempt):
    try:
        plan.check_eval(site, attempt)
    except InjectedFault:
        return True
    return False


# ---------------------------------------------------------------------------
# FaultPlan unit behaviour
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_explicit_sites_fire_once(self):
        plan = FaultPlan(eval_faults={2})
        assert not _fires(plan, 0, 0)
        assert _fires(plan, 2, 0)
        # The retry of the same site succeeds (attempt 1 >= attempts=1).
        assert not _fires(plan, 2, 1)
        assert plan.fired == [(2, 0)]

    def test_attempts_controls_repeat_failures(self):
        plan = FaultPlan(eval_faults={0}, attempts=3)
        assert [_fires(plan, 0, a) for a in range(4)] == \
            [True, True, True, False]

    def test_max_faults_budget(self):
        plan = FaultPlan(eval_faults={0, 1}, max_faults=1)
        assert _fires(plan, 0, 0)
        assert not _fires(plan, 1, 0)

    def test_eval_faults_raise(self):
        plan = FaultPlan(eval_faults={3})
        plan.check_eval(0, 0)  # silent
        with pytest.raises(InjectedFault):
            plan.check_eval(3, 0)
        plan.check_eval(3, 1)  # retry succeeds

    def test_seeded_rates_are_order_insensitive(self):
        decisions = {}
        for order in (range(50), reversed(range(50))):
            plan = FaultPlan(seed=7, exception_rate=0.3)
            fired = {site: _fires(plan, site, 0) for site in order}
            decisions[str(order)] = [fired[s] for s in range(50)]
        first, second = decisions.values()
        assert first == second
        assert any(first)
        assert not all(first)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            FaultPlan(exception_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(attempts=0)


class TestEnvHooks:
    def test_plan_from_env_parses_sites(self):
        plan = plan_from_env({"REPRO_FAULTS": "evalexc@2, evalexc@0"})
        assert plan.eval_faults == frozenset({0, 2})

    def test_plan_from_env_unset_is_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "  "}) is None

    def test_plan_from_env_rejects_garbage(self):
        with pytest.raises(ValueError):
            plan_from_env({"REPRO_FAULTS": "evalexc"})
        with pytest.raises(ValueError):
            plan_from_env({"REPRO_FAULTS": "segfault@1"})
        # The retired pool-site kinds are rejected with a pointer to the
        # one kind that remains.
        for kind in ("crash", "timeout", "exception"):
            with pytest.raises(ValueError, match="evalexc"):
                plan_from_env({"REPRO_FAULTS": f"{kind}@0"})

    def test_checkpoint_kill_after(self):
        assert checkpoint_kill_after({}) is None
        assert checkpoint_kill_after(
            {"REPRO_CHECKPOINT_KILL_AFTER": "3"}) == 3
        with pytest.raises(ValueError):
            checkpoint_kill_after({"REPRO_CHECKPOINT_KILL_AFTER": "0"})


# ---------------------------------------------------------------------------
# Recovery: bit-identical results under injected faults
# ---------------------------------------------------------------------------


def test_inprocess_eval_fault_is_retried():
    result, faults = _faulted(FaultPlan(eval_faults={0}))
    oracle = _oracle()
    assert faults.injected == 1
    assert faults.retries == 1
    assert _cost_tuple(result) == _cost_tuple(oracle)


def test_inprocess_eval_fault_exhausts_retries():
    import random

    from repro.baselines.random_search import sample_random_mapping

    plan = FaultPlan(eval_faults={0}, attempts=99)
    engine = SearchEngine(cache=False, fault_plan=plan)
    mapping = sample_random_mapping(WORKLOAD, ARCH, random.Random(0))
    with pytest.raises(InjectedFault):
        engine.evaluate(mapping)


def test_fault_stats_surface_in_profile_and_json():
    result, faults = _faulted(FaultPlan(eval_faults={0}))
    stats = result.stats.search
    assert stats.to_dict()["faults"] == {"injected": 1, "retries": 1}
    assert "faults: injected 1, retries 1" in stats.profile_summary()


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
