"""Technology-pack registry and multi-chip hierarchy tests.

The central contract is *bit-identity under the default pack*: resolving
any preset through the ``cmos45`` pack reproduces the historical
hand-pinned energies exactly, so every golden outcome is unchanged — on
the vectorised and on the scalar (no-numpy) paths.  On
top of that: packs are selectable and actually change energies, pack
identity flows into eval-cache keys (two packs never share entries),
resolved SRAM energies are monotone in capacity, lookup errors carry
their pack/level context, and the two-chiplet preset exercises the
``chip2chip`` link end to end.
"""

from __future__ import annotations

import contextlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    conventional,
    diannao_like,
    simba_like,
    tiny,
    two_chiplet,
)
from repro.core.scheduler import SchedulerOptions, SunstoneScheduler
from repro.energy import (
    CMOS7,
    CMOS45,
    CRYO,
    EnergyLookupError,
    EnergyTable,
    TechnologyError,
    TechnologyPack,
    available_packs,
    get_pack,
    resolve_architecture,
)
from repro.model import evaluate
from repro.model.batch import MIN_BATCH, evaluate_batch
from repro.search import EvalCache, mapping_fingerprint
from repro.search.fingerprint import architecture_fingerprint
from repro.serve.cache import SharedEvalCache
from tests import harness

_SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# default pack == historical constants, bit for bit
# ---------------------------------------------------------------------------

def test_default_pack_reproduces_historical_preset_energies():
    """The cmos45-resolved presets carry the exact floats the goldens pin."""
    arch = conventional()
    assert arch.tech == "cmos45"
    l1 = arch.levels[0]
    assert l1.read_energy == 0.5076467529817257
    assert l1.write_energy == 0.5584114282798983
    assert arch.levels[-1].read_energy == 200.0
    assert arch.mac_energy == 2.2


@pytest.mark.parametrize("preset", [conventional, simba_like,
                                    diannao_like, tiny, two_chiplet])
def test_default_pack_is_the_presets_default(preset):
    """Calling a preset with tech='cmos45' is the same architecture."""
    assert (architecture_fingerprint(preset())
            == architecture_fingerprint(preset(tech="cmos45")))


@pytest.mark.parametrize("options,scalar", [
    (SchedulerOptions(), False),
    (SchedulerOptions(), True),
], ids=["default", "no-batch-gen"])
def test_default_pack_matches_goldens(options, scalar):
    """Pack resolution must not move any golden outcome, on the
    vectorised and the scalar (no-numpy) paths."""
    golden = json.loads(
        (harness.GOLDEN_DIR / "sunstone_small_conv.json").read_text())
    with harness.scalar_paths() if scalar else contextlib.nullcontext():
        result = SunstoneScheduler(
            harness.small_conv(), harness.small_arch(), options).schedule()
    assert result.found == golden["found"]
    assert repr(mapping_fingerprint(result.mapping)) == golden["fingerprint"]
    assert result.cost.edp == golden["edp"]
    assert result.cost.energy_pj == golden["energy_pj"]


def test_default_pack_golden_conventional_all_toggles():
    golden = json.loads(
        (harness.GOLDEN_DIR / "sunstone_mttkrp.json").read_text())
    for options, scalar in ((SchedulerOptions(), False),
                            (SchedulerOptions(), True)):
        with harness.scalar_paths() if scalar else contextlib.nullcontext():
            result = SunstoneScheduler(
                harness.medium_mttkrp(), harness.medium_arch(),
                options).schedule()
        assert repr(mapping_fingerprint(result.mapping)) == \
            golden["fingerprint"]
        assert result.cost.edp == golden["edp"]
        assert result.cost.energy_pj == golden["energy_pj"]


# ---------------------------------------------------------------------------
# pack selection
# ---------------------------------------------------------------------------

def test_at_least_three_packs_registered():
    names = available_packs()
    assert len(names) >= 3
    assert {"cmos45", "cmos7", "cryo"} <= set(names)
    assert names[0] == "cmos45"  # default first


def test_packs_change_energies_and_fingerprints():
    base = conventional()
    for name in ("cmos7", "cryo"):
        alt = conventional(tech=name)
        assert alt.tech == name
        assert alt.levels[0].read_energy < base.levels[0].read_energy
        assert alt.mac_energy < base.mac_energy
        assert (architecture_fingerprint(alt)
                != architecture_fingerprint(base))
    # The two non-default packs also differ from each other.
    assert (architecture_fingerprint(conventional(tech="cmos7"))
            != architecture_fingerprint(conventional(tech="cryo")))


def test_get_pack_accepts_names_paths_and_packs(tmp_path):
    assert get_pack("cmos7") is CMOS7
    assert get_pack(CRYO) is CRYO
    with pytest.raises(TechnologyError):
        get_pack("not-a-pack")
    doc = CMOS7.to_dict()
    doc["name"] = "cmos7-variant"
    doc["mac_energy_16b"] = 0.5
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    loaded = get_pack(str(path))
    assert loaded.name == "cmos7-variant"
    assert loaded.mac_energy_16b == 0.5


def test_pack_round_trips_through_json():
    for pack in (CMOS45, CMOS7, CRYO):
        assert TechnologyPack.from_dict(pack.to_dict()) == pack
    with pytest.raises(TechnologyError):
        TechnologyPack.from_dict({"name": "x", "bogus_field": 1.0})


def test_overrides_take_precedence():
    pack = TechnologyPack.from_dict({
        "name": "patched", "overrides": {"L1.read": 9.5, "MAC.compute": 0.1},
    })
    arch = resolve_architecture(conventional(), pack)
    assert arch.levels[0].read_energy == 9.5
    assert arch.mac_energy == 0.1
    # Non-overridden actions still come from the pack's estimators
    # (this pack keeps the default coefficients, so they match cmos45).
    assert arch.levels[0].write_energy == conventional().levels[0].write_energy


# ---------------------------------------------------------------------------
# cache-key separation
# ---------------------------------------------------------------------------

def _fp_under(tech):
    workload = harness.small_conv()
    arch = tiny(l1_words=64, l2_words=512, pes=4, tech=tech)
    result = SunstoneScheduler(workload, arch).schedule()
    return mapping_fingerprint(result.mapping), result


def test_eval_cache_never_collides_across_packs():
    """The same hierarchy under two packs yields disjoint cache keys."""
    key45, res45 = _fp_under("cmos45")
    key7, res7 = _fp_under("cmos7")
    assert key45 != key7
    cache = EvalCache()
    cache.put(key45, res45.cost)
    cache.put(key7, res7.cost)
    assert cache.get(key45) is res45.cost
    assert cache.get(key7) is res7.cost


def test_shared_eval_cache_seeds_are_pack_disjoint():
    """seed_for ships only the requesting pack's entries."""
    from repro.search.fingerprint import workload_fingerprint
    workload = harness.small_conv()
    wfp = workload_fingerprint(workload)
    afp45 = architecture_fingerprint(tiny(tech="cmos45"))
    afp7 = architecture_fingerprint(tiny(tech="cmos7"))
    assert afp45 != afp7
    shared = SharedEvalCache()
    shared.admit([((wfp, afp45, "m1"), "cost45"),
                  ((wfp, afp7, "m1"), "cost7")])
    seed45 = shared.seed_for(wfp, afp45)
    seed7 = shared.seed_for(wfp, afp7)
    assert seed45 == [((wfp, afp45, "m1"), "cost45")]
    assert seed7 == [((wfp, afp7, "m1"), "cost7")]


# ---------------------------------------------------------------------------
# physical sanity (seeded hypothesis)
# ---------------------------------------------------------------------------

@settings(**_SETTINGS)
@given(small=st.integers(min_value=6, max_value=20),
       step=st.integers(min_value=1, max_value=6),
       pack=st.sampled_from(["cmos45", "cmos7", "cryo"]))
def test_sram_energy_monotone_in_capacity(small, step, pack):
    """Bigger arrays never cost less per access, under every pack."""
    p = get_pack(pack)
    lo = p.sram_estimate(2 ** small)
    hi = p.sram_estimate(2 ** (small + step))
    assert hi.read_energy >= lo.read_energy
    assert hi.write_energy >= lo.write_energy
    assert hi.write_energy >= hi.read_energy


# ---------------------------------------------------------------------------
# lookup errors carry context (satellite bugfix)
# ---------------------------------------------------------------------------

def test_energy_lookup_error_context():
    table = EnergyTable({"L1.read": 1.0}, pack="cmos7")
    with pytest.raises(EnergyLookupError) as exc:
        table.energy("L2", "read", level="L2")
    msg = str(exc.value)
    assert "L2.read" in msg
    assert "requested by level 'L2'" in msg
    assert "technology pack 'cmos7'" in msg
    assert "L1.read" in msg  # the known actions are listed
    assert isinstance(exc.value, KeyError)  # backwards compatible


def test_energy_lookup_error_from_cost():
    table = EnergyTable({"L1.read": 1.0}, pack="cryo")
    with pytest.raises(EnergyLookupError) as exc:
        table.cost({"L1.read": 2, "DRAM.write": 1}, level="DRAM")
    assert exc.value.component == "DRAM"
    assert exc.value.action == "write"
    assert exc.value.pack == "cryo"


# ---------------------------------------------------------------------------
# two-chiplet / chip2chip
# ---------------------------------------------------------------------------

def test_two_chiplet_schedules_with_chip2chip_energy():
    arch = two_chiplet()
    assert arch.levels[1].link == "chip2chip"
    assert arch.levels[1].link_bandwidth == 8.0  # filled from the pack
    result = SunstoneScheduler(harness.small_conv(), arch).schedule()
    assert result.found
    assert result.cost.chip2chip_energy > 0
    # chip2chip is a tracked subset of the NoC total, never extra energy.
    assert result.cost.chip2chip_energy <= result.cost.noc_energy
    # The result carries its optimality certificate.
    assert result.stats.bound.lower_bound is not None


def test_two_chiplet_scalar_batch_equivalence():
    """The chip2chip energy/latency terms are identical in both paths."""
    np = pytest.importorskip("numpy")  # noqa: F841 - batch path needs it
    arch = two_chiplet()
    result = SunstoneScheduler(harness.small_conv(), arch).schedule()
    scalar = evaluate(result.mapping)
    batch = evaluate_batch([result.mapping] * MIN_BATCH)[0]
    assert batch.energy_pj == scalar.energy_pj
    assert batch.cycles == scalar.cycles
    assert batch.chip2chip_energy == scalar.chip2chip_energy
    assert batch.noc_energy == scalar.noc_energy


def test_chip2chip_bandwidth_bounds_latency():
    """A finite package link throttles cycles; the default does not."""
    from dataclasses import replace
    arch = two_chiplet()
    result = SunstoneScheduler(harness.small_conv(), arch).schedule()
    slow_levels = [
        replace(lvl, link_bandwidth=1e-3) if lvl.link == "chip2chip" else lvl
        for lvl in arch.levels
    ]
    slow = arch.__class__(arch.name, slow_levels, arch.mac_energy,
                          arch.mac_width, tech=arch.tech,
                          mac_word_bits=arch.mac_word_bits)
    remapped = result.mapping.with_arch(slow) if hasattr(
        result.mapping, "with_arch") else None
    if remapped is None:
        from repro.mapping.mapping import Mapping
        remapped = Mapping(result.mapping.workload, slow,
                           result.mapping.levels)
    assert evaluate(remapped).cycles > result.cost.cycles
