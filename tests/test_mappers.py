"""The mapper front door (``repro.mappers``): one selection rule and one
result type for ``repro compare``, the serve daemon and the validity
survey."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import mappers
from repro.arch import tiny
from repro.baselines.common import SearchResult
from repro.cli import _build_job_spec, main, make_parser
from repro.core import SchedulerOptions
from repro.serve import ProtocolError, decompose_job, normalize_job
from repro.workloads import conv1d

REPO_ROOT = Path(__file__).resolve().parent.parent

PREFIXES = ("sunstone", "timeloop", "dmazerunner", "interstellar", "cosa",
            "gamma")
UNKNOWN = "timelop"
DIMS = {"K": 4, "C": 4, "P": 14, "R": 3}


@pytest.fixture
def stub_runners(monkeypatch):
    """Every runner answers at once with an empty result of its name."""
    for name in mappers.MAPPERS:
        monkeypatch.setitem(
            mappers.RUNNERS, name,
            lambda workload, arch, options, engine=None, name=name:
            SearchResult(mapper=name, mapping=None, cost=None))


def cli_selection(text, tmp_path):
    """The mapper rows ``repro compare --mappers TEXT`` prints."""
    path = tmp_path / "stats.json"
    code = main(["compare", "--workload", "conv1d", "--arch", "tiny",
                 "--mappers", text, "--stats-json", str(path),
                 *(f"{d}={v}" for d, v in DIMS.items())])
    assert code == 0
    return [row["mapper"] for row in json.loads(path.read_text())["mappers"]]


def serve_selection(chosen):
    """The mapper tasks a compare job selecting ``chosen`` runs."""
    job = normalize_job({"kind": "compare", "arch": "tiny",
                         "mappers": chosen,
                         "workload": {"kind": "conv1d", "dims": DIMS}})
    return [task["name"] for task in decompose_job(job)]


def submit_selection(text):
    """The mapper tasks of the job ``repro submit --kind compare
    --mappers TEXT`` posts."""
    args = make_parser().parse_args(
        ["submit", "--kind", "compare", "--workload", "conv1d", "--arch",
         "tiny", "--mappers", text, *(f"{d}={v}" for d, v in DIMS.items())])
    job = normalize_job(_build_job_spec(args))
    return [task["name"] for task in decompose_job(job)]


def test_compare_and_serve_select_the_same_mappers(stub_runners, tmp_path,
                                                   capsys):
    names = PREFIXES + (UNKNOWN,)
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            text = ",".join(subset)
            if UNKNOWN in subset:
                with pytest.raises(SystemExit, match=f"'{UNKNOWN}'"):
                    cli_selection(text, tmp_path)
                with pytest.raises(ProtocolError, match=f"'{UNKNOWN}'"):
                    serve_selection(text)
                with pytest.raises(ProtocolError, match=f"'{UNKNOWN}'"):
                    serve_selection(list(subset))
                with pytest.raises(ProtocolError, match=f"'{UNKNOWN}'"):
                    submit_selection(text)
                continue
            want = [name for name in mappers.MAPPERS
                    if name == "sunstone" or name.split("-")[0] in subset]
            assert cli_selection(text, tmp_path) == want, subset
            assert serve_selection(text) == want, subset
            assert serve_selection(list(subset)) == want, subset
            assert submit_selection(text) == want, subset
    capsys.readouterr()


def test_full_names_and_no_selection():
    assert mappers.select_mappers(None) == list(mappers.MAPPERS)
    assert mappers.select_mappers(["timeloop-like", "gamma"]) == [
        "sunstone", "timeloop-like", "gamma-like"]
    assert serve_selection(None) == list(mappers.MAPPERS)
    assert mappers.selection_keys(" gamma , cosa-like,gamma ") == [
        "cosa", "gamma"]


def test_runners_call_each_search_through_its_module_name(monkeypatch):
    """A wrapper patched onto a search's name in ``repro.mappers`` sees
    the runner's call (how traced runs attribute baseline time)."""
    calls = []
    targets = {"sunstone": "schedule",
               "timeloop-like": "timeloop_search",
               "dmazerunner-like": "dmazerunner_search",
               "interstellar-like": "interstellar_search",
               "cosa-like": "cosa_search",
               "gamma-like": "gamma_search"}
    for name, attr in targets.items():
        original = getattr(mappers, attr)

        def wrapper(*args, original=original, attr=attr, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        monkeypatch.setattr(mappers, attr, wrapper)
    workload = conv1d(K=4, C=4, P=14, R=3)
    arch = tiny()
    for name in mappers.MAPPERS:
        result = mappers.run_mapper(name, workload, arch, SchedulerOptions())
        assert isinstance(result, SearchResult)
        assert result.mapper == name
        doc = mappers.result_doc(result)
        assert doc["mapper"] == name
        assert doc["search"] is not None
    assert calls == list(targets.values())


def test_serve_does_not_import_the_cli():
    code = ("import sys, repro.serve, repro.analysis; "
            "assert 'repro.cli' not in sys.modules, 'repro.cli imported'")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
