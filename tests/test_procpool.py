"""Process pools never outlive their owner, and stop promptly on SIGTERM.

Three pools exist: the serve daemon's local fleet, the ``repro worker``
agent's fleet (the same :class:`~repro.serve.WorkerFleet`), and
``network --processes``.  Every worker runs
:func:`repro.procpool.watch_parent`, so a SIGKILLed owner leaves no idle
pool process behind; ``network --processes`` terminates its pool when a
SIGTERM unwinds the run, instead of finishing every queued layer first.

These tests read the process tree from ``/proc`` and run only on Linux.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
NETWORK = [sys.executable, "-m", "repro", "network",
           str(REPO_ROOT / "configs" / "resnet18.json"), "--arch", "diannao",
           "--processes", "2"]

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads the process tree from /proc")


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _descendants(root: int) -> set[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None:
                parents[int(entry)] = stat[1]
    found: set[int] = set()
    frontier = {root}
    while frontier:
        frontier = {pid for pid, ppid in parents.items()
                    if ppid in frontier and pid not in found}
        found |= frontier
    return {pid for pid in found if _alive(pid)}


def _wait_for_children(proc: subprocess.Popen, count: int,
                       timeout: float = 120.0) -> set[int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, proc.communicate()
        children = _descendants(proc.pid)
        if len(children) >= count:
            return children
        time.sleep(0.05)
    raise AssertionError(f"{proc.args} never started {count} children")


def _wait_gone(pids: set[int], timeout: float) -> set[int]:
    """The PIDs still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        alive = {pid for pid in pids if _alive(pid)}
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def _reap(pids: set[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def test_serve_pool_exits_after_daemon_sigkill(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=ENV, cwd=str(tmp_path))
    children: set[int] = set()
    try:
        ready = proc.stdout.readline()
        assert "serving on http://" in ready
        port = int(ready.rsplit(":", 1)[1].split()[0])
        client = ServeClient("127.0.0.1", port)
        row = client.submit({"kind": "schedule", "arch": "tiny",
                             "workload": {"kind": "conv1d",
                                          "dims": {"K": 4, "C": 4,
                                                   "P": 14, "R": 3}}})
        assert client.result(row["id"], wait=True)["state"] == "done"
        children = _wait_for_children(proc, 1)
        proc.kill()
        proc.wait(timeout=30)
        assert _wait_gone(children, 5.0) == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        _reap(children)


def test_network_pool_exits_after_sigkill(tmp_path):
    proc = subprocess.Popen(NETWORK, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=ENV,
                            cwd=str(tmp_path))
    children: set[int] = set()
    try:
        children = _wait_for_children(proc, 2)
        proc.kill()
        proc.wait(timeout=30)
        assert _wait_gone(children, 5.0) == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        _reap(children)


def test_network_processes_stop_promptly_on_sigterm(tmp_path):
    proc = subprocess.Popen(NETWORK, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, env=ENV,
                            cwd=str(tmp_path))
    children: set[int] = set()
    try:
        children = _wait_for_children(proc, 2)
        start = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 143, stderr
        assert "terminated" in stderr
        # Without terminating the pool, the queued ResNet-18 layers
        # keep the run alive for several more seconds.
        assert elapsed < 2.0, elapsed
        assert _wait_gone(children, 1.0) == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        _reap(children)
