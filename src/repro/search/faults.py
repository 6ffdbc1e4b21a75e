"""Deterministic fault injection for the search engine (docs/SEARCH.md).

Long-running sweeps must survive transient evaluation exceptions
without changing *what they compute*.  The in-process retry of
:class:`repro.search.engine.SearchEngine` is exercised by a
:class:`FaultPlan` — a seeded, reproducible oracle that decides, per
evaluation site, whether to raise an :class:`InjectedFault` inside a
scalar cost-model call.

Sites are numbered deterministically: the engine keeps one monotonic
counter of scalar evaluation calls, and a retried call keeps its site
with a bumped ``attempt`` — so a plan that fires on ``(site,
attempt=0)`` only injects once unless told otherwise via ``attempts``.

Two environment hooks let CI drive faults through the unmodified CLI:

* ``REPRO_FAULTS="evalexc@0,evalexc@5"`` — evaluation-site faults,
  picked up by every :class:`SearchEngine` built without an explicit
  ``fault_plan``;
* ``REPRO_CHECKPOINT_KILL_AFTER=N`` — the checkpoint journal
  hard-exits the process (code :data:`KILL_EXIT_CODE`) after its
  ``N``-th append, a deterministic "OOM-killed mid-search" for the
  ``--checkpoint``/``--resume`` smoke test.
"""

from __future__ import annotations

import hashlib
import os
import random

KILL_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """Raised by an injected evaluation fault; never by real model code."""


def _site_rng(seed: int, site: int) -> random.Random:
    """A stable per-(seed, site) RNG, independent of query order and of
    ``PYTHONHASHSEED`` (so plans replay across processes)."""
    token = f"{seed}:evalexc:{site}".encode()
    digest = hashlib.sha256(token).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultPlan:
    """Seeded, deterministic schedule of injected evaluation faults.

    Two addressing modes compose:

    * **explicit sites** — ``eval_faults={0}`` pins faults to exact
      evaluation sites;
    * **a seeded rate** — ``exception_rate`` draws an independent,
      order-insensitive Bernoulli per site from ``seed``.

    A site only faults on attempts ``< attempts`` (default 1), so every
    retry succeeds unless the plan is explicitly configured to keep
    failing (``attempts`` large).  ``max_faults`` caps the total number
    of injections across the plan's lifetime.
    """

    def __init__(
        self,
        eval_faults: set[int] | frozenset[int] | None = None,
        seed: int = 0,
        exception_rate: float = 0.0,
        attempts: int = 1,
        max_faults: int | None = None,
    ) -> None:
        if not 0.0 <= exception_rate <= 1.0:
            raise ValueError("exception_rate must be in [0, 1]")
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.eval_faults = frozenset(eval_faults or ())
        self.seed = seed
        self.exception_rate = exception_rate
        self.attempts = attempts
        self.max_faults = max_faults
        # (site, attempt) log of every injection actually fired.
        self.fired: list[tuple[int, int]] = []

    def check_eval(self, site: int, attempt: int) -> None:
        """Raise :class:`InjectedFault` if evaluation ``site`` should
        fail on this ``attempt``."""
        if attempt >= self.attempts:
            return
        if self.max_faults is not None and len(self.fired) >= self.max_faults:
            return
        fire = site in self.eval_faults
        if not fire and self.exception_rate:
            fire = _site_rng(self.seed, site).random() < self.exception_rate
        if fire:
            self.fired.append((site, attempt))
            raise InjectedFault(f"injected evaluation fault at site {site}")


def plan_from_env(env: dict[str, str] | None = None) -> FaultPlan | None:
    """Build a plan from ``REPRO_FAULTS`` (an ``evalexc@site`` comma
    list), or ``None`` when the variable is unset/empty.  Lets CI inject
    faults through the unmodified CLI."""
    spec = (env if env is not None else os.environ).get("REPRO_FAULTS", "")
    spec = spec.strip()
    if not spec:
        return None
    eval_faults: set[int] = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, sep, site_text = token.partition("@")
        if not sep or kind != "evalexc":
            raise ValueError(f"REPRO_FAULTS entry {token!r} is not of the "
                             f"form evalexc@site")
        eval_faults.add(int(site_text))
    return FaultPlan(eval_faults=eval_faults)


def checkpoint_kill_after(env: dict[str, str] | None = None) -> int | None:
    """``REPRO_CHECKPOINT_KILL_AFTER`` as an int, or ``None``."""
    text = (env if env is not None else os.environ).get(
        "REPRO_CHECKPOINT_KILL_AFTER", "").strip()
    if not text:
        return None
    value = int(text)
    if value < 1:
        raise ValueError("REPRO_CHECKPOINT_KILL_AFTER must be >= 1")
    return value


KILL_MODES = ("exit", "interrupt", "sigterm")


def checkpoint_kill_mode(env: dict[str, str] | None = None) -> str:
    """``REPRO_CHECKPOINT_KILL_MODE``: how the journal's injected kill
    fires — ``exit`` (hard ``os._exit``, the SIGKILL/OOM stand-in),
    ``interrupt`` (raise ``KeyboardInterrupt``, the Ctrl-C stand-in) or
    ``sigterm`` (deliver a real ``SIGTERM`` to this process, for
    deterministic graceful-shutdown tests).  Defaults to ``exit``."""
    mode = (env if env is not None else os.environ).get(
        "REPRO_CHECKPOINT_KILL_MODE", "").strip() or "exit"
    if mode not in KILL_MODES:
        raise ValueError(f"REPRO_CHECKPOINT_KILL_MODE must be one of "
                         f"{KILL_MODES}, got {mode!r}")
    return mode
