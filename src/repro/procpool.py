"""The initializer every process pool of the program runs.

A pool worker idles on its call queue until the next task arrives.  A
parent that is SIGKILLed never shuts its pool down, so its workers would
wait there forever, reparented to init.  :func:`watch_parent` makes each
worker exit as soon as the process that started it is gone.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_POLL_S = 0.5


def watch_parent() -> None:
    """Pool initializer: exit this worker once its parent changes.

    The parent PID is read here, in the child, rather than passed in:
    under the forkserver start method the child's parent is the
    forkserver.  ``prctl(PR_SET_PDEATHSIG)`` is no substitute, because
    it tracks the thread that forked, and pools fork from non-main
    threads.

    A forked worker also inherits its parent's signal handlers.  The
    owner stops its workers with SIGTERM (``Pool.terminate``, a broken
    executor) and handles Ctrl-C itself, so the worker restores the
    default SIGTERM action and ignores SIGINT instead of running them.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="watch-parent", daemon=True).start()
