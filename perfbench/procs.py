"""Process-tree helpers read from ``/proc``: memory sampling and shutdown.

Spark ``local[*]`` runs as three kinds of process under the benchmark:
this Python driver, the JVM it launches, and the Python workers the JVM
forks. Peak memory is the peak of their summed resident set size, and a
run is over only once every one of them has exited.
"""
from __future__ import annotations

import os
import signal
import threading
import time
from collections import defaultdict

__all__ = ["descendants", "tree_rss_bytes", "RssSampler", "wait_gone"]

_PAGE = os.sysconf("SC_PAGE_SIZE")
_SAMPLE_INTERVAL_S = 0.2


def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while we listed
        # the command name may contain spaces; fields resume after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(entry))
    return children


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` (not including ``root``)."""
    children = _children_map()
    out, todo = [], list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def tree_rss_bytes(root: int) -> int:
    """Summed resident set size of ``root`` and all its descendants."""
    return sum(_rss_bytes(p) for p in [root, *descendants(root)])


class RssSampler:
    """Background thread tracking the peak of :func:`tree_rss_bytes` for
    this process's tree, sampled every :data:`_SAMPLE_INTERVAL_S`."""

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler",
                                        daemon=True)

    def _run(self) -> None:
        root = os.getpid()
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, tree_rss_bytes(root))
            self._stop.wait(_SAMPLE_INTERVAL_S)

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def wait_gone(pids: list[int], timeout_s: float) -> list[int]:
    """Wait for ``pids`` to exit; SIGKILL stragglers. Returns the ones killed."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return []
        time.sleep(0.1)
    killed = [p for p in pids if _alive(p)]
    for p in killed:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_alive(p) for p in killed):
        time.sleep(0.1)
    return killed
