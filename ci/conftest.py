"""The runner the checks beyond tier-1 share: each check runs in a fresh
interpreter, so a bound on ``ru_maxrss`` or ``ru_minflt`` and a global
such as ``fg._ISO_BUDGET`` belong to that one program."""
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Child(NamedTuple):
    out: str
    code: int
    peak_mb: float

    def diff(self, want: str) -> None:
        """Fail unless the child exited 0 and its stdout is ``want``, byte
        for byte: the golden-copy check."""
        assert self.code == 0, self.code
        assert self.out == want


@pytest.fixture
def run(request):
    """``run(*args, timeout=None, tests=False)`` runs ``python *args`` and
    returns its stdout, exit code and peak RSS.  The peak is the child's
    own, from ``os.wait4``: ``RUSAGE_CHILDREN`` would give the largest
    child this process has reaped so far.  A child still running after
    ``timeout`` seconds is killed and fails the test; ``None`` sets no
    limit.  ``tests`` puts ``tests`` on the path beside ``src``, for
    ``references``.  The child's stderr goes to pytest's capture, shown
    on failure."""
    def run(*args, timeout=None, tests=False):
        paths = [ROOT / "src", ROOT / "tests"] if tests else [ROOT / "src"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, env=env)
        deadline = None if timeout is None else time.monotonic() + timeout
        chunks, killed = [], False
        with proc.stdout:
            while True:
                left = None if deadline is None else max(0, deadline - time.monotonic())
                if not select.select([proc.stdout], [], [], left)[0]:
                    # not proc.kill(): its poll() may reap the child first
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            pytest.fail(f"{request.node.name}: killed after {timeout} s")
        return Child(b"".join(chunks).decode(), proc.returncode, usage.ru_maxrss / 1024)
    return run
