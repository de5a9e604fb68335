"""Run one workload in a child and leave no process behind, whatever happens.

The traced serving runs start a 2-shard service: two spawned workers and the
``multiprocessing`` resource tracker, which outlives the process that started
it by the few milliseconds it needs to see its pipe close.  A benchmark that
exits while that tracker is still alive has left a process running.  So the
command the driver calls is only a supervisor: it makes itself the *child
subreaper* (every orphaned descendant is re-parented to it, not to init),
runs the workload in a process group of its own under the hard timeout, and
on every path out - result printed, operation failed, exception, timeout,
SIGTERM, Ctrl-C - waits until the last descendant has ended, killing the
group when it does not end by itself.  Standard library only; NumPy and the
program under test are loaded in the child alone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

#: After the workload process has ended its helpers get this long to end by
#: themselves (the resource tracker needs milliseconds) before SIGKILL.
GRACE_S = 5.0
#: And this long to be gone after SIGKILL before the supervisor gives up.
KILL_WAIT_S = 10.0

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Ask Linux to re-parent orphaned descendants to this process."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap(pgid: int) -> int:
    """Wait until no child of this process and no member of process group
    ``pgid`` is left; SIGKILL the group after ``GRACE_S``.  Returns how many
    processes besides the workload itself were waited for."""
    reaped = 0
    kill_at = time.monotonic() + GRACE_S
    give_up_at = None
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pid = -1  # no child left; the group may still have members
        if pid > 0:
            reaped += 1
            continue
        if pid == -1 and not _group_alive(pgid):
            return reaped
        now = time.monotonic()
        if give_up_at is None and now >= kill_at:
            _kill_group(pgid)
            give_up_at = now + KILL_WAIT_S
        elif give_up_at is not None and now >= give_up_at:
            raise RuntimeError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.005)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def supervise(command: list[str], timeout_s: float, env: dict | None = None) -> int:
    """Run ``command`` to its end (124 when it had to be killed at
    ``timeout_s``) and return its exit code once every process it started,
    directly or not, has ended.  The child inherits standard output, so its
    last line is this process's last line."""
    become_subreaper()
    signal.signal(signal.SIGTERM, _on_sigterm)
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        try:
            code = child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            _kill_group(child.pid)
            child.wait()
            return 124
        return code if code >= 0 else 128 - code
    finally:
        if child.poll() is None:  # leaving on a signal or an exception
            _kill_group(child.pid)
            child.wait()
        reap(child.pid)
