"""What a SIGKILLed resident coordinator leaves behind.

The coordinator runs in a child process of its own session, so its
process group holds exactly the coordinator, its workers and any helper
process multiprocessing started for it.  Killing the coordinator alone
must let both workers exit (they read end-of-file on their pipes);
killing the whole group must leave no ``/dev/shm`` segment behind,
because nothing is left alive to unlink one.  Only the pipes are shared
between the coordinator and its workers.
"""

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

SHM = Path("/dev/shm")

#: A resident, dense coordinator on Example 1's two groups: it serves the
#: example's usages, prints its worker pids, and waits on stdin.
CHILD = textwrap.dedent(
    """
    import sys
    from repro.service import ServiceConfig, ValidationService
    from repro.workloads.scenarios import example1

    scenario = example1()
    config = ServiceConfig(
        shards=2, executor="resident", workers=2, kernel="dense"
    )
    with ValidationService(scenario.pool, config) as service:
        service.process(scenario.usages)
        print(*(proc.pid for proc in service._executor._procs), flush=True)
        sys.stdin.read()
    """
)

pytestmark = pytest.mark.skipif(
    not SHM.is_dir(), reason="needs /dev/shm to look for leaked segments"
)


def exited(pid):
    """Whether ``pid`` is gone or a zombie (an orphan nobody reaps yet)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


def segments(pid):
    """The ``/dev/shm`` segments named after a coordinator's pid."""
    return sorted(SHM.glob(f"repro-{pid}-*"))


def wait_exited(pids, timeout):
    deadline = time.monotonic() + timeout
    while not all(exited(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def coordinator():
    """Yield ``(child, worker_pids)`` for a coordinator in its own session;
    afterwards SIGKILL whatever is left of that session's process group
    and unlink any segment the coordinator left, so no run leaks one."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    # The child leads its own group: the only group this test signals.
    own_group = os.getpgid(child.pid) == child.pid
    try:
        assert own_group
        ready, _, _ = select.select([child.stdout], [], [], 60.0)
        line = child.stdout.readline() if ready else ""
        workers = [int(pid) for pid in line.split()]
        assert len(workers) == 2, f"coordinator did not start: {line!r}"
        yield child, workers
    finally:
        # Popen has not reaped the child yet, so its pid -- and with it
        # the group id -- cannot have been reused.
        if own_group and child.returncode is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        child.communicate(timeout=10.0)
        for segment in segments(child.pid):
            segment.unlink()


def test_workers_exit_when_the_coordinator_is_killed(coordinator):
    child, workers = coordinator
    assert not any(exited(pid) for pid in workers)
    os.kill(child.pid, signal.SIGKILL)
    assert wait_exited(workers, 2.0), "a worker outlived its coordinator"


def test_killing_the_coordinator_group_leaves_no_segment(coordinator):
    child, workers = coordinator
    os.killpg(child.pid, signal.SIGKILL)
    assert wait_exited(workers, 2.0), "a worker survived SIGKILL"
    assert segments(child.pid) == []
