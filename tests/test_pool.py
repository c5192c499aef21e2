import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from releff import Normal, Scenario, run_scenario
from releff import TestKind as TK
from releff._pool import map_tasks, worker_count

SRC = Path(__file__).resolve().parents[1] / "src"
# five 1024-replication chunks, a permutation test and a t test with df2
SCENARIO = Scenario(Normal(0, 1), Normal(0.3, 2), 9, 11, n_reps=4500,
                    tests=(TK.parse("pm:df2"), TK.parse("bm_logit")), master_seed=13)
JOIN_TIMEOUT_S = 60

needs_two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")


class TestWorkerCount:
    def test_capped_by_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(1, 10) == 1
        assert worker_count(3, 10) == 3
        assert worker_count(8, 2) == 2
        assert worker_count(10**9, 10**9) == 4

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(16, 16) == 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            worker_count(threads, 4)


def test_no_tasks_start_no_pool():
    assert map_tasks(abs, [], 4) == []


def _worker_pid(_task) -> int:
    return os.getpid()


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@needs_two_cpus
class TestSharedPool:
    def test_calls_share_warm_workers(self):
        tasks = [(i,) for i in range(16)]
        first = map_tasks(_worker_pid, tasks, 2)
        workers = _children()
        second = map_tasks(_worker_pid, tasks, 2)
        assert len(workers) == 2 and _children() == workers
        assert set(first) | set(second) <= workers

    def test_new_worker_count_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        tasks = [(i,) for i in range(12)]
        map_tasks(_worker_pid, tasks, 2)
        two = _children()
        assert set(map_tasks(_worker_pid, tasks, 3)) <= _children()
        three = _children()
        assert len(two) == 2 and len(three) == 3 and not two & three
        assert not any(_alive(pid) for pid in two)

    def test_threads_two_one_two(self):
        runs = [run_scenario(SCENARIO, threads=t) for t in (2, 1, 2)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.skipif((os.cpu_count() or 1) < 3, reason="three workers need 3 CPUs")
    def test_threads_two_three_two(self):
        runs = [run_scenario(SCENARIO, threads=t) for t in (2, 3, 2)]
        assert runs[0] == runs[1] == runs[2]

    def test_broken_pool_is_dropped(self):
        with pytest.raises(BrokenProcessPool):
            map_tasks(os._exit, [(3,)] * 4, 2)
        assert run_scenario(SCENARIO, threads=2) == run_scenario(SCENARIO, threads=1)


def _send_summary(conn) -> None:
    os.setpgid(0, 0)  # so that a hung child is killed with its workers
    conn.send(run_scenario(SCENARIO, threads=2))
    conn.close()


@needs_two_cpus
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_makes_its_own_pool():
    """A child forked after its parent used the pool does not use the parent's."""
    expected = run_scenario(SCENARIO, threads=2)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_summary, args=(writer,))
    child.start()
    writer.close()
    try:
        assert reader.poll(JOIN_TIMEOUT_S), "the forked child hung"
        got = reader.recv()
        child.join(JOIN_TIMEOUT_S)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            os.killpg(child.pid, signal.SIGKILL)
            child.join()
    assert got == expected


@needs_two_cpus
def test_workers_end_with_the_interpreter():
    code = ("import multiprocessing\n"
            "from releff._pool import map_tasks\n"
            "map_tasks(abs, [(-i,) for i in range(8)], 2)\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=JOIN_TIMEOUT_S)
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


@pytest.mark.parametrize("threads", [1, 2])
def test_tasks_without_arguments_run(threads):
    """A task of no arguments is one call, in the pool as in this process."""
    pids = map_tasks(os.getpid, [()] * 4, threads)
    assert len(pids) == 4
    # in the pool, every call ran in a worker
    assert (set(pids) == {os.getpid()}) == (worker_count(threads, 4) == 1)
