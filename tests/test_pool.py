import os

import pytest

from releff._pool import map_tasks, worker_count


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
