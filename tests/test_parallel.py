"""The worker-pool helper and its callers: pool size, order, arguments."""

import concurrent.futures
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cogrl
from cogrl.afm import (
    CVConfig,
    TransactionLog,
    item_stratified_cv,
)
from cogrl.apprentice import SimConfig, simulate_and_estimate
from cogrl.errors import ConfigurationError
from cogrl.ingest import (
    AfmLogSynthSpec,
    ClozeSynthSpec,
    synth_afm_log,
    synth_cloze,
)
from cogrl.parallel import run_tasks


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.calls = []
        _RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.calls.extend(zip(*iterables))
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    _RecordingPool.made = []
    # run_tasks imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    return _RecordingPool.made


def _power(base, exp):
    return base ** exp


def _leaves(value):
    """Everything a task holds, through tuples and lists."""
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


class TestRunTasks:
    def test_pool_never_larger_than_the_task_count(self, pools):
        assert run_tasks(_power, [(2, 3), (3, 2), (5, 1)], jobs=64) == [8, 9, 5]
        assert [p.max_workers for p in pools] == [3]

    def test_pool_smaller_than_the_task_count_when_jobs_are(self, pools):
        assert run_tasks(_power, [(2, k) for k in range(6)], jobs=2) == \
            [1, 2, 4, 8, 16, 32]
        assert [p.max_workers for p in pools] == [2]

    def test_one_job_or_one_task_runs_in_process(self, pools):
        assert run_tasks(_power, [(2, 3), (3, 2)], jobs=1) == [8, 9]
        assert run_tasks(_power, [(7, 2)], jobs=8) == [49]
        assert run_tasks(_power, [], jobs=8) == []
        assert pools == []

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, pools, jobs):
        with pytest.raises(ConfigurationError):
            run_tasks(_power, [(2, 3)], jobs=jobs)

    def test_importing_the_cli_loads_no_process_pool(self):
        # a fresh interpreter, importing the same cogrl as this process
        package_root = pathlib.Path(cogrl.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", "import sys, cogrl.cli; print(sorted("
             "m for m in sys.modules if m.startswith(('multiprocessing', "
             "'concurrent.futures.process'))))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(package_root)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestCallers:
    def test_cv_folds_pass_arrays_to_at_most_one_worker_each(self, pools):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=10, items=8, kcs=2, seed=3))
        serial = item_stratified_cv(log, q, None, CVConfig(folds=3, seed=1))
        assert pools == []
        pooled = item_stratified_cv(log, q, None, CVConfig(folds=3, seed=1),
                                    jobs=16)
        assert pooled.fold_rmses == serial.fold_rmses
        assert [p.max_workers for p in pools] == [3]
        for task in pools[0].calls:
            leaves = list(_leaves(task))
            # no log and no record: a record's ids would be str leaves
            assert not any(isinstance(v, (str, TransactionLog))
                           for v in leaves)
            assert any(isinstance(v, np.ndarray) for v in leaves)

    def test_simulation_pool_capped_at_the_student_count(self, pools):
        bundle = synth_cloze(ClozeSynthSpec(seed=7))
        problems = bundle.problems[:12]
        rows = [(f"s{s}", p.item_id, 1, k + 1)
                for s in range(3) for k, p in enumerate(problems)]
        study = simulate_and_estimate(
            TransactionLog(rows), problems, bundle.extras["features_full"],
            bundle.extras["oracle_q"], sim=SimConfig(seed=2), jobs=50)
        assert [p.max_workers for p in pools] == [3]
        assert len(study.simulated_log) == len(rows)
        # a learner gets its student's rows of the encoded items, its answer
        # labels and its config, no records
        for task in pools[0].calls:
            assert all(isinstance(v, (np.ndarray, int, SimConfig))
                       for v in _leaves(task))
