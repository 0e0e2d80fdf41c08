"""Tree-sweep consistency checks that must survive `python -O`."""

from __future__ import annotations

import pytest

from xorsat_reduce import gf2, sweeps
from xorsat_reduce.reduction import XorInfeasible, build_linear_system, reduce_instance
from xorsat_reduce.sweeps import SweepConfig


def test_tree_sample_rejects_a_count_mismatch(monkeypatch):
    calls = []
    real = sweeps.backtrack_count

    def second_call_off_by_one(instance, reduction):
        count, stats = real(instance, reduction)
        calls.append(count)
        return count + (len(calls) == 2), stats

    monkeypatch.setattr(sweeps, "backtrack_count", second_call_off_by_one)
    config = SweepConfig("occ1in3", (12,), 0.8, samples=1, perm_trials=2)
    with pytest.raises(RuntimeError, match="solution count"):
        sweeps.tree_sweep(config)
    assert len(calls) == 2


@pytest.mark.parametrize("trials", [-1, -3])
def test_negative_perm_trials_rejected(trials):
    with pytest.raises(ValueError, match="perm_trials"):
        SweepConfig("occ1in3", (12,), 0.8, samples=1, perm_trials=trials)


@pytest.mark.parametrize(("field", "value"), [("seed", -1), ("threads", 0), ("threads", -3)])
def test_negative_seed_and_fewer_than_one_thread_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SweepConfig("occ1in3", (12,), 0.8, samples=1, **{field: value})


@pytest.mark.parametrize("arity", [{"p": 5, "q": 2}, {"p": 3}, {"q": 1}])
def test_arity_is_for_custom_problems_only(arity):
    with pytest.raises(ValueError, match="custom problems only"):
        SweepConfig("occ2in4", (12,), 0.8, samples=1, **arity)


@pytest.mark.parametrize(("threads", "samples", "cores", "workers"), [
    (10**6, 3, 4, 3),     # no more workers than tasks
    (10**6, 10, 4, 4),    # no more workers than cores
    (2, 10, 4, 2),
    (10**6, 10, None, None),  # unknown core count: one worker, no pool
    (3, 1, 4, None),      # one task: no pool
])
def test_process_pool_is_bounded_by_tasks_and_cores(monkeypatch, threads, samples, cores, workers):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cores)
    config = SweepConfig("occ1in3", (12,), 1.0, samples=samples, threads=threads)
    rows, _ = sweeps.kernel_sweep(config)
    assert sizes == ([] if workers is None else [workers])
    assert rows == sweeps.kernel_sweep(SweepConfig("occ1in3", (12,), 1.0, samples=samples))[0]


def test_zero_perm_trials_skips_the_optimization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("optimize_permutation ran with perm_trials=0")

    monkeypatch.setattr(sweeps, "optimize_permutation", refuse)
    rows, _ = sweeps.tree_sweep(SweepConfig("occ1in3", (12,), 0.8, samples=3, perm_trials=0))
    assert all(r["tree_nodes"] == r["tree_nodes_unoptimized"] for r in rows)


def _sample_instance(config: SweepConfig, n: int, sample: int):
    _, gen_ss, _ = sweeps._sample_seeds(config.seed, n, sample)
    return sweeps._generate(config, n, gen_ss)


def test_xor_infeasible_rows_report_the_rank_of_the_parity_rows():
    config = SweepConfig("occ1in3", (12, 16), 1.0, samples=6, seed=5, perm_trials=3)
    rows, _ = sweeps.tree_sweep(config)
    infeasible = 0
    for row in rows:
        inst = _sample_instance(config, row["n"], row["sample"])
        if not isinstance(reduce_instance(inst), XorInfeasible):
            continue
        infeasible += 1
        m_prime = gf2.rank(build_linear_system(inst).rows)
        assert (row["m_prime"], row["k"], row["delta_k"]) == (m_prime, row["n"] - m_prime,
                                                               inst.m - m_prime)
        assert row["solutions"] == row["tree_nodes"] == row["tree_nodes_unoptimized"] == 0
    assert infeasible >= 3

