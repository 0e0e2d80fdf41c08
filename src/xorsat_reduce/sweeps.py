"""Ensemble sweeps: kernel-excess statistics and decision-tree statistics.

Samples are seeded independently from (base seed, n, sample index), so a
sweep is deterministic regardless of worker count; results are ordered
by (n, sample) before they are written anywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gf2
from .errors import GenerationError, GuardExceeded
from .instances import check_generator_parameters, clause_count, gen_locked_random
from .reduction import XorInfeasible, build_linear_system, reduce_instance
from .solvers import backtrack_count, gamma_estimate, optimize_permutation

SWEEP_MAX_FREE = 26
# Largest n * M the kernel sweep ranks. One sample's gf2.rank grows about as (n * M)^1.5: on
# occ1in3 with M = n it took 0.4 s at n = 2^14 (the bound), 2.3 s at 32,000 and 8.1 s at 50,000.
KERNEL_MAX_CELLS = 1 << 28

PROBLEM_ARITIES = {"occ1in3": (3, 1), "occ2in4": (4, 2)}


@dataclass(frozen=True)
class SweepConfig:
    problem: str  # occ1in3 | occ2in4 | custom
    n_list: tuple[int, ...]
    alpha: float
    samples: int
    seed: int = 0
    negation_prob: float = 0.5
    perm_trials: int = 100
    p: int | None = None  # custom problems only
    q: int | None = None
    threads: int = 1

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.perm_trials < 0:
            raise ValueError("perm_trials must be >= 0 (0 skips the optimization)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.problem not in PROBLEM_ARITIES and self.problem != "custom":
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.problem == "custom" and (self.p is None or self.q is None):
            raise ValueError("custom problems need explicit p and q")
        if self.problem != "custom" and (self.p is not None or self.q is not None):
            raise ValueError(f"p and q are for custom problems only, not {self.problem!r}")
        p, q = self.arity
        for n in self.n_list:
            check_generator_parameters(n, self.clause_count(n), p, q, self.negation_prob)

    @property
    def arity(self) -> tuple[int, int]:
        if self.problem == "custom":
            return int(self.p), int(self.q)
        return PROBLEM_ARITIES[self.problem]

    def clause_count(self, n: int) -> int:
        return clause_count(n, self.alpha)


def _sample_seeds(base_seed: int, n: int, sample: int):
    root = np.random.SeedSequence([base_seed, n, sample])
    gen_ss, opt_ss = root.spawn(2)
    fingerprint = int(root.generate_state(1)[0])
    return fingerprint, gen_ss, opt_ss


def _generate(config: SweepConfig, n: int, gen_ss):
    p, q = config.arity
    return gen_locked_random(n, config.clause_count(n), p, q, config.negation_prob,
                             seed=np.random.default_rng(gen_ss))


def _sample(measure, task) -> dict:
    """One sample row: `measure(config, instance, opt_ss)` gives m_prime and the sweep's own columns."""
    config, n, sample = task
    fingerprint, gen_ss, opt_ss = _sample_seeds(config.seed, n, sample)
    row = dict(kind="sample", problem=config.problem, n=n, alpha=config.alpha,
               sample=sample, seed=fingerprint)
    try:
        inst = _generate(config, n, gen_ss)
    except GenerationError as err:
        return dict(row, kind="failure", error=str(err))
    m_prime, measured = measure(config, inst, opt_ss)
    return dict(row, m=inst.m, m_prime=m_prime, k=n - m_prime, delta_k=inst.m - m_prime, **measured)


def _kernel_measure(config, inst, opt_ss):
    return gf2.rank(build_linear_system(inst).rows), {}


def _tree_measure(config, inst, opt_ss):
    outcome = reduce_instance(inst)
    if isinstance(outcome, XorInfeasible):
        return outcome.m_prime, dict(solutions=0, tree_nodes=0, tree_nodes_unoptimized=0)
    if outcome.free_count > SWEEP_MAX_FREE:
        return outcome.m_prime, dict(kind="guard_skip")
    count, raw_tree = backtrack_count(inst, outcome)
    tree_nodes = raw_tree.total_nodes
    if config.perm_trials > 0:
        optimized = optimize_permutation(inst, outcome, trials=config.perm_trials,
                                         seed=np.random.default_rng(opt_ss))
        opt_count, opt_tree = backtrack_count(inst, optimized)
        tree_nodes = opt_tree.total_nodes
        if opt_count != count:
            raise RuntimeError(f"permutation changed the solution count: {count} -> {opt_count}")
    return outcome.m_prime, dict(solutions=count, tree_nodes=tree_nodes,
                                 tree_nodes_unoptimized=raw_tree.total_nodes)


def _sweep(config: SweepConfig, measure, statistics) -> tuple[list[dict], list[dict]]:
    """Sample rows ordered by (n, sample), then one summary per n: counts plus `statistics(n, good, rows)`."""
    worker = partial(_sample, measure)
    tasks = [(config, n, s) for n in config.n_list for s in range(config.samples)]
    # The pool forks all its workers at the first submit, so more than one
    # per task or per core would only cost processes.
    workers = min(config.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool pulls in multiprocessing, which
        # single-threaded runs never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        rows = [worker(t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["sample"]))
    summaries = []
    for n in config.n_list:
        of_n = [r for r in rows if r["n"] == n]
        good = [r for r in of_n if r["kind"] == "sample"]
        summaries.append(dict(kind="summary", problem=config.problem, n=n, alpha=config.alpha,
                              samples=len(good), failures=sum(r["kind"] == "failure" for r in of_n),
                              **statistics(n, good, of_n)))
    return rows, summaries


def _kernel_statistics(n, good, rows) -> dict:
    ratios = [r["delta_k"] / n for r in good]
    return dict(
        mean_delta_k_per_n=float(np.mean(ratios)) if ratios else math.nan,
        min_delta_k_per_n=min(ratios, default=math.nan),
        max_delta_k_per_n=max(ratios, default=math.nan),
        max_delta_k=max((r["delta_k"] for r in good), default=0),
    )


def _sqrt_t_and_gamma(sizes: list[int], n: int) -> tuple[float, float]:
    if not sizes:
        return math.nan, math.nan
    return float(np.mean(np.sqrt(sizes))), gamma_estimate(sizes, n) if max(sizes) > 0 else math.nan


def _tree_statistics(n, good, rows) -> dict:
    mean_sqrt_t, gamma = _sqrt_t_and_gamma([r["tree_nodes"] for r in good], n)
    raw_mean_sqrt_t, raw_gamma = _sqrt_t_and_gamma([r["tree_nodes_unoptimized"] for r in good], n)
    return dict(guard_skips=sum(r["kind"] == "guard_skip" for r in rows),
                mean_sqrt_t=mean_sqrt_t, gamma=gamma,
                mean_sqrt_t_unoptimized=raw_mean_sqrt_t, gamma_unoptimized=raw_gamma)


def kernel_sweep(config: SweepConfig) -> tuple[list[dict], list[dict]]:
    """Per-sample kernel-excess records plus per-n summaries of delta_k / n.

    Raises GuardExceeded, before any sample, when some n has n * M above KERNEL_MAX_CELLS.
    """
    for n in config.n_list:
        cells = n * config.clause_count(n)
        if cells > KERNEL_MAX_CELLS:
            raise GuardExceeded("kernel-sweep parity matrix size n*M", cells, KERNEL_MAX_CELLS)
    return _sweep(config, _kernel_measure, _kernel_statistics)


def tree_sweep(config: SweepConfig) -> tuple[list[dict], list[dict]]:
    """Per-sample decision-tree records plus per-n gamma summaries."""
    return _sweep(config, _tree_measure, _tree_statistics)
