"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload scan --seed 3 --seconds 20 --trace 0

One client runs ops one after another in this process for --seconds,
cycling through the workload's deck (see workloads.py); sweeps run with
threads=1. Outputs are checked after the timed region. With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the
run times the first half untraced, replays the same ops with the
library's public functions wrapped (spans.py), checks that both passes
produced identical outputs, and reports the per-layer metrics. Times are
process CPU times scaled to a fixed machine speed (speed.py). Lines
before the last one are a human-readable table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

from speed import SpeedLog

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 10
BETA_GRID = 1 << 16


def _import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import xorsat_reduce
    except ImportError as err:
        raise SystemExit(f"bench: cannot import xorsat_reduce from {ROOT / 'src'}: {err}")
    if Path(xorsat_reduce.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"bench: xorsat_reduce resolved outside this checkout: {xorsat_reduce.__file__}")


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics instead of one of them:
    op times cluster by input class (2^k, graph size), and a single
    order statistic jumps between clusters from run to run. The weight of
    order statistic i is the Beta(q(n+1), (1-q)(n+1)) probability of
    ((i-1)/n, i/n], integrated with the trapezoid rule on a grid of at
    least BETA_GRID points.
    """
    import numpy as np

    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = ordered.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = -(-BETA_GRID // n)  # grid points per order statistic
    x = np.linspace(0.0, 1.0, n * steps + 1)
    log_pdf = np.zeros_like(x)
    with np.errstate(divide="ignore"):  # log(0) at an end is -inf, a density of 0 there
        if a != 1:
            log_pdf += (a - 1) * np.log(x)
        if b != 1:
            log_pdf += (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps])
    return float(weights @ ordered / weights.sum())


def tail_quantile(samples: list[float]) -> tuple[float, float]:
    """The 0.9 quantile, or with fewer than 100 samples the highest one with >= 10 samples above it.

    Never below the median. Returns (q, estimate).
    """
    q = min(0.90, max(0.5, 1.0 - MIN_TAIL_SAMPLES / len(samples)))
    return q, quantile(samples, q)


class Pass:
    """Outcome of running a prefix of the deck once."""

    def __init__(self):
        self.ops: list = []
        self.records: list[dict | None] = []  # None where the op raised
        self.errors: list[str] = []
        self.starts: list[float] = []
        self.durations: list[float] = []  # raw wall seconds
        self.cpu: list[float] = []  # raw CPU seconds
        self.scaled: list[float] = []  # CPU seconds at the reference speed

    @property
    def busy_s(self) -> float:
        return sum(self.scaled)


def run_pass(deck, speed: SpeedLog, *, seconds: float | None = None, ops: int | None = None,
             tracer=None) -> Pass:
    """Run ops in deck order until `seconds` have elapsed or `ops` ops are done."""
    from workloads import op_at, run_op

    result = Pass()
    speed.sample()
    start = perf_counter()
    i = 0
    while (ops is None or i < ops) and (seconds is None or perf_counter() - start < seconds):
        op = op_at(deck, i)
        if tracer is not None:
            tracer.op = i
        t0, c0 = perf_counter(), process_time()
        try:
            record = run_op(op)
        except Exception as err:  # a raising op is a failed op, and the run goes on
            record = None
            result.errors.append(f"op {i} ({op.kind}): {type(err).__name__}: {str(err)[:200]}")
        result.cpu.append(process_time() - c0)
        result.durations.append(perf_counter() - t0)
        result.starts.append(t0)
        result.ops.append(op)
        result.records.append(record)
        speed.sample_if_due()
        i += 1
    speed.sample()
    result.scaled = [speed.scaled(*times) for times in zip(result.starts, result.durations, result.cpu)]
    return result


def check_pass(workload: str, seed: int, run: Pass, known) -> tuple[list[bool], int]:
    """Per op, True when it completed and passed every check; and the number of wrong ops.

    An op is wrong when it raised or its output fails a check. A wrong op
    makes the run's `correct` false.
    """
    from checks import CheckFailed, check, digest

    ok = []
    wrong = 0
    for i, (op, record) in enumerate(zip(run.ops, run.records)):
        expected = known.expected(workload, seed, op.index)
        if record is None:
            ok.append(False)
            wrong += 1
            continue
        try:
            check(op, record)
            if expected is not None and digest(record) != expected:
                raise CheckFailed(f"digest {digest(record)} != known answer {expected}")
            ok.append(True)
        except CheckFailed as err:
            run.errors.append(f"op {i} ({op.kind}): check failed: {err}")
            ok.append(False)
            wrong += 1
    return ok, wrong


def setup(workload: str, seed: int, speed: SpeedLog) -> tuple[list, float]:
    """Build the deck and run one warm-up op, SETUP_REPEATS times; returns the deck and the median scaled time.

    Deck entries are timed one by one with calibration samples between
    them, like ops, so the scaling follows the host's speed through the
    seconds a large deck takes to generate.
    """
    from workloads import DECK_SIZE, deck_entry, run_op

    times = []
    for _ in range(SETUP_REPEATS):
        deck, spans = [], []
        speed.sample()
        for i in range(DECK_SIZE[workload]):
            t0, c0 = perf_counter(), process_time()
            deck.append(deck_entry(workload, seed, i))
            spans.append((t0, perf_counter() - t0, process_time() - c0))
            speed.sample_if_due()
        t0, c0 = perf_counter(), process_time()
        try:
            run_op(deck[0])
        except Exception:  # counted when the op runs in the timed loop
            pass
        spans.append((t0, perf_counter() - t0, process_time() - c0))
        speed.sample()
        times.append(sum(speed.scaled(*span) for span in spans))
    return deck, statistics.median(times)


def end_to_end(run: Pass, ok: list[bool], setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
    from workloads import reached_search

    completed = ok.count(True)
    # Latency percentiles cover the ops that got past the parity check. An
    # XOR-infeasible op ends after reduce in ~2 ms; on backtrack that is
    # half the mix, which would put the median in the gap between the
    # two modes. Those ops still count in ops_per_s and ok_rate.
    searched = [d for d, good, r in zip(run.scaled, ok, run.records) if good and reached_search(r)]
    if not searched:
        raise SystemExit(f"bench: none of {len(ok)} ops completed past the parity check; nothing to report")
    pct, p90 = tail_quantile(searched)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / run.busy_s, "1/s"),
        "op_s_p50": (quantile(searched, 0.5), "s"),
        "op_s_p90": (p90, "s"),
        "ok_rate": (completed / len(ok), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (f"completed ops: {completed} of {len(ok)}; error_rate {1 - completed / len(ok):.4f}; "
            f"latency samples (past the parity check): {len(searched)}; op_s_p90 is their p{100 * pct:g}; "
            f"raw ops_per_s {completed / sum(run.durations):.6g}; scaled CPU over wall time {run.busy_s / sum(run.durations):.4f}")
    return metrics, note


def _print_errors(run: Pass) -> None:
    for line in run.errors[:20]:
        print(f"# {line}")
    if len(run.errors) > 20:
        print(f"# ... {len(run.errors) - 20} more")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    speed = SpeedLog()
    speed.sample()
    t0, c0 = perf_counter(), process_time()
    _import_library()
    import checks
    import spans
    import workloads
    wall_s, cpu_s = perf_counter() - t0, process_time() - c0
    speed.sample()
    import_s = speed.scaled(t0, wall_s, cpu_s)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    known = checks.KnownAnswers()
    deck, deck_s = setup(args.workload, args.seed, speed)
    if args.trace == 0:
        run = run_pass(deck, speed, seconds=args.seconds)
        # Read before the checks, which run solvers of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok, wrong = check_pass(args.workload, args.seed, run, known)
        _print_errors(run)
        metrics, note = end_to_end(run, ok, import_s + deck_s, peak_rss_mb)
        correct = wrong == 0
    else:
        plain = run_pass(deck, speed, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        with tracer.installed():
            run = run_pass(deck, speed, ops=len(plain.records), tracer=tracer)
        tracer.write(TRACE_DIR / f"{args.workload}.json")
        ok, wrong = check_pass(args.workload, args.seed, run, known)
        same = [None if r is None else checks.digest(r) for r in plain.records] == \
               [None if r is None else checks.digest(r) for r in run.records]
        if not same:
            run.errors.append("traced outputs differ from the untraced pass")
        _print_errors(run)
        metrics = tracer.layer_metrics(len(run.records), run.busy_s / sum(run.durations),
                                       run.busy_s, plain.busy_s)
        note = f"traced ops: {len(run.records)}; spans: {len(tracer.spans)}; trace written to {TRACE_DIR}"
        correct = same and wrong == 0

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
