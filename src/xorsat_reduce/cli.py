"""Command-line front end: instance/graph I/O, solver dispatch, ensemble sweeps.

Exit codes: 0 success (including certified UNSAT), 2 usage error (an
invalid argument), parse error, unreadable input file or unwritable
--out file, 3 guard exceeded, 4 generation failure, 130 interrupted
(SIGINT, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import GenerationError, GuardExceeded, ParseError
from .grover import OracleSpec, grover_search_unknown, oracle_resources, query_cost_count, query_cost_decision
from .hamcycle import hc_to_occupation, parse_graph, solve_hc
from .instances import check_generator_parameters, clause_count, emit_instance, gen_locked_random, parse_instance
from .reduction import XorInfeasible, kernel_excess, reduce_instance
from .solvers import (
    SolveOutcome, backtrack_count, backtrack_solve, count_enumerate, optimize_permutation, solve_enumerate,
)
from .sweeps import SweepConfig, kernel_sweep, tree_sweep

CSV_SCHEMA_COMMENT = f"# xorsat-reduce v{__version__} schema=1"

KERNEL_CSV_FIELDS = [
    "kind", "problem", "n", "alpha", "sample", "seed", "m", "m_prime", "k", "delta_k",
    "samples", "failures", "mean_delta_k_per_n", "min_delta_k_per_n",
    "max_delta_k_per_n", "max_delta_k",
]
TREE_CSV_FIELDS = [
    "kind", "problem", "n", "alpha", "sample", "seed", "m", "m_prime", "k", "delta_k",
    "solutions", "tree_nodes", "tree_nodes_unoptimized",
    "samples", "failures", "guard_skips", "mean_sqrt_t", "gamma",
    "mean_sqrt_t_unoptimized", "gamma_unoptimized",
]


XOR_CERTIFIED = "UNSAT (XOR-certified)"
# The search record of an XOR-certified instance: no candidate is ever queried.
_NO_SEARCH = SolveOutcome(False, None, 0)


class _BadInput(Exception):
    """An input file that cannot be read as UTF-8 text, an --out file that cannot be written, or an
    argument the library rejects."""


def _read_input(path: str) -> str:
    """The text of an input file; any failure to read it becomes _BadInput."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _BadInput(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise _BadInput(f"cannot read {path}: {err}") from None


def _write_output(args, produce) -> None:
    """Write the text `produce()` returns to --out, or to stdout without one. --out is opened
    first, so an unwritable path costs no work, and a run stopped after the open leaves the file
    empty, as shell redirection does; an OSError on the file becomes _BadInput."""
    if not args.out:
        sys.stdout.write(produce())
        return
    try:
        stream = open(args.out, "w")
    except OSError as err:
        raise _BadInput(f"cannot write {args.out}: {err.strerror or err}") from None
    with stream:  # closes the file, still empty, if produce() raises
        text = produce()
        try:
            with stream:  # closing flushes, so it is inside the try too
                stream.write(text)
        except OSError as err:
            raise _BadInput(f"cannot write {args.out}: {err.strerror or err}") from None


def _emit_record(args, record: dict):
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return
    for key, value in record.items():
        if key == "assignment":
            value = "".join(map(str, value))
        elif key == "edges":
            value = " ".join(f"{u}-{v}" for u, v in value)
        print(f"{key}: {value}")


def _load(args):
    """The instance named on the command line and its reduce_instance outcome."""
    instance = parse_instance(_read_input(args.instance))
    return instance, reduce_instance(instance)


def _context(instance, outcome, sizes=None) -> dict:
    """n and m (or the given sizes), then the 1-based XOR witness or k, m_prime and delta_k."""
    record = dict(sizes or {"n": instance.n, "m": instance.m})
    if isinstance(outcome, XorInfeasible):
        record["witness"] = [i + 1 for i in outcome.witness]
    else:
        record.update(k=outcome.free_count, m_prime=outcome.m_prime, delta_k=kernel_excess(instance, outcome))
    return record


def _search_record(instance, outcome, result, unsat: str = "UNSAT", **fields) -> dict:
    """status, queries, `fields`, the context, then the assignment when one was found."""
    if isinstance(outcome, XorInfeasible):
        unsat = XOR_CERTIFIED
    record = {"status": "SAT" if result.satisfiable else unsat, "queries": result.queries,
              **fields, **_context(instance, outcome)}
    if result.satisfiable:
        record["assignment"] = [int(b) for b in result.assignment]
    return record


def cmd_gen(args) -> int:
    try:
        m = args.m if args.m is not None else clause_count(args.n, args.alpha)
        check_generator_parameters(args.n, m, args.p, args.q, args.neg_prob)
    except ValueError as err:
        raise _BadInput(str(err)) from None
    _write_output(args, lambda: emit_instance(
        gen_locked_random(args.n, m, args.p, args.q, negation_prob=args.neg_prob, seed=args.seed)))
    return 0


def cmd_solve(args) -> int:
    instance, outcome = _load(args)
    _emit_record(args, _search_record(instance, outcome, solve_enumerate(instance, outcome)))
    return 0


def cmd_count(args) -> int:
    instance, outcome = _load(args)
    count = count_enumerate(instance, outcome)
    _emit_record(args, {"status": f"COUNT={count}", "count": count, **_context(instance, outcome)})
    return 0


def _tree_fields(stats) -> dict:
    return {"tree_nodes": stats.total_nodes, "nodes_per_depth": list(stats.nodes_per_depth)}


def cmd_backtrack(args) -> int:
    instance, outcome = _load(args)
    if isinstance(outcome, XorInfeasible):
        # No tree is built, so --count reports the empty search too.
        record = _search_record(instance, outcome, _NO_SEARCH, tree_nodes=0)
    else:
        if args.perm_trials > 0:
            outcome = optimize_permutation(instance, outcome, trials=args.perm_trials, seed=args.seed)
        if args.count:
            count, stats = backtrack_count(instance, outcome)
            record = {"status": f"COUNT={count}", "count": count, **_tree_fields(stats),
                      **_context(instance, outcome)}
        else:
            result, stats = backtrack_solve(instance, outcome)
            record = _search_record(instance, outcome, result, **_tree_fields(stats))
    _emit_record(args, record)
    return 0


def cmd_grover(args) -> int:
    instance, outcome = _load(args)
    if isinstance(outcome, XorInfeasible):
        result = _NO_SEARCH
    else:
        result = grover_search_unknown(OracleSpec(reduction=outcome, instance=instance), rng=args.seed)
    _emit_record(args, _search_record(instance, outcome, result, "UNSAT (search-certified)", seed=args.seed))
    return 0


def cmd_grover_cost(args) -> int:
    instance, outcome = _load(args)
    record = _context(instance, outcome)
    if isinstance(outcome, XorInfeasible):
        _emit_record(args, {"status": XOR_CERTIFIED, **record})
        return 0
    report = oracle_resources(OracleSpec(reduction=outcome, instance=instance))
    record["query_cost_decision"] = query_cost_decision(instance.n, outcome.m_prime)
    if args.count_solutions:
        v = count_enumerate(instance, outcome)
        record["count"] = v
        record["query_cost_count"] = query_cost_count(instance.n, outcome.m_prime, v)
    else:
        worst = 1 << (instance.n - outcome.m_prime)
        record["query_cost_count_worst_case"] = query_cost_count(instance.n, outcome.m_prime, worst)
    record.update(asdict(report), total_gates=report.total_gates)
    _emit_record(args, record)
    return 0


def cmd_hc(args) -> int:
    graph = parse_graph(_read_input(args.graph))
    instance = hc_to_occupation(graph)
    outcome = reduce_instance(instance)
    values = solve_hc(graph, outcome)
    if values is None:
        record = {"status": "NO-HC"}
    else:
        record = {"status": "HC-FOUND",
                  "edges": [(u + 1, v + 1) for e, (u, v) in enumerate(graph.edges) if values[e]]}
    sizes = {"n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
    _emit_record(args, {**record, **_context(instance, outcome, sizes)})
    return 0


def _rows_to_csv(fields, rows, summaries) -> str:
    buffer = io.StringIO()
    buffer.write(CSV_SCHEMA_COMMENT + "\n")
    writer = csv.DictWriter(buffer, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows + summaries)
    return buffer.getvalue()


def _sweep_config(args, **options) -> SweepConfig:
    """The sweep's SweepConfig; `options` are the fields only one sweep reads."""
    try:
        return SweepConfig(
            problem=args.problem,
            n_list=args.n_list,
            alpha=args.alpha,
            samples=args.samples,
            seed=args.seed,
            negation_prob=args.neg_prob,
            p=args.p,
            q=args.q,
            threads=args.threads,
            **options,
        )
    except ValueError as err:
        raise _BadInput(str(err)) from None


def cmd_sweep_kernel(args) -> int:
    config = _sweep_config(args)
    _write_output(args, lambda: _rows_to_csv(KERNEL_CSV_FIELDS, *kernel_sweep(config)))
    return 0


def cmd_sweep_tree(args) -> int:
    config = _sweep_config(args, perm_trials=args.perm_trials)
    _write_output(args, lambda: _rows_to_csv(TREE_CSV_FIELDS, *tree_sweep(config)))
    return 0


def _non_negative_int(text: str) -> int:
    """argparse type for a seed, or a count where 0 means "off"."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of ints."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated int list: {text!r}") from None


def _add_seed_option(parser):
    parser.add_argument("--seed", type=_non_negative_int, default=0)


def _add_record_options(parser):
    """--json, for the commands that print one record."""
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_file_options(parser):
    """--seed and --out, for the commands whose text output can go to a file."""
    _add_seed_option(parser)
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorsat-reduce",
        description="Occupation-problem toolkit: parity reduction, exact solvers, "
        "Grover-search simulation, Hamiltonian-cycle reduction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random locked instance")
    p.add_argument("--n", type=int, required=True)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--m", type=int, default=None, help="clause count (default floor(alpha*n))")
    size.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--neg-prob", type=float, default=0.5)
    _add_file_options(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="decide satisfiability by reduced enumeration")
    p.add_argument("instance")
    _add_record_options(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("count", help="count solutions by reduced enumeration")
    p.add_argument("instance")
    _add_record_options(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("backtrack", help="backtracking solver with tree statistics")
    p.add_argument("instance")
    p.add_argument("--count", action="store_true", help="exhaust the tree and count solutions")
    p.add_argument("--perm-trials", type=_non_negative_int, default=0,
                   help="optimize the free block first (0: off)")
    _add_seed_option(p)
    _add_record_options(p)
    p.set_defaults(func=cmd_backtrack)

    p = sub.add_parser("grover", help="simulated Grover search with unknown solution count")
    p.add_argument("instance")
    _add_seed_option(p)
    _add_record_options(p)
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("grover-cost", help="query-cost formulas and oracle resource model")
    p.add_argument("instance")
    p.add_argument("--count-solutions", action="store_true",
                   help="count solutions exactly for the counting cost")
    _add_record_options(p)
    p.set_defaults(func=cmd_grover_cost)

    p = sub.add_parser("hc", help="find a Hamiltonian cycle via the 2-in-degree reduction")
    p.add_argument("graph")
    _add_record_options(p)
    p.set_defaults(func=cmd_hc)

    for name, func in (("sweep-kernel", cmd_sweep_kernel), ("sweep-tree", cmd_sweep_tree)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} ensemble sweep (CSV)")
        p.add_argument("--problem", choices=["occ1in3", "occ2in4", "custom"], default="occ1in3")
        p.add_argument("--n-list", type=_int_list, required=True, help="comma-separated variable counts")
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--neg-prob", type=float, default=0.5)
        if func is cmd_sweep_tree:
            p.add_argument("--perm-trials", type=_non_negative_int, default=100)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        _add_file_options(p)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, _BadInput) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GuardExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except GenerationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
