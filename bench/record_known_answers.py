"""Record the known-answer digests for the default seed.

    python3 bench/record_known_answers.py [workload ...]

Runs every deck entry of the named workloads (default: all) once for
seed 0, checks it, and updates bench/known_answers.json. Run it only on a commit whose exact
outputs are the reference; it stops without writing if an op raises.
"""

from __future__ import annotations

import json
import sys

import run

KNOWN_SEED = 0


def main() -> int:
    run._import_library()
    import checks
    import workloads

    names = sys.argv[1:] or workloads.WORKLOADS
    if unknown := set(names) - set(workloads.WORKLOADS):
        raise SystemExit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    path = checks.KNOWN_ANSWERS_PATH
    digests = json.loads(path.read_text())["workloads"] if path.exists() else {}
    for workload in names:
        deck = workloads.make_deck(workload, KNOWN_SEED)
        result = run.run_pass(deck, run.SpeedLog(), ops=len(deck))
        if result.errors:
            raise SystemExit(f"{workload}: {len(result.errors)} ops raised, first: {result.errors[0]}")
        for op, record in zip(result.ops, result.records):
            checks.check(op, record)
        digests[workload] = [checks.digest(r) for r in result.records]
        print(f"{workload}: {len(deck)} ops in {sum(result.durations):.1f} s", file=sys.stderr)
    ordered = {w: digests[w] for w in workloads.WORKLOADS if w in digests}
    path.write_text(json.dumps({"seed": KNOWN_SEED, "workloads": ordered}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
