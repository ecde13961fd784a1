"""Digests of the outputs of the benchmark's workloads, to show that a change
keeps every output bit for bit.

For each workload (sweep, shoot, cli) this builds the seeded task list of
perfbench/workloads.py, which it imports and never changes, runs the
workload's warm-up task, then runs each task's work and check, round by
round.  It prints one sha256 per workload over every task's outputs and
what its check returns (a cli task's check returns the digest of its
artifact files), each serialized with fbt.cli._jsonable as sorted-key JSON.
Per round it prints the misses of expr._generate (bundles generated from
new ASTs) and of expr._shape (new emitted texts, one compile each).

    PYTHONPATH=src python scripts/output_digests.py [--seed 1] [--rounds 2]
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402
from fbt import expr  # noqa: E402
from fbt.cli import _jsonable  # noqa: E402


def _misses():
    return expr._generate.cache_info().misses, expr._shape.cache_info().misses


def digest(name, seed, rounds, work_dir):
    """The sha256 over the outputs of the workload's first rounds, and the
    (_generate, _shape) misses of each round."""
    tasks, warmup = workloads.build(name, seed, rounds, work_dir)
    warmup.check(warmup.work())
    h, misses = hashlib.sha256(), []
    for round_tasks in tasks:
        before = _misses()
        for task in round_tasks:
            out = task.work()
            record = [_jsonable(out), _jsonable(task.check(out))]
            h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        misses.append([b - a for a, b in zip(before, _misses())])
    return h.hexdigest(), misses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work_dir:
        for name in workloads.WORKLOAD_NAMES:
            sha, misses = digest(name, args.seed, args.rounds, work_dir)
            print(f"{name} misses per round: _generate "
                  + " ".join(str(g) for g, _ in misses)
                  + ", _shape " + " ".join(str(s) for _, s in misses))
            print(f"{name} digest {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
