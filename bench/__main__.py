"""Run every workload, timed and traced, each in a fresh process.

    PYTHONPATH=src python -m bench [--seed N] [--quick] [--workload NAME ...]

Prints every metric as ``metric workload value unit`` and writes one JSON
record -- host, commit, seed, every run's raw samples -- to
``results/bench/<stamp>.json`` (traced spans beside it, in
``results/bench/<stamp>/``).  Exits non-zero when any run failed its
checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from bench.run import ROOT, host_block
from bench.workloads import WORKLOADS, host_workers


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int,
                        help="one seed for every workload (default: each "
                             "workload's own, whose fingerprint is recorded)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of each workload's length, one repeat")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only these workloads (repeatable)")
    args = parser.parse_args(argv)

    run_seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["run_seconds"]
    seconds = 0 if args.quick else run_seconds
    commit = git_commit()
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{commit[:10]}"
    out = ROOT / "results" / "bench"
    record = {
        "commit": commit, "seed": args.seed, "quick": args.quick,
        "seconds": seconds, "host": host_block(host_workers()),
        "workloads": {},
    }
    ok = True
    for name in args.workload or WORKLOADS:
        seed = args.seed if args.seed is not None \
            else WORKLOADS[name].default_seed
        for trace in (0, 1):
            path = out / stamp / f"{name}-trace{trace}.json"
            command = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--record", str(path),
            ] + (["--quick"] if args.quick else [])
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and proc.returncode == 0
            if path.exists():
                record["workloads"].setdefault(name, {})[f"trace{trace}"] = \
                    json.loads(path.read_text())
            else:
                print(f"{name} trace {trace}: no record (exit "
                      f"{proc.returncode})", file=sys.stderr)
    record["correct"] = ok
    target = out / f"{stamp}.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {target.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
