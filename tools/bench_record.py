"""Record the benchmark's end-to-end metrics for one revision in BENCH_<label>.json.

    python3 tools/bench_record.py --label pr25-parent --rev cfb6496
    python3 tools/bench_record.py --label pr25 --seeds 1 2 3
    python3 tools/bench_record.py --label pr41 --ref 7dff6f6 --seeds 11 12 13

Run from anywhere inside the repository; the file is written at its root.
For each workload of BENCHMARK.json and each seed it runs
`perfbench/run.py --workload W --seed S --seconds T`, with T the file's
run_seconds, in a fresh checkout under a temporary directory, so that no run
starts with a `__pycache__` left by another: the benchmark's children write
no bytecode, and leftover `.pyc` files lower `setup_s`.  The checkout is
`git archive` of --rev, or, without --rev, the tracked and untracked (not
ignored) files of the working tree, recorded as "dirty" on top of HEAD.

The file holds the revision, every run's metrics, and per workload the
median and quartiles over seeds of each end-to-end metric that BENCHMARK.json
names, with `checks_done` also given as its median.

With --ref REV every seed's run is paired with a run of REV, in its own fresh
checkout, right before or after it: the recorded tree runs first on the first
seed, REV first on the next, and so on, so that a host that speeds up or slows
down over the recording moves both sides alike.  REV's runs and summaries go
under "ref", and each workload gains "pair_wins": per end-to-end metric, the
number of seeds on which the recorded tree did better than REV, by the metric's
`better` direction (a tie is no win).  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def checkout(root: str, rev: str | None, into: str) -> None:
    """Write the files of rev (or of the working tree) under into, with no bytecode."""
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(git(root, "archive", rev))) as tar:
            tar.extractall(into)
        return
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        if os.path.isfile(os.path.join(root, name)):  # a deleted file stays listed until staged
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(os.path.join(root, name), os.path.join(into, name))


def run_once(root: str, rev: str | None, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-record-") as work:
        checkout(root, rev, work)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(argv, cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def side(runs: list[dict], units: dict) -> dict:
    """The record of one revision's runs of one workload: summaries, then the runs."""
    metrics = {name: dict(summary([r["metrics"][name] for r in runs]), unit=unit)
               for name, unit in units.items()}
    return {"checks_done": metrics["checks_done"]["median"],
            "all_correct": all(r["correct"] for r in runs), "metrics": metrics, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record BENCH_<label>.json")
    parser.add_argument("--label", required=True)
    parser.add_argument("--rev", help="a git revision (default: the working tree)")
    parser.add_argument("--ref", help="a git revision to alternate with, seed by seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    dirty = args.rev is None and bool(git(root, "status", "--porcelain"))
    record = {"label": args.label,
              "revision": git(root, "rev-parse", args.rev or "HEAD").decode().strip(),
              "dirty": dirty, "seconds": seconds, "seeds": args.seeds,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "workloads": {}}
    if args.ref is not None:
        record["ref"] = {"revision": git(root, "rev-parse", args.ref).decode().strip(),
                         "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, ref_runs = [], []
        for i, seed in enumerate(args.seeds):
            order = [(args.rev, runs)] + ([(args.ref, ref_runs)] if args.ref else [])
            for rev, into in order[::-1] if i % 2 else order:
                into.append(run_once(root, rev, workload, seed, seconds))
                print(f"{workload} seed {seed}{' ref' * (into is ref_runs)}: " + ", ".join(
                    f"{name} {value:.6g}" for name, value in into[-1]["metrics"].items()),
                    file=sys.stderr)
        record["workloads"][workload] = side(runs, units)
        if args.ref is not None:
            record["ref"]["workloads"][workload] = side(ref_runs, units)
            record["workloads"][workload]["pair_wins"] = {name: sum(
                (a < b) if lower[name] else (a > b) for a, b in zip(
                    (r["metrics"][name] for r in runs), (r["metrics"][name] for r in ref_runs)))
                for name in units}
    path = os.path.join(root, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
