"""Record the benchmark's end-to-end metrics for one revision in BENCH_<label>.json.

    python3 tools/bench_record.py --label pr25-parent --rev cfb6496
    python3 tools/bench_record.py --label pr25 --seeds 1 2 3

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
names, with `checks_done` also given as its median.  Standard library only.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record BENCH_<label>.json")
    parser.add_argument("--label", required=True)
    parser.add_argument("--rev", help="a git revision (default: the working tree)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    dirty = args.rev is None and bool(git(root, "status", "--porcelain"))
    record = {"label": args.label,
              "revision": git(root, "rev-parse", args.rev or "HEAD").decode().strip(),
              "dirty": dirty, "seconds": seconds, "seeds": args.seeds,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(root, args.rev, workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in runs[-1]["metrics"].items()),
                file=sys.stderr)
        metrics = {name: dict(summary([r["metrics"][name] for r in runs]), unit=unit)
                   for name, unit in units.items()}
        record["workloads"][workload] = {
            "checks_done": metrics["checks_done"]["median"],
            "all_correct": all(r["correct"] for r in runs), "metrics": metrics, "runs": runs}
    path = os.path.join(root, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
