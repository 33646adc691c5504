"""The k4rel benchmark: run one workload the way a user runs it, check it, report metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 18 --trace 0

Run from the repository root; the program is taken from `src/`.  Each step is
a `k4rel` command, or a short library script (`steps.py`), in its own
process.  Passes over the workload's steps repeat until `--seconds` have
passed (at least MIN_PASSES passes).  Every output is checked after
its pass, outside the timed window.  With `--trace 1` untraced and traced
passes alternate, and the per-layer metrics come from the traced ones.

Times are given at a fixed reference speed.  On a shared VM the whole host
slows and speeds up by up to 1.7x over seconds to minutes, which no statistic
taken over one run removes.  So every timed child runs between two runs of
REFERENCE, a fixed program that does not touch k4rel, and its wall time is
multiplied by REFERENCE_S over the mean of those two.  A change to k4rel
moves the scaled time as it moves the wall time; a slow phase of the host
moves the reference with it.  The summary lines print the measured wall
times beside the scaled ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from plan import WORKLOADS  # noqa: E402

K4REL_MAIN = "import sys; from k4rel.cli import main; sys.exit(main())"
# The costs the steps are made of: interpreter start-up, a pure-Python loop,
# and fresh memory (a 32 MB list and 32 MB of touched pages).  Memory matters:
# a reference without it missed the host's slow phases on `tables` and
# `graphs`, whose steps fault in hundreds of MB.
REFERENCE = ("xs = [0] * (1 << 17)\n"
             "for i in range(1 << 17):\n"
             "    xs[i] = i * 3 & 7\n"
             "big = [None] * (1 << 22)\n"
             "pages = bytearray(1 << 25)\n"
             "pages[::4096] = bytes(1 << 13)\n")
REFERENCE_S = 0.15  # the reference speed: REFERENCE takes this many seconds
REFERENCE_GAP_S = 0.5  # short children share references: one runs after each 0.5 s of them
SETUP_PROBES = 10  # at the start, and PASS_PROBES after every pass
PASS_PROBES = 2
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
RSS_FLAG_MB = 1.0
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("checks_done", "count")]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def pass_time(passes: list[dict]) -> float:
    """Seconds of one pass at the reference speed: each step's median over the passes.

    From three passes on, a burst of host noise that hits one step in one pass
    and another step in the next is left out of both; the median of the pass
    totals would keep one of them.
    """
    return sum(median(step) for step in zip(*(p["scaled_s"] for p in passes)))


class Harness:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.work = os.path.join(ROOT, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
        self.trace_dir = os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}")
        self.verified_pbm: set[str] = set()

    def spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one child to its end: (wall seconds, its own peak RSS in MB, exit code)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024, proc.returncode

    def reference(self) -> float:
        seconds, _, code = self.spawn([sys.executable, "-c", REFERENCE])
        if code != 0:
            raise RuntimeError("the reference program failed")
        return seconds

    def timed(self, argvs: list[list[str]]) -> list[tuple[float, float, float, int]]:
        """Run children in turn, with REFERENCE before the first, after the last,
        and after every REFERENCE_GAP_S seconds of children in between.

        Per child: (seconds at the reference speed, wall seconds, peak RSS in
        MB, exit code).  The scale is REFERENCE_S over the mean of the two
        references around the child.
        """
        before = self.reference()
        out, group, group_s = [], [], 0.0
        for i, argv in enumerate(argvs):
            group.append(self.spawn(argv))
            group_s += group[-1][0]
            if group_s >= REFERENCE_GAP_S or i == len(argvs) - 1:
                after = self.reference()
                scale = 2 * REFERENCE_S / (before + after)
                out += [(seconds * scale, seconds, rss, code) for seconds, rss, code in group]
                before, group, group_s = after, [], 0.0
        return out

    def probe_imports(self, count: int) -> list[tuple[float, float, float, int]]:
        probes = self.timed([[sys.executable, "-c", "import k4rel.cli"]] * count)
        if any(code != 0 for *_, code in probes):
            raise RuntimeError("cannot import k4rel.cli from src/")
        return probes

    def load_plan(self) -> list[dict]:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "plan.py"), "--workload", self.workload,
             "--seed", str(self.seed)],
            env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"plan.py failed:\n{done.stderr}")
        return json.loads(done.stdout)

    def argv(self, step: dict, out: str, spans: str | None) -> list[str]:
        if spans is not None:
            head = [sys.executable, os.path.join(HERE, "tracing.py"), spans, step["kind"]]
        elif step["kind"] == "cli":
            head = [sys.executable, "-c", K4REL_MAIN]
        else:
            head = [sys.executable, os.path.join(HERE, "steps.py")]
        return head + step["args"] + ["--out", out]

    def check(self, step: dict, out: str) -> int:
        """Checks the output passed: 0 if it is wrong, else 1, or the oracle rows compared."""
        if not os.path.isfile(out):
            return 0
        (kind, expected), = step["check"].items()
        if kind == "sha256":
            return int(checks.file_sha256(out) == expected)
        if kind == "pbm":
            digest = checks.file_sha256(out)
            if digest not in self.verified_pbm:
                _, _, code = self.spawn([sys.executable, os.path.join(HERE, "checks.py"),
                                         "pbm", out, str(expected)])
                if code != 0:
                    return 0
                self.verified_pbm.add(digest)
            return 1
        with open(out, "rb") as fh:
            return checks.check_verify(fh.read(), expected["n"], expected["rows"]) or 0

    def run_pass(self, plan: list[dict], traced: bool) -> dict:
        """One pass over the steps, then the output checks; outputs are deleted after."""
        files = []
        for i, step in enumerate(plan):
            out = os.path.join(self.work, f"{i}-{step['name']}.out")
            spans = os.path.join(self.trace_dir, f"{i}-{step['name']}.json") if traced else None
            files.append((out, spans))
        timings = self.timed([self.argv(step, out, spans)
                              for step, (out, spans) in zip(plan, files)])
        stats = {"scaled_s": [], "wall_s": 0.0, "peak_rss_mb": 0.0, "checks_done": 0,
                 "failed": 0, "out_bytes": 0}
        span_lists = []
        for step, (out, spans), (scaled, seconds, rss, code) in zip(plan, files, timings):
            stats["scaled_s"].append(scaled)
            stats["wall_s"] += seconds
            stats["peak_rss_mb"] = max(stats["peak_rss_mb"], rss)
            compared = self.check(step, out) if code == 0 else 0
            stats["checks_done"] += compared
            if not compared:
                stats["failed"] += 1
                print(f"step {step['name']} failed: exit {code}, output check"
                      f" {'failed' if code == 0 else 'not run'}", file=sys.stderr)
            if os.path.isfile(out):
                if step["kind"] == "cli":
                    stats["out_bytes"] += os.path.getsize(out)
                os.remove(out)
            if spans is not None and os.path.isfile(spans):
                with open(spans) as fh:
                    span_lists.append(json.load(fh))
        if traced:
            stats["layers"] = tracing.layer_metrics(span_lists, stats["out_bytes"])
        return stats

    def measure(self, trace: bool) -> dict:
        """All passes of one run; returns the result object printed last."""
        self.spawn([sys.executable, "-c", "import k4rel.cli"])  # compiles bytecode once
        start_probes = self.probe_imports(SETUP_PROBES)
        setup = list(start_probes)
        plan = self.load_plan()
        os.makedirs(self.work, exist_ok=True)
        if trace:
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            os.makedirs(self.trace_dir)
        plain, traced = [], []
        loop_start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            plain.append(self.run_pass(plan, traced=False))
            if trace:
                traced.append(self.run_pass(plan, traced=True))
            probes = self.probe_imports(PASS_PROBES)
            setup += probes
            elapsed = time.perf_counter() - self.start
            if time.perf_counter() - loop_start >= self.seconds and len(plain) >= MIN_PASSES:
                break
            if elapsed + 1.5 * (time.perf_counter() - lap) > RUN_LIMIT_S - 10:
                print(f"stopped after {len(plain)} passes to end within the time limit",
                      file=sys.stderr)
                break
        rss_start = median(rss for _, _, rss, _ in start_probes)
        rss_end = median(rss for _, _, rss, _ in probes)

        attempted = len(plan) * len(plain + traced)
        failed = sum(p["failed"] for p in plain + traced)
        lines = [f"workload {self.workload}, seed {self.seed}: {len(plain)} untraced"
                 f" and {len(traced)} traced passes of {len(plan)} steps"]
        if trace:
            metrics = {name: (median(p["layers"][name] for p in traced), unit)
                       for name, unit in tracing.METRICS}
            overhead = pass_time(traced) - pass_time(plain)
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            values = {"setup_s": median(scaled for scaled, *_ in setup),
                      "wall_s": pass_time(plain),
                      "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
                      "checks_done": median(p["checks_done"] for p in plain)}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<44} {value:>14.6g} {unit}")
        lines.append(f"  {'(measured setup_s)':<44} {median(s for _, s, _, _ in setup):>14.6g} s")
        lines.append(f"  {'(measured wall_s)':<44} {median(p['wall_s'] for p in plain):>14.6g} s")
        lines.append(f"  {'failed_ratio':<44} {failed / attempted:>14.6g} ratio")
        drift = "FLAGGED: the harness may distort peak RSS" if abs(
            rss_end - rss_start) > RSS_FLAG_MB else "ok"
        lines.append(f"  bare-import peak RSS at start {rss_start:.1f} MB, at end"
                     f" {rss_end:.1f} MB: {drift}")
        print("\n".join(lines))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="k4rel benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "k4rel", "cli.py")):
        print(f"no k4rel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    harness = Harness(args.workload, args.seed, args.seconds)
    try:
        result = harness.measure(bool(args.trace))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(harness.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
