"""Workload plans for the k4rel benchmark.

`steps(workload, seed)` turns a workload seed into the inputs each step gets;
it is pure and cheap.  `resolve(steps)` adds what each step must output, from
the recorded digests in golden.json and from the closed forms
(`lambda_scan`, `xi_h4`, ...).  Run as a script, this prints the resolved plan
as JSON, so the harness itself never imports k4rel:

    PYTHONPATH=src python3 perfbench/plan.py --workload queries --seed 3

`--record-golden` rewrites golden.json from the code on the path.  The digests
in the repository were recorded from the seed code; re-record only to add
commands, never to accept a changed output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from checks import file_sha256, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("tables", "queries", "graphs", "verify")
REGIMES = ("head", "interval", "tail", "fall")
# A fall-through lambda query builds a 2^(n-1) table; beyond n=22 that runs
# the machine out of memory at the seed instead of failing cleanly.
QUERY_DIMS = (20, 21, 22)
SMALL_DIMS = range(3, 201)
BITMAP_DIM = 11
SESSION_DIM = 15
VERIFY_PATTERNS = ("super_degree", "average_degree", "extra_size", "embedded")


def _cli(name: str, *args) -> dict:
    return {"name": name, "kind": "cli", "args": [str(a) for a in args]}


def _lib(name: str, *args) -> dict:
    return {"name": name, "kind": "lib", "args": [str(a) for a in args]}


def regime(h: int, n: int, intervals) -> str:
    """Which regime of the piecewise form answers (h, n): head, tail, interval or fall.

    The bounds are public ones: the monotone head ends where the first
    concentration interval begins, and the saturated tail starts at
    floor(2^(n-1)/3), as the docstring of `lambda_fast` states.  The tail is
    exactly the last concentration interval, so `lambda_fast` answers it from
    the interval loop; "interval" here means the other, non-saturated ones.
    """
    if h <= intervals[0].lower:
        return "head"
    if h >= (1 << (n - 1)) // 3:
        return "tail"
    if any(iv.lower <= h <= iv.upper for iv in intervals):
        return "interval"
    return "fall"


def _draw_h(rng: random.Random, want: str, n: int, intervals) -> int:
    half = 1 << (n - 1)
    lo, hi = {
        "head": (1, intervals[0].lower),
        "tail": (half // 3, half),
        "interval": (intervals[0].lower + 1, half // 3 - 1),
        "fall": (intervals[0].lower + 1, half // 3 - 1),
    }[want]
    if want == "interval":
        spans = [(max(lo, iv.lower), min(hi, iv.upper)) for iv in intervals]
        lo, hi = rng.choice([(a, b) for a, b in spans if a <= b])
    for _ in range(10_000):
        h = rng.randint(lo, hi)
        if regime(h, n, intervals) == want:
            return h
    raise RuntimeError(f"no {want} query found at n={n}")


def steps(workload: str, seed: int) -> list[dict]:
    """The steps of one pass: name, kind (cli or lib), arguments, and what to check."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        out = [_cli("profile-20", "profile", "--n", 20),
               _cli("profile-22", "profile", "--n", 22),
               _cli("plotdata-16-18", "plotdata", "--n", 16, 17, 18)]
        for step in out:
            step["check"] = {"golden": " ".join(step["args"])}
        return out
    if workload == "queries":
        from k4rel.closed_form import concentration_intervals

        out = []
        for want in REGIMES:
            for n in QUERY_DIMS:
                h = _draw_h(rng, want, n, concentration_intervals(n))
                step = _cli(f"lambda-{want}-{n}", "lambda", "--n", n, "--h", h)
                step["check"] = {"lambda": [h, n]}
                out.append(step)
        for command in ("intervals", "conditional", "cyclic"):
            step = _cli(command, command, "--n", rng.choice(SMALL_DIMS))
            step["check"] = {"golden": " ".join(step["args"])}
            out.append(step)
        return out
    if workload == "graphs":
        out = [_cli("bitmap-random-12", "bitmap", "--n", 12, "--kind", "random",
                    "--seed", rng.randrange(1 << 31))]
        out[0]["check"] = {"pbm": 12}
        for kind in ("canonical", "hypercube", "enhanced"):
            extra = ("--k", rng.randint(1, BITMAP_DIM - 1)) if kind == "enhanced" else ()
            step = _cli(f"bitmap-{kind}-{BITMAP_DIM}", "bitmap", "--n", BITMAP_DIM,
                        "--kind", kind, *extra)
            step["check"] = {"golden": " ".join(step["args"])}
            out.append(step)
        # one size per octave keeps the session's cost steady across seeds
        sizes = [rng.randrange(1 << k, 2 << k) for k in range(SESSION_DIM - 1)]
        member_seed = rng.randrange(1 << 31)
        step = _lib(f"session-{SESSION_DIM}", "session", "--n", SESSION_DIM,
                    "--seed", member_seed, "--sizes", *sizes)
        step["check"] = {"session": [SESSION_DIM, sizes]}
        out.append(step)
        return out
    if workload == "verify":
        member_seeds = rng.sample(range(1, 1 << 20), 5)
        first = _lib("verify-4", "verify", "--n", 4, "--seeds", *member_seeds)
        first["check"] = {"verify": [4, ["canonical"] + [f"seed{s}" for s in member_seeds]]}
        second = _cli("verify-5", "verify", "--n", 5, "--seeds", 0)
        second["check"] = {"verify": [5, ["canonical"]]}
        return [first, second]
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def session_text(n: int, sizes: list[int]) -> str:
    """What `steps.py session` must print: both members match the closed forms."""
    from k4rel.closed_form import xi_h4

    lines = []
    for member in ("canonical", "random"):
        lines.append(f"{member} regular=true edges={(n + 1) << (n - 1)}")
        for m in sizes:
            xi = xi_h4(m, n)
            lines.append(f"{member} m={m} boundary={xi} induced={((n + 1) * m - xi) // 2}"
                         " connected=true")
    return "\n".join(lines) + "\n"


def verify_rows(n: int, members: list[str]) -> list[list[str]]:
    """(member, quantity, input, closed value) of every row a verify report holds."""
    from k4rel.closed_form import (FaultPattern, conditional_lambda, cyclic_lambda,
                                   f_value, lambda_scan, xi_h4)

    half = 1 << (n - 1)
    rows = []
    for member in members:
        for m in range(1, half + 1):
            rows += [[member, "ex", m, f_value(m)], [member, "xi", m, xi_h4(m, n)],
                     [member, "xi_e", m, xi_h4(m, n)]]
        rows += [[member, "lambda", h, lambda_scan(h, n)] for h in range(1, half + 1)]
        for l in range(2, n):
            for p in VERIFY_PATTERNS:
                value = conditional_lambda(FaultPattern[p.upper()], l, n)
                rows.append([member, f"cond_{p}", l, value])
        rows.append([member, "cyclic", "-", cyclic_lambda(n)])
    return [[str(x) for x in row] for row in rows]


def resolve(plan: list[dict], golden: dict[str, str]) -> list[dict]:
    """Replace each step's check by what the harness compares: a digest, or rows."""
    from k4rel.closed_form import lambda_scan

    for step in plan:
        (kind, value), = step["check"].items()
        if kind == "golden":
            if value not in golden:
                raise KeyError(f"golden.json has no digest for {value!r}")
            step["check"] = {"sha256": golden[value]}
        elif kind == "lambda":
            step["check"] = {"sha256": _sha256(f"{lambda_scan(*value)}\n")}
        elif kind == "session":
            step["check"] = {"sha256": _sha256(session_text(*value))}
        elif kind == "verify":
            n, members = value
            step["check"] = {"verify": {"n": n, "rows": verify_rows(n, members)}}
    return plan


def golden_commands() -> list[list[str]]:
    """Every deterministic command a seed can draw, keyed by its arguments."""
    out = [step["args"] for step in steps("tables", 0)]
    for command in ("intervals", "conditional", "cyclic"):
        out += [[command, "--n", str(n)] for n in SMALL_DIMS]
    for kind in ("canonical", "hypercube"):
        out.append(["bitmap", "--n", str(BITMAP_DIM), "--kind", kind])
    out += [["bitmap", "--n", str(BITMAP_DIM), "--kind", "enhanced", "--k", str(k)]
            for k in range(1, BITMAP_DIM)]
    return out


def record_golden() -> None:
    from k4rel.cli import main

    golden = {}
    path = os.path.join(os.path.dirname(HERE), ".perfbench", "golden.out")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for args in golden_commands():
        if main(args + ["--out", path]) != 0:
            raise RuntimeError(f"k4rel {' '.join(args)} failed")
        golden[" ".join(args)] = file_sha256(path)
    os.remove(path)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    json.dump(resolve(steps(args.workload, args.seed), golden), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
