"""Traced steps of the k4rel benchmark, and the per-layer metrics made from them.

Run as a script, this wraps the public functions of each k4rel layer, runs one
step, keeps a span per call in memory (name, start, end, parent) and writes
the spans as JSON when the step ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json cli profile --n 6 --out p.csv
    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json lib verify --n 3 --out v.txt

`layer_metrics` turns the spans of one pass into the `<layer>.<function>.<stat>`
metrics.  Importing this module imports nothing from k4rel.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# Public functions wrapped in each layer.  Wrapping more than the metrics
# report keeps the parent links right, so self time is not overstated.
TRACED = {
    "closed_form": ("f_value", "xi_h4", "lambda_scan", "lambda_fast", "full_profile",
                    "concentration_intervals", "conditional_lambda", "cyclic_lambda"),
    "cube_graph": ("random_matching_tree", "build_k4cube", "canonical_member",
                   "build_hypercube", "build_enhanced", "boundary_size",
                   "induced_edge_count", "is_connected_induced", "bitmap_pbm"),
    "oracle": ("verify_member", "brute_ex", "brute_xi", "brute_xi_unconstrained",
               "brute_lambda_h", "brute_conditional", "brute_cyclic"),
    "cli": ("main", "render_profile", "render_plotdata", "render_intervals",
            "render_conditional"),
}
BRUTE = ("brute_ex", "brute_xi", "brute_xi_unconstrained", "brute_lambda_h",
         "brute_conditional", "brute_cyclic")
BUDGET_ERROR = "BudgetExceededError"

# The per-layer metrics, in report order, with their units.
METRICS = [
    ("closed_form.full_profile.calls", "count"),
    ("closed_form.full_profile.self_s", "s"),
    ("closed_form.lambda_fast.calls", "count"),
    ("closed_form.lambda_fast.self_s", "s"),
    ("closed_form.lambda_scan.calls", "count"),
    ("closed_form.lambda_scan.self_s", "s"),
    ("closed_form.lambda_fast.scan_ratio", "ratio"),
    ("cube_graph.build_k4cube.calls", "count"),
    ("cube_graph.build_k4cube.self_s", "s"),
    ("cube_graph.build_k4cube.rss_delta_mb", "MB"),
    ("cube_graph.random_matching_tree.calls", "count"),
    ("cube_graph.random_matching_tree.self_s", "s"),
    ("cube_graph.bitmap_pbm.calls", "count"),
    ("cube_graph.bitmap_pbm.self_s", "s"),
    ("cube_graph.bitmap_pbm.bytes", "B"),
] + [
    (f"cube_graph.{f}.{stat}", unit)
    for f in ("boundary_size", "induced_edge_count", "is_connected_induced")
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("oracle.verify_member.calls", "count"),
    ("oracle.verify_member.s", "s"),
] + [
    (f"oracle.{f}.{stat}", unit)
    for f in BRUTE
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("budget_exceeded", "count"))
] + [
    ("oracle.budget_exceeded_s", "s"),
    ("oracle.checks_attempted", "count"),
    ("oracle.checks_skipped", "count"),
    ("oracle.checked_ratio", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.render_profile.self_s", "s"),
    ("cli.render_plotdata.self_s", "s"),
    ("cli.out_bytes", "B"),
]


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _result_info(name: str, result):
    if name == "cube_graph.bitmap_pbm":
        return len(result)
    if name == "oracle.verify_member":
        return [len(result.entries), sum(e.skipped for e in result.entries)]
    return None


class Tracer:
    """Spans of one process: [name, start, end, parent, exception, rss growth kB, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0, None]
            stack.append(len(spans))
            spans.append(span)
            rss = _peak_rss_kb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                span[5] = _peak_rss_kb() - rss
                stack.pop()
            span[6] = _result_info(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function, also where another module imported it by value."""
        import importlib

        modules = [importlib.import_module(f"k4rel.{layer}") for layer in TRACED]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"k4rel.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        setattr(module, fname, wrapper)


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(span_lists: list[list[list]], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass from the spans of each of its steps.

    Self time is a span's duration minus its children's.  A search that ends
    in a budget error counts in `budget_exceeded` of every function it passes
    through, but its time counts once in `oracle.budget_exceeded_s`.
    """
    out = {name: 0 for name, _ in METRICS}
    scans_under_fast = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, exc, rss_kb, info) in enumerate(spans):
            for stat, value in (("calls", 1), ("s", end - start),
                                ("self_s", end - start - child[i]),
                                ("budget_exceeded", exc == BUDGET_ERROR)):
                key = f"{name}.{stat}"
                if key in out:
                    out[key] += value
            if exc == BUDGET_ERROR and (parent < 0 or spans[parent][4] != BUDGET_ERROR):
                out["oracle.budget_exceeded_s"] += end - start
            if name == "closed_form.lambda_scan" and _has_ancestor(spans, i, "closed_form.lambda_fast"):
                scans_under_fast += 1
            if name == "cube_graph.build_k4cube":
                out["cube_graph.build_k4cube.rss_delta_mb"] += rss_kb / 1024
            elif name == "cube_graph.bitmap_pbm" and info is not None:
                out["cube_graph.bitmap_pbm.bytes"] += info
            elif name == "oracle.verify_member" and info is not None:
                out["oracle.checks_attempted"] += info[0]
                out["oracle.checks_skipped"] += info[1]
    fast = out["closed_form.lambda_fast.calls"]
    out["closed_form.lambda_fast.scan_ratio"] = scans_under_fast / fast if fast else 0.0
    attempted = out["oracle.checks_attempted"]
    if attempted:
        out["oracle.checked_ratio"] = (attempted - out["oracle.checks_skipped"]) / attempted
    out["cli.out_bytes"] = out_bytes
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "lib"):
        print("usage: tracing.py SPANS.json cli|lib ARGS...", file=sys.stderr)
        return 2
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            from k4rel import cli

            return cli.main(rest)
        import steps

        return steps.main(rest)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
