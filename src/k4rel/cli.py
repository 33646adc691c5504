"""Command-line front end: table and figure data files, plus the verification run.

Only closed_form loads with this module; bitmap imports cube_graph and verify
imports oracle when they run, so a closed-form query compiles neither.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 out of memory
or recursion depth (a smaller n may fit).  All outputs are
byte-stable for fixed inputs: integers everywhere except the plotdata ratios,
"." decimals, "\\n" line endings, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain

from . import closed_form as cf


def _write(out_path: str, chunks: Iterable[str | bytes], binary: bool = False) -> None:
    if out_path != "-":
        with open(out_path, "wb") if binary else open(out_path, "w", newline="\n") as fh:
            return fh.writelines(chunks)
    stream = sys.stdout.buffer if binary else sys.stdout
    try:
        stream.writelines(chunks)
        stream.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@lru_cache(maxsize=1)
def _h_template() -> str:
    """A row "<NUL>DDD,%s,%s,%s" per DDD = 000 .. 999: h = 1000k + DDD once NUL reads str(k)."""
    return "".join("\0%03d,%%s,%%s,%%s\n" % d for d in range(1000))


def _row_format(h: range) -> str:
    """The format of rows h with h written in and %s for ex, xi and lambda, per thousands group."""
    parts = ["%d,%%s,%%s,%%s\n" % m for m in h[:max(1000 - h.start, 0)]]  # h < 1000: plain
    for k in range(max(h.start // 1000, 1), (h.stop + 999) // 1000):
        lo, hi = max(h.start - 1000 * k, 0), min(h.stop - 1000 * k, 1000)
        parts.append(_h_template()[14 * lo:14 * hi].replace("\0", str(k)))
    return "".join(parts)


def render_profile(n: int, start: int = 0, stop: int | None = None) -> str:
    """CSV rows start+1 .. stop (all by default), after the header when start is 0."""
    text = ["h,ex,xi,lambda\n" if start == 0 else ""]
    for h, *columns in cf.profile_blocks(n, start, stop, str):
        rows = [0] * (3 * len(h))  # two int columns (%s as %d) and lambda as text
        rows[0::3], rows[1::3], rows[2::3] = columns
        text.append(_row_format(h) % tuple(rows))
    return "".join(text)


def render_intervals(n: int) -> str:
    lines = ["t,g_t,lower,upper,value"]
    for iv in cf.concentration_intervals(n):
        lines.append(f"{iv.t},{iv.length},{iv.lower},{iv.upper},{iv.value}")
    return "\n".join(lines) + "\n"


def render_conditional(n: int) -> str:
    def value(l: int) -> int:
        return cf.conditional_lambda(cf.FaultPattern.SUPER_DEGREE, l, n)

    lines = ["l,value"]
    for l in range(2, n):
        lines.append(f"{l},{value(l)}")
    lines.append(f"cyclic,{cf.cyclic_lambda(n)}")
    # l = 0 and 1 supplements for the degree/size patterns
    lines.append(f"remark_l0,{value(0)}")
    lines.append(f"remark_l1,{value(1)}")
    return "\n".join(lines) + "\n"


PLOT_HEADER = ("# h_norm = h / 2^(n-1); xi_norm and lambda_norm divided by max xi over 1..2^(n-1)\n"
               "n\th_norm\txi_norm\tlambda_norm\n")


def render_plotdata(n_list: list[int], start: int = 0, stop: int | None = None) -> str:
    """TSV rows start+1 .. stop of each n; given no rows, the whole file with its header."""
    text = [PLOT_HEADER] if (start, stop) == (0, None) else []
    for n in n_list:
        # max xi over 1..2^(n-1) is 2*ceil(2^n/3), checked on every n plotdata accepts, 3..24
        half, ratio = 1 << (n - 1), (2 * -(-(1 << n) // 3)).__rtruediv__
        for h, _, xi, lam in cf.profile_blocks(n, start, stop, lambda v: "%.6g" % ratio(v)):
            rows = zip(map(half.__rtruediv__, h), map(ratio, xi), lam)
            text.append(f"{n}\t%.6g\t%.6g\t%s\n" * len(h) % tuple(chain.from_iterable(rows)))
    return "".join(text)


def _bitmap_rows(n: int, kind: str, seed: int, k: int | None) -> Iterable[bytearray]:
    """Build the graph now, and give its P1 bitmap in blocks of about 32 KB of ASCII bytes."""
    from . import cube_graph as cg

    if kind == "canonical":
        graph = cg.canonical_member(n)
    elif kind == "random":
        graph = cg.build_k4cube(cg.random_matching_tree(n, seed))
    elif kind == "hypercube":
        graph = cg.build_hypercube(n)
    elif kind == "enhanced":
        graph = cg.build_enhanced(n, k if k is not None else n - 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    block = 1 << (14 - n)  # rows of 2^(n+1) bytes each; main accepts n <= 12
    return (cg.bitmap_pbm_bytes(graph, u, u + block) for u in range(0, graph.num_vertices, block))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="k4rel",
        description="Reliability parameters of generalized K4-hypercubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, **n_options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True, **n_options)
        return p

    command("profile", "CSV of ex/xi/lambda for one dimension")
    command("lambda", "print lambda_h for one (h, n)").add_argument(
        "--h", type=int, required=True)
    command("intervals", "CSV of the concentration intervals")
    command("conditional", "CSV of the conditional edge-connectivities")
    command("cyclic", "print the cyclic edge-connectivity")
    p = command("bitmap", "P1 bitmap of one adjacency matrix")
    p.add_argument("--kind", choices=("canonical", "random", "hypercube", "enhanced"),
                   default="canonical")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="only with --kind enhanced")
    command("plotdata", "TSV of normalized xi/lambda curves", nargs="+")
    p = command("verify", "check the closed forms on members by bound and witness")
    p.add_argument("--seeds", type=int, default=5, help="number of random members")
    for p in sub.choices.values():
        p.add_argument("--out", default="-")

    args = parser.parse_args(argv)
    try:
        if args.command == "profile":
            if not 3 <= args.n <= 24:
                raise ValueError(f"profile needs 3 <= n <= 24, got {args.n}")
            half = 1 << (args.n - 1)
            _write(args.out, (render_profile(args.n, lo, min(lo + cf.PROFILE_BLOCK, half))
                              for lo in range(0, half, cf.PROFILE_BLOCK)))
        elif args.command == "lambda":
            _write(args.out, [f"{cf.lambda_fast(args.h, args.n)}\n"])
        elif args.command == "intervals":
            _write(args.out, [render_intervals(args.n)])
        elif args.command == "conditional":
            _write(args.out, [render_conditional(args.n)])
        elif args.command == "cyclic":
            _write(args.out, [f"{cf.cyclic_lambda(args.n)}\n"])
        elif args.command == "bitmap":
            if not 2 <= args.n <= 12:
                raise ValueError(f"bitmap needs 2 <= n <= 12, got {args.n}")
            if args.k is not None and args.kind != "enhanced":
                raise ValueError(f"bitmap: --k applies only to --kind enhanced, not {args.kind}")
            _write(args.out, _bitmap_rows(args.n, args.kind, args.seed, args.k), binary=True)
        elif args.command == "plotdata":
            for n in args.n:
                if not 3 <= n <= 24:
                    raise ValueError(f"plotdata needs 3 <= n <= 24, got {n}")
            _write(args.out, chain([PLOT_HEADER], (
                render_plotdata([n], lo, min(lo + cf.PROFILE_BLOCK, 1 << (n - 1)))
                for n in args.n for lo in range(0, 1 << (n - 1), cf.PROFILE_BLOCK))))
        elif args.command == "verify":
            if args.seeds < 0:
                raise ValueError(f"verify needs --seeds >= 0, got {args.seeds}")
            from . import oracle as oc

            report = oc.verify_member(args.n, list(range(1, args.seeds + 1)))
            _write(args.out, [report.to_text()])
            if not report.passed:
                return 1
    except (ValueError, OSError) as exc:
        message = str(exc)
        if "int_max_str_digits" in message:  # Python's cap on printing long integers
            message = f"{args.command}: n={args.n} is too large for its values to be printed"
        print(f"k4rel: {message}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"k4rel: {args.command} ran out of resources ({type(exc).__name__});"
              " a smaller n may fit", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
