"""Command-line front end: table and figure data files, plus the verification run.

Only closed_form loads with this module, not argparse: parse reads argv by COMMANDS.  bitmap
imports cube_graph and verify imports oracle when they run, so a closed-form query needs neither.

Exit codes: 0 success, 1 verification mismatch or a member the oracle refuses, 2 usage error (one
"k4rel:" line), 3 out of memory or recursion depth (a smaller n may fit).  All outputs are
byte-stable for fixed inputs: integers everywhere except the plotdata ratios, "." decimals, "\\n"
line endings, no timestamps.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace

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
    rows = cf.concentration_intervals(n)  # t, length (g_t), lower, upper, value
    return "t,g_t,lower,upper,value\n" + "".join("%d,%d,%d,%d,%d\n" % row for row in rows)


def render_conditional(n: int) -> str:
    """Rows l = 2 .. n-1, the cyclic value, then the l = 0 and 1 degree/size-pattern values."""
    value = [cf.conditional_lambda(cf.FaultPattern.SUPER_DEGREE, l, n) for l in range(n)]
    return "l,value\n" + "".join(f"{l},{value[l]}\n" for l in range(2, n)) + (
        f"cyclic,{cf.cyclic_lambda(n)}\nremark_l0,{value[0]}\nremark_l1,{value[1]}\n")


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


KINDS = ("canonical", "random", "hypercube", "enhanced")
# Each command's help and options but --n (int) and --out (str, "-"), as name: (type, default):
# int, str, a tuple of choices, or list for one or more ints; no default makes it required.
COMMANDS = {
    "profile": ("CSV of ex/xi/lambda for one dimension", {}),
    "lambda": ("print lambda_h for one (h, n)", {"h": (int,)}),
    "intervals": ("CSV of the concentration intervals", {}),
    "conditional": ("CSV of the conditional edge-connectivities", {}),
    "cyclic": ("print the cyclic edge-connectivity", {}),
    "bitmap": ("P1 bitmap of one adjacency matrix",
               {"kind": (KINDS, "canonical"), "seed": (int, 0), "k": (int, None)}),
    "plotdata": ("TSV of normalized xi/lambda curves", {"n": (list,)}),
    "verify": ("check the closed forms on members by bound and witness", {"seeds": (int, 5)}),
}


def _bitmap_rows(n: int, kind: str, seed: int, k: int | None) -> Iterable[bytearray]:
    """Build the graph now, and give its P1 bitmap in blocks of about 32 KB of ASCII bytes."""
    from . import cube_graph as cg

    graph = (cg.canonical_member(n) if kind == "canonical" else
             cg.build_k4cube(cg.random_matching_tree(n, seed)) if kind == "random" else
             cg.build_hypercube(n) if kind == "hypercube" else
             cg.build_enhanced(n, k if k is not None else n - 1))  # parse admits only KINDS
    block = 1 << (14 - n)  # rows of 2^(n+1) bytes each; main accepts n <= 12
    return (cg.bitmap_pbm_bytes(graph, u, u + block) for u in range(0, graph.num_vertices, block))


def parse(argv: list[str]):
    """argv's command and option values by COMMANDS, or the help text -h asks for.  An option is
    --name VALUE or --name=VALUE, by a unique prefix of its name, in any order (the last one
    wins); a value that starts with "-" is "-" or a negative integer."""
    command, tokens = (argv or [""])[0], argv[:0:-1]  # the options reversed, popped in order
    if command in ("-h", "--help"):
        return "usage: k4rel COMMAND --n N [--OPTION VALUE ...], or k4rel COMMAND -h\n\n" + "".join(
            f"  {name:14}{text}\n" for name, (text, _) in COMMANDS.items())
    if command not in COMMANDS:
        raise ValueError(f"{command or '(none)'}: not a command, use one of {', '.join(COMMANDS)}")
    options = {"n": (int,), **COMMANDS[command][1], "out": (str, "-")}
    args = {name: spec[1] for name, spec in options.items() if spec[1:]}
    while tokens:
        token = tokens.pop()
        if token in ("-h", "--help"):
            words = (("[%s]" if s[1:] else "%s") % f"--{o} {o.upper()}" for o, s in options.items())
            return f"usage: k4rel {command} {' '.join(words)}\n\n{COMMANDS[command][0]}\n"
        key, eq, text = token[2:].partition("=")
        names = [key] if key in options else [o for o in options if o.startswith(key)]
        if token[:2] != "--" or len(names) != 1:
            raise ValueError(f"{command}: unrecognized argument {token!r}")
        name, kind, got = names[0], options[names[0]][0], [text] if eq else []
        while not eq and tokens and (kind is list or not got) and (  # "-5" is a value, "-x" not
                tokens[-1][:1] != "-" or tokens[-1] == "-" or tokens[-1][1:].isdigit()):
            got.append(tokens.pop())
        if not got:
            raise ValueError(f"{command}: --{name} needs a value")
        if type(kind) is tuple and got[0] not in kind:
            raise ValueError(f"{command}: --{name} takes {'|'.join(kind)}, not {got[0]!r}")
        try:
            values = [*map(int, got)] if kind in (int, list) else got
        except ValueError:
            raise ValueError(f"{command}: --{name} takes integers, not {' '.join(got)!r}") from None
        args[name] = values if kind is list else values[0]
    if missing := [name for name in options if name not in args]:
        raise ValueError(f"{command}: --{missing[0]} is required")
    return SimpleNamespace(command=command, **args)


def main(argv: list[str] | None = None) -> int:
    args = None  # until parsed, so that a refused command line names no n
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help that -h asks for
            return _write("-", [args]) or 0
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

            try:
                report = oc.verify_member(args.n, list(range(1, args.seeds + 1)))
            except oc.BudgetExceededError as exc:  # a failed check, not a usage error
                print(f"k4rel: verify: {exc}", file=sys.stderr)
                return 1
            _write(args.out, [report.to_text()])
            if not report.passed:
                return 1
    except (ValueError, OSError) as exc:
        message = str(exc)
        if args and "int_max_str_digits" in message:  # Python's cap on printing long integers
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
