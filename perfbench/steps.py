"""Library steps of the k4rel benchmark, for work the `k4rel` command has no entry for.

Each runs in its own process, like a user's script, and writes its result to
`--out`:

    PYTHONPATH=src python3 perfbench/steps.py session --n 15 --seed 7 --sizes 1 3 6 --out s.txt
    PYTHONPATH=src python3 perfbench/steps.py verify --n 4 --seeds 11 12 --out v.txt
"""

from __future__ import annotations

import argparse
import sys

from k4rel import cube_graph as cg
from k4rel import oracle as oc


def session(n: int, member_seed: int, sizes: list[int]) -> str:
    """Build the canonical and one random member; probe canonical sets on both."""
    members = (("canonical", cg.canonical_member(n)),
               ("random", cg.build_k4cube(cg.random_matching_tree(n, member_seed))))
    lines = []
    for name, g in members:
        regular = all(g.degree(v) == n + 1 for v in range(g.num_vertices))
        lines.append(f"{name} regular={str(regular).lower()} edges={g.edge_count()}")
        for m in sizes:
            members_m = cg.canonical_set(m, n)
            connected = str(cg.is_connected_induced(g, members_m)).lower()
            lines.append(f"{name} m={m} boundary={cg.boundary_size(g, members_m)}"
                         f" induced={cg.induced_edge_count(g, members_m)} connected={connected}")
    return "\n".join(lines) + "\n"


def verify(n: int, member_seeds: list[int]) -> str:
    return oc.verify_member(n, member_seeds).to_text()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="k4rel benchmark library steps")
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("session")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=[])
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.step == "session":
        text = session(args.n, args.seed, args.sizes)
    else:
        text = verify(args.n, args.seeds)
    with open(args.out, "w", newline="\n") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
