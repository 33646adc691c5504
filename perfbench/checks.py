"""Output checks of the k4rel benchmark.

The harness imports this module, so it must stay light: it imports nothing
from k4rel and never holds a large output in memory.  On Linux a child
inherits its parent's peak-RSS mark across exec, so a heavy harness would show
up in every step's `peak_rss_mb`.  The structural bitmap check needs more
memory and runs in its own process:

    python3 perfbench/checks.py pbm OUT.pbm 12     # exit 0 if OUT.pbm is valid
"""

from __future__ import annotations

import sys

try:  # the built-in module avoids loading OpenSSL (about 3.5 MB of RSS)
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

CHUNK = 1 << 18


def file_sha256(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def check_pbm(path: str, n: int) -> bool:
    """A P1 adjacency bitmap of an (n+1)-regular simple graph on 2^n vertices.

    0 marks an edge.  Every row must hold exactly n+1 of them, none on the
    diagonal, and the matrix must be symmetric.
    """
    size = 1 << n
    neighbours = []
    with open(path, "rb") as fh:
        if fh.readline() != b"P1\n" or fh.readline() != f"{size} {size}\n".encode():
            return False
        separators = b" " * (size - 1)
        for u in range(size):
            line = fh.readline()
            if len(line) != 2 * size or line[-1:] != b"\n" or line[1:-1:2] != separators:
                return False
            cells = line[0:-1:2]
            if cells.count(b"0") != n + 1 or cells.count(b"1") != size - n - 1:
                return False
            row = []
            v = cells.find(b"0")
            while v != -1:
                row.append(v)
                v = cells.find(b"0", v + 1)
            if u in row:
                return False
            neighbours.append(frozenset(row))
        if fh.read(1):
            return False
    return all(u in neighbours[v] for u, row in enumerate(neighbours) for v in row)


def check_verify(data: bytes, n: int, rows: list[list[str]]) -> int | None:
    """Number of oracle checks compared in a passing verify report, None if it is wrong.

    `rows` gives (member, quantity, input, closed value) for every row in
    order.  A row either matches (brute equals closed) or is skipped.
    """
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return None
    head = [f"verification n={n}: PASS", "", "member  quantity  input  closed  brute  match"]
    if len(lines) != len(rows) + len(head) + 1 or lines[:3] != head or lines[-1] != "":
        return None
    compared = 0
    for line, (member, quantity, inp, closed) in zip(lines[3:-1], rows):
        prefix = f"{member}  {quantity}  {inp}  {closed}  "
        if line == f"{prefix}{closed}  true":
            compared += 1
        elif line != f"{prefix}skipped  skipped":
            return None
    return compared if compared else None


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] != "pbm":
        print("usage: checks.py pbm PATH N", file=sys.stderr)
        return 2
    return 0 if check_pbm(argv[1], int(argv[2])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
