"""CLI tests: golden outputs, byte stability, and exit codes."""

import hashlib
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import pytest

from k4rel import cli
from k4rel import closed_form as cf
from table_data import LAMBDA_TABLE, XI_TABLE

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_argv(argv):
    """The k4rel command line for argv, in a child process."""
    return [sys.executable, "-m", "k4rel.cli", *argv]


def child_env():
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))


def run_limited(argv, address_space):
    """Run k4rel in a child process whose address space is capped."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(child_argv(argv), env=child_env(), preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["profile", "--n", "18"], ["bitmap", "--n", "10"]])
def test_reader_closing_the_pipe_early_is_not_an_error(argv):
    # as `k4rel profile --n 18 | head -1`: both outputs are far larger than a pipe's buffer
    with subprocess.Popen(child_argv(argv), env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first in (b"h,ex,xi,lambda\n", b"P1\n")
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("argv", [["lambda", "--n", "7", "--h", "13"], ["profile", "--n", "18"]])
def test_reader_gone_before_the_first_byte_is_not_an_error(argv):
    # the reader is gone before the first byte: a short output must end with exit 0 too
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(child_argv(argv), env=child_env(), stdout=write,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


class TestProfile:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_golden(self, n, capsys):
        code, out, err = run(["profile", "--n", str(n)], capsys)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"profile_n{n}.csv").read_text()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_columns_match_tables(self, n, capsys):
        _, out, _ = run(["profile", "--n", str(n)], capsys)
        lines = out.strip().split("\n")
        assert lines[0] == "h,ex,xi,lambda"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 1 << (n - 1)
        for h, row in enumerate(body, start=1):
            assert int(row[0]) == h
            assert int(row[2]) == XI_TABLE[n][h - 1]
            assert int(row[3]) == LAMBDA_TABLE[n][h - 1]

    def test_spot_rows(self, capsys):
        _, out, _ = run(["profile", "--n", "6"], capsys)
        assert "9,34,29,29" in out.split("\n")
        _, out, _ = run(["profile", "--n", "7"], capsys)
        assert out.strip().split("\n")[-1] == "64,448,64,64"

    def test_byte_stable(self, capsys):
        a = run(["profile", "--n", "6"], capsys)
        b = run(["profile", "--n", "6"], capsys)
        assert a == b

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "p.csv"
        code, out, _ = run(["profile", "--n", "4", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        _, stdout, _ = run(["profile", "--n", "4"], capsys)
        assert target.read_text() == stdout

    def test_out_of_range(self, tmp_path, capsys):
        code, out, err = run(["profile", "--n", "2"], capsys)
        assert code == 2 and out == "" and "3 <= n <= 24" in err
        target = tmp_path / "p.csv"
        code, _, _ = run(["profile", "--n", "25", "--out", str(target)], capsys)
        assert code == 2 and not target.exists()

    @pytest.mark.parametrize("block", [4, 8])
    def test_small_blocks_cover_every_edge(self, block, monkeypatch, capsys):
        # blocks of 4 or 8 rows put block edges, and the last block, at every n
        monkeypatch.setattr(cf, "PROFILE_BLOCK", block)
        for n in range(3, 15):
            code, out, err = run(["profile", "--n", str(n)], capsys)
            assert (code, err) == (0, "")
            lines = out.split("\n")
            assert lines[0] == "h,ex,xi,lambda" and lines[-1] == ""
            rows = [tuple(map(int, line.split(","))) for line in lines[1:-1]]
            assert rows == [(h, cf.f_value(h), cf.xi_h4(h, n), cf.lambda_scan(h, n))
                            for h in range(1, (1 << (n - 1)) + 1)]

    def test_rows_stop_at_stop_and_blocks_start_on_an_edge(self):
        # a block starting off an edge would add f(r) to the wrong f(qB); the last block ends
        # at stop, not at the next edge
        assert cli.render_profile(18, 0, 10) == "h,ex,xi,lambda\n" + "".join(
            f"{h},{cf.f_value(h)},{cf.xi_h4(h, 18)},{cf.lambda_fast(h, 18)}\n"
            for h in range(1, 11))
        for start, stop in ((5, 10), (-1024, 10), (2048, 1024), (0, (1 << 17) + 1)):
            with pytest.raises(ValueError, match="start a multiple of 1024"):
                next(cf.profile_blocks(18, start, stop))

    def test_one_block_shape_per_popcount(self, tmp_path):
        # blocks qB + r share a shape per popcount(q), q < 2^(n-11): n - 10 shapes at B = 2^10
        cf._block_shape.cache_clear()
        assert cli.main(["profile", "--n", "18", "--out", str(tmp_path / "p.csv")]) == 0
        assert cf._block_shape.cache_info().misses <= 18 - 10

    @pytest.mark.parametrize("block", [16, 1 << 10])
    def test_rows_at_thousands_edges(self, block, monkeypatch):
        # h is written from a 1000-row template past 999; blocks cut its thousands groups
        monkeypatch.setattr(cf, "PROFILE_BLOCK", block)
        n = 18
        for h in (999, 1000, 1001, 9999, 10000, 99999, 100000):
            start = (h - 1) // block * block
            stop = start + 2 * block
            assert block > 1000 or start % 1000 and stop % 1000
            expect = "h,ex,xi,lambda\n" * (start == 0) + "".join(
                f"{m},{cf.f_value(m)},{cf.xi_h4(m, n)},{cf.lambda_fast(m, n)}\n"
                for m in range(start + 1, stop + 1))
            assert cli.render_profile(n, start, stop) == expect, h

    def test_rows_survive_block_changes_with_warm_caches(self, monkeypatch):
        # a cached shape belongs to one block size; a changed PROFILE_BLOCK must not reuse it
        expect = {n: [f"{h},{cf.f_value(h)},{cf.xi_h4(h, n)},{cf.lambda_scan(h, n)}"
                      for h in range(1, (1 << (n - 1)) + 1)] for n in (3, 9, 12, 15)}
        for block in (4, 8, 1 << 10, 1 << 14, 4, 1 << 10):
            monkeypatch.setattr(cf, "PROFILE_BLOCK", block)
            for n, rows in expect.items():
                assert cli.render_profile(n).split("\n")[1:-1] == rows, (block, n)

    def test_import_builds_no_template(self):
        # commands that print no profile, and start-up, do not pay for the row template
        code = ("import k4rel.cli as cli; assert cli._h_template.cache_info().currsize == 0; "
                "cli.render_profile(12); assert cli._h_template.cache_info().currsize == 1")
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")

    def test_n22_in_256mb(self, tmp_path):
        # the whole table as Python ints took 514 MB; the streamed blocks take about 15 MB
        done = run_limited(["profile", "--n", "22", "--out", str(tmp_path / "p.csv")], 256 << 20)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        digest = hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest()
        assert digest == "5ca5f01819cd075f4727ffa159b2b50228893af7fb65e0e1dab31e36b0000c91"


@pytest.mark.parametrize("argv", [["profile", "--n", "12"], ["profile", "--n", "18"],
                                  ["plotdata", "--n", "16", "17", "18"]])
def test_tables_stream_through_a_small_working_set(argv, tmp_path):
    # blocks of 2^14 rows peaked at 3.7 MB: their lists, a 64 Ki-entry tuple and 512 KB of text
    argv = argv + ["--out", str(tmp_path / "table")]
    assert cli.main(argv) == 0  # warms the cached f head, so only the working set is traced
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10, peak


class TestScalarCommands:
    def test_lambda(self, capsys):
        assert run(["lambda", "--n", "7", "--h", "13"], capsys) == (0, "48\n", "")
        assert run(["lambda", "--n", "6", "--h", "6"], capsys) == (0, "24\n", "")

    def test_lambda_under_2gb_address_space(self):
        # a fall-through h at n=40: the defining scan would need a 2^39-entry table
        done = run_limited(["lambda", "--n", "40", "--h", "1048577"], 2 << 30)
        assert (done.returncode, done.stdout, done.stderr) == (0, "20971559\n", "")

    def test_lambda_at_n10000_under_2gb_address_space(self):
        # an O(n^2) table of n-bit ints (31 GB here) does not fit; the walk keeps O(1) ints
        n, h = 10000, (1 << 9999) // 5 + 12345
        done = run_limited(["lambda", "--n", str(n), "--h", str(h)], 2 << 30)
        assert (done.returncode, done.stderr) == (0, "")
        candidates = {h, 1 << (n - 1)} | {(h >> j | 1) << j for j in range(n - 1) if not h >> j & 1}
        assert int(done.stdout) == min(cf.xi_h4(c, n) for c in candidates)

    def test_lambda_bad_h(self, capsys):
        code, _, err = run(["lambda", "--n", "5", "--h", "17"], capsys)
        assert code == 2 and err != ""

    def test_cyclic(self, capsys):
        assert run(["cyclic", "--n", "5"], capsys) == (0, "12\n", "")
        assert run(["cyclic", "--n", "3"], capsys) == (0, "4\n", "")

    def test_cyclic_at_n1000000_walks_only_the_bits_of_h(self):
        # lambda_3 = 3n - 3: a walk from bit n - 2 down takes O(n^2) time, hours at this n
        done = subprocess.run(child_argv(["cyclic", "--n", "1000000"]), env=child_env(),
                              capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (0, "2999997\n", "")


class TestIntervals:
    def test_n6(self, capsys):
        code, out, _ = run(["intervals", "--n", "6"], capsys)
        assert code == 0
        assert out == (
            "t,g_t,lower,upper,value\n"
            "0,2,6,8,24\n"
            "1,6,10,16,32\n"
            "2,22,10,32,32\n"
        )

    def test_n7_first_row(self, capsys):
        _, out, _ = run(["intervals", "--n", "7"], capsys)
        assert out.split("\n")[1] == "0,3,13,16,48"


class TestConditional:
    def test_n7(self, capsys):
        code, out, _ = run(["conditional", "--n", "7"], capsys)
        assert code == 0
        assert out == (
            "l,value\n"
            "2,20\n"
            "3,32\n"
            "4,48\n"
            "5,64\n"
            "6,64\n"
            "cyclic,18\n"
            "remark_l0,8\n"
            "remark_l1,14\n"
        )


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("command", ["intervals", "conditional"])
def test_values_too_long_to_print(command, capsys):
    # the lowest cap Python allows makes the error come on an early row
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run([command, "--n", "20000"], capsys)
    finally:
        sys.set_int_max_str_digits(cap)
    assert code == 2 and out == ""
    assert err == f"k4rel: {command}: n=20000 is too large for its values to be printed\n"


class TestBitmap:
    def test_k4(self, capsys):
        code, out, _ = run(["bitmap", "--n", "2"], capsys)
        assert code == 0
        assert out == "P1\n4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"

    def test_kinds_and_stability(self, capsys):
        a = run(["bitmap", "--n", "4", "--kind", "random", "--seed", "3"], capsys)
        b = run(["bitmap", "--n", "4", "--kind", "random", "--seed", "3"], capsys)
        assert a == b and a[0] == 0
        code, out, _ = run(["bitmap", "--n", "3", "--kind", "hypercube"], capsys)
        assert code == 0 and out.startswith("P1\n8 8\n")
        code, _, _ = run(["bitmap", "--n", "4", "--kind", "enhanced", "--k", "2"], capsys)
        assert code == 0

    def test_file_holds_the_text_in_blocks(self, tmp_path, capsys):
        # written as bytes, 16-row blocks at n = 10: the file is bitmap_pbm's text
        from k4rel import cube_graph as cg

        target = tmp_path / "b.pbm"
        argv = ["bitmap", "--n", "10", "--kind", "random", "--seed", "3", "--out", str(target)]
        assert run(argv, capsys) == (0, "", "")
        graph = cg.build_k4cube(cg.random_matching_tree(10, 3))
        assert target.read_bytes() == cg.bitmap_pbm(graph).encode("ascii")

    def test_out_of_range(self, capsys):
        assert run(["bitmap", "--n", "1"], capsys)[0] == 2
        assert run(["bitmap", "--n", "13"], capsys)[0] == 2

    @pytest.mark.parametrize("kind", ["canonical", "random", "hypercube"])
    def test_k_needs_enhanced(self, kind, capsys):
        code, out, err = run(["bitmap", "--n", "3", "--kind", kind, "--k", "5"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("k4rel: ") and err.count("\n") == 1 and "--k" in err


class TestPlotdata:
    def test_shape_and_normalization(self, capsys):
        code, out, _ = run(["plotdata", "--n", "5", "6"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "n\th_norm\txi_norm\tlambda_norm"
        body = [line.split("\t") for line in lines[2:]]
        assert len(body) == 16 + 32
        # last h is normalized to 1; lambda never exceeds xi's maximum
        assert body[15][1] == "1" and body[-1][1] == "1"
        assert all(float(row[3]) <= 1.0 for row in body)

    def test_n6_peak(self, capsys):
        # max xi for n = 6 is 44, reached at h = 22, so xi_norm peaks at 1 there
        _, out, _ = run(["plotdata", "--n", "6"], capsys)
        row = out.strip().split("\n")[2 + 21].split("\t")
        assert row[0] == "6" and row[2] == "1"

    def test_lambda_nondecreasing(self, capsys):
        _, out, _ = run(["plotdata", "--n", "7"], capsys)
        vals = [float(line.split("\t")[3]) for line in out.strip().split("\n")[2:]]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_normalized_by_max_xi(self):
        # the divisor 2*ceil(2^n/3) is the max of xi over h = 1..2^(n-1)
        for n in range(3, 17):
            xi = [x for _, _, column, _ in cf.profile_blocks(n, lam=False) for x in column]
            xi_max = max(xi)
            assert xi_max == 2 * -(-(1 << n) // 3), n
            rows = cli.render_plotdata([n]).split("\n")[2:-1]
            assert [row.split("\t")[2] for row in rows] == ["%.6g" % (x / xi_max) for x in xi]

    def test_out_of_range(self, tmp_path, capsys):
        target = tmp_path / "d.tsv"
        assert run(["plotdata", "--n", "5", "2", "--out", str(target)], capsys)[0] == 2
        assert not target.exists()

    @pytest.mark.parametrize("block", [4, 1 << 14])
    def test_equals_row_definition(self, block, monkeypatch, capsys):
        # the per-row f-strings the blocks replace, from the pointwise forms
        def rows(n):
            half = 1 << (n - 1)
            xi_max = max(cf.xi_h4(h, n) for h in range(1, half + 1))
            return [f"{n}\t{h / half:.6g}\t{cf.xi_h4(h, n) / xi_max:.6g}"
                    f"\t{cf.lambda_scan(h, n) / xi_max:.6g}" for h in range(1, half + 1)]

        header = ["# h_norm = h / 2^(n-1); xi_norm and lambda_norm divided by max xi over"
                  " 1..2^(n-1)", "n\th_norm\txi_norm\tlambda_norm"]
        monkeypatch.setattr(cf, "PROFILE_BLOCK", block)
        for n_list in [[n] for n in range(3, 13)] + [[12, 3, 7, 7]]:
            expect = "\n".join(header + [r for n in n_list for r in rows(n)]) + "\n"
            assert cli.render_plotdata(n_list) == expect
            assert run(["plotdata", "--n", *map(str, n_list)], capsys) == (0, expect, "")


class TestVerify:
    def test_n3_pass(self, capsys):
        code, out, _ = run(["verify", "--n", "3", "--seeds", "2"], capsys)
        assert code == 0
        assert out.startswith("verification n=3: PASS")

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        # a wrong served lambda_h at h = 2 is a verification mismatch, reported in full
        monkeypatch.setattr("k4rel.oracle.lambda_fast",
                            lambda h, n: cf.lambda_scan(h, n) + (h == 2))
        code, out, err = run(["verify", "--n", "3", "--seeds", "0"], capsys)
        assert (code, err) == (1, "")
        assert out.startswith("verification n=3: FAIL\n")

    @pytest.mark.parametrize("n, seeds", [(3, 5), (4, 2), (4, 5), (5, 1), (5, 3), (5, 5), (8, 3)])
    def test_golden(self, n, seeds, tmp_path, capsys):
        target = tmp_path / "v.txt"
        code, out, err = run(["verify", "--n", str(n), "--seeds", str(seeds),
                              "--out", str(target)], capsys)
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == (GOLDEN / f"verify_n{n}_seeds{seeds}.txt").read_bytes()

    def test_bad_n(self, capsys):
        from k4rel.oracle import BOUNDED_N

        code, _, err = run(["verify", "--n", str(BOUNDED_N + 1)], capsys)
        assert code == 2 and err != ""

    def test_negative_seeds(self, capsys):
        code, out, err = run(["verify", "--n", "3", "--seeds", "-1"], capsys)
        assert code == 2 and out == "" and "--seeds >= 0" in err

    def test_budget_nodes_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--n", "3", "--budget-nodes", "10"])
        assert exit_info.value.code == 2 and "--budget-nodes" in capsys.readouterr().err

    def test_n5_skips_no_row(self, capsys):
        code, out, err = run(["verify", "--n", "5", "--seeds", "0"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("verification n=5: PASS")
        rows = [row.split("  ") for row in out.splitlines()[3:]]
        assert len(rows) == 77 and all(row[-1] == "true" for row in rows)
        degree = [row for row in rows if row[1] in ("cond_super_degree", "cond_average_degree")]
        assert len(degree) == 6 and all(row[3] == row[4] for row in degree)


class TestResourceErrors:
    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_clean_exit_3(self, error, monkeypatch, capsys):
        # exit 1 means a verification mismatch, so exhaustion must not use it
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.cf, "profile_blocks", exhausted)
        code, out, err = run(["profile", "--n", "20"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("k4rel: ") and err.count("\n") == 1
