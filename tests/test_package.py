"""The package's import surface, and its record types."""

import os
import pathlib
import subprocess
import sys

import pytest

import k4rel
from k4rel import closed_form as cf
from k4rel import cube_graph as cg

SRC = pathlib.Path(k4rel.__file__).parents[1]
LAYERS = ("k4rel.oracle", "k4rel.cube_graph", "dataclasses", "typing", "argparse", "gettext")


def loaded_after(code):
    """The modules of LAYERS that a fresh `python -S` has loaded after running code."""
    probe = f"import sys\n{code}\nprint(*[m for m in {LAYERS!r} if m in sys.modules])\n"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.split("\n")[-2].split()


class TestImportSurface:
    def test_cli_loads_only_the_closed_forms(self):
        assert loaded_after("import k4rel.cli") == []

    def test_lambda_loads_no_other_layer(self):
        run = "from k4rel.cli import main\nmain(['lambda', '--n', '22', '--h', '1000'])"
        assert loaded_after(run) == []

    def test_bitmap_loads_no_oracle(self):
        run = "from k4rel.cli import main\nmain(['bitmap', '--n', '3'])"
        assert loaded_after(run) == ["k4rel.cube_graph"]

    def test_layers_are_attributes_of_the_package(self):
        code = "import k4rel\nassert k4rel.oracle.verify_member and k4rel.cube_graph.MAX_DIM"
        assert loaded_after(code) == ["k4rel.oracle", "k4rel.cube_graph"]
        with pytest.raises(AttributeError):
            k4rel.no_such_layer


def records():
    """Each record type, built once, with its field names."""
    oc = k4rel.oracle
    entry = oc.CheckEntry("canonical", "xi", "1", 4, 4, True)
    return [(cf.concentration_intervals(6)[0], "t length lower upper value"),
            (cg.canonical_member(3), "n kind neighbours"),
            (entry, "member quantity input closed brute match"),
            (oc.VerificationReport(3, ("canonical",), (entry,)), "n members entries")]


class TestRecords:
    def test_graph_repr_leaves_out_the_rows(self):
        assert repr(cg.canonical_member(3)) == "CubeGraph(n=3, kind='k4member')"

    @pytest.mark.parametrize("index", range(4))
    def test_fields_are_read_only(self, index):
        record, names = records()[index]
        for name in names.split():
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_keywords_and_defaults(self):
        assert cf.concentration_intervals(6)[0] == cf.ConcentrationInterval(
            t=0, length=2, lower=6, upper=8, value=24)
