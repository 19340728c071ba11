"""File comparison of the byte-gate tool ``tools/parity.py``."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                     "parity.py")
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

CSV = '# dtn\n"1.0,0.5","-2.5e-17,3"\n"0.25,-1","7,0"\n'


@pytest.fixture()
def trees(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "child"
    a.mkdir()
    b.mkdir()
    return a, b


def test_identical_files(trees):
    a, b = trees
    for tree in trees:
        (tree / "dtn.csv").write_text(CSV)
        (tree / "dtn.csv.meta.json").write_text('{"out": "dtn.csv", "n": 2}')
    assert parity.compare_dirs(a, b) == [("dtn.csv", "identical"),
                                         ("dtn.csv.meta.json", "identical")]


def test_a_last_bit_change_is_measured(trees):
    a, b = trees
    (a / "dtn.csv").write_text(CSV)
    (b / "dtn.csv").write_text(CSV.replace("0.25,", "0.25000000000000006,"))
    (b / "extra.csv").write_text(CSV)
    assert parity.compare_dirs(a, b) == [("dtn.csv", "abs 5.55e-17  rel 2.22e-16  norm 7.93e-18"),
                                         ("extra.csv", "only in child")]
    # an entry near zero moves far in relative terms, little in absolute ones
    (b / "dtn.csv").write_text(CSV.replace("-2.5e-17", "-3e-17"))
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "abs 5e-18  rel 0.167  norm 7.14e-19"
    # equal numbers in other bytes
    (b / "dtn.csv").write_text(CSV.replace('"7,0"', '"7,-0"'))
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "signed zeros differ"
    (b / "dtn.csv").write_text(CSV.replace('"7,0"', '"7.0,0"'))
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "format differs"


def test_noise_against_an_exact_zero_is_small_normwise(trees):
    # a real map written as complex: rounding noise in the parent's imaginary parts
    # against exact zeros reads rel 1, but the normwise difference stays at rounding
    a, b = trees
    (a / "dtn.csv").write_text('# dtn\n"-2.5,1.7e-16","0.5,-4e-17"\n')
    (b / "dtn.csv").write_text('# dtn\n"-2.5,0","0.5,0"\n')
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "abs 1.7e-16  rel 1  norm 6.8e-17"


def test_a_shape_change_is_a_structure_change(trees):
    a, b = trees
    (a / "dtn.csv").write_text(CSV)
    (b / "dtn.csv").write_text(CSV + '"1,0","0,1"\n')
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "structure differs"
    (b / "dtn.csv").write_text(CSV.replace('"7,0"', '"7,0","1,1"'))
    assert parity.compare(a / "dtn.csv", b / "dtn.csv") == "structure differs"
    # a report whose pass flag flips differs in its text, not in a number
    (a / "report.json").write_text('{"pass": true, "residual": 1e-16}')
    (b / "report.json").write_text('{"pass": false, "residual": 1e-16}')
    assert parity.compare(a / "report.json", b / "report.json") == "structure differs"


def test_the_matrix_names_every_output_once():
    inputs, commands = parity.matrix()
    names = [name for name, _ in commands]
    assert len(names) == len(set(names)) == 214
    for name, argv in commands:
        assert argv[-2:] == ["--out", f"{name}.json" if argv[0] == "verify" else f"{name}.csv"]
        assert all(arg in inputs for arg in argv if arg.endswith(".json") and arg != argv[-1])


def test_json_keys_on_one_side_are_named(trees):
    a, b = trees
    report = {"pass": True, "results": [{"identity": "x", "residual": 1e-16}],
              "tolerance_scale": 1.0}
    (a / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    del report["tolerance_scale"]
    (b / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    assert parity.compare(a / "report.json", b / "report.json") == \
        "only in parent: tolerance_scale; rest identical"
    # keys inside list items, on both sides, and a verdict on the numbers left
    report["results"][0].update(residual=2e-16, note="new")
    (b / "report.json").write_text(json.dumps({"seed": 0, **report}, sort_keys=True, indent=1))
    assert parity.compare(a / "report.json", b / "report.json") == (
        "only in parent: tolerance_scale; only in child: results[0].note, seed; "
        "rest abs 1e-16  rel 0.5  norm 1")
    # a key set that matches is compared as text, as before
    (b / "report.json").write_text(json.dumps({"pass": False, "results": [], "tolerance_scale": 1}))
    assert parity.compare(a / "report.json", b / "report.json") == "structure differs"
