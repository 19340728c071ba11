"""Every kreinlab name the benchmark harness uses must exist.

``perfbench/layers.py`` names kreinlab functions and methods by string in
``OPS``, and the harness modules import kreinlab names, some inside code
strings run in child interpreters; a rename would otherwise surface only as
a broken benchmark run.
"""

import glob
import importlib
import os
import re
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_op_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        layers = importlib.import_module("layers")
        missing = []
        for op, module_name, *targets in layers.OPS:
            module = importlib.import_module(module_name)
            for target in targets:
                owner = module
                for name in target.split("."):
                    owner = getattr(owner, name, None)
                if not callable(owner):
                    missing.append(f"{op}: {module_name}.{target}")
        assert not missing
    finally:
        sys.modules.pop("layers", None)
        sys.modules.pop("spans", None)


def test_every_harness_import_resolves():
    missing = []
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            text = fh.read()
        for module_name, names in re.findall(r"from (kreinlab(?:\.\w+)*) import (\w+(?:, \w+)*)",
                                             text):
            module = importlib.import_module(module_name)
            for name in names.split(", "):
                if not hasattr(module, name):
                    try:
                        importlib.import_module(f"{module_name}.{name}")
                    except ImportError:
                        missing.append(f"{os.path.basename(path)}: {module_name}.{name}")
    assert not missing
