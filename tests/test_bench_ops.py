"""Every method the per-layer benchmark tracer wraps must exist.

``perfbench/layers.py`` names kreinlab functions and methods by string in
``OPS``; a rename would otherwise surface only as a broken ``--trace 1`` run.
"""

import importlib
import os
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
