#!/usr/bin/env python3
"""Byte gate for a refactor: run one fixed command matrix in two trees and compare
every file the commands write.

    python tools/parity.py PARENT_REV [CHILD_REV]

PARENT_REV (and CHILD_REV, if given) is exported with ``git archive`` into a
temporary directory; without CHILD_REV the other tree is the working tree that holds
this script.  Every command runs in a child process pinned to one CPU with
``taskset -c 0`` and ``OPENBLAS_NUM_THREADS=1``, so LAPACK splits its work the same
way in both trees.  Both trees write under the same relative paths, because a
``.meta.json`` records its ``out`` path.  A command's exit status and standard
output are kept beside its files, in ``<name>.stdout``.

Per file the tool prints ``identical``; or the largest absolute and relative
difference of the numbers in the two files, and the normwise one, the largest absolute
difference over the largest magnitude in the parent's file; or ``structure differs``
when the text around the numbers, or their count, is not the same; equal numbers in
other bytes read ``signed zeros differ`` or ``format differs``.  Two JSON files whose objects
differ in their keys first name the key paths found in one file only, as in
``only in parent: tolerance_scale; rest identical``, and then give the verdict on
the rest, both re-written without those keys.  Gate on the absolute or the normwise
difference: an entry near zero can move by a large relative amount in its last bit, and
rounding noise against an exact zero reads ``rel 1``.
The temporary directory is removed at the end.  The exit status is 0 when every file
is identical.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a decimal number as the CLI, ``json`` and ``repr`` print it, or a non-finite one
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf(?:inity)?)",
                    re.IGNORECASE)

CURVES = {
    "kite": {"kind": "kite"},
    "star": {"kind": "star", "params": {"amplitude": 0.3, "wavenumber": 5}},
    "ellipse": {"kind": "ellipse", "params": {"a": 1.5, "b": 1.0}},
    "circle": {"kind": "circle", "params": {"radius": 0.8}},
}
ZS = {"m2": "-2,0", "2p1i": "2,1", "m05p08i": "-0.5,0.8", "0": "0,0"}
SPECS = {
    "dirichlet": {"L": {"special": "dirichlet"}},
    "neumann": {"L": {"special": "neumann"}},
    "krein": {"L": {"special": "krein"}},
    "robin": {"L": {"special": "robin", "theta": 1.5}},
}


def matrix() -> tuple[dict, list]:
    """``(inputs, commands)``: the files to write into a run directory, and the
    ``(name, argv)`` of every command, whose outputs start with ``name``."""
    inputs = {f"{kind}.json": json.dumps(spec) for kind, spec in CURVES.items()}
    inputs.update({f"spec-{kind}.json": json.dumps({"reference": "dirichlet", "z0": -1.0, **spec})
                   for kind, spec in SPECS.items()})
    commands = [(f"verify-{backend}-{seed}", ["verify", "--suite", "all", "--backend", backend,
                                              "--seed", str(seed)])
                for backend in ("interval", "disk", "kite") for seed in range(10)]
    domains = [(kind, f"{kind}.json", n) for kind in CURVES for n in (256, 512, 1024)]
    for label, domain, n in domains + [("interval", "interval", None), ("disk", "disk", None)]:
        nodes = [] if n is None else ["--nodes", str(n)]
        for zname, z in ZS.items():
            where = ["--domain", domain, *nodes, "--z", z]
            stem = f"{label}{'' if n is None else f'-{n}'}-z{zname}"
            commands.append((f"dtn-{stem}", ["dtn", *where]))
            commands += [(f"solve-{bc}-{stem}", ["solve", *where, "--bc", bc])
                         for bc in ("dirichlet", "neumann")]
    for backend in ("interval", "disk"):
        for kind in SPECS:
            spec = ["--spec", f"spec-{kind}.json", "--backend", backend]
            commands.append((f"spectrum-{backend}-{kind}", ["spectrum", *spec, "--window", "1,60"]))
            commands.append((f"mfunc-scan-{backend}-{kind}",
                             ["mfunc-scan", *spec, "--path", "0.1+0.5i:0.5:20.1+0.5i"]))
    for name, argv in commands:
        argv += ["--out", f"{name}.json" if argv[0] == "verify" else f"{name}.csv"]
    return inputs, commands


def run_tree(src: str, rundir: str, inputs: dict, commands: list):
    """Run every command with ``src`` on the path, in ``rundir``."""
    os.makedirs(rundir)
    for name, text in inputs.items():
        with open(os.path.join(rundir, name), "w") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for name, argv in commands:
        done = subprocess.run(["taskset", "-c", "0", sys.executable, "-m", "kreinlab.cli", *argv],
                              cwd=rundir, env=env, capture_output=True, text=True)
        with open(os.path.join(rundir, f"{name}.stdout"), "w") as fh:
            fh.write(f"exit {done.returncode}\n{done.stdout}")


def compare(path_a: str, path_b: str) -> str:
    """The verdict on two text files: ``identical``, ``structure differs``, the largest
    absolute and relative difference of their numbers and the normwise one
    ``max|x - y| / max|x|`` (``x`` the parent's numbers), or, for equal numbers,
    ``signed zeros differ`` or ``format differs``; for JSON files whose keys differ,
    the keys found in one file only, then the verdict on the rest."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return "identical"
    a, b = a.decode(errors="replace"), b.decode(errors="replace")
    try:
        only_a, only_b, rest_a, rest_b = _split_keys(json.loads(a), json.loads(b), [])
    except ValueError:  # not JSON
        only_a = only_b = []
    if not (only_a or only_b):
        return _compare_text(a, b)
    rest = [json.dumps(v, sort_keys=True, indent=1) for v in (rest_a, rest_b)]
    named = [f"only in {side}: {', '.join(sorted(map(_key_path, paths)))}"
             for side, paths in (("parent", only_a), ("child", only_b)) if paths]
    verdict = _compare_text(*rest) if rest[0] != rest[1] else "identical"
    return "; ".join(named + [f"rest {verdict}"])


def _split_keys(a, b, path: list) -> tuple:
    """``(only_a, only_b, rest_a, rest_b)``: the paths of the object keys that only ``a``
    or only ``b`` holds, and both values without those keys.  Lists of equal length
    are searched item by item."""
    if isinstance(a, dict) and isinstance(b, dict):
        only_a = [path + [k] for k in a if k not in b]
        only_b = [path + [k] for k in b if k not in a]
        rest_a, rest_b = {}, {}
        for k in a:
            if k in b:
                sub_a, sub_b, rest_a[k], rest_b[k] = _split_keys(a[k], b[k], path + [k])
                only_a += sub_a
                only_b += sub_b
        return only_a, only_b, rest_a, rest_b
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        subs = [_split_keys(x, y, path + [i]) for i, (x, y) in enumerate(zip(a, b))]
        return ([p for s in subs for p in s[0]], [p for s in subs for p in s[1]],
                [s[2] for s in subs], [s[3] for s in subs])
    return [], [], a, b


def _key_path(path: list) -> str:
    """``results[3].sign_used`` for the path ``["results", 3, "sign_used"]``."""
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return text[1:] if isinstance(path[0], str) else text


def _compare_text(a: str, b: str) -> str:
    """The verdict on two texts that are not byte-identical."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "structure differs"
    x = np.array([float(v) for v in NUMBER.findall(a)])
    y = np.array([float(v) for v in NUMBER.findall(b)])
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    diff = np.where(same, 0.0, np.abs(x - y))
    diff[np.isnan(diff)] = np.inf  # a number against nan
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = np.where(same, 0.0, diff / np.where(scale > 0, scale, 1.0))
    if not diff.any():
        return "signed zeros differ" if np.any(np.signbit(x) != np.signbit(y)) else "format differs"
    size = np.max(np.abs(x[np.isfinite(x)]), initial=0.0)
    norm = diff.max() / size if size > 0 else np.inf
    return f"abs {diff.max():.3g}  rel {rel.max():.3g}  norm {norm:.3g}"


def compare_dirs(dir_a: str, dir_b: str) -> list:
    """``(file, verdict)`` for every file of either directory, sorted by name."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    verdicts = []
    for name in names:
        a, b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            verdicts.append((name, "only in " + ("parent" if os.path.exists(a) else "child")))
        else:
            verdicts.append((name, compare(a, b)))
    return verdicts


def _export(rev: str, into: str) -> str:
    """The ``src`` directory of ``rev`` exported under ``into``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return os.path.join(into, "src")


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/parity.py PARENT_REV [CHILD_REV]", file=sys.stderr)
        return 2
    inputs, commands = matrix()
    scratch = tempfile.mkdtemp(prefix="kreinlab-parity-")
    try:
        parent = _export(argv[0], os.path.join(scratch, "parent-tree"))
        child = (_export(argv[1], os.path.join(scratch, "child-tree")) if len(argv) == 2
                 else os.path.join(ROOT, "src"))
        runs = [os.path.join(scratch, side) for side in ("parent", "child")]
        for src, rundir in zip((parent, child), runs):
            run_tree(src, rundir, inputs, commands)
        verdicts = [(name, v) for name, v in compare_dirs(*runs) if name not in inputs]
    finally:
        shutil.rmtree(scratch)
    for name, verdict in verdicts:
        print(f"{verdict:<32} {name}")
    moved = [(name, v) for name, v in verdicts if v != "identical"]
    print(f"{len(verdicts)} files from {len(commands)} commands: "
          f"{len(verdicts) - len(moved)} identical, {len(moved)} not")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
