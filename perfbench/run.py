"""kreinlab benchmark: closed-loop CLI requests with independent output checks.

Usage, from the root of a kreinlab checkout:

    python3 perfbench/run.py --workload {nystrom,model} --seed N \
        --seconds S --trace {0,1}

One client sends kreinlab CLI requests in-process (``kreinlab.cli.main``
with ``standalone_mode=False``), each after the previous one completed.  The
seed fixes the task list (see ``tasks.py``); the list is run in rounds until
``--seconds`` have passed and every task ran at least once.  Every output is
checked against a closed-form oracle (``checks.py``) outside the timed
region.  ``KREINLAB_THREADS`` is removed from the environment and BLAS
threads are left at their default, so the verify pool and BLAS run with the
counts a user gets; both are reported in the environment line.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median of three set-ups: importing kreinlab, numpy, scipy and
  click and building the ``Model1D`` and ``DiskModel`` backends with their
  self-tests, timed once in this process from its first statement and twice
  in fresh interpreters from their launch;
* ``run_s``: wall time of one pass over the task list, as the sum of each
  task's median wall time over the run;
* ``tasks_per_s``: tasks per pass over ``run_s``;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The failure ratio is ``failed / attempted`` in the same line: a task fails
if it raises, exits non-zero or its output fails its oracle.  The line
before gives it with the task count and the median task time
(``task_p50_s``, the median over the tasks of their untraced median wall
times).  That time is not a metric: it is the time of one short request,
which on a shared host spreads by a third from run to run.  Eigenvalues
that a spectrum reports with too small a multiplicity are a known defect of
the scan; they are listed on a ``known-defect`` line and counted by the
``spectral.multiplicity_missing`` layer metric rather than as failures.

With ``--trace 1`` the run makes untraced rounds for half the time and whole
traced passes for the rest, and the last line reports the per-layer metrics
of ``layers.py``, per pass.  Self times are per thread; summed over the
verify pool's threads they can exceed wall time.  The spans are written to
``perfbench/out/``.

ROADMAP baseline rows: the disk and kite ``verify --suite all`` rows are the
first two tasks of the ``model`` workload (their wall times are printed per
task); the interval row and its ``ordering_check`` layer row are not
measured, because that single request outlasts a run (see
``tasks.VERIFY_ITEMS``).  ``dtn --nodes 1024`` on the kite is the first
``nystrom`` task, and its assembly and ``cond``/``solve`` layer rows are
``layerpot.assemble_*`` and ``numpy_linalg.cond/solve`` of a traced
``nystrom`` run; the disk Krein ``spectrum`` row is the disk Krein task of
``model`` (narrower window).  The Tier-1 wall time is not one of the
benchmark's workloads.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_CHILDREN = 2
SETUP_CODE = (
    "import numpy, scipy, scipy.special, click\n"
    "import kreinlab, kreinlab.cli\n"
    "from kreinlab.oracles import DiskModel, Model1D\n"
    "Model1D(); DiskModel(radius=1.0, mode_cutoff=8)\n"
)

#: cheap request run once before timing, so first-call costs of numpy,
#: scipy and BLAS do not land in the first task
WARMUP = ("dtn", "--domain", "@in/warmup.json", "--z", "-1.0,0.0", "--nodes", "64",
          "--out", "@out/warmup.csv")
WARMUP_CURVE = '{"kind": "circle", "params": {"radius": 0.8}}'


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("nystrom", "model"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(CACHE_DIR, "pycache")
    return env


def measure_setup() -> list:
    """Set-up time of this process, then of fresh interpreters doing the same."""
    exec(SETUP_CODE, {})
    samples = [time.perf_counter() - STARTED]
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return samples


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {"vendor": info.get("name", "unknown"), "version": info.get("version", "unknown"),
           "threads": "unknown"}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        out["threads"] = fn()
    return out


def environment(args, kreinlab_threads_env) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    from kreinlab.verifysuite import worker_count

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "worker_count": worker_count(),
        "KREINLAB_THREADS_removed": kreinlab_threads_env,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs tasks through the CLI entry point and checks their outputs."""

    def __init__(self, workdir: str):
        from kreinlab import cli

        self.cli = cli
        self.in_dir = os.path.join(workdir, "in")
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.in_dir)
        os.makedirs(self.out_dir)

    def argv(self, args) -> list:
        out = []
        for a in args:
            if a.startswith("@in/"):
                a = os.path.join(self.in_dir, a[4:])
            elif a.startswith("@out/"):
                a = os.path.join(self.out_dir, a[5:])
            out.append(a)
        return out

    def write_inputs(self, tasks):
        for task in tasks:
            for name, text in task.inputs:
                with open(os.path.join(self.in_dir, name), "w") as fh:
                    fh.write(text)
        with open(os.path.join(self.in_dir, "warmup.json"), "w") as fh:
            fh.write(WARMUP_CURVE)

    def invoke(self, argv) -> tuple:
        """Returns (exit code or None if it raised, captured stdout, error)."""
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                self.cli.main(argv, standalone_mode=False)
            return 0, captured.getvalue(), None
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            return code, captured.getvalue(), None
        except Exception as exc:  # a raising request is a failed task, not a crash
            return None, captured.getvalue(), f"{type(exc).__name__}: {exc}"

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.out_dir, f)) for f in os.listdir(self.out_dir))

    def run(self, task) -> dict:
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        argv = self.argv(task.args)
        start = time.perf_counter()
        code, stdout, error = self.invoke(argv)
        wall = time.perf_counter() - start
        record = {"label": task.label, "start": start, "wall_s": wall, "exit": code, "ok": False,
                  "bytes": self.output_bytes(), "defect": None}
        if error is not None or code != 0:
            record["error"] = error or f"exit code {code}: {stdout.strip()[-300:]}"
            return record
        try:
            record.update(check_output(task, argv))
            record["ok"] = True
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record


def check_output(task, argv) -> dict:
    out = argv[argv.index("--out") + 1]
    if task.kind == "dtn":
        return {"residual": checks.check_dtn(out, task.check)}
    if task.kind == "solve":
        return {"residual": checks.check_solve(out, task.check)}
    if task.kind == "mfunc-scan":
        return {"residual": checks.check_mfunc(out, task.check)}
    if task.kind == "verify":
        return {"residual_ratio": checks.check_verify(out, task.check)}
    found = checks.read_eigenvalues(out)
    short, problems, worst = checks.compare_spectrum(found, task.check["expected"])
    if problems:
        raise checks.CheckFailed("; ".join(problems))
    return {"residual": worst, "multiplicity_missing": short,
            "defect": f"{short} eigenvalue(s) missing by multiplicity" if short else None}


#: each round repeats a task until it has run this long, so that the median
#: of a short task rests on many samples
ROUND_TASK_S = 0.5


def run_for(runner, tasks, seconds: float, records: list) -> list:
    """Runs the task list in rounds until ``seconds`` have passed and every
    task ran at least once; returns the wall times of each task, in list
    order.  Within a round a task is repeated until it has taken
    ``ROUND_TASK_S``.  Stopping after any request, not only after a whole
    round, keeps the run close to ``seconds`` when a round is long."""
    walls = [[] for _ in tasks]
    start = time.perf_counter()
    while True:
        for i, task in enumerate(tasks):
            spent = 0.0
            while spent < ROUND_TASK_S:
                rec = runner.run(task)
                records.append(rec)
                walls[i].append(rec["wall_s"])
                spent += rec["wall_s"]
                if all(walls) and time.perf_counter() - start >= seconds:
                    return walls


def run_passes(runner, tasks, seconds: float, records: list, recorder) -> list:
    """Whole passes over the task list until ``seconds`` have passed, so that
    layer counts divide exactly by the number of passes; returns the wall
    times of each task, one per pass.  The recorder learns which task each
    span belongs to."""
    walls = [[] for _ in tasks]
    start = time.perf_counter()
    while True:
        for i, task in enumerate(tasks):
            recorder.task = task.label
            rec = runner.run(task)
            recorder.tasks.append((task.label, rec["start"], rec["start"] + rec["wall_s"]))
            records.append(rec)
            walls[i].append(rec["wall_s"])
        if time.perf_counter() - start >= seconds:
            return walls


def typical_pass(walls) -> float:
    """Summed median wall time of each task: one pass over the task list."""
    return sum(statistics.median(w) for w in walls)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup, walls) -> dict:
    run_s = typical_pass(walls)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(run_s, "s"),
        "tasks_per_s": _metric(len(walls) / run_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rec, traced_walls, untraced_walls, records, cpu_s) -> dict:
    """Per-pass layer metrics of the traced passes.

    Besides ``<op>.calls`` and ``<op>.self_s`` for every traced operation:
    ``weyl.cache_hit_ratio`` is 1 - assemblies / matrix requests to
    ``BemBackend``; ``spectral.boundary_evals_per_root`` is scan samples per
    eigenvalue returned; ``verifysuite.max_residual_ratio`` is the largest
    residual / tolerance of any suite item; ``trace.coverage`` is the share
    of task wall time inside spans on the main thread; and
    ``trace.overhead_ratio`` is the traced ``typical_pass`` over the untraced
    one.
    """
    from layers import LINALG, SPAN_OPS

    n = len(traced_walls[0])
    totals = rec.totals()
    c = rec.counters
    out = {}
    for op in SPAN_OPS:
        calls, self_s = totals.get(op, (0, 0.0))
        out[f"{op}.calls"] = _metric(calls / n, "count")
        out[f"{op}.self_s"] = _metric(self_s / n, "s")
    for name in sorted(set(LINALG.values())):
        out[f"numpy_linalg.{name}.entries"] = _metric(c[f"numpy_linalg.{name}.entries"] / n, "count")
    requests = c["weyl.matrix_requests"]
    roots = c["spectral.roots_returned"]
    wall = sum(map(sum, traced_walls))
    out.update({
        "layerpot.kernel_entries": _metric(c["layerpot.kernel_entries"] / n, "count"),
        "weyl.cache_hit_ratio": _metric(1.0 - c["weyl.assemblies"] / requests if requests else 0.0,
                                        "ratio"),
        "specfun.bessel.points": _metric(c["specfun.bessel.points"] / n, "count"),
        "spectral.boundary_evals": _metric(c["spectral.boundary_evals"] / n, "count"),
        "spectral.roots_returned": _metric(roots / n, "count"),
        "spectral.boundary_evals_per_root": _metric(c["spectral.boundary_evals"] / roots
                                                    if roots else 0.0, "ratio"),
        "spectral.multiplicity_missing": _metric(
            sum(r.get("multiplicity_missing", 0) for r in records) / n, "count"),
        "verifysuite.items": _metric(c["verifysuite.items"] / n, "count"),
        "verifysuite.items_failed": _metric(c["verifysuite.items_failed"] / n, "count"),
        "verifysuite.max_residual_ratio": _metric(c["verifysuite.max_residual_ratio"], "ratio"),
        "verifysuite.workers": _metric(c["verifysuite.workers"], "count"),
        "cli.bytes_written": _metric(sum(r["bytes"] for r in records) / n, "B"),
        "process.cpu_s": _metric(cpu_s / n, "s"),
        "process.cpu_util": _metric(cpu_s / wall, "ratio"),
        "trace.coverage": _metric(rec.main_covered() / wall, "ratio"),
        "trace.overhead_ratio": _metric(typical_pass(traced_walls) / typical_pass(untraced_walls),
                                        "ratio"),
    })
    return out


def print_task_layers(rec, records, passes: int):
    """One line per task: its median wall time and the self time per pass of
    each layer operation that ran during it."""
    by_task = rec.self_by_task()
    for label in dict.fromkeys(r["label"] for r in records):
        walls = [r["wall_s"] for r in records if r["label"] == label]
        ops = sorted(by_task.get(label, {}).items(), key=lambda kv: -kv[1])
        print(json.dumps({"task": label, "wall_s": round(statistics.median(walls), 4),
                          "self_s": {op: round(s / passes, 4) for op, s in ops}}))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "kreinlab", "cli.py")):
        print(f"error: no kreinlab sources under {SRC}; run from a kreinlab checkout",
              file=sys.stderr)
        return 2
    threads_env = os.environ.pop("KREINLAB_THREADS", None)
    sys.pycache_prefix = os.path.join(CACHE_DIR, "pycache")
    sys.path.insert(0, SRC)

    setup = measure_setup() if args.trace == 0 else []
    # the harness's own modules import scipy.optimize, which is not part of
    # kreinlab's set-up, so they load after it was timed
    global checks, tasklib
    import checks
    import tasks as tasklib

    task_list = tasklib.generate(args.workload, args.seed)
    os.makedirs(CACHE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR)
    try:
        runner = Runner(workdir)
        runner.write_inputs(task_list)
        runner.invoke(runner.argv(WARMUP))
        env = environment(args, threads_env)
        print(json.dumps({"environment": env}, sort_keys=True))
        records = []
        if args.trace == 0:
            walls = run_for(runner, task_list, args.seconds, records)
            metrics = end_to_end(setup, walls)
            print(json.dumps({"task_wall_s": walls, "setup_samples_s": setup}))
        else:
            from layers import Tracer
            from spans import Recorder

            walls = run_for(runner, task_list, args.seconds / 2, records)
            traced_records = []
            rec = Recorder()
            tracer = Tracer(rec)
            tracer.install()
            cpu0 = _cpu_seconds()
            try:
                traced = run_passes(runner, task_list, args.seconds / 2, traced_records, rec)
            finally:
                tracer.uninstall()
            records += traced_records
            metrics = per_layer(rec, traced, walls, traced_records, _cpu_seconds() - cpu0)
            print_task_layers(rec, traced_records, len(traced[0]))
            os.makedirs(OUT_DIR, exist_ok=True)
            rec.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    defects = [r for r in records if r.get("defect")]
    for r in failed:
        print(json.dumps({"failed": r["label"], "error": r.get("error")}))
    for r in defects:
        print(json.dumps({"known-defect": r["label"], "detail": r["defect"]}))
    print(json.dumps({"tasks_per_pass": len(task_list), "tasks_run": len(records),
                      "task_p50_s": statistics.median(map(statistics.median, walls)),
                      "fail_ratio": len(failed) / len(records)}))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
