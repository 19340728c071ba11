"""Per-layer tracing of kreinlab from outside the package.

Every public function listed in ``OPS`` is wrapped in a span.  A function is
re-bound in every kreinlab module that holds it, not only where it is
defined, so ``kreinlab.weyl.assemble_single_layer_trace`` is traced as well
as ``kreinlab.layerpot.assemble_single_layer_trace``; methods are replaced
on their class.  ``numpy.linalg`` functions are wrapped in place and record
only calls made from kreinlab modules; layerpot's ``scipy.special`` handle
is swapped for a proxy that times ``jv`` and ``hankel1``.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

from spans import Recorder, wrap

#: (layer.op, module, attribute or Class.method, ...)
OPS = [
    ("geometry.make_grid", "kreinlab.geometry", "make_grid"),
    ("layerpot.log_quadrature_weights", "kreinlab.layerpot", "log_quadrature_weights"),
    ("layerpot.assemble_single_layer_trace", "kreinlab.layerpot", "assemble_single_layer_trace"),
    ("layerpot.assemble_adjoint_double_layer", "kreinlab.layerpot", "assemble_adjoint_double_layer"),
    ("layerpot.evaluate_potential", "kreinlab.layerpot", "evaluate_potential",
     "evaluate_potential_gradient"),
    ("weyl.dtn", "kreinlab.weyl", "BemBackend.dtn", "dtn"),
    ("weyl.ntd", "kreinlab.weyl", "BemBackend.ntd", "ntd"),
    ("weyl.single_layer_solve", "kreinlab.weyl", "BemBackend.single_layer_solve"),
    ("weyl.solve", "kreinlab.weyl", "solve_dirichlet", "solve_neumann"),
    ("specfun.bessel", "kreinlab.specfun", "bessel_j", "bessel_j_prime", "bessel_y",
     "bessel_y_prime", "hankel1"),
    ("oracles.dtn", "kreinlab.oracles", "interval_dtn", "disk_mode_dtn", "Model1D.dtn",
     "Model1D.ntd", "DiskModel.dtn", "DiskModel.ntd"),
    ("oracles.harmonic_extension", "kreinlab.oracles", "Model1D.harmonic_extension",
     "DiskModel.harmonic_extension"),
    ("oracles.resolvent", "kreinlab.oracles", "Model1D.resolvent_dirichlet",
     "Model1D.resolvent_neumann", "DiskModel.resolvent_dirichlet", "DiskModel.resolvent_neumann"),
    ("oracles.field_eval", "kreinlab.oracles", "IntervalField.value", "IntervalField.derivative",
     "IntervalField.gamma_dirichlet", "IntervalField.gamma_neumann", "DiskField.value",
     "DiskField.gradient", "DiskField.gamma_dirichlet", "DiskField.gamma_neumann"),
    ("oracles.inner", "kreinlab.oracles", "Model1D.inner", "DiskModel.inner"),
    ("traces.tau", "kreinlab.traces", "tau_N", "tau_D"),
    ("traces.green_defect", "kreinlab.traces", "green_defect", "classical_green_defect"),
    ("extensions.make_extension", "kreinlab.extensions", "make_extension"),
    ("extensions.apply_resolvent", "kreinlab.extensions", "apply_resolvent"),
    ("extensions.direct_solve", "kreinlab.extensions", "direct_solve"),
    ("extensions.is_nonnegative", "kreinlab.extensions", "is_nonnegative"),
    ("kreinformulas.mfunc", "kreinlab.kreinformulas", "mfunc", "mfunc_direct"),
    ("kreinformulas.sign_witness", "kreinlab.kreinformulas", "resolve_sign_conventions"),
    ("kreinformulas.sign_witness", "kreinlab.verifysuite", "_sign_items"),
    ("kreinformulas.transfer", "kreinlab.kreinformulas", "two_extension_transfer",
     "transfer_variants", "transfer_alternative_form"),
    ("kreinformulas.abstract", "kreinlab.kreinformulas", "abstract_deficiency",
     "abstract_krein_check", "donoghue_m", "friedrichs_krein_domains"),
    ("spectral.eigenvalues", "kreinlab.spectral", "eigenvalues"),
    ("spectral.ordering_check", "kreinlab.spectral", "ordering_check"),
    ("verifysuite.build_suite", "kreinlab.verifysuite", "build_suite"),
    ("cli.csv", "kreinlab.cli", "write_complex_matrix_csv", "read_complex_csv"),
]

#: numpy.linalg functions timed when called from kreinlab, by reported name
LINALG = {"cond": "cond", "svd": "svd", "solve": "solve", "inv": "inv",
          "eigvalsh": "eigh", "eigh": "eigh"}

SPAN_OPS = sorted({op[0] for op in OPS} | {"layerpot.scipy_special"}
                  | {f"numpy_linalg.{v}" for v in LINALG.values()})


class _SpecialProxy:
    """Stand-in for ``scipy.special`` with some functions replaced."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _kreinlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kreinlab" or name.startswith("kreinlab."))]


class Tracer:
    """Installs the wrappers on ``install()`` and restores the originals on
    ``uninstall()``; counters land in ``recorder.counters``."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved = []  # (owner, attribute, original)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        for module in _kreinlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _hooks(self, op: str, target: str):
        count = self.rec.count
        if op.startswith("layerpot.assemble"):
            return (lambda args: count("layerpot.kernel_entries", args[0].n ** 2)), None
        if op == "specfun.bessel":
            return (lambda args: count("specfun.bessel.points", np.size(args[1]))), None
        if target in ("BemBackend.dtn", "BemBackend.single_layer", "BemBackend.neumann_trace"):
            def before(args):
                count("weyl.matrix_requests")
                return len(args[0]._cache)

            def after(size, args, result):
                if len(args[0]._cache) > size:
                    count("weyl.assemblies")

            return before, after
        if op == "spectral.eigenvalues":
            return None, lambda _, args, roots: count("spectral.roots_returned", len(roots))
        if op == "verifysuite.build_suite":
            return None, self._suite_counters
        return None, None

    def _suite_counters(self, _, args, items):
        from kreinlab.verifysuite import worker_count

        rec = self.rec
        rec.count("verifysuite.items", len(items))
        rec.count("verifysuite.items_failed", sum(not it["pass"] for it in items))
        rec.count_max("verifysuite.max_residual_ratio",
                      max((it["residual"] / it["tolerance"] for it in items), default=0.0))
        rec.count_max("verifysuite.workers", worker_count())

    def install(self):
        rec = self.rec
        for op, module_name, *targets in OPS:
            module = importlib.import_module(module_name)
            for target in targets:
                before, after = self._hooks(op, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, wrap(rec, op, getattr(cls, attr), before, after))
                else:
                    original = getattr(module, target)
                    self._rebind(original, wrap(rec, op, original, before, after))

        weyl = importlib.import_module("kreinlab.weyl")
        for attr in ("single_layer", "neumann_trace"):
            original = getattr(weyl.BemBackend, attr)
            before, after = self._hooks("", f"BemBackend.{attr}")
            self._set(weyl.BemBackend, attr, _counting(original, before, after))

        spectral = importlib.import_module("kreinlab.spectral")
        scan = spectral._scan_function

        def counted_scan(ext):
            fun = scan(ext)

            def evaluate(lam):
                rec.count("spectral.boundary_evals")
                return fun(lam)

            return evaluate

        self._set(spectral, "_scan_function", counted_scan)

        layerpot = importlib.import_module("kreinlab.layerpot")
        special = layerpot._sp
        overrides = {name: wrap(rec, "layerpot.scipy_special", getattr(special, name))
                     for name in ("jv", "hankel1")}
        self._set(layerpot, "_sp", _SpecialProxy(special, overrides))

        for attr, name in LINALG.items():
            self._set(np.linalg, attr, _from_kreinlab(rec, f"numpy_linalg.{name}",
                                                      getattr(np.linalg, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _counting(fn, before, after):
    def counted(*args, **kwargs):
        token = before(args)
        result = fn(*args, **kwargs)
        after(token, args, result)
        return result

    return counted


def _from_kreinlab(rec: Recorder, name: str, fn):
    def entries(args):
        shape = np.shape(args[0])
        rec.count(f"{name}.entries", shape[-1] * shape[-2] if len(shape) >= 2 else 1)

    traced = wrap(rec, name, fn, entries)

    def dispatch(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller == "kreinlab" or caller.startswith("kreinlab."):
            return traced(*args, **kwargs)
        return fn(*args, **kwargs)

    return dispatch
