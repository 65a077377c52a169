"""Per-layer counters and self times for rrcf5, taken from outside.

`install` wraps the public functions of each rrcf5 module as their callers
see them: every module-level name and class attribute bound to a traced
function is rebound to the wrapper, because `eta`, `rr_r` and friends are
imported by name into several modules.  Nothing under `src/` is edited.

Self time (`.self_s`) is a wrapped call's duration minus the time spent in
wrapped calls it made.  Count-only wrappers (`.calls` without `.self_s`) sit
on the hot exact-arithmetic methods, where timing each call would cost more
than the call.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (name, unit, better): every per-layer metric a traced run prints.
METRICS = (
    ("hpnum.eta.calls", "count", "lower"),
    ("hpnum.eta.bits", "bits", "lower"),
    ("hpnum.eta.self_s", "s", "lower"),
    ("hpnum.j_from_tau.calls", "count", "lower"),
    ("hpnum.j_from_tau.self_s", "s", "lower"),
    ("hpnum.reconstruct_int_poly.calls", "count", "lower"),
    ("hpnum.reconstruct_int_poly.failed", "count", "lower"),
    ("hpnum.reconstruct_int_poly.self_s", "s", "lower"),
    ("hpnum.rr_r.calls", "count", "lower"),
    ("hpnum.rr_r.self_s", "s", "lower"),
    ("pipeline.compute_z_values.self_s", "s", "lower"),
    ("pipeline.compute_s_values.self_s", "s", "lower"),
    ("pipeline.build_p_q.self_s", "s", "lower"),
    ("pipeline.build_F_G.self_s", "s", "lower"),
    ("pipeline.verify_T_invariance.self_s", "s", "lower"),
    ("pipeline.verify_cor42.self_s", "s", "lower"),
    ("pipeline.disc_conjecture_check.self_s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.ladder.steps", "count", "lower"),
    ("pipeline.ladder.useful_ratio", "ratio", "higher"),
    ("pipeline.precision_used.bits", "bits", "lower"),
    ("classdata.class_poly.self_s", "s", "lower"),
    ("classdata.reduced_forms.calls", "count", "lower"),
    ("classdata.n_system.calls", "count", "lower"),
    ("exactmath.poly_compose_rational.calls", "count", "lower"),
    ("exactmath.poly_compose_rational.self_s", "s", "lower"),
    ("exactmath.Poly.divmod.self_s", "s", "lower"),
    ("exactmath.poly_discriminant.self_s", "s", "lower"),
    ("exactmath.moebius_act_on_poly.self_s", "s", "lower"),
    ("exactmath.RatFunc.substitute.self_s", "s", "lower"),
    ("exactmath.CycloElem.mul.calls", "count", "lower"),
    ("exactmath.Poly.mul.calls", "count", "lower"),
    ("curve5.master_torsion_identity.self_s", "s", "lower"),
    ("curve5.verify_C5_solution.self_s", "s", "lower"),
    ("icosa.generate_g60.self_s", "s", "lower"),
    ("icosa.verify_f5_invariance.self_s", "s", "lower"),
    ("icosa.orbit_and_stabilizer.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cache.save.calls", "count", "lower"),
    ("cache.save.self_s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
)

MODULES = ("hpnum", "exactmath", "classdata", "pipeline", "cache", "curve5",
           "icosa", "cli")

# (module, attribute path, metric prefix): wrapped with timing
TIMED = (
    ("hpnum", "eta", "hpnum.eta"),
    ("hpnum", "j_from_tau", "hpnum.j_from_tau"),
    ("hpnum", "reconstruct_int_poly", "hpnum.reconstruct_int_poly"),
    ("hpnum", "rr_r", "hpnum.rr_r"),
    ("pipeline", "compute_z_values", "pipeline.compute_z_values"),
    ("pipeline", "compute_s_values", "pipeline.compute_s_values"),
    ("pipeline", "build_p_q", "pipeline.build_p_q"),
    ("pipeline", "build_F_G", "pipeline.build_F_G"),
    ("pipeline", "verify_T_invariance", "pipeline.verify_T_invariance"),
    ("pipeline", "verify_cor42", "pipeline.verify_cor42"),
    ("pipeline", "disc_conjecture_check", "pipeline.disc_conjecture_check"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("classdata", "class_poly", "classdata.class_poly"),
    ("classdata", "reduced_forms", "classdata.reduced_forms"),
    ("classdata", "n_system", "classdata.n_system"),
    ("exactmath", "poly_compose_rational", "exactmath.poly_compose_rational"),
    ("exactmath", "Poly.__divmod__", "exactmath.Poly.divmod"),
    ("exactmath", "poly_discriminant", "exactmath.poly_discriminant"),
    ("exactmath", "moebius_act_on_poly", "exactmath.moebius_act_on_poly"),
    ("exactmath", "RatFunc.substitute", "exactmath.RatFunc.substitute"),
    ("curve5", "master_torsion_identity", "curve5.master_torsion_identity"),
    ("curve5", "verify_C5_solution", "curve5.verify_C5_solution"),
    ("icosa", "generate_g60", "icosa.generate_g60"),
    ("icosa", "verify_f5_invariance", "icosa.verify_f5_invariance"),
    ("icosa", "orbit_and_stabilizer", "icosa.orbit_and_stabilizer"),
    ("cli", "main", "cli.main"),
    ("cache", "save", "cache.save"),
)

# wrapped with a call counter only
COUNTED = (
    ("exactmath", "CycloElem.__mul__", "exactmath.CycloElem.mul"),
    ("exactmath", "Poly.__mul__", "exactmath.Poly.mul"),
)


class Tracer:
    """Holds the counters of one traced pass."""

    def __init__(self):
        self.v = defaultdict(float)
        self._open = []  # wrapped-children time of each open timed call

    # -- wrappers -------------------------------------------------------

    def timed(self, prefix, fn, before=None, after=None, on_error=None):
        v, open_, clock = self.v, self._open, time.perf_counter
        calls, self_s = prefix + ".calls", prefix + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            v[calls] += 1
            if before:
                before(args, kwargs)
            open_.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                v[self_s] += dt - open_.pop()
                if open_:
                    open_[-1] += dt
            if after:
                after(out)
            return out

        return wrapper

    def counted(self, prefix, fn):
        v, calls = self.v, prefix + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            v[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ladder(self, fn):
        """Counts every precision step drawn from PrecisionPolicy.ladder and
        every ladder that ran out of steps."""
        v = self.v

        @functools.wraps(fn)
        def wrapper(policy):
            v["pipeline.ladder.started"] += 1
            for bits in fn(policy):
                v["pipeline.ladder.steps"] += 1
                yield bits
            v["pipeline.ladder.exhausted"] += 1

        return wrapper

    # -- hooks ----------------------------------------------------------

    def _hooks(self, prefix):
        v = self.v
        if prefix == "hpnum.eta":
            def before(args, kwargs):
                v["hpnum.eta.bits"] += args[1] if len(args) > 1 else kwargs["prec"]
            return {"before": before}
        if prefix == "hpnum.reconstruct_int_poly":
            from rrcf5.hpnum import PrecisionError

            def on_error(exc):
                if isinstance(exc, PrecisionError):
                    v["hpnum.reconstruct_int_poly.failed"] += 1
            return {"on_error": on_error}
        if prefix == "pipeline.run_pipeline":
            def after(res):
                v["pipeline.precision_used.bits"] += res.precision_used
            return {"after": after}
        if prefix == "cache.save":
            def after(path):
                v["cache.bytes_written"] += os.path.getsize(path)
            return {"after": after}
        return {}

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced function under all the names that bind it."""
        mods = {m: importlib.import_module(f"rrcf5.{m}") for m in MODULES}
        pkg = [mod for name, mod in sys.modules.items()
               if name == "rrcf5" or name.startswith("rrcf5.")]
        plan = [(m, path, prefix, True) for m, path, prefix in TIMED]
        plan += [(m, path, prefix, False) for m, path, prefix in COUNTED]
        for m, path, prefix, timed in plan:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mods[m], owner_name, None) if owner_name else mods[m]
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                raise LookupError(f"rrcf5.{m}.{path} is gone; {prefix} cannot be traced")
            if timed:
                wrapped = self.timed(prefix, orig, **self._hooks(prefix))
            else:
                wrapped = self.counted(prefix, orig)
            self._rebind(pkg if not owner_name else [owner], orig, wrapped)
        ladder = vars(mods["hpnum"].PrecisionPolicy).get("ladder")
        if ladder is None:
            raise LookupError("rrcf5.hpnum.PrecisionPolicy.ladder is gone; "
                              "pipeline.ladder cannot be traced")
        self._rebind([mods["hpnum"].PrecisionPolicy], ladder, self.ladder(ladder))

    @staticmethod
    def _rebind(owners, orig, wrapped):
        for owner in owners:
            for key, val in list(vars(owner).items()):
                if val is orig:
                    setattr(owner, key, wrapped)

    # -- results --------------------------------------------------------

    def snapshot(self):
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced pass to compare against."""
        v = self.v
        steps = v["pipeline.ladder.steps"]
        useful = v["pipeline.ladder.started"] - v["pipeline.ladder.exhausted"]
        derived = {"pipeline.ladder.useful_ratio": useful / steps if steps else 0.0}
        out = {}
        for name, unit, _ in METRICS:
            value = derived[name] if name in derived else v[name]
            if unit in ("count", "bits", "bytes"):
                value = int(value)
            out[name] = value
        return out
