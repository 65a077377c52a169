"""One pass of a workload in a fresh single-threaded process.

    python3 worker.py SPEC OUT

SPEC is a JSON file {"argvs": [[...], ...], "trace": bool, "setup_only":
bool}.  The worker imports rrcf5.cli (and installs the tracer when asked),
notes the monotonic clock as `t_ready`, runs each argv through
`rrcf5.cli.main` with stdout captured, and writes its timings, the outputs
and, when traced, the per-layer counters to OUT.  Outputs are checked by the
caller, outside the timed region.

The worker times fixed calibration loops right after `t_ready`, and during
a pass again: once every CALIB_EVERY_S seconds from a timer signal when
untraced, after each item when traced (a timer would land in the traced
self times).  The pass's wall and CPU time leave out the time the loops
take.  The caller scales the times by the loop times, that is by the
machine's speed while the pass ran.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

# together about 0.07 s on a fast minute of a 2.1 GHz x86-64 virtual machine
CALIB_ITERS = 50_000
CALIB_FRACTIONS = 5_000
# a pass of tables or exact_identities takes 16-30 s, so it gets 16-30
# samples; one sample alone varies by about 14% within a pass
CALIB_EVERY_S = 1.0


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_s():
    """Time one run of two fixed loops: 1,024-bit fixed-point arithmetic, the
    kind of work mpmath's pure-Python backend does, and Fraction arithmetic,
    the kind the exact layer does.  Neither calls the program."""
    t0 = time.perf_counter()
    one = 1 << 1024
    q, t, total = one // 7, one, 0
    for _ in range(CALIB_ITERS):
        t = (t * q) >> 1024 or one
        total += t
    acc = Fraction(0)
    for i in range(1, CALIB_FRACTIONS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


class Sampler:
    """Times calibration_s when asked, or from a SIGALRM handler every
    CALIB_EVERY_S seconds while started, and adds up the wall and CPU time
    it spends there."""

    def __init__(self):
        self.samples, self.wall_s, self.cpu_s = [], 0.0, 0.0

    def sample(self, *signal_args):
        w0, c0 = time.perf_counter(), _cpu_s()
        self.samples.append(calibration_s())
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += _cpu_s() - c0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _run(main, argv):
    buf = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc(limit=3)
    return {"rc": rc, "stdout": buf.getvalue(), "error": error,
            "wall_s": time.perf_counter() - t0}


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import mpmath
    from rrcf5 import cli

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {
        "t_ready": time.perf_counter(),
        "env": {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                "backend": mpmath.libmp.BACKEND},
    }
    calibs = [calibration_s()]
    if not spec.get("setup_only"):
        sampler = Sampler()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        if not tracer:
            sampler.start()
        outputs = []
        for argv in spec["argvs"]:
            outputs.append(_run(cli.main, argv))
            if tracer:
                sampler.sample()
        sampler.stop()
        result["wall_s"] = time.perf_counter() - t0 - sampler.wall_s
        result["cpu_s"] = _cpu_s() - cpu0 - sampler.cpu_s
        calibs += sampler.samples
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, kids) / 1024.0
        result["outputs"] = outputs
        if tracer:
            result["metrics"] = tracer.snapshot()
    result["calibration_s"] = calibs
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
