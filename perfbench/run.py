"""rrcf5 benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Each pass
runs the whole workload once in a fresh single-threaded Python process
(worker.py) with RR5_CACHE_DIR pointing at a fresh directory, and every
output is checked against the references in perfbench/refs.  A run makes at
least one pass (one untraced and one traced with --trace 1), then more
while the next one still fits in S seconds.

--trace 0 prints the end-to-end metrics (medians over the passes):
  wall_s       wall time of one pass
  cpu_s        process CPU time of one pass, children included
  setup_s      interpreter start plus `import rrcf5.cli`, median of
               SETUP_SAMPLES fresh processes before the passes and
               SETUP_SAMPLES more after each pass
  peak_rss_mb  peak resident memory of the workload process
The three times are scaled to a fixed machine speed.  Every worker times
fixed pure-Python loops (worker.calibration_s) after set-up, and an untraced
pass's worker again once a second while the items run, leaving the loops'
time out of the pass's.  A pass's wall and CPU time are multiplied by
CALIB_REF_S / (the median loop time of that pass), and the median set-up
time by CALIB_REF_S / (the median loop time of the set-up samples).  The
unscaled medians are printed on a comment line.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracer.METRICS plus trace.overhead_s (traced minus untraced
wall_s, both at the reference speed).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = tuple((n, u) for n, u, _ in tracer.METRICS) + (("trace.overhead_s", "s"),)
# set-up is sampled this many times before the passes and again after each
# pass, so that its samples span the run as the passes do
SETUP_SAMPLES = 4
# The machine's speed drifts by up to +-25% within minutes, and fixed loops
# of the kind of work the program does drift with it, so times are reported
# at the speed where the loops take CALIB_REF_S.
CALIB_REF_S = 0.07
# a run must end within 180 s, so no pass may take longer than this
PASS_TIMEOUT_S = 150


class PassError(RuntimeError):
    pass


def run_pass(argvs, trace=False, setup_only=False, timeout=PASS_TIMEOUT_S):
    """Run the worker once; return (worker result, cache entries by d).

    The result gains "setup_s" (spawn to ready) and "duration_s" (spawn to
    exit).  A pass that times out returns None for the result.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        cache_dir = os.path.join(work, "cache")
        spec_path, out_path = os.path.join(work, "spec.json"), os.path.join(work, "out.json")
        argvs = [[cache_dir if a == workloads.CACHE else a for a in argv] for argv in argvs]
        with open(spec_path, "w") as fh:
            json.dump({"argvs": argvs, "trace": trace, "setup_only": setup_only}, fh)
        env = dict(os.environ, RR5_CACHE_DIR=cache_dir, TMPDIR=work,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                   spec_path, out_path], env=env, cwd=work,
                                  stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, {}
        if proc.returncode != 0 or not os.path.exists(out_path):
            raise PassError(f"worker exited with code {proc.returncode}")
        with open(out_path) as fh:
            result = json.load(fh)
        result["duration_s"] = time.perf_counter() - t_spawn
        result["setup_s"] = result["t_ready"] - t_spawn
        entries = {}
        if os.path.isdir(cache_dir):
            for name in os.listdir(cache_dir):
                if name.startswith("d") and name.endswith(".json"):
                    with open(os.path.join(cache_dir, name)) as fh:
                        entries[int(name[1:-5])] = json.load(fh)
        return result, entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def check_pass(workload, items, result, entries, refs):
    """Problems per failed item of one pass, as {item key: [problem, ...]}."""
    if result is None:
        return {item["key"]: ["pass timed out"] for item in items}
    failed = {}
    for item, out in zip(items, result["outputs"]):
        problems = workloads.check_item(workload, item, out,
                                        entries.get(item.get("d")), refs[item["key"]])
        if problems:
            failed[item["key"]] = problems
    return failed


def scaled(result, key):
    """A pass's `key` time at the reference speed."""
    return CALIB_REF_S * result[key] / statistics.median(result["calibration_s"])


def measure(workload, seed, seconds, trace):
    refs = workloads.load_refs(workload)
    items = workloads.make_items(workload, seed)
    argvs = [item["argv"] for item in items]

    def setup_samples(n):
        return [run_pass([], setup_only=True)[0] for _ in range(n)]

    run_pass([], setup_only=True)  # fills the bytecode cache; not timed
    setups = setup_samples(1 if trace else SETUP_SAMPLES)

    kinds = [False, True] if trace else [False]
    passes = {False: [], True: []}
    failed_items, attempted, durations = 0, 0, []
    start = time.perf_counter()
    while True:
        for kind in kinds:
            result, entries = run_pass(argvs, trace=kind)
            attempted += len(items)
            failed = check_pass(workload, items, result, entries, refs)
            failed_items += len(failed)
            for key, problems in failed.items():
                print(f"FAILED {workload} {key}: {'; '.join(problems)}", file=sys.stderr)
            if result is None:
                break
            passes[kind].append(result)
            durations.append(result["duration_s"])
            if not trace:
                setups += setup_samples(SETUP_SAMPLES)
        else:
            step = statistics.median(durations) * len(kinds)
            if time.perf_counter() - start + step <= seconds:
                continue
        break

    untraced = passes[False]
    if trace:
        traced = passes[True]
        metrics = {name: statistics.median(p["metrics"][name] for p in traced)
                   for name, _ in PER_LAYER[:-1]} if traced else {}
        if traced and untraced:
            metrics["trace.overhead_s"] = (
                statistics.median(scaled(p, "wall_s") for p in traced)
                - statistics.median(scaled(p, "wall_s") for p in untraced))
        units = dict(PER_LAYER)
        unscaled = {}
    else:
        setup_calib = statistics.median(s["calibration_s"][0] for s in setups)
        unscaled = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        metrics = {"setup_s": CALIB_REF_S * unscaled["setup_s"] / setup_calib}
        if untraced:
            for name in ("wall_s", "cpu_s"):
                metrics[name] = statistics.median(scaled(p, name) for p in untraced)
                unscaled[name] = statistics.median(p[name] for p in untraced)
            metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in untraced)
        unscaled["calibration_s"] = statistics.median(
            c for r in setups + untraced for c in r["calibration_s"])
        units = dict(END_TO_END)
    info = {"env": setups[0]["env"], "nproc": len(os.sched_getaffinity(0)),
            "passes": {"untraced": len(untraced), "traced": len(passes[True])},
            "unscaled": unscaled}
    return attempted, failed_items, {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rrcf5", "cli.py")):
        print(f"perfbench: no program at {SRC}/rrcf5; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics, info = measure(args.workload, args.seed,
                                                   args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = info["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={info['passes']['untraced']}+{info['passes']['traced']} traced")
    print(f"# python={env['python']} mpmath={env['mpmath']} "
          f"backend={env['backend']} nproc={info['nproc']}")
    if info["unscaled"]:
        print("# unscaled " + " ".join(f"{k}={v:.6g}" for k, v in info["unscaled"].items()))
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<42} {failed / attempted:>16.6g} ({failed}/{attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
