"""The four workloads: their inputs, drawn from a seed, and the checks that
every output must pass.

An item is one `rrcf5.cli.main` call.  `make_items` returns, for each item,
its argv (with CACHE standing for the pass's fresh cache directory) and the
key of its reference output in `refs/<workload>.json`.
"""

from __future__ import annotations

import json
import os
import random

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
CACHE = "{cache}"

WORKLOADS = ("tables", "census_large_h", "exact_identities", "eval_r_cusp")

# Admissible d beyond the tables, 145 <= d <= 320, h <= 13.  The seed picks
# one d from each stratum; within a stratum the members cost about the same
# (2.3-2.9 s and 1.9-2.4 s per pipeline run), so the pass cost does not
# depend on the seed and wall time compares across seeds.  The h in 9..13
# stratum is d = 231 (h = 12, about 12 s) alone: 271, 296 and 319 cost
# 15-20% less and 279 about 10% more.  231 reports exact_power_ok=False
# (the prime 7 appears to the power 56, not 2h); the reference records it.
CENSUS_STRATA = (
    ("h5to8", (151, 216, 244)),
    ("h9to13", (231,)),
    ("v_relaxed", (176, 204, 316)),
)

EXACT_COMMANDS = (
    ("identities",),
    ("g60",),
    ("curve", "--symbolic"),
    ("examples",),
)

# eval-r is evaluated at two points x, x' on each line Im tau = y with
# x^2 + x'^2 = 1/4.  The cost of r(tau), r(-1/tau) and r(-1/(5 tau)) grows
# like (1 + 6|tau|^2) / y, so each pair costs the same.  Re tau = 0 and
# +-1/2 are left out: there q is real and the series about 3x cheaper.
EVAL_R_IMAG = ("1", "0.1", "0.01", "0.003", "0.001")
EVAL_R_PAIRS = (("0.3", "0.4"), ("0.14", "0.48"), ("0.176", "0.468"))
EVAL_R_PREC = 512  # eval-r's default working precision
EVAL_R_RESIDUAL_MAX = 2.0 ** -(EVAL_R_PREC // 2)


def _tau(x, y):
    return f"{x}+{y}i"


def eval_r_grid():
    """Every tau string eval_r_cusp can draw."""
    xs = [s + x for pair in EVAL_R_PAIRS for x in pair for s in ("", "-")]
    return [_tau(x, y) for y in EVAL_R_IMAG for x in xs]


def census_population():
    return [d for _, ds in CENSUS_STRATA for d in ds]


def load_refs(workload):
    with open(os.path.join(REFS_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def make_items(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        items = [table_item(d) for d in sorted(map(int, load_refs("tables")))]
    elif workload == "census_large_h":
        items = [census_item(rng.choice(ds)) for _, ds in CENSUS_STRATA]
    elif workload == "exact_identities":
        items = [exact_item(cmd) for cmd in EXACT_COMMANDS]
    elif workload == "eval_r_cusp":
        items = []
        for y in EVAL_R_IMAG:
            for x in rng.choice(EVAL_R_PAIRS):
                items.append(eval_r_item(_tau(rng.choice(("", "-")) + x, y)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def table_item(d):
    return {"key": str(d), "d": d,
            "argv": ["verify-tables", "--range", f"{d}..{d}", "--json",
                     "--cache", CACHE]}


def census_item(d):
    return {"key": str(d), "d": d,
            "argv": ["pipeline", "-d", str(d), "--json", "--cache", CACHE]}


def exact_item(cmd):
    return {"key": " ".join(cmd), "argv": [*cmd, "--json"]}


def eval_r_item(tau):
    return {"key": tau, "argv": ["eval-r", f"--tau={tau}", "--json"]}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

# cache-entry fields compared bit-exactly; precision_used is left out because
# precision sizing may legitimately change it
ENTRY_FIELDS = ("H", "R", "S", "Q", "p", "q", "disc")
# pipeline --json fields compared bit-exactly
CENSUS_REPORT_FIELDS = ("d", "f", "h", "v", "v_relaxed", "p", "disc_factors")


def check_item(workload, item, out, entry, ref):
    """Problems with one item's output; an empty list means it passed.

    out is {"rc", "stdout", "error"} from the worker; entry is the cache
    entry the item wrote (tables and census only); ref is its reference.
    """
    if out.get("error"):
        return [f"raised {out['error']}"]
    problems = []
    if out["rc"] != ref["rc"]:
        problems.append(f"exit code {out['rc']}, reference {ref['rc']}")
    try:
        report = json.loads(out["stdout"])
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    if workload == "tables":
        problems += _check_tables(item["d"], report)
    elif workload == "census_large_h":
        problems += _check_census(report, ref["report"])
    elif workload == "exact_identities":
        problems += _differing(report, ref["report"], ref["report"])
    else:
        problems += _check_eval_r(report, ref["report"])
    if "entry" in ref:
        if entry is None:
            problems.append("no cache entry written")
        else:
            problems += [f"cache {p}" for p in
                         _differing(entry, ref["entry"], ENTRY_FIELDS)]
    return problems


def _differing(got, want, fields):
    return [f"{k} differs from the reference" for k in fields
            if got.get(k) != want.get(k)]


def _check_tables(d, report):
    rows = [r for r in report.get("results", []) if r.get("d") == d]
    if len(rows) != 1:
        return [f"no result row for d={d}"]
    bad = [k for k in ("p_match", "disc_match", "flags_ok") if rows[0].get(k) is not True]
    if report.get("failures"):
        bad.append("failures")
    return [f"{k} is not true" for k in bad]


def _check_census(report, ref):
    problems = _differing(report, ref, CENSUS_REPORT_FIELDS)
    # every reference flag must be present and equal; the disc-report flags
    # are compared with the reference, not required to be true
    flags, ref_flags = report.get("flags", {}), ref["flags"]
    problems += [f"flag {k} differs from the reference" for k in ref_flags
                 if flags.get(k) != ref_flags[k]]
    return problems


def _check_eval_r(report, ref):
    problems = _differing(report, ref, ("tau", "r"))
    for k in ("residual_r5_law", "residual_T_law"):
        try:
            value = float(report[k])
        except (KeyError, TypeError, ValueError):
            problems.append(f"{k} missing or not a number")
            continue
        if not value <= EVAL_R_RESIDUAL_MAX:
            problems.append(f"{k} = {report[k]} exceeds 2^-{EVAL_R_PREC // 2}")
    return problems
