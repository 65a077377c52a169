"""Regenerates perfbench/refs/*.json from the program in ./src.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every input a workload can draw (all 28 tabulated d, the whole census
population, the four exact commands, every eval-r grid point) and stores
what the checks compare: exit codes, the pipeline reports minus the cache
path and precision_used, the cache-entry fields of workloads.ENTRY_FIELDS,
and r(tau) at the printed digits.  Each output must pass the checks before
anything is written.
"""

import json
import os
import sys

import run
import workloads as wl

sys.path.insert(0, run.SRC)


def reference_items(workload):
    if workload == "tables":
        from rrcf5.tables import P_TABLE

        return [wl.table_item(d) for d in sorted(P_TABLE)]
    if workload == "census_large_h":
        return [wl.census_item(d) for d in wl.census_population()]
    if workload == "exact_identities":
        return [wl.exact_item(cmd) for cmd in wl.EXACT_COMMANDS]
    return [wl.eval_r_item(tau) for tau in wl.eval_r_grid()]


def reference(workload, out, entry):
    ref = {"rc": out["rc"]}
    report = json.loads(out["stdout"])
    if workload == "census_large_h":
        ref["report"] = {k: v for k, v in report.items()
                         if k not in ("cache_file", "precision_used")}
    elif workload == "exact_identities":
        ref["report"] = report
    elif workload == "eval_r_cusp":
        ref["report"] = {k: report[k] for k in ("tau", "r")}
    if entry is not None:
        ref["entry"] = {k: entry[k] for k in wl.ENTRY_FIELDS}
    return ref


def main(names):
    for workload in names or wl.WORKLOADS:
        items = reference_items(workload)
        result, entries = run.run_pass([item["argv"] for item in items], timeout=None)
        refs = {}
        for item, out in zip(items, result["outputs"]):
            if out["error"]:
                sys.exit(f"{workload} {item['key']}: {out['error']}")
            refs[item["key"]] = reference(workload, out, entries.get(item.get("d")))
        failed = run.check_pass(workload, items, result, entries, refs)
        if failed:
            sys.exit(f"{workload}: outputs fail their own checks: {failed}")
        path = os.path.join(wl.REFS_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(refs)} references, {result['wall_s']:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
