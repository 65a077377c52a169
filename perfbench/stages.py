"""Prints the traced stage split of every workload as a markdown table.

    python3 perfbench/stages.py

One traced pass per workload at seed 0.  Each `.self_s` cell also gives
its share of the traced pass's wall time; the self times of the wrapped
functions partition the time spent inside `cli.main`.  The inputs the seed
picks are listed first.
"""

import sys

import run
import tracer
import workloads as wl

SEED = 0


def main():
    results = {}
    for workload in wl.WORKLOADS:
        items = wl.make_items(workload, SEED)
        result, entries = run.run_pass([i["argv"] for i in items], trace=True)
        failed = run.check_pass(workload, items, result, entries, wl.load_refs(workload))
        if failed:
            sys.exit(f"{workload}: {failed}")
        results[workload] = result
        keys = [i["key"] for i in items]
        print(f"- `{workload}` (seed {SEED}): "
              + (f"{len(keys)} d in seeded order" if workload == "tables" else ", ".join(keys)))
    print()
    print("| metric | " + " | ".join(wl.WORKLOADS) + " |")
    print("|---|" + "---:|" * len(wl.WORKLOADS))
    for name, unit, _ in tracer.METRICS:
        cells = []
        for workload in wl.WORKLOADS:
            value = results[workload]["metrics"][name]
            if unit == "s":
                share = 100 * value / results[workload]["wall_s"]
                cells.append(f"{value:.3f} ({share:.1f}%)")
            elif unit == "ratio":
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        print(f"| `{name}` ({unit}) | " + " | ".join(cells) + " |")
    print("| traced `wall_s` (s) | "
          + " | ".join(f"{results[w]['wall_s']:.2f}" for w in wl.WORKLOADS) + " |")


if __name__ == "__main__":
    main()
