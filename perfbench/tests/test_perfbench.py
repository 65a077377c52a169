"""Self-tests of the benchmark: its metric lists, seeding, checker (with a
negative control) and the bindings of the outside trace.

    python3 -m pytest perfbench/tests -q

The trace tests run the real program in worker processes; the whole file
takes about 30 s.
"""

import copy
import importlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _traced_metrics(workload, keep=lambda item: True, seed=0):
    items = [i for i in wl.make_items(workload, seed) if keep(i)]
    result, entries = run.run_pass([i["argv"] for i in items], trace=True)
    assert run.check_pass(workload, items, result, entries, wl.load_refs(workload)) == {}
    return result["metrics"]


def _failed_frac(workload, items, outputs, entries):
    result = {"outputs": outputs}
    failed = run.check_pass(workload, items, result, entries, wl.load_refs(workload))
    return len(failed) / len(items)


def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)


def test_seed_fixes_the_inputs_and_every_input_has_a_reference():
    for workload in wl.WORKLOADS:
        first = wl.make_items(workload, 7)
        assert first == wl.make_items(workload, 7)
        assert all(item["key"] in wl.load_refs(workload) for item in first)
    keys = {tuple(i["key"] for i in wl.make_items("eval_r_cusp", s)) for s in range(5)}
    assert len(keys) > 1
    assert len(wl.make_items("tables", 0)) == 28
    assert set(wl.load_refs("census_large_h")) == {str(d) for d in wl.census_population()}
    assert set(wl.load_refs("eval_r_cusp")) == set(wl.eval_r_grid())


def _census_outputs(d):
    ref = wl.load_refs("census_large_h")[str(d)]
    report = dict(ref["report"], precision_used=0, cache_file="x")
    out = {"rc": ref["rc"], "stdout": json.dumps(report), "error": None}
    return [wl.census_item(d)], [out], {d: copy.deepcopy(ref["entry"])}


def test_negative_control_perturbed_p_coefficient_fails():
    items, outputs, entries = _census_outputs(231)
    assert _failed_frac("census_large_h", items, outputs, entries) == 0
    entries[231]["p"][1] = str(int(entries[231]["p"][1]) + 1)
    assert _failed_frac("census_large_h", items, outputs, entries) > 0

    items, outputs, entries = _census_outputs(231)
    report = json.loads(outputs[0]["stdout"])
    report["p"][1] += 1
    outputs[0]["stdout"] = json.dumps(report)
    assert _failed_frac("census_large_h", items, outputs, entries) > 0


def test_negative_control_missing_census_flag_fails():
    items, outputs, entries = _census_outputs(231)
    report = json.loads(outputs[0]["stdout"])
    del report["flags"]["disc_exact_power"]
    outputs[0]["stdout"] = json.dumps(report)
    assert _failed_frac("census_large_h", items, outputs, entries) > 0


def test_trace_refuses_a_missing_function(monkeypatch):
    import tracer

    monkeypatch.syspath_prepend(run.SRC)
    mods = [importlib.import_module(f"rrcf5.{m}") for m in tracer.MODULES]
    monkeypatch.delattr(mods[0], "eta")  # hpnum.eta, the first function wrapped
    with pytest.raises(LookupError, match="hpnum.eta"):
        tracer.Tracer().install()


def test_negative_control_perturbed_eval_r_residual_fails():
    tau = wl.eval_r_grid()[-1]
    ref = wl.load_refs("eval_r_cusp")[tau]
    report = dict(ref["report"], residual_r5_law="3.1e-90", residual_T_law="0.0")
    items = [wl.eval_r_item(tau)]
    outputs = [{"rc": 0, "stdout": json.dumps(report), "error": None}]
    assert _failed_frac("eval_r_cusp", items, outputs, {}) == 0
    report["residual_T_law"] = "2.0e-70"  # above 2^-256 ~ 8.6e-78
    outputs[0]["stdout"] = json.dumps(report)
    assert _failed_frac("eval_r_cusp", items, outputs, {}) > 0


def test_missing_program_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.ROOT, "no-such-dir"))
    assert run.main(["--workload", "tables", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_trace_binds_eta_on_tables():
    metrics = _traced_metrics("tables")
    assert metrics["hpnum.eta.calls"] == 624  # 6 * (sum of h = 104)
    assert metrics["cache.save.calls"] == 28
    assert metrics["pipeline.ladder.useful_ratio"] == 1.0


def test_trace_binds_rr_r_on_eval_r_and_counts_repeat():
    def cheap(item):  # the lines Im tau >= 0.01 cost a fraction of a second
        return float(item["key"].split("+")[1][:-1]) >= 0.01

    first = _traced_metrics("eval_r_cusp", cheap)
    assert first["hpnum.rr_r.calls"] > 0
    second = _traced_metrics("eval_r_cusp", cheap)
    assert {k: v for k, v in first.items() if not k.endswith("_s")} == \
        {k: v for k, v in second.items() if not k.endswith("_s")}


def test_trace_binds_cyclo_mul_on_exact_identities():
    metrics = _traced_metrics("exact_identities",
                              lambda item: item["key"] in ("identities", "examples"))
    assert metrics["exactmath.CycloElem.mul.calls"] > 0
    assert metrics["pipeline.verify_T_invariance.self_s"] > 0


def test_untraced_pass_samples_the_calibration_loops_outside_its_times():
    items = [i for i in wl.make_items("tables", 0) if i["d"] in (11, 19, 24, 31, 36, 39)]
    result, entries = run.run_pass([i["argv"] for i in items])
    assert run.check_pass("tables", items, result, entries, wl.load_refs("tables")) == {}
    calibs = result["calibration_s"]
    assert len(calibs) >= 1 + int(result["wall_s"])  # one after set-up, then one a second
    items_s = sum(out["wall_s"] for out in result["outputs"])
    assert result["wall_s"] < items_s - 0.5 * sum(calibs[1:])

