import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from rrcf5 import cache, cli, curve5, icosa, pipeline, tables
from rrcf5.cli import build_parser, main, parse_tau
from rrcf5.curve5 import CurveError
from rrcf5.exactmath import ExactDomainError
from rrcf5.icosa import IcosaError
from rrcf5.pipeline import run_pipeline


@pytest.fixture
def cachedir(tmp_path, monkeypatch):
    monkeypatch.setenv("RR5_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_parse_tau_forms():
    t = parse_tau("3i", 64)
    assert t.real == 0 and abs(t.imag - 3) < 1e-15
    t = parse_tau("0.5+1.25i", 64)
    assert abs(t.real - 0.5) < 1e-15 and abs(t.imag - 1.25) < 1e-15
    t = parse_tau("(9+sqrt -19)/2", 64)
    assert abs(t.real - 4.5) < 1e-15 and abs(t.imag**2 - 19 / 4) < 1e-12
    t = parse_tau("(-1+2 sqrt -5)/3", 64)
    assert abs(t.real + 1 / 3) < 1e-12
    with pytest.raises(ValueError):
        parse_tau("banana", 64)


def test_pipeline_command_and_cache(cachedir, capsys):
    assert main(["pipeline", "-d", "11", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == list(tables.P_TABLE[11])
    assert os.path.exists(cachedir / "d0011.json")


def test_pipeline_rejects_inadmissible(cachedir, capsys):
    assert main(["pipeline", "-d", "7"]) == 2
    assert main(["pipeline", "-d", "4"]) == 2


def test_eval_r_exit_codes(cachedir, capsys):
    assert main(["eval-r", "--tau=i", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    # r(i) = sqrt(phi sqrt5) - phi = 0.284079...
    assert "0.2840" in out
    assert main(["eval-r", "--tau=-2i"]) == 2
    assert main(["eval-r", "--tau", "nonsense"]) == 2


def test_eval_r_residuals_small(cachedir, capsys):
    assert main(["eval-r", "--tau=i", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["residual_r5_law"]) < 1e-70
    assert float(out["residual_T_law"]) < 1e-70


def test_classpoly_command(cachedir, capsys):
    assert main(["classpoly", "-d", "24", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["H_coeffs_low_first"] == [14670139392, -4834944, 1]
    assert main(["classpoly", "-d", "6"]) == 2


@pytest.mark.parametrize("d", (3, 7))
def test_classpoly_rejects_an_inadmissible_discriminant(cachedir, capsys, d):
    # -3 and -7 are discriminants, but -d is not a square mod 5
    assert main(["classpoly", "-d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "not admissible" in captured.err


@pytest.mark.parametrize("argv", (["classpoly", "-d", "0"], ["pipeline", "-d", "-1"],
                                  ["classpoly", "-d", "-1"], ["pipeline", "-d", "0"]))
def test_d_below_one_exits_2_saying_d_must_be_positive(cachedir, capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: d = {argv[2]}: d must be a positive integer\n"


@pytest.mark.parametrize("digits", ("0", "-3"))
def test_eval_r_rejects_digits_below_one(cachedir, capsys, digits):
    assert main(["eval-r", "--tau=i", "--digits", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --digits must be at least 1\n"
    assert main(["eval-r", "--tau=i", "--digits", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == "(0.3 + 0.0j)"


@pytest.mark.parametrize("argv", (["pipeline", "-d", "24"], ["classpoly", "-d", "24"],
                                  ["verify-tables", "--range", "24..24"]))
def test_max_prec_caps_the_sized_ladder(cachedir, capsys, argv):
    assert main(argv + ["--max-prec", "8"]) == 3
    err = capsys.readouterr().err
    assert "ceiling of 8 bits" in err and "None" not in err
    assert main(argv + ["--prec", "32", "--max-prec", "64"]) == 3
    assert "from 32 bits up to the ceiling of 64 bits" in capsys.readouterr().err


def test_verify_tables_range(cachedir, capsys):
    assert main(["verify-tables", "--range", "11..19", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["d"] for row in out["results"]] == [11, 16, 19]
    assert out["failures"] == []
    assert main(["verify-tables", "--range", "oops"]) == 2


def test_verify_tables_detects_tampering(cachedir, capsys, monkeypatch):
    bad = dict(tables.P_TABLE)
    bad[11] = (2, 1, 1, -1, 1)  # golden data deliberately corrupted
    monkeypatch.setattr(tables, "P_TABLE", bad)
    assert main(["verify-tables", "--range", "11..11", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == [11]


def test_cache_roundtrip_and_atomicity(cachedir):
    res = run_pipeline(11)
    path = cache.save(str(cachedir), res)
    assert path.endswith("d0011.json")
    again = cache.load(str(cachedir), 11)
    assert again == res
    assert cache.roundtrip_ok(res)
    # no stray temp files left behind
    assert all(not name.endswith(".tmp") for name in os.listdir(cachedir))


def test_a_saved_entry_has_the_mode_the_umask_gives(cachedir):
    # as open(path, "w") would make it, not mkstemp's 0600
    res = run_pipeline(11)
    old = os.umask(0o022)
    try:
        path = cache.save(str(cachedir), res)
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644
    assert cache.load(str(cachedir), 11) == res


def test_save_never_sets_the_umask(cachedir, monkeypatch):
    # the umask is process-wide: setting it, even to read it, would give a
    # file another thread makes meanwhile the wrong mode
    def umask(mask):
        raise AssertionError("os.umask called")

    res = run_pipeline(11)
    old = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", umask)
            path = cache.save(str(cachedir), res)
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o640
    assert os.listdir(cachedir) == ["d0011.json"]


def test_a_failed_save_leaves_no_temp_file(cachedir, monkeypatch):
    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        cache.save(str(cachedir), run_pipeline(11))
    assert os.listdir(cachedir) == []


def test_cache_rejects_unknown_schema(cachedir):
    res = run_pipeline(11)
    entry = cache.result_to_entry(res)
    entry["schema_version"] = 99
    with pytest.raises(cache.CacheError):
        cache.entry_to_result(entry)


# a d = 11 entry as written before div_check and heegner_check became
# derived flags; its keys and values must still load and render unchanged
D11_ENTRY = {
    "schema_version": 1, "d": 11, "f": 1, "h": 1, "v": 17, "v_relaxed": False,
    "precision_used": 80,
    "disc": {"value": "605", "factors": [["5", 1], ["11", 2]], "cofactor": "1",
             "exact_power_ok": True, "smooth_ok": True},
    "H": ["32768", "1"], "R": ["48", "4", "1"], "S": ["3", "-1", "1"],
    "Q": ["1", "-4", "46", "4", "1"], "p": ["1", "1", "1", "-1", "1"],
    "q": ["1", "-1", "0", "2", "-4", "-1", "7", "-12", "8", "12", "7", "1", "-4",
          "-2", "0", "1", "1"],
    "F_check": True, "G_check": True, "div_check": True, "cor42_check": True,
    "T_check": True, "heegner_check": True,
}


def test_cache_loads_and_renders_an_entry_with_derived_flags():
    res = cache.entry_to_result(D11_ENTRY)
    assert res == run_pipeline(11)
    assert cache.result_to_entry(res) == D11_ENTRY
    assert cache.roundtrip_ok(run_pipeline(119))


@pytest.mark.parametrize("flag", ("div_check", "heegner_check", "F_check"))
def test_cache_rejects_flags_that_disagree(flag):
    # F_check False leaves heegner_check True, which it no longer implies
    entry = dict(D11_ENTRY, **{flag: False})
    with pytest.raises(cache.CacheError):
        cache.entry_to_result(entry)


def test_cache_missing_returns_none(tmp_path):
    assert cache.load(str(tmp_path), 31) is None


def test_cache_coefficients_are_decimal_strings(cachedir):
    res = run_pipeline(11)
    entry = cache.result_to_entry(res)
    for field in ("H", "R", "S", "Q", "p", "q"):
        assert all(isinstance(s, str) and int(s) is not None
                   for s in entry[field])


@pytest.mark.parametrize("argv", (
    ["pipeline", "-d", "11", "--prec", "0"],
    ["pipeline", "-d", "11", "--prec", "-5"],
    ["pipeline", "-d", "11", "--max-prec", "0"],
    ["classpoly", "-d", "24", "--max-prec", "-1"],
    ["eval-r", "--tau", "i", "--prec", "0"],
    ["verify-tables", "--range", "50..10"],
    ["verify-tables", "--range", "1..5"],
    ["eval-r", "--tau", "(1+sqrt -3)/0"],
))
def test_bad_precision_and_range_exit_2(cachedir, argv):
    # a subprocess with a timeout: --prec 0 once looped forever (0 * 2 = 0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "rrcf5.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", (["pipeline"], ["pipeline", "-d", "0"], ["classpoly"]))
def test_a_missing_or_inadmissible_d_is_one_error_line(cachedir, capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


EXACT_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "exact_identities.json"


@pytest.mark.parametrize("command", ("identities", "g60", "curve --symbolic", "examples"))
def test_exact_commands_match_the_benchmark_references(capsys, command):
    # every key and verdict of the report, and the exit code, as recorded
    ref = json.loads(EXACT_REFS.read_text())[command]
    assert main([*command.split(), "--json"]) == ref["rc"]
    assert json.loads(capsys.readouterr().out) == ref["report"]


def test_parser_is_built_once_and_usage_errors_keep_exit_2(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--prec", "many"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: rrcf5" in capsys.readouterr().out


@pytest.mark.parametrize("argv", (
    ["pipeline", "-d", "11", "--digits", "5"],
    ["verify-tables", "-d", "11"],
    ["identities", "--cache", "somewhere"],
    ["g60", "--prec", "64"],
    ["curve", "--range", "11..19"],
    ["examples", "--digits", "3"],
    ["classpoly", "-d", "11", "--digits", "0", "--range", "5..1", "--json"],
    ["eval-r", "--tau", "i", "--max-prec", "64"],
    ["classpoly", "-d", "11", "--digits", "0"],
))
def test_an_option_the_handler_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the subcommand's own usage line, not the top-level one
    assert captured.err.startswith(f"usage: rrcf5 {argv[0]} [-h]")
    assert f"rrcf5 {argv[0]}: error: unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv", (
    ["verify-tables", "--range", "11..11", "--json", "--cache", "somewhere"],
    ["pipeline", "-d", "11", "--json", "--cache", "somewhere"],
    ["eval-r", "--tau=0.3+0.1i", "--json"],
    ["identities", "--json"],
    ["g60", "--json"],
    ["curve", "--symbolic", "--json"],
    ["examples", "--json"],
))
def test_the_benchmark_options_are_accepted(argv):
    args = build_parser().parse_args(argv)
    assert args.json and args.command == argv[0]


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the run started before the input was refused")


@pytest.mark.parametrize("argv", (["pipeline", "-d", "19"],
                                  ["verify-tables", "--range", "11..11"]))
@pytest.mark.parametrize("via_env", (False, True))
def test_an_unwritable_cache_is_refused_before_the_run(tmp_path, monkeypatch, capsys,
                                                       argv, via_env):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run_pipeline", _refuse_to_run)
    if via_env:
        monkeypatch.setenv("RR5_CACHE_DIR", str(blocker))
    else:
        monkeypatch.delenv("RR5_CACHE_DIR", raising=False)
        argv = argv + ["--cache", str(blocker)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cache directory {str(blocker)!r}: ")


@pytest.mark.parametrize("d", (7, 99_999_992))
def test_pipeline_and_classpoly_refuse_an_inadmissible_d_alike_and_first(
        cachedir, monkeypatch, capsys, d):
    # the refusal comes before the class group is enumerated
    monkeypatch.setattr(cli, "reduced_forms", _refuse_to_run)
    monkeypatch.setattr(pipeline, "reduced_forms", _refuse_to_run)
    line = f"error: d = {d} is not admissible (need d = +-1 mod 5)\n"
    for command in ("pipeline", "classpoly"):
        assert main([command, "-d", str(d)]) == 2
        assert capsys.readouterr() == ("", line)


def test_verify_tables_names_the_exhausted_d_once(cachedir, capsys):
    assert main(["verify-tables", "--range", "24..24", "--max-prec", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted: ")
    assert captured.err.count("\n") == 1 and captured.err.count("d=24") == 1


@pytest.mark.parametrize("d", (4, 6, 0, -3))
def test_pipeline_refuses_a_bad_d_before_it_makes_the_cache_directory(
        tmp_path, monkeypatch, capsys, d):
    # d = 4, a non-discriminant and d <= 0 are refused with run_pipeline's
    # own texts, before ./.rr5cache is made
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RR5_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "run_pipeline", _refuse_to_run)
    assert main(["pipeline", "-d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    with pytest.raises((pipeline.PipelineIntegrityError, ValueError)) as refused:
        run_pipeline(d)
    assert captured.err == f"error: {refused.value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", (["pipeline", "-d", "24"],
                                  ["verify-tables", "--range", "24..24"]))
def test_an_exhausted_run_leaves_no_cache_directory(tmp_path, monkeypatch, argv):
    # the directories made for the run go again when it fails before saving;
    # a directory that was there stays
    monkeypatch.delenv("RR5_CACHE_DIR", raising=False)
    argv = argv + ["--max-prec", "8"]
    assert main(argv + ["--cache", str(tmp_path / "a" / "b")]) == 3
    assert list(tmp_path.iterdir()) == []
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "kept").mkdir()
    assert main(argv + ["--cache", str(tmp_path / "kept")]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def test_a_cache_path_beneath_a_file_is_refused_before_the_run(tmp_path, monkeypatch,
                                                               capsys):
    # as for --cache /dev/null/x: exit 2 with the OS's reason, before the run
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.delenv("RR5_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "run_pipeline", _refuse_to_run)
    assert main(["pipeline", "-d", "19", "--cache", str(blocker / "x")]) == 2
    assert capsys.readouterr() == (
        "", f"error: cache directory {str(blocker / 'x')!r}: Not a directory\n")


@pytest.mark.parametrize("argv", (["pipeline", "-d", "11"],
                                  ["verify-tables", "--range", "11..11"]))
def test_a_failed_certified_check_exits_1_not_as_bad_input(cachedir, monkeypatch,
                                                            capsys, argv):
    # exit 2 is bad input; a certified check that fails on valid input is a
    # verification failure, with its one error line
    monkeypatch.setattr(pipeline, "_antipalindromic", lambda p: False)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: anti-palindromic symmetry violated\n")


def test_a_disc_past_4300_digits_is_written_and_read_back(cachedir, monkeypatch, capsys):
    # disc(p_d) passes Python's 4,300-digit limit on int <-> str from
    # d = 1151 on (11,274 digits at d = 1991); the cache writes and reads it
    # back whole, and leaves the limit as it found it
    res = run_pipeline(11)
    disc = 3 ** 10_000 * res.disc_report.disc
    big = replace(res, disc_report=replace(res.disc_report, disc=disc))
    monkeypatch.setattr(cli, "run_pipeline", lambda d, policy: big)
    limit = sys.get_int_max_str_digits()
    assert main(["pipeline", "-d", "11", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == list(tables.P_TABLE[11])
    assert cache.load(str(cachedir), 11) == big
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("json_flag", (["--json"], []), ids=("json", "text"))
def test_classpoly_prints_a_coefficient_past_4300_digits(monkeypatch, capsys, json_flag):
    # a coefficient of H_{-d} can pass Python's 4,300-digit limit on
    # int <-> str; classpoly prints it whole under the lift the cache uses,
    # and leaves the caller's limit as it found it
    big = 7 ** 5_917  # 5,001 digits
    monkeypatch.setattr(cli, "class_poly", lambda cd, policy: (big, -big, 1))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["classpoly", "-d", "24", *json_flag]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    out = capsys.readouterr().out
    if json_flag:
        assert cache.any_digits(json.loads)(out)["H_coeffs_low_first"] == [big, -big, 1]
    else:
        assert f"H_coeffs_low_first: [{cache.any_digits(str)(big)}, -" in out


# each error of a failed exact computation, raised where its command runs it
@pytest.mark.parametrize("argv, owner, name, error", (
    (["g60"], icosa, "generate_g60", IcosaError),
    (["curve"], curve5, "master_torsion_identity", CurveError),
    (["identities"], cli, "verify_T_invariance", ExactDomainError),
), ids=("IcosaError", "CurveError", "ExactDomainError"))
def test_an_exact_failure_is_one_error_line_and_exit_1(monkeypatch, capsys, argv,
                                                       owner, name, error):
    monkeypatch.setattr(owner, name, mock.Mock(side_effect=error("the exact step failed")))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: the exact step failed\n")
