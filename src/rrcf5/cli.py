"""Command-line front end.

Subcommands: pipeline, verify-tables, identities, g60, curve, examples,
eval-r, classpoly.  Exit codes: 0 success, 1 verification mismatch, 2 bad
input, 3 precision exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from . import cache, tables
from .classdata import ClassDataError, class_poly, is_admissible, reduced_forms
from .exactmath import Poly
from .hpnum import PrecisionError, PrecisionPolicy, r_transformation_laws


def _poly_list(p: Poly):
    return [int(c) for c in p.coeffs]


def _print_report(args, report: dict, title: str):
    if args.json:
        print(json.dumps(report, sort_keys=True, default=str))
        return
    print(title)
    for key in report:
        print(f"  {key}: {report[key]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    from .pipeline import PipelineIntegrityError, run_pipeline

    d = args.d
    if d is None:
        print("error: pipeline requires -d", file=sys.stderr)
        return 2
    if d <= 0:
        print(f"error: d = {d}: d must be a positive integer", file=sys.stderr)
        return 2
    if not is_admissible(d):
        print(f"error: d={d} is inadmissible: -d must be a nonzero square mod 5",
              file=sys.stderr)
        return 2
    try:
        res = run_pipeline(d, args.policy)
    except (ClassDataError, PipelineIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    cdir = cache.cache_dir_from(args.cache)
    path = cache.save(cdir, res)
    report = {
        "d": res.d, "f": res.f, "h": res.h, "v": res.v,
        "v_relaxed": res.v_relaxed,
        "precision_used": res.precision_used,
        "p": _poly_list(res.p),
        "disc_factors": list(map(list, res.disc_report.factors)),
        "flags": res.flags,
        "cache_file": path,
    }
    _print_report(args, report, f"pipeline d={d}")
    return 0 if res.all_ok else 1


def _parse_range(text):
    if not text:
        return None
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"bad range {text!r}; expected a..b")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError(f"bad range {text!r}; a must not exceed b")
    return a, b


def cmd_verify_tables(args) -> int:
    from .pipeline import run_pipeline

    try:
        bounds = _parse_range(args.range)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ds = sorted(tables.P_TABLE)
    if bounds:
        ds = [d for d in ds if bounds[0] <= d <= bounds[1]]
        if not ds:
            print(f"error: no tabulated d in range {args.range!r}", file=sys.stderr)
            return 2
    cdir = cache.cache_dir_from(args.cache)
    failures = []
    lines = []
    for d in ds:
        try:
            res = run_pipeline(d, args.policy)
        except PrecisionError as exc:
            print(f"precision exhausted at d={d}: {exc}", file=sys.stderr)
            return 3
        cache.save(cdir, res)
        p_ok = res.p == Poly(tables.P_TABLE[d])
        disc_ok = dict(res.disc_report.factors) == tables.DISC_TABLE[d] \
            and res.disc_report.cofactor == 1
        ok = p_ok and disc_ok and res.all_ok
        lines.append({"d": d, "p_match": p_ok, "disc_match": disc_ok,
                      "flags_ok": res.all_ok})
        if not ok:
            failures.append(d)
    if args.json:
        print(json.dumps({"results": lines, "failures": failures},
                         sort_keys=True))
    else:
        for row in lines:
            status = "ok" if (row["p_match"] and row["disc_match"]
                              and row["flags_ok"]) else "MISMATCH"
            print(f"d={row['d']:<4} {status}")
    return 1 if failures else 0


def cmd_identities(args) -> int:
    from . import curve5
    from .pipeline import verify_cor42, verify_T_invariance

    report = {}
    report["j_forms_match"] = curve5.verify_j_forms()
    report.update(curve5.tau_and_isogeny_checks())
    report["delta_identity"] = curve5.delta_identity_symbolic()
    report["g2g3_delta_rewrite"] = curve5.g2g3_delta_rewrite()
    report["division_poly_factors"] = curve5.division_poly_factors_symbolic()
    closed_ok, conj_ok, vanishes = curve5.det_D_identity()
    report["det_closed_form"] = closed_ok
    report["det_conjugate_product"] = conj_ok
    report["det_vanishes_at_unit"] = vanishes
    report["psi5_master_identity"] = curve5.master_torsion_identity()[0]
    for d in sorted(tables.P_TABLE):
        report[f"T_invariance_d{d}"] = verify_T_invariance(Poly(tables.P_TABLE[d]),
                                                           tables.class_number(d))
    for d in sorted(tables.R_TABLE):
        report[f"cor42_d{d}"] = verify_cor42(Poly(tables.R_TABLE[d]), tables.class_number(d))
    _print_report(args, report, "exact identities")
    return 0 if all(report.values()) else 1


def cmd_g60(args) -> int:
    from . import icosa
    from .pipeline import build_F_G

    group = icosa.generate_g60()
    report = {"order": len(group)}
    report.update({f"rel_{k}": v for k, v in
                   icosa.group_structure_report(group).items()})
    report["f5_invariance"] = icosa.verify_f5_invariance()
    for d in (11, 16, 19):
        Gx5 = build_F_G(Poly(tables.H_TABLE[d]), 1)
        orbit_size, stab = icosa.orbit_and_stabilizer(
            Poly(tables.P_TABLE[d]), group, Gx5)
        report[f"orbit_size_d{d}"] = orbit_size
        report[f"stabilizer_ok_d{d}"] = stab == icosa.expected_stabilizer()
    _print_report(args, report, "G60 structure")
    ok = (report["order"] == 60
          and all(v is True for k, v in report.items() if k.startswith("rel_"))
          and report["f5_invariance"]
          and all(report[f"orbit_size_d{d}"] == 15
                  and report[f"stabilizer_ok_d{d}"] for d in (11, 16, 19)))
    return 0 if ok else 1


def cmd_curve(args) -> int:
    from . import curve5

    report = {}
    if args.symbolic:
        for t, ok in enumerate(curve5.master_torsion_identity()):
            report[f"psi5_master_twist{t}"] = ok
        report["psi5_negative_control"] = not curve5.master_torsion_identity(
            perturb_A1=1)[0]
    else:
        report["psi5_master"] = curve5.master_torsion_identity()[0]
    closed_ok, conj_ok, vanishes = curve5.det_D_identity()
    report["det_closed_form"] = closed_ok and conj_ok and vanishes
    report["group_law_5P"] = curve5.five_torsion_by_doubling(Fraction(1, 2))
    for d in (11, 16, 19, 24):
        report[f"C5_solution_d{d}"] = curve5.verify_C5_solution(d, prec=384).all_ok
    taus = [mpc(0.21, 1.13), mpc(-0.37, 0.91)]
    report["transformation_laws"] = curve5.verify_duke_identities(taus, prec=192)
    _print_report(args, report, "curve checks")
    return 0 if all(report.values()) else 1


def cmd_examples(args) -> int:
    from . import icosa

    report = dict(icosa.verify_worked_examples())
    report.update({f"d4_{k}": v for k, v in icosa.verify_d4_corpus().items()})
    _print_report(args, report, "worked examples and the d=4 corpus")
    return 0 if all(report.values()) else 1


def cmd_classpoly(args) -> int:
    if args.d is None:
        print("error: classpoly requires -d", file=sys.stderr)
        return 2
    try:
        cd = reduced_forms(args.d)
        coeffs = class_poly(cd, args.policy)
    except ClassDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    report = {"d": args.d, "h": cd.h, "d_K": cd.d_K, "f": cd.f,
              "H_coeffs_low_first": list(coeffs)}
    _print_report(args, report, f"class polynomial for -d = -{args.d}")
    return 0


_TAU_SURD = re.compile(
    r"\(\s*(-?\d+)\s*(?:([+-])\s*(\d+)?\s*)?sqrt\s*(-\d+)\s*\)\s*/\s*(\d+)")
_TAU_AB = re.compile(r"(-?\d+(?:\.\d+)?)\s*([+-])\s*(\d+(?:\.\d+)?)?\s*i")
_TAU_NI = re.compile(r"(-?\d+(?:\.\d+)?)?\s*i")


def parse_tau(text: str, prec: int):
    """Accepts `a+bi`, bare `ni`, and `(p+q sqrt -d)/r` forms."""
    text = text.strip()
    with mp.workprec(prec + 32):
        m = _TAU_SURD.fullmatch(text)
        if m:
            p_, sign, q_, minus_d, r_ = m.groups()
            if int(r_) == 0:
                raise ValueError(f"cannot parse tau {text!r}: the denominator r is 0")
            q = int(q_) if q_ else 1
            if sign == "-":
                q = -q
            surd = mpmath.sqrt(mpc(int(minus_d)))
            return (mpf(int(p_)) + q * surd) / int(r_)
        m = _TAU_AB.fullmatch(text)
        if m:
            a, sign, b = m.groups()
            im = mpf(b) if b else mpf(1)
            if sign == "-":
                im = -im
            return mpc(mpf(a), im)
        m = _TAU_NI.fullmatch(text)
        if m:
            return mpc(0, mpf(m.group(1)) if m.group(1) else mpf(1))
    raise ValueError(f"cannot parse tau {text!r}; use a+bi, ni, or "
                     "(p+q sqrt -d)/r")


def cmd_eval_r(args) -> int:
    if args.digits is not None and args.digits < 1:
        print("error: --digits must be at least 1", file=sys.stderr)
        return 2
    prec = args.policy.initial_bits or 512
    try:
        tau = parse_tau(args.tau, prec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not tau.imag > 0:
        print("error: Im(tau) must be positive", file=sys.stderr)
        return 2
    digits = args.digits or 50
    with mp.workprec(prec + 64):
        r, ((lhs5, rhs5), (lhsT, rhsT)) = r_transformation_laws(tau, prec)
        report = {
            "tau": mpmath.nstr(tau, digits),
            "r": mpmath.nstr(r, digits),
            "residual_r5_law": mpmath.nstr(abs(lhs5 - rhs5), 3),
            "residual_T_law": mpmath.nstr(abs(lhsT - rhsT), 3),
        }
    _print_report(args, report, "r(tau)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# every option a subcommand may take, with its argparse settings
_OPTIONS = {
    "-d": dict(type=int, default=None,
               help="positive integer with -d a quadratic discriminant"),
    "--prec": dict(type=int, default=None, help="working bits"),
    "--max-prec": dict(type=int, default=None,
                       help="precision-ladder ceiling in bits"),
    "--digits": dict(type=int, default=None, help="decimal digits to print"),
    "--cache": dict(type=str, default=None,
                    help="cache directory (RR5_CACHE_DIR overrides)"),
    "--range": dict(type=str, default=None, help="discriminant range a..b"),
    "--tau": dict(type=str, required=True,
                  help="tau as `a+bi`, `ni`, or `(p+q sqrt -d)/r`"),
    "--symbolic": dict(action="store_true",
                       help="run the full symbolic 5-torsion identity suite"),
}

# each subcommand with its handler and the options that handler reads
# (besides --json, which every subcommand takes)
_COMMANDS = (
    ("pipeline", cmd_pipeline, ("-d", "--prec", "--max-prec", "--cache")),
    ("verify-tables", cmd_verify_tables, ("--prec", "--max-prec", "--cache", "--range")),
    ("identities", cmd_identities, ()),
    ("g60", cmd_g60, ()),
    ("curve", cmd_curve, ("--symbolic",)),
    ("examples", cmd_examples, ()),
    ("classpoly", cmd_classpoly, ("-d", "--prec", "--max-prec")),
    ("eval-r", cmd_eval_r, ("--tau", "--prec", "--digits")),
)


class _SubcommandParser(argparse.ArgumentParser):
    """Rejects an unknown argument with the subcommand's own usage line;
    argparse would pass it up to the top-level parser, whose usage names
    every subcommand."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rrcf5",
        description="Exact and high-precision verification of singular "
                    "values of the Rogers-Ramanujan continued fraction.")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_SubcommandParser)
    for name, handler, options in _COMMANDS:
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        p.set_defaults(handler=handler)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)
    if "prec" in given:
        # --prec sets the first precision step (else j in floats sizes it),
        # --max-prec caps the ladder of the commands that climb one
        max_prec = given.get("max_prec")
        try:
            args.policy = PrecisionPolicy(
                args.prec, (1 << 20) if max_prec is None else max_prec)
        except ValueError:
            names = "--prec and --max-prec" if "max_prec" in given else "--prec"
            print(f"error: {names} must be at least 1 bit", file=sys.stderr)
            return 2
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
