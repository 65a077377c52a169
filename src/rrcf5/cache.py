"""Persistent per-discriminant cache of pipeline results.

One JSON document per discriminant, `d<dddd>.json`, schema version 1.  All
polynomial coefficients are stored as exact decimal strings, lowest degree
first, so entries are diff-friendly and round-trip losslessly.  Writes are
atomic (write to a temp file in the same directory, then rename), and an
entry gets the mode open(path, "w") would give it: 0o666 less the umask.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager

from .exactmath import Poly
from .pipeline import DiscReport, PipelineResult

SCHEMA_VERSION = 1

_POLY_FIELDS = ("H", "R", "S", "Q", "p", "q")
_FLAG_FIELDS = ("F_check", "G_check", "div_check", "cor42_check", "T_check",
                "heegner_check")
# div_check and heegner_check follow from these (PipelineResult.flags)
_STORED_FLAGS = ("F_check", "G_check", "cor42_check", "T_check")


class CacheError(ValueError):
    pass


@contextmanager
def cache_dir_from(flag_value: str | None):
    """The cache directory, for one with block: RR5_CACHE_DIR wins over the
    --cache flag; default is ./.rr5cache.  It is made if missing, and the
    directories made here are removed again if the block raises before
    anything is saved in them.  Raises CacheError naming the path when the
    directory cannot be made."""
    path = (os.environ.get("RR5_CACHE_DIR") or flag_value
            or os.path.join(os.getcwd(), ".rr5cache"))
    made = []  # deepest first
    parent = os.path.abspath(path)
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CacheError(f"cache directory {path!r}: {exc.strerror}") from exc
    try:
        yield path
    except BaseException:
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:  # an entry was saved in it
                break
        raise


def entry_path(cache_dir: str, d: int) -> str:
    return os.path.join(cache_dir, f"d{d:04d}.json")


def _poly_out(p: Poly):
    return [str(int(c)) for c in p.coeffs]


def _poly_in(strings) -> Poly:
    return Poly([int(s) for s in strings])


def any_digits(convert):
    """convert with Python's 4,300-digit limit on int <-> str, a guard for
    parsing untrusted text, lifted and the caller's limit restored after:
    disc(p_d) passes it from d = 1151 on, and the coefficients of H_{-d}
    pass it at large enough d.  The package converts only integers it
    computed and reads back only its own cache entries."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python before 3.10.7
        return convert

    @functools.wraps(convert)
    def wrapped(*args):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(*args)
        finally:
            sys.set_int_max_str_digits(limit)
    return wrapped


@any_digits
def result_to_entry(res: PipelineResult) -> dict:
    entry = {
        "schema_version": SCHEMA_VERSION,
        "d": res.d,
        "f": res.f,
        "h": res.h,
        "v": res.v,
        "v_relaxed": res.v_relaxed,
        "precision_used": res.precision_used,
        "disc": {
            "value": str(res.disc_report.disc),
            "factors": [[str(q), e] for q, e in res.disc_report.factors],
            "cofactor": str(res.disc_report.cofactor),
            "exact_power_ok": res.disc_report.exact_power_ok,
            "smooth_ok": res.disc_report.smooth_ok,
        },
    }
    for name in _POLY_FIELDS:
        entry[name] = _poly_out(getattr(res, name))
    flags = res.flags
    for name in _FLAG_FIELDS:
        entry[name] = flags[name]
    return entry


@any_digits
def entry_to_result(entry: dict) -> PipelineResult:
    if entry.get("schema_version") != SCHEMA_VERSION:
        raise CacheError(f"unsupported schema version {entry.get('schema_version')!r}")
    disc = entry["disc"]
    report = DiscReport(
        disc=int(disc["value"]),
        factors=tuple((int(q), int(e)) for q, e in disc["factors"]),
        cofactor=int(disc["cofactor"]),
        exact_power_ok=bool(disc["exact_power_ok"]),
        smooth_ok=bool(disc["smooth_ok"]),
    )
    kwargs = {name: _poly_in(entry[name]) for name in _POLY_FIELDS}
    kwargs.update({name: bool(entry[name]) for name in _STORED_FLAGS})
    res = PipelineResult(
        d=int(entry["d"]),
        f=int(entry["f"]),
        h=int(entry["h"]),
        v=int(entry["v"]),
        v_relaxed=bool(entry["v_relaxed"]),
        disc_report=report,
        precision_used=int(entry["precision_used"]),
        **kwargs,
    )
    if any(res.flags[name] != bool(entry[name]) for name in _FLAG_FIELDS):
        raise CacheError("stored flags disagree with the flags they imply")
    return res


def save(cache_dir: str, res: PipelineResult) -> str:
    path = entry_path(cache_dir, res.d)
    payload = json.dumps(result_to_entry(res), indent=1, sort_keys=True)
    tmp = os.path.join(cache_dir, f"d{res.d:04d}.{os.urandom(8).hex()}.tmp")
    # a new file made 0o666, which the kernel narrows by the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load(cache_dir: str, d: int):
    path = entry_path(cache_dir, d)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return entry_to_result(json.load(fh))


def roundtrip_ok(res: PipelineResult) -> bool:
    """parse(render(entry)) == entry, through an actual JSON round trip."""
    wire = json.dumps(result_to_entry(res), sort_keys=True)
    return entry_to_result(json.loads(wire)) == res
