"""File output and slope fitting shared by the studies and the CLI.

All floats are written with repr-exact %.17g so reruns produce
byte-identical files.  Every file written to a path goes through
:func:`open_file`, so it appears atomically and gets umask permissions.
"""
from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "format_value",
    "config_digest",
    "open_file",
    "write_csv",
    "write_text",
    "fit_decay_slope",
]

SLOPE_FLOOR = 1e-13


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def config_digest(pairs: dict) -> str:
    """Short stable digest of a resolved key-value configuration."""
    import hashlib  # here, so that ``import lwfv`` does not load OpenSSL

    canon = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@contextlib.contextmanager
def open_file(path_or_buf, mode: str = "r"):
    """A stream for a path (str, bytes or os.PathLike) in ``mode``, UTF-8
    text unless the mode is binary, closed on exit; any other argument is
    taken as an open stream and passed through unclosed.  A write mode
    writes a temporary beside the path, named after it and the process id,
    which replaces the path on a clean exit and is removed on an error."""
    if not isinstance(path_or_buf, (str, bytes, os.PathLike)):
        yield path_or_buf
        return
    text = {} if "b" in mode else {
        "encoding": "utf-8", "newline": "\n" if "w" in mode else None}
    if "w" not in mode:
        with open(path_or_buf, mode, **text) as fh:
            yield fh
        return
    head, name = os.path.split(os.fsdecode(path_or_buf))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, os.fsdecode(path_or_buf))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              comments: Sequence[str] = ()) -> None:
    """Write comment lines, a header line, and data rows atomically."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def write_text(path: str, text: str) -> None:
    """Write UTF-8 text atomically through :func:`open_file`."""
    with open_file(path, "w") as fh:
        fh.write(text)


def fit_decay_slope(hs, values) -> float:
    """Least-squares slope of log2(value) against log2(h).

    Values at or below SLOPE_FLOOR are treated as converged-to-rounding and
    excluded; with fewer than two surviving points the slope is nan.
    A positive result means decay under refinement.
    """
    h = np.asarray(hs, dtype=float)
    v = np.asarray(values, dtype=float)
    if h.shape != v.shape:
        raise ValueError("h and value arrays must have matching shapes")
    mask = v > SLOPE_FLOOR
    if int(mask.sum()) < 2:
        return float("nan")
    slope = np.polyfit(np.log2(h[mask]), np.log2(v[mask]), 1)[0]
    return float(slope)
