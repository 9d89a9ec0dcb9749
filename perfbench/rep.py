"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON object
it prints as its last line: the wall time of the timed call, the time from
process spawn to the start of that call, the process's peak RSS, and
whether the call's output passed the workload's correctness check.  Both
times are given as measured (``*_raw_s``) and rescaled to the reference
machine's speed by ``calibrate()``, timed twice right after the call
(``wall_s``, ``setup_s``).

Modes: ``plain`` times the call with nothing wrapped; ``trace`` records the
spans of ``tracer.py`` and adds the per-layer metrics and the per-level
table; ``memory`` also runs tracemalloc over the pairing phase, in a
repetition of its own so that memory tracing inflates no reported span.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from lwfv import consistency, flux, mesh, operators, solver, translations  # noqa: E402

from tracer import MB, Tracer  # noqa: E402

# Levels per size.  "default" is what the benchmark measures; "smoke" is
# for the benchmark's own tests; "large" is the size of the ROADMAP
# baseline table, for the per-level comparison in NOTES.md.
SIZES = {
    "burgers2d-verify": {"smoke": 3, "default": 4, "large": 5},
    "riemann1d-verify": {"smoke": 4, "default": 6, "large": 8},
    "burgers2d-solve": {"smoke": 2, "default": 4, "large": 5},
    "mesh-translate": {"smoke": (5, 3), "default": (9, 5), "large": (10, 6)},
}
FAILURES = (operators.InvariantViolation, solver.BlowUpError, mesh.MeshError)
# Typical time of calibrate() on the reference machine (NOTES.md): times
# are reported in seconds at that machine's speed.
CALIB_REF_S = 0.45
MASS_DRIFT_TOL = 1e-12
RANGE_TOL = 1e-12


@dataclass
class Workload:
    problem: solver.Problem | None
    call: Callable  # problem -> result; the timed call
    check: Callable  # result -> error message, or None when correct


@dataclass
class _Record:
    i: int
    x: float
    pair: tuple


def calibrate() -> float:
    """Seconds for a fixed kernel that does not touch lwfv: small numpy
    calls in a Python loop, an 8 MB array sweep, and many small objects put
    into a dict, the mix the workloads spend their time on.  Its time
    tracks the host's speed, which drifts by 20-30 % over minutes on a
    shared machine."""
    t0 = time.perf_counter()
    small = np.random.default_rng(0).random(4096)
    acc = 0.0
    for i in range(30_000):
        b = small[i % 4000:i % 4000 + 64]
        acc += float(np.dot(b, b))
    big = np.ones(1_000_000)
    for _ in range(30):
        big = big * 1.0000001 + 1e-9
    for _ in range(2):
        records = [_Record(i, float(i), (i, i + 1)) for i in range(60_000)]
        d = {}
        for r in records:
            d[r.i % 977] = (r.pair, r.x)
    return time.perf_counter() - t0


def sine_1d():
    return translations.smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[..., 0]),
        lipschitz=0.5 * np.pi, name="sine-1d")


def sine_2d(seed: int | None = None):
    """The acceptance sine datum, shifted by a seeded phase on the torus.

    The phase changes the data but not the work: the CFL step count moves by
    well under 1 % between seeds, where a seeded jitter table moves it by up
    to 4x.
    """
    a, b = (0.0, 0.0) if seed is None else np.random.default_rng(seed).uniform(0, 1, 2)
    return translations.smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * (x[..., 0] - a))
        * np.sin(2.0 * np.pi * (x[..., 1] - b)),
        lipschitz=0.5 * np.pi * np.sqrt(2.0),
        name="sine-2d" if seed is None else f"sine-2d(seed={seed})")


def burgers_2d_problem(seed: int | None) -> solver.Problem:
    d = 1.0 / math.sqrt(2.0)
    return solver.Problem(flux=flux.rusanov(flux.burgers((d, d))),
                          u0=sine_2d(seed), t_final=0.4, boundary="periodic")


def triangulated(seed: int = 0):
    return mesh.perturbed_triangular_2d_family(4, jitter=0.3, seed=seed)


def decreasing(gaps) -> bool:
    return all(b < a for a, b in zip(gaps, gaps[1:]))


def burgers2d_verify(levels, seed: int) -> Workload:
    """The acceptance scenario as it stands; the seed is ignored.  Seeded
    jitter tables change the work up to 4x, and seeded phases (12 and 13,
    for two) make the gap at the coarsest level smaller than at the next,
    so the acceptance check would fail on the data, not on the code."""
    family = triangulated()
    phis = operators.bump_corpus_spacetime(2, 0.4)

    def check(report):
        gaps = report.gap_profile()
        if not decreasing(gaps):
            return f"gap profile not strictly decreasing: {gaps}"
        if gaps[-1] / gaps[0] > 0.25:
            return f"final/coarsest gap {gaps[-1] / gaps[0]:.4f} > 0.25"
        return None

    return Workload(
        burgers_2d_problem(None),
        lambda p: consistency.lw_study(family, p, phis, levels=levels, cfl=0.45),
        check)


def riemann1d_verify(levels, seed: int) -> Workload:
    problem = solver.Problem(flux=flux.rusanov(flux.burgers((1.0,))),
                             u0=translations.interval_indicator(0.1, 0.45),
                             t_final=0.5, boundary="periodic")
    family = mesh.uniform_1d_family(16)
    phis = operators.bump_corpus_spacetime(1, 0.5)

    def check(report):
        gaps = report.gap_profile()
        if not decreasing(gaps):
            return f"gap profile not strictly decreasing: {gaps}"
        if not report.slopes["weak_gap"] >= 0.4:
            return f"weak_gap slope {report.slopes['weak_gap']:.4f} < 0.4"
        return None

    return Workload(
        problem,
        lambda p: consistency.lw_study(family, p, phis, levels=levels, cfl=0.45),
        check)


def burgers2d_solve(level, seed: int) -> Workload:
    family = triangulated()

    def call(p):
        return solver.solve(family.build(level), p, cfl=0.45)

    def check(field):
        vals = field.values
        if not np.all(np.isfinite(vals)):
            return "non-finite values in the history"
        mass = vals @ field.mesh.cell_volume
        drift = float(np.max(np.abs(mass - mass[0]))) / abs(float(mass[0]))
        if drift > MASS_DRIFT_TOL:
            return f"periodic mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}"
        lo, hi = float(vals[0].min()), float(vals[0].max())
        tol = RANGE_TOL * max(abs(lo), abs(hi))
        if vals.min() < lo - tol or vals.max() > hi + tol:
            return (f"history leaves the initial range [{lo!r}, {hi!r}]: "
                    f"[{vals.min()!r}, {vals.max()!r}]")
        return None

    return Workload(burgers_2d_problem(seed), call, check)


def mesh_translate(levels, seed: int) -> Workload:
    """The library half of ``mesh-gen`` on both families, then the
    translation decay study on each."""
    cases = [(mesh.uniform_1d_family(10), levels[0], sine_1d()),
             (triangulated(seed), levels[1], sine_2d())]

    def call(_):
        reports = []
        for family, n, datum in cases:
            for m in mesh.refine(family, n):
                reports.append(mesh.validate(m))
                mesh.compute_quality(m)
            translations.translation_decay_study(family, datum, n)
        return reports

    def check(reports):
        bad = [r.failing() for r in reports if not r.ok]
        return f"validation failed: {bad}" if bad else None

    return Workload(None, call, check)


WORKLOADS = {
    "burgers2d-verify": burgers2d_verify,
    "riemann1d-verify": riemann1d_verify,
    "burgers2d-solve": burgers2d_solve,
    "mesh-translate": mesh_translate,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("smoke", "default", "large"),
                    default="default")
    ap.add_argument("--mode", choices=("plain", "trace", "memory"),
                    default="plain")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent spawned this process")
    ap.add_argument("--trace-out", default=None,
                    help="file for the spans of a trace repetition")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](SIZES[args.workload][args.size], args.seed)
    tracer = None
    if args.mode != "plain":
        tracer = Tracer(memory=args.mode == "memory")
        tracer.install()
        if wl.problem is not None:
            wl.problem = tracer.wrap_flux(wl.problem)

    setup_s = time.monotonic() - args.spawned
    error = result = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.call(wl.problem)
        else:
            with tracer.root():
                result = wl.call(wl.problem)
    except FAILURES as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after ru_maxrss is read, so that the kernel's memory is not counted
    calib_s = (calibrate() + calibrate()) / 2.0
    speed = CALIB_REF_S / calib_s
    if error is None:
        error = wl.check(result)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"ok": error is None, "error": error,
           "wall_s": wall_s * speed, "setup_s": setup_s * speed,
           "wall_raw_s": wall_s, "setup_raw_s": setup_s, "calib_s": calib_s,
           "peak_rss_mb": peak_rss_mb,
           "libs": {"numpy": np.__version__, "scipy": scipy.__version__,
                    "blas": f"{blas.get('name')} {blas.get('version')}"}}
    if tracer is not None:
        # validation of the verify workloads' meshes, outside the timed call,
        # only for the per-level table's validate column
        if args.workload != "mesh-translate":
            for meshes in tracer.meshes:
                for m in meshes:
                    mesh.validate(m)
        out["layers"] = tracer.layer_metrics()
        out["pairing_peak_mb"] = tracer.pairing_peak_bytes / MB
        out["levels"] = tracer.level_table()
        out["missing"] = tracer.missing
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "size": args.size, "mode": args.mode,
                           "levels": out["levels"], **tracer.dump()}, fh)
        tracer.uninstall()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
