"""lwfv benchmark: refinement workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload burgers2d-verify --seed 0 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), one at a time,
until ``--seconds`` have passed.  With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json (medians over the repetitions); with
``--trace 1`` a traced, a plain and a tracemalloc repetition run, then
traced ones until the time is up, and the result carries the per-layer
metrics.  The last line of standard output is the result object; the
lines before it record the machine and, for traced runs, the per-level
table.  Exits 1 without a
result when a repetition cannot run at all (for example when ``src/lwfv``
is absent).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import UNMEASURED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REP_TIMEOUT_S = 120  # a run must end within 180 s
# One BLAS thread: the workloads are single-threaded numpy, and a second
# BLAS thread on a shared 2-CPU machine only adds noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TABLE_COLUMNS = [("cells", "cells"), ("steps", "steps"), ("build", "mesh.build"),
                 ("validate", "mesh.validate"), ("solve", "solver.solve"),
                 ("seminorm", "translations.seminorm"), ("pairing", "pairing"),
                 ("weak gap", "consistency.weak_gap")]


class BenchError(RuntimeError):
    """A repetition could not run; the benchmark prints no result."""


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lwfv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int, libs: dict) -> dict:
    """What the result depends on besides the code: the host and libraries.
    ``libs`` are the versions a repetition reported."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **libs,
        "blas_threads": f"pinned to 1 in each repetition ({', '.join(CHILD_ENV)})",
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "seed": seed,
    }


def run_rep(args, mode: str, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    rep = json.loads(lines[-1])
    status = "ok" if rep["ok"] else f"FAILED: {rep['error']}"
    print(f"perfbench: {mode} wall {rep['wall_raw_s']:.3f} s, setup "
          f"{rep['setup_raw_s']:.3f} s, calibration {rep['calib_s']:.3f} s, "
          f"peak RSS {rep['peak_rss_mb']:.1f} MB, {status}", file=sys.stderr)
    return rep


def median_of(reps: list[dict], key: str) -> float:
    values = [r[key] for r in reps if r["ok"]]
    if not values:
        raise BenchError(f"no repetition passed its check; no {key}")
    return statistics.median(values)


def format_table(levels: list[dict]) -> str:
    head = ["level"] + [c for c, _ in TABLE_COLUMNS] + ["peak RSS"]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    for row in levels:
        cells = [str(row["level"])]
        for _, key in TABLE_COLUMNS:
            v = row.get(key, 0.0)
            cells.append(f"{v:,}".replace(",", " ") if isinstance(v, int)
                         else f"{v:.3f} s")
        cells.append(f"{row['peak_rss_mb']:.0f} MB")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def measure(args) -> dict:
    start = time.monotonic()
    durations: list[float] = []

    def more() -> bool:
        """Start another repetition only if it would end nearer to
        ``--seconds`` than stopping now does."""
        typical = statistics.median(durations) if durations else 0.0
        return time.monotonic() - start + typical / 2 < args.seconds

    def rep(mode: str, trace_out: Path | None = None) -> dict:
        t0 = time.monotonic()
        result = run_rep(args, mode, trace_out)
        durations.append(time.monotonic() - t0)
        return result

    if not args.trace:
        reps = [rep("plain")]
        while more():
            reps.append(rep("plain"))
        metrics = {name: median_of(reps, name)
                   for name in ("wall_s", "peak_rss_mb", "setup_s")}
        metrics["pass_rate"] = sum(r["ok"] for r in reps) / len(reps)
        names = SPEC["end_to_end"]
    else:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"{args.workload}-{args.size}-seed{args.seed}.trace.json"
        traced = [rep("trace", trace_file)]
        plain = rep("plain")
        memory = rep("memory")
        while more():
            traced.append(rep("trace", trace_file))
        reps = traced + [plain, memory]
        metrics = {}
        for name in traced[-1]["layers"]:
            values = [r["layers"][name] for r in traced if r["ok"]]
            metrics[name] = (None if not values or None in values
                             else statistics.median(values))
        metrics["consistency.pairing_peak_mb"] = memory["pairing_peak_mb"]
        metrics["trace.overhead_s"] = (median_of(traced, "wall_raw_s")
                                       - median_of([plain], "wall_raw_s"))
        names = SPEC["per_layer"]
        missing = traced[-1]["missing"]
        if missing:
            print("perfbench: wrapper targets missing (metrics read null): "
                  + ", ".join(missing), file=sys.stderr)
        if traced[-1]["levels"]:
            print("per-level table (last traced repetition):")
            print(format_table(traced[-1]["levels"]))
        print(f"spans written to {trace_file.relative_to(ROOT)}; layers "
              f"unmeasured, not zero: {', '.join(UNMEASURED)}")
    print(json.dumps({"machine": machine_record(args.seed, reps[0]["libs"])}))
    print(json.dumps({"as_measured": {
        key: median_of(reps, key)
        for key in ("wall_raw_s", "setup_raw_s", "calib_s")}}))
    failed = sum(not r["ok"] for r in reps)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("smoke", "default", "large"),
                    default="default",
                    help="smoke: the benchmark's own tests; large: the "
                         "ROADMAP baseline sizes")
    args = ap.parse_args()
    if not (ROOT / "src" / "lwfv" / "__init__.py").is_file():
        print(f"perfbench: no lwfv sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
