"""Spans and counters recorded around lwfv's public functions.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
each target function on the module that *calls* it (``lwfv.consistency.solve``
is the name ``lw_study`` looks up, ``lwfv.solver.solve`` the one the
benchmark itself calls), so every span nests inside the real caller's span.
The numerical flux is wrapped through ``dataclasses.replace`` on the
problem, because the solver and the pairing reach ``evaluate`` through the
flux object rather than through a module.

Spans are kept in memory as ``[name, start, end, parent, level]`` and
written out when the repetition ends.  A target that no longer exists is
listed in ``missing`` and the metrics that depend only on it read ``None``,
never 0.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import importlib
import resource
import time
import tracemalloc
import weakref

# Span name -> the module attributes it wraps, as the calling module looks
# them up.
SPAN_TARGETS = {
    "mesh.build": ["lwfv.mesh.build_perturbed_triangular_2d",
                   "lwfv.mesh.build_uniform_1d"],
    "mesh.refine": ["lwfv.mesh.refine", "lwfv.consistency.refine",
                    "lwfv.translations.refine"],
    "mesh.quality": ["lwfv.mesh.compute_quality",
                     "lwfv.consistency.compute_quality",
                     "lwfv.translations.compute_quality"],
    "mesh.validate": ["lwfv.mesh.validate"],
    "translations.project": ["lwfv.solver.project_l1",
                             "lwfv.translations.project_l1"],
    "translations.seminorm": ["lwfv.consistency.spacetime_translation_seminorm",
                              "lwfv.translations.translation_seminorm"],
    "translations.decay_study": ["lwfv.translations.translation_decay_study"],
    "solver.solve": ["lwfv.consistency.solve", "lwfv.solver.solve"],
    "consistency.lw_study": ["lwfv.consistency.lw_study"],
    "consistency.weak_gap": ["lwfv.consistency.weak_gap"],
}
# Counted, not timed: 10^4-10^5 calls of a few microseconds each.
COUNT_TARGETS = {"quadrature.cell_rule": ["lwfv.quadrature.cell_rule"]}
FLUX_TARGET = "lwfv.flux.NumericalFlux.evaluate"

ROOT = "workload"
# Layers with no work inside any timed call: the workloads write no CSV and
# build the test-function corpus during set-up.  Unmeasured, not zero.
UNMEASURED = ("cli", "reports", "operators")
MB = 2.0 ** 20


def _mesh_of(args):
    """The mesh a call works on: a Mesh argument or the .mesh of a field."""
    for a in args:
        m = getattr(a, "mesh", a)
        if hasattr(m, "n_cells") and hasattr(m, "face_K"):
            return m
    return None


class Tracer:
    """Records spans and counts for one repetition in one process.

    With ``memory=True`` it also runs tracemalloc over the pairing phase of
    ``lw_study``, from the end of each level's seminorm span to the start of
    its first weak-gap span (the phase has no public function of its own),
    and keeps the largest peak of what the phase allocated.  Memory live
    before the phase, such as the history, is not counted.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.history_bytes = 0
        self.rss_mb: dict = {}
        self.level_counts: dict = collections.defaultdict(dict)
        self.meshes: list = []  # refine results, for validation after the call
        self.memory = memory
        self.pairing_peak_bytes = 0
        self._stack: list[int] = []
        self._levels: dict[int, tuple] = {}
        self._level = None
        self._in_root = False
        self._pairing_open = False
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, level) -> int:
        if level is None:
            level = self._level
        else:
            self._level = level
        if self._pairing_open and name == "consistency.weak_gap":
            self._end_pairing()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, level])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if self._in_root:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.rss_mb[span[4]] = max(self.rss_mb.get(span[4], 0.0), rss)
        if (self.memory and span[0] == "translations.seminorm"
                and span[3] is not None
                and self.spans[span[3]][0] == "consistency.lw_study"):
            tracemalloc.start()
            self._pairing_open = True
        elif self._pairing_open and span[0] == "consistency.lw_study":
            self._end_pairing()

    def _end_pairing(self) -> None:
        self.pairing_peak_bytes = max(self.pairing_peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        self._pairing_open = False

    @contextlib.contextmanager
    def root(self):
        """Span of the timed call; the layer metrics cover only its subtree."""
        self._in_root = True
        idx = self._open(ROOT, None)
        try:
            yield
        finally:
            self._close(idx)
            self._in_root = False

    def level_of(self, m) -> int | None:
        entry = self._levels.get(id(m))
        if entry is not None and entry[0]() is m:
            return entry[1]
        return None

    # -- wrappers ---------------------------------------------------------

    def _after(self, name: str, idx: int, result) -> None:
        if not self._in_root:
            return
        if name == "mesh.build":
            self.counts["mesh.cells"] += result.n_cells
        elif name == "mesh.refine":
            self.meshes.append(result)
            for lvl, m in enumerate(result):
                self._levels[id(m)] = (weakref.ref(m), lvl)
                self.level_counts[lvl]["cells"] = m.n_cells
            # refine builds, then rates, every level in order, before it
            # returns the meshes that name the levels
            for child in ("mesh.build", "mesh.quality"):
                spans = [s for s in self.spans[idx + 1:]
                         if s[3] == idx and s[0] == child]
                for lvl, s in enumerate(spans):
                    s[4] = lvl
        elif name == "solver.solve":
            steps = result.grid.n_steps
            self.counts["solver.steps"] += steps
            self.counts["solver.cell_steps"] += steps * result.mesh.n_cells
            self.history_bytes = max(self.history_bytes, result.values.nbytes)
            level = self.spans[idx][4]
            if level is not None:
                self.level_counts[level]["steps"] = steps

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            m = _mesh_of(args)
            idx = self._open(name, None if m is None else self.level_of(m))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._after(name, idx, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_root:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, target: str, make) -> None:
        mod_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for t in targets:
                self._patch(t, functools.partial(self._span_wrapper, name))
        for name, targets in COUNT_TARGETS.items():
            for t in targets:
                self._patch(t, functools.partial(self._count_wrapper, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap_flux(self, problem):
        """The problem with its numerical flux's ``evaluate`` timed and
        counted (faces per call)."""
        num_flux = problem.flux
        evaluate = getattr(num_flux, "evaluate", None)
        if evaluate is None:
            self.missing.append(FLUX_TARGET)
            return problem

        @functools.wraps(evaluate)
        def timed(uK, *args, **kwargs):
            idx = self._open("flux.evaluate", None)
            try:
                return evaluate(uK, *args, **kwargs)
            finally:
                self._close(idx)
                if self._in_root:
                    self.counts["flux.face_evals"] += int(getattr(uK, "size", 1))

        try:
            wrapped = dataclasses.replace(num_flux, evaluate=timed)
            return dataclasses.replace(problem, flux=wrapped)
        except (TypeError, ValueError):
            self.missing.append(FLUX_TARGET)
            return problem

    # -- results ----------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = collections.defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                kids[s[3]].append(i)
        return kids

    def self_times(self) -> dict[tuple, float]:
        """Self time by (span name, level).

        A span's self time is its duration minus its children's.  The gaps
        between children are charged to the level of the child before the
        gap (the first gap to the span's own level), so the part of
        ``lw_study`` between public calls lands on the level being verified.
        Raises if the self times do not add up to the root spans.
        """
        kids = self._children()
        out: dict[tuple, float] = collections.defaultdict(float)
        total_self = 0.0
        total_root = 0.0
        for i, (name, start, end, parent, level) in enumerate(self.spans):
            if parent is None:
                total_root += end - start
            cursor, lvl = start, level
            for c in kids.get(i, ()):
                cs = self.spans[c]
                if cs[1] < cursor or cs[2] > end:
                    raise RuntimeError(f"span {c} ({cs[0]}) is not inside "
                                       f"its parent {i} ({name})")
                out[(name, lvl)] += cs[1] - cursor
                total_self += cs[1] - cursor
                cursor, lvl = cs[2], cs[4]
            out[(name, lvl)] += end - cursor
            total_self += end - cursor
        if abs(total_self - total_root) > 1e-9 * max(total_root, 1.0):
            raise RuntimeError(f"self times sum to {total_self!r}, root spans "
                               f"to {total_root!r}")
        return out

    def _in_workload(self) -> list[bool]:
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            inside[i] = s[0] == ROOT or (s[3] is not None and inside[s[3]])
        return inside

    def _covered(self, name: str) -> bool:
        targets = SPAN_TARGETS.get(name) or COUNT_TARGETS.get(name) or [FLUX_TARGET]
        return any(t not in self.missing for t in targets)

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics over the timed call (the ``workload`` span)."""
        self.self_times()  # raises unless self times add up
        inside = self._in_workload()
        kids = self._children()
        total: dict[str, float] = collections.defaultdict(float)
        own: dict[str, float] = collections.defaultdict(float)
        for i, s in enumerate(self.spans):
            if inside[i]:
                total[s[0]] += s[2] - s[1]
                own[s[0]] += (s[2] - s[1]) - sum(
                    self.spans[c][2] - self.spans[c][1] for c in kids.get(i, ()))
        lw_children = [s for ok, s in zip(inside, self.spans)
                       if ok and s[3] is not None
                       and self.spans[s[3]][0] == "consistency.lw_study"]
        seminorm_in_study = sum(s[2] - s[1] for s in lw_children
                                if s[0] == "translations.seminorm")
        solve_s = total["solver.solve"]
        pairing = own["consistency.lw_study"]
        c = self.counts

        def covered(name, value):
            return value if self._covered(name) else None

        return {
            "mesh.build_s": covered("mesh.build", total["mesh.build"]),
            "mesh.quality_s": covered("mesh.quality", total["mesh.quality"]),
            "mesh.validate_s": covered("mesh.validate", total["mesh.validate"]),
            "mesh.cells": covered("mesh.build", c["mesh.cells"]),
            "quadrature.cell_rule_calls": covered("quadrature.cell_rule",
                                                  c["quadrature.cell_rule"]),
            "translations.project_s": covered("translations.project",
                                              total["translations.project"]),
            "translations.seminorm_s": covered("translations.seminorm",
                                               total["translations.seminorm"]),
            "flux.evaluate_s": covered("flux.evaluate", total["flux.evaluate"]),
            "flux.face_evals": covered("flux.evaluate", c["flux.face_evals"]),
            "solver.self_s": covered("solver.solve", own["solver.solve"]),
            "solver.cell_steps_per_s": covered(
                "solver.solve", c["solver.cell_steps"] / solve_s if solve_s else 0.0),
            "solver.steps": covered("solver.solve", c["solver.steps"]),
            "solver.history_mb": covered("solver.solve", self.history_bytes / MB),
            "consistency.pairing_s": covered("consistency.lw_study", pairing),
            "consistency.weak_gap_s": covered("consistency.weak_gap",
                                              total["consistency.weak_gap"]),
            "consistency.verify_to_solve": covered(
                "consistency.lw_study",
                (pairing + total["consistency.weak_gap"] + seminorm_in_study)
                / solve_s if solve_s else 0.0),
        }

    def level_table(self) -> list[dict]:
        """Per level: cells, solver steps, seconds of each layer, and
        ru_maxrss at the level's last span.

        ``pairing`` is ``lw_study``'s self time on the level plus the flux
        evaluations it makes directly (the pairing recomputes every face
        flux), which is what a timer around the pairing loop would read.
        """
        own = self.self_times()
        rows: dict = collections.defaultdict(lambda: collections.defaultdict(float))
        for name, start, end, parent, level in self.spans:
            if level is None:
                continue
            row = rows[level]
            if name in ("mesh.build", "mesh.validate", "mesh.quality",
                        "solver.solve", "translations.seminorm",
                        "translations.project", "consistency.weak_gap"):
                row[name] += end - start
            elif (name == "flux.evaluate" and parent is not None
                  and self.spans[parent][0] == "consistency.lw_study"):
                row["pairing"] += end - start
        for (name, level), t in own.items():
            if name == "consistency.lw_study" and level is not None:
                rows[level]["pairing"] += t
        out = []
        for level in sorted(rows):
            out.append({"level": level, **self.level_counts.get(level, {}),
                        **rows[level], "peak_rss_mb": self.rss_mb.get(level, 0.0)})
        return out

    def dump(self) -> dict:
        """Spans grouped by level, with start/end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        by_level: dict = collections.defaultdict(list)
        for i, (name, start, end, parent, level) in enumerate(self.spans):
            by_level[str(level)].append([i, name, start - t0, end - t0, parent])
        return {"missing": self.missing, "unmeasured": list(UNMEASURED),
                "counts": dict(self.counts), "spans_by_level": by_level}
