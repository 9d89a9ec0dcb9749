"""Batch command-line entry point.

Subcommands wrap the library studies with reproducible plain-text config:

    lwfv mesh-gen        --out DIR [--config FILE] [--levels N] [--seed N]
    lwfv mesh-stats      [--config FILE]
    lwfv grad-study      --out DIR ...
    lwfv translate-study --out DIR ...
    lwfv solve           --out DIR ...
    lwfv lw-verify       --out DIR ...

Config files are ``key = value`` lines ('#' comments allowed); the flags
--levels/--seed/--out override the matching keys.  Every CSV
written embeds the digest of the fully resolved configuration in a header
comment, so outputs are traceable to their inputs.  Exit codes: 0 success,
1 internal error, 2 configuration error, 3 failed verification (an
InvariantViolation or a BlowUpError).
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
import traceback

import numpy as np

from . import reports
from .consistency import lw_study
from .flux import (
    NumericalFlux,
    burgers,
    linear_advection,
    muscl_three_point,
    rusanov,
    upwind_linear,
)
from .mesh import (
    MeshError,
    MeshFamily,
    cartesian_2d_family,
    compute_quality,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    read_mesh,
    refine,
    uniform_1d_family,
    validate,
    write_mesh,
)
from .operators import (
    InvariantViolation,
    bump_corpus_spacetime,
    bump_corpus_spatial,
    gradient_weakstar_study,
    polynomial_bump,
    vector_corpus,
)
from .solver import BlowUpError, Problem, solve_to_file
from .translations import (
    IntegrableFunction,
    interval_indicator,
    smooth_function,
    translation_decay_study,
    uniform_decay_study,
)

__all__ = ["main"]


class ConfigError(ValueError):
    """Unusable configuration: unknown key, bad value, unresolvable name."""


DEFAULTS = {
    "family": "uniform-1d",
    "n0": "10",
    "levels": "4",
    "seed": "0",
    "jitter": "0.3",
    "ratio": "2.0",
    "flux": "upwind(1.0)",
    "u0": "bump",
    "t_final": "0.5",
    "cfl": "0.45",
    "phi_count": "4",
    "p_max": "8",
    "level": "0",
    "out": "lwfv-out",
    "mesh_file": "",
}


def parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"config {path!r} cannot be read: {e.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def resolve_config(args: argparse.Namespace) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if args.config:
        file_cfg = parse_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in ("levels", "seed", "out"):
        if (value := getattr(args, key)) is not None:
            cfg[key] = str(value)
    return cfg


def _get_int(cfg, key, minimum=None) -> int:
    try:
        v = int(cfg[key])
    except ValueError as e:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from e
    if minimum is not None and v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {v}")
    return v


def _get_float(cfg, key) -> float:
    try:
        v = float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from e
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {cfg[key]!r}")
    return v


def resolve_family(cfg: dict[str, str]) -> tuple[MeshFamily, int]:
    """Mesh family plus its spatial dimension."""
    name = cfg["family"]
    n0 = _get_int(cfg, "n0", minimum=2)
    if name == "uniform-1d":
        return uniform_1d_family(n0=n0), 1
    if name == "nonuniform-1d":
        return nonuniform_1d_family(n0=n0, ratio=_get_float(cfg, "ratio")), 1
    if name == "cartesian-2d":
        return cartesian_2d_family(n0=n0), 2
    if name == "triangular-2d":
        return perturbed_triangular_2d_family(
            n0=n0, jitter=_get_float(cfg, "jitter"),
            seed=_get_int(cfg, "seed", minimum=0)), 2
    raise ConfigError(f"unknown family {name!r}")


_CALL_RE = re.compile(r"^([a-z-]+)\((.*)\)$")


def _parse_call(spec: str) -> tuple[str, str]:
    spec = spec.strip()
    m = _CALL_RE.match(spec)
    if m:
        return m.group(1), m.group(2).strip()
    return spec, ""


def _parse_floats(text: str, what: str, count: int) -> list[float]:
    """The ``count`` comma-separated finite numbers of ``text``."""
    try:
        values = [float(p) for p in text.split(",")] if text else []
    except ValueError as e:
        raise ConfigError(f"bad numbers in {what}: {text!r}") from e
    if len(values) != count:
        raise ConfigError(f"{what} takes {count} number{'s' * (count != 1)}, "
                          f"got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite numbers, got {text!r}")
    return values


def resolve_flux(spec: str, dim: int) -> NumericalFlux:
    """Numerical flux from a spec like ``upwind(1.0)``, ``muscl(1.0)``,
    ``rusanov(burgers)``, ``rusanov(burgers:0.6,0.8)`` or
    ``rusanov(advection:1.0,0.5)``."""
    name, inner = _parse_call(spec)
    if name == "upwind":
        return upwind_linear(_parse_floats(
            inner, f"flux upwind velocity on a {dim}d mesh", dim))
    if name == "muscl":
        if dim != 1:
            raise ConfigError("flux muscl is wired up for 1d only")
        return muscl_three_point(_parse_floats(inner, "flux muscl velocity", 1)[0])
    if name == "rusanov":
        fname, colon, fargs = inner.partition(":")
        fname = fname.strip()
        if fname == "burgers":
            if not colon:
                return rusanov(burgers(list(np.ones(dim) / np.sqrt(dim))))
            return rusanov(burgers(_parse_floats(
                fargs, f"flux burgers direction on a {dim}d mesh", dim)))
        if fname == "advection":
            return rusanov(linear_advection(_parse_floats(
                fargs, f"flux advection velocity on a {dim}d mesh", dim)))
        raise ConfigError(f"unknown physical flux {fname!r} inside rusanov")
    raise ConfigError(f"unknown flux {name!r}")


def resolve_u0(spec: str, dim: int) -> IntegrableFunction:
    name, inner = _parse_call(spec)
    if name in ("bump", "sine") and inner:
        raise ConfigError(f"u0 {name} takes no numbers, got {inner!r}")
    if name == "bump":
        center = [0.45] * dim
        halfwidth = [0.3] * dim if dim == 1 else [0.26] * dim
        b = polynomial_bump(center, halfwidth, k=3, amplitude=0.5,
                            name="u0-bump")
        return smooth_function(lambda x: b.value(x, 0.0),
                               lipschitz=b.grad_sup, name="bump")
    if name == "sine":
        if dim == 1:
            fn = lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0])  # noqa: E731
        else:
            fn = lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]) * np.sin(  # noqa: E731
                2 * np.pi * x[..., 1])
        return smooth_function(fn, lipschitz=0.5 * np.pi, name="sine")
    if name == "constant":
        c = _parse_floats(inner, "u0 constant value", 1)[0]
        return smooth_function(lambda x: np.full(x.shape[:-1], c),
                               lipschitz=0.0, name=f"constant({c:g})")
    if name == "square":
        a, b = _parse_floats(inner, "u0 square interval", 2)
        if dim != 1:
            raise ConfigError("square datum is 1d only")
        if not a < b:
            raise ConfigError("square interval needs a < b")
        return interval_indicator(a, b)
    raise ConfigError(f"unknown initial datum {spec!r}")


def _out_dir(cfg: dict[str, str]) -> str:
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out {out!r} cannot be made a directory: {e.strerror}") from None
    return out


def _comments(cfg: dict[str, str], subcommand: str) -> list[str]:
    # out never influences the numbers, so reruns into a different
    # directory stay byte-identical
    pairs = {k: v for k, v in cfg.items() if k != "out"}
    return [f"lwfv {subcommand}", f"config {reports.config_digest(pairs)}"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mesh_gen(cfg: dict[str, str]) -> int:
    family, _ = resolve_family(cfg)
    levels = _get_int(cfg, "levels", minimum=1)
    out = _out_dir(cfg)
    meshes = refine(family, levels)
    rows = []
    for lvl, mesh in enumerate(meshes):
        validate(mesh, raise_on_failure=True)
        write_mesh(mesh, os.path.join(out, f"mesh_{lvl}.npz"))
        q = compute_quality(mesh)
        rows.append((lvl, mesh.n_cells, mesh.h_max, q.theta_grad, q.theta,
                     q.tau, q.n_faces_max))
    reports.write_csv(
        os.path.join(out, "mesh_quality.csv"),
        ["level", "n_cells", "h", "theta_grad", "theta", "tau", "n_faces_max"],
        rows, comments=_comments(cfg, "mesh-gen"))
    print(f"wrote {len(meshes)} mesh level(s) and mesh_quality.csv to {out}")
    return 0


def cmd_mesh_stats(cfg: dict[str, str]) -> int:
    if cfg["mesh_file"]:
        source = cfg["mesh_file"]
        try:
            mesh = read_mesh(source)
        except OSError as e:
            raise ConfigError(f"mesh_file {source!r} cannot be read: {e.strerror}") from None
    else:
        family, _ = resolve_family(cfg)
        mesh = family.build(_get_int(cfg, "level", minimum=0))
        source = family.name
    report = validate(mesh, raise_on_failure=False)
    q = compute_quality(mesh)
    print(f"mesh: {source}")
    print(f"  dim={mesh.dim} cells={mesh.n_cells} faces={mesh.n_faces} "
          f"h={mesh.h_max:.6g} |domain|={mesh.domain_measure:.6g}")
    print(f"  theta_grad={q.theta_grad:.6g} theta={q.theta:.6g} "
          f"tau={q.tau:.6g} n_faces_max={q.n_faces_max}")
    for name, passed, detail in report.checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}")
    if not report.ok:
        print("validation FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_grad_study(cfg: dict[str, str]) -> int:
    family, dim = resolve_family(cfg)
    levels = _get_int(cfg, "levels", minimum=2)
    out = _out_dir(cfg)
    phi = bump_corpus_spatial(dim)[0]
    psis = vector_corpus(dim)
    study = gradient_weakstar_study(family, phi, psis, levels)
    lines = [f"family {family.name}  phi {phi.name}"]
    for psi in psis:
        rows = [r for r in study if r.psi_name == psi.name]
        reports.write_csv(
            os.path.join(out, f"grad_study_{psi.name}.csv"),
            ["level", "h", "theta_grad", "pairing", "reference", "gap",
             "apriori_bound", "l1_distance"],
            [(r.level, r.h, r.theta_grad, r.pairing, r.reference, r.gap,
              r.apriori_bound, r.l1_distance) for r in rows],
            comments=_comments(cfg, "grad-study"))
        slope = reports.fit_decay_slope([r.h for r in rows],
                                        [r.gap for r in rows])
        lines.append(f"psi {psi.name}: final gap {rows[-1].gap:.6e}, "
                     f"slope {slope:.3f}")
    summary = "\n".join(lines) + "\n"
    reports.write_text(os.path.join(out, "grad_summary.txt"), summary)
    print(summary, end="")
    return 0


def cmd_translate_study(cfg: dict[str, str]) -> int:
    family, dim = resolve_family(cfg)
    levels = _get_int(cfg, "levels", minimum=2)
    out = _out_dir(cfg)
    u = resolve_u0(cfg["u0"], dim)
    rows = translation_decay_study(family, u, levels)
    reports.write_csv(
        os.path.join(out, "translate_decay.csv"),
        ["level", "h", "T_value", "bound_lipschitz", "bound_l1"],
        [(r.level, r.h, r.T_value, r.bound_lipschitz, r.bound_l1)
         for r in rows],
        comments=_comments(cfg, "translate-study"))

    p_max = _get_int(cfg, "p_max", minimum=1)
    bump = polynomial_bump([0.5] * dim, [0.24] * dim, k=3, name="seq-bump")
    bump_l1 = _bump_l1(dim, [0.24] * dim, k=3)
    seq = [_perturbed_datum(u, bump, p) for p in range(1, p_max + 1)]
    deltas = [bump_l1 / p for p in range(1, p_max + 1)]
    uni = uniform_decay_study(family, seq, u, levels, deltas_l1=deltas)
    header = ["level", "h", "T_limit"] + [f"T_p{p}" for p in range(1, p_max + 1)]
    mat_rows = [(lvl, uni.hs[i], uni.limit_column[i], *uni.matrix[i])
                for i, lvl in enumerate(uni.levels)]
    reports.write_csv(os.path.join(out, "translate_matrix.csv"), header,
                      mat_rows, comments=_comments(cfg, "translate-study"))
    print(f"wrote translate_decay.csv and translate_matrix.csv to {out}")
    return 0


def _bump_l1(dim: int, halfwidth, k: int) -> float:
    # integral of prod_i (1 - s_i^2)^k over the support box, where
    # int_{-1}^{1} (1 - s^2)^k ds = 2^(2k+1) (k!)^2 / (2k+1)!
    one_axis = 2 ** (2 * k + 1) * math.factorial(k) ** 2 / math.factorial(2 * k + 1)
    return math.prod(2.0 * float(w) for w in halfwidth) * (one_axis / 2.0) ** dim


def _perturbed_datum(u: IntegrableFunction, bump, p: int) -> IntegrableFunction:
    def fn(x):
        return np.asarray(u.fn(x), dtype=float) + bump.value(x, 0.0) / p

    lip = None
    if u.lipschitz is not None:
        lip = u.lipschitz + bump.grad_sup / p
    return IntegrableFunction(fn=fn, lipschitz=lip, name=f"{u.name}+bump/{p}",
                              interval=u.interval)


def _resolve_problem(cfg: dict[str, str], dim: int) -> Problem:
    flux = resolve_flux(cfg["flux"], dim)
    u0 = resolve_u0(cfg["u0"], dim)
    return Problem(flux=flux, u0=u0, t_final=_get_float(cfg, "t_final"))


def cmd_solve(cfg: dict[str, str]) -> int:
    family, dim = resolve_family(cfg)
    out = _out_dir(cfg)
    mesh = family.build(_get_int(cfg, "level", minimum=0))
    problem = _resolve_problem(cfg, dim)
    grid, u0, u_final = solve_to_file(mesh, problem,
                                      os.path.join(out, "history.npy"),
                                      cfl=_get_float(cfg, "cfl"))
    write_mesh(mesh, os.path.join(out, "mesh.npz"))
    rows = [(c, float(grid.nodes[i]), u[c]) for i, u in ((0, u0), (-1, u_final))
            for c in range(mesh.n_cells)]
    reports.write_csv(os.path.join(out, "snapshots.csv"),
                      ["cell_id", "t", "u"], rows,
                      comments=_comments(cfg, "solve"))
    print(f"solved {grid.n_steps} steps to t={grid.t_final:g}; wrote mesh.npz, "
          f"history.npy, snapshots.csv to {out}")
    return 0


def cmd_lw_verify(cfg: dict[str, str]) -> int:
    family, dim = resolve_family(cfg)
    levels = _get_int(cfg, "levels", minimum=2)
    out = _out_dir(cfg)
    problem = _resolve_problem(cfg, dim)
    phi_count = _get_int(cfg, "phi_count", minimum=1)
    corpus = bump_corpus_spacetime(dim, problem.t_final)
    if phi_count > len(corpus):
        raise ConfigError(f"phi_count must be <= {len(corpus)}, got {phi_count}")
    phis = corpus[:phi_count]
    report = lw_study(family, problem, phis, levels,
                      cfl=_get_float(cfg, "cfl"))
    reports.write_csv(
        os.path.join(out, "lw_report.csv"),
        ["level", "h", "dt", "phi_id", "T11", "T12", "R1", "T2t", "R",
         "master_residual", "weak_gap", "R1_envelope", "R_envelope"],
        [(rec.level, rec.h, rec.dt, d.phi_id, d.t1_1, d.t1_2, d.r1,
          d.t2_tilde, d.r, d.master_residual, gap, r1_bound, r_bound)
         for rec in report.levels
         for d, gap, (r1_bound, r_bound) in zip(
             rec.decompositions, rec.weak_gaps, rec.envelopes)],
        comments=_comments(cfg, "lw-verify"))
    lines = [
        f"family {report.family}  flux {report.flux_name}  u0 {report.u0_name}",
        "per-level max weak gap: "
        + "  ".join(f"{g:.6e}" for g in report.gap_profile()),
        f"fitted slopes: weak_gap {report.slopes['weak_gap']:.3f}  "
        f"R1 {report.slopes['R1']:.3f}  R {report.slopes['R']:.3f}",
        "master identity and residual envelopes held on every run",
    ]
    summary = "\n".join(lines) + "\n"
    reports.write_text(os.path.join(out, "lw_summary.txt"), summary)
    print(summary, end="")
    return 0


COMMANDS = {
    "mesh-gen": cmd_mesh_gen,
    "mesh-stats": cmd_mesh_stats,
    "grad-study": cmd_grad_study,
    "translate-study": cmd_translate_study,
    "solve": cmd_solve,
    "lw-verify": cmd_lw_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lwfv",
        description="finite-volume weak-consistency studies",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--levels", type=int, help="refinement levels")
    parser.add_argument("--seed", type=int, help="mesh-perturbation seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.subcommand](cfg)
    except (InvariantViolation, BlowUpError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, MeshError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
