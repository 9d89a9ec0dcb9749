"""Command-line driver: config grammar, file outputs, determinism, exits.

Every subcommand is exercised through main() with real directories; the
determinism tests compare output bytes across reruns, including reruns
that only change the output directory.
"""
import csv
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lwfv import cli, read_mesh
from lwfv.cli import ConfigError, resolve_flux, resolve_u0
from lwfv.consistency import lw_study, weak_gap
from lwfv.flux import upwind_linear
from lwfv.mesh import nonuniform_1d_family, uniform_1d_family
from lwfv.operators import bump_corpus_spacetime, polynomial_bump
from lwfv.solver import Problem, SpaceTimeField, read_history, solve

from oracles import brute_jump_seminorm, cell_edges_1d, dense_cell_means_1d
from test_mesh import STACKED_FILES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(args):
    return cli.main(list(args))


def test_readme_command_line_section_matches_cli():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"Subcommands:(.*?)\.\s", section, re.S).group(1)
    assert sorted(re.findall(r"`([a-z-]+)`", listed)) == sorted(cli.COMMANDS)
    keys = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert sorted(keys) == sorted(cli.DEFAULTS)


# ---------------------------------------------------------------------------
# config grammar
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment line\nfamily = uniform-1d   # trailing\n\nn0 = 12\n")
    cfg = cli.parse_config_file(str(p))
    assert cfg == {"family": "uniform-1d", "n0": "12"}


def test_config_rejects_unknown_key(tmp_path, capsys):
    # dual named the one dual construction there is, so it is no key
    for key in ("bogus_key", "dual"):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = cone\n")
        assert run(["mesh-gen", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err


def test_config_missing_file_is_usage_error(tmp_path, capsys):
    rc = run(["mesh-gen", "--config", str(tmp_path / "nope.cfg"),
              "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_config_rejects_bad_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("family uniform-1d\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(str(p))


def test_flux_grammar():
    assert resolve_flux("upwind(1.0)", 1).name == "upwind(1)"
    assert resolve_flux("muscl(1.0)", 1).stencil == 3
    assert resolve_flux("rusanov(burgers)", 2).name.startswith("rusanov[burgers")
    assert resolve_flux("rusanov(burgers:0.6,0.8)", 2).flux.dim == 2
    assert resolve_flux("rusanov(advection:1.0,0.5)", 2).flux.dim == 2
    for bad, dim in [("muscl(1.0)", 2), ("warp(1)", 1), ("rusanov(kpz)", 1)]:
        with pytest.raises(ConfigError):
            resolve_flux(bad, dim)


def test_u0_grammar():
    assert resolve_u0("bump", 1).name
    assert resolve_u0("sine", 2).name
    assert resolve_u0("constant(0.3)", 1).fn(np.array([[0.5]]))[0] == 0.3
    assert resolve_u0("square(0.2,0.6)", 1).interval == (0.2, 0.6)
    assert resolve_u0("bump", 1).interval is None
    with pytest.raises(ConfigError):
        resolve_u0("square(0.2,0.6)", 2)
    with pytest.raises(ConfigError):
        resolve_u0("mystery", 1)


@pytest.mark.parametrize("resolve, spec, dim, message", [
    (resolve_u0, "constant(1,2)", 1, "u0 constant value takes 1 number"),
    (resolve_u0, "constant()", 1, "u0 constant value takes 1 number"),
    (resolve_u0, "square(0.1,0.2,0.3)", 1, "u0 square interval takes 2 numbers"),
    (resolve_u0, "sine(3)", 1, "u0 sine takes no numbers"),
    (resolve_u0, "bump(0.5)", 2, "u0 bump takes no numbers"),
    (resolve_flux, "muscl(1,2)", 1, "flux muscl velocity takes 1 number"),
    (resolve_flux, "upwind(1,0)", 1, "flux upwind velocity on a 1d mesh takes 1 number"),
    (resolve_flux, "upwind(1)", 2, "flux upwind velocity on a 2d mesh takes 2 numbers"),
    (resolve_flux, "rusanov(burgers:1,0)", 1,
     "flux burgers direction on a 1d mesh takes 1 number"),
    # the default direction is spelled without the colon
    (resolve_flux, "rusanov(burgers:)", 2,
     "flux burgers direction on a 2d mesh takes 2 numbers"),
    (resolve_flux, "rusanov(advection:1)", 2,
     "flux advection velocity on a 2d mesh takes 2 numbers"),
])
def test_grammar_checks_the_argument_count(resolve, spec, dim, message):
    # extra numbers were dropped (constant(1,2) ran with c = 1) or failed
    # with Python's unpacking error
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve(spec, dim)


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_mesh_gen_outputs_and_quality_columns(tmp_path):
    out = tmp_path / "m"
    assert run(["mesh-gen", "--out", str(out), "--levels", "3"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["mesh_0.txt", "mesh_1.txt", "mesh_2.txt", "mesh_quality.csv"]
    lines = (out / "mesh_quality.csv").read_text().splitlines()
    assert lines[0].startswith("# lwfv mesh-gen")
    assert lines[1].startswith("# config ")
    assert lines[2] == "level,n_cells,h,theta_grad,theta,tau,n_faces_max"
    assert len(lines) == 3 + 3
    m = read_mesh(str(out / "mesh_1.txt"))
    assert m.n_cells == 20


def test_mesh_gen_rates_each_level_once(tmp_path, rated_cells):
    assert run(["mesh-gen", "--out", str(tmp_path / "m"), "--levels", "3"]) == 0
    assert rated_cells == [10, 20, 40]


def test_mesh_gen_rejects_bad_jitter(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("family = triangular-2d\njitter = 0.6\n")
    assert run(["mesh-gen", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "jitter" in capsys.readouterr().err


def test_mesh_stats_exit_codes(tmp_path, capsys):
    out = tmp_path / "m"
    run(["mesh-gen", "--out", str(out), "--levels", "1"])
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text(f"mesh_file = {out / 'mesh_0.txt'}\n")
    assert run(["mesh-stats", "--config", str(cfgp),
                "--out", str(tmp_path / "so")]) == 0
    text = capsys.readouterr().out
    assert "[ok]" in text and "theta_grad" in text


def test_mesh_stats_of_a_written_level_matches_the_built_level(tmp_path, capsys):
    # a loaded mesh takes |Omega| from its box, so every line but the source
    # reads as on the built level, the partition checks' |Omega| = 1.0 too
    family = "family = triangular-2d\nn0 = 4\n"
    gen = tmp_path / "gen.cfg"
    gen.write_text(family)
    assert run(["mesh-gen", "--config", str(gen), "--out", str(tmp_path / "m"),
                "--levels", "3"]) == 0
    built = tmp_path / "built.cfg"
    built.write_text(family + "level = 2\n")
    loaded = tmp_path / "loaded.cfg"
    loaded.write_text(f"mesh_file = {tmp_path / 'm' / 'mesh_2.txt'}\n")
    capsys.readouterr()
    stats = []
    for cfgp in (built, loaded):
        assert run(["mesh-stats", "--config", str(cfgp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("mesh: ")
        stats.append(lines[1:])
    # the file keeps the vertices, so every check runs on both
    assert stats[0] == stats[1]
    assert stats[1][2].endswith("vs |Omega| = 1.0")
    assert any("[ok] anchor_inside" in x for x in stats[1])
    assert any("[ok] boundary_on_box" in x for x in stats[1])


def test_mesh_stats_of_a_mesh_outside_its_box_exits_2(tmp_path, capsys):
    out = tmp_path / "m"
    run(["mesh-gen", "--out", str(out), "--levels", "1"])
    path = out / "mesh_0.txt"
    text = path.read_text()
    assert "# box 0 1\n" in text
    path.write_text(text.replace("# box 0 1\n", "# box 5 6\n"))
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text(f"mesh_file = {path}\n")
    capsys.readouterr()
    assert run(["mesh-stats", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert [x for x in captured.out.splitlines() if "FAIL" in x] == [
        "  [FAIL] boundary_on_box: vertices of every boundary face on one side "
        "of [5, 6], not face 0"]
    assert "validation FAILED" in captured.err


def test_mesh_stats_of_a_domain_cut_inside_exits_2(tmp_path, capsys):
    # vertex 5 (x = 0.5) given a second id for cell 5: an interior facet
    # split into two boundary faces, which no other check sees
    out = tmp_path / "m"
    run(["mesh-gen", "--out", str(out), "--levels", "1"])
    path = out / "mesh_0.txt"
    lines = path.read_text().splitlines(keepends=True)
    cell = next(i for i, x in enumerate(lines) if x.startswith("cell 5 "))
    assert lines[cell].endswith(" 5 6\n")
    lines[cell] = lines[cell][: -len(" 5 6\n")] + " 11 6\n"
    lines.insert(cell, "vertex 11 0.5\n")
    path.write_text("".join(lines))
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text(f"mesh_file = {path}\n")
    capsys.readouterr()
    assert run(["mesh-stats", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert [x.split(":")[0] for x in captured.out.splitlines() if "FAIL" in x] == [
        "  [FAIL] boundary_on_box"]


def test_mesh_stats_rejects_malformed_file_with_exit_2(tmp_path, capsys):
    out = tmp_path / "m"
    run(["mesh-gen", "--out", str(out), "--levels", "1"])
    lines = (out / "mesh_0.txt").read_text().splitlines(keepends=True)
    vertex = next(i for i, x in enumerate(lines) if x.startswith("vertex 1 "))
    cell = next(i for i, x in enumerate(lines) if x.startswith("cell 2 "))
    missing_vertex, descending = lines.copy(), lines.copy()
    missing_vertex[cell] = "cell 2 0.25 2 70\n"  # vertices 0..10 only
    descending[cell] = "cell 2 0.25 3 2\n"
    truncated = lines.copy()
    truncated[cell] = "cell 2 0.1\n"
    box = next(i for i, x in enumerate(lines) if x.startswith("# box "))
    short_box, bad_box = lines.copy(), lines.copy()
    short_box[box] = "# box 0\n"  # a 1d box needs two values
    bad_box[box] = "# box 0 one\n"
    v1_header, no_vertex = lines.copy(), lines.copy()
    v1_header[0] = "lwfv-mesh v1 dim=1\n"  # a format that stored no vertices
    no_vertex[vertex] = "vertex 1\n"
    for name, text in (("missing", missing_vertex), ("truncated", truncated),
                       ("short_box", short_box), ("bad_box", bad_box),
                       ("v1_header", v1_header), ("no_vertex", no_vertex),
                       ("descending", descending), *STACKED_FILES.items()):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(text))
        cfgp = tmp_path / f"{name}.cfg"
        cfgp.write_text(f"mesh_file = {path}\n")
        assert run(["mesh-stats", "--config", str(cfgp)]) == 2, name
        err = capsys.readouterr().err
        assert "error:" in err
        assert ("cells 0 and 1 lie on the same side" in err) == name.startswith("stacked")


@pytest.mark.parametrize("case", ["missing", "directory", "out-is-a-file",
                                  "config-is-a-directory"])
def test_paths_that_cannot_be_opened_exit_2(tmp_path, capsys, case):
    # each raised an OSError that exited 1 with a traceback
    path = tmp_path / "target"
    if case in ("directory", "config-is-a-directory"):
        path.mkdir()
    elif case == "out-is-a-file":
        path.write_text("not a directory\n")
    key, subcommand = ("out", "mesh-gen") if case == "out-is-a-file" else (
        "mesh_file", "mesh-stats")
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{key} = {path}\n")
    if case == "config-is-a-directory":
        key, cfgp = "config", path
    assert run([subcommand, "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} '{path}' ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_grad_study_csv_schema(tmp_path):
    cfgp = tmp_path / "g.cfg"
    cfgp.write_text("family = uniform-1d\nn0 = 10\nlevels = 2\n")
    out = tmp_path / "g"
    assert run(["grad-study", "--config", str(cfgp), "--out", str(out)]) == 0
    csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert csvs == ["grad_study_psi-a.csv", "grad_study_psi-b.csv"]
    lines = (out / "grad_study_psi-a.csv").read_text().splitlines()
    assert lines[2] == ("level,h,theta_grad,pairing,reference,gap,"
                        "apriori_bound,l1_distance")
    assert (out / "grad_summary.txt").exists()


def test_translate_study_csv_schema_and_l1_formula(tmp_path):
    cfgp = tmp_path / "t.cfg"
    cfgp.write_text("family = uniform-1d\nn0 = 10\nlevels = 2\n")
    out = tmp_path / "t"
    assert run(["translate-study", "--config", str(cfgp), "--out", str(out)]) == 0
    decay = (out / "translate_decay.csv").read_text().splitlines()
    assert decay[2] == "level,h,T_value,bound_lipschitz,bound_l1"
    matrix = (out / "translate_matrix.csv").read_text().splitlines()
    assert matrix[2].startswith("level,h,T_limit,T_p1,")
    # closed-form perturbation-bump mass must match dense numeric integration
    from lwfv.cli import _bump_l1
    from lwfv.operators import polynomial_bump

    bump = polynomial_bump([0.5], [0.24], k=3)
    edges = np.linspace(0.0, 1.0, 2001)
    dense = float(
        np.sum(np.diff(edges) * dense_cell_means_1d(
            edges, lambda x: np.abs(bump.value(x[:, None], 0.0)), nsub=8))
    )
    assert _bump_l1(1, [0.24], 3) == pytest.approx(dense, rel=1e-6)


def test_solve_outputs_and_snapshots(tmp_path):
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text(
        "flux = upwind(1.0)\nu0 = bump\nt_final = 0.5\ncfl = 0.5\nlevel = 1\n"
    )
    out = tmp_path / "s"
    assert run(["solve", "--config", str(cfgp), "--out", str(out)]) == 0
    assert sorted(q.name for q in out.iterdir()) == [
        "history.npy", "mesh.txt", "snapshots.csv"]
    grid, vals = read_history(str(out / "history.npy"))
    m = read_mesh(str(out / "mesh.txt"))
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[2] == "cell_id,t,u"
    body = [ln.split(",") for ln in lines[3:]]
    assert len(body) == 2 * m.n_cells
    first = [row for row in body if float(row[1]) == 0.0]
    last = [row for row in body if float(row[1]) == grid.nodes[-1]]
    assert len(first) == m.n_cells and len(last) == m.n_cells
    got_first = np.array([float(r[2]) for r in first])
    assert np.array_equal(got_first, vals[0])
    # the stored mesh and history give the run in memory and its weak gap,
    # bit for bit
    problem = Problem(flux=resolve_flux("upwind(1.0)", 1), u0=resolve_u0("bump", 1),
                      t_final=0.5)
    field = solve(uniform_1d_family(10).build(1), problem, cfl=0.5)
    assert vals.tobytes() == field.values.tobytes()
    assert grid.nodes.tobytes() == field.grid.nodes.tobytes()
    stored = SpaceTimeField(mesh=m, grid=grid, values=vals, flux=problem.flux)
    for phi in bump_corpus_spacetime(1, 0.5):
        assert weak_gap(stored, phi, problem.u0) == weak_gap(field, phi, problem.u0)


def _lw_report_rows(flux_spec):
    """The rows ``lw-verify`` writes for the config of the schema test, built
    from ``lw_study`` by column name, every number as %.17g text."""
    problem = Problem(flux=resolve_flux(flux_spec, 1), u0=resolve_u0("bump", 1),
                      t_final=0.5)
    report = lw_study(uniform_1d_family(10), problem,
                      bump_corpus_spacetime(1, 0.5)[:2], levels=2, cfl=0.5)
    rows = []
    for rec in report.levels:
        for d, gap, (r1_bound, r_bound) in zip(
                rec.decompositions, rec.weak_gaps, rec.envelopes):
            row = {"level": rec.level, "h": rec.h, "dt": rec.dt,
                   "T11": d.t1_1, "T12": d.t1_2, "R1": d.r1, "T2t": d.t2_tilde,
                   "R": d.r, "master_residual": d.master_residual,
                   "weak_gap": gap, "R1_envelope": r1_bound, "R_envelope": r_bound}
            rows.append({"phi_id": d.phi_id,
                         **{k: "%.17g" % v for k, v in row.items()}})
    return rows


def test_lw_verify_csv_schema_and_summary(tmp_path):
    # every column by name against the study, so a swapped column fails;
    # MUSCL is the one three-point flux
    for flux in ("upwind(1.0)", "muscl(1.0)"):
        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            f"family = uniform-1d\nn0 = 10\nflux = {flux}\nu0 = bump\n"
            "t_final = 0.5\ncfl = 0.5\nlevels = 2\nphi_count = 2\n"
        )
        out = tmp_path / flux
        assert run(["lw-verify", "--config", str(cfgp), "--out", str(out)]) == 0
        lines = (out / "lw_report.csv").read_text().splitlines()
        assert lines[2] == ("level,h,dt,phi_id,T11,T12,R1,T2t,R,"
                            "master_residual,weak_gap,R1_envelope,R_envelope")
        assert len(lines) == 3 + 2 * 2
        got = list(csv.DictReader(lines[2:]))
        assert got == _lw_report_rows(flux)
        summary = (out / "lw_summary.txt").read_text()
        assert "fitted slopes" in summary
        assert "master identity" in summary


def _downwind(monotone):
    """Upwind transport at speed 1 with the donor cell swapped: a planted
    defect that the solver's checks must catch at run time."""
    honest = upwind_linear([1.0])
    return dataclasses.replace(
        honest, name="downwind", monotone=monotone,
        evaluate=lambda uK, uL, bn, uKK=None, uLL=None: honest.evaluate(uL, uK, bn))


@pytest.mark.parametrize("monotone, failure", [
    (True, "maximum principle broken"),  # an InvariantViolation
    (False, "escaped the guard"),  # a BlowUpError
])
def test_exit_code_3_for_failed_verification_2_for_bad_config(
        tmp_path, capsys, monkeypatch, monotone, failure):
    out = str(tmp_path / "o")
    monkeypatch.setattr(cli, "resolve_flux", lambda spec, dim: _downwind(monotone))
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text("u0 = sine\nt_final = soon\nlevel = 2\n")
    assert run(["solve", "--config", str(cfgp), "--out", out]) == 2
    assert "t_final must be a number" in capsys.readouterr().err
    cfgp.write_text("u0 = sine\nt_final = 20\nlevel = 2\n")
    assert run(["solve", "--config", str(cfgp), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and failure in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # the run stopped mid-march: no history, no mesh, no temporary
    assert os.listdir(out) == []


def test_solve_allocates_less_than_its_history(tmp_path):
    # the history streams to its file as the run marches; only u^0 and u^N
    # stay in memory, for the snapshots
    cfgp = tmp_path / "s.cfg"
    cfgp.write_text("family = uniform-1d\nn0 = 10\nlevel = 4\nflux = upwind(1.0)\n"
                    "u0 = bump\nt_final = 1.5\ncfl = 0.45\n")
    out = tmp_path / "s"
    tracemalloc.start()
    try:
        assert run(["solve", "--config", str(cfgp), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid, vals = read_history(out / "history.npy")
    assert grid.n_steps > 200
    assert peak < vals.nbytes, (peak, vals.nbytes)


def test_outputs_get_the_permissions_of_the_umask(tmp_path):
    # every file is written through one atomic writer, whose temporary
    # must not keep a private mode
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("family = uniform-1d\nn0 = 10\nflux = upwind(1.0)\nu0 = bump\n"
                    "t_final = 0.5\ncfl = 0.5\nlevels = 2\nphi_count = 1\n")
    old = os.umask(0o022)
    try:
        # a temporary that a killed run with this process id left behind
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / f".snapshots.csv.{os.getpid()}.tmp").write_text("cut")
        for command in ("mesh-gen", "solve", "lw-verify"):
            assert run([command, "--config", str(cfgp),
                        "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    modes = {q.name: oct(q.stat().st_mode & 0o777)
             for q in (tmp_path / "o").iterdir()}
    assert sorted(modes) == ["history.npy", "lw_report.csv", "lw_summary.txt",
                             "mesh.txt", "mesh_0.txt", "mesh_1.txt",
                             "mesh_quality.csv", "snapshots.csv"]
    assert set(modes.values()) == {"0o644"}, modes


@pytest.mark.parametrize("subcommand, config, named", [
    pytest.param("solve", "t_final = inf", "t_final", id="t_final-inf"),
    pytest.param("solve", "family = cartesian-2d\nflux = rusanov(burgers:inf,0)",
                 "flux", id="burgers-direction-inf"),
    pytest.param("solve", "flux = upwind(nan)", "flux", id="upwind-nan"),
    pytest.param("solve", "family = nonuniform-1d\nratio = nan", "ratio",
                 id="ratio-nan"),
    # finite, but the per-cell wave-speed sum overflows and the step is 0
    pytest.param("solve", "flux = upwind(1e308)", "CFL step", id="cfl-step-zero"),
    # finite, but max|F'| on the flux's state range overflows
    pytest.param("solve", "flux = rusanov(burgers:1e308)", "c_f",
                 id="rusanov-c_f-inf"),
    pytest.param("mesh-gen", "family = triangular-2d\nseed = -1", "seed",
                 id="seed-negative"),
    # the corpus has four test functions
    pytest.param("lw-verify", "phi_count = 5\nlevels = 2", "phi_count",
                 id="phi_count-5"),
    # ran with c = 1 while the digest recorded constant(1,2)
    pytest.param("lw-verify", "u0 = constant(1,2)\nlevels = 2",
                 "u0 constant value takes 1 number", id="constant-two-numbers"),
])
def test_bad_numbers_exit_2_with_one_error_line(tmp_path, capsys, subcommand,
                                                config, named):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"u0 = sine\n{config}\n")
    assert run([subcommand, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_outputs_byte_identical_across_out_dir(tmp_path):
    for command, config, files in [
        ("lw-verify", "levels = 2\nphi_count = 2\n",
         ["lw_report.csv", "lw_summary.txt"]),
        ("solve", "level = 1\n", ["history.npy", "mesh.txt", "snapshots.csv"]),
    ]:
        cfgp = tmp_path / f"{command}.cfg"
        cfgp.write_text(
            "family = uniform-1d\nn0 = 10\nflux = upwind(1.0)\nu0 = bump\n"
            "t_final = 0.5\ncfl = 0.5\n" + config
        )
        a = tmp_path / command / "a"
        b = tmp_path / command / "b"
        assert run([command, "--config", str(cfgp), "--out", str(a)]) == 0
        assert run([command, "--config", str(cfgp), "--out", str(b)]) == 0
        assert sorted(p.name for p in a.iterdir()) == files
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# the three scenarios of the README
SCENARIO_CONFIGS = {
    "advection-1d": "family = uniform-1d\nn0 = 10\nflux = upwind(1.0)\n"
                    "u0 = bump\nt_final = 0.5\ncfl = 0.5\n",
    "burgers-riemann-1d": "family = uniform-1d\nn0 = 16\nflux = rusanov(burgers)\n"
                          "u0 = square(0.1,0.45)\nt_final = 0.5\ncfl = 0.45\n",
    "burgers-2d": "family = triangular-2d\nn0 = 4\njitter = 0.3\nseed = 0\n"
                  "flux = rusanov(burgers)\nu0 = sine\nt_final = 0.4\ncfl = 0.45\n",
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to pin a run to one")
@pytest.mark.parametrize("scenario", sorted(SCENARIO_CONFIGS))
def test_lw_verify_outputs_do_not_depend_on_the_cpus(tmp_path, scenario):
    # with two CPUs lw_study runs its coarser levels in a forked child; a
    # run pinned to one CPU runs them all in one process
    cfgp = tmp_path / "v.cfg"
    cfgp.write_text(SCENARIO_CONFIGS[scenario] + "levels = 3\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    outputs = []
    for pin in (None, lambda: os.sched_setaffinity(0, {0})):
        out = tmp_path / ("one-cpu" if pin else "two-cpus")
        proc = subprocess.run(
            [sys.executable, "-m", "lwfv.cli", "lw-verify", "--config", str(cfgp),
             "--out", str(out)],
            env=env, preexec_fn=pin, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("lw_report.csv", "lw_summary.txt")])
    assert outputs[0] == outputs[1]


def _readme_scenarios():
    """(subcommand, config) of every config block of the README's Scenarios
    section; a block belongs to the last `lwfv <subcommand>` named above it."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Scenarios\n", 1)[1].split("\n### ", 1)[0]
    parts = section.split("```")
    scenarios, command = [], None
    for prose, block in zip(parts[0::2], parts[1::2]):
        command = [command, *re.findall(r"`lwfv\s+([a-z-]+)", prose)][-1]
        scenarios.append((command, block.strip("\n") + "\n"))
    return scenarios


def _readme_files(command, levels):
    """The files the README's "Files written" section names for a
    subcommand, ``<level>`` spelled out for every level."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Files written\n", 1)[1].split("\n### ", 1)[0]
    item = re.search(rf"^- `{command}`:(.*?)(?=^- |\Z)", section, re.M | re.S)
    names = re.findall(r"`([\w<>]+\.(?:csv|txt))`", item.group(1))
    return sorted({n.replace("<level>", str(lvl)) for n in names
                   for lvl in range(levels)})


README_SCENARIOS = _readme_scenarios()


def test_readme_scenarios_section_has_its_five_blocks():
    assert [c for c, _ in README_SCENARIOS] == [
        "lw-verify", "lw-verify", "lw-verify", "translate-study", "mesh-gen"]


@pytest.mark.parametrize("command, config", README_SCENARIOS,
                         ids=[f"{i}-{c}" for i, (c, _) in enumerate(README_SCENARIOS)])
def test_readme_scenario_runs_and_writes_its_files(tmp_path, command, config):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(config)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfgp), "--out", str(out),
                "--levels", "2"]) == 0
    files = _readme_files(command, 2)
    assert files and sorted(p.name for p in out.iterdir()) == files


def test_square_sequence_matches_a_dense_midpoint_reference(tmp_path):
    # translate-study's sequence square(a, b) + bump / p keeps the interval
    # of the square, so its cell means take the square exactly.  The
    # reference is a composite midpoint rule whose pieces meet the jumps,
    # 2^15 per piece, within 1.1e-11 of the exact projection here (at p = 1)
    cfgp = tmp_path / "t.cfg"
    cfgp.write_text("family = nonuniform-1d\nn0 = 10\nu0 = square(0.25,0.65)\n")
    out = tmp_path / "t"
    assert run(["translate-study", "--config", str(cfgp), "--out", str(out),
                "--levels", "2"]) == 0
    rows = list(csv.reader((out / "translate_matrix.csv").read_text().splitlines()[2:]))
    header, level0 = rows[0], [float(x) for x in rows[1]]
    mesh = nonuniform_1d_family(10, ratio=2.0).build(0)
    lo, hi = cell_edges_1d(mesh)
    bump = polynomial_bump([0.5], [0.24], k=3)
    for p in range(1, 9):
        def fn(x, p=p):
            return (((x >= 0.25) & (x <= 0.65)).astype(float)
                    + bump.value(x[:, None], 0.0) / p)

        means = np.empty(mesh.n_cells)
        for c in range(mesh.n_cells):
            edges = np.unique(np.clip([lo[c], 0.25, 0.65, hi[c]], lo[c], hi[c]))
            pieces = dense_cell_means_1d(edges, fn, nsub=1 << 15)
            means[c] = np.dot(np.diff(edges), pieces) / (hi[c] - lo[c])
        want = brute_jump_seminorm(mesh, means)
        got = level0[header.index(f"T_p{p}")]
        assert abs(got - want) <= 1e-10, (p, got, want)


def test_mesh_gen_deterministic(tmp_path):
    cfgp = tmp_path / "m.cfg"
    cfgp.write_text("family = triangular-2d\nn0 = 4\njitter = 0.3\nlevels = 2\n")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["mesh-gen", "--config", str(cfgp), "--out", str(a)]) == 0
    assert run(["mesh-gen", "--config", str(cfgp), "--out", str(b)]) == 0
    assert (a / "mesh_1.txt").read_bytes() == (b / "mesh_1.txt").read_bytes()
    assert (a / "mesh_quality.csv").read_bytes() == \
        (b / "mesh_quality.csv").read_bytes()
