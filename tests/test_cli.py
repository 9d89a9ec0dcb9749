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
from pathlib import Path

import numpy as np
import pytest

from lwfv import cli, read_mesh
from lwfv.cli import ConfigError, resolve_flux, resolve_u0
from lwfv.consistency import lw_study
from lwfv.flux import upwind_linear
from lwfv.mesh import uniform_1d_family
from lwfv.operators import bump_corpus_spacetime
from lwfv.solver import Problem, read_history

from oracles import dense_cell_means_1d

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
    assert resolve_u0("square(0.2,0.6)", 1).kind == "indicator"
    with pytest.raises(ConfigError):
        resolve_u0("square(0.2,0.6)", 2)
    with pytest.raises(ConfigError):
        resolve_u0("mystery", 1)


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


def test_mesh_stats_rejects_malformed_file_with_exit_2(tmp_path, capsys):
    out = tmp_path / "m"
    run(["mesh-gen", "--out", str(out), "--levels", "1"])
    lines = (out / "mesh_0.txt").read_text().splitlines(keepends=True)
    face = next(i for i, x in enumerate(lines) if x.startswith("face 1 "))
    cell = next(i for i, x in enumerate(lines) if x.startswith("cell 2 "))
    missing_cell = lines.copy()
    parts = missing_cell[face].split()
    parts[5] = "70"  # L of a 1d face line
    missing_cell[face] = " ".join(parts) + "\n"
    truncated = lines.copy()
    truncated[cell] = "cell 2 0.1\n"
    box = next(i for i, x in enumerate(lines) if x.startswith("# box "))
    short_box, bad_box = lines.copy(), lines.copy()
    short_box[box] = "# box 0\n"  # a 1d box needs two values
    bad_box[box] = "# box 0 one\n"
    policy = next(i for i, x in enumerate(lines) if x.startswith("# policy "))
    bogus_policy, equal_policy = lines.copy(), lines.copy()
    bogus_policy[policy] = "# policy bogus\n"
    equal_policy[policy] = "# policy equal\n"  # a construction no longer built
    for name, text in (("missing", missing_cell), ("truncated", truncated),
                       ("short_box", short_box), ("bad_box", bad_box),
                       ("bogus_policy", bogus_policy),
                       ("equal_policy", equal_policy)):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(text))
        cfgp = tmp_path / f"{name}.cfg"
        cfgp.write_text(f"mesh_file = {path}\n")
        assert run(["mesh-stats", "--config", str(cfgp)]) == 2, name
        assert "error:" in capsys.readouterr().err


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
    grid, vals, meta = read_history(str(out / "history.txt"))
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


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_outputs_byte_identical_across_out_dir(tmp_path):
    cfgp = tmp_path / "v.cfg"
    cfgp.write_text(
        "family = uniform-1d\nn0 = 10\nflux = upwind(1.0)\nu0 = bump\n"
        "t_final = 0.5\ncfl = 0.5\nlevels = 2\nphi_count = 2\n"
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["lw-verify", "--config", str(cfgp), "--out", str(a)]) == 0
    assert run(["lw-verify", "--config", str(cfgp), "--out", str(b)]) == 0
    assert (a / "lw_report.csv").read_bytes() == (b / "lw_report.csv").read_bytes()
    assert (a / "lw_summary.txt").read_bytes() == (b / "lw_summary.txt").read_bytes()


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
