import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import linalg as spla

import exdep
from exdep.cli import main
from exdep.fem import FemSystem, fem_assemble
from exdep.mesh import lattice_mesh_2d


def run_cli(args):
    return main(args)


def run_module(*args):
    """``python -m exdep.cli`` in a child process that imports the same exdep."""
    path = [str(Path(exdep.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "exdep.cli", *args], capture_output=True,
                          env=env)


def test_unknown_subcommand_exits_2():
    assert run_module("frobnicate").returncode == 2


def test_missing_required_flag_exits_2():
    assert run_module("matern-eta").returncode == 2


def test_eta_subcommand_matches_closed_form(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.0,0.3\n0.5,1.0\n")
    out = tmp_path / "summary.json"
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["regime"] == "AsymptoticIndependence"
    assert obj["eta"] == pytest.approx((1 - 0.15) / (2 - 0.8), abs=1e-12)
    assert obj["chi"] is None
    # schema validation runs on write; invalid structure would have raised


def test_eta_subcommand_boundary(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.0,1.0,0.0\n1.0,0.0,1.0\n")
    out = tmp_path / "summary.json"
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["regime"] == "Boundary"
    assert obj["eta"] == 1.0


def test_chi_vs_a22_csv(tmp_path):
    out = tmp_path / "chi.csv"
    params = tmp_path / "params.json"
    params.write_text(json.dumps([
        {"lambda": -0.5, "tau": 1.0, "psi": 1.0},
        {"lambda": 1.0, "tau": 1.0, "psi": 1.0},
    ]))
    code = run_cli(["chi-vs-a22", "--out", str(out), "--params", str(params),
                    "--a22-grid", "0.5,0.7,0.9"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,tau,psi,a22,chi"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 4  # grid of three plus one limit row per set
    # limit rows: lambda >= 0 should give exactly zero
    limits = {float(r[0]): float(r[4]) for r in rows if float(r[3]) == 1.0}
    assert limits[1.0] == 0.0
    assert limits[-0.5] > 0.0


def test_ou_convergence_csv_and_gap(tmp_path, capsys):
    out = tmp_path / "ou.csv"
    code = run_cli(["ou-convergence", "--out", str(out),
                    "--deltas", "0.4,0.2", "--h-grid", "0.4,0.8,1.2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,h,eta_n,eta_limit"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(data[:, 2] >= data[:, 3] - 1e-12)


def test_counterexample_decreasing_with_n(tmp_path):
    out = tmp_path / "counter.csv"
    code = run_cli(["counterexample", "--out", str(out), "--seed", "3",
                    "--samples", "200000", "--n-values", "1,10,100"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,q,chi_hat,se"
    chi = [float(line.split(",")[2]) for line in lines[1:]]
    assert chi[0] > chi[-1]  # decays toward the noise-only level


def test_matern_eta_small_run_byte_reproducible(tmp_path):
    args = ["matern-eta", "--seed", "11", "--alphas", "3",
            "--mesh-nodes", "10", "--n-sites", "4", "--extension", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "alpha,method,h,eta,eta_thm1,eta_conjecture"
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"integral", "fem"}


def test_simulate_and_chi_header_only_when_empty(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate-and-chi", "--seed", "5", "--out", str(out),
                    "--samples", "0", "--mesh-nodes", "5", "--n-sites", "3",
                    "--extension", "1"])
    assert code == 0
    assert out.read_text().splitlines() == ["mesh_side,pair_id,h,q,chi_hat,se"]


def test_simulate_and_chi_small_run(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate-and-chi", "--seed", "5", "--out", str(out),
                    "--samples", "20000", "--mesh-nodes", "6", "--n-sites", "4",
                    "--extension", "1", "--q", "0.9,0.95"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mesh_side,pair_id,h,q,chi_hat,se"
    assert len(lines) == 1 + 6 * 2  # six pairs, two levels


def test_simulate_and_chi_bytes_do_not_depend_on_threads(tmp_path):
    args = ["simulate-and-chi", "--seed", "5", "--samples", "20000", "--mesh-nodes", "6",
            "--n-sites", "4", "--extension", "1"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run_cli(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert run_cli(args + ["--threads", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_and_chi_tampered_solve_exits_1(tmp_path, monkeypatch):
    real = FemSystem._factor  # K_2 solves off by a relative 1e-6
    monkeypatch.setattr(FemSystem, "_factor", lambda self: SimpleNamespace(
        solve=lambda rhs, lu=real(self): lu.solve(rhs) * (1.0 + 1e-6)))
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate-and-chi", "--seed", "5", "--out", str(out),
                    "--samples", "1000", "--mesh-nodes", "5", "--n-sites", "3",
                    "--extension", "1"])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["5", "6"])
def test_simulate_and_chi_runs_high_alpha(tmp_path, alpha):
    # the relative residual of these correct solves passes 1e-10 on the side-25 mesh
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate-and-chi", "--seed", "1", "--samples", "400", "--alpha", alpha,
                    "--appendix-d", "--n-sites", "3", "--q", "0.9", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 3  # three sides, three pairs


@pytest.mark.parametrize("threads", ["0", "-5", "two"])
def test_simulate_and_chi_rejects_threads_below_one(tmp_path, threads):
    out = tmp_path / "sim.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate-and-chi", "--seed", "1", "--samples", "100", "--mesh-nodes", "4",
                 "--n-sites", "3", "--extension", "1", "--threads", threads, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "two"])
def test_simulate_and_chi_rejects_bad_exdep_threads(tmp_path, monkeypatch, value):
    monkeypatch.setenv("EXDEP_THREADS", value)
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate-and-chi", "--seed", "1", "--samples", "100", "--mesh-nodes", "4",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_chi_vs_a22_quadrature_failure_exits_1(tmp_path, monkeypatch, capsys):
    from scipy import integrate

    real = integrate.quad
    monkeypatch.setattr(integrate, "quad",
                        lambda *a, **k: real(*a, **k)[:3] + ("roundoff error is detected",))
    out = tmp_path / "chi.csv"
    assert run_cli(["chi-vs-a22", "--out", str(out), "--a22-grid", "0.5,0.7"]) == 1
    assert not out.exists()
    assert "roundoff error is detected" in capsys.readouterr().err


def test_eta_summary_validation_matches_jsonschema():
    import jsonschema

    from exdep.cli import _validate_summary

    schema = json.loads(resources.files("exdep.schemas")
                        .joinpath("tail_summary.schema.json").read_text())
    for bad in ({"regime": "Nope", "eta": 0.7, "eta_method": "closed_form"},
                {"regime": "Boundary", "eta": 2.0, "eta_method": "closed_form", "x": 1}):
        with pytest.raises(jsonschema.ValidationError) as ours:
            _validate_summary(bad)
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(bad, schema)
        assert ours.value.message == ref.value.message


def test_matern_eta_factors_once_for_all_odd_alphas(tmp_path, monkeypatch):
    grid = lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), 8, 1)
    n_shifts = len(fem_assemble(grid, 2.0, 2).quadrature.shifts)
    calls = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: calls.append(1) or real_splu(a, **kw))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("dense eigh called"))
    out = tmp_path / "m.csv"
    assert run_cli(["matern-eta", "--seed", "2", "--alphas", "2,3,4,5", "--mesh-nodes", "8",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)]) == 0
    assert len(calls) == 1 + n_shifts  # K_2 once, each shift once


def test_matern_eta_backward_error_exits_1(tmp_path, monkeypatch, capsys):
    real = FemSystem._factor  # K_2 solves off by a relative 1e-6
    monkeypatch.setattr(FemSystem, "_factor", lambda self: SimpleNamespace(
        solve=lambda rhs, lu=real(self): lu.solve(rhs) * (1.0 + 1e-6)))
    out = tmp_path / "m.csv"
    assert run_cli(["matern-eta", "--seed", "2", "--alphas", "3", "--mesh-nodes", "8",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "backward error" in capsys.readouterr().err


def test_matern_eta_small_kappa_odd_alphas(tmp_path, capsys):
    # kappa^2 alone would bound the spectrum ratio of S by 5e8, past MAX_RATIO
    out = tmp_path / "m.csv"
    args = ["matern-eta", "--seed", "2", "--alphas", "3,5", "--mesh-nodes", "8",
            "--n-sites", "3", "--extension", "1", "--out", str(out)]
    assert run_cli(args + ["--kappa", "1e-3"]) == 0
    assert len(out.read_text().splitlines()) > 1
    out.unlink()
    assert run_cli(args + ["--kappa", "1e-9"]) == 1
    assert not out.exists()
    assert "too small for odd alpha" in capsys.readouterr().err


def test_numerical_error_exits_1(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.0,-0.3\n0.5,1.0\n")  # negative coefficient
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(tmp_path / "o.json")]) == 1


def test_matern_eta_rejects_non_integer_alpha(tmp_path):
    out = tmp_path / "a.csv"
    code = run_cli(["matern-eta", "--seed", "1", "--alphas", "2.5", "--mesh-nodes", "6",
                    "--extension", "1", "--n-sites", "3", "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["counterexample", "--seed", "1", "--params", "x.json"],
    ["counterexample", "--seed", "1", "--paper-scale"],
    ["counterexample", "--seed", "1", "--threads", "8"],
    ["chi-vs-a22", "--seed", "1"],
    ["ou-convergence", "--params", "x.json"],
    ["simulate-and-chi", "--seed", "1", "--appendix-d", "--mesh-nodes", "5"],
])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, argv):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["matern-eta", "--seed", "1", "--n-sites", "0"],
    ["matern-eta", "--seed", "1", "--mesh-nodes", "0"],
    ["simulate-and-chi", "--seed", "1", "--n-sites", "0"],
    ["simulate-and-chi", "--seed", "1", "--mesh-nodes", "0"],
    ["counterexample", "--seed", "1", "--samples", "0"],
    ["counterexample", "--seed", "1", "--n-values", "0"],
    ["counterexample", "--seed", "1", "--n-values", "1,-10"],
])
def test_flags_zero_count_exits_2(tmp_path, argv):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_matern_eta_rows_equal_the_per_pair_closed_form(tmp_path):
    from exdep import fem, kernels, mesh
    from exdep.cli import random_sites
    from exdep.lintrans import CoefficientMatrix, eta_closed_form

    out = tmp_path / "m.csv"
    assert run_cli(["matern-eta", "--seed", "4", "--alphas", "2,3,5", "--mesh-nodes", "8",
                    "--extension", "1", "--n-sites", "5", "--out", str(out)]) == 0
    grid = mesh.lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), 8, 1)
    sites = random_sites(np.random.default_rng(4), 5)
    lines = ["alpha,method,h,eta,eta_thm1,eta_conjecture"]
    for alpha in (2.0, 3.0, 5.0):
        kern = kernels.matern_kernel(2.0, alpha, 2)
        g0 = kern.value_at_zero
        rows = {"integral": mesh.integral_coefficients(kern, sites, grid).normalized,
                "fem": fem.fem_coefficients(fem.fem_assemble(grid, 2.0, alpha), sites).normalized}
        for i in range(5):
            for j in range(i + 1, 5):
                h = float(np.linalg.norm(sites[i] - sites[j]))
                thm1 = 0.5 if np.isinf(g0) else 0.5 + float(kern(h)) / (2.0 * g0)
                conj = kernels.limit_eta_conjecture(kern, h)
                for method in ("integral", "fem"):
                    eta = eta_closed_form(CoefficientMatrix(rows[method][[i, j]]))
                    lines.append(f"{alpha!r},{method},{h!r},{eta!r},{thm1!r},{conj!r}")
    assert out.read_text().splitlines() == lines
