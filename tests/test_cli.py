import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import linalg as spla

import exdep
from exdep.cli import main
from exdep.fem import fem_assemble
from exdep.mesh import Mesh2D, lattice_mesh_2d


def run_cli(args):
    return main(args)


def run_python(*args):
    """``python *args`` in a child process that imports the same exdep."""
    path = [str(Path(exdep.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def run_module(*args):
    """``python -m exdep.cli`` in a child process."""
    return run_python("-m", "exdep.cli", *args)


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


@pytest.mark.parametrize("text, message", [
    ("1,0.5\n0.5\n", "line 2: 1 entries, but the first row has 2"),
    ("1,0.5\n\n0.5,x\n", "line 3: non-numeric entry"),
    ("\n", "no rows"),
])
def test_eta_subcommand_names_the_file_and_line_of_a_bad_matrix(tmp_path, capsys, text, message):
    matrix = tmp_path / "m.csv"
    matrix.write_text(text)
    out = tmp_path / "summary.json"
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {matrix}") and message in err
    assert not out.exists()


def test_eta_subcommand_needs_two_rows(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1,0.5,0\n0,0.5,1\n0,1,1\n")
    assert run_cli(["eta", "--matrix", str(matrix)]) == 1
    assert "two rows" in capsys.readouterr().err


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


@pytest.mark.parametrize("horizon", ["4.5", "5"])
def test_ou_convergence_runs_at_horizons_off_the_delta_grid(tmp_path, horizon):
    # 4.5 and 5 are no multiple of delta 0.4: the partition still runs on
    # whole cells through s1, so no eta_n falls below its limit (beyond
    # rounding: where the two agree, they differ in the last bits)
    out = tmp_path / "ou.csv"
    assert run_cli(["ou-convergence", "--T", horizon, "--out", str(out)]) == 0
    data = np.array([[float(v) for v in line.split(",")]
                     for line in out.read_text().splitlines()[1:]])
    assert data[:, 1].max() == pytest.approx(float(horizon))
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


def test_counterexample_holds_two_sample_arrays():
    import tracemalloc

    from exdep import cli

    n_samples = 200_000
    cli._counterexample_chi(np.random.default_rng(0), 10, 1000, 0.9)  # warm up
    tracemalloc.start()
    try:
        est = cli._counterexample_chi(np.random.default_rng(1), 10, n_samples, 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_conditioning == 200
    # heavy and one noise array, the column copy np.partition makes, two
    # masks and 256 kB of slack; a second noise array adds 1.6 MB
    held = 8 * (2 * n_samples + n_samples) + 2 * n_samples
    assert peak <= held + 256 * 1024


@pytest.mark.parametrize("q", [0.0, 1.0, float("nan")])
def test_counterexample_chi_checks_q(q):
    from exdep import cli
    from exdep.errors import DomainError

    with pytest.raises(DomainError, match="strictly inside"):
        cli._counterexample_chi(np.random.default_rng(0), 10, 1000, q)


@pytest.mark.parametrize("samples", ["1", "999"])
def test_counterexample_too_few_samples_exits_2_before_drawing(tmp_path, monkeypatch, samples):
    # at q = 0.999 fewer than 1,000 samples leave no rank r/(n+1) above q
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: pytest.fail("drew samples despite a usage error"))
    out = tmp_path / "counter.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["counterexample", "--seed", "1", "--samples", samples, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_counterexample_runs_at_the_fewest_samples(tmp_path):
    from exdep.estimate import LowCountWarning

    out = tmp_path / "counter.csv"
    with pytest.warns(LowCountWarning, match="only 1 exceedances"):
        assert run_cli(["counterexample", "--seed", "1", "--samples", "1000",
                        "--n-values", "1,10", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_parser_is_built_once_and_shares_no_mutable_default():
    from exdep.cli import build_parser

    assert build_parser() is build_parser()
    parse = build_parser().parse_args
    assert parse(["matern-eta", "--seed", "1", "--out", "o", "--alphas", "3"]).alphas == [3.0]
    assert parse(["matern-eta", "--seed", "1", "--out", "o"]).alphas == (2.0, 3.0, 4.0, 5.0)
    minimal = {"chi-vs-a22": [], "ou-convergence": [], "matern-eta": ["--seed", "1"],
               "simulate-and-chi": ["--seed", "1"], "eta": ["--matrix", "m.csv"],
               "counterexample": ["--seed", "1"]}
    for name, flags in minimal.items():
        values = vars(parse([name, "--out", "o", *flags])).values()
        assert not any(isinstance(v, (list, dict, set)) for v in values), name


def test_usage_error_exits_2_after_a_successful_call(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.0,0.3\n0.5,1.0\n")
    out = tmp_path / "summary.json"
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(out)]) == 0
    for argv in (["eta", "--out", str(out)], ["eta", "--matrix", str(matrix), "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
    assert run_cli(["eta", "--matrix", str(matrix), "--out", str(out)]) == 0


SCIPY_SUBPACKAGES = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.stats",
                     "scipy.sparse")

LOADS_SCRIPT = """
import json
import sys

from exdep import cli, estimate, lintrans

work, argv = sys.argv[1], json.loads(sys.argv[2])
if argv == ["oracle"]:
    lintrans.eta_gauge_oracle(lintrans.CoefficientMatrix([[1.0, 0.3, 0.0], [0.5, 1.0, 0.25]]))
elif argv == ["exceedances"]:  # ranks 2..4 tie at the cut, and their average 3/6 is not above q
    assert estimate.exceedances([0.0, 1.0, 1.0, 1.0, 2.0], 0.5).tolist() == [False] * 4 + [True]
elif argv:
    assert cli.main(argv + ["--out", f"{work}/out"]) == 0, argv
print(json.dumps(sorted(m for m in %r if m in sys.modules)))
""" % (SCIPY_SUBPACKAGES,)

# (argv after ``from exdep import cli, estimate, lintrans``, the scipy subpackages
# it loads); an empty argv only imports, ["oracle"] calls eta_gauge_oracle, and
# ["exceedances"] masks a column tied at the cut
SCIPY_LOADS = {
    "import": ([], []),
    "simulate-and-chi": (["simulate-and-chi", "--seed", "1", "--samples", "4000",
                          "--mesh-nodes", "5", "--n-sites", "4", "--extension", "1",
                          "--q", "0.95,0.975,0.99"], ["scipy.sparse"]),
    "counterexample": (["counterexample", "--seed", "1", "--samples", "4000",
                        "--n-values", "1,10,100"], []),
    "eta": (["eta", "--matrix", "{work}/m.csv"], []),
    "matern-eta": (["matern-eta", "--seed", "1", "--alphas", "2,3,4,5", "--mesh-nodes", "8",
                    "--extension", "1", "--n-sites", "4"], ["scipy.sparse", "scipy.special"]),
    "ou-convergence": (["ou-convergence", "--deltas", "0.4,0.2", "--h-grid", "0.4,0.8"], []),
    "chi-vs-a22": (["chi-vs-a22", "--a12", "0.3", "--a22-grid", "0.5,0.9"],
                   ["scipy.special"]),
    "oracle": (["oracle"], []),
    "exceedances": (["exceedances"], []),
}


@pytest.mark.parametrize("row", SCIPY_LOADS)
def test_scipy_subpackages_loaded_by(tmp_path, row):
    # a fresh process per row: pytest has already loaded every subpackage in this one
    argv, expected = SCIPY_LOADS[row]
    (tmp_path / "m.csv").write_text("1.0,0.3,0.0\n0.5,1.0,0.25\n")
    argv = [a.format(work=tmp_path) for a in argv]
    proc = run_python("-c", LOADS_SCRIPT, str(tmp_path), json.dumps(argv))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.splitlines()[-1]) == expected  # after the command's prints


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


@pytest.mark.parametrize("flags", [
    ["--q", "1.5"],
    ["--q", "0.9,1"],
    ["--q", "0"],
    ["--q", "nan"],
    ["--q", ","],
    ["--samples", "-1"],
    ["--n-sites", "1"],
])
def test_simulate_and_chi_usage_errors_exit_2_before_simulating(tmp_path, monkeypatch, flags):
    from exdep import fem

    monkeypatch.setattr(fem, "simulate_field",
                        lambda *a, **k: pytest.fail("simulated despite a usage error"))
    out = tmp_path / "sim.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate-and-chi", "--seed", "5", "--samples", "100", "--mesh-nodes", "5",
                 "--n-sites", "3", "--extension", "1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_simulate_and_chi_small_run(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate-and-chi", "--seed", "5", "--out", str(out),
                    "--samples", "20000", "--mesh-nodes", "6", "--n-sites", "4",
                    "--extension", "1", "--q", "0.9,0.95"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mesh_side,pair_id,h,q,chi_hat,se"
    assert len(lines) == 1 + 6 * 2  # six pairs, two levels


def test_simulate_and_chi_takes_one_mask_at_a_time(tmp_path, monkeypatch):
    import weakref

    from exdep import cli, estimate, fem

    argv = ["simulate-and-chi", "--seed", "5", "--samples", "20000", "--mesh-nodes", "6",
            "--n-sites", "4", "--extension", "1", "--q", "0.9,0.95,0.99"]
    real = estimate.exceedances
    masks = []

    def tracked(x, q):
        assert all(ref() is None for ref in masks)  # the last level's mask is freed
        mask = real(x, q)
        masks.append(weakref.ref(mask))
        return mask

    monkeypatch.setattr(estimate, "exceedances", tracked)
    out = tmp_path / "one.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert len(masks) == 3
    # the same rows as every level's mask held at once, pair by pair
    args = cli.build_parser().parse_args(argv + ["--out", "-"])
    sites = cli.random_sites(np.random.default_rng(5), 4)
    system = fem.fem_assemble(lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), 6, 1), 2.0)
    x = fem.simulate_field(system, 2, sites, fem.TypeGNoise("nig", **cli.DEFAULT_NIG_NOISE),
                           20000, 5)
    above = [real(x, q) for q in args.q]
    lines = ["mesh_side,pair_id,h,q,chi_hat,se"]
    pair_id = 0
    for i in range(4):
        for j in range(i + 1, 4):
            h = float(np.linalg.norm(sites[i] - sites[j]))
            for q, mask in zip(args.q, above):
                est = estimate.chi_from_exceedances(mask[:, i], mask[:, j], q)
                lines.append(f"6,{pair_id},{h!r},{q!r},{est.value!r},{est.se!r}")
            pair_id += 1
    assert out.read_text() == "\n".join(lines) + "\n"


def test_simulate_and_chi_bytes_do_not_depend_on_threads(tmp_path):
    args = ["simulate-and-chi", "--seed", "5", "--samples", "20000", "--mesh-nodes", "6",
            "--n-sites", "4", "--extension", "1"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run_cli(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert run_cli(args + ["--threads", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_and_chi_tampered_solve_exits_1(tmp_path, tamper_k2_solves):
    tamper_k2_solves()
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


@pytest.mark.parametrize("flags", [["--alpha", "9"], ["--kappa", "-1"], ["--kappa", "nan"]])
def test_simulate_and_chi_checks_alpha_and_kappa_before_any_mesh(tmp_path, monkeypatch, flags):
    monkeypatch.setattr(exdep.mesh, "lattice_mesh_2d", lambda *a, **k: pytest.fail("mesh built"))
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate-and-chi", "--seed", "1", "--samples", "0", "--mesh-nodes", "4",
                    "--n-sites", "3", "--extension", "1", *flags, "--out", str(out)]) == 1
    assert not out.exists()


def test_chi_vs_a22_quadrature_failure_exits_1(tmp_path, monkeypatch, capsys):
    from exdep import exptail

    # a tolerance of zero cannot be met within 400 subintervals
    monkeypatch.setattr(exptail, "_EPSABS", 0.0)
    monkeypatch.setattr(exptail, "_EPSREL", 0.0)
    out = tmp_path / "chi.csv"
    assert run_cli(["chi-vs-a22", "--out", str(out), "--a22-grid", "0.5,0.7"]) == 1
    assert not out.exists()
    assert "missed its tolerance within 400 subintervals" in capsys.readouterr().err


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


@pytest.mark.parametrize("change", [
    {"chi": 0.4}, {"chi_se": 0.01}, {"chi_method": "monte_carlo"},
    {"chi_method": "quadrature"}, {"chi_method": "limit_formula"}, {"eta_method": "oracle"},
])
def test_eta_summary_schema_admits_only_what_the_program_writes(change):
    import jsonschema

    from exdep.cli import _validate_summary

    golden = json.loads((Path(__file__).parent / "fixtures" / "golden" / "eta.json").read_text())
    _validate_summary(golden)
    with pytest.raises(jsonschema.ValidationError):
        _validate_summary({**golden, **change})
    missing = dict(golden)
    del missing[next(iter(change))]
    with pytest.raises(jsonschema.ValidationError):
        _validate_summary(missing)


def test_matern_eta_factors_once_for_all_odd_alphas(tmp_path, monkeypatch):
    grid = lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), 8, 1)
    n_shifts = len(fem_assemble(grid, 2.0).quadrature.shifts)
    calls = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: calls.append(1) or real_splu(a, **kw))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("dense eigh called"))
    out = tmp_path / "m.csv"
    assert run_cli(["matern-eta", "--seed", "2", "--alphas", "2,3,4,5", "--mesh-nodes", "8",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)]) == 0
    assert len(calls) == 1 + n_shifts  # K_2 once, each shift once


def test_matern_eta_solves_each_step_of_the_alpha_sweep_once(tmp_path, monkeypatch):
    grid = lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), 8, 1)
    n_shifts = len(fem_assemble(grid, 2.0).quadrature.shifts)
    solves, locates = [], []
    real_splu, real_locate = spla.splu, Mesh2D.locate

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(1)
            return self.lu.solve(rhs)

    monkeypatch.setattr(spla, "splu", lambda a, **kw: CountedLU(real_splu(a, **kw)))
    monkeypatch.setattr(Mesh2D, "locate",
                        lambda self, point: locates.append(1) or real_locate(self, point))
    out = tmp_path / "m.csv"
    assert run_cli(["matern-eta", "--seed", "2", "--alphas", "2,3,4,5", "--mesh-nodes", "8",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)]) == 0
    # 8 inverse iterations behind the spectrum bound, 4 K_2 steps (K_2^{-1} rhs,
    # then one K_2^{-1} C step each for alphas 3, 4 and 5), and 3 applications
    # of R, n_shifts solves each: alpha 3's solve and the backward-error checks
    # of alphas 3 and 5
    assert len(solves) == 8 + 4 + 3 * n_shifts
    assert len(locates) == 3  # each site once, for all four alphas


def test_matern_eta_alpha_order_gives_the_rows_of_fresh_systems(tmp_path):
    argv = ["matern-eta", "--seed", "5", "--mesh-nodes", "8", "--extension", "1",
            "--n-sites", "4"]
    out = tmp_path / "all.csv"
    assert run_cli(argv + ["--alphas", "5,2,4,3", "--out", str(out)]) == 0
    lines = ["alpha,method,h,eta,eta_thm1,eta_conjecture"]
    for alpha in ("5", "2", "4", "3"):  # one process-local system per run
        one = tmp_path / f"{alpha}.csv"
        assert run_cli(argv + ["--alphas", alpha, "--out", str(one)]) == 0
        lines += one.read_text().splitlines()[1:]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("alphas", ["5,2.5", "2,7"])
def test_matern_eta_checks_every_alpha_before_computing(tmp_path, monkeypatch, alphas):
    monkeypatch.setattr(spla, "splu", lambda *a, **k: pytest.fail("K_2 factored"))
    monkeypatch.setattr(exdep.mesh, "lattice_mesh_2d", lambda *a, **k: pytest.fail("mesh built"))
    out = tmp_path / "a.csv"
    assert run_cli(["matern-eta", "--seed", "1", "--alphas", alphas, "--mesh-nodes", "6",
                    "--extension", "1", "--n-sites", "3", "--out", str(out)]) == 1
    assert not out.exists()


def test_matern_eta_backward_error_exits_1(tmp_path, tamper_k2_solves, capsys):
    tamper_k2_solves()
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
    ["matern-eta", "--seed", "1", "--paper-scale", "--n-sites", "3"],
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
    ["matern-eta", "--seed", "1", "--mesh-nodes", "1"],
    ["matern-eta", "--seed", "1", "--extension", "-1"],
    ["simulate-and-chi", "--seed", "1", "--mesh-nodes", "1"],
    ["simulate-and-chi", "--seed", "1", "--extension", "-1"],
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
        kern = kernels.matern_kernel(2.0, alpha)
        g0 = kern.value_at_zero
        rows = {"integral": mesh.integral_coefficients(kern, sites, grid).normalized,
                "fem": next(fem.fem_coefficients(fem.fem_assemble(grid, 2.0), sites,
                                                 [alpha])).normalized}
        for i in range(5):
            for j in range(i + 1, 5):
                h = float(np.linalg.norm(sites[i] - sites[j]))
                thm1 = 0.5 if np.isinf(g0) else 0.5 + float(kern(h)) / (2.0 * g0)
                conj = kernels.limit_eta_conjecture(kern, h)
                for method in ("integral", "fem"):
                    eta = eta_closed_form(CoefficientMatrix(rows[method][[i, j]]))
                    lines.append(f"{alpha!r},{method},{h!r},{eta!r},{thm1!r},{conj!r}")
    assert out.read_text().splitlines() == lines


@pytest.mark.parametrize("flags", [
    ["--deltas", "0"],
    ["--deltas", "0.4,-0.2"],
    ["--deltas", ","],
    ["--h-grid", "0,0.4"],
    ["--h-grid", "inf"],
    ["--T", "-1"],
    ["--T", "0.05"],
    ["--T", "nan"],
    ["--s1", "nan"],
    ["--a", "inf"],
])
def test_ou_convergence_usage_errors_exit_2_before_computing(tmp_path, monkeypatch, flags):
    from exdep import mesh

    monkeypatch.setattr(mesh, "partition_1d",
                        lambda *a, **k: pytest.fail("computed despite a usage error"))
    out = tmp_path / "ou.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["ou-convergence", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_matern_eta_single_site_exits_2(tmp_path):
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["matern-eta", "--seed", "1", "--n-sites", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan", "inf"])
@pytest.mark.parametrize("command", ["matern-eta", "simulate-and-chi"])
def test_non_finite_kappa_exits_1_naming_kappa(tmp_path, capsys, command, kappa):
    out = tmp_path / "o.csv"
    assert run_cli([command, "--seed", "1", "--kappa", kappa, "--mesh-nodes", "5",
                    "--n-sites", "3", "--extension", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "kappa must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chi-vs-a22", "--a22-grid", ","],
    ["chi-vs-a22", "--a22-grid", "0.5,nan"],
    ["chi-vs-a22", "--a22-grid", "inf"],
    ["matern-eta", "--seed", "1", "--alphas", ","],
    ["matern-eta", "--seed", "1", "--alphas", "2,nan"],
])
def test_empty_or_non_finite_lists_exit_2(tmp_path, argv):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_chi_vs_a22_a22_outside_the_unit_interval_exits_1(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["chi-vs-a22", "--a22-grid", "0.5,1.5", "--out", str(out)]) == 1
    assert not out.exists()


def test_chi_vs_a22_grid_point_one_exits_1(tmp_path, capsys):
    # a22 = 1 is the limit row of every law, not a grid point
    out = tmp_path / "c.csv"
    assert run_cli(["chi-vs-a22", "--a22-grid", "0.5,1.0", "--out", str(out)]) == 1
    assert not out.exists()
    assert "[0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.9,0.5", "0.1,0.2", "0.2,0.3,0.9,0.3,0.25"])
def test_chi_vs_a22_takes_any_grid_in_the_unit_interval(tmp_path, grid):
    # every default law's chi rises up to a22 = a12 = 0.3, where it is 1, and falls above
    out = tmp_path / "c.csv"
    assert run_cli(["chi-vs-a22", "--a22-grid", grid, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    a22 = grid.split(",") + ["1.0"]
    assert [row[3] for row in rows] == a22 * 12  # the grid in the user's order, then the limit
    for law in range(12):
        chi = {float(row[3]): float(row[4]) for row in rows[law * len(a22):][:len(a22) - 1]}
        curve = [chi[a] for a in sorted(chi)]
        peak = curve.index(max(curve))
        assert np.all(np.diff(curve[:peak + 1]) > 0) and np.all(np.diff(curve[peak:]) < 0)


@pytest.mark.parametrize("grid, values", [("0.1,0.2", [0.5, 0.4]), ("0.6,0.5", [0.5, 0.4])])
def test_chi_vs_a22_curve_off_its_shape_exits_1(tmp_path, monkeypatch, capsys, grid, values):
    # a fall below a12 = 0.3, and a rise above it
    monkeypatch.setattr(exdep.cli, "chi_gh_two", lambda *a: np.array([*values, 0.0]))
    out = tmp_path / "c.csv"
    assert run_cli(["chi-vs-a22", "--a22-grid", grid, "--out", str(out)]) == 1
    assert not out.exists()
    assert "not strictly rising up to a22 = a12" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    '[{"lambda": -0.5, "tau": 1.0}]',
    '{"a": 1}',
    '[{"a": 1}]',
    '[]',
    '[1.0]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": NaN}]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": Infinity}]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": "1"}]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": true}]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": 1%s}]' % ("0" * 400),
    '[{"lambda": -0.5, "tau": 1.0, "psi": 1.0, "mu": 2.0}]',
    '[{"lambda": -0.5, "tau": 1.0, "psi": 1.0}',
    None,
], ids=["missing-key", "object", "wrong-keys", "empty", "number", "nan", "inf", "string",
        "bool", "huge-int", "extra-key", "bad-json", "no-file"])
def test_chi_vs_a22_malformed_params_exit_2_before_quadrature(tmp_path, monkeypatch, spec):
    from exdep import cli

    monkeypatch.setattr(cli, "chi_gh_two",
                        lambda *a, **k: pytest.fail("quadrature despite a usage error"))
    params = tmp_path / "params.json"
    if spec is not None:
        params.write_text(spec)
    out = tmp_path / "chi.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["chi-vs-a22", "--params", str(params), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_chi_vs_a22_concentrated_law_gives_the_unit_laws_curve(tmp_path):
    # GH(1, 1e-6, 1e6) is GH(1, 1, 1) shrunk by 1e-3 (standard deviation about
    # 1e-3), and chi does not see a common scale of the noise
    params = tmp_path / "params.json"
    params.write_text(json.dumps([{"lambda": 1.0, "tau": tau, "psi": psi} for tau, psi in
                                  [(1.0, 1.0), (1e-6, 1e6), (1e6, 1e-6)]]))
    out = tmp_path / "chi.csv"
    assert run_cli(["chi-vs-a22", "--params", str(params), "--a22-grid", "0.5,0.7,0.9",
                    "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1).reshape(3, 4, 5)
    np.testing.assert_array_equal(rows[1:, :, 3], rows[:2, :, 3])  # the same a22 grid
    for law in rows[1:]:
        np.testing.assert_allclose(law[:, 4], rows[0, :, 4], rtol=0.0, atol=1e-12)
    assert rows[0, 1, 4] == pytest.approx(0.6513525359059211, abs=1e-12)  # chi at a22 = 0.7


def test_chi_vs_a22_params_keep_their_numbers(tmp_path):
    # integer values are written as given, as the file states them
    params = tmp_path / "params.json"
    params.write_text('[{"lambda": 1, "tau": 1.0, "psi": 2}]')
    out = tmp_path / "chi.csv"
    assert run_cli(["chi-vs-a22", "--params", str(params), "--a22-grid", "0.5",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[:4] for line in lines[1:]] == [["1", "1.0", "2", "0.5"],
                                                          ["1", "1.0", "2", "1.0"]]
