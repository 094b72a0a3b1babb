"""Command-line surface: every simulation study as a seeded subcommand.

Each subcommand writes a plot-ready CSV (or JSON) artifact atomically
(temp file + rename).  Exit codes: 0 success, 1 numerical/model error,
2 usage error.  Identical configurations produce byte-identical output.
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import estimate, fem, kernels, mesh
from .errors import ExdepError, ParameterError
from .exptail import GhParams
from .lintrans import (CoefficientMatrix, chi_gh_two, chi_limit_a22, eta_pairs,
                       tail_summary)

DEFAULT_NIG_NOISE = {"mu": -1.0, "gamma": 1.0, "psi": 1.0, "tau": 1.0}


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".exdep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_int_list(text):
    return [_positive_int(v) for v in text.split(",")]


def _threads(args):
    if args.threads is not None:
        return args.threads
    text = os.environ.get("EXDEP_THREADS", "1")
    try:
        return _positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ParameterError(
            f"EXDEP_THREADS must be a positive integer, got {text!r}") from None


# ----------------------------------------------------------------------
# chi-vs-a22: chi(a22) curves for the two-variable GH model
# ----------------------------------------------------------------------

def cmd_chi_vs_a22(args):
    grids = [
        [(lam, 1.0, 1.0) for lam in (-0.5, 1.0, 5.0, 30.0)],
        [(1.0, tau, 1.0) for tau in (0.5, 1.0, 5.0, 30.0)],
        [(1.0, 1.0, psi) for psi in (0.5, 1.0, 5.0, 30.0)],
    ]
    if args.params:
        with open(args.params) as fh:
            spec = json.load(fh)
        grids = [[(p["lambda"], p["tau"], p["psi"]) for p in spec]]
    a22_grid = args.a22_grid or [round(0.35 + 0.1 * i, 10) for i in range(7)]
    lines = ["lambda,tau,psi,a22,chi"]
    for family in grids:
        for (lam, tau, psi) in family:
            params = GhParams(lam, tau, psi, 0.0, 0.0)
            values = [chi_gh_two(args.a12, a22, params) for a22 in a22_grid]
            if np.any(np.diff(values) >= 0.0):
                raise ExdepError(
                    f"chi(a22) curve not strictly decreasing for lambda={lam}, tau={tau}, psi={psi}"
                )
            for a22, chi in zip(a22_grid, values):
                lines.append(f"{lam!r},{tau!r},{psi!r},{a22!r},{chi!r}")
            limit = chi_limit_a22(args.a12, params)
            lines.append(f"{lam!r},{tau!r},{psi!r},1.0,{limit!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# ou-convergence: eta of one-sided partitions against the process limit
# ----------------------------------------------------------------------

def cmd_ou_convergence(args):
    h_grid = args.h_grid or [round(0.1 * i, 10) for i in range(1, int(args.T / 0.1) + 1)]
    lines = ["delta,h,eta_n,eta_limit"]
    sup_gap_finest = 0.0
    finest = min(args.deltas)
    for delta in args.deltas:
        pad = math.ceil(25.0 / delta) * delta  # grid-aligned left padding below s1
        part = mesh.partition_1d(args.s1 - pad, args.T, delta=delta)
        # row 0 is the site s1, row t + 1 the site s1 + h_t; zero columns pad the short rows
        mats = [mesh.ou_coefficients(args.a, args.s1, args.s1 + h, part) for h in h_grid]
        rows = np.zeros((1 + len(mats), max(m.shape[1] for m in mats)))
        for t, m in enumerate(mats):
            rows[[0, t + 1], :m.shape[1]] = m.entries
        etas = eta_pairs(rows, [(0, t + 1) for t in range(len(mats))])
        for h, eta_n in zip(h_grid, etas.tolist()):
            eta_limit = kernels.ou_eta(args.a, h)
            if eta_n < eta_limit - 1e-9:
                raise ExdepError(f"eta_n below the limit at delta={delta}, h={h}")
            if delta == finest:
                sup_gap_finest = max(sup_gap_finest, eta_n - eta_limit)
            lines.append(f"{delta!r},{h!r},{eta_n!r},{eta_limit!r}")
    if sup_gap_finest >= 0.02:
        raise ExdepError(f"sup gap {sup_gap_finest} at delta={finest} not below 0.02")
    print(f"sup gap at delta={finest}: {sup_gap_finest:.6f}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# matern-eta: FEM vs integral approximation across smoothness values
# ----------------------------------------------------------------------

def random_sites(rng, n_sites, bbox=(0.05, 0.05, 0.95, 0.95)):
    xmin, ymin, xmax, ymax = bbox
    pts = rng.random((n_sites, 2))
    return np.column_stack([xmin + pts[:, 0] * (xmax - xmin),
                            ymin + pts[:, 1] * (ymax - ymin)])


def cmd_matern_eta(args):
    n_sites = args.n_sites if args.n_sites is not None else (225 if args.paper_scale else 50)
    grid = mesh.lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), args.mesh_nodes, args.extension)
    rng = np.random.default_rng(args.seed)
    sites = random_sites(rng, n_sites)
    pairs = np.column_stack(np.triu_indices(n_sites, 1))  # i < j, row by row
    # one norm per pair, as a 1-d vector: its BLAS dot fixes the last bit of h
    h = np.array([np.linalg.norm(sites[i] - sites[j]) for i, j in pairs])
    lines = ["alpha,method,h,eta,eta_thm1,eta_conjecture"]
    assembled = fem.fem_assemble(grid, args.kappa, 2, lumped=True)  # shares K_2 factors across alphas
    for alpha in args.alphas:
        kern = kernels.matern_kernel(args.kappa, alpha, 2)
        g0 = kern.value_at_zero
        system = assembled.with_alpha(alpha)
        # both matrices before any eta: eta's temporaries between the two builds
        # fragment the heap, and peak RSS grows over repeated runs in one process
        coeff_int = mesh.integral_coefficients(kern, sites, grid)
        coeff_fem = fem.fem_coefficients(system, sites)
        eta_int = eta_pairs(coeff_int.normalized, pairs)
        eta_fem = eta_pairs(coeff_fem.normalized, pairs)
        thm1 = np.full(h.size, 0.5) if math.isinf(g0) else 0.5 + kern(h) / (2.0 * g0)
        conj = kernels.limit_eta_conjecture(kern, h)
        # tolist(): repr of a Python float, not of np.float64
        for d, e_int, e_fem, t, c in zip(h.tolist(), eta_int.tolist(), eta_fem.tolist(),
                                         thm1.tolist(), conj.tolist()):
            lines.append(f"{alpha!r},integral,{d!r},{e_int!r},{t!r},{c!r}")
            lines.append(f"{alpha!r},fem,{d!r},{e_fem!r},{t!r},{c!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# simulate-and-chi: empirical chi(q) of the simulated FEM field
# ----------------------------------------------------------------------

def cmd_simulate_and_chi(args):
    threads = _threads(args)
    noise = fem.TypeGNoise("nig", **DEFAULT_NIG_NOISE)
    mesh_sides = [args.mesh_nodes]
    default_n = 10 ** 5 if args.appendix_d else 10 ** 6
    if args.appendix_d:
        mesh_sides = [5, 10, 25]
    n = args.samples if args.samples is not None else default_n
    rng = np.random.default_rng(args.seed)
    sites = random_sites(rng, args.n_sites)
    lines = ["mesh_side,pair_id,h,q,chi_hat,se"]
    for side in mesh_sides:
        if n == 0:
            break
        grid = mesh.lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), side, args.extension)
        system = fem.fem_assemble(grid, args.kappa, args.alpha, lumped=True)
        x = fem.simulate_field(system, sites, noise, n, args.seed, threads=threads)
        u = estimate.rank_columns(x)
        pair_id = 0
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                h = float(np.linalg.norm(sites[i] - sites[j]))
                sample = estimate.BivariateSample(x[:, i], x[:, j],
                                                  ranks=(u[:, i], u[:, j]))
                for q in args.q:
                    est = estimate.empirical_chi(sample, q)
                    lines.append(
                        f"{side},{pair_id},{h!r},{q!r},{est.value!r},{est.se!r}"
                    )
                pair_id += 1
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# eta: tail summary of a coefficient matrix file
# ----------------------------------------------------------------------

@functools.cache
def _summary_validator():
    """The tail-summary validator; its schema is checked once per process."""
    from jsonschema.validators import validator_for

    schema = json.loads(
        resources.files("exdep.schemas").joinpath("tail_summary.schema.json").read_text()
    )
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate_summary(obj):
    """``jsonschema.validate(obj, schema)`` without re-checking the schema."""
    from jsonschema.exceptions import best_match

    error = best_match(_summary_validator().iter_errors(obj))
    if error is not None:
        raise error


def cmd_eta(args):
    matrix = CoefficientMatrix.from_csv(args.matrix)
    summary = tail_summary(matrix).to_json()
    _validate_summary(summary)
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# counterexample: chi(q) not preserved under convergence in probability
# ----------------------------------------------------------------------

def cmd_counterexample(args):
    rng = np.random.default_rng(args.seed)
    n_samples = args.samples
    q = 0.999
    lines = ["n,q,chi_hat,se"]
    for n in args.n_values:
        heavy = rng.pareto(1.0, n_samples) + 1.0  # survival x^{-1} on [1, inf)
        eps1 = rng.standard_normal(n_samples)
        eps2 = rng.standard_normal(n_samples)
        sample = estimate.BivariateSample(heavy / n + eps1, heavy / n + eps2)
        est = estimate.empirical_chi(sample, q)
        lines.append(f"{n},{q!r},{est.value!r},{est.se!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="exdep",
        description="Extremal dependence of exponential-tailed moving averages: "
                    "reproducible simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seeded=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output file path")
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="root seed")
        p.set_defaults(func=func)
        return p

    p = command("chi-vs-a22", cmd_chi_vs_a22, "chi(a22) curves with their a22->1 limits")
    p.add_argument("--params", default=None,
                   help="JSON list of {lambda, tau, psi} replacing the default families")
    p.add_argument("--a12", type=float, default=0.3)
    p.add_argument("--a22-grid", type=_float_list, default=None)

    p = command("ou-convergence", cmd_ou_convergence,
                "one-sided partition eta vs the OU limit")
    p.add_argument("--a", type=float, default=0.2)
    p.add_argument("--s1", type=float, default=0.0)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("--deltas", type=_float_list, default=[0.4, 0.2, 0.05])
    p.add_argument("--h-grid", type=_float_list, default=None)

    p = command("matern-eta", cmd_matern_eta, "FEM vs integral eta across smoothness",
                seeded=True)
    p.add_argument("--paper-scale", action="store_true",
                   help="225 sites, as published, instead of 50")
    p.add_argument("--kappa", type=float, default=2.0,
                   help="Matern range parameter; odd alphas need kappa above about "
                        "5e-5 on the default mesh (spectrum ratio of S at most 1e8)")
    p.add_argument("--alphas", type=_float_list, default=[2.0, 3.0, 4.0, 5.0])
    p.add_argument("--mesh-nodes", type=_positive_int, default=40, help="lattice nodes per side")
    p.add_argument("--n-sites", type=_positive_int, default=None,
                   help="random sites (default 50, or 225 with --paper-scale)")
    p.add_argument("--extension", type=int, default=6, help="outer extension rings")

    p = command("simulate-and-chi", cmd_simulate_and_chi,
                "empirical chi(q) of simulated fields", seeded=True)
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker threads (default: EXDEP_THREADS or 1)")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--alpha", type=int, default=2)
    meshes = p.add_mutually_exclusive_group()
    meshes.add_argument("--mesh-nodes", type=_positive_int, default=20,
                        help="lattice nodes per side")
    meshes.add_argument("--appendix-d", action="store_true",
                        help="coarse/fine mesh comparison (25/100/625-node lattices)")
    p.add_argument("--n-sites", type=_positive_int, default=20)
    p.add_argument("--extension", type=int, default=2)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--q", type=_float_list, default=[0.95, 0.975, 0.99])

    p = sub.add_parser("eta", help="tail summary (JSON) of a coefficient matrix CSV")
    p.add_argument("--matrix", required=True, help="CSV with one row per component")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eta)

    p = command("counterexample", cmd_counterexample,
                "pre-asymptotic chi of X/n + noise (illustration only)", seeded=True)
    p.add_argument("--n-values", type=_positive_int_list, default=[1, 10, 100])
    p.add_argument("--samples", type=_positive_int, default=10 ** 6)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
