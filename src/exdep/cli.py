"""Command-line surface: every simulation study as a seeded subcommand.

Each subcommand writes a plot-ready CSV (or JSON) artifact atomically
(temp file + rename).  Exit codes: 0 success, 1 numerical/model error,
2 usage error.  Identical configurations produce byte-identical output.

A subcommand loads only the scipy subpackages it calls: ``fem``
(``scipy.sparse``) and ``exptail`` (``scipy.special``) are imported
inside the commands that use them, and ``kernels`` loads
``scipy.special`` only inside the Matern kernel, so ``counterexample``,
``eta`` and ``ou-convergence`` run on numpy alone.  The first
``matern-eta`` or ``simulate-and-chi`` call of a process pays for the
``scipy.sparse`` import.
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

from . import estimate, kernels, mesh
from .errors import DomainError, ExdepError
from .lintrans import CoefficientMatrix, chi_gh_two, eta_pairs, tail_summary

DEFAULT_NIG_NOISE = {"mu": -1.0, "gamma": 1.0, "psi": 1.0, "tau": 1.0}
COUNTEREXAMPLE_Q = 0.999
OU_H_STEP = 0.1  # spacing of the default ou-convergence h grid, up to T


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


def _write_csv(path, header, rows):
    """Write ``header`` and one comma-joined line per row; the rows hold
    Python scalars, whose ``str`` is their ``repr``."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats_inside(low, high, what):
    """A parser of non-empty comma lists with every entry strictly inside (low, high)."""
    def parse(text):
        values = [float(v) for v in text.split(",") if v.strip()]
        if not values or not all(low < v < high for v in values):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values

    return parse


_levels = _floats_inside(0.0, 1.0, "quantile levels strictly inside (0, 1)")
_positive_floats = _floats_inside(0.0, math.inf, "positive finite numbers")
_finite_floats = _floats_inside(-math.inf, math.inf, "finite numbers")
_GH_KEYS = ("lambda", "tau", "psi")


def _gh_params_file(path):
    """The (lambda, tau, psi) triples of a JSON file: a non-empty list of
    objects with exactly those keys, each a finite number."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc}") from None

    def finite(v):
        try:
            return not isinstance(v, bool) and math.isfinite(v)
        except (TypeError, OverflowError):  # not a number, or an int beyond float range
            return False

    if not (isinstance(spec, list) and spec and all(
            isinstance(p, dict) and sorted(p) == sorted(_GH_KEYS)
            and all(finite(p[k]) for k in _GH_KEYS) for p in spec)):
        raise argparse.ArgumentTypeError(
            f"{path!r} is not a non-empty JSON list of objects with finite numbers "
            "at exactly the keys lambda, tau and psi")
    return tuple(tuple(p[k] for k in _GH_KEYS) for p in spec)


def _ou_horizon(text):
    value = _finite_float(text)
    if int(value / OU_H_STEP) < 1:
        raise argparse.ArgumentTypeError(
            f"expected T of at least {OU_H_STEP}, so that the default h grid has a "
            f"point, got {text!r}")
    return value


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


_positive_int = _int_at_least(1)


def _positive_int_list(text):
    return [_positive_int(v) for v in text.split(",")]


def _min_samples(q):
    """Fewest samples, at least two, with a pseudo-uniform rank r/(n+1)
    above q, compared as :func:`exdep.estimate.exceedances` does."""
    n = max(2, math.floor(q / (1.0 - q)))
    while not estimate._ranks_above(n, q):
        n += 1
    return n


# ----------------------------------------------------------------------
# chi-vs-a22: chi(a22) curves for the two-variable GH model
# ----------------------------------------------------------------------

def cmd_chi_vs_a22(args):
    from .exptail import GhParams

    grids = [args.params] if args.params is not None else [
        [(lam, 1.0, 1.0) for lam in (-0.5, 1.0, 5.0, 30.0)],
        [(1.0, tau, 1.0) for tau in (0.5, 1.0, 5.0, 30.0)],
        [(1.0, 1.0, psi) for psi in (0.5, 1.0, 5.0, 30.0)],
    ]
    if not all(a22 < 1.0 for a22 in args.a22_grid):  # 1 is the limit row of each law
        raise DomainError("a22 values must lie in [0, 1)")
    rows = []
    for family in grids:
        for (lam, tau, psi) in family:
            params = GhParams(lam, tau, psi, 0.0, 0.0)
            # the curve and its a22 -> 1 limit in one quadrature batch
            *values, limit = chi_gh_two(args.a12, [*args.a22_grid, 1.0], params).tolist()
            # chi peaks at 1 where a22 = a12: over the distinct grid values in
            # ascending order it must rise strictly up to a12 and fall strictly above
            curve = sorted(dict(zip(args.a22_grid, values)).items())
            for (a, chi_a), (b, chi_b) in zip(curve, curve[1:]):
                if (b <= args.a12 and chi_b <= chi_a) or (a >= args.a12 and chi_b >= chi_a):
                    raise ExdepError(
                        f"chi(a22) curve not strictly rising up to a22 = a12 and falling "
                        f"above it for lambda={lam}, tau={tau}, psi={psi}")
            rows += [(lam, tau, psi, a22, chi) for a22, chi in zip(args.a22_grid, values)]
            rows.append((lam, tau, psi, 1.0, limit))
    _write_csv(args.out, "lambda,tau,psi,a22,chi", rows)
    return 0


# ----------------------------------------------------------------------
# ou-convergence: eta of one-sided partitions against the process limit
# ----------------------------------------------------------------------

def _ou_partition(s1, T, delta):
    """Whole cells of width ``delta`` from about 25 below s1 to the first
    grid point at or above T, so s1 is a grid point for every T (a grid
    point within 1e-9 cells of T counts as T itself)."""
    pad = math.ceil(25.0 / delta) * delta  # grid-aligned left padding below s1
    end = s1 + math.ceil((T - s1) / delta - 1e-9) * delta
    return mesh.partition_1d(s1 - pad, max(end, T), delta=delta)


def cmd_ou_convergence(args):
    h_grid = args.h_grid or [round(OU_H_STEP * i, 10)
                             for i in range(1, int(args.T / OU_H_STEP) + 1)]
    limits = kernels.ou_eta(args.a, h_grid).tolist()
    rows = []
    sup_gap_finest = 0.0
    finest = min(args.deltas)
    for delta in args.deltas:
        part = _ou_partition(args.s1, args.T, delta)
        # row 0 is the site s1, row t + 1 the site s1 + h_t
        matrix = mesh.ou_coefficients(args.a, [args.s1] + [args.s1 + h for h in h_grid], part)
        etas = eta_pairs(matrix, [(0, t + 1) for t in range(len(h_grid))])
        for h, eta_n, eta_limit in zip(h_grid, etas.tolist(), limits):
            if eta_n < eta_limit - 1e-9:
                raise ExdepError(f"eta_n below the limit at delta={delta}, h={h}")
            if delta == finest:
                sup_gap_finest = max(sup_gap_finest, eta_n - eta_limit)
            rows.append((delta, h, eta_n, eta_limit))
    if sup_gap_finest >= 0.02:
        raise ExdepError(f"sup gap {sup_gap_finest} at delta={finest} not below 0.02")
    print(f"sup gap at delta={finest}: {sup_gap_finest:.6f}")
    _write_csv(args.out, "delta,h,eta_n,eta_limit", rows)
    return 0


# ----------------------------------------------------------------------
# matern-eta: FEM vs integral approximation across smoothness values
# ----------------------------------------------------------------------

def random_sites(rng, n_sites):
    """``n_sites`` uniform points of [0.05, 0.95]^2, an (n_sites, 2) array."""
    return 0.05 + rng.random((n_sites, 2)) * (0.95 - 0.05)


def cmd_matern_eta(args):
    from . import fem

    for alpha in args.alphas:  # all are checked before any is computed
        fem._check_alpha(alpha)
    kernels._check_kappa(args.kappa)
    n_sites = args.n_sites if args.n_sites is not None else (225 if args.paper_scale else 50)
    grid = mesh.lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), args.mesh_nodes, args.extension)
    rng = np.random.default_rng(args.seed)
    sites = random_sites(rng, n_sites)
    pairs = np.column_stack(np.triu_indices(n_sites, 1))  # i < j, row by row
    # one norm per pair, as a 1-d vector: its BLAS dot fixes the last bit of h
    h = np.array([np.linalg.norm(sites[i] - sites[j]) for i, j in pairs])
    rows = []
    fem_matrices = fem.fem_coefficients(fem.fem_assemble(grid, args.kappa), sites, args.alphas)
    for alpha in args.alphas:
        kern = kernels.matern_kernel(args.kappa, alpha)
        # per alpha the integral rows, then the FEM rows (the generator's next
        # matrix), then both etas: eta's temporaries between the two builds, or
        # every FEM matrix held at once, fragment the heap, and peak RSS grows
        # over repeated runs in one process
        coeff_int = mesh.integral_coefficients(kern, sites, grid)
        coeff_fem = next(fem_matrices)
        eta_int = eta_pairs(coeff_int, pairs)
        eta_fem = eta_pairs(coeff_fem, pairs)
        thm1 = kernels._two_sided_limit(kern, h)
        conj = kernels.limit_eta_conjecture(kern, h)
        # tolist(): Python floats, whose str is their repr
        for d, e_int, e_fem, t, c in zip(h.tolist(), eta_int.tolist(), eta_fem.tolist(),
                                         thm1.tolist(), conj.tolist()):
            rows.append((alpha, "integral", d, e_int, t, c))
            rows.append((alpha, "fem", d, e_fem, t, c))
    _write_csv(args.out, "alpha,method,h,eta,eta_thm1,eta_conjecture", rows)
    return 0


# ----------------------------------------------------------------------
# simulate-and-chi: empirical chi(q) of the simulated FEM field
# ----------------------------------------------------------------------

def cmd_simulate_and_chi(args):
    from . import fem

    fem._check_alpha(args.alpha)  # also when no mesh is built
    kernels._check_kappa(args.kappa)
    noise = fem.TypeGNoise("nig", **DEFAULT_NIG_NOISE)
    mesh_sides = [5, 10, 25] if args.appendix_d else [args.mesh_nodes]
    n = args.samples if args.samples is not None else (10 ** 5 if args.appendix_d else 10 ** 6)
    sites = random_sites(np.random.default_rng(args.seed), args.n_sites)
    rows = []
    for side in mesh_sides if n else []:  # --samples 0 writes the header alone
        rows += _mesh_chi_rows(args, side, sites, noise, n)
    _write_csv(args.out, "mesh_side,pair_id,h,q,chi_hat,se", rows)
    return 0


def _mesh_chi_rows(args, side, sites, noise, n):
    """The CSV rows of one mesh, pair by pair and level by level.  The
    masks are taken one level at a time, each freed before the next, and
    the field is freed on return, before the next mesh is simulated."""
    from . import fem

    grid = mesh.lattice_mesh_2d((0.0, 0.0, 1.0, 1.0), side, args.extension)
    x = fem.simulate_field(fem.fem_assemble(grid, args.kappa), args.alpha, sites, noise, n,
                           args.seed, threads=args.threads)
    pairs = [(i, j) for i in range(len(sites)) for j in range(i + 1, len(sites))]
    per_level = []  # per_level[l][p]: the estimate of pair p at level l
    for q in args.q:
        mask = estimate.exceedances(x, q)
        per_level.append([estimate.chi_from_exceedances(mask[:, i], mask[:, j], q)
                          for i, j in pairs])
        del mask  # before the next level's mask is taken
    rows = []
    for pair_id, (i, j) in enumerate(pairs):
        h = float(np.linalg.norm(sites[i] - sites[j]))
        for q, ests in zip(args.q, per_level):
            est = ests[pair_id]
            rows.append((side, pair_id, h, q, est.value, est.se))
    return rows


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
    q = COUNTEREXAMPLE_Q
    rows = []
    for n in args.n_values:
        est = _counterexample_chi(rng, n, args.samples, q)
        rows.append((n, q, est.value, est.se))
    _write_csv(args.out, "n,q,chi_hat,se", rows)
    return 0


def _counterexample_chi(rng, n, n_samples, q):
    """chi(q) of heavy / n + eps1 and heavy / n + eps2, built in place
    with the rounding of that formula.  The exceedances of the first
    margin are taken before the second normal draw, which then fills the
    same array, so two n_samples arrays are held, not three; all are
    freed on return, before the next n draws."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie strictly inside (0, 1)")
    heavy = rng.pareto(1.0, n_samples)
    heavy += 1.0  # survival x^{-1} on [1, inf)
    np.divide(heavy, n, out=heavy)
    eps = rng.standard_normal(n_samples)
    eps += heavy
    above1 = estimate.exceedances(eps, q)
    rng.standard_normal(out=eps)
    eps += heavy
    return estimate.chi_from_exceedances(above1, estimate.exceedances(eps, q), q)


# ----------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process; its list defaults are
    tuples, so no call can change what the next one reads."""
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
    p.add_argument("--params", type=_gh_params_file, default=None,
                   help="JSON list of {lambda, tau, psi} replacing the default families")
    p.add_argument("--a12", type=float, default=0.3)
    p.add_argument("--a22-grid", type=_finite_floats,
                   default=tuple(round(0.35 + 0.1 * i, 10) for i in range(7)),
                   help="a22 values, each in [0, 1)")

    p = command("ou-convergence", cmd_ou_convergence,
                "one-sided partition eta vs the OU limit")
    p.add_argument("--a", type=_finite_float, default=0.2)
    p.add_argument("--s1", type=_finite_float, default=0.0)
    p.add_argument("--T", type=_ou_horizon, default=4.0,
                   help=f"horizon, at least {OU_H_STEP}; each partition ends at its first "
                        f"grid point at or above T, and the default h grid is "
                        f"{OU_H_STEP}, {2 * OU_H_STEP}, ... up to T")
    p.add_argument("--deltas", type=_positive_floats, default=(0.4, 0.2, 0.05))
    p.add_argument("--h-grid", type=_positive_floats, default=None)

    p = command("matern-eta", cmd_matern_eta, "FEM vs integral eta across smoothness",
                seeded=True)
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--paper-scale", action="store_true",
                       help="225 sites, as published, instead of 50")
    p.add_argument("--kappa", type=float, default=2.0,
                   help="Matern range parameter; odd alphas need kappa above about "
                        "5e-5 on the default mesh (spectrum ratio of S at most 1e8)")
    p.add_argument("--alphas", type=_finite_floats, default=(2.0, 3.0, 4.0, 5.0),
                   help="integer smoothness exponents in 2..6")
    p.add_argument("--mesh-nodes", type=_int_at_least(2), default=40,
                   help="lattice nodes per side, at least 2")
    sizes.add_argument("--n-sites", type=_int_at_least(2), default=None,
                       help="random sites, at least two (default 50); excludes --paper-scale")
    p.add_argument("--extension", type=_int_at_least(0), default=6,
                   help="outer extension rings, at least 0")

    p = command("simulate-and-chi", cmd_simulate_and_chi,
                "empirical chi(q) of simulated fields", seeded=True)
    p.add_argument("--threads", type=_positive_int, default=1, help="worker threads")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--alpha", type=int, default=2)
    meshes = p.add_mutually_exclusive_group()
    meshes.add_argument("--mesh-nodes", type=_int_at_least(2), default=20,
                        help="lattice nodes per side, at least 2")
    meshes.add_argument("--appendix-d", action="store_true",
                        help="coarse/fine mesh comparison (25/100/625-node lattices)")
    p.add_argument("--n-sites", type=_int_at_least(2), default=20,
                   help="random sites, at least two (one pair)")
    p.add_argument("--extension", type=_int_at_least(0), default=2,
                   help="outer extension rings, at least 0")
    p.add_argument("--samples", type=_int_at_least(0), default=None,
                   help="replicates (default 10^6, or 10^5 with --appendix-d); "
                        "0 writes the header alone")
    p.add_argument("--q", type=_levels, default=(0.95, 0.975, 0.99),
                   help="quantile levels strictly inside (0, 1)")

    p = sub.add_parser("eta", help="tail summary (JSON) of a coefficient matrix CSV")
    p.add_argument("--matrix", required=True, help="CSV with one row per component")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eta)

    p = command("counterexample", cmd_counterexample,
                "pre-asymptotic chi of X/n + noise (illustration only)", seeded=True)
    p.add_argument("--n-values", type=_positive_int_list, default=(1, 10, 100))
    min_samples = _min_samples(COUNTEREXAMPLE_Q)
    p.add_argument("--samples", type=_int_at_least(min_samples), default=10 ** 6,
                   help=f"replicates, at least {min_samples}: fewer leave no rank above "
                        f"q = {COUNTEREXAMPLE_Q}")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExdepError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
