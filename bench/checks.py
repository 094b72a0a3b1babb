"""Checks of the workload artifacts against computations made apart from exdep.

Each ``check_<workload>(directory)`` reads the artifacts and the
``manifest.json`` a run left in ``directory`` and returns a list of
mismatches (empty when every check passes).  Reference values come from
scipy directly (``scipy.special.kv``, ``scipy.stats.genhyperbolic``,
``scipy.optimize.linprog``) or from a property the method must have;
nothing here imports exdep.

Re-check a finished run (for instance after editing an artifact by hand):

    python3 bench/checks.py bench/_work/<workload>/plain
"""

import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize, special, stats

ETA_TOL = 1e-7       # eta from the CLI or the oracle against the benchmark's LP
CHI_GH_TOL = 1e-6    # documented absolute tolerance of chi_gh_two
FORMULA_TOL = 1e-12  # closed-form values recomputed here


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------------
# matern_eta
# ----------------------------------------------------------------------

def matern_ratio(alpha, kappa, h):
    """G(h)/G(0) of the Matern Green's function in two dimensions.

    G(h) is proportional to (kappa h)^nu K_nu(kappa h) with nu = (alpha-2)/2,
    whose limit at h = 0 is 2^(nu-1) Gamma(nu); returns 0 when G(0) is
    infinite (nu = 0).
    """
    nu = (alpha - 2.0) / 2.0
    if nu == 0.0:
        return 0.0
    x = kappa * h
    return x ** nu * special.kv(nu, x) / (2.0 ** (nu - 1.0) * special.gamma(nu))


def cli_sites(seed, n_sites):
    """The CLI's sites: uniform on [0.05, 0.95]^2 from ``default_rng(seed)``."""
    return 0.05 + np.random.default_rng(seed).random((n_sites, 2)) * (0.95 - 0.05)


def lattice_centroids(nodes_per_side, rings):
    """Triangle centroids of the unit-square lattice with outer rings; each
    square splits along its lower-left to upper-right diagonal."""
    dx = 1.0 / (nodes_per_side - 1)
    xs = dx * np.arange(-rings, nodes_per_side + rings)
    gx, gy = np.meshgrid(xs, xs)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    nx = xs.size
    k = (np.arange(nx - 1)[None, :] + nx * np.arange(nx - 1)[:, None]).ravel()
    tris = np.vstack([np.column_stack([k, k + 1, k + nx + 1]),
                      np.column_stack([k, k + nx + 1, k + nx])])
    return nodes[tris].mean(axis=1)


def eta_envelope(b1, b2, steps=100):
    """min over w in [0, 1] of max_i (w b1_i + (1 - w) b2_i) for rows with
    maximum 1, by ternary search on the convex envelope (width (2/3)^100).

    The quantity of ``eta_lp``; on the 5,202-column Matern rows one
    ``linprog`` per pair costs 17 ms, 4.6 s per run, against 2 ms here.
    """
    f = lambda w: float(np.max(b2 + w * (b1 - b2)))
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


def check_matern_eta(directory):
    manifest = _manifest(directory)
    kappa, n_sites = manifest["kappa"], manifest["n_sites"]
    rows = _rows(os.path.join(directory, "matern_eta.csv"))
    errors = []
    n_pairs = n_sites * (n_sites - 1) // 2
    expected = len(manifest["alphas"]) * n_pairs * 2
    if len(rows) != expected:
        return [f"matern_eta.csv: {len(rows)} rows, expected {expected}"]
    # rows run alpha by alpha, pairs i < j in order, integral then fem
    sites = cli_sites(manifest["cli_seed"], n_sites)
    pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    dists = np.linalg.norm(sites[:, None, :] - lattice_centroids(
        manifest["mesh_nodes"], manifest["extension"])[None, :, :], axis=2)
    integral_rows = {}
    by_alpha = {}
    for k, r in enumerate(rows):
        alpha, h, eta = float(r["alpha"]), float(r["h"]), float(r["eta"])
        i, j = pairs[(k // 2) % n_pairs]
        if abs(h - float(np.linalg.norm(sites[i] - sites[j]))) > FORMULA_TOL:
            errors.append(f"row {k}: h {h!r} is not the distance of sites {i} and {j}")
        if not 0.5 <= eta <= 1.0:
            errors.append(f"row {k}: eta {eta} outside [1/2, 1]")
        if r["method"] == "integral":
            if alpha not in integral_rows:
                g = matern_ratio(alpha, kappa, dists) if alpha > 2.0 else special.k0(kappa * dists)
                integral_rows[alpha] = g / g.max(axis=1, keepdims=True)
            b = integral_rows[alpha]
            ref = eta_envelope(b[i], b[j])
            if abs(eta - ref) > ETA_TOL:
                errors.append(f"row {k}: integral eta {eta!r} vs envelope {ref!r}")
        ratio = matern_ratio(alpha, kappa, h)
        thm1 = 0.5 + ratio / 2.0
        conj = max(thm1, matern_ratio(alpha, kappa, h / 2.0))
        if abs(float(r["eta_thm1"]) - thm1) > FORMULA_TOL:
            errors.append(f"row {k}: eta_thm1 {r['eta_thm1']} != {thm1!r}")
        if abs(float(r["eta_conjecture"]) - conj) > FORMULA_TOL:
            errors.append(f"row {k}: eta_conjecture {r['eta_conjecture']} != {conj!r}")
        by_alpha.setdefault(alpha, {}).setdefault(r["method"], []).append((eta, conj))
    if sorted(by_alpha) != sorted(manifest["alphas"]):
        errors.append(f"alphas {sorted(by_alpha)} != {manifest['alphas']}")
        return errors
    for alpha, methods in by_alpha.items():
        if sorted(methods) != ["fem", "integral"] or any(len(v) != n_pairs for v in methods.values()):
            errors.append(f"alpha {alpha}: expected {n_pairs} integral and fem rows")
            return errors
    fem3 = np.array([e for e, _ in by_alpha[3.0]["fem"]])
    int3 = np.array([e for e, _ in by_alpha[3.0]["integral"]])
    gap = float(np.mean(np.abs(fem3 - int3)))
    if not gap < 0.05:
        errors.append(f"alpha 3: mean |eta_fem - eta_integral| = {gap:.4f}, not below 0.05")
    for alpha in (4.0, 5.0):
        worst = max(abs(e - c) for method in by_alpha[alpha].values() for e, c in method)
        if not worst < 0.07:
            errors.append(f"alpha {alpha}: deviation from the conjecture {worst:.4f}, not below 0.07")
    return errors


# ----------------------------------------------------------------------
# field_chi
# ----------------------------------------------------------------------

def _check_chi_row(where, n, q_text, chi, se):
    """chi is a count ratio over m = n - floor(q (n+1)) conditioning points
    (``q_text`` is q as written in the artifact, taken as an exact decimal)."""
    m = n - math.floor(Fraction(q_text) * (n + 1))
    errors = []
    if not 0.0 <= chi <= 1.0:
        errors.append(f"{where}: chi {chi} outside [0, 1]")
    if abs(chi * m - round(chi * m)) > 1e-6:
        errors.append(f"{where}: chi*m = {chi * m} is not an integer (m = {m})")
    expected = math.sqrt(chi * (1.0 - chi) / m)
    if abs(se - expected) > FORMULA_TOL * max(1.0, expected):
        errors.append(f"{where}: se {se!r} != sqrt(chi(1-chi)/m) = {expected!r}")
    return errors


def check_field_chi(directory):
    manifest = _manifest(directory)
    n, n_sites, sides, qs = (manifest["samples"], manifest["n_sites"],
                             manifest["mesh_sides"], manifest["q"])
    errors = []
    rows = _rows(os.path.join(directory, "simulate_and_chi.csv"))
    n_pairs = n_sites * (n_sites - 1) // 2
    expected = len(sides) * n_pairs * len(qs)
    if len(rows) != expected:
        return [f"simulate_and_chi.csv: {len(rows)} rows, expected {expected}"]
    sites = cli_sites(manifest["seed"], n_sites)
    pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    table = {}
    for k, r in enumerate(rows):
        q, chi, se = float(r["q"]), float(r["chi_hat"]), float(r["se"])
        errors += _check_chi_row(f"simulate_and_chi row {k}", n, r["q"], chi, se)
        i, j = pairs[int(r["pair_id"])]
        if abs(float(r["h"]) - float(np.linalg.norm(sites[i] - sites[j]))) > FORMULA_TOL:
            errors.append(f"simulate_and_chi row {k}: h is not the distance of sites {i} and {j}")
        key = (int(r["mesh_side"]), int(r["pair_id"]))
        table.setdefault(key, {"h": float(r["h"])})[q] = (chi, se)
    if sorted({s for s, _ in table}) != sorted(sides):
        errors.append("simulate_and_chi.csv: mesh sides differ from the manifest")
        return errors
    for side in sides:
        pairs = sorted((v["h"], p) for (s, p), v in table.items() if s == side)
        for h, p in pairs[-2:]:  # the two most distant site pairs
            c95, se95 = table[(side, p)][0.95]
            c99, se99 = table[(side, p)][0.99]
            gap = (c95 - 2 * se95) - (c99 + 2 * se99)
            if not gap > 0.0:
                errors.append(f"mesh {side}, pair {p} (h={h:.3f}): chi(0.99) not 2 SE "
                              f"below chi(0.95) (gap {gap:.4f})")
    rows = _rows(os.path.join(directory, "counterexample.csv"))
    if [int(r["n"]) for r in rows] != manifest["n_values"]:
        errors.append("counterexample.csv: n column differs from the manifest")
    for k, r in enumerate(rows):
        errors += _check_chi_row(f"counterexample row {k}", manifest["ce_samples"],
                                 r["q"], float(r["chi_hat"]), float(r["se"]))
    return errors


# ----------------------------------------------------------------------
# tail_coefficients
# ----------------------------------------------------------------------

def gh_law(lam, tau, psi):
    """Symmetric GH law with GIG(lam, tau, psi) mixing, as a scipy law."""
    delta = math.sqrt(tau)
    return stats.genhyperbolic(lam, math.sqrt(psi) * delta, 0.0, loc=0.0, scale=delta)


def _tilted(law, t, lo, hi):
    """integral over (lo, hi) of exp(t y) times the density."""
    f = lambda y: math.exp(t * y + law.logpdf(y))
    edges = [lo] + [p for p in (0.0,) if lo < p < hi] + [hi]
    return sum(integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=500)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def chi_two_reference(a12, a2, lam, tau, psi):
    """chi of (Y1 + a12 Y2, Y1 + a2 Y2) = E[min(e^{b a12 Y}/M(b a12), e^{b a2 Y}/M(b a2))]
    with b = sqrt(psi) the tail index; a2 = 1 gives the a22 -> 1 limit."""
    law = gh_law(lam, tau, psi)
    b = math.sqrt(psi)
    m12 = _tilted(law, a12 * b, -np.inf, np.inf)
    m2 = _tilted(law, a2 * b, -np.inf, np.inf)
    cross = (math.log(m2) - math.log(m12)) / (b * (a2 - a12))
    return (_tilted(law, a2 * b, -np.inf, cross) / m2
            + _tilted(law, a12 * b, cross, np.inf) / m12)


def eta_lp(entries):
    """eta = min over w in [0, 1] of max_i (w b_1i + (1 - w) b_2i) on the
    row-normalized coefficients, as a linear program in (w, z)."""
    b = np.asarray(entries, dtype=float)
    b = b / b.max(axis=1, keepdims=True)
    # w (b_1i - b_2i) - z <= -b_2i
    a_ub = np.column_stack([b[0] - b[1], -np.ones(b.shape[1])])
    res = optimize.linprog([0.0, 1.0], A_ub=a_ub, b_ub=-b[1],
                           bounds=[(0.0, 1.0), (None, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"eta LP failed: {res.message}")
    return float(res.fun)


def read_matrix(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def check_tail_coefficients(directory):
    manifest = _manifest(directory)
    errors = []
    a12 = manifest["a12"]
    rows = _rows(os.path.join(directory, "chi_vs_a22.csv"))
    if len(rows) != 12 * 8:
        return [f"chi_vs_a22.csv: {len(rows)} rows, expected 12 curves of 7 points plus a limit"]
    # one block of 8 rows per curve; the (1, 1, 1) law appears in all three families
    curves = [rows[i:i + 8] for i in range(0, len(rows), 8)]
    pick = np.random.default_rng(manifest["seed"]).integers(0, 7, size=len(curves))
    for block, i in zip(curves, pick):
        key = tuple(float(block[0][c]) for c in ("lambda", "tau", "psi"))
        if any(tuple(float(r[c]) for c in ("lambda", "tau", "psi")) != key for r in block):
            errors.append(f"curve {key}: rows of another law inside its block")
            continue
        points = [(float(r["a22"]), float(r["chi"])) for r in block]
        values = [chi for _, chi in points[:7]]
        if not all(0.0 <= v <= 1.0 for v in values) or not np.all(np.diff(values) < 0.0):
            errors.append(f"curve {key}: chi(a22) not a decreasing curve in [0, 1]")
        a22, chi = points[i]
        ref = chi_two_reference(a12, a22, *key)
        if abs(chi - ref) > CHI_GH_TOL:
            errors.append(f"curve {key}, a22={a22}: chi {chi!r} vs quadrature {ref!r}")
        a22, limit = points[7]
        ref = chi_two_reference(a12, 1.0, *key) if key[0] < 0.0 else 0.0
        if a22 != 1.0 or abs(limit - ref) > CHI_GH_TOL:
            errors.append(f"curve {key}: limit {limit!r} vs {ref!r}")

    rows = _rows(os.path.join(directory, "ou_convergence.csv"))
    if len(rows) != manifest["ou_rows"]:
        errors.append(f"ou_convergence.csv: {len(rows)} rows, expected {manifest['ou_rows']}")
    for k, r in enumerate(rows):
        h, eta_n, eta_limit = float(r["h"]), float(r["eta_n"]), float(r["eta_limit"])
        bound = 1.0 / (2.0 - math.exp(-manifest["ou_a"] * h))
        if abs(eta_limit - bound) > FORMULA_TOL:
            errors.append(f"ou row {k}: eta_limit {eta_limit!r} != 1/(2-e^(-ah)) = {bound!r}")
        if not bound - 1e-9 <= eta_n <= 1.0:
            errors.append(f"ou row {k}: eta_n {eta_n!r} outside [{bound!r}, 1]")

    oracle = [float(r["eta"]) for r in _rows(os.path.join(directory, "oracle.csv"))]
    if len(oracle) != manifest["n_matrices"]:
        errors.append(f"oracle.csv: {len(oracle)} values, expected {manifest['n_matrices']}")
        return errors
    for k in range(manifest["n_matrices"]):
        entries = read_matrix(os.path.join(directory, "matrices", f"m{k:03d}.csv"))
        ref = eta_lp(entries)
        with open(os.path.join(directory, "summaries", f"m{k:03d}.json")) as fh:
            summary = json.load(fh)
        independent = not set(np.flatnonzero(entries[0] == entries[0].max())) & set(
            np.flatnonzero(entries[1] == entries[1].max()))
        if (summary["regime"] == "AsymptoticIndependence") != independent:
            errors.append(f"matrix {k}: regime {summary['regime']} against disjoint "
                          f"argmax sets = {independent}")
        if abs(summary["eta"] - ref) > ETA_TOL:
            errors.append(f"matrix {k}: exdep eta {summary['eta']!r} vs LP {ref!r}")
        if abs(oracle[k] - ref) > ETA_TOL:
            errors.append(f"matrix {k}: oracle eta {oracle[k]!r} vs LP {ref!r}")
    return errors


CHECKS = {
    "matern_eta": check_matern_eta,
    "field_chi": check_field_chi,
    "tail_coefficients": check_tail_coefficients,
}


def _manifest(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    directory = argv[0]
    errors = CHECKS[_manifest(directory)["workload"]](directory)
    for e in errors:
        print(e)
    print("PASS" if not errors else f"FAIL: {len(errors)} mismatches")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
