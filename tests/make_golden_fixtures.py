"""Regenerate the golden CLI artifacts.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden_fixtures.py

Each case runs one subcommand on a tiny fixed configuration, in well
under a second, and writes its artifact to tests/fixtures/golden/ under
the case name.  tests/test_golden.py reruns every case and compares the
bytes, so a change that moves any artifact shows up there; regenerate
only when a change of output is intended and explained.
"""

import pathlib
import sys

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"


def _long_front(n=240):
    """Two rows of n + 1 columns (1 - u^2, 1 - (1 - u)^2) for u = k/n, every
    third column scaled into the interior: a Pareto front of about 2n/3
    columns.  Only +, -, * and /, so the text is the same on every
    platform."""
    rows = [[], []]
    for k in range(n + 1):
        u, v = k / n, (n - k) / n
        scale = 0.75 if k % 3 == 1 else 1.0
        rows[0].append(repr((1.0 - u * u) * scale))
        rows[1].append(repr((1.0 - v * v) * scale))
    return "".join(",".join(row) + "\n" for row in rows)


# inputs of the eta cases
ETA_MATRICES = {
    # asymptotic independence, eta strictly inside (1/2, 1)
    "eta.json": "1.0,0.3,0.0,0.25\n0.5,1.0,0.2,0.0\n",
    # the smallest independent front: two columns
    "eta_tiny.json": "1.0,0.2\n0.3,1.0\n",
    # one pair with a front far longer than a short-row matrix
    "eta_long_front.json": _long_front(),
    # the argmax sets share column 2: eta is 1 without any envelope
    "eta_shared_argmax.json": "1.0,0.5,1.0,0.1\n0.2,1.0,1.0,0.7\n",
}

CASES = {
    "chi_vs_a22.csv": ["chi-vs-a22", "--a22-grid", "0.4,0.6,0.8"],
    "ou_convergence.csv": ["ou-convergence", "--T", "1.0", "--deltas", "0.4,0.05"],
    "matern_eta.csv": ["matern-eta", "--seed", "1", "--mesh-nodes", "8",
                       "--extension", "2", "--n-sites", "5"],
    "simulate_and_chi.csv": ["simulate-and-chi", "--seed", "1", "--samples", "2000",
                             "--mesh-nodes", "6", "--extension", "1", "--n-sites", "4"],
    **{name: ["eta"] for name in ETA_MATRICES},
    "counterexample.csv": ["counterexample", "--seed", "1", "--samples", "25000",
                           "--n-values", "1,100,1000"],
}


def run_case(name, directory):
    """Run case ``name`` with its artifact written to ``directory``; returns
    the exit code and the artifact path."""
    from exdep.cli import main

    directory = pathlib.Path(directory)
    argv = list(CASES[name])
    if name in ETA_MATRICES:
        matrix = directory / "eta_matrix.csv"
        matrix.write_text(ETA_MATRICES[name])
        argv += ["--matrix", str(matrix)]
    out = directory / name
    return main(argv + ["--out", str(out)]), out


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        code, out = run_case(name, GOLDEN)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        print(f"wrote {out}")
    (GOLDEN / "eta_matrix.csv").unlink()


if __name__ == "__main__":
    main()
