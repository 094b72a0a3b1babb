"""Span tracing at the module boundaries of ``exdep``, from outside the package.

``Tracer.install()`` replaces the public functions listed in ``LAYERS``
with wrappers that record one span per call: name, parent span, start and
end.  Spans are kept in flat arrays in memory and written out once, at
the end of the run.  Nothing inside ``src/`` is changed on disk; the
wrappers are set on the imported modules and classes of this process
only.

Self time of a span is its duration minus the durations of its direct
child spans.  The workloads run on a single thread, so child spans nest
strictly inside their parent and never overlap each other.
"""

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np


# (span name, module, attribute path, extra counter name, counter).  A
# counter maps the call's bound arguments to the amount added per call.
LAYERS = [
    ("cli.self", "exdep.cli", "main", None, None),  # its self time is the CLI's own code
    ("mesh.lattice_mesh_2d", "exdep.mesh", "lattice_mesh_2d", None, None),
    ("mesh.integral_coefficients", "exdep.mesh", "integral_coefficients", None, None),
    ("mesh.ou_coefficients", "exdep.mesh", "ou_coefficients", None, None),
    ("mesh.locate", "exdep.mesh", "Mesh2D.locate", None, None),
    ("kernels.matern_kernel", "exdep.kernels", "matern_kernel", None, None),
    ("kernels.eval", "exdep.kernels", "Kernel.__call__", None, None),
    ("kernels.limit_eta_conjecture", "exdep.kernels", "limit_eta_conjecture", None, None),
    ("fem.fem_assemble", "exdep.fem", "fem_assemble", None, None),
    ("fem.fem_coefficients", "exdep.fem", "fem_coefficients", None, None),
    ("fem.basis_matrix", "exdep.fem", "basis_matrix", None, None),
    ("fem.simulate_field", "exdep.fem", "simulate_field",
     "fem.simulate_field.replicates", lambda b: b.arguments["n"]),
    ("fem.solve_k_alpha", "exdep.fem", "FemSystem.solve_k_alpha",
     "fem.solve_k_alpha.rhs_columns",
     lambda b: int(np.shape(b.arguments["rhs"])[1]) if np.ndim(b.arguments["rhs"]) == 2 else 1),
    ("fem.draw_mixing", "exdep.fem", "TypeGNoise.draw_mixing", None, None),
    ("lintrans.coefficient_matrix", "exdep.lintrans", "CoefficientMatrix.__init__", None, None),
    ("lintrans.classify", "exdep.lintrans", "classify", None, None),
    ("lintrans.eta_closed_form", "exdep.lintrans", "eta_closed_form",
     "lintrans.eta_closed_form.columns", lambda b: b.arguments["matrix"].shape[1]),
    ("lintrans.eta_gauge_oracle", "exdep.lintrans", "eta_gauge_oracle", None, None),
    ("lintrans.tail_summary", "exdep.lintrans", "tail_summary", None, None),
    ("lintrans.chi_gh_two", "exdep.lintrans", "chi_gh_two", None, None),
    ("lintrans.chi_limit_a22", "exdep.lintrans", "chi_limit_a22", None, None),
    ("exptail.mgf", "exdep.exptail", "NoiseDistribution.mgf", None, None),
    ("exptail.exp_weighted_integral", "exdep.exptail",
     "NoiseDistribution._exp_weighted_integral", None, None),
    ("special.log_bessel_k", "exdep.special", "log_bessel_k", None, None),
    ("estimate.rank_transform", "exdep.estimate", "rank_transform",
     "estimate.ranked_values", lambda b: 2 * b.arguments["sample"].n),
    ("estimate.empirical_chi", "exdep.estimate", "empirical_chi", None, None),
]

# Third-party calls made from one exdep module: (span name, caller module,
# callee module, callee attribute).  Calls from anywhere else pass through
# untraced.
FOREIGN = [
    ("fem.eigh", "exdep.fem", "numpy.linalg", "eigh"),
    ("fem.splu", "exdep.fem", "scipy.sparse.linalg", "splu"),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}

    def _wrap(self, name, func, counter_name=None, counter=None, caller=None):
        nid = len(self.names)
        self.names.append(name)
        signature = inspect.signature(func) if counter else None
        if counter_name:
            self.counters[counter_name] = 0
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)

        def traced(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return func(*args, **kwargs)
            if counter is not None:
                self.counters[counter_name] += counter(signature.bind(*args, **kwargs))
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every boundary in LAYERS and FOREIGN in this process."""
        for name, module_name, path, counter_name, counter in LAYERS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: set the wrapper on its class
                owner = getattr(module, owner_path)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                                counter_name, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter_name, counter)
            # ``from .x import f`` copies bind the same object elsewhere
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "exdep":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
        for name, caller, module_name, attr in FOREIGN:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr), caller=caller))

    def summary(self):
        """Per-span-name self seconds and calls, plus the extra counters."""
        n_names = len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        seconds = np.bincount(name_id, weights=self_time, minlength=n_names)
        calls = np.bincount(name_id, minlength=n_names)
        out = dict(self.counters)
        for i, name in enumerate(self.names):
            out[name + "_s"] = float(seconds[i])
            out[name + ".calls"] = int(calls[i])
        return out

    def write(self, path):
        """All spans, for a look at more than the per-layer totals."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
