"""Seeded random streams and the chunked map that every sampler runs on.

numpy only, with no scipy import: the simulated fields of ``fem`` and
the Monte Carlo chi of ``lintrans`` draw through :func:`map_chunks`
without loading the quadrature and optimization code of ``exptail``.
"""

import numpy as np

from .errors import ParameterError

__all__ = [
    "map_chunks",
    "substreams",
]


def substreams(root_seed, k):
    """Split ``root_seed`` into ``k`` independent generators.

    Uses ``numpy.random.SeedSequence.spawn``, so the i-th stream depends
    only on the root seed and i.  This is the documented split function
    for all parallel sampling in the package.
    """
    return list(_spawn(root_seed, k))


def _spawn(root_seed, k):
    """The generators of :func:`substreams`, each built when it is reached:
    successive ``spawn(1)`` calls give the children of one ``spawn(k)``."""
    seq = np.random.SeedSequence(root_seed)
    for _ in range(k):
        yield np.random.default_rng(seq.spawn(1)[0])


def map_chunks(func, n, chunk, rng, threads=1):
    """``[func(start, size, stream), ...]`` over consecutive chunks of
    ``n`` draws.

    Every chunk holds ``chunk`` draws except a shorter last one, and
    ``start`` is the index of its first draw, so a ``func`` may write its
    chunk into rows ``start:start + size`` of one preallocated result
    instead of returning it (disjoint rows, so threads may do this
    concurrently).  An integer ``rng`` is a root seed: chunk i draws from
    the i-th of its :func:`substreams`, and with ``threads > 1`` the
    chunks run on a thread pool (the results keep chunk order).  On one
    thread each stream is built as its chunk starts, so only one is held
    at a time.  A Generator is one sequential stream shared by all
    chunks, in order, on this thread.  ``chunk`` and ``threads`` must be
    integers of at least 1, else :class:`ParameterError` is raised before
    any draw.
    """
    for name, value in (("chunk", chunk), ("threads", threads)):
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ParameterError(f"{name} must be an integer of at least 1, got {value!r}")
    starts = range(0, n, chunk)
    sizes = [min(chunk, n - start) for start in starts]
    if isinstance(rng, np.random.Generator):
        return [func(start, size, rng) for start, size in zip(starts, sizes)]
    streams = _spawn(rng, len(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(func, starts, sizes, streams))
    return [func(start, size, stream) for start, size, stream in zip(starts, sizes, streams)]
