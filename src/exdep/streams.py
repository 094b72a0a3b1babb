"""Seeded random streams and the chunked map that every sampler runs on.

The package draws noise one way: an integer root seed is split into
sub-streams, and chunk i of a sample draws from the i-th of them.  Every
sub-stream is a ``Generator`` on an SFC64 bit generator, seeded by one
child of the root seed's ``numpy.random.SeedSequence``; it draws the
Wald and normal values of the simulated fields faster than numpy's
default PCG64.  numpy only, with no scipy import: the simulated fields
of ``fem`` and the linear models X = A Y of ``lintrans`` draw through
:func:`map_chunks` without loading the quadrature and optimization code
of ``exptail``.
"""

from collections import deque

import numpy as np

from .errors import ParameterError

__all__ = [
    "map_chunks",
    "substreams",
]


def substreams(root_seed, k):
    """Split ``root_seed`` into ``k`` independent generators.

    The i-th is ``Generator(SFC64(child))`` for the i-th child of
    ``numpy.random.SeedSequence(root_seed).spawn(k)``, so it depends only
    on the root seed and i.  This is the documented split function for
    all parallel sampling in the package.
    """
    return list(_spawn(root_seed, k))


def _spawn(root_seed, k):
    """The generators of :func:`substreams`, each built when it is reached:
    successive ``spawn(1)`` calls give the children of one ``spawn(k)``."""
    seq = np.random.SeedSequence(root_seed)
    for _ in range(k):
        yield np.random.Generator(np.random.SFC64(seq.spawn(1)[0]))


def map_chunks(func, n, chunk, seed, threads=1):
    """``[func(start, size, stream), ...]`` over consecutive chunks of
    ``n`` draws.

    Every chunk holds ``chunk`` draws except a shorter last one, and
    ``start`` is the index of its first draw, so a ``func`` may write its
    chunk into rows ``start:start + size`` of one preallocated result
    instead of returning it (disjoint rows, so threads may do this
    concurrently).  ``seed`` is an integer root seed: chunk i draws from
    the i-th of its :func:`substreams`, whatever the thread count, and
    with ``threads > 1`` the chunks run on a thread pool (the results
    keep chunk order).  Each stream is built as its chunk is handed out:
    one thread holds one at a time, and a pool at most ``2 * threads``,
    the chunks submitted and not yet collected.  ``chunk`` and
    ``threads`` must be integers of at least 1 and ``seed`` a
    non-negative integer, else :class:`ParameterError` is raised before
    any draw, also when n = 0.
    """
    for name, value in (("chunk", chunk), ("threads", threads)):
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ParameterError(f"{name} must be an integer of at least 1, got {value!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    starts = range(0, n, chunk)
    sizes = [min(chunk, n - start) for start in starts]
    streams = _spawn(seed, len(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        results = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            window = deque()
            for start, size in zip(starts, sizes):
                if len(window) == 2 * threads:
                    results.append(window.popleft().result())
                window.append(pool.submit(func, start, size, next(streams)))
            results.extend(future.result() for future in window)
        return results
    return [func(start, size, stream) for start, size, stream in zip(starts, sizes, streams)]
