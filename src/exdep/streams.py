"""Seeded random streams and the one sampler of linear models X = A Y.

The package draws noise one way: an integer root seed is split into
sub-streams, and chunk i of a sample draws from the i-th of them.  Every
sub-stream is a ``Generator`` on an SFC64 bit generator, seeded by one
child of the root seed's ``numpy.random.SeedSequence``; it draws the
Wald and normal values of the simulated fields faster than numpy's
default PCG64.  :func:`draw_linear` is the one sampler on
:func:`map_chunks`: the type G fields of ``fem`` and the i.i.d. linear
models of ``lintrans``, and :func:`normal_mixture` forms every normal
mean-variance mixture.  numpy only, with no scipy import.
"""

import threading
from collections import deque

import numpy as np

from .errors import ParameterError

__all__ = [
    "draw_linear",
    "map_chunks",
    "normal_mixture",
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


def normal_mixture(stream, v, shift, gamma, z=None):
    """shift + gamma*V + sqrt(V)*Z in place of the mixing values ``v``, Z
    drawn by one ``standard_normal`` call into ``z`` (new when None).  The
    in-place steps only swap the operands of a product or a sum, so ``v``
    ends bit-equal to the formula evaluated left to right."""
    z = stream.standard_normal(out=np.empty_like(v) if z is None else z)
    z *= np.sqrt(v)  # sqrt(V)*Z
    v *= gamma
    v += shift      # shift + gamma*V
    v += z
    return v


def draw_linear(weights, blocks, n, seed, chunk, mixture=None, threads=1):
    """n replicates of X = weights @ Y, an (n, k) array in column-major
    order, for a (k, m) array ``weights``.

    Chunk i of ``chunk`` replicates draws from the i-th sub-stream of the
    integer root ``seed`` (:func:`map_chunks`, ``threads`` workers) into
    a reused node-major (m, size) buffer V: each ``(first, end, draw)``
    of ``blocks`` in turn sets rows first:end to ``draw(stream,
    (end - first, size))``.  A ``mixture`` (shift, gamma) makes V the
    :func:`normal_mixture` of those mixing values; ``shift`` broadcasts
    against V.  ``weights @ V`` fills the chunk's rows of the result.
    Memory is the result plus, per thread, V and Z of m x min(chunk, n)
    values, one block's draw, sqrt(V) and one k x size product.
    """
    m = weights.shape[1]
    out = np.empty((n, weights.shape[0]), order="F")
    cells = m * min(chunk, n)
    buffers = threading.local()  # concurrent chunks must not share a buffer

    def one_chunk(start, size, stream):
        if not hasattr(buffers, "v"):
            buffers.v = np.empty(cells)
            buffers.z = np.empty(cells) if mixture is not None else None
        v = buffers.v[:m * size].reshape(m, size)
        for first, end, draw in blocks:
            v[first:end] = draw(stream, (end - first, size))
        if mixture is not None:
            normal_mixture(stream, v, *mixture, buffers.z[:v.size].reshape(v.shape))
        out.T[:, start:start + size] = weights @ v

    map_chunks(one_chunk, n, chunk, seed, threads)
    return out
