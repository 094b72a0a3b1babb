import numpy as np
import pytest

from exdep.errors import ParameterError
from exdep.streams import map_chunks, substreams


def test_substreams_independent_and_documented_split():
    streams = substreams(99, 3)
    draws = [s.random(4) for s in streams]
    again = [s.random(4) for s in substreams(99, 3)]
    for d, e in zip(draws, again):
        assert np.array_equal(d, e)
    assert not np.array_equal(draws[0], draws[1])
    # built one spawn(1) at a time, they are the children of one spawn(k)
    for d, child in zip(draws, np.random.SeedSequence(99).spawn(3)):
        assert np.array_equal(d, np.random.default_rng(child).random(4))


def test_map_chunks_sizes_streams_and_threads():
    def draw(start, size, stream):
        return (start, size), stream.random(size)

    out = map_chunks(draw, 10, 4, 99)
    assert [chunk for chunk, _ in out] == [(0, 4), (4, 4), (8, 2)]
    for (_, got), stream, size in zip(out, substreams(99, 3), (4, 4, 2)):
        assert np.array_equal(got, stream.random(size))
    threaded = map_chunks(draw, 10, 4, 99, threads=2)
    assert [chunk for chunk, _ in threaded] == [(0, 4), (4, 4), (8, 2)]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(out, threaded))
    # a Generator is one sequential stream, whatever the thread count
    seq = map_chunks(draw, 10, 4, np.random.default_rng(5), threads=2)
    assert np.array_equal(np.concatenate([d for _, d in seq]),
                          np.random.default_rng(5).random(10))
    assert map_chunks(draw, 0, 4, 99) == []


@pytest.mark.parametrize("chunk, threads", [(0, 1), (-5, 1), (2.5, 1), (4, 0), (4, -1),
                                            (4, 1.0)])
def test_map_chunks_rejects_chunking_below_one_or_not_an_integer(chunk, threads):
    calls = []
    for rng in (99, np.random.default_rng(5)):
        with pytest.raises(ParameterError, match="integer of at least 1"):
            map_chunks(lambda *args: calls.append(args), 10, chunk, rng, threads)
    assert calls == []
