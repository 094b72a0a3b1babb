import threading

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
    # built one spawn(1) at a time, they are SFC64 generators on the children of one spawn(k)
    for stream, d, child in zip(streams, draws, np.random.SeedSequence(99).spawn(3)):
        assert isinstance(stream.bit_generator, np.random.SFC64)
        assert np.array_equal(d, np.random.Generator(np.random.SFC64(child)).random(4))


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
    assert map_chunks(draw, 0, 4, 99) == []


# None would seed numpy from OS entropy, so no two runs would agree
@pytest.mark.parametrize("seed", [np.random.default_rng(5), 5.0, -1, "5", None])
def test_map_chunks_takes_only_a_non_negative_integer_seed(seed):
    calls = []
    for n, threads in ((10, 1), (10, 2), (0, 1)):  # also with nothing to draw
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            map_chunks(lambda *args: calls.append(args), n, 4, seed, threads)
    assert calls == []


@pytest.mark.parametrize("chunk, threads", [(0, 1), (-5, 1), (2.5, 1), (4, 0), (4, -1),
                                            (4, 1.0)])
def test_map_chunks_rejects_chunking_below_one_or_not_an_integer(chunk, threads):
    calls = []
    for rng in (99, np.random.default_rng(5)):
        with pytest.raises(ParameterError, match="integer of at least 1"):
            map_chunks(lambda *args: calls.append(args), 10, chunk, rng, threads)
    assert calls == []


def test_map_chunks_threads_hold_a_bounded_window_of_streams(monkeypatch):
    # chunk 0 returns last; until then the pool may hold only 2 * threads chunks
    built = []
    real = np.random.SFC64
    monkeypatch.setattr(np.random, "SFC64", lambda seed: built.append(seed) or real(seed))
    seen = []
    others_done = threading.Event()

    def draw(start, size, stream):
        if start == 0:
            others_done.wait(timeout=1.0)  # gives an eager pool time to build every stream
            seen.append(len(built))
        elif start == 3 * 4:  # the last chunk the window can hold
            others_done.set()
        return start, stream.random(size)

    out = map_chunks(draw, 20 * 4, 4, 99, threads=2)
    assert seen == [4] and len(built) == 20
    assert [start for start, _ in out] == list(range(0, 80, 4))
    for (_, got), stream in zip(out, substreams(99, 20)):
        assert np.array_equal(got, stream.random(4))
