"""The row pool: chunking, exceptions from chunks, and the BLAS pin."""

import threading

import numpy as np
import pytest

from gradevo import par


def test_split_gives_contiguous_chunks_covering_every_item(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)
    assert par.split(10) == [range(0, 3), range(3, 6), range(6, 10)]
    assert par.split(2) == [range(0, 1), range(1, 2)]
    assert par.split(0) == [range(0, 0)]
    rows = np.array([1, 4, 5, 8, 9])
    parts = par.split(rows)
    assert [p.tolist() for p in parts] == [[1], [4, 5], [8, 9]]
    assert [p.tolist() for p in par.split(rows[:0])] == [[]]


def test_run_calls_every_chunk_with_its_arguments(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)
    out = np.zeros(9)
    threads = set()

    def chunk(part, scale):
        threads.add(threading.get_ident())
        out[part.start:part.stop] = scale

    par.run(chunk, par.split(9), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, [1, 1, 1, 2, 2, 2, 3, 3, 3])
    assert threading.get_ident() in threads     # the first chunk runs here


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_chunk_that_raises_surfaces_its_exception(monkeypatch, bad):
    monkeypatch.setattr(par, "_width", 3)
    finished = []

    def chunk(j):
        if j == bad:
            raise ValueError(f"chunk {j}")
        finished.append(j)

    with pytest.raises(ValueError, match=f"chunk {bad}"):
        par.run(chunk, range(3))
    # every other chunk ran to its end before the error came back
    assert sorted(finished) == [j for j in range(3) if j != bad]


def test_the_first_failing_chunk_wins(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)

    def chunk(j):
        if j:
            raise RuntimeError(f"chunk {j}")

    with pytest.raises(RuntimeError, match="chunk 1"):
        par.run(chunk, range(3))


def test_pin_blas_reads_back_one_thread():
    assert par.pin_blas() == 1


def test_blas_threads_reads_without_setting(monkeypatch):
    calls = []

    def fake_libs():
        for pkg, n in (("numpy", 4), ("scipy", 2), ("scipy", 3)):
            yield pkg, lambda k: calls.append(k), lambda n=n: n

    monkeypatch.setattr(par, "_openblas_libs", fake_libs)
    assert par.blas_threads() == {"numpy": 4, "scipy": 3}
    assert calls == []
    par.pin_blas()
    assert calls == [1, 1, 1]
