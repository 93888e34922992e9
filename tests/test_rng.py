import numpy as np
import pytest

from nomacast.rng import (RngStream, bits_to_exponential, bits_to_normal,
                          bits_to_uniform, window_bits)

# Frozen outputs pin the cross-platform determinism contract.
GOLDEN_STREAM_RAW = [7731391513398885473, 17185639166945717721,
                     12196228470011545029, 7723957408058658498,
                     9382787123089523035, 5282614236732133832]
GOLDEN_WINDOWS = [
    [14325615269970450333, 7258602871720235408, 6240891009043345126,
     12439531859547506198, 16659479719980249698],
    [17732384207283063960, 13975209945533466769, 10915005721366253496,
     2507348030808795555, 271141552705382609],
]


def test_stream_matches_golden_values():
    assert list(RngStream(2024, 5).raw(6)) == GOLDEN_STREAM_RAW


def test_window_matches_golden_values():
    w = window_bits(99, 3, 10, 2, 5)
    assert w.tolist() == GOLDEN_WINDOWS


def test_same_stream_id_reproduces_sequence():
    a = RngStream(7, 3).normal(100)
    b = RngStream(7, 3).normal(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(7, 3).raw(32)
    b = RngStream(7, 4).raw(32)
    assert not np.array_equal(a, b)


def test_sequential_draws_continue_the_stream():
    s = RngStream(11, 0)
    first = s.uniform(4)
    second = s.uniform(4)
    combined = RngStream(11, 0).uniform(8)
    assert np.array_equal(np.concatenate([first, second]), combined)


def test_window_partition_independence():
    """Any sub-range of windows reproduces the same rows."""
    full = window_bits(5, 0, 0, 12, 7)
    part = window_bits(5, 0, 4, 5, 7)
    assert np.array_equal(full[4:9], part)


def test_window_rejects_bad_width():
    with pytest.raises(ValueError):
        window_bits(1, 0, 0, 4, 0)


def test_uniform_open_interval():
    u = RngStream(3).uniform(200_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_transform_moments():
    bits = RngStream(17).raw(200_000)
    u = bits_to_uniform(bits)
    g = bits_to_normal(bits)
    e = bits_to_exponential(bits)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(g.mean()) < 0.01 and abs(g.std() - 1.0) < 0.01
    assert abs(e.mean() - 1.0) < 0.01


def test_spawn_matches_fresh_stream():
    assert np.array_equal(RngStream(9).spawn(42).raw(8), RngStream(9, 42).raw(8))


@pytest.mark.parametrize("args", [(2**64 + 5,), (-1,), (0, -1), (0, 1 << 64)],
                         ids=["seed_2_64_plus_5", "seed_neg", "stream_neg", "stream_2_64"])
def test_stream_rejects_out_of_range_keys(args):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        RngStream(*args)


def test_keys_at_and_above_2_63_stay_distinct():
    """Neighbouring keys >= 2**63, up to 2**64 - 1, give different streams and windows."""
    top = (1 << 64) - 1
    streams = [RngStream(*key).raw(4) for key in
               ((top,), (0, top), (top - 1,), (2**63,), (2**63 + 1,))]
    assert len({tuple(s) for s in streams}) == len(streams)
    assert not np.array_equal(window_bits(2**63, 1, 0, 1, 4),
                              window_bits(2**63 + 1, 1, 0, 1, 4))
