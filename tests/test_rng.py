import numpy as np
import pytest

from nomacast.rng import fill_uniform, window_generator
from rng_stream import (RngStream, bits_to_exponential, bits_to_normal, bits_to_uniform,
                        window_bits)

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


def test_top_words_map_below_one():
    """Words 2^64 - 2^11 and up would round to 1.0 and give a zero exponential;
    they map to the largest double below 1, and the word just under is unchanged."""
    top = np.array([(1 << 64) - 1, (1 << 64) - (1 << 11)], dtype=np.uint64)
    assert np.all(bits_to_uniform(top) == 1.0 - 2.0**-53)
    assert np.all(bits_to_exponential(top) > 0.0)
    below = np.array([(1 << 64) - (1 << 11) - 1], dtype=np.uint64)
    assert bits_to_uniform(below)[0] == ((1 << 53) - 2 + 0.5) * 2.0**-53 < 1.0 - 2.0**-53


class _Words:
    """A generator stand-in whose random() gives (b >> 11) * 2^-53 for the given
    words b, as Generator.random does for the words of its bit generator."""

    def __init__(self, words):
        self.words = words

    def random(self, out):
        out[...] = (self.words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return out


def test_generator_random_is_the_top_53_bits_of_each_word():
    raw = window_bits(7, 9, 3, 4096, 8)  # a width of 8 words has no padding
    got = window_generator(7, 9, 3, 8).random(raw.size).reshape(raw.shape)
    assert np.array_equal(got, (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)


@pytest.mark.parametrize("low", [0, (1 << 11) - 1], ids=["low_bits_clear", "low_bits_set"])
def test_fill_uniform_maps_edge_words_as_bits_to_uniform(low):
    """At x = b >> 11 = 0 and 1, around 2^52 (from where x + 1/2 is rounded to
    an even integer) and at the top (2^53 - 1 rounds up to 2^53, i.e. 1.0, and
    is clamped), x * 2^-53 + 2^-54 gives bits_to_uniform's double exactly."""
    x = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    words = (x << np.uint64(11)) | np.uint64(low)
    got = fill_uniform(_Words(words), np.empty(len(words)))
    assert np.array_equal(got.view(np.uint64), bits_to_uniform(words).view(np.uint64))
    assert got[-1] == 1.0 - 2.0**-53 and got[0] == 2.0**-54


def test_fill_uniform_draws_the_uniforms_of_window_bits():
    """Consecutive fills from one generator continue the windows: a width of 7
    words is padded to 8, and the padding word is drawn and skipped."""
    gen = window_generator(5, 11, 40, 7)
    out = np.empty((100, 8))
    fill_uniform(gen, out[:37])
    fill_uniform(gen, out[37:])
    want = bits_to_uniform(window_bits(5, 11, 40, 100, 7))
    assert np.array_equal(out[:, :7].view(np.uint64), want.view(np.uint64))


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
