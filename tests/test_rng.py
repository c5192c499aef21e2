import numpy as np
import pytest
from scipy.special import ndtri

from releff.rng import _open_unit, data_key, perm_key, uniforms

M64 = 2**64 - 1


def philox_block(counter, key):
    """One Philox4x64-10 output block; numpy increments the counter first."""
    counter = np.array(counter, dtype=np.uint64)
    counter[0] -= np.uint64(1)  # words given here never underflow
    bg = np.random.Philox(counter=counter, key=np.array(key, dtype=np.uint64))
    return [format(int(w), "016x") for w in bg.random_raw(4)]


class TestPhiloxKnownAnswers:
    """Random123's known-answer vectors for Philox4x64-10."""

    def test_zero_counter_zero_key(self):
        # the counter wraps from all ones to all zeros on the first draw
        bg = np.random.Philox(counter=np.full(4, M64, dtype=np.uint64),
                              key=np.zeros(2, dtype=np.uint64))
        got = [format(int(w), "016x") for w in bg.random_raw(4)]
        assert got == ["16554d9eca36314c", "db20fe9d672d0fdc",
                       "d7e772cee186176b", "7e68b68aec7ba23b"]

    def test_pi_counter_and_key(self):
        counter = [0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89]
        key = [0x452821E638D01377, 0xBE5466CF34E90C6C]
        assert philox_block(counter, key) == ["a528f45403e61d95", "38c72dbd566e9788",
                                              "a5a1610e72fd18b5", "57bd43b5e52b7fe6"]


class TestUniforms:
    @pytest.mark.parametrize("n_cols", [1, 3, 4, 5, 30])
    def test_rows_tile_any_chunking(self, n_cols):
        key = perm_key(31)
        full = uniforms(key, 0, 50, n_cols)
        assert full.shape == (50, n_cols)
        for a, b in [(0, 10), (10, 35), (35, 50), (17, 18)]:
            assert np.array_equal(uniforms(key, a, b - a, n_cols), full[a:b])

    def test_row_is_the_counter_blocks_of_its_index(self):
        # row r of a 6-column matrix is words 0..5 of counter blocks 2r+1, 2r+2
        key = (5, 9)
        bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
        raw = bg.random_raw(8 * 7).reshape(7, 8)[:, :6]
        assert np.array_equal(uniforms(key, 0, 7, 6), ((raw >> 12) + 0.5) * 2.0**-52)

    @pytest.mark.parametrize("first,n_cols", [(0, 4), (3, 7), (10**6 + 1, 13), (2**62, 9)])
    def test_rows_are_those_of_an_advanced_generator(self, first, n_cols):
        """The thread's re-keyed generator gives what a fresh one advanced to
        the first row gives, whatever the calls before it read."""
        blocks = -(-n_cols // 4)
        for key in (perm_key(3), data_key(2**64 - 1), (0, 0)):
            uniforms(perm_key(8), 5, 3, 5)
            bg = np.random.Philox(key=np.array([key[0] & M64, key[1] & M64], dtype=np.uint64))
            bg.advance(first * blocks)
            raw = bg.random_raw(6 * blocks * 4).reshape(6, blocks * 4)[:, :n_cols]
            assert np.array_equal(uniforms(key, first, 6, n_cols), float_formula(raw))

    def test_keys_give_different_streams(self):
        a = uniforms(data_key(1), 0, 4, 8)
        b = uniforms(data_key(2), 0, 4, 8)
        c = uniforms(perm_key(1), 0, 4, 8)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    def test_extreme_raw_words_map_inside_the_unit_interval(self):
        u = _open_unit(np.array([0, M64], dtype=np.uint64))
        assert u.tolist() == [2.0**-53, 1.0 - 2.0**-53]
        assert 0.0 < u[0] < u[1] < 1.0
        assert np.all(np.isfinite(ndtri(u)))
        assert np.all(np.isfinite(np.log(u)))


def float_formula(words):
    """The uniform of each raw word, computed in float arithmetic."""
    return ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


class TestOpenUnit:
    EDGE_WORDS = [0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, M64,
                  0x5555555555555555, 0xAAAAAAAAAAAAAAAA]

    def test_in_place_map_equals_the_float_formula(self):
        words = np.concatenate([np.array(self.EDGE_WORDS, dtype=np.uint64),
                                np.random.Philox(key=7).random_raw(10**6)])
        raw = words.copy()
        u = _open_unit(raw)
        assert u.dtype == np.float64 and np.shares_memory(u, raw)
        assert np.array_equal(u, float_formula(words))
        assert u[:4].tolist() == [2.0**-53, 2.0**-53, 1.5 * 2.0**-52, 0.5 + 2.0**-53]

    @pytest.mark.parametrize("n_cols", [*range(1, 10), 15, 200])
    def test_uniforms_are_the_formula_strictly_inside_the_unit_interval(self, n_cols):
        # a width that is not a multiple of 4 is a strided view of the words
        key = perm_key(77)
        blocks = -(-n_cols // 4)
        bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
        raw = bg.random_raw(300 * blocks * 4).reshape(300, blocks * 4)[:, :n_cols]
        u = uniforms(key, 0, 300, n_cols)
        assert u.shape == (300, n_cols) and u.dtype == np.float64
        assert np.array_equal(u, float_formula(raw))
        assert np.all((u > 0.0) & (u < 1.0))
