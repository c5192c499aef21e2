"""Every random number of the package: counter-addressed blocks of uniforms.

`uniforms(key, first_row, n_rows, n_cols)` reads rows of open uniforms off
one Philox4x64-10 bit generator (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).  Row r is the output of counter blocks
r*b+1 .. r*b+b, b = ceil(n_cols/4), under the given key, so it depends only
on (key, r, n_cols): any split of the rows into chunks, lanes or worker
processes regenerates the same values.  Two keys are in use:

* `data_key(master_seed)` -- Monte Carlo data, one row per replication and
  one column per observation (arm 1 first);
* `perm_key(seed)` -- permutation draws, one row per draw and one column per
  relabelling swap.

Samplers turn the uniforms into data by inverse CDF, so the realised
numbers do not depend on numpy's non-uniform sampling algorithms.
"""
from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "mix64",
    "derived_seed",
    "data_key",
    "perm_key",
    "rep_permutation_seed",
    "uniforms",
]

DEFAULT_SEED = 123456789

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PERM_SALT = 0xD1B54A32D192ED03
_DATA_TAG = 1 << 60
# the bit pattern of 1.0: sign 0, exponent 1023, fraction 0
_ONE_BITS = np.uint64(0x3FF0000000000000)
# each thread's bit generator, re-keyed by every `uniforms` call
_held = threading.local()


def mix64(x: int) -> int:
    """SplitMix64 finaliser: a high-quality 64-bit mixing bijection."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derived_seed(master_seed: int, index: int, salt: int = 0) -> int:
    """A 64-bit subseed that is a pure, collision-free function of the index."""
    return mix64(mix64(master_seed ^ salt) + index * _GOLDEN)


def data_key(master_seed: int) -> tuple[int, int]:
    """Key of a scenario's data stream; row r is replication r."""
    return master_seed, _DATA_TAG


def perm_key(seed: int) -> tuple[int, int]:
    """Key of a permutation run's stream; row k is draw k."""
    return mix64(seed ^ _PERM_SALT), seed


def rep_permutation_seed(master_seed: int, rep_index: int) -> int:
    """Seed handed to the permutation test run inside one replication."""
    return derived_seed(master_seed, rep_index, _PERM_SALT)


def uniforms(key: tuple[int, int], first_row: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Rows [first_row, first_row + n_rows) of the key's uniform matrix.

    A float64 view of the raw words, mapped in place; its rows are strided
    when n_cols is not a multiple of 4.  The words come from one generator
    per thread, set to the key with its counter at first_row * b: the state
    `Philox(key=key).advance(first_row * b)` would reach, without building
    a generator on every call.
    """
    blocks = -(-n_cols // 4)
    bg = getattr(_held, "philox", None)
    if bg is None:
        bg = _held.philox = np.random.Philox(key=0)
    counter = first_row * blocks
    bg.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([counter & _M64, counter >> 64 & _M64, 0, 0], dtype=np.uint64),
            "key": np.array([key[0] & _M64, key[1] & _M64], dtype=np.uint64),
        },
        # no words buffered: the next word opens counter block first_row * b + 1
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    raw = bg.random_raw(n_rows * blocks * 4).reshape(n_rows, blocks * 4)
    return _open_unit(raw)[:, :n_cols]


def _open_unit(raw: np.ndarray) -> np.ndarray:
    """((w >> 12) + 0.5) * 2**-52 for raw 64-bit words w, as a float64 view of raw.

    Computed in raw's own memory: w >> 12 becomes the 52 fraction bits of
    1.0, which reads 1 + (w >> 12) * 2**-52, and subtracting 1 - 2**-53
    leaves (2 (w >> 12) + 1) * 2**-53.  That needs at most 53 significant
    bits, so the subtraction is exact.  The result is strictly inside
    (0, 1) for every word, so inverse CDFs stay finite.
    """
    raw >>= np.uint64(12)
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u
