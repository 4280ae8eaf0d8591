"""Counter-based random streams for reproducible decoding.

Every random draw in the engine is a pure function of (seed, stream, index),
realized with the Philox counter-based generator.  This keeps the main-stream
token sampling and the suppression Bernoulli decisions on independent streams:
consuming a draw on one stream never perturbs the other, and replaying a run
with the same seed reproduces every decision bit for bit.

Draws are made 64 positions at a time: Philox is counter-based, so one
generator call yields a whole aligned block of consecutive positions, and a
small cache keeps the blocks a decode loop is walking through.  Each thread
keeps one Philox generator and, for every block it draws, resets that
generator's key, counter and buffer instead of building a new one.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

# Stream tags.  Distinct tags give statistically independent substreams of the
# same run seed.
SAMPLING_STREAM = 1
DECISION_STREAM = 2

_MASK64 = (1 << 64) - 1

#: Stream positions drawn per generator call; blocks start at multiples of it.
_BLOCK = 64

#: Per-thread ``gen``: the Philox generator this thread draws blocks from.
_local = threading.local()


@lru_cache(maxsize=64)
def _block(seed: int, stream: int, start: int) -> tuple[float, ...]:
    """Uniforms at positions ``start .. start + _BLOCK - 1`` of one stream.

    numpy's Philox bumps its 256-bit counter before each group of four 64-bit
    outputs and ``random()`` keeps the first output of a group, so every
    fourth value from counter ``start`` is the one-draw value at the next
    position.  An aligned block ends at or before position 2**64 - 1, so its
    counters carry into the upper words exactly as the one-draw counters do.
    The thread's generator is reset to the state ``Philox(key=(seed, stream),
    counter=(start, 0, 0, 0))`` starts in: an empty output buffer.
    """
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [start, 0, 0, 0], "key": [seed, stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return tuple(gen.random(4 * _BLOCK)[::4].tolist())


def stream_uniform(seed: int, stream: int, index: int) -> float:
    """Return the uniform [0, 1) variate at a fixed stream position.

    Pure function: the same (seed, stream, index) triple always yields the
    same value, regardless of any other draws made elsewhere.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    index &= _MASK64
    offset = index % _BLOCK
    return _block(seed & _MASK64, stream & _MASK64, index - offset)[offset]


def sampling_uniform(seed: int, step: int) -> float:
    """Uniform variate used to select the token at generation step ``step``."""
    return stream_uniform(seed, SAMPLING_STREAM, step)


def decision_uniform(seed: int, position: int) -> float:
    """Uniform variate behind the suppression Bernoulli draw at ``position``."""
    return stream_uniform(seed, DECISION_STREAM, position)


def derive_seed(seed: int, index: int) -> int:
    """Derive a per-problem run seed from a base seed and a stable index."""
    # SplitMix64-style mix; keeps per-problem streams decorrelated.
    z = (seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
