"""Deterministic 64-bit randomness for the randomized sparsifier pipeline.

The generator is SplitMix64 (the mixing function behind Java's
SplittableRandom).  It is tiny and bit-exact on every platform, which is
all the far-set sampler needs.  Randomness is never ambient: every
randomized operation receives one of these explicitly.

Weight masks are drawn lane-parallel: many consecutive outputs are mixed
at once in one big integer, each in its own 128-bit lane, in the manner
of Lamport's "multiple byte processing with full-word instructions"
(1975).  A lane's value stays below 2^128, so no carry crosses a lane
boundary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MAX_BLOCK = 64  # most masks one lane-parallel pass draws
_BIT_CHARS = bytes(b"01"[b >> 7] for b in range(256))  # top bit of a byte as a digit


@lru_cache(maxsize=32)
def _lane_constants(m: int) -> tuple[int, int, int]:
    """For m lanes: a 1 in each lane, 2^64 - 1 in each lane, and
    (i + 1) * GAMMA mod 2^64 in lane i."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * m, "little")
    steps = int.from_bytes(
        b"".join(((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(m)),
        "little",
    )
    return ones, ones * _MASK64, steps


def _top_bits(state: int, m: int) -> int:
    """Bit i of the result is bit 63 of output i of the stream at ``state``,
    for the next m outputs.

    Lane i starts at the state after i + 1 steps; each xor-shift is masked
    back to the low 64 bits of its lane before the multiply.  The last
    xor-shift of an output leaves its top bit alone, so it is skipped.
    Read big-endian, byte 8 of each 16-byte lane holds bit 63, and the
    lanes come out from the last to the first, the digit order of ``int``.
    """
    ones, low, steps = _lane_constants(m)
    z = (state * ones + steps) & low
    z = ((z ^ z >> 30) & low) * _MIX1 & low
    z = ((z ^ z >> 27) & low) * _MIX2
    return int(z.to_bytes(16 * m, "big")[8::16].translate(_BIT_CHARS), 2)


class SplitMix64:
    """SplitMix64 stream.  ``next_u64`` steps the state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def masks(self, n: int) -> Iterator[int]:
        """Endless n-bit masks: bit i of a mask is bit 63 of its output i.

        Each mask takes n steps of the stream, in index order, as n calls
        of ``next_u64`` would.  The masks are computed in blocks of 1, 2,
        4, ... up to 64, and the state is advanced past each mask as it is
        handed out, so the generator is exact wherever the caller stops.
        Do not step the generator otherwise while the iterator is in use.
        """
        if n < 1:
            raise ValueError("mask width must be positive")
        step = n * _GAMMA
        low = (1 << n) - 1
        block = 1
        while True:
            state = self._state
            bits = _top_bits(state, block * n)
            for _ in range(block):
                state = (state + step) & _MASK64
                self._state = state
                yield bits & low
                bits >>= n
            block = min(2 * block, _MAX_BLOCK)
