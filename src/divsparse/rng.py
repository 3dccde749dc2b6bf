"""Deterministic 64-bit randomness for the randomized sparsifier pipeline.

The generator is SplitMix64 (the mixing function behind Java's
SplittableRandom).  It is tiny and bit-exact on every platform, which is
all the far-set sampler needs.  Randomness is never ambient: every
randomized operation receives one of these explicitly.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream.  ``next_u64`` steps the state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def top_bits(self, n: int) -> int:
        """Step ``n`` times; bit i of the result is bit 63 of output i.

        The same stream as ``n`` calls of ``next_u64``, inlined: the last
        xor-shift of the output leaves its top bit alone, so it is skipped.
        """
        state = self._state
        out = 0
        for i in range(n):
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            if ((z ^ (z >> 27)) * 0x94D049BB133111EB) >> 63 & 1:
                out |= 1 << i
        self._state = state
        return out
