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

    def pm1(self) -> int:
        """One +1/-1 draw (top bit of the next word)."""
        return 1 if self.next_u64() >> 63 else -1
