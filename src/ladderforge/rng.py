"""Portable deterministic pseudo-randomness for training and synthesis.

All library randomness flows through :class:`SplitMix64`, a splitmix-style
64-bit generator: the state advances by a fixed odd constant (the golden
gamma) and each output is a bijective bit-mix of the new state.  Because the
i-th output depends only on ``seed + i * gamma``, blocks of draws can be
produced vectorised with numpy while staying bit-identical to sequential
scalar calls.  The derived draws are pinned down exactly so that results
reproduce across platforms and implementations:

- ``below(n)``       -> ``next_u64() % n``
- ``uniforms(k)``    -> ``(u64 >> 11) * 2**-53`` per draw, in ``[0, 1)``
- ``normals(k)``     -> Box-Muller on uniform pairs; consumes ``2*ceil(k/2)``
  draws regardless of parity
- ``permutation(n)`` -> Fisher-Yates from the top, one ``below`` per swap
- ``subset(k, n)``   -> partial Fisher-Yates, one ``below`` per slot
  (:func:`partial_shuffle` of those draws)
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream seeded with a single integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Integer in ``[0, bound)``, defined as ``next_u64() % bound``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def block(self, count: int) -> np.ndarray:
        """`count` raw outputs as uint64, equal to that many next_u64() calls."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """Vectorised ``below``: `count` integers in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.block(count) % np.uint64(bound)).astype(np.intp)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` float64 values in ``[0, 1)`` with 53-bit resolution."""
        return (self.block(count) >> np.uint64(11)) * 2.0**-53

    def normals(self, count: int, sigma: float = 1.0) -> np.ndarray:
        """Gaussian draws with mean 0 via Box-Muller pairs."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
        theta = (2.0 * math.pi) * u[pairs:]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return sigma * out[:count]

    def permutation(self, count: int) -> list[int]:
        items = list(range(count))
        for i in range(count - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def subset(self, k: int, n: int) -> list[int]:
        """`k` distinct indices drawn from ``range(n)``."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct items from {n}")
        return partial_shuffle([self.below(n - i) for i in range(k)], n)


def partial_shuffle(offsets: Sequence[int], n: int) -> list[int]:
    """The ``len(offsets)`` indices that ``subset`` draws from ``range(n)``
    when its ``below`` calls return ``offsets``: slot i swaps with slot
    ``i + offsets[i]``, where ``offsets[i] < n - i``."""
    pool = list(range(n))
    for i, offset in enumerate(offsets):
        j = i + offset
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:len(offsets)]
