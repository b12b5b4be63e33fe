"""Deterministic seed derivation.

A single 64-bit master seed is expanded into per-component streams with a
splitmix64 step applied to ``master + (index+1) * GOLDEN``.  The derivation is
pure integer arithmetic, so it is identical across platforms.
"""

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given 64-bit state."""
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, component: int) -> int:
    """Seed for the ``component``-th consumer of a master seed."""
    if component < 0:
        raise ValueError("component index must be >= 0")
    return splitmix64((master + component * _GOLDEN) & _MASK)
