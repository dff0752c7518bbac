"""Deterministic random-number plumbing.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``.  Experiments derive independent child
generators from a single root seed so that runs are reproducible yet
components do not share streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

__all__ = [
    "child_rngs",
    "ensure_rng",
    "restore_generator",
    "stream_seed",
]

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed,
    or an existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def child_rngs(rng: RngLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are spawned through ``SeedSequence`` so their streams do not
    overlap regardless of how many draws each consumer makes.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=2)
    sequence = np.random.SeedSequence(entropy=[int(s) for s in seeds])
    return [np.random.default_rng(child) for child in sequence.spawn(n)]


def stream_seed(*entropy: int) -> np.random.SeedSequence:
    """``SeedSequence(entropy)`` for a tuple of ints, at a third of the cost.

    numpy coerces an entropy tuple int by int into ``uint32`` words; an
    int in ``[0, 2**32)`` is exactly one word, so such a tuple is handed
    over as one ``uint32`` array (same pool: a tier-1 tripwire pins it).
    Any other int (negative, wider than a word) takes the tuple as is.
    """
    if 0 <= min(entropy) and max(entropy) < 1 << 32:
        return np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    return np.random.SeedSequence(entropy)


def restore_generator(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a ``Generator`` from a ``bit_generator.state`` snapshot.

    The snapshot (``gen.bit_generator.state``) is a plain JSON-safe dict
    naming the bit-generator class and its counter state; this is how
    checkpoints carry RNG stream positions across a kill and resume
    without pickling generator objects.
    """
    name = state.get("bit_generator")
    bit_cls = getattr(np.random, str(name), None)
    if bit_cls is None or not isinstance(name, str):
        raise ValueError(f"unknown bit generator {name!r} in RNG state")
    gen = np.random.Generator(bit_cls())
    gen.bit_generator.state = state
    return gen
