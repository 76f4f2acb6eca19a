"""Deterministic random number helpers.

Every stochastic element of the simulation (rank-to-node mapping shuffles,
synthetic workload jitter, failure injection in tests) derives its generator
through these helpers so results are reproducible run-to-run and independent
of call ordering between components.

:func:`derive_seeds` and :func:`pcg64_states` are the batch forms the
workload payloads use: one SHA-256 prefix for many rows, and numpy's
``SeedSequence`` mixing as array arithmetic over every seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Default seed used when a component does not receive an explicit one.
DEFAULT_SEED = 20170905  # CLUSTER 2017 conference date.


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded deterministically.

    Args:
        seed: explicit seed; ``None`` selects :data:`DEFAULT_SEED`.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(int(seed))


def derive_seed(base: int | None, *tokens: object) -> int:
    """Derive a child seed from a base seed and a sequence of tokens.

    The derivation is stable across processes and Python versions (it does not
    rely on ``hash()``): the tokens are rendered to text and digested with
    SHA-256.  Components use this to give each simulated entity (a rank, a
    round, a workload) an independent stream.

    Example:
        >>> derive_seed(1, "rank", 3) == derive_seed(1, "rank", 3)
        True
        >>> derive_seed(1, "rank", 3) != derive_seed(1, "rank", 4)
        True
    """
    if base is None:
        base = DEFAULT_SEED
    digest = hashlib.sha256()
    digest.update(str(int(base)).encode("utf-8"))
    for token in tokens:
        digest.update(b"\x1f")
        digest.update(repr(token).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")


def derive_seeds(base: int | None, tokens: tuple, *columns) -> np.ndarray:
    """:func:`derive_seed` of ``(base, *tokens, *row)`` for every row of ``columns``.

    ``columns`` are aligned integer sequences (numpy integers included: each
    value is digested as the Python int it stands for).  The constant prefix
    is hashed once and copied per row.  Returns the seeds as ``uint64``.
    """
    if base is None:
        base = DEFAULT_SEED
    prefix = hashlib.sha256()
    prefix.update(str(int(base)).encode("utf-8"))
    for token in tokens:
        prefix.update(b"\x1f")
        prefix.update(repr(token).encode("utf-8"))
    row_format = "\x1f%d" * len(columns)
    digests = []
    for row in zip(*(np.asarray(column).tolist() for column in columns)):
        digest = prefix.copy()
        digest.update((row_format % row).encode("utf-8"))
        digests.append(digest.digest()[:8])
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


# numpy's ``SeedSequence`` constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_steps(initial: int, multiplier: int):
    """``(xor, multiply)`` constants of ``SeedSequence``'s successive hash
    steps: they do not depend on the data, only on how many steps ran."""
    while True:
        following = initial * multiplier & _MASK32
        yield np.uint32(initial), np.uint32(following)
        initial = following


def _hash(value: np.ndarray, steps) -> np.ndarray:
    """One ``SeedSequence`` hash step: xor, multiply, fold the high half."""
    xor, multiply = next(steps)
    value = (value ^ xor) * multiply
    return value ^ (value >> np.uint32(16))


def pcg64_states(seeds) -> tuple[list[int], list[int]]:
    """``(state, inc)`` lists: where ``np.random.PCG64(seed)`` starts, for every seed.

    Runs numpy's ``SeedSequence`` mixing of a 64-bit entropy word up to
    ``generate_state(4, np.uint64)`` as uint32 array arithmetic over all
    seeds at once, then PCG64's ``srandom`` per seed, so a batch of streams
    needs one ``PCG64`` whose ``state`` is set per stream instead of one
    seeded construction each.  ``tests/test_segmented_schedule.py``
    checks the result against numpy's own seeding.
    """
    words = np.asarray(seeds, dtype=np.uint64).astype("<u8").view("<u4").reshape(-1, 2)
    # numpy hashes an absent entropy word as 0, so a seed below 2**32 (one
    # word) mixes exactly like two words whose high word is 0.
    steps = _hash_steps(_INIT_A, _MULT_A)
    zeros = np.zeros(len(words), dtype=np.uint32)
    pool = [_hash(words[:, i] if i < 2 else zeros, steps) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                hashed = _hash(pool[source], steps)
                mixed = np.uint32(_MIX_MULT_L) * pool[target] - np.uint32(_MIX_MULT_R) * hashed
                pool[target] = mixed ^ (mixed >> np.uint32(16))
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = [_hash(pool[i % _POOL_SIZE], steps) for i in range(2 * _POOL_SIZE)]
    # generate_state(4, np.uint64): (state high, state low, inc high, inc
    # low).  srandom's two LCG steps are one 128-bit product per seed,
    # which Python ints do as fast as uint32-limb arrays would.
    generated = np.stack(state, axis=1).astype("<u4").view("<u8")
    starts, incs = [], []
    for state_high, state_low, inc_high, inc_low in generated.tolist():
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        starts.append(((state_high << 64 | state_low) + inc) * _PCG64_MULT + inc & _MASK128)
        incs.append(inc)
    return starts, incs
