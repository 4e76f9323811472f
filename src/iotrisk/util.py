"""Small shared helpers: integer allocation and seed derivation."""

import numpy as np


def largest_remainder(targets, total: int) -> np.ndarray:
    """Allocate `total` integer units against fractional `targets`.

    Each entry gets floor(target); the remaining units are handed out by
    descending fractional remainder, ties going to the lowest index.  The
    result always sums to `total` exactly.
    """
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < 0):
        raise ValueError("targets must be non-negative")
    counts = np.floor(targets).astype(int)
    remainders = targets - counts
    short = int(total) - int(counts.sum())
    while short > 0:
        # lexsort: last key is primary, so order by remainder desc, index asc
        order = np.lexsort((np.arange(len(targets)), -remainders))
        take = order[: min(short, len(order))]
        counts[take] += 1
        remainders[take] = 0.0
        short -= len(take)
    while short < 0:
        order = np.lexsort((np.arange(len(targets)), remainders))
        for i in order:
            if counts[i] > 0:
                counts[i] -= 1
                short += 1
                if short == 0:
                    break
    return counts


def derived_seed(*parts: int) -> int:
    """Deterministic child seed from integer components."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])
