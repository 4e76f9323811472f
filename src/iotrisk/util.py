"""Small shared helpers: integer allocation, seed derivation and the
forked worker pool."""

import numpy as np


def largest_remainder(targets, total: int) -> np.ndarray:
    """Allocate `total` integer units against fractional `targets`.

    Each entry gets floor(target); the remaining units are handed out by
    descending fractional remainder, ties going to the lowest index.  The
    result always sums to `total` exactly.
    """
    targets = np.asarray(targets, dtype=float)
    if total < 0 or not (np.isfinite(targets) & (targets >= 0)).all():
        raise ValueError("targets must be finite and non-negative, total non-negative")
    if total > 0 and not targets.size:
        raise ValueError("a positive total needs at least one target")
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


def _fork_pool(size: int, cell):
    """An executor over `size` worker processes forked from this one, each
    holding `cell`, or None where the platform cannot fork."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # fork hands `cell` and what it closes over to each worker unpickled
    return ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"),
                               initializer=_hold_cell, initargs=(cell,))


_worker_cell = None  # set in each forked worker, never in the parent


def _hold_cell(cell) -> None:
    global _worker_cell
    _worker_cell = cell


def _run_in_worker(index: int):
    return _worker_cell(index)


def run_cells(cell, count: int, threads: int = 1, died=RuntimeError) -> list:
    """`[cell(0), ..., cell(count - 1)]`, in that order.

    With `threads` > 1 the cells run in min(threads, count) worker
    processes forked from this one.  The workers inherit `cell` and what
    it closes over (design matrix, labels, fold plan) copy-on-write; only
    cell indices go out, and only a result or an exception comes back.
    The lowest failing cell's exception is raised, as the serial loop
    raises it; a worker that dies is a `died` error.  Every worker has
    exited before this returns.  Where the platform cannot fork, the
    cells run serially.
    """
    size = min(threads, count)
    pool = _fork_pool(size, cell) if size > 1 else None
    if pool is None:
        return [cell(index) for index in range(count)]
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(pool.map(_run_in_worker, range(count)))
    except BrokenProcessPool as exc:
        raise died(f"a worker process died ({exc})") from None
    finally:
        pool.shutdown(cancel_futures=True)
