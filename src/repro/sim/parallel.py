"""Deterministic fork-and-pipe fan-out for analysis and calibration.

Sweeps, distribution-policy comparisons, and calibration points are
embarrassingly parallel: every task builds its own simulator, machine, and
seeded RNG hub, so tasks share no state and their results depend only on
their arguments.  :func:`parallel_map` exploits that while keeping the
properties the rest of the toolchain relies on:

* **Determinism** -- results come back in input order, and each task's
  output is a pure function of its arguments (seeds included), so a
  parallel run is byte-identical to the serial loop it replaces.  Worker
  scheduling affects only wall-clock time, never values.
* **Serial exception semantics** -- a task exception propagates exactly
  as the serial loop would raise it: the lowest-index failing item's,
  wherever that item ran.
* **Worker-crash retry** -- a forked child that dies mid-chunk (OOM kill,
  SIGKILL) has its chunk re-run once in the parent, in input order.
  Results stay deterministic because every task is a pure function of its
  arguments; the retry count is tracked in the
  ``parallel_worker_retries_total`` metric (:func:`worker_retries_total`,
  :func:`publish_metrics`).

The engine is ``os.fork`` plus one pipe per child.  The items are dealt
to ``jobs`` chunks in snake order (:func:`_snake_chunks`); the parent runs
chunk 0 itself while ``jobs - 1`` forked children run the others, write
their pickled results to their pipes and leave with ``os._exit``.  Children
inherit ``fn`` and the items, so neither has to pickle; a result that does
not survive the pipe is recomputed in the parent.  A ``parallel_map``
inside a child runs serially, so no grandchildren are forked, and so does
one in a process with other threads running (``fork`` copies only the
calling thread, and locks the others hold would stay locked).

``REPRO_JOBS`` overrides the worker count (``REPRO_JOBS=1`` forces serial
everywhere -- useful in CI and under profilers).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import signal
import sys
import threading
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Chunks re-run in the parent after their forked child died (process
#: lifetime).
_worker_retries_total = 0


def worker_retries_total() -> int:
    """How many chunks were re-run after their child died (this process)."""
    return _worker_retries_total


def publish_metrics(registry) -> None:
    """Mirror the retry counter into a :class:`MetricsRegistry`."""
    counter = registry.counter(
        "parallel_worker_retries_total",
        help="fan-out chunks re-run after their forked child died",
    )
    counter.value = float(_worker_retries_total)


def available_cores() -> int:
    """CPU cores usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else all cores."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
        if jobs is None:
            jobs = available_cores()
    return max(1, int(jobs))


def derived_seeds(
    seed: int, n: int, label: str = "point", shard: int | None = None
) -> list[int]:
    """``n`` deterministic 32-bit seeds derived from one experiment seed.

    Stable across platforms and Python hash randomization (sha256-based,
    matching :class:`repro.sim.rng.RngHub`'s stream derivation).  Use one
    per point when points need *independent* randomness; points that must
    replicate a serial baseline should keep the caller's seed unchanged.

    ``shard`` adds a shard id to the derivation domain: two shards of one
    sharded run that both derive per-point seeds under the same label can
    never draw colliding seed sequences (``shard=None`` preserves the
    historical single-namespace derivation byte-for-byte).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    prefix = (
        f"{seed}/{label}" if shard is None else f"{seed}/{label}/shard{shard}"
    )
    seeds = []
    for index in range(n):
        digest = hashlib.sha256(f"{prefix}/{index}".encode()).digest()
        seeds.append(int.from_bytes(digest[:4], "big"))
    return seeds


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: int | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items`` on forked workers, results in input order.

    Serial when ``jobs`` resolves to 1, when there is at most one item,
    inside a forked child, or while other threads run.  Otherwise the
    parent runs one chunk and ``jobs - 1`` forked children run the rest
    (see the module docstring); each chunk stops at its first task
    exception.  Every item without a result below the first failing
    index -- a dead child's chunk, a result or exception that did not
    pickle, a chunk whose fork failed -- is then computed in the parent,
    in input order, and the lowest-index failure is raised.  An exception
    from a child arrives unpickled, without the child's traceback
    (``REPRO_JOBS=1`` shows it).  ``fn`` and ``items`` need not pickle;
    results and task exceptions should.
    """
    item_list = list(items)
    workers = min(resolve_jobs(jobs), len(item_list))
    if workers <= 1 or _in_child or threading.active_count() > 1:
        return [fn(item) for item in item_list]
    chunk_indexes = _snake_chunks(len(item_list), workers)
    chunk_items = [
        [item_list[index] for index in indexes] for indexes in chunk_indexes
    ]
    # A child's final flush must not repeat output buffered before fork.
    sys.stdout.flush()
    sys.stderr.flush()
    pending = []
    chunks = {}
    try:
        for chunk in range(1, workers):
            pending.append((chunk, _fork_chunk(fn, chunk_items[chunk])))
        chunks[0] = _run_chunk(fn, chunk_items[0])
        while pending:
            chunk, child = pending[0]
            chunks[chunk] = _collect(child)
            pending.pop(0)
    finally:
        for _chunk, child in pending:  # left only by an exception
            if child is not None:
                _kill(child)
    results: list = [_MISSING] * len(item_list)
    failures = {}
    for chunk, entries in chunks.items():
        for index, (raised, value) in zip(chunk_indexes[chunk], entries):
            if value is _MISSING:
                continue
            if raised:
                failures[index] = value
            else:
                results[index] = value
    first_failure = min(failures, default=len(item_list))
    for index in range(first_failure):
        if results[index] is _MISSING:
            results[index] = fn(item_list[index])
    if failures:
        raise failures[first_failure]
    return results


def _snake_chunks(n: int, workers: int) -> list[list[int]]:
    """Deal indexes ``0..n-1`` to ``workers`` chunks in snake order.

    Rows of ``workers`` consecutive indexes are dealt left to right, then
    right to left, and so on (of two chunks, chunk 0 takes 0, 3, 4, 7,
    ...).  A cost that trends along the items, or alternates between
    neighbours, spreads evenly.  Plain striding (``i % workers``) gave
    chunk 0 the 100% and 50% load points of every calibration
    microbenchmark and chunk 1 the 75% and 25% ones: about 30% more work
    for the parent on Westmere.
    """
    chunks: list[list[int]] = [[] for _ in range(workers)]
    for index in range(n):
        row, column = divmod(index, workers)
        chunks[column if row % 2 == 0 else workers - 1 - column].append(index)
    return chunks


#: Placeholder for a result or exception that no worker delivered.
_MISSING = object()

#: True inside a forked child: its own maps run serially.
_in_child = False


def _run_chunk(fn: Callable, chunk: list) -> list[tuple[bool, object]]:
    """``(raised, result or exception)`` per item, stopping at a raise."""
    entries = []
    for item in chunk:
        try:
            entries.append((False, fn(item)))
        except Exception as exc:
            entries.append((True, exc))
            break
    return entries


def _fork_chunk(fn: Callable, chunk: list) -> tuple[int, int] | None:
    """Fork a child running ``chunk``: ``(pid, read fd)``, None if fork failed."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _child_main(fn, chunk, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _child_main(fn: Callable, chunk: list, write_fd: int) -> None:
    """Run ``chunk``, write its pickled entries, and leave (never returns)."""
    global _in_child
    _in_child = True
    status = 1
    try:
        entries = []
        for raised, value in _run_chunk(fn, chunk):
            try:
                blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            except Exception:
                blob = None  # the parent recomputes it
            entries.append((raised, blob))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(entries, pickle.HIGHEST_PROTOCOL))
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _collect(child: tuple[int, int] | None) -> list[tuple[bool, object]]:
    """Read and reap one child: its entries, or none if it died (counted
    as a retry) or was never forked."""
    global _worker_retries_total
    if child is None:
        return []
    pid, read_fd = child
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        _worker_retries_total += 1
        return []
    return [(raised, _loads(blob)) for raised, blob in pickle.loads(data)]


def _loads(blob: bytes | None):
    """Unpickle one child value; :data:`_MISSING` when it cannot be."""
    if blob is None:
        return _MISSING
    try:
        return pickle.loads(blob)
    except Exception:
        return _MISSING


def _kill(child: tuple[int, int]) -> None:
    """SIGKILL and reap a child whose entries will not be read."""
    pid, read_fd = child
    with contextlib.suppress(OSError):
        os.close(read_fd)
    with contextlib.suppress(OSError):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def parallel_starmap(
    fn: Callable[..., _R],
    argument_tuples: Iterable[tuple],
    jobs: int | None = None,
) -> list[_R]:
    """:func:`parallel_map` for functions taking positional arguments."""
    return parallel_map(lambda args: fn(*args), argument_tuples, jobs=jobs)
