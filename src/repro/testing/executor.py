"""Pluggable execution backends for campaigns and triage.

The campaign harness (:mod:`repro.testing.harness`) splits a run into
index-range work shards and hands them to the campaign supervisor
(:mod:`repro.testing.supervisor`); an *executor* decides where those shards
are evaluated:

* :class:`SerialExecutor` runs them one after another in-process -- the
  default, and the reference behaviour every parallel backend must match;
* :class:`ProcessPoolExecutor` fans them out over worker processes.  Work
  units carry plain source text (not skeletons, whose ``realize`` closures do
  not pickle) and the campaign config carries its frontend as a registry
  *name*, so shard payloads are language-agnostic and picklable: each worker
  resolves the frontend plug-in and re-extracts its skeletons; results come
  back as :class:`~repro.testing.harness.ShardOutcome` values and are
  merged with :meth:`CampaignResult.merge`.

The process pool is *persistent*: it is spawned lazily on the first
``submit``/``map`` and reused by every later call (and by later campaigns in
the same process) until :meth:`ProcessPoolExecutor.close` -- the executor is
a context manager, and the harness closes executors it created itself.  A
campaign's corpus is *preloaded* into the workers once via
:meth:`ProcessPoolExecutor.preload`: sources travel keyed by content sha
through the pool initializer, and shard payloads then reference them by sha
instead of re-pickling source text per unit (see
``CampaignSupervisor._payload``/``harness._rehydrate_shard``).  Preloading
is content-addressed and cumulative, so reusing one executor across
campaigns only respawns the pool when genuinely new sources appear.  By
default the preloaded corpus travels through one
``multiprocessing.shared_memory`` segment that every worker maps (source
text is decoded lazily per lookup); the pickle-through-initializer protocol
remains as the automatic fallback and as the ``shared_memory=False``
opt-out.  The parent owns the segment: workers attach untracked, supervisor
``kill_workers`` respawns re-attach the same segment, and ``close`` unlinks
it.

Two surfaces plug into the rest of the package:

* **campaigns** (``Campaign.run_sources(..., executor=...)``) need
  ``submit(fn, item) -> Future`` plus a ``jobs`` worker count, because the
  supervisor tracks per-future deadlines and retries; ``preload`` and
  ``kill_workers`` are optional (without ``preload`` payloads carry full
  source text, without ``kill_workers`` hung workers cannot be reclaimed).
  :class:`SerialExecutor` is special-cased to run in-process;
* **triage** (:mod:`repro.triage.reduce`) only needs ``map(fn, items)``.

When a campaign runs with a persistent state directory
(``CampaignConfig.state_dir``), shard *workers* append per-unit records to
the campaign journal themselves (so a record survives worker, pool and
parent all dying -- the payload config carries the state directory across
the process boundary), and the parent supervisor writes a progress
checkpoint as each task's outcome arrives.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import struct
from typing import Callable, Iterable, TypeVar

from concurrent.futures.process import BrokenProcessPool

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - minimal builds
    _shm = None

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Per-worker-process corpus installed by the pool initializer: content sha
#: -> source text.  Module-level so shard payloads can reference sources by
#: sha (see ``worker_source``); only ever written in worker processes.
_WORKER_SOURCES: dict[str, str] = {}


#: Shared-memory corpus view attached by the pool initializer:
#: ``(segment, sha -> (offset, length), blob base offset)``.  Source text is
#: decoded lazily on first :func:`worker_source` lookup (and memoized into
#: ``_WORKER_SOURCES``), so a worker only ever pays for the sources its own
#: shards reference.  Only ever written in worker processes.
_WORKER_SEGMENT: tuple[object, dict[str, tuple[int, int]], int] | None = None

#: Segment layout: 8-byte big-endian index length, a compact-JSON index
#: ``{sha: [offset, length]}`` (offsets relative to the blob area), then the
#: concatenated utf-8 source blobs.
_SEGMENT_HEADER = struct.Struct(">Q")


def _install_worker_sources(sources: dict[str, str]) -> None:
    """Pool initializer (pickle protocol): runs once per worker at spawn."""
    _WORKER_SOURCES.update(sources)


def _install_worker_segment(name: str) -> None:
    """Pool initializer (shared-memory protocol): attach the corpus segment.

    The attachment is deliberately *untracked* -- the parent owns the
    segment's lifetime (it unlinks on :meth:`ProcessPoolExecutor.close`), so
    a worker exiting (or being SIGKILLed by the supervisor) must neither
    unlink the segment nor leave a resource-tracker leak warning behind.
    """
    global _WORKER_SEGMENT
    try:
        segment = _shm.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 has no track=
        # Attach without talking to the resource tracker at all: workers
        # share the parent's tracker process, so an unregister sent from
        # here would erase the *parent's* registration and break its
        # eventual unlink.  Suppressing the (attach-path) register leaves
        # the tracker state exactly as the parent set it up.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    (index_length,) = _SEGMENT_HEADER.unpack_from(segment.buf, 0)
    base = _SEGMENT_HEADER.size + index_length
    raw = json.loads(bytes(segment.buf[_SEGMENT_HEADER.size : base]).decode("utf-8"))
    index = {sha: (int(offset), int(length)) for sha, (offset, length) in raw.items()}
    _WORKER_SEGMENT = (segment, index, base)


def worker_source(sha: str) -> str:
    """Resolve a preloaded source by content sha (inside a worker process)."""
    text = _WORKER_SOURCES.get(sha)
    if text is not None:
        return text
    if _WORKER_SEGMENT is not None:
        segment, index, base = _WORKER_SEGMENT
        entry = index.get(sha)
        if entry is not None:
            offset, length = entry
            start = base + offset
            text = bytes(segment.buf[start : start + length]).decode("utf-8")
            _WORKER_SOURCES[sha] = text
            return text
    raise RuntimeError(
        f"source {sha[:12]}... was not preloaded into this worker "
        "(executor.preload must run before dispatching slim payloads)"
    )


def _build_corpus_segment(sources: dict[str, str]):
    """Write the corpus into one freshly created shared-memory segment."""
    index: dict[str, tuple[int, int]] = {}
    blobs: list[bytes] = []
    offset = 0
    for sha, text in sources.items():
        data = text.encode("utf-8")
        index[sha] = (offset, len(data))
        blobs.append(data)
        offset += len(data)
    index_bytes = json.dumps(index, separators=(",", ":")).encode("utf-8")
    payload = _SEGMENT_HEADER.pack(len(index_bytes)) + index_bytes + b"".join(blobs)
    segment = _shm.SharedMemory(create=True, size=max(1, len(payload)))
    segment.buf[: len(payload)] = payload
    return segment


class SerialExecutor:
    """Evaluate work items sequentially in the calling process."""

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> list[_Result]:
        return [fn(item) for item in items]


class ProcessPoolExecutor:
    """Evaluate work items in a persistent pool of worker processes.

    Args:
        jobs: number of worker processes (defaults to the CPU count).  Both
            ``fn`` and the items must be picklable; the campaign's shard
            worker is a module-level function for exactly this reason.

    The underlying pool is created lazily on the first ``submit`` (or
    parallel ``map``) and *kept alive* across calls -- worker spawn cost is
    paid once per corpus, not once per call.  Use as a context manager (or call
    :meth:`close`) to shut the workers down; the campaign harness closes
    executors it constructed internally and leaves caller-provided ones
    running for reuse.
    """

    def __init__(self, jobs: int | None = None, shared_memory: bool = True) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        # Fan the preloaded corpus out through one shared-memory segment
        # (workers map it; see _install_worker_segment) instead of pickling
        # the corpus dict into every worker spawn.  Degrades automatically
        # to the pickle protocol when shared memory is unavailable.
        self.shared_memory = bool(shared_memory) and _shm is not None
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._preloaded: dict[str, str] = {}
        self._segment = None

    # -- lifecycle ---------------------------------------------------------

    def preload(self, sources: dict[str, str]) -> None:
        """Make ``sources`` (content sha -> text) resolvable in every worker.

        Content-addressed and cumulative: preloading a subset of what the
        workers already hold is free; genuinely new sources force a pool
        respawn (a live worker cannot be re-initialized), after which the
        union is installed at each worker's spawn.
        """
        if not sources:
            return
        missing = {sha: text for sha, text in sources.items() if sha not in self._preloaded}
        if not missing:
            return
        if self._pool is not None:
            self._shutdown_pool()
        # The corpus grew: the current segment (if any) no longer covers it,
        # so unlink it now and let the next spawn build a fresh one from the
        # union.  Workers are already gone (shutdown above), so nothing maps
        # the old segment.
        self._release_segment()
        self._preloaded.update(missing)

    def close(self) -> None:
        """Shut down the worker pool (idempotent); the executor stays usable
        and respawns workers on the next ``submit``."""
        self._shutdown_pool()
        self._release_segment()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def kill_workers(self) -> None:
        """Hard-kill the worker processes (SIGKILL) and drop the pool.

        The escape hatch for a *hung* worker: :meth:`close` waits for running
        tasks, which never return when a worker is stuck past its deadline.
        The campaign supervisor calls this when a unit deadline expires; the
        next ``map``/``submit`` respawns a fresh pool (re-running the pool
        initializer, so preloaded sources survive).  Outstanding futures fail
        with :class:`~concurrent.futures.process.BrokenProcessPool`.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        # Deliberately keep the corpus segment: the respawned pool's
        # initializer re-attaches the same segment, so supervisor
        # kill+respawn cycles never re-ship (or re-build) the corpus.

    def _release_segment(self) -> None:
        """Unlink the corpus segment (idempotent).  Parent-side only: the
        parent created the segment, so the parent owns the unlink."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass

    def _ensure_segment(self):
        """The live corpus segment, built on demand from the preload set.

        Returns ``None`` (and sticks to the pickle protocol) when shared
        memory is disabled or segment creation fails -- e.g. an exhausted
        ``/dev/shm`` -- so fan-out degrades instead of breaking the run.
        """
        if not self.shared_memory:
            return None
        if self._segment is None:
            try:
                self._segment = _build_corpus_segment(self._preloaded)
            except OSError:  # pragma: no cover - shm exhaustion
                self.shared_memory = False
                return None
        return self._segment

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            kwargs = {}
            if self._preloaded:
                segment = self._ensure_segment()
                if segment is not None:
                    kwargs = {
                        "initializer": _install_worker_segment,
                        "initargs": (segment.name,),
                    }
                else:
                    kwargs = {
                        "initializer": _install_worker_sources,
                        "initargs": (dict(self._preloaded),),
                    }
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, **kwargs
            )
        return self._pool

    # -- execution ---------------------------------------------------------

    def submit(self, fn: Callable[[_Item], _Result], item: _Item) -> concurrent.futures.Future:
        """Submit one work item to the persistent pool and return its future.

        The fine-grained entry point the campaign supervisor dispatches
        through: it tracks per-future deadlines itself, so it needs futures
        rather than a gathered ``map``.
        """
        return self._ensure_pool().submit(fn, item)

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> list[_Result]:
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return SerialExecutor().map(fn, items)
        pool = self._ensure_pool()
        futures: list[concurrent.futures.Future] = []
        try:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            # A worker died abnormally; the pool is unusable.  Drop it so the
            # next map() call starts from a fresh spawn, then surface the
            # failure to the caller.
            self._shutdown_pool()
            raise
        except BaseException:
            # One future failed mid-gather: cancel the outstanding ones
            # before re-raising so an aborted batch stops burning CPU on
            # work whose results nobody will ever read.  Already-running
            # futures cannot be cancelled (stdlib semantics) -- their
            # eventual results/exceptions are consumed silently instead of
            # leaking "exception was never retrieved" noise.
            _cancel_outstanding(futures)
            raise


def _cancel_outstanding(futures: Iterable[concurrent.futures.Future]) -> None:
    """Cancel queued futures; drain running ones without surfacing results."""
    for future in futures:
        if future.done():
            # Consume a possibly-set exception so the interpreter does not
            # warn about it at garbage collection.
            try:
                future.exception(timeout=0)
            except BaseException:
                pass
        elif not future.cancel():
            future.add_done_callback(_swallow_result)


def _swallow_result(future: concurrent.futures.Future) -> None:
    try:
        future.exception(timeout=0)
    except BaseException:
        pass


def default_executor(
    jobs: int | None, shared_memory: bool = True
) -> SerialExecutor | ProcessPoolExecutor:
    """The executor implied by a ``--jobs`` setting: serial for 1, a pool otherwise."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessPoolExecutor(jobs, shared_memory=shared_memory)


__all__ = [
    "ProcessPoolExecutor",
    "SerialExecutor",
    "default_executor",
    "worker_source",
]
