"""Persistent worker pool for shard execution, hardened against faults.

The pool assigns shards to long-lived fork workers (round-robin, so the
assignment is deterministic) and drives them through the epoch protocol
with a scatter/gather barrier: each protocol round posts every worker's
frames before it waits for any reply, so fork workers compute the epoch
side by side.  ``workers=1`` -- or any platform where fork is
unavailable -- degrades to running every shard in-process through the
same barrier; results are identical either way because a shard's outputs
are a pure function of its config and delivered directives.

Every command now travels through the transport layer
(:mod:`repro.shard.transport`): checksummed frames over a
:class:`~repro.shard.transport.ReliableLink` whose
:class:`~repro.shard.transport.LossyChannel` pair can -- under a
:class:`~repro.shard.transport.TransportFaultPlan` -- drop, duplicate,
reorder, delay, and corrupt traffic in either direction, while the
stop-and-wait exactly-once protocol keeps shard state equal to the
fault-free run's, bit for bit.

**Failure handling** is a ladder:

1. *Retransmit*: lost or corrupted frames are retried with deterministic
   doubling backoff; duplicates are no-ops worker-side.
2. *Probe*: after ``probe_after`` silent rounds the link sends heartbeat
   probes to distinguish a slow worker from a dead one.
3. *Revive*: a dead pipe or a probe deadline
   (:class:`~repro.shard.transport.WorkerUnresponsiveError`) takes the
   worker out of the barrier; once the others have their replies it is
   killed and respawned, then *replays* its shards from the recorded
   directive history over a lossless link and verifies the replayed
   state digests (:func:`repro.checkpoint.state.payload_digest`) --
   the PR 7 checkpoint discipline applied to live workers.  Divergence
   raises :class:`repro.checkpoint.state.RestoreMismatchError`.
4. *Quarantine*: each worker has a bounded revive budget (default 3).
   Exhausting it raises a terminal
   :class:`~repro.shard.transport.WorkerQuarantinedError` carrying the
   digest diff of a final diagnostic replay, instead of replay-looping
   forever.

The coordinator checkpoints :meth:`ShardPool.snapshot_history` at epoch
barriers.  A resumed coordinator replays its epochs through a fresh pool
and verifies the replayed history, digests and summaries against the
checkpoint before the run continues.
"""

from __future__ import annotations

import os
import signal

from repro.checkpoint.state import (
    RestoreMismatchError,
    diff_states,
    payload_digest,
)
from repro.shard.transport import (
    ReliableLink,
    TransportError,
    TransportFaultPlan,
    TransportLimits,
    WorkerEndpoint,
    WorkerQuarantinedError,
    WorkerUnresponsiveError,
)
from repro.shard.worker import ShardConfig, ShardWorld

#: Framed-protocol payload verbs (inside exactly-once DATA frames).
_CMD_EPOCH = "epoch"
_CMD_FINISH = "finish"

#: Raw pipe verbs (outside the frame protocol: lifecycle + diagnostics).
_RAW_FRAMES = "frames"
_RAW_STATS = "stats"
_RAW_EXIT = "exit"


class _ShardExecutor:
    """Owns a set of shard worlds and executes decoded commands.

    Shared by the fork worker and the in-process stand-in so both modes
    run byte-identical code under the same endpoint protocol.
    """

    def __init__(self, configs: list[ShardConfig], calibrations) -> None:
        self.worlds = {
            config.shard_id: ShardWorld.build(config, calibrations)
            for config in configs
        }

    def execute(self, payload: tuple):
        verb = payload[0]
        if verb == _CMD_EPOCH:
            _verb, end, directives, want_summary = payload
            reply = {}
            for shard_id in sorted(self.worlds):
                world = self.worlds[shard_id]
                world.deliver(directives.get(shard_id, []))
                completions, failovers = world.run_epoch(end)
                # Drain before the summary so the summary's frame-chain
                # digest covers this barrier's frame (replay-verified).
                frame = world.drain_frame()
                summary = world.state_summary() if want_summary else None
                reply[shard_id] = (completions, failovers, summary, frame)
            return reply
        if verb == _CMD_FINISH:
            return {
                shard_id: self.worlds[shard_id].final_payload()
                for shard_id in sorted(self.worlds)
            }
        raise ValueError(f"unknown pool command {verb!r}")


#: How often (seconds) an idle worker checks whether it was orphaned.
_ORPHAN_POLL = 1.0


def _worker_main(conn, configs: list[ShardConfig], calibrations) -> None:
    """Worker process body: serve frames through an exactly-once endpoint.

    Workers forked after their siblings inherit copies of the siblings'
    pipe ends, so a SIGKILLed coordinator never produces an EOF on
    ``conn`` -- each worker instead polls its parentage while idle and
    exits once it has been reparented (the coordinator is gone and can
    only come back as a *resume*, which spawns fresh workers).
    """
    parent = os.getppid()
    executor = _ShardExecutor(configs, calibrations)
    endpoint = WorkerEndpoint(executor.execute)
    while True:
        while not conn.poll(_ORPHAN_POLL):
            if os.getppid() != parent:
                return
        try:
            command = conn.recv()
        except EOFError:
            return
        verb = command[0]
        if verb == _RAW_FRAMES:
            conn.send(endpoint.handle_frames(command[1]))
        elif verb == _RAW_STATS:
            conn.send(dict(endpoint.stats))
        elif verb == _RAW_EXIT:
            conn.close()
            return
        else:  # pragma: no cover - protocol misuse
            raise ValueError(f"unknown pipe verb {verb!r}")


class _InProcessWorker:
    """Serial stand-in for a worker process (same protocol, no pipe)."""

    def __init__(self, configs: list[ShardConfig], calibrations) -> None:
        self.configs = configs
        self.calibrations = calibrations
        self._posted: list = []
        self.respawn()

    def respawn(self) -> None:
        """Rebuild worlds + endpoint from scratch (the serial 'restart')."""
        self.executor = _ShardExecutor(self.configs, self.calibrations)
        self.endpoint = WorkerEndpoint(self.executor.execute)

    def post(self, frames: list) -> None:
        """Hold one round's frames until :meth:`exchange_frames`."""
        self._posted = frames

    def exchange_frames(self, frames: list | None = None) -> list:
        """Serve the posted round (``frames``, when given, are posted
        first); returns the endpoint's reply frames."""
        if frames is not None:
            self.post(frames)
        frames, self._posted = self._posted, []
        return self.endpoint.handle_frames(frames)

    def endpoint_stats(self) -> dict:
        return dict(self.endpoint.stats)

    def close(self) -> None:
        pass


class _ProcessWorker:
    """One live fork worker plus the bookkeeping to resurrect it."""

    def __init__(self, context, configs: list[ShardConfig], calibrations):
        self.context = context
        self.configs = configs
        self.calibrations = calibrations
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent, child = self.context.Pipe(duplex=True)
        self.process = self.context.Process(
            target=_worker_main,
            args=(child, self.configs, self.calibrations),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.conn = parent

    def _send(self, command) -> None:
        """Write one raw pipe message; raises ``ConnectionError`` on death."""
        try:
            self.conn.send(command)
        except OSError as exc:  # BrokenPipeError, ConnectionResetError
            raise ConnectionError(str(exc)) from exc

    def _receive(self):
        """Block for the worker's next message; ``ConnectionError`` on
        death."""
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ConnectionError(str(exc)) from exc

    def post(self, frames: list) -> None:
        """Send one round's frames without waiting for the reply."""
        self._send((_RAW_FRAMES, frames))

    def exchange_frames(self, frames: list | None = None) -> list:
        """The coordinator's blocking receive of a posted round's reply.

        ``frames``, when given, are posted first (a whole round-trip, as
        :meth:`ReliableLink.request` drives it).
        """
        if frames is not None:
            self.post(frames)
        return self._receive()

    def endpoint_stats(self) -> dict:
        self._send((_RAW_STATS,))
        return self._receive()

    def kill(self) -> None:
        """SIGKILL the worker (the chaos hook for restart tests)."""
        if self.process is not None and self.process.pid is not None:
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
            self.process.join()

    def close(self) -> None:
        try:
            self.conn.send((_RAW_EXIT,))
        except (BrokenPipeError, OSError):
            pass
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - hung worker
                self.process.terminate()
                self.process.join()


class ShardPool:
    """Drives every shard through barriers, surviving faults end to end."""

    def __init__(
        self,
        configs: list[ShardConfig],
        calibrations: dict,
        workers: int = 1,
        transport_plan: TransportFaultPlan | None = None,
        transport_seed: int = 0,
        transport_limits: TransportLimits | None = None,
        revive_budget: int = 3,
    ) -> None:
        if not configs:
            raise ValueError("need at least one shard")
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if int(revive_budget) < 0:
            raise ValueError(
                f"revive_budget must be non-negative, got {revive_budget!r}"
            )
        self.configs = list(configs)
        self.calibrations = calibrations
        self.transport_plan = transport_plan
        self.transport_seed = int(transport_seed)
        self.transport_limits = (
            transport_limits if transport_limits is not None
            else TransportLimits()
        )
        self.revive_budget = int(revive_budget)
        #: Per-shard directive history: ``[(end, directives), ...]``.
        self._history: dict[int, list[tuple]] = {
            config.shard_id: [] for config in configs
        }
        #: Last verified per-shard state summary + digest.
        self._summaries: dict[int, dict] = {}
        self._digests: dict[int, str] = {}
        #: Workers resurrected after a crash (mirrors ``parallel_map``'s
        #: retry counter).
        self.worker_restarts = 0
        self._epochs_run = 0
        workers = min(int(workers), len(self.configs))
        self._assignment: dict[int, list[ShardConfig]] = {
            index: [] for index in range(workers)
        }
        for position, config in enumerate(self.configs):
            self._assignment[position % workers].append(config)
        self.parallel = workers > 1 and self._fork_available()
        if self.parallel:
            import multiprocessing

            self._context = multiprocessing.get_context("fork")
            self._workers = [
                _ProcessWorker(self._context, owned, calibrations)
                for owned in self._assignment.values()
            ]
        else:
            self._workers = [_InProcessWorker(self.configs, calibrations)]
        self._revives = {index: 0 for index in range(len(self._workers))}
        self._incarnations = {
            index: 0 for index in range(len(self._workers))
        }
        #: Counters folded in from links retired by revives.
        self._retired_stats: dict[str, int] = {}
        self._links = [
            self._make_link(index) for index in range(len(self._workers))
        ]

    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    @property
    def n_workers(self) -> int:
        """Live worker count (1 in serial mode)."""
        return len(self._workers)

    # -- transport plumbing ---------------------------------------------
    def _make_link(self, index: int) -> ReliableLink:
        return ReliableLink(
            self._workers[index].exchange_frames,
            self.transport_plan,
            seed=self.transport_seed,
            worker_index=index,
            incarnation=self._incarnations[index],
            limits=self.transport_limits,
        )

    def _barrier(self, payloads: dict[int, tuple], overlap=None) -> dict:
        """Deliver one command per worker exactly once, all in step.

        ``payloads`` maps worker index to its command.  Every protocol
        round first posts each still-waiting worker's frames and only
        then collects the replies, so the workers compute side by side.
        ``overlap``, when given, runs once after the first round is
        posted and before the first blocking receive, so coordinator work
        proceeds alongside the workers'.  A worker whose pipe dies, or
        whose link declares it unresponsive, drops out; once the others
        have their replies it is revived (respawn + replay) and asked
        again.  Returns the workers' merged replies.
        """
        merged: dict = {}
        waiting = payloads
        while waiting:
            rounds = {
                index: self._links[index].request_rounds(
                    payload, self._epochs_run
                )
                for index, payload in waiting.items()
            }
            outbound = {index: next(steps) for index, steps in rounds.items()}
            failed: dict[int, str] = {}
            while outbound:
                for index, frames in outbound.items():
                    try:
                        self._workers[index].post(frames)
                    except ConnectionError as exc:
                        failed[index] = f"pipe failure: {exc}"
                posted = [index for index in outbound if index not in failed]
                outbound = {}
                if overlap is not None:
                    overlap()
                    overlap = None
                for index in posted:
                    try:
                        inbound = self._workers[index].exchange_frames()
                    except ConnectionError as exc:
                        failed[index] = f"pipe failure: {exc}"
                        continue
                    try:
                        outbound[index] = rounds[index].send(inbound)
                    except StopIteration as done:
                        merged.update(done.value)
                    except WorkerUnresponsiveError as exc:
                        failed[index] = str(exc)
            for index in sorted(failed):
                self._revive(index, failed[index])
            waiting = {index: waiting[index] for index in sorted(failed)}
        return merged

    # -- crash recovery -------------------------------------------------
    def kill_worker(self, index: int = 0) -> None:
        """SIGKILL one worker process (restart-test hook; parallel only)."""
        if not self.parallel:
            raise RuntimeError("no worker processes in serial mode")
        self._workers[index].kill()

    def _retire_link_stats(self, index: int) -> None:
        for key, value in self._links[index].combined_stats().items():
            self._retired_stats[key] = self._retired_stats.get(key, 0) + value

    def _respawn(self, index: int) -> None:
        worker = self._workers[index]
        if self.parallel:
            worker.kill()
            worker.spawn()
        else:
            worker.respawn()
        self._incarnations[index] += 1

    def _replay(self, index: int, link: ReliableLink) -> list[str]:
        """Replay one worker's shards from history over a lossless link.

        Returns digest-diff lines (empty when every shard's replayed
        summary matches its recorded digest bit-for-bit).
        """
        worker = self._workers[index]
        owned = [config.shard_id for config in worker.configs]
        depth = max(
            (len(self._history[shard_id]) for shard_id in owned), default=0
        )
        reply = None
        for step in range(depth):
            end = None
            directives = {}
            for shard_id in owned:
                history = self._history[shard_id]
                if step < len(history):
                    end, step_directives = history[step]
                    directives[shard_id] = step_directives
            want_summary = step == depth - 1
            reply = link.request(
                (_CMD_EPOCH, end, directives, want_summary),
                self._epochs_run,
                lossless=True,
            )
        diffs: list[str] = []
        if reply is None:
            return diffs
        for shard_id in owned:
            expected = self._summaries[shard_id]
            # Replayed frames are discarded: the coordinator already
            # ingested those barriers; the summary's frame chain still
            # proves the regenerated frames matched the shipped ones.
            _completions, _failovers, summary, _frame = reply[shard_id]
            if payload_digest(summary) != self._digests[shard_id]:
                diffs.extend(
                    f"shard {shard_id}: {line}"
                    for line in diff_states(expected, summary)
                )
        return diffs

    def _revive(self, index: int, reason: str) -> None:
        """Respawn a dead worker and replay its shards from history.

        The replayed state must match the last verified digest for every
        owned shard; a mismatch names the diverging fields and aborts the
        run rather than continuing from silently-wrong state.  Each
        worker may be revived at most ``revive_budget`` times; the next
        failure quarantines it terminally.
        """
        if self._revives[index] >= self.revive_budget:
            self._quarantine(index, reason)
        self._revives[index] += 1
        self.worker_restarts += 1
        self._retire_link_stats(index)
        self._respawn(index)
        link = self._make_link(index)
        diffs = self._replay(index, link)
        if diffs:
            raise RestoreMismatchError(
                f"worker {index} replay diverged after worker restart: "
                + "; ".join(diffs)
            )
        self._links[index] = link

    def _quarantine(self, index: int, reason: str) -> None:
        """Terminal stop: one diagnostic replay, then a typed error.

        The diagnostic replay (fresh worker, lossless link) distinguishes
        corrupted shard state from a hostile transport: an empty digest
        diff means replay still reproduces every recorded digest.
        """
        shard_ids = [
            config.shard_id for config in self._workers[index].configs
        ]
        try:
            self._respawn(index)
            diffs = self._replay(index, self._make_link(index))
        except (ConnectionError, TransportError) as exc:
            diffs = [f"diagnostic replay failed: {exc}"]
        raise WorkerQuarantinedError(
            index, shard_ids, self._revives[index], diffs, reason
        )

    # -- epoch protocol -------------------------------------------------
    def run_epoch(
        self, end: float, directives: dict[int, list[tuple]], overlap=None
    ) -> tuple[list[list[tuple]], list[list[tuple]], list]:
        """Advance every shard to the barrier; returns per-shard outboxes.

        ``directives`` maps shard id to that shard's sorted directive
        list.  ``overlap`` is an optional zero-argument callable the
        barrier runs once while the workers compute (see
        :meth:`_barrier`); the coordinator hands in the previous epoch's
        observation.  Returns ``(completions, failovers, frames)`` as
        per-shard lists in shard-id order; ``frames`` entries are
        telemetry frame wire tuples (``None`` for shards with telemetry
        off).  Transport faults cost retransmit rounds, dead workers cost
        a revive + replay -- neither ever changes results.
        """
        merged = self._barrier({
            index: (
                _CMD_EPOCH, end,
                {config.shard_id: directives.get(config.shard_id, [])
                 for config in worker.configs},
                True,  # every barrier's summary is recorded for replay
            )
            for index, worker in enumerate(self._workers)
        }, overlap)
        completions: list[list[tuple]] = []
        failovers: list[list[tuple]] = []
        frames: list = []
        for config in self.configs:
            shard_completions, shard_failovers, summary, frame = merged[
                config.shard_id
            ]
            completions.append(shard_completions)
            failovers.append(shard_failovers)
            frames.append(frame)
            self._summaries[config.shard_id] = summary
            self._digests[config.shard_id] = payload_digest(summary)
            self._history[config.shard_id].append(
                (end, directives.get(config.shard_id, []))
            )
        self._epochs_run += 1
        return completions, failovers, frames

    def finish(self) -> dict[int, dict]:
        """Collect every shard's final payload (shard id -> payload)."""
        return self._barrier(
            dict.fromkeys(range(len(self._workers)), (_CMD_FINISH,))
        )

    # -- diagnostics -----------------------------------------------------
    def transport_stats(self) -> dict[str, int]:
        """Aggregated link/channel/endpoint counters (never fingerprinted).

        Link and channel counters sum across workers; worker-endpoint
        counters are fetched over the raw pipe and prefixed ``worker_``
        (a dead worker's endpoint counters are skipped, not invented).
        """
        totals: dict[str, int] = dict(self._retired_stats)
        for link in self._links:
            for key, value in link.combined_stats().items():
                totals[key] = totals.get(key, 0) + value
        for worker in self._workers:
            try:
                stats = worker.endpoint_stats()
            except ConnectionError:
                continue
            for key, value in stats.items():
                worker_key = f"worker_{key}"
                totals[worker_key] = totals.get(worker_key, 0) + value
        totals["worker_restarts"] = self.worker_restarts
        return totals

    def publish_metrics(self, registry) -> None:
        """Mirror :meth:`transport_stats` into a telemetry metrics registry.

        Keys become ``transport_<key>`` gauges (channel counters already
        carry their ``c2w_``/``w2c_`` direction prefix, endpoint counters
        their ``worker_`` prefix), plus ``pool_worker_restarts`` and
        ``pool_revive_budget`` for the revive/quarantine ladder --
        following the ``<component>_<counter>`` convention from
        docs/api.md.  Diagnostic only: never folded into fingerprints.
        """
        for key, value in sorted(self.transport_stats().items()):
            registry.gauge(f"transport_{key}").set(float(value))
        registry.gauge("pool_worker_restarts").set(
            float(self.worker_restarts)
        )
        registry.gauge("pool_revive_budget").set(float(self.revive_budget))
        registry.gauge("pool_workers").set(float(len(self._workers)))

    # -- coordinator checkpoint integration ------------------------------
    def snapshot_history(self) -> dict:
        """Plain-data directive history + digests (checkpoint layer).

        Revive counts are left out: a replay cannot reproduce revives
        from before the coordinator crashed.
        """
        return {
            "v": 2,
            "epochs": self._epochs_run,
            "history": {
                str(shard_id): [[end, directives]
                                for end, directives in steps]
                for shard_id, steps in self._history.items()
            },
            "digests": {
                str(shard_id): digest
                for shard_id, digest in self._digests.items()
            },
            "summaries": {
                str(shard_id): summary
                for shard_id, summary in self._summaries.items()
            },
        }

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
