"""The scatter/gather epoch barrier.

Each protocol round posts every waiting worker's command before it waits
for any reply, so workers compute an epoch side by side.  The ordering
test proves that from the call sequence alone (no host timing); the kill
test SIGKILLs one worker while the other's reply is still outstanding.
Workers see only bare commands, each exactly once: without a fault plan
a barrier posts one per worker and computes no checksum, and under heavy
weather a worker still executes each command once.
"""

import multiprocessing

import pytest

from repro.shard import run_sharded
from repro.shard import pool as pool_module
from repro.shard import transport
from repro.shard.pool import ShardPool, _InProcessWorker, _ShardExecutor
from repro.shard.scenario import chaos_world_config
from repro.shard.transport import chaos_preset
from repro.shard.worker import ShardConfig

_TWO_SHARDS = [
    ShardConfig(0, (("m0", "sandybridge"),), "solr"),
    ShardConfig(1, (("m1", "woodcrest"),), "solr"),
]


class _RecordingWorker(_InProcessWorker):
    """An in-process worker standing in for a fork worker; logs calls."""

    def __init__(self, log, configs, calibrations) -> None:
        self.log = log
        super().__init__(configs, calibrations)

    def _name(self) -> int:
        return self.configs[0].shard_id

    def post(self, command) -> None:
        self.log.append(("post", self._name()))
        super().post(command)

    def exchange_frames(self):
        self.log.append(("receive", self._name()))
        return super().exchange_frames()


def _recording_pool(monkeypatch, calibrations, log) -> ShardPool:
    monkeypatch.setattr(ShardPool, "_fork_available",
                        staticmethod(lambda: True))
    monkeypatch.setattr(
        pool_module, "_ProcessWorker",
        lambda _context, configs, cals: _RecordingWorker(log, configs, cals),
    )
    return ShardPool(_TWO_SHARDS, calibrations, workers=2)


def test_every_post_precedes_every_receive(monkeypatch, calibrations):
    log: list = []
    pool = _recording_pool(monkeypatch, calibrations, log)
    assert pool.n_workers == 2
    for epoch in range(3):
        del log[:]
        pool.run_epoch(0.25 * (epoch + 1), {0: [], 1: []})
        assert log == [("post", 0), ("post", 1),
                       ("receive", 0), ("receive", 1)]
    del log[:]
    parallel = pool.finish()
    assert log == [("post", 0), ("post", 1), ("receive", 0), ("receive", 1)]

    serial = ShardPool(_TWO_SHARDS, calibrations, workers=1)
    for epoch in range(3):
        serial.run_epoch(0.25 * (epoch + 1), {0: [], 1: []})
    assert serial.finish() == parallel


def test_sigkill_with_other_reply_outstanding():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    clean = run_sharded(chaos_world_config(n_shards=4, workers=1,
                                           duration=1.0))
    state = {"armed": False}

    def hook(pool, epoch_index):
        if epoch_index != 2 or state["armed"]:
            return
        victim, other = pool._workers
        post = other.post

        def post_then_kill(command):
            # Both workers now hold this round's command; the victim dies
            # before the coordinator collects either reply.
            post(command)
            other.post = post
            victim.kill()

        other.post = post_then_kill
        state["armed"] = True

    result = run_sharded(
        chaos_world_config(n_shards=4, workers=2, duration=1.0),
        pool_hook=hook,
    )
    assert state["armed"]
    assert result.worker_restarts == 1
    assert result.fingerprints == clean.fingerprints


@pytest.mark.parametrize("workers", [1, 2])
def test_fault_free_barrier_posts_bare_commands_without_checksums(
        monkeypatch, calibrations, workers):
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")

    def no_crc(*_args):
        raise AssertionError("frame_crc ran without a fault plan")

    monkeypatch.setattr(transport, "frame_crc", no_crc)
    posted: list = []
    for worker_class in (pool_module._InProcessWorker,
                         pool_module._ProcessWorker):
        def post(self, command, _post=worker_class.post):
            posted.append((id(self), command))
            _post(self, command)

        monkeypatch.setattr(worker_class, "post", post)
    with ShardPool(_TWO_SHARDS, calibrations, workers=workers) as pool:
        assert pool.n_workers == workers
        for epoch in range(3):
            del posted[:]
            end = 0.25 * (epoch + 1)
            pool.run_epoch(end, {0: [], 1: []})
            assert len({worker for worker, _ in posted}) == workers
            assert [command[:2] for _, command in posted] == (
                [("epoch", end)] * workers
            )
        del posted[:]
        pool.finish()
        assert [command for _, command in posted] == [("finish",)] * workers


def test_chaos_weather_executes_each_command_once(monkeypatch, calibrations):
    executed: list = []
    execute = _ShardExecutor.execute

    def counting(self, payload):
        executed.append(payload[0])
        return execute(self, payload)

    monkeypatch.setattr(_ShardExecutor, "execute", counting)
    epochs = 4
    with ShardPool(_TWO_SHARDS, calibrations, transport_plan=chaos_preset(),
                   transport_seed=7) as pool:
        for epoch in range(epochs):
            pool.run_epoch(0.25 * (epoch + 1), {0: [], 1: []})
        pool.finish()
        stats = pool.transport_stats()
    assert pool.worker_restarts == 0
    # The weather really did hand the endpoint duplicates to suppress.
    assert stats["retransmits"] > 0
    assert stats["worker_duplicates_ignored"] > 0
    assert executed == ["epoch"] * epochs + ["finish"]
