"""Kernel edge cases: interleavings, chained flows, and guards."""

from repro.hardware import RateProfile
from repro.kernel import (
    Compute,
    Exit,
    Fork,
    Message,
    ProcessState,
    Recv,
    Send,
    Sleep,
    SocketPair,
    WaitChild,
)

WORK = RateProfile(name="work", ipc=1.0)


def test_fig4_style_process_tree(world):
    """The full Fig. 4 flow: worker -> fork latex -> wait -> fork dvipng ->
    wait, with the context inherited throughout."""
    sim, machine, kernel = world
    order = []

    def helper(tag, cycles):
        def program():
            yield Compute(cycles=cycles, profile=WORK)
            order.append(tag)
            yield Exit(tag)
        return program()

    def worker():
        latex = yield Fork(helper("latex", 3e6), name="latex")
        result = yield WaitChild(latex)
        assert result == "latex"
        dvipng = yield Fork(helper("dvipng", 2e6), name="dvipng")
        result = yield WaitChild(dvipng)
        assert result == "dvipng"
        order.append("worker-done")

    proc = kernel.spawn(worker(), "worker", container_id=5)
    sim.run_until(0.1)
    assert order == ["latex", "dvipng", "worker-done"]
    # Both children inherited the context.
    forks = kernel.hooks.of_kind("fork")
    assert len(forks) == 2
    children = [kernel.processes[e.detail["child"]] for e in forks]
    assert all(c.container_id == 5 for c in children)


def test_nested_forks(world):
    sim, machine, kernel = world
    depths = []

    def nested(depth):
        def program():
            yield Compute(cycles=1e5, profile=WORK)
            if depth < 3:
                child = yield Fork(nested(depth + 1), name=f"d{depth + 1}")
                yield WaitChild(child)
            depths.append(depth)
        return program()

    kernel.spawn(nested(0), "root")
    sim.run_until(0.1)
    assert depths == [3, 2, 1, 0]


def test_message_wakes_preempted_process_exactly_once(world):
    sim, machine, kernel = world
    sock = SocketPair.local(machine)
    got = []

    def receiver():
        msg = yield Recv(sock.b)
        got.append(msg.payload)
        yield Compute(cycles=1e6, profile=WORK)

    # Saturate all cores so the receiver queues when woken.
    for i in range(5):
        kernel.spawn(
            (x for x in [Compute(cycles=machine.freq_hz * 0.02, profile=WORK)]),
            f"busy{i}",
        )
    kernel.spawn(receiver(), "rx")
    sim.run_until(0.001)
    kernel.inject(sock.b, Message(nbytes=1, payload="hello"))
    sim.run_until(0.1)
    assert got == ["hello"]


def test_two_receivers_two_messages_no_lost_wakeups(world):
    sim, machine, kernel = world
    sock = SocketPair.local(machine)
    got = []

    def rx(tag):
        msg = yield Recv(sock.b)
        got.append((tag, msg.payload))

    kernel.spawn(rx("a"), "a")
    kernel.spawn(rx("b"), "b")
    sim.run_until(0.001)
    # Deliver two messages back-to-back at the same instant.
    kernel.inject(sock.b, Message(nbytes=1, payload=1))
    kernel.inject(sock.b, Message(nbytes=1, payload=2))
    sim.run_until(0.01)
    assert sorted(got) == [("a", 1), ("b", 2)]


def test_send_then_exit_message_survives_sender(world):
    sim, machine, kernel = world
    sock = SocketPair.local(machine)
    got = []

    def sender():
        yield Send(sock.a, nbytes=10, payload="parting")
        yield Exit()

    def late_receiver():
        yield Sleep(0.01)
        msg = yield Recv(sock.b)
        got.append(msg.payload)

    kernel.spawn(sender(), "tx", container_id=3)
    kernel.spawn(late_receiver(), "rx")
    sim.run_until(0.1)
    assert got == ["parting"]


def test_exit_value_from_plain_return(world):
    sim, machine, kernel = world

    def child():
        yield Compute(cycles=1e5, profile=WORK)
        return 42  # plain return instead of Exit action

    collected = []

    def parent():
        kid = yield Fork(child(), name="kid")
        value = yield WaitChild(kid)
        collected.append(value)

    kernel.spawn(parent(), "p")
    sim.run_until(0.1)
    assert collected == [42]


def test_many_short_actions_terminate(world):
    """A process alternating hundreds of tiny actions never wedges."""
    sim, machine, kernel = world
    done = []

    def busybody():
        for _ in range(300):
            yield Compute(cycles=1e4, profile=WORK)
            yield Sleep(1e-5)
        done.append(True)

    kernel.spawn(busybody(), "w")
    sim.run_until(1.0)
    assert done == [True]


def test_process_state_transitions_recorded(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=1e6, profile=WORK)
        yield Sleep(0.01)
        yield Compute(cycles=1e6, profile=WORK)

    proc = kernel.spawn(program(), "w")
    assert proc.state is ProcessState.RUNNING
    sim.run_until(0.005)
    assert proc.state is ProcessState.BLOCKED  # sleeping
    sim.run_until(0.1)
    assert proc.state is ProcessState.DEAD


def test_running_on_reports_current_process(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 0.01, profile=WORK)

    proc = kernel.spawn(program(), "w")
    assert kernel.running_on(machine.cores[0]) is proc
    sim.run_until(0.1)
    assert kernel.running_on(machine.cores[0]) is None
