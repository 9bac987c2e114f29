"""Property tests: shedding never leaks energy or loses arrivals.

Each example drives a real overload world (two metered machines, admission
control, power-cap enforcer) through an arrival storm drawn by hypothesis,
then audits the energy-accounting contract of load shedding:

* a request turned away before injection (``injections == 0``) never minted
  a container anywhere, so it contributed exactly zero attributed energy --
  checked *exactly*: the cluster-wide count of request containers equals the
  protector's injection count;
* cluster energy still conserves: attributed matches ground-truth measured
  within the chaos tolerance, storm or no storm;
* every arrival reaches exactly one terminal-or-pending state (the
  accounting identity) and no arrival appears twice in the shed log.

Worlds are expensive, so examples are few and the run is short; the fixed
chaos scenarios cover the long-duration cases.
"""

from hypothesis import example, given, settings, strategies as st

from repro.faults import FaultPlan, build_overload_world

DURATION = 0.45
TOLERANCE = 0.35

#: Storms of at least this multiplier overload every draw.  Each machine's
#: token bucket refills at the whole cluster's base rate, so a 2x storm
#: split over two machines arrives at exactly the refill rate and a quiet
#: draw can shed nothing (seed 18269 did).  At 3x each machine sees 1.5x
#: its refill rate for the whole storm: ~58 arrivals beyond what the
#: bucket refills, against a 10-token burst and a Poisson spread of ~13.
#: 121 seeds spread over the range all turned away 112 or more.
OVERLOAD_MULTIPLIER = 3.0


def _run_storm(seed, multiplier):
    world = build_overload_world(seed, DURATION)
    plan = FaultPlan().arrival_storm(
        at=0.2 * DURATION, duration=0.5 * DURATION, multiplier=multiplier
    )
    plan.apply(world.simulator, world.targets)
    world.start()
    world.simulator.run_until(DURATION)
    for member in world.cluster.machines:
        member.facility.flush()
    return world


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    multiplier=st.floats(min_value=OVERLOAD_MULTIPLIER, max_value=8.0),
)
@example(seed=18269, multiplier=OVERLOAD_MULTIPLIER)
def test_property_shed_requests_contribute_no_energy(seed, multiplier):
    world = _run_storm(seed, multiplier)
    protector = world.protector

    # The storm actually overloaded something (otherwise the example is
    # vacuous) and at least one turned-away request never ran at all.
    turned_away = [r for r in protector.shed_log
                   if r.injections == 0 and r.reason != "deadline"]
    assert protector.shed + protector.rejected > 0
    assert turned_away

    # Exactly one container exists per injection, cluster-wide: a request
    # with zero injections therefore has zero containers and zero
    # attributed energy -- not "small", zero.
    containers = sum(
        len(member.facility.registry.request_containers())
        for member in world.cluster.machines
    )
    assert containers == protector.injections

    # Shedding must not break the energy-sum validation: everything that
    # *was* measured is still attributed within the chaos tolerance.
    measured = world.measured_joules()
    attributed = world.attributed_joules()
    assert measured > 0.0
    assert abs(attributed - measured) / measured < TOLERANCE


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    multiplier=st.floats(min_value=2.0, max_value=8.0),
)
@example(seed=18269, multiplier=2.0)  # a storm that sheds nothing
def test_property_every_arrival_has_exactly_one_outcome(seed, multiplier):
    world = _run_storm(seed, multiplier)
    protector = world.protector

    assert protector.accounting_gap() == 0
    # No arrival is shed or rejected twice...
    shed_ids = [r.arrival_id for r in protector.shed_log]
    assert len(shed_ids) == len(set(shed_ids))
    assert len(shed_ids) == protector.shed + protector.rejected
    # ...and every logged id really arrived.
    assert all(0 <= i < protector.arrivals for i in shed_ids)
    # Completions and terminal sheds never overlap: together with the gap
    # identity this pins "exactly one outcome per arrival".
    assert (protector.completed + len(shed_ids)
            + protector.pending()) == protector.arrivals


def test_storm_free_run_sheds_nothing():
    """Sanity anchor for the properties: at base load with cap headroom the
    protector is invisible -- no shed, no rejection, no brownout."""
    world = build_overload_world(seed=3, duration=DURATION)
    world.start()
    world.simulator.run_until(DURATION)
    assert world.protector.shed == 0
    assert world.protector.rejected == 0
    assert world.enforcer.level == 0
    assert world.protector.accounting_gap() == 0
