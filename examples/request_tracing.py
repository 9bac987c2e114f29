#!/usr/bin/env python3
"""Tracing one request across a multi-stage server (paper Fig. 4).

A WeBWorK problem request flows through Apache/PHP processing, a MySQL
thread reached over a persistent socket, and forked latex/dvipng helper
processes.  The power-container facility tracks the request context through
every hop -- socket segments, fork, wait4/exit -- entirely inside the OS,
with no application changes.  This example prints the flow the facility's
telemetry tracer captured -- stage spans on each core, socket sends and
receives, exits, and the request span closing with its energy -- and the
power/energy attributed to the request, like the paper's Fig. 4
annotations.

Run:  python examples/request_tracing.py
"""

import os

from repro.core import PowerContainerFacility, calibrate_machine
from repro.hardware import SANDYBRIDGE, build_machine
from repro.kernel import ContextTag, Kernel, Message
from repro.requests import RequestSpec
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.workloads import WeBWorKWorkload



# REPRO_QUICK=1 (set by the CI examples lane) shrinks simulated durations
# so every example still runs end-to-end but finishes in seconds.
QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")


def main() -> None:
    print("calibrating SandyBridge ...")
    calibration = calibrate_machine(SANDYBRIDGE, duration=0.1 if QUICK else 0.25)

    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    telemetry = Telemetry()
    facility = PowerContainerFacility(
        kernel, calibration, telemetry=telemetry
    )

    workload = WeBWorKWorkload(n_workers=2)
    server = workload.build_server(kernel, facility)
    container = facility.create_request_container(
        "webwork:traced", meta={"rtype": "standard"}
    )
    # The response closes the request span, stamped with its energy.
    server.client_side.on_message = (
        lambda message: facility.complete_request(container)
    )
    spec = RequestSpec(
        "standard",
        params={"problem_set": 451, "difficulty": 1.2, "image_cached": False},
    )
    server.inject(Message(
        nbytes=512, payload=(0, spec),
        tag=ContextTag(container_id=container.id),
    ))
    sim.run_until(0.5)
    facility.flush()

    print(f"\ncaptured request execution (container #{container.id}):\n")
    print(telemetry.tracer.timeline(limit=40))

    stats = container.stats
    print("\nper-request attribution (the Fig. 4 annotations):")
    print(f"   cpu time   : {stats.cpu_seconds * 1e3:7.2f} ms across all stages")
    print(f"   energy     : {container.total_energy(facility.primary):7.4f} J "
          f"(incl. {stats.io_energy_joules:.4f} J of disk I/O)")
    print(f"   mean power : {container.mean_power(facility.primary):7.2f} W while scheduled")
    print(f"   events     : {stats.events.instructions / 1e6:.1f}M instructions, "
          f"{stats.events.cache_refs / 1e3:.0f}k LLC refs, "
          f"{stats.events.disk_bytes / 1024:.0f} KiB disk")


if __name__ == "__main__":
    main()
