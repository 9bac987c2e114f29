"""Repository CI toolkit: ``python -m ci <lane>``.

Quality gates for the Power Containers reproduction, runnable locally and
from GitHub Actions with identical behavior:

* ``lint``        -- AST-based static checks over the whole repository
* ``docs``        -- cross-reference docs/README against the importable API
* ``determinism`` -- seeded double-runs and checkpoint/resume identity
* ``test``        -- tier-1 pytest lane (``--full`` for the slow tests too)
* ``examples``    -- every ``examples/*.py`` in quick mode, in a subprocess
* ``figures``     -- regenerate the paper tables/figures (``benchmarks/``)
* ``bench``       -- the repo benchmark's tests (``bench/``, quick runs)
* ``chaos``       -- every fault scenario must pass its invariants
* ``overload``    -- brownout scenarios double-run + the CLI demo
* ``perf``        -- the perf suite's bounds + the fingerprint guard
* ``telemetry``   -- telemetry neutrality + trace determinism
* ``restore``     -- SIGKILL/resume identity + corrupt-file rejection
* ``shard``       -- shard-count invariance + pool-worker-kill recovery
* ``transport``   -- lossy-transport invariance + coordinator resume
* ``all``         -- the merge gate: every lane above except ``figures``
  (``--fast``: only lint, docs, the fast tests and determinism)

Every fingerprint comparison is a row of one table (:mod:`ci.cases`); the
perf suite and its bounds live in :mod:`ci.perf`.

Every module imports only the standard library at the top level, except
:mod:`ci.perf` (numpy), which is loaded lazily, so the lint/docs lanes run
on a bare Python before the project's own requirements are installed.
The package lives at the repository top level, outside ``src/``, and is
never packaged or imported by ``repro``.
"""

from ci.report import CheckResult, Reporter

__all__ = ["CheckResult", "Reporter"]
