"""``repro.analysis`` loads each of its modules only when asked."""

import os
import subprocess
import sys

import repro
import repro.analysis

#: The directory holding the ``repro`` package under test.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _analysis_modules_after(statement: str) -> list[str]:
    code = (
        f"{statement}\n"
        "import sys\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis.'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=env,
    ).stdout
    return out.split()


def test_importing_stats_loads_no_other_analysis_module():
    assert _analysis_modules_after("import repro.analysis.stats") == [
        "repro.analysis.stats"
    ]


def test_a_package_name_loads_only_its_module():
    assert _analysis_modules_after(
        "from repro.analysis import render_table"
    ) == ["repro.analysis.reporting"]


def test_every_exported_name_resolves():
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name).__name__ == name
