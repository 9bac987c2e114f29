"""Docs/README cross-reference checker.

Documentation rots silently: APIs get renamed, CLI commands get added, files
move.  This lane makes the docs' claims machine-checked:

* every item in a ``docs/api.md`` package table must resolve to a real
  attribute of that package: each backticked span of an item cell that
  starts with an identifier must resolve (``{name: Result}`` is prose);
* the CLI section of ``docs/api.md`` must mention every command that
  ``repro.cli`` actually registers;
* every repository-relative file path mentioned in the Markdown corpus
  (README, docs/, DESIGN, EXPERIMENTS, ROADMAP) must exist.

Run:  ``python -m ci docs``
"""

from __future__ import annotations

import importlib
import os
import re
from ci.report import Finding

#: Markdown files whose repo-path references are verified.
DOC_FILES = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
    "docs/api.md", "docs/architecture.md", "docs/paper_mapping.md",
    "docs/ci.md", "docs/robustness.md", "docs/performance.md",
    "docs/observability.md",
)

_SECTION_RE = re.compile(r"^##\s+`(repro(?:\.\w+)?)`")
_BACKTICK_RE = re.compile(r"`([^`]+)`")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")
_PATH_RE = re.compile(
    r"\b((?:docs|examples|benchmarks|tests|src|ci|\.github)"
    r"/[A-Za-z0-9_./\-]+\.(?:py|md|yml|toml))\b"
)


def _resolves(module, dotted: str) -> bool:
    """True when ``dotted`` walks to an attribute of ``module`` (importing
    any submodule it names on the way)."""
    parts = dotted.split(".")
    if parts[0] == getattr(module, "__name__", "").split(".")[-1]:
        parts = parts[1:]
    obj = module
    for part in parts:
        try:
            obj = (getattr(obj, part) if hasattr(obj, part) else
                   importlib.import_module(f"{obj.__name__}.{part}"))
        except (AttributeError, ImportError):
            return False
    return True


def _check_api_tables(root: str) -> list[Finding]:
    findings = []
    api_path = os.path.join(root, "docs", "api.md")
    if not os.path.exists(api_path):
        return [Finding("docs/api.md", 1, "D100", "docs/api.md is missing")]
    with open(api_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    module = None
    module_name = ""
    for lineno, line in enumerate(lines, start=1):
        section = _SECTION_RE.match(line)
        if section:
            module_name = section.group(1)
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                findings.append(Finding(
                    "docs/api.md", lineno, "D301",
                    f"documented package {module_name!r} does not import: {exc}",
                ))
                module = None
            continue
        if line.startswith("## "):
            module = None  # non-package section, e.g. "## CLI"
            continue
        if module is None or not line.startswith("|"):
            continue
        cells = line.split("|")
        if len(cells) < 3:
            continue
        item_cell = cells[1].strip()
        if item_cell in ("item", "") or set(item_cell) <= {"-", " "}:
            continue
        for span in _BACKTICK_RE.findall(item_cell):
            name = _IDENT_RE.match(span)
            if name is not None and not _resolves(module, name.group()):
                findings.append(Finding(
                    "docs/api.md", lineno, "D302",
                    f"{name.group()!r} does not resolve in {module_name}",
                ))
    return findings


def _check_cli_section(root: str) -> list[Finding]:
    from repro.cli import COMMANDS

    api_path = os.path.join(root, "docs", "api.md")
    if not os.path.exists(api_path):
        return []
    with open(api_path, encoding="utf-8") as fh:
        text = fh.read()
    marker = "## CLI"
    section = text[text.index(marker):] if marker in text else ""
    findings = []
    for command in sorted(set(COMMANDS) | {"list"}):
        if not re.search(rf"\b{re.escape(command)}\b", section):
            findings.append(Finding(
                "docs/api.md", text.count("\n", 0, text.index(marker)) + 1
                if marker in text else 1,
                "D303",
                f"CLI command {command!r} is registered but undocumented",
            ))
    return findings


def _check_paths(root: str) -> list[Finding]:
    findings = []
    for doc in DOC_FILES:
        full = os.path.join(root, doc)
        if not os.path.exists(full):
            continue
        with open(full, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            for ref in _PATH_RE.findall(line):
                if not os.path.exists(os.path.join(root, ref)):
                    findings.append(Finding(
                        doc, lineno, "D304",
                        f"referenced path {ref!r} does not exist",
                    ))
    return findings


def run_docscheck(root: str):
    """Lane entry point -> (ok, findings, detail)."""
    findings = []
    findings.extend(_check_api_tables(root))
    findings.extend(_check_cli_section(root))
    findings.extend(_check_paths(root))
    return not findings, findings, f"{len(DOC_FILES)} documents"
