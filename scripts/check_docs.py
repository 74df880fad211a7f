#!/usr/bin/env python
"""Documentation consistency checker (the CI ``docs-check`` job).

Four checks, all cheap enough for tier-1:

* **API coverage** — every name in the ``__all__`` of the public
  modules (``repro.core``, ``repro.serve``, ``repro.runtime``) must
  appear in ``docs/API.md``. A new public name without a line in the
  API reference fails CI, which is the mechanism that keeps the docs
  tracking the code.
* **Link integrity** — every intra-repo markdown link in the tracked
  doc set (``README.md``, ``DESIGN.md``, ``docs/*.md``, ...) must
  resolve to an existing file, including ``file#Lnn`` / ``file#anchor``
  forms (the anchor is checked for existence of the *file* only).
* **Code anchors** — a link of the form ``[`Name`](path.py#Lnn)`` must
  land on the line that defines ``Name``'s last dotted part (``def``,
  ``class`` or an assignment), so line anchors follow the code they
  name.
* **CLI flags** — every ``--flag`` on a ``python -m repro <cmd> …`` line
  of the doc set or of ``repro.cli``'s module docstring (continued over
  backslash-ended lines, cut at a closing backtick) must be accepted by that
  subcommand's parser (:func:`repro.cli.build_parser`), so examples do
  not outlive the options they show.

Run from the repo root (or anywhere — paths resolve relative to this
file): ``python scripts/check_docs.py``. Exit status 0 = clean.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# modules whose __all__ must be fully covered by docs/API.md
PUBLIC_MODULES = ("repro.core", "repro.serve", "repro.runtime")

# markdown files whose intra-repo links are validated
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "docs/API.md",
    "docs/ARCHITECTURE.md",
    "docs/TUNING.md",
)

# the module whose docstring documents the CLI, checked with DOC_FILES
CLI_MODULE = "src/repro/cli.py"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# [`Name`](path.py#Lnn): a link that names a definition by line
_CODE_ANCHOR = re.compile(r"\[`([\w.]+)`\]\(([^)\s]+\.py)#L(\d+)\)")
# `python -m repro <cmd> <args>`; the args stop at a closing backtick
_CLI_CALL = re.compile(r"python -m repro ([a-z][\w-]*)([^`\n]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def missing_api_names() -> list[str]:
    """Public names absent from docs/API.md, as ``module.name`` strings."""
    import importlib

    sys.path.insert(0, str(REPO / "src"))
    api_text = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    missing = []
    for modname in PUBLIC_MODULES:
        module = importlib.import_module(modname)
        for name in module.__all__:
            # word-boundary match so e.g. "count" doesn't cover "count_many"
            if not re.search(rf"\b{re.escape(name)}\b", api_text):
                missing.append(f"{modname}.{name}")
    return missing


def _doc_lines():
    """(relpath, doc path, lineno, line) for every non-fenced doc line."""
    for relpath in DOC_FILES:
        doc = REPO / relpath
        if not doc.exists():
            continue
        in_fence = False
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if not in_fence:
                yield relpath, doc, lineno, line


def broken_links() -> list[str]:
    """Intra-repo markdown links whose target file does not exist."""
    broken = [
        f"{relpath}: file listed in DOC_FILES is missing"
        for relpath in DOC_FILES
        if not (REPO / relpath).exists()
    ]
    for relpath, doc, lineno, line in _doc_lines():
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]  # drop #anchor / #Lnn
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                broken.append(f"{relpath}:{lineno}: broken link -> {target}")
    return broken


def stale_anchors() -> list[str]:
    """``[`Name`](path.py#Lnn)`` links whose line does not define Name."""
    stale = []
    for relpath, doc, lineno, line in _doc_lines():
        for name, path, target_line in _CODE_ANCHOR.findall(line):
            source = (doc.parent / path).resolve()
            if not source.exists():
                continue  # reported by broken_links
            short = re.escape(name.rsplit(".", 1)[-1])
            defines = re.compile(
                rf"\s*((async\s+)?def|class)\s+{short}\b|\s*{short}\s*(:[^=]*)?="
            )
            lines = source.read_text(encoding="utf-8").splitlines()
            n = int(target_line)
            if not (1 <= n <= len(lines) and defines.match(lines[n - 1])):
                stale.append(f"{relpath}:{lineno}: {name} is not defined at {path}#L{n}")
    return stale


def _cli_texts():
    """(relpath, first line number, text) of every document with CLI lines."""
    for relpath in DOC_FILES:
        doc = REPO / relpath
        if doc.exists():
            yield relpath, 1, doc.read_text(encoding="utf-8")
    source = (REPO / CLI_MODULE).read_text(encoding="utf-8")
    node = ast.parse(source).body[0]  # the module docstring, read raw
    lines = source.splitlines()[node.lineno - 1 : node.end_lineno]
    yield CLI_MODULE, node.lineno, "\n".join(lines)


def _cli_calls(text: str):
    """(line index, command, args) for every ``python -m repro`` call."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        for match in _CLI_CALL.finditer(line):
            args, j = match.group(2), i
            while args.rstrip().endswith("\\") and j + 1 < len(lines):
                j += 1
                args = args.rstrip()[:-1] + " " + lines[j].split("`", 1)[0]
            yield i, match.group(1), args


def unknown_cli_flags() -> list[str]:
    """``python -m repro <cmd> --flag`` lines whose flag ``cmd`` rejects."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    unknown = []
    for relpath, first, text in _cli_texts():
        for i, command, args in _cli_calls(text):
            where = f"{relpath}:{first + i}"
            if command not in commands:
                unknown.append(f"{where}: unknown command `repro {command}`")
                continue
            accepted = commands[command]._option_string_actions
            for flag in _FLAG.findall(args):
                if flag not in accepted:
                    unknown.append(f"{where}: `repro {command}` does not accept {flag}")
    return unknown


def main() -> int:
    failures = []
    missing = missing_api_names()
    if missing:
        failures.append(
            "public names missing from docs/API.md:\n  " + "\n  ".join(missing)
        )
    dead = broken_links()
    if dead:
        failures.append("broken intra-repo links:\n  " + "\n  ".join(dead))
    stale = stale_anchors()
    if stale:
        failures.append("line anchors off their definitions:\n  " + "\n  ".join(stale))
    flags = unknown_cli_flags()
    if flags:
        failures.append("CLI examples with unknown flags:\n  " + "\n  ".join(flags))
    if failures:
        print("docs-check FAILED\n" + "\n".join(failures))
        return 1
    names = sum(
        len(__import__("importlib").import_module(m).__all__) for m in PUBLIC_MODULES
    )
    print(
        f"docs-check OK: {names} public names covered, all links resolve, "
        "all line anchors land on their definitions, all CLI example flags parse"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
