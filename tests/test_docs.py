"""Documentation consistency, enforced in tier-1.

Runs the same checks as the CI ``docs-check`` job
(``scripts/check_docs.py``): every public ``__all__`` name of
``repro.core`` / ``repro.serve`` / ``repro.runtime`` appears in
docs/API.md, every intra-repo markdown link resolves, every
``[`Name`](path.py#Lnn)`` link lands on Name's definition, and every
``--flag`` of a ``python -m repro <cmd>`` example is one ``cmd`` accepts.
"""

import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import check_docs  # noqa: E402


def test_api_docs_cover_public_names():
    missing = check_docs.missing_api_names()
    assert not missing, f"public names missing from docs/API.md: {missing}"


def test_intra_repo_links_resolve():
    dead = check_docs.broken_links()
    assert not dead, f"broken markdown links: {dead}"


def test_line_anchors_land_on_definitions():
    stale = check_docs.stale_anchors()
    assert not stale, f"line anchors off their definitions: {stale}"


def test_stale_anchor_is_reported(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text("import os\n\n\ndef target():\n    pass\n")
    (tmp_path / "doc.md").write_text(
        "[`target`](mod.py#L4) is right, [`mod.target`](mod.py#L1) is not\n"
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("doc.md",))
    assert check_docs.stale_anchors() == [
        "doc.md:1: mod.target is not defined at mod.py#L1"
    ]


def test_cli_example_flags_parse():
    unknown = check_docs.unknown_cli_flags()
    assert not unknown, f"CLI examples with unknown flags: {unknown}"


def test_unknown_cli_flag_is_reported(tmp_path, monkeypatch):
    (tmp_path / "doc.md").write_text(
        "```bash\n"
        "python -m repro count --graph g.el --pattern diamond \\\n"
        "    --workers 2 --no-such-flag 3\n"
        "```\n"
        "Or `python -m repro query --graph-name g --pattern paw --stats` and `--ok`.\n"
        "`python -m repro frobnicate --x`\n"
    )
    (tmp_path / "cli.py").write_text(
        '"""CLI.\n\n    python -m repro decompose --pattern fig4 --top 3\n"""\n'
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("doc.md",))
    monkeypatch.setattr(check_docs, "CLI_MODULE", "cli.py")
    assert check_docs.unknown_cli_flags() == [
        "doc.md:2: `repro count` does not accept --no-such-flag",
        "doc.md:5: `repro query` does not accept --stats",
        "doc.md:6: unknown command `repro frobnicate`",
        "cli.py:3: `repro decompose` does not accept --top",
    ]


def test_docs_exist_and_are_linked():
    repo = check_docs.REPO
    for doc in ("docs/ARCHITECTURE.md", "docs/TUNING.md", "docs/API.md"):
        assert (repo / doc).exists(), doc
    readme = (repo / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/TUNING.md" in readme
    design = (repo / "DESIGN.md").read_text()
    assert "docs/ARCHITECTURE.md" in design
