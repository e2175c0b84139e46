"""Documentation is load-bearing: these tests keep it true.

* ``docs/cli.md`` is diffed against the argparse parser in *both*
  directions — every registered flag must be documented, every
  documented flag must exist — and every subcommand must have a
  heading.
* Every subcommand's ``--help`` must render (the CI docs job also runs
  the real ``python -m repro <cmd> --help`` subprocesses).
* Every relative markdown link and ``#anchor`` in the user-facing docs
  must resolve (GitHub-style heading slugs).
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import make_parser

REPO = Path(__file__).resolve().parents[1]
CLI_DOC = REPO / "docs" / "cli.md"

# The pages whose links/anchors must resolve.
DOC_PAGES = sorted((REPO / "docs").glob("*.md")) + [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
]

# Lookbehind skips flag-shaped substrings inside anchors (#build--oct);
# --help is argparse-implicit, not a registration to diff.
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = make_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(sub.choices)


def _registered_flags() -> set[str]:
    flags: set[str] = set()
    for sub in _subcommands().values():
        for action in sub._actions:
            flags.update(
                s for s in action.option_strings if s.startswith("--")
            )
    flags.discard("--help")
    return flags


class TestCliReference:
    """docs/cli.md vs the argparse registrations in src/repro/cli.py."""

    def test_every_registered_flag_is_documented(self):
        documented = set(FLAG_RE.findall(CLI_DOC.read_text()))
        missing = _registered_flags() - documented
        assert not missing, (
            f"flags registered in cli.py but absent from docs/cli.md: "
            f"{sorted(missing)}"
        )

    def test_every_documented_flag_exists(self):
        documented = set(FLAG_RE.findall(CLI_DOC.read_text()))
        documented.discard("--help")
        stale = documented - _registered_flags()
        assert not stale, (
            f"flags documented in docs/cli.md but not registered in "
            f"cli.py: {sorted(stale)}"
        )

    def test_every_subcommand_has_a_heading(self):
        headings = [
            line for line in CLI_DOC.read_text().splitlines()
            if line.startswith("#")
        ]
        for name in _subcommands():
            assert any(
                re.search(rf"\b{re.escape(name)}\b", h) for h in headings
            ), f"subcommand {name!r} has no heading in docs/cli.md"

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_help_renders(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--trace" in out  # the observability block is attached


def _github_slug(heading: str) -> str:
    """GitHub's heading -> anchor rule: lowercase, drop punctuation
    (keeping word chars and hyphens), spaces become hyphens."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(page: Path) -> set[str]:
    return {
        _github_slug(m.group(1))
        for m in HEADING_RE.finditer(page.read_text())
    }


class TestBenchSchemas:
    """Every committed BENCH_*.json has a schema entry in operations.md."""

    def test_every_bench_json_is_documented(self):
        operations = (REPO / "docs" / "operations.md").read_text()
        missing = []
        for path in sorted((REPO / "benchmarks").glob("BENCH_*.json")):
            # Tiny CI-smoke files share the full-mode file's schema entry.
            name = path.name.replace("_tiny.json", ".json")
            if name not in operations:
                missing.append(path.name)
        assert not missing, (
            f"benchmark JSON files without a schema entry in "
            f"docs/operations.md: {missing}"
        )


class TestMarkdownLinks:
    """Relative links and anchors in docs/, README, EXPERIMENTS."""

    def test_every_docs_page_is_reachable(self):
        """Each docs/*.md must be linked from README or another doc page

        — a page nothing points to is dead documentation (this is what
        keeps new pages like serving_analytics.md wired in).
        """
        targets: set[Path] = set()
        for page in DOC_PAGES:
            for target in LINK_RE.findall(page.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.partition("#")[0]
                if path_part:
                    targets.add((page.parent / path_part).resolve())
        orphans = [
            p.name for p in (REPO / "docs").glob("*.md")
            if p.resolve() not in targets
        ]
        assert not orphans, f"docs pages nothing links to: {orphans}"

    @pytest.mark.parametrize(
        "page", DOC_PAGES, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_links_resolve(self, page):
        problems = []
        for target in LINK_RE.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = (
                page if not path_part
                else (page.parent / path_part).resolve()
            )
            if not dest.exists():
                problems.append(f"{target}: file {path_part} not found")
                continue
            if anchor and anchor not in _anchors(dest):
                problems.append(f"{target}: no heading for #{anchor}")
        assert not problems, f"{page.name}: {problems}"
