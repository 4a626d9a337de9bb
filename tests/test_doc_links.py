"""The docs link-checker (tools/check_doc_links.py): the repo's docs
must have no broken cross-links, and the checker itself must actually
catch breakage (a checker that can't fail checks nothing)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_doc_links.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_links",
                                                  CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_have_no_broken_links():
    proc = subprocess.run([sys.executable, str(CHECKER)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestCheckerCatchesBreakage:
    @pytest.fixture()
    def checker(self):
        return load_checker()

    def test_missing_file_is_reported(self, checker, tmp_path):
        doc = tmp_path / "A.md"
        doc.write_text("# A\n\nsee [B](NOPE.md)\n")
        errors = checker.check_file(doc)
        assert len(errors) == 1
        assert "NOPE.md" in errors[0]

    def test_missing_anchor_is_reported(self, checker, tmp_path):
        (tmp_path / "B.md").write_text("# Real heading\n")
        doc = tmp_path / "A.md"
        doc.write_text("see [B](B.md#no-such-heading)\n")
        errors = checker.check_file(doc)
        assert len(errors) == 1
        assert "no-such-heading" in errors[0]

    def test_valid_anchor_and_wiki_link_pass(self, checker, tmp_path):
        (tmp_path / "B.md").write_text("# Real heading\n")
        doc = tmp_path / "A.md"
        doc.write_text("see [B](B.md#real-heading) and [[B]]\n"
                       "and [self](#local)\n\n# Local\n")
        assert checker.check_file(doc) == []

    def test_broken_wiki_link_is_reported(self, checker, tmp_path):
        doc = tmp_path / "A.md"
        doc.write_text("see [[Missing]]\n")
        errors = checker.check_file(doc)
        assert len(errors) == 1
        assert "Missing.md" in errors[0]

    def test_code_blocks_are_ignored(self, checker, tmp_path):
        doc = tmp_path / "A.md"
        doc.write_text("```\n[not a link](GONE.md)\n```\n"
                       "and `[inline](ALSO_GONE.md)` too\n")
        assert checker.check_file(doc) == []

    def test_external_links_are_ignored(self, checker, tmp_path):
        doc = tmp_path / "A.md"
        doc.write_text("[x](https://example.com/a.md)\n")
        assert checker.check_file(doc) == []

    def test_source_citing_missing_doc_is_reported(self, checker,
                                                   tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "REAL.md").write_text("# Real\n")
        (tmp_path / "TOP.md").write_text("# Top\n")
        source = tmp_path / "mod.py"
        source.write_text('"""See docs/REAL.md and TOP.md."""\n'
                          "# details in DESIGN.md\n")
        errors = checker.check_source(source, root=tmp_path)
        assert len(errors) == 1
        assert ":2:" in errors[0] and "DESIGN.md" in errors[0]

    def test_stale_qualified_name_is_reported(self, checker, tmp_path):
        doc = tmp_path / "A.md"
        doc.write_text(
            "`repro.synthesis.uniform_plan` and `repro.sim.EventLoop`\n"
            "and `repro.evaluation.reports.cache_rows(result)` resolve;\n"
            "`repro.synthesis.deleted_memo` and `repro.no_such_module`\n"
            "```\n`repro.in_a_fence.is_ignored`\n```\n")
        errors = checker.check_names(doc)
        assert len(errors) == 2
        assert all(":3:" in error for error in errors)
        assert "repro.synthesis.deleted_memo" in errors[0]
        assert "repro.no_such_module" in errors[1]

    def test_slugify_matches_github_style(self, checker):
        assert checker.slugify("The `EventLoop` hot path") \
            == "the-eventloop-hot-path"
        assert checker.slugify("K=1 equivalence guarantee") \
            == "k1-equivalence-guarantee"
