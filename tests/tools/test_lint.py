"""Fixture self-tests for tools/lint.py (the `lint_selftest` ctest entry).

Regression coverage for the two scanner bugs fixed alongside tools/audit:
  * block-comment state: `/*` opened mid-line (after code) used to leave
    the scanner thinking the next lines were code, so commented-out
    rand()/new was flagged — and code after a same-line `*/` was missed;
  * CMake stem matching: a .cpp stem mentioned anywhere in the
    CMakeLists.txt text (even a comment) used to count as "listed"; only
    a first-argument position in a command invocation counts now.
"""
import sys
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import lint  # noqa: E402

FIXTURES = REPO / "tests" / "tools" / "fixtures"


def expected_lines(fixture: Path) -> list[str]:
    text = (fixture / "expected_findings.txt").read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln.strip()]


def assert_errors_match(test: unittest.TestCase, fixture: Path,
                        errors: list[str]) -> None:
    expected = expected_lines(fixture)
    test.assertEqual(
        len(errors), len(expected),
        f"finding count mismatch in {fixture.name}:\n  got:\n    " +
        "\n    ".join(errors or ["<none>"]))
    unmatched = list(errors)
    for want in expected:
        hit = next((e for e in unmatched if e.startswith(want)), None)
        test.assertIsNotNone(
            hit, f"no lint error starting with:\n  {want}\nin:\n  " +
            "\n  ".join(unmatched or ["<none>"]))
        unmatched.remove(hit)


class BlockCommentTest(unittest.TestCase):
    def test_midline_block_comment_state(self):
        fixture = FIXTURES / "lint_block_comment"
        assert_errors_match(self, fixture, lint.run(fixture))

    def test_scrub_line_transitions(self):
        code, in_block = lint.scrub_line("int a; /* open", False)
        self.assertTrue(in_block)
        self.assertIn("int a;", code)
        code, in_block = lint.scrub_line("still comment */ rand(", True)
        self.assertFalse(in_block)
        self.assertIn("rand(", code)
        self.assertNotIn("still comment", code)
        code, in_block = lint.scrub_line('s = "/* not a comment";', False)
        self.assertFalse(in_block)
        code, in_block = lint.scrub_line("mid /* c */ tail", False)
        self.assertFalse(in_block)
        self.assertIn("mid", code)
        self.assertIn("tail", code)
        self.assertNotIn("c", code.replace("mid", "").replace("tail", ""))

    def test_escaped_quote_in_string(self):
        code, in_block = lint.scrub_line(r'x = "a\"b"; rand(', False)
        self.assertFalse(in_block)
        self.assertEqual(code, 'x = ""; rand(')


class CmakeStemTest(unittest.TestCase):
    def test_comment_mention_is_not_a_listing(self):
        fixture = FIXTURES / "lint_cmake_stem"
        assert_errors_match(self, fixture, lint.run(fixture))


class WallclockEscapeTest(unittest.TestCase):
    def test_escape_requires_a_reason(self):
        fixture = FIXTURES / "lint_wallclock"
        assert_errors_match(self, fixture, lint.run(fixture))


class SharedOwnershipTest(unittest.TestCase):
    def test_shared_ptr_banned_under_src_only(self):
        fixture = FIXTURES / "lint_shared_ptr"
        assert_errors_match(self, fixture, lint.run(fixture))


class FilesystemIncludeTest(unittest.TestCase):
    def test_filesystem_include_banned_under_src_only(self):
        fixture = FIXTURES / "lint_filesystem"
        assert_errors_match(self, fixture, lint.run(fixture))


class RepoCleanTest(unittest.TestCase):
    def test_repo_tree_is_lint_clean(self):
        errors = lint.run(REPO)
        self.assertEqual(errors, [], "\n".join(errors))


if __name__ == "__main__":
    unittest.main()
