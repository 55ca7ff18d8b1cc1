"""Self-tests for tools/census.py (the `census_selftest` ctest entry).

The census itself needs a coverage build and ten minutes of runs, so CI
runs it in its own job; these tests pin the merge and gate logic on
hand-written gcov JSON documents instead.
"""
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import census  # noqa: E402


def gcov_doc(path: str, functions: dict[str, int],
             lines: dict[int, int]) -> dict:
    """One object's `gcov --json-format` document for one source file."""
    return {"files": [{
        "file": str(REPO / path),
        "functions": [{"name": n, "demangled_name": n, "execution_count": c}
                      for n, c in functions.items()],
        "lines": [{"line_number": n, "count": c} for n, c in lines.items()],
    }]}


class MergeTest(unittest.TestCase):
    def test_counts_sum_across_objects_and_only_src_counts(self):
        c = census.Census()
        c.add_gcov_json(gcov_doc("src/sim/a.cpp", {"f()": 0, "g()": 0},
                                 {1: 0, 2: 0}))
        c.add_gcov_json(gcov_doc("src/sim/a.cpp", {"f()": 3, "g()": 0},
                                 {1: 3, 2: 0}))
        c.add_gcov_json(gcov_doc("bench/b.cpp", {"main": 0}, {1: 0}))
        self.assertEqual(c.never_run(inline=False), [("src/sim/a.cpp", "g()")])
        summary = c.summary()
        self.assertEqual(summary["out_of_line_functions"], 2)
        self.assertEqual(summary["lines_instrumented"], 2)
        self.assertEqual(summary["lines_run"], 1)

    def test_inline_and_lambda_and_generated_functions(self):
        c = census.Census()
        c.add_gcov_json(gcov_doc(
            "src/sim/a.cpp",
            {"f()::{lambda()#1}::operator()() const": 0,
             "_GLOBAL__sub_I_a.cpp": 0}, {}))
        c.add_gcov_json(gcov_doc("src/sim/a.hpp", {"A::size() const": 0},
                                 {}))
        self.assertEqual(c.never_run(inline=True),
                         [("src/sim/a.hpp", "A::size() const")])
        summary = c.summary()
        self.assertEqual(summary["out_of_line_never_run"], 1)
        self.assertEqual(summary["out_of_line_never_run_without_lambdas"], 0)

    def test_names_only_lists_inline_functions_without_counts_or_lines(self):
        c = census.Census()
        c.add_gcov_json(gcov_doc("src/sim/a.hpp", {"A::used() const": 2},
                                 {4: 2}))
        c.add_gcov_json(gcov_doc("src/sim/a.hpp",
                                 {"A::used() const": 9, "A::unused()": 9},
                                 {4: 9, 5: 9}), names_only=True)
        c.add_gcov_json(gcov_doc("src/sim/a.cpp", {"f()": 0}, {}),
                        names_only=True)
        self.assertEqual(c.never_run(inline=True),
                         [("src/sim/a.hpp", "A::unused()")])
        self.assertEqual(c.never_run(inline=False), [])
        self.assertEqual(c.summary()["lines_instrumented"], 1)


class AllowlistTest(unittest.TestCase):
    def read(self, text: str) -> dict[str, str]:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "allow.txt"
            path.write_text(text, encoding="utf-8")
            return census.read_allowlist(path)

    def test_name_and_reason_split_at_the_last_separator(self):
        allow = self.read("# comment\n\n"
                          "f()::{lambda(bool)#1}::operator()(bool) const"
                          " | fault recovery\n")
        self.assertEqual(
            allow, {"f()::{lambda(bool)#1}::operator()(bool) const":
                    "fault recovery"})

    def test_entry_without_a_reason_is_rejected(self):
        with self.assertRaises(ValueError):
            self.read("f()\n")


if __name__ == "__main__":
    unittest.main()
