#!/usr/bin/env python3
"""Dead-code census: which src/ functions no shipped run executes.

Build the tree with the `coverage` preset (-O0 --coverage), run the
benches, examples and a perfbench day (tools/census_runs.sh), then point
this script at the build trees:

    python3 tools/census.py build/coverage build/coverage-perfbench \
        --inline-tree build/coverage-inline --report census.json

It runs `gcov --json-format` over every non-test object of each tree
(objects that never ran count as not executed), sums the function and line
counts across objects and trees, and keeps what is defined under src/. An
inline function that no shipped binary instantiates is in no object of
those trees; the optional --inline-tree (the `coverage-inline` preset's
libraries, compiled with -fkeep-inline-functions and never run) lists
every inline function, so those show up too.

  * An out-of-line function (defined in a .cpp, lambdas included) that
    never ran fails the census unless tools/census_allowlist.txt names it
    with a reason: safety code and test oracles stay on purpose.
  * An inline header function that never ran is reported, not gated: most
    are small accessors that only tests call.

Allowlist lines are `<demangled name as gcov prints it> | <reason>`; `#`
starts a comment line. Exit status: 0 when every never-run out-of-line
function is allowlisted, 1 otherwise, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "census_allowlist.txt"

# Compiler-generated per-TU initializers: not source functions.
GENERATED_PREFIXES = ("_GLOBAL__", "__static_initialization_and_destruction")

GCOV_BATCH = 64


@dataclass
class Census:
    """Counts summed over every object of every tree, keyed by src/ path."""
    functions: dict[tuple[str, str], int] = field(default_factory=dict)
    lines: dict[tuple[str, int], int] = field(default_factory=dict)

    def add_gcov_json(self, doc: dict, names_only: bool = False) -> None:
        """Sum one object's counts in; `names_only` adds just the inline
        functions it defines, at count zero."""
        for entry in doc.get("files", []):
            rel = src_relative(entry["file"])
            if rel is None or (names_only and not rel.endswith(".hpp")):
                continue
            for fn in entry.get("functions", []):
                name = fn.get("demangled_name") or fn["name"]
                if name.startswith(GENERATED_PREFIXES):
                    continue
                key = (rel, name)
                count = 0 if names_only else int(fn["execution_count"])
                self.functions[key] = self.functions.get(key, 0) + count
            if names_only:
                continue
            for ln in entry.get("lines", []):
                key = (rel, int(ln["line_number"]))
                self.lines[key] = self.lines.get(key, 0) + int(ln["count"])

    def never_run(self, inline: bool) -> list[tuple[str, str]]:
        return sorted(key for key, count in self.functions.items()
                      if count == 0 and key[0].endswith(".hpp") == inline)

    def summary(self) -> dict:
        run_lines = sum(1 for c in self.lines.values() if c > 0)
        out_of_line = [k for k in self.functions if not k[0].endswith(".hpp")]
        dead = self.never_run(inline=False)
        return {
            "out_of_line_functions": len(out_of_line),
            "out_of_line_never_run": len(dead),
            "out_of_line_never_run_without_lambdas":
                sum(1 for _, name in dead if "{lambda" not in name),
            "inline_never_run": len(self.never_run(inline=True)),
            "lines_instrumented": len(self.lines),
            "lines_run": run_lines,
        }


def src_relative(path: str) -> str | None:
    """`path` relative to the repo root when it lies under src/."""
    try:
        rel = Path(path).resolve().relative_to(REPO)
    except ValueError:
        return None
    return str(rel) if rel.parts[:1] == ("src",) else None


def non_test_notes(build: Path) -> list[Path]:
    """Every .gcno of the tree outside its tests/ directory."""
    return sorted(p for p in build.rglob("*.gcno")
                  if "tests" not in p.relative_to(build).parts)


def run_gcov(notes: list[Path], census: Census, names_only: bool) -> None:
    for i in range(0, len(notes), GCOV_BATCH):
        batch = notes[i:i + GCOV_BATCH]
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", *map(str, batch)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"gcov failed:\n{proc.stderr}")
        for line in proc.stdout.splitlines():
            if line.strip():
                census.add_gcov_json(json.loads(line), names_only)


def read_allowlist(path: Path) -> dict[str, str]:
    """Allowlisted name -> reason."""
    entries: dict[str, str] = {}
    for n, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.rpartition(" | ")
        if not sep or not name.strip() or not reason.strip():
            raise ValueError(f"{path}:{n}: want '<name> | <reason>'")
        entries[name.strip()] = reason.strip()
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/census.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("builds", nargs="+", type=Path,
                        help="coverage build trees whose runs to merge")
    parser.add_argument("--inline-tree", type=Path, default=None,
                        help="a never-run -fkeep-inline-functions build "
                             "whose objects list every inline function")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the full census as JSON here")
    args = parser.parse_args(argv)

    census = Census()
    trees = [(b, False) for b in args.builds]
    if args.inline_tree is not None:
        trees.append((args.inline_tree, True))
    for build, names_only in trees:
        notes = non_test_notes(build.resolve())
        if not notes:
            print(f"census: no .gcno files under {build}", file=sys.stderr)
            return 2
        run_gcov(notes, census, names_only)
    allow = read_allowlist(ALLOWLIST)

    dead = census.never_run(inline=False)
    dead_names = {name for _, name in dead}
    unexplained = [(f, n) for f, n in dead if n not in allow]
    stale = sorted(n for n in allow if n not in dead_names)
    inline_dead = census.never_run(inline=True)
    summary = census.summary()

    print("census: src/ functions no run executed")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    share = summary["lines_run"] / max(summary["lines_instrumented"], 1)
    print(f"  lines_run_share: {share:.3f}")
    print(f"\nnever-run inline header functions ({len(inline_dead)}, "
          "reported, not gated):")
    for path, name in inline_dead:
        print(f"  {path}: {name}")
    print(f"\nnever-run out-of-line functions ({len(dead)}):")
    for path, name in dead:
        tag = "allowlisted" if name in allow else "NOT ALLOWLISTED"
        print(f"  [{tag}] {path}: {name}")
    if stale:
        print(f"\nallowlist entries that ran or no longer exist "
              f"({len(stale)}):")
        for name in stale:
            print(f"  {name}")

    if args.report is not None:
        args.report.write_text(json.dumps({
            "summary": summary,
            "never_run_out_of_line": [
                {"file": f, "function": n, "allowlisted": n in allow,
                 "reason": allow.get(n)} for f, n in dead],
            "never_run_inline": [{"file": f, "function": n}
                                 for f, n in inline_dead],
            "stale_allowlist": stale,
        }, indent=1) + "\n", encoding="utf-8")

    if unexplained:
        print(f"\ncensus: FAIL: {len(unexplained)} never-run out-of-line "
              "function(s) are not in the allowlist", file=sys.stderr)
        return 1
    print("\ncensus: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
