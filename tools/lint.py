#!/usr/bin/env python3
"""Repo-local lint pass for the Amoeba tree; runs as the `lint` ctest entry.

Checks (all are hard failures):
  * include hygiene: no `#include "src/..."` or `#include "../..."` paths
    (all project includes are rooted at src/), and every header under src/
    starts its code with `#pragma once`;
  * banned patterns: `rand()`/`srand()`, raw `new`/`delete` expressions, and
    std RNG engines (`std::mt19937`, `std::random_device`, ...) outside
    src/sim/random.* — all stochastic behaviour must flow through
    amoeba::sim::Rng so simulations stay seed-deterministic;
  * no stdout writes in library code: `std::cout` / bare `printf(` are
    banned under src/ — library diagnostics flow through caller-supplied
    std::ostream& (see src/obs/exporters.hpp); stderr remains legal for
    fatal contract messages;
  * raw `std::mutex` / `std::condition_variable` members are banned under
    src/ outside common/mutex.hpp — concurrency primitives go through the
    thread-safety-annotated wrappers (common::Mutex/CondVar) so the Clang
    -Werror=thread-safety leg can check lock discipline;
  * no shared ownership under src/: `std::shared_ptr` / `std::make_shared`
    (and `std::allocate_shared`) are banned — every object has one owner,
    and callbacks capture handles into it (a query in flight is a slot of
    workload::PhaseRunner, not a shared record);
  * no on-disk state in library code: `#include <filesystem>` is banned
    under src/ — the library computes in memory, and files are written
    only by the binaries (bench/, examples/) or through the exporters'
    caller-supplied paths;
  * build listings: every .cpp under src/, tests/ and bench/ is listed in
    the corresponding CMakeLists.txt (an unlisted file silently drops its
    tests/symbols from the build).

A line may opt out of the banned-pattern checks with a trailing
`// lint: allow` comment, for the rare case that needs the raw construct.
The wall-clock ban has its own escape: `// lint: wallclock-ok <why>` —
the reason is mandatory, so every wall-clock read under src/ documents in
place why it cannot perturb the simulation (the only current user is
src/obs/profiler.hpp, whose readings never feed back into sim state).

Deeper cross-TU analysis (layering DAG, iteration-order determinism,
contract-coverage ratchet, annotation presence) lives in tools/audit/.
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SRC_DIRS = ("src", "tests", "bench", "examples")

# Golden fixture mini-trees seed deliberate violations for the lint/audit
# self-tests; they are inputs to the analyzers, not part of the build.
EXCLUDED_PREFIXES = ("tests/tools/fixtures/",)

ALLOW_MARKER = "lint: allow"

BANNED = [
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand(): use amoeba::sim::Rng"),
    (re.compile(r"\bnew\s+[A-Za-z_:<]"), "raw new: use std::make_unique/containers"),
    (re.compile(r"\bdelete\s+[A-Za-z_(]|\bdelete\[\]"), "raw delete: use RAII owners"),
]

# std RNG engines/sources are banned outside the one blessed wrapper.
STD_RNG = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine|random_device|"
    r"ranlux\w+|knuth_b)\b")
STD_RNG_ALLOWED = {Path("src/sim/random.hpp"), Path("src/sim/random.cpp")}

# Simulation-layer code must not read wall clocks: all time flows from
# sim::Engine::now() so that same-seed runs (including N-tenant cluster
# runs, src/exp/cluster.*) execute identical traces regardless of host
# speed.
WALL_CLOCK = re.compile(
    r"std::chrono::(steady_clock|system_clock|high_resolution_clock)\b")
# Per-line escape: `// lint: wallclock-ok <why>`. Group 1 captures the
# reason; a marker without one is itself a finding, so escapes stay
# self-documenting.
WALLCLOCK_OK_RE = re.compile(r"//\s*lint:\s*wallclock-ok(?:[ \t]+(\S.*))?")

# Library code (src/) must not write to stdout: output belongs to the
# binaries (examples/, bench/), and library diagnostics go through a
# caller-supplied std::ostream&. `std::fprintf(stderr, ...)` stays legal
# for fatal contract diagnostics; the lookbehind keeps `fprintf` /
# `snprintf` out of the bare-printf match.
STDOUT_IN_SRC = re.compile(r"std::cout\b|std::printf\b|(?<![\w.:>])printf\s*\(")

# Concurrency primitives under src/ go through the annotated wrappers in
# common/mutex.hpp (the one file allowed to hold the raw std types), so
# Clang's -Wthread-safety lattice sees every lock site.
RAW_SYNC = re.compile(r"std::(mutex|condition_variable(_any)?|"
                      r"recursive_mutex|shared_mutex|lock_guard|unique_lock|"
                      r"scoped_lock)\b")
RAW_SYNC_ALLOWED = {Path("src/common/mutex.hpp")}

# Library code keeps single ownership: a callback that must reach an object
# captures a handle into its owner, never a reference count.
SHARED_OWNERSHIP = re.compile(r"std::(shared_ptr|make_shared|allocate_shared)\b")

# The library keeps no on-disk state (profiling artifacts are recomputed in
# memory, exports go to caller-named paths), so it never walks directories.
FILESYSTEM_INCLUDE = re.compile(r"^\s*#\s*include\s*<filesystem>")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def scrub_line(raw: str, in_block: bool) -> tuple[str, bool]:
    """Strip comments and string/char literals from one line.

    Returns the remaining code text and the block-comment state after the
    line. Unlike a per-line regex, this tracks `/*` opened mid-line (after
    code) and `*/` closing with code after it, so continuation lines of a
    block comment are never scanned as code.
    """
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        if in_block:
            end = raw.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        ch = raw[i]
        if ch == '"':
            out.append('""')
            i += 1
            while i < n:
                if raw[i] == "\\":
                    i += 2
                    continue
                if raw[i] == '"':
                    i += 1
                    break
                i += 1
            continue
        if ch == "'":
            out.append("''")
            i += 1
            while i < n:
                if raw[i] == "\\":
                    i += 2
                    continue
                if raw[i] == "'":
                    i += 1
                    break
                i += 1
            continue
        if raw.startswith("//", i):
            break
        if raw.startswith("/*", i):
            in_block = True
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block


def excluded(repo: Path, path: Path) -> bool:
    rel = path.relative_to(repo).as_posix()
    return any(rel.startswith(prefix) for prefix in EXCLUDED_PREFIXES)


def iter_sources(repo: Path):
    for top in SRC_DIRS:
        root = repo / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h") \
                    and not excluded(repo, path):
                yield path


def check_file(repo: Path, path: Path, errors: list[str]):
    rel = path.relative_to(repo)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    in_block_comment = False
    saw_pragma_once = False
    for lineno, raw in enumerate(lines, start=1):
        started_in_block = in_block_comment
        code, in_block_comment = scrub_line(raw, in_block_comment)
        if started_in_block and not code.strip():
            continue

        if not started_in_block:
            m = INCLUDE_RE.match(raw)
            if m:
                inc = m.group(1)
                if inc.startswith("src/"):
                    errors.append(
                        f"{rel}:{lineno}: include path must be rooted at src/ "
                        f'(drop the "src/" prefix): {inc}')
                if inc.startswith(".."):
                    errors.append(
                        f"{rel}:{lineno}: relative-parent include (use the "
                        f"src/-rooted path): {inc}")

        if path.suffix in (".hpp", ".h") and raw.strip() == "#pragma once":
            saw_pragma_once = True

        if ALLOW_MARKER in raw:
            continue
        for pattern, why in BANNED:
            if pattern.search(code):
                errors.append(f"{rel}:{lineno}: {why}")
        if STD_RNG.search(code) and rel not in STD_RNG_ALLOWED:
            errors.append(
                f"{rel}:{lineno}: std random engine outside src/sim/random.* "
                f"(use amoeba::sim::Rng for seed-determinism)")
        if rel.parts[0] == "src" and WALL_CLOCK.search(code):
            escape = WALLCLOCK_OK_RE.search(raw)
            if escape is None:
                errors.append(
                    f"{rel}:{lineno}: wall-clock read in simulation code "
                    f"(use sim::Engine::now(), or escape with "
                    f"`// lint: wallclock-ok <why>`)")
            elif not escape.group(1):
                errors.append(
                    f"{rel}:{lineno}: wallclock-ok escape requires a reason "
                    f"(`// lint: wallclock-ok <why>`)")
        if rel.parts[0] == "src" and STDOUT_IN_SRC.search(code):
            errors.append(
                f"{rel}:{lineno}: stdout write in library code "
                f"(std::cout/printf): write to a caller-supplied "
                f"std::ostream& instead")
        if rel.parts[0] == "src" and SHARED_OWNERSHIP.search(code):
            errors.append(
                f"{rel}:{lineno}: shared ownership in library code "
                f"(std::shared_ptr/make_shared): give the object one owner "
                f"and capture a handle into it")
        if rel.parts[0] == "src" and FILESYSTEM_INCLUDE.search(code):
            errors.append(
                f"{rel}:{lineno}: <filesystem> in library code: keep on-disk "
                f"state out of src/ (compute in memory, or let a binary "
                f"under bench/ or examples/ own the files)")
        if (rel.parts[0] == "src" and RAW_SYNC.search(code)
                and rel not in RAW_SYNC_ALLOWED):
            errors.append(
                f"{rel}:{lineno}: raw std synchronization primitive in "
                f"library code: use the annotated wrappers in "
                f"common/mutex.hpp (common::Mutex/MutexLock/UniqueLock/"
                f"CondVar) so -Wthread-safety can check lock discipline")

    if path.suffix in (".hpp", ".h"):
        if re.search(r"#\s*ifndef\s+\w+_H(PP)?_?\b", text):
            errors.append(f"{rel}: uses an include guard; this tree "
                          f"standardizes on #pragma once")
        if not saw_pragma_once:
            errors.append(f"{rel}: header missing #pragma once")


def check_cmake_listings(repo: Path, errors: list[str]):
    for top in ("src", "tests", "bench", "examples"):
        root = repo / top
        cmake = root / "CMakeLists.txt"
        if not root.is_dir() or not cmake.is_file():
            continue
        cmake_text = cmake.read_text()
        listed = set(re.findall(r"[\w/.-]+\.cpp", cmake_text))
        # Helper-function style (`amoeba_bench(fig03_peak_load)`) lists the
        # stem only. Accept a stem solely when it appears as the first
        # argument of a command invocation — a bare mention in a comment,
        # variable name, or unrelated argument list is not a listing.
        stems = set(re.findall(r"\b[\w-]+\s*\(\s*([\w-]+)", cmake_text))
        for path in sorted(root.rglob("*.cpp")):
            if excluded(repo, path):
                continue
            rel_in_dir = path.relative_to(root).as_posix()
            if rel_in_dir not in listed and path.stem not in stems:
                errors.append(
                    f"{path.relative_to(repo)}: not listed in "
                    f"{top}/CMakeLists.txt (file would silently drop out "
                    f"of the build)")


def run(repo: Path) -> list[str]:
    errors: list[str] = []
    for path in iter_sources(repo):
        check_file(repo, path, errors)
    check_cmake_listings(repo, errors)
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="tree to lint (default: the repository this script lives in)")
    args = parser.parse_args(argv)
    errors = run(args.root.resolve())
    if errors:
        print(f"lint: {len(errors)} finding(s)", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
