#!/usr/bin/env python3
"""Product-path coverage gate: every library function a product path does
not reach is either named in the allow-list with a reason, or fails the job.

A product path is what a user of this repository runs: `abft_run` on every
committed spec and on every bench/e2e workload (read only), the six
examples, and a few multi-threaded runs.  The tests are not product paths:
code that only they reach can break while every golden stays green.

Usage (from the repository root):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DABFT_MARCH_NATIVE=OFF \\
          -DCMAKE_CXX_FLAGS="-O1 --coverage"
    cmake --build build-cov -j --target abft_run example_quickstart ...
    python3 scripts/product_coverage.py build-cov

The script clears the build's counters, runs the product paths with their
outputs written, and reads the counters through `gcov --json-format`.
With `--gcov-json FILE` it gates a recorded list of gcov JSON documents
instead (the unit tests do).

A function counts as reached when any line of its body has a nonzero count
in any translation unit: at -O1 header functions inline into their
callers, so their own entry count stays 0 while their lines run.  The gate
fails on an unreached function of MIN_LINES (8) or more lines under src/
that the allow-list does not name, and on an allow-list entry that names
no unreached function (it is reached now, or it is gone).

Allow-list lines read `<file under src/>  <function>  <reason>`; the
function is the qualified name without its parameter list and template
arguments (`abft::linalg::cholesky`), so one entry covers every overload
and instantiation of that name in the file, and the lambdas inside it.
`#` starts a comment.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The closed set of reasons an unreached function may stay in the library
# (scripts/product_coverage_allow.txt says what each means).
REASONS = ("test-reference", "paper-theory", "bench-only", "e2e-adapter", "error-path",
           "avx512-only")

# Functions shorter than this are not gated.
MIN_LINES = 8

# Sweeps longer than this run capped at CAPPED_ITERATIONS: the gate asks
# which code runs, not how long it converges.
LONG_SWEEP_ITERATIONS = 300
CAPPED_ITERATIONS = 60

EXAMPLES = ("quickstart", "robust_mean", "linear_regression", "state_estimation",
            "peer_to_peer", "learning_demo")


# --------------------------------------------------------------------------
# Function names


def _matching_open(text: str, close: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(close, -1, -1):
        if text[i] == close_ch:
            depth += 1
        elif text[i] == open_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def _strip_templates(text: str) -> str:
    """Drops every <...> group, keeping the `<` of operator<, operator<<, ..."""
    out = []
    depth = 0
    i = 0
    while i < len(text):
        if text.startswith("operator", i) and depth == 0:
            j = i + len("operator")
            while j < len(text) and text[j] in "<>=!+-*/%&|^~[]()":
                if text[j] == "(" and text[j:j + 2] != "()":
                    break
                j += 1
            out.append(text[i:j])
            i = j
            continue
        ch = text[i]
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
        i += 1
    return "".join(out)


def function_key(demangled: str) -> str:
    """`abft::linalg::cholesky(abft::linalg::Matrix const&)` -> `abft::linalg::cholesky`.

    Drops the return type, the parameter list, cv/ref qualifiers, ABI tags
    and template arguments, and spells an anonymous namespace `{anonymous}`;
    a lambda keeps its enclosing function's name with a `::{lambda}`
    suffix.
    """
    text = demangled.replace("[abi:cxx11]", "").replace("(anonymous namespace)", "{anonymous}")
    lambda_at = text.find("::{lambda(")
    if lambda_at >= 0:
        return function_key(text[:lambda_at]) + "::{lambda}"
    text = text.rstrip()
    for suffix in (" const", " volatile", " &&", " &", " noexcept"):
        while text.endswith(suffix):
            text = text[: -len(suffix)].rstrip()
    if text.endswith(")"):
        start = _matching_open(text, len(text) - 1, "(", ")")
        if start > 0:
            text = text[:start]
    text = _strip_templates(text).strip()
    # What is left is `[return type] qualified::name`: the name is the last
    # space-separated token outside any parentheses.
    depth = 0
    cut = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0 and not text[:i].endswith("operator"):
            cut = i + 1
    return text[cut:]


# --------------------------------------------------------------------------
# gcov JSON -> per-function reach


@dataclass
class Function:
    path: str  # relative to the repository root, e.g. src/abft/core/certify.cpp
    name: str  # function_key of the demangled name
    start: int
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


@dataclass
class Coverage:
    functions: dict = field(default_factory=dict)  # (path, name, start) -> Function
    line_counts: dict = field(default_factory=dict)  # path -> {line: count}

    def reached(self, fn: Function) -> bool:
        counts = self.line_counts.get(fn.path, {})
        return any(counts.get(line, 0) > 0 for line in range(fn.start, fn.end + 1))

    def line_totals(self) -> tuple[int, int]:
        total = sum(len(lines) for lines in self.line_counts.values())
        hit = sum(1 for lines in self.line_counts.values() for c in lines.values() if c > 0)
        return hit, total


def relative_source(path: str, root: Path, cwd: str) -> str | None:
    """The repository-relative path of a source under src/, else None."""
    full = Path(path) if os.path.isabs(path) else Path(cwd or ".") / path
    try:
        rel = Path(os.path.normpath(full)).relative_to(root)
    except ValueError:
        return None
    return rel.as_posix() if rel.parts[:1] == ("src",) else None


def merge_document(cov: Coverage, doc: dict, root: Path) -> None:
    """Folds one gcov JSON document (one translation unit) into `cov`."""
    cwd = doc.get("current_working_directory", "")
    for entry in doc.get("files", []):
        path = relative_source(entry["file"], root, cwd)
        if path is None:
            continue
        counts = cov.line_counts.setdefault(path, {})
        for line in entry.get("lines", []):
            number = line["line_number"]
            counts[number] = counts.get(number, 0) + line["count"]
        for fn in entry.get("functions", []):
            name = function_key(fn.get("demangled_name") or fn["name"])
            key = (path, name, fn["start_line"])
            if key not in cov.functions:
                cov.functions[key] = Function(path, name, fn["start_line"], fn["end_line"])


def read_documents(path: Path) -> list:
    """A recorded list of gcov JSON documents."""
    return json.loads(path.read_text())


def product_objects(build: Path) -> list[Path]:
    """The .gcno notes of the library and of the product binaries.

    Notes, not counters: an object no product binary links writes no .gcda,
    and its functions must still count as unreached.
    """
    notes = []
    for gcno in sorted(build.rglob("*.gcno")):
        target = next((p for p in gcno.parents if p.suffix == ".dir"), None)
        if target is not None and (target.name in ("abft.dir", "abft_run.dir") or
                                   target.name.startswith("example_")):
            notes.append(gcno)
    return notes


def gcov_documents(build: Path):
    """Runs gcov over every product object under `build`, one document per unit."""
    with tempfile.TemporaryDirectory() as workdir:
        for gcno in product_objects(build):
            proc = subprocess.run(
                ["gcov", "--json-format", "--stdout", "--object-directory",
                 str(gcno.parent), str(gcno)],
                cwd=workdir, capture_output=True, text=True, check=True)
            for line in proc.stdout.splitlines():
                if line.strip():
                    yield json.loads(line)


# --------------------------------------------------------------------------
# Allow-list and gate


@dataclass
class AllowEntry:
    path: str
    name: str
    reason: str
    line_number: int


def parse_allow_list(text: str) -> list[AllowEntry]:
    entries = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"allow-list line {number}: want '<file> <function> <reason>', "
                             f"got {raw!r}")
        path, name, reason = parts
        if reason not in REASONS:
            raise ValueError(f"allow-list line {number}: unknown reason {reason!r} "
                             f"(one of {', '.join(REASONS)})")
        entries.append(AllowEntry(path, name, reason, number))
    return entries


@dataclass
class GateResult:
    unreached: list  # every unreached Function of MIN_LINES or more
    unlisted: list  # unreached and not allowed: each fails the gate
    stale: list  # AllowEntry naming no unreached function: each fails the gate
    allowed: list  # (AllowEntry, [Function]) pairs

    @property
    def ok(self) -> bool:
        return not self.unlisted and not self.stale


def gate(cov: Coverage, allow: list[AllowEntry]) -> GateResult:
    unreached = sorted((fn for fn in cov.functions.values()
                        if fn.lines >= MIN_LINES and not cov.reached(fn)),
                       key=lambda fn: (fn.path, fn.start))
    by_entry = {(e.path, e.name): [] for e in allow}
    unlisted = []
    for fn in unreached:
        # An entry covers the lambdas of the function it names.
        owner = fn.name.removesuffix("::{lambda}")
        matches = by_entry.get((fn.path, owner))
        if matches is None:
            unlisted.append(fn)
        else:
            matches.append(fn)
    stale = [e for e in allow if not by_entry[(e.path, e.name)]]
    allowed = [(e, by_entry[(e.path, e.name)]) for e in allow if by_entry[(e.path, e.name)]]
    return GateResult(unreached, unlisted, stale, allowed)


def report(cov: Coverage, result: GateResult) -> None:
    hit, total = cov.line_totals()
    reached = sum(1 for fn in cov.functions.values() if cov.reached(fn))
    print(f"product-path coverage: {hit}/{total} src/ lines "
          f"({100.0 * hit / max(total, 1):.1f}%), {reached}/{len(cov.functions)} functions "
          f"reached")
    allowed_lines = sum(fn.lines for _, fns in result.allowed for fn in fns)
    print(f"unreached functions of {MIN_LINES}+ lines: {len(result.unreached)} "
          f"({len(result.unreached) - len(result.unlisted)} allow-listed, "
          f"{allowed_lines} lines)")
    for entry, fns in result.allowed:
        for fn in fns:
            print(f"  allowed ({entry.reason}) {fn.path}:{fn.start}-{fn.end} {fn.name}")
    for fn in result.unlisted:
        print(f"UNREACHED {fn.path}:{fn.start}-{fn.end} {fn.name} ({fn.lines} lines): "
              f"reach it from a product path, delete it, or allow-list it with a reason")
    for entry in result.stale:
        print(f"STALE allow-list line {entry.line_number}: {entry.path} {entry.name} names no "
              f"unreached function of {MIN_LINES}+ lines (reached now, or gone): drop the line")


# --------------------------------------------------------------------------
# Product paths


def capped_spec(path: Path, workdir: Path) -> Path:
    """The spec itself, or a copy with a long sweep cut to CAPPED_ITERATIONS."""
    doc = json.loads(path.read_text())
    base = doc.get("base") if isinstance(doc.get("sweep"), dict) else None
    if base is None or base.get("iterations", 0) <= LONG_SWEEP_ITERATIONS:
        return path
    base["iterations"] = CAPPED_ITERATIONS
    for variant in doc["sweep"].get("variants", []):
        patch = variant.get("patch", {})
        if patch.get("iterations", 0) > CAPPED_ITERATIONS:
            patch["iterations"] = CAPPED_ITERATIONS
    copy = workdir / f"capped_{path.parent.name}_{path.name}"
    copy.write_text(json.dumps(doc))
    return copy


def product_commands(build: Path, root: Path, workdir: Path) -> list[list[str]]:
    run = str(build / "abft_run")
    commands = []
    specs = sorted(p for p in (root / "specs").glob("*.json") if ".golden." not in p.name)
    workloads = sorted((root / "bench" / "e2e" / "workloads").glob("*.json"))
    for spec in specs + workloads:
        stem = f"{spec.parent.name}_{spec.stem}"
        if isinstance(json.loads(spec.read_text()).get("sweep"), dict):
            commands.append([run, "--sweep", str(capped_spec(spec, workdir)),
                             f"--csv={workdir / stem}.csv", f"--out={workdir / stem}.json",
                             "--quiet"])
        else:
            commands.append([run, str(spec), f"--out={workdir / stem}.json"])
    specs_dir = root / "specs"
    commands += [
        [run, str(specs_dir / "smoke_dgd.json"), f"--csv={workdir / 'smoke_dgd_trace.csv'}"],
        [run, str(specs_dir / "smoke_p2p.json"), "--threads=2"],
        [run, str(specs_dir / "async_hier_smoke.json"), "--threads=2"],
        [run, str(root / "bench" / "e2e" / "workloads" / "dsgd.json"), "--threads=2"],
        [run, "--sweep", str(specs_dir / "sweep_smoke.json"), "--threads=2"],
        [run, "--compare", str(specs_dir / "smoke_dgd.json"), str(specs_dir / "smoke_dgd.json")],
        [run, "--list"],
    ]
    commands += [[str(build / f"example_{name}")] for name in EXAMPLES]
    return commands


def run_product_paths(build: Path, root: Path) -> None:
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()
    with tempfile.TemporaryDirectory(prefix="product_coverage_") as tmp:
        workdir = Path(tmp)
        for command in product_commands(build, root, workdir):
            print("+ " + " ".join(os.path.relpath(c, root) if os.path.isabs(c) else c
                                  for c in command), flush=True)
            subprocess.run(command, cwd=workdir, stdout=subprocess.DEVNULL, check=True)


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("build", type=Path, nargs="?",
                        help="a --coverage build of abft_run and the examples: run the "
                             "product paths on it, then gate")
    source.add_argument("--gcov-json", type=Path,
                        help="gate recorded gcov JSON documents instead (one per line, or a list)")
    parser.add_argument("--allow", type=Path,
                        default=REPO / "scripts" / "product_coverage_allow.txt")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="the repository root the gcov paths lie under")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    cov = Coverage()
    if args.gcov_json:
        documents = read_documents(args.gcov_json)
    else:
        run_product_paths(args.build.resolve(), root)
        documents = gcov_documents(args.build.resolve())
    for doc in documents:
        merge_document(cov, doc, root)
    if not cov.functions:
        print("product-coverage: no src/ functions in the counters (not a --coverage build?)",
              file=sys.stderr)
        return 2

    result = gate(cov, parse_allow_list(args.allow.read_text()))
    report(cov, result)
    return 0 if result.ok else 1

if __name__ == "__main__":
    sys.exit(main())
