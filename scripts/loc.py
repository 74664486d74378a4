#!/usr/bin/env python3
"""Per-crate Rust line counts for the workspace.

Prints, for every crate (each directory holding a Cargo.toml with a
[package] section), its Rust lines as physical lines and as code lines
(non-blank, non-comment), split into `src` and `tests`:

* `tests` is every file under `tests/` or `benches/`, every file a
  `[[test]]` or `[[bench]]` target names, and every inline
  `#[cfg(test)] mod ... { ... }` block inside a source file;
* `src` is everything else (library, binaries, examples).

Usage: python3 scripts/loc.py [REPO_ROOT]
"""

import os
import re
import sys

SKIP_DIRS = {"target", ".git", ".bench_build", ".perfbench"}


def crates(root):
    """Yields (name, crate_dir, test_paths) for every package under root."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        if "Cargo.toml" not in filenames:
            continue
        with open(os.path.join(dirpath, "Cargo.toml")) as f:
            manifest = f.read()
        name = re.search(r'^\[package\]\s*\nname\s*=\s*"([^"]+)"', manifest, re.M)
        if not name:
            continue
        test_paths = set()
        for section in re.split(r"^\[", manifest, flags=re.M):
            if section.startswith("[test]]") or section.startswith("[bench]]"):
                path = re.search(r'^path\s*=\s*"([^"]+)"', section, re.M)
                if path:
                    test_paths.add(os.path.normpath(path.group(1)))
        yield name.group(1), dirpath, test_paths


def rust_files(crate_dir):
    """Yields crate-relative paths of the crate's own .rs files (nested
    crates are skipped; they are counted on their own)."""
    for dirpath, dirnames, filenames in os.walk(crate_dir):
        if dirpath != crate_dir and "Cargo.toml" in filenames:
            dirnames[:] = []
            continue
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for fname in sorted(filenames):
            if fname.endswith(".rs"):
                yield os.path.relpath(os.path.join(dirpath, fname), crate_dir)


def classify(lines):
    """Splits a source file's lines into (src_lines, test_lines): an inline
    `#[cfg(test)]` module runs from its attribute to the closing brace at
    column 0 (rustfmt layout)."""
    src, tests = [], []
    in_test = False
    pending_attr = []
    for line in lines:
        if in_test:
            tests.append(line)
            if line.rstrip("\n") == "}":
                in_test = False
            continue
        if line.strip() == "#[cfg(test)]":
            pending_attr.append(line)
            continue
        if pending_attr:
            if re.match(r"(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{", line):
                tests.extend(pending_attr)
                tests.append(line)
                in_test = True
            else:
                src.extend(pending_attr)
                src.append(line)
            pending_attr = []
            continue
        src.append(line)
    src.extend(pending_attr)
    return src, tests


def count(lines):
    """(physical, code) counts; code lines are non-blank and not wholly
    comment (`//`, `///`, `//!`, or inside `/* ... */`)."""
    code = 0
    in_block = False
    for line in lines:
        s = line.strip()
        if in_block:
            if "*/" in s:
                in_block = False
                s = s.split("*/", 1)[1].strip()
            else:
                continue
        if s.startswith("/*"):
            if "*/" not in s:
                in_block = True
            continue
        if s and not s.startswith("//"):
            code += 1
    return len(lines), code


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    rows = []
    for name, crate_dir, test_paths in crates(root):
        totals = [0, 0, 0, 0]  # src phys, src code, tests phys, tests code
        for rel in rust_files(crate_dir):
            with open(os.path.join(crate_dir, rel)) as f:
                lines = f.readlines()
            top = rel.split(os.sep, 1)[0]
            if top in ("tests", "benches") or os.path.normpath(rel) in test_paths:
                src, tests = [], lines
            else:
                src, tests = classify(lines)
            sp, sc = count(src)
            tp, tc = count(tests)
            totals = [a + b for a, b in zip(totals, (sp, sc, tp, tc))]
        rows.append((name, os.path.relpath(crate_dir, root), *totals))
    header = ("crate", "path", "src_phys", "src_code", "tests_phys", "tests_code")
    total = ("total", "") + tuple(sum(r[i] for r in rows) for i in range(2, 6))
    table = [header] + sorted(rows) + [total]
    widths = [max(len(str(r[i])) for r in table) for i in range(len(header))]
    for row in table:
        cells = [str(c).ljust(w) if i < 2 else str(c).rjust(w)
                 for i, (c, w) in enumerate(zip(row, widths))]
        print("  ".join(cells).rstrip())


if __name__ == "__main__":
    main()
