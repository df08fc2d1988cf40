#!/usr/bin/env python3
"""Dead-module check: every library header must have a user besides tests.

A header `src/<dir>/<name>.hpp` is reachable when some C++ file outside
`tests/` includes it, not counting the module's own `src/<dir>/<name>.cpp`.
A header that only its own unit tests include is code the system never
runs: wire it into a bench, example or workload, or delete it.

Every `.cpp`/`.hpp` under the repository root is scanned except `tests/`,
hidden directories and CMake build trees (any directory holding a
`CMakeCache.txt`). There is no allow-list.

Usage:
  check_reachability.py [--root REPO_ROOT]

Exits 0 when every header is reachable, 1 (naming each dead header)
otherwise.
"""

import argparse
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SOURCE_EXTS = (".cpp", ".hpp")


def source_files(root):
    """Yields repo-relative paths of the C++ files outside tests/."""
    for dirpath, dirnames, filenames in os.walk(root):
        if "CMakeCache.txt" in filenames:
            dirnames[:] = []
            continue
        rel_dir = os.path.relpath(dirpath, root)
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".")
            and not (rel_dir == "." and d == "tests"))
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.normpath(os.path.join(rel_dir, name))


def dead_headers(root):
    """Returns the src-relative paths of headers no outside file includes."""
    src = os.path.join(root, "src")
    headers = set()
    for path in source_files(src):
        if path.endswith(".hpp"):
            headers.add(path.replace(os.sep, "/"))

    used = set()
    for path in source_files(root):
        rel = path.replace(os.sep, "/")
        with open(os.path.join(root, path), encoding="utf-8") as f:
            text = f.read()
        own_header = None
        if rel.startswith("src/") and rel.endswith(".cpp"):
            own_header = rel[len("src/"):-len(".cpp")] + ".hpp"
        for target in INCLUDE_RE.findall(text):
            if target in headers and target != own_header:
                used.add(target)
    return sorted(headers - used)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args(argv)

    dead = dead_headers(args.root)
    for header in dead:
        print(f"unreachable: src/{header} is included only by tests/ "
              f"or its own .cpp", file=sys.stderr)
    if dead:
        return 1
    print("reachability: every src/ header has a non-test user")
    return 0


if __name__ == "__main__":
    sys.exit(main())
