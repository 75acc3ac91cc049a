#!/usr/bin/env python3
"""Fail on a MemifConfig field no caller sets, or an env var read under src/.

Lists the fields of `struct MemifConfig` in src/memif/device.h and
searches src/, bench/, examples/, tests/ and memifbench/ for an
assignment `.<field> =` (or a designated initializer). The preset
functions in device.h do not count as callers:

- a numeric knob nobody sets has one value in use; it belongs in the
  code as a named constant beside its reader;
- a bool lever only the presets set is always on or off together with
  the preset's other levers, so nothing runs, tests or measures it
  apart from them; fold it into its siblings as one lever.

An environment variable read by the library is a settable option too,
one that no preset, test or bench can see. So any `getenv` call in a
source file under src/ fails the check as well: a lever belongs in
MemifConfig, and debug output belongs in the stats or the tracer.
Benches, tests and examples (outside src/) may still read env vars,
e.g. MEMIF_BENCH_QUICK and MEMIF_CHECK_SEEDS.

Usage (from the repository root, or pass the root as the argument):

    python3 scripts/check_config_knobs.py [repo_root]

Exit status: 0 when every field has a caller and src/ reads no env
var, 1 otherwise.
"""

import os
import re
import sys

HEADER = os.path.join("src", "memif", "device.h")
SEARCH_DIRS = ["src", "bench", "examples", "tests", "memifbench"]
SOURCE_EXTS = (".h", ".cc", ".cpp")
LIBRARY_DIR = "src"
GETENV_RE = re.compile(r"\bgetenv\s*\(")

# `    std::uint32_t name = 4;` / `    RacePolicy name = ...;` / `bool x;`
FIELD_RE = re.compile(
    r"^\s+([A-Za-z_][\w:<>]*)\s+([a-z_][a-z0-9_]*)\s*(=[^;]*)?;")


def config_fields(header_text):
    """The (type, name) pairs MemifConfig declares before its preset
    functions."""
    start = header_text.index("struct MemifConfig {")
    end = header_text.index("static MemifConfig", start)
    fields = []
    for line in header_text[start:end].splitlines():
        m = FIELD_RE.match(line)
        if m:
            fields.append((m.group(1), m.group(2)))
    return fields


def source_files(root, dirs=SEARCH_DIRS):
    for d in dirs:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    if os.path.relpath(path, root) != HEADER:
                        yield path


def library_getenvs(root):
    """(path, line number) of every getenv call under src/."""
    hits = []
    for path in source_files(root, [LIBRARY_DIR]):
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                if GETENV_RE.search(line):
                    hits.append((os.path.relpath(path, root), n))
    return sorted(hits)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    with open(os.path.join(root, HEADER), encoding="utf-8") as f:
        fields = config_fields(f.read())
    if not fields:
        print("check_config_knobs: no MemifConfig fields found")
        return 1

    text = ""
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            text += f.read() + "\n"

    unset = [(ftype, name) for ftype, name in fields
             if not re.search(r"\." + name + r"\s*=(?!=)", text)]

    print(f"check_config_knobs: {len(fields)} MemifConfig fields, "
          f"{len(fields) - len(unset)} set by a caller")
    for ftype, name in unset:
        fix = ("fold it into the preset levers it always moves with"
               if ftype == "bool" else
               "make it a named constant beside its reader")
        print(f"  FAIL: MemifConfig::{name} is set nowhere outside the "
              f"presets; {fix}")
    getenvs = library_getenvs(root)
    print(f"check_config_knobs: {len(getenvs)} getenv calls under "
          f"{LIBRARY_DIR}/")
    for path, n in getenvs:
        print(f"  FAIL: {path}:{n} reads an environment variable; make it "
              f"a MemifConfig field or drop it")
    return 1 if unset or getenvs else 0


if __name__ == "__main__":
    sys.exit(main())
