#!/usr/bin/env python3
"""Fail when a MemifConfig field is set by no caller outside the presets.

Lists the fields of `struct MemifConfig` in src/memif/device.h and
searches src/, bench/, examples/, tests/ and memifbench/ for an
assignment `.<field> =` (or a designated initializer). The preset
functions in device.h do not count as callers:

- a numeric knob nobody sets has one value in use; it belongs in the
  code as a named constant beside its reader;
- a bool lever only the presets set is always on or off together with
  the preset's other levers, so nothing runs, tests or measures it
  apart from them; fold it into its siblings as one lever.

Usage (from the repository root, or pass the root as the argument):

    python3 scripts/check_config_knobs.py [repo_root]

Exit status: 0 when every field has a caller, 1 otherwise.
"""

import os
import re
import sys

HEADER = os.path.join("src", "memif", "device.h")
SEARCH_DIRS = ["src", "bench", "examples", "tests", "memifbench"]
SOURCE_EXTS = (".h", ".cc", ".cpp")

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


def source_files(root):
    for d in SEARCH_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    if os.path.relpath(path, root) != HEADER:
                        yield path


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
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
