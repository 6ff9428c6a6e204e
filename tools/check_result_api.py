#!/usr/bin/env python3
"""Lint: the result plane must stay zero-copy.

Name-returning query APIs in the catalog and federation layers return
``NameList`` (pinned snapshot views, one shared immutable list per
result) — never ``Result<std::vector<std::string>>`` or bare
``std::vector<std::string>``. A vector-of-strings return re-introduces
a per-call copy of every name and silently defeats the zero-copy
result plane (DESIGN.md §15).

This script scans the public headers of the result-plane layers for
function declarations that return an owned string vector and fails if
it finds any. Declarations can be suppressed — for genuinely
writer-side or diagnostic state that is not a name-result surface —
with a ``// result-api-ok`` comment on the same line.

A vector-of-strings *parameter* is fine — the constraint is on what
an API hands back. The scanner carries the parenthesis depth across the
lines of one declaration, so a parameter on a continuation line is not
taken for a return.

Usage: check_result_api.py [repo_root]
       check_result_api.py --selftest
"""

import pathlib
import re
import sys

# Layers whose headers form the result plane. Sources (.cc) are not
# scanned: locals and helpers may materialize owned strings (e.g.
# NameList::ToStrings at an explicit boundary); only the API surface
# is constrained.
SCAN_DIRS = ["src/catalog", "src/federation"]

# A declaration (or alias/field) whose type hands back an owned
# string vector: `Result<std::vector<std::string>>`,
# `std::vector<std::string>`, with or without whitespace variation.
VECTOR_RETURN = re.compile(
    r"(Result\s*<\s*)?std::vector\s*<\s*std::string\s*>"
)

SUPPRESS = "result-api-ok"


def check_text(text: str) -> list:
    """Returns (lineno, line) for every owned string-vector return."""
    violations = []
    in_block_comment = False
    depth = 0  # open parentheses carried over from earlier lines
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        code = line.split("//", 1)[0]
        m = None if SUPPRESS in line else VECTOR_RETURN.search(line)
        if m:
            # A match inside a parameter list — opened on this line or
            # on an earlier line of the same declaration — takes a
            # vector<string> rather than returning one.
            before = line[: m.start()]
            if depth + before.count("(") - before.count(")") <= 0:
                violations.append((lineno, line.rstrip()))
        depth = max(0, depth + code.count("(") - code.count(")"))
        # A statement or block boundary ends any declaration, so a
        # miscounted parenthesis cannot hide later lines.
        if code.rstrip().endswith((";", "{", "}")):
            depth = 0
    return violations


def check_file(path: pathlib.Path) -> list:
    return check_text(path.read_text())


# (source, must it be reported?)
SELFTEST_CASES = [
    ("Result<std::vector<std::string>> Names();", True),
    ("std::vector<std::string> Names() const;", True),
    ("void Set(const std::vector<std::string>& names);", False),
    ("void Evict(std::string_view name,\n"
     "           const std::vector<std::string>& outputs = {});", False),
    ("void Evict(std::string_view name,\n"
     "           int count);\n"
     "std::vector<std::string> Names() const;", True),
    ("void Log(const char* fmt = \"(\");\n"
     "std::vector<std::string> Names() const;", True),
    ("std::vector<std::string> Ids() const;  // result-api-ok: writer", False),
    ("// std::vector<std::string> Names() const;", False),
    ("/*\nstd::vector<std::string> Names() const;\n*/", False),
]


def selftest() -> int:
    failed = 0
    for source, expected in SELFTEST_CASES:
        reported = bool(check_text(source))
        if reported != expected:
            failed += 1
            verdict = "missed" if expected else "falsely reported"
            print(f"selftest: {verdict}:\n{source}\n")
    if failed:
        print(f"check_result_api selftest: {failed} case(s) failed")
        return 1
    print(f"check_result_api selftest: {len(SELFTEST_CASES)} cases pass")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    failed = False
    for rel in SCAN_DIRS:
        base = root / rel
        if not base.is_dir():
            print(f"check_result_api: missing directory {base}", file=sys.stderr)
            return 2
        for header in sorted(base.glob("*.h")):
            for lineno, line in check_file(header):
                failed = True
                print(
                    f"{header.relative_to(root)}:{lineno}: "
                    f"owned string-vector return on the result plane "
                    f"(use NameList; see DESIGN.md §15): {line.strip()}"
                )
    if failed:
        print(
            "\ncheck_result_api: name-result APIs in src/catalog and "
            "src/federation headers must return NameList. Suppress "
            "genuinely writer-side state with '// result-api-ok'."
        )
        return 1
    print("check_result_api: result plane is zero-copy clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
