#!/usr/bin/env python3
"""Crypto-hygiene linter for the ppds protocol stack.

Scans the security-critical modules (src/crypto, src/ompe, src/core and their
include/ counterparts, plus the test-side transport decorators in
tests/support, which hold frames in flight) for patterns that void the protocol's security
arguments even when the protocol itself is correct:

  insecure-rand    libc rand()/srand() — not a CSPRNG; all randomness must
                   come from ppds::Rng (experiments) or ppds::crypto::Prg
                   (anything secret).
  memcmp-on-secret std::memcmp in crypto code — early-exit comparison leaks
                   the matching-prefix length through timing; use
                   ppds::ct_equal (include/ppds/common/ct.hpp).
  secret-compare   operator==/!= applied to a secret-named buffer (key,
                   secret, seed, pad) — same timing leak as memcmp.
  secret-stream    std::cout/std::cerr/printf of a secret-named value — key
                   material must never reach logs or consoles.
  missing-wipe     a file that declares an owning secret-named buffer
                   (Bytes/Digest/uint8_t arrays named *key*, *secret*,
                   *seed*, *pad*) but never calls secure_wipe — dead-store
                   elimination leaves the bytes in freed memory. Applies to
                   every .cpp, and to any HEADER without a companion .cpp of
                   the same stem: a header whose class is implemented out of
                   line delegates wiping to its .cpp destructor (which this
                   rule checks there), but a header-ONLY class must wipe in
                   its inline destructor.
  abort-without-wipe
                   a .cpp file that defines an abort() method but neither
                   calls secure_wipe nor delegates to another abort() —
                   an abort path that forgets its key material leaves
                   secrets behind exactly when the protocol is in its least
                   trusted state (docs/PROTOCOL.md §7).

Suppressions (each must carry a justification in review; the budget is
zero-growth):

  // hygiene: allow(<rule-id>)       on the offending line or the line above
  // hygiene: allow-file(<rule-id>)  anywhere in the file, silences the rule
                                     for the whole file

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.

`--self-test` runs every rule against the seeded negative fixture under
tools/lint/fixtures/ and fails unless each rule fires (and suppressed lines
stay silent) — so CI notices if a refactor of this script silently disables
a rule.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = [
    "src/crypto",
    "src/ompe",
    "src/core",
    "src/net",
    "src/server",
    "include/ppds/crypto",
    "include/ppds/ompe",
    "include/ppds/core",
    "include/ppds/net",
    "include/ppds/server",
    "tests/support",
]

SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}

SECRET_NAME = r"\w*(?:key|secret|seed|pad)\w*"

ALLOW_LINE = re.compile(r"//\s*hygiene:\s*allow\(([a-z-]+)\)")
ALLOW_FILE = re.compile(r"//\s*hygiene:\s*allow-file\(([a-z-]+)\)")

# Line-level rules: (rule-id, compiled regex, message).
LINE_RULES = [
    (
        "insecure-rand",
        re.compile(r"(?<![\w:.])s?rand\s*\("),
        "libc rand()/srand() is not a CSPRNG; use ppds::Rng or ppds::crypto::Prg",
    ),
    (
        "memcmp-on-secret",
        re.compile(r"\bmemcmp\s*\("),
        "memcmp leaks the matching-prefix length through timing; use ppds::ct_equal",
    ),
    (
        "secret-compare",
        re.compile(
            r"(?:\b" + SECRET_NAME + r"\s*[=!]=)|(?:[=!]=\s*" + SECRET_NAME + r"\b)"
        ),
        "==/!= on a secret-named buffer is not constant-time; use ppds::ct_equal",
    ),
    (
        "secret-stream",
        re.compile(
            r"(?:std::c(?:out|err)\s*<<|(?<![\w:])f?printf\s*\().*\b" + SECRET_NAME + r"\b"
        ),
        "secret-named value written to a stream; key material must not be logged",
    ),
]

# File-level rule (every .cpp, plus headers WITHOUT a companion .cpp of the
# same stem — out-of-line classes wipe in their .cpp destructor, but a
# header-only class has nowhere else to do it).
SECRET_DECL = re.compile(
    r"\b(?:Bytes|Digest|std::array<\s*std::uint8_t|std::uint8_t)\b[^;=\n(){]*\b"
    + SECRET_NAME
    + r"\b(?!\s*\()"  # a trailing '(' means this is a function name, not a buffer
)
WIPE_CALL = re.compile(r"\bsecure_wipe")

# File-level rule: an abort() DEFINITION (Class::abort) must wipe something
# or delegate to a member's abort() that does.
ABORT_DEF = re.compile(r"\w+::abort\s*\(")
ABORT_DELEGATE = re.compile(r"(?:\.|->)\s*abort\s*\(")


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so their contents can't trip rules."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def find_violations(
    path: Path, text: str, cpp_stems: frozenset[str] = frozenset()
) -> list[tuple[Path, int, str, str]]:
    lines = text.splitlines()
    file_allowed = {m.group(1) for m in ALLOW_FILE.finditer(text)}
    out = []
    for i, raw in enumerate(lines):
        allowed = set(file_allowed)
        for src in (raw, lines[i - 1] if i > 0 else ""):
            m = ALLOW_LINE.search(src)
            if m:
                allowed.add(m.group(1))
        code = strip_strings(raw)
        # Don't let the comment text of a suppression (or any comment) fire rules.
        code = re.sub(r"//.*$", "", code) if "hygiene:" in code else code
        for rule, pattern, message in LINE_RULES:
            if rule in allowed:
                continue
            if pattern.search(code):
                out.append((path, i + 1, rule, message))

    is_tu = path.suffix in {".cpp", ".cc", ".cxx"}
    # A header with a companion TU delegates wiping to that TU's destructor
    # (scanned on its own); a header-only file owns the wipe duty itself.
    owns_wipe_duty = is_tu or path.stem not in cpp_stems
    if owns_wipe_duty and "missing-wipe" not in file_allowed:
        decl_line = None
        for i, raw in enumerate(lines):
            code = strip_strings(raw)
            if SECRET_DECL.search(code) and not ALLOW_LINE.search(raw):
                decl_line = i + 1
                break
        if decl_line is not None and not WIPE_CALL.search(text):
            out.append(
                (
                    path,
                    decl_line,
                    "missing-wipe",
                    "file declares secret-named buffers but never calls "
                    "ppds::secure_wipe on anything",
                )
            )

    if (
        path.suffix in {".cpp", ".cc", ".cxx"}
        and "abort-without-wipe" not in file_allowed
    ):
        abort_line = None
        for i, raw in enumerate(lines):
            if ABORT_DEF.search(strip_strings(raw)) and not ALLOW_LINE.search(raw):
                abort_line = i + 1
                break
        if (
            abort_line is not None
            and not WIPE_CALL.search(text)
            and not ABORT_DELEGATE.search(text)
        ):
            out.append(
                (
                    path,
                    abort_line,
                    "abort-without-wipe",
                    "abort() neither secure_wipes secret buffers nor "
                    "delegates to an abort() that does; aborted sessions "
                    "must leave no key material behind",
                )
            )
    return out


def scan_paths(
    paths: list[Path], cpp_stems: frozenset[str] = frozenset()
) -> list[tuple[Path, int, str, str]]:
    violations = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            print(f"secret_hygiene: cannot read {path}: {exc}", file=sys.stderr)
            sys.exit(2)
        violations.extend(find_violations(path, text, cpp_stems))
    return violations


def companion_stems(root: Path, extra: list[Path]) -> frozenset[str]:
    """Stems of every TU in the scan tree (plus any explicitly given), so a
    header can be matched with its out-of-line implementation even when only
    the header is being scanned."""
    stems = {p.stem for p in extra if p.suffix in {".cpp", ".cc", ".cxx"}}
    stems.update(
        p.stem for p in collect_files(root) if p.suffix in {".cpp", ".cc", ".cxx"}
    )
    return frozenset(stems)


def collect_files(root: Path) -> list[Path]:
    files = []
    for rel in SCAN_DIRS:
        base = root / rel
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


def self_test(root: Path) -> int:
    fixture_dir = root / "tools" / "lint" / "fixtures"
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"secret_hygiene: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    # Companion matching is tested against the FIXTURE set only (a fixture
    # header must not be excused by a same-stem file in the real tree).
    fixture_stems = frozenset(
        p.stem for p in fixtures if p.suffix in {".cpp", ".cc", ".cxx"}
    )
    violations = scan_paths(fixtures, fixture_stems)
    fired = {rule for (_, _, rule, _) in violations}
    expected = {rule for rule, _, _ in LINE_RULES} | {
        "missing-wipe",
        "abort-without-wipe",
    }
    missing = expected - fired
    ok = True
    if missing:
        print(f"secret_hygiene: self-test FAILED: rules never fired: {sorted(missing)}")
        ok = False
    # The fixture marks lines that must stay silent (suppression coverage).
    for path in fixtures:
        for i, line in enumerate(path.read_text().splitlines()):
            if "MUST-NOT-FLAG" in line:
                hits = [v for v in violations if v[0] == path and v[1] == i + 1]
                if hits:
                    print(
                        f"secret_hygiene: self-test FAILED: suppressed line "
                        f"{path.name}:{i + 1} was flagged: {hits}"
                    )
                    ok = False
    if ok:
        print(
            f"secret_hygiene: self-test ok "
            f"({len(violations)} seeded findings, all {len(expected)} rules fire)"
        )
    return 0 if ok else 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify every rule fires on the seeded negative fixture")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="explicit files to scan (default: the security-critical modules)")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    files = args.paths or collect_files(args.root)
    if not files:
        print("secret_hygiene: nothing to scan", file=sys.stderr)
        return 2
    paths = [Path(p) for p in files]
    violations = scan_paths(paths, companion_stems(args.root, paths))
    for path, lineno, rule, message in violations:
        try:
            shown = path.relative_to(args.root)
        except ValueError:
            shown = path
        print(f"{shown}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"secret_hygiene: {len(violations)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"secret_hygiene: clean ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
