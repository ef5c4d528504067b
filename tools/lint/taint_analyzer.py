#!/usr/bin/env python3
"""Semantic secret-taint analyzer for the ppds crypto stack.

Where secret_hygiene.py is lexical (it flags *names* like ``*key*``), this
tool follows secret *values*. Roots are declared in source with the
primitives from include/ppds/common/secret_taint.hpp:

  * ``PPDS_SECRET`` on a declaration (member, local, parameter) — one
    declarator per annotation;
  * ``Secret<T>`` wrapper declarations;

and taint propagates through assignments, arithmetic, one level of call
summaries (functions whose return value is tainted), write-through helpers
(store_le64 & friends), and span aliases (append_raw / subspan views).

Five defect classes are reported, each as a root -> sink flow with
file:line steps:

  secret-branch      if/switch/ternary condition depends on a secret value
  secret-loop-bound  for/while trip count depends on a secret value
  secret-index       memory access indexed by a secret value
  secret-divmod      secret operand to variable-latency / or %
  secret-sink        secret value reaches an I/O or format sink

Declassification semantics: ``PPDS_DECLASSIFY(expr, why)`` blesses VALUE
flows only — it silences secret-sink and stops propagation through
assignments. It does NOT silence the timing rules: branching directly on
``PPDS_DECLASSIFY(v < 0, ...)`` still fires secret-branch. The sanctioned
reveal pattern is two-step::

    bool negative = PPDS_DECLASSIFY(v < 0.0, "masked sign reveal");
    return negative ? -1 : +1;   // branches on a *public* bool

Sanitizers (hash-shaped functions whose output is safe to treat as public
unless explicitly re-rooted) mask both value and timing taint at the call
site: sha256, sha256_tagged, hash_to_key, finish, protocol_digest,
similarity_digest.

Frontends:

  builtin   self-contained tokenizer + flow analysis (no dependencies);
            the CI gate and --self-test run this frontend.
  libclang  AST-accurate pass driven by compile_commands.json; used
            automatically when the python clang bindings + libclang are
            installed, best-effort otherwise.

Suppressions (zero-growth budget, justification required in review):

  // taint: allow(<rule-id>)       on the offending line or the line above
  // taint: allow-file(<rule-id>)  silences the rule for the whole file

Pre-existing findings being burned down live in
tools/lint/taint_baseline.txt as ``path|function|rule|max -- justification``
lines; a baseline entry that no longer matches anything is an error (stale
entries must be deleted, never accumulated).

Exit status: 0 clean, 1 findings / stale baseline, 2 usage or self-test
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    # Exact field backend: M61 arithmetic (field/m61.hpp) and the fixed-point
    # encoding carry secret residues — scan them so a secret-dependent branch
    # in a field op cannot slip in unseen.
    "include/ppds/field",
    "include/ppds/math",
]

SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}

RULES = {
    "secret-branch": "branch/ternary/switch condition depends on a secret value",
    "secret-loop-bound": "loop trip count depends on a secret value",
    "secret-index": "memory access indexed by a secret value",
    "secret-divmod": "secret operand to variable-latency / or %",
    "secret-sink": "secret value reaches an I/O or format sink without PPDS_DECLASSIFY",
}

# Hash-shaped calls whose result is public unless explicitly re-rooted.
# pow_g is the fixed-base g^x map: its output is the protocol's public key
# and recovering x is discrete log. Variable-base pow() (shared secrets)
# deliberately stays tainted.
SANITIZERS = {
    "sha256",
    "sha256_tagged",
    "hash_to_key",
    "finish",
    "protocol_digest",
    "similarity_digest",
    "pow_g",
}

# Methods whose result reveals only public metadata of a secret container.
# Deliberately NOT begin/end/data: pointers into secret storage stay tainted.
PROJECTIONS = {"size", "empty", "length", "capacity", "remaining", "ssize",
               # Public-by-contract shape accessors: a polynomial's arity and
               # total degree are protocol parameters (ompe.hpp), not secrets.
               "arity", "total_degree"}

# Calls that write their later arguments through their first argument.
WRITE_THROUGH = {"store_le64", "store_le_f64", "memcpy"}

# Methods returning a view into the receiver: tainting the view taints it.
ALIAS_METHODS = {"append_raw", "subspan"}

# Const math/codec methods: passing a secret ARGUMENT does not taint the
# receiver object (a DhGroup fed a secret exponent stays public parameters).
# The call's RESULT still carries taint through normal expression rules.
PURE_METHODS = {
    "pow", "pow_with", "mul", "invert", "serialize", "deserialize",
    "q", "element_bytes", "make_table",
}

# Call names that move bytes off-host or into logs/format machinery.
SINKS = {"send", "printf", "fprintf", "snprintf", "vprintf", "fwrite", "fputs", "puts"}

CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "switch", "catch", "return", "do",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
    "throw", "case", "default", "operator", "requires",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="}

ALLOW_LINE = re.compile(r"//.*?taint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE = re.compile(r"//.*?taint:\s*allow-file\(([a-z-]+)\)")

MAX_CHAIN_STEPS = 8
MAX_FIXPOINT_ITERS = 24
MAX_SUMMARY_ROUNDS = 6


@dataclasses.dataclass
class Finding:
    path: Path
    line: int
    rule: str
    function: str
    message: str
    chain: list[str] = dataclasses.field(default_factory=list)

    def key(self, root: Path) -> tuple[str, str, str]:
        try:
            rel = str(self.path.relative_to(root))
        except ValueError:
            rel = str(self.path)
        return (rel, self.function, self.rule)


@dataclasses.dataclass
class Tok:
    text: str
    line: int

    @property
    def is_ident(self) -> bool:
        c = self.text[0]
        return c.isalpha() or c == "_"


_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|0[xXbB][0-9a-fA-F']+[uUlL]*"
    r"|\d[\w'.]*(?:[eEpP][+-]?\d+)?[\w]*"
    r"|<<=|>>=|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|"
    r"|[-+*/%^&|]=|=|[-+*/%^&|~!<>?:.,;(){}\[\]#]"
)


def strip_comments_strings(text: str) -> str:
    """Blank comments, string/char literals and preprocessor lines while
    preserving every newline (so token lines stay accurate)."""

    def blank(match: re.Match) -> str:
        s = match.group(0)
        if s.startswith("//"):
            return " " * len(s)
        if s.startswith("/*"):
            return "".join(c if c == "\n" else " " for c in s)
        return '""' if s[0] == '"' else "' '"

    text = re.sub(
        r"//[^\n]*|/\*.*?\*/|\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'",
        blank,
        text,
        flags=re.S,
    )
    # Preprocessor lines (and their backslash continuations).
    out_lines = []
    in_pp = False
    for line in text.split("\n"):
        stripped = line.lstrip()
        if in_pp or stripped.startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            # Keep PPDS_* macro definitions invisible; blank the line.
            out_lines.append("")
        else:
            in_pp = False
            out_lines.append(line)
    return "\n".join(out_lines)


def lex(text: str) -> list[Tok]:
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Tok(m.group(0), line))
    return toks


def collect_suppressions(raw: str) -> tuple[dict[int, set[str]], set[str]]:
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for i, line in enumerate(raw.splitlines(), start=1):
        for m in ALLOW_LINE.finditer(line):
            per_line.setdefault(i, set()).add(m.group(1))
        for m in ALLOW_FILE.finditer(line):
            per_file.add(m.group(1))
    return per_line, per_file


# One declarator per PPDS_SECRET annotation (enforced by convention; the
# scanner takes the last identifier before the initializer/terminator).
_ANNOT_DECL = re.compile(r"\bPPDS_SECRET\b([^;{(),]*)")


def _declared_name(decl_text: str) -> str | None:
    head = re.sub(r"\[.*", "", decl_text.split("=")[0])
    ids = re.findall(r"[A-Za-z_]\w*", head)
    ids = [i for i in ids if i not in ("const", "constexpr", "static", "mutable")]
    return ids[-1] if ids else None


def match_group(toks: list[Tok], i: int) -> int:
    """Index of the token closing the group opened at toks[i]."""
    openers = {"(": ")", "[": "]", "{": "}"}
    close = openers[toks[i].text]
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == toks[i].text:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def split_top(toks: list[Tok], sep: str) -> list[list[Tok]]:
    parts: list[list[Tok]] = [[]]
    depth = 0
    for t in toks:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == sep and depth == 0:
            parts.append([])
        else:
            parts[-1].append(t)
    return parts


@dataclasses.dataclass
class Func:
    name: str
    display: str
    params: list[Tok]
    body: list[Tok]
    path: Path


def extract_functions(toks: list[Tok], path: Path) -> list[Func]:
    funcs = []
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text != "(":
            i += 1
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is None or not prev.is_ident or prev.text in CONTROL_KEYWORDS:
            i += 1
            continue
        close = match_group(toks, i)
        # Skip trailing qualifiers / ctor init lists up to '{' or give up.
        j = close + 1
        depth_guard = 0
        while j < n:
            t = toks[j].text
            if t == "{" and depth_guard == 0:
                break
            if t in (";", "}", "=") and depth_guard == 0:
                j = -1
                break
            if t in "([":
                j = match_group(toks, j)
            elif t == "<":
                depth_guard += 1
            elif t == ">":
                depth_guard = max(0, depth_guard - 1)
            j += 1
        if j == -1 or j >= n:
            i = close + 1
            continue
        body_end = match_group(toks, j)
        name = prev.text
        display = name
        k = i - 2
        while k > 0 and toks[k].text == "::" and toks[k - 1].is_ident:
            display = toks[k - 1].text + "::" + display
            k -= 2
        funcs.append(
            Func(
                name=name,
                display=display,
                params=toks[i + 1 : close],
                body=toks[j + 1 : body_end],
                path=path,
            )
        )
        i = body_end + 1
    return funcs


@dataclasses.dataclass
class Stmt:
    kind: str  # stmt | if | switch | while | for | range_for | return
    toks: list[Tok]
    line: int
    # for `for`: cond part; for range_for: (var, container)
    extra: tuple = ()


def split_statements(body: list[Tok]) -> list[Stmt]:
    stmts: list[Stmt] = []
    i = 0
    n = len(body)
    cur: list[Tok] = []

    def flush():
        nonlocal cur
        if cur:
            kind = "return" if cur[0].text == "return" else "stmt"
            stmts.append(Stmt(kind, cur, cur[0].line))
            cur = []

    while i < n:
        t = body[i]
        if t.text in ("if", "while", "switch", "for") and i + 1 < n and body[i + 1].text == "(":
            flush()
            close = match_group(body, i + 1)
            group = body[i + 2 : close]
            if t.text == "for":
                semis = split_top(group, ";")
                if len(semis) >= 3:
                    stmts.append(Stmt("for", semis[1], t.line))
                    # init and increment still propagate/check as statements
                    stmts.append(Stmt("stmt", semis[0], t.line))
                    stmts.append(Stmt("stmt", semis[2], t.line))
                else:
                    colon = split_top(group, ":")
                    if len(colon) == 2:
                        var = None
                        for tk in reversed(colon[0]):
                            if tk.is_ident and tk.text not in CONTROL_KEYWORDS:
                                var = tk.text
                                break
                        stmts.append(
                            Stmt("range_for", group, t.line, (var, colon[1]))
                        )
                    else:
                        stmts.append(Stmt("for", group, t.line))
            else:
                kind = {"if": "if", "switch": "switch", "while": "while"}[t.text]
                stmts.append(Stmt(kind, group, t.line))
            i = close + 1
            continue
        if t.text == ";":
            flush()
            i += 1
            continue
        if t.text == "{":
            close = match_group(body, i)
            inner = body[i + 1 : close]
            if any(tk.text == ";" for tk in inner):
                # Real block (incl. lambda bodies): recurse into it.
                flush()
                stmts.extend(split_statements(inner))
                i = close + 1
                continue
            # Braced initializer: absorb into the current statement.
            cur.extend(body[i : close + 1])
            i = close + 1
            continue
        if t.text == "}":
            flush()
            i += 1
            continue
        cur.append(t)
        i += 1
    flush()
    return stmts


# ---------------------------------------------------------------------------
# Builtin frontend: taint propagation + rule checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Env:
    """Per-function taint state plus the cross-file context."""

    tainted: dict[str, tuple[int, str, str | None]]  # name -> (line, desc, parent)
    aliases: dict[str, str]
    bare_roots: set[str]
    field_roots: set[str]
    taint_returning: set[str]


def _masked_spans(toks: list[Tok], value_mode: bool) -> list[tuple[int, int]]:
    spans = []
    n = len(toks)
    for i, t in enumerate(toks):
        if not t.is_ident or i + 1 >= n or toks[i + 1].text != "(":
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if t.text == "PPDS_DECLASSIFY" and value_mode:
            spans.append((i, match_group(toks, i + 1)))
        elif t.text in SANITIZERS:
            spans.append((i, match_group(toks, i + 1)))
        elif t.text in PROJECTIONS and prev in (".", "->"):
            # Mask the receiver chain too: block_.size() is fully public.
            j = i - 2
            while j - 1 >= 0 and toks[j].is_ident and toks[j - 1].text in (".", "->"):
                j -= 2
            spans.append((max(j, 0), match_group(toks, i + 1)))
    return spans


def expr_taint(
    toks: list[Tok], env: Env, value_mode: bool
) -> tuple[str, int] | None:
    """First tainted atom in the expression, or None. value_mode=True lets
    PPDS_DECLASSIFY mask taint (value flows); timing rules pass False."""
    if not toks:
        return None
    spans = _masked_spans(toks, value_mode)

    def masked(idx: int) -> bool:
        return any(a <= idx <= b for a, b in spans)

    n = len(toks)
    for i, t in enumerate(toks):
        if not t.is_ident or masked(i):
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        prev = toks[i - 1].text if i > 0 else ""
        if prev in (".", "->"):
            if nxt == "(":
                if t.text in env.taint_returning:
                    return (t.text + "()", t.line)
                continue
            if t.text in env.field_roots or t.text in env.bare_roots:
                return ("." + t.text, t.line)
            continue
        if nxt == "(":
            if t.text in env.taint_returning:
                return (t.text + "()", t.line)
            continue
        if t.text in env.tainted or t.text in env.bare_roots:
            return (t.text, t.line)
    return None


def _lhs_base(toks: list[Tok]) -> str | None:
    """Base variable written by the lvalue ending this token slice: strips a
    trailing []-group and walks member chains back to the root object."""
    i = len(toks) - 1
    while i >= 0 and toks[i].text == "]":
        depth = 0
        while i >= 0:
            if toks[i].text == "]":
                depth += 1
            elif toks[i].text == "[":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        i -= 1
    while i >= 0 and toks[i].text == ")":
        # e.g. (*ptr) or w.take() on the left — give up on the group.
        return None
    if i < 0 or not toks[i].is_ident:
        return None
    name = toks[i].text
    while i - 1 >= 0 and toks[i - 1].text in (".", "->"):
        i -= 2
        if i >= 0 and toks[i].is_ident:
            name = toks[i].text
        else:
            return name
    return name


def _taint(env: Env, name: str, line: int, desc: str, parent: str | None) -> bool:
    changed = False
    if name not in env.tainted:
        env.tainted[name] = (line, desc, parent)
        changed = True
    # A tainted view taints what it aliases (write-through the span).
    seen = {name}
    cur = name
    while cur in env.aliases and env.aliases[cur] not in seen:
        base = env.aliases[cur]
        seen.add(base)
        if base not in env.tainted:
            env.tainted[base] = (line, f"{base} <- view {cur}", cur)
            changed = True
        cur = base
    return changed


def _collect_decl_roots(stmt: Stmt, env: Env) -> bool:
    toks = stmt.toks
    texts = [t.text for t in toks]
    is_annot = "PPDS_SECRET" in texts
    is_secret_t = any(
        t.text == "Secret" and i + 1 < len(toks) and toks[i + 1].text == "<"
        for i, t in enumerate(toks)
    )
    if not (is_annot or is_secret_t):
        return False
    kind = "PPDS_SECRET root" if is_annot else "Secret<T> root"
    # Declared name: lvalue before '=', or identifier before ctor '('/'{',
    # else the last identifier of the statement.
    for k, t in enumerate(toks):
        if t.text == "=":
            name = _lhs_base(toks[:k])
            if name:
                return _taint(env, name, stmt.line, f"{kind} '{name}'", None)
            break
    for k, t in enumerate(toks):
        if t.text in ("(", "{") and k > 0 and toks[k - 1].is_ident:
            cand = toks[k - 1].text
            if cand not in ("Secret", "PPDS_SECRET") and (
                k < 2 or toks[k - 2].text not in (".", "->", "::")
            ):
                return _taint(env, cand, stmt.line, f"{kind} '{cand}'", None)
    name = _lhs_base(toks)
    if name and name not in ("PPDS_SECRET", "Secret"):
        return _taint(env, name, stmt.line, f"{kind} '{name}'", None)
    return False


def _param_roots(func: Func, env: Env) -> None:
    for chunk in split_top(func.params, ","):
        texts = [t.text for t in chunk]
        if "PPDS_SECRET" not in texts and not (
            "Secret" in texts and "<" in texts
        ):
            continue
        eq = next((k for k, t in enumerate(chunk) if t.text == "="), len(chunk))
        ids = [t for t in chunk[:eq] if t.is_ident]
        ids = [
            t for t in ids
            if t.text not in ("PPDS_SECRET", "Secret", "const", "std")
            and t.text not in CONTROL_KEYWORDS
        ]
        if ids:
            name = ids[-1].text
            _taint(env, name, ids[-1].line, f"PPDS_SECRET param '{name}'", None)


def _propagate_stmt(stmt: Stmt, env: Env) -> bool:
    toks = stmt.toks
    changed = False
    if stmt.kind == "range_for":
        var, container = stmt.extra
        atom = expr_taint(container, env, value_mode=True)
        if var and atom:
            changed |= _taint(
                env, var, stmt.line, f"{var} <- elements of {atom[0]}", atom[0]
            )
        return changed
    if stmt.kind in ("if", "switch", "while", "for"):
        return False
    if _collect_decl_roots(stmt, env):
        changed = True
    # Top-level assignment (first assign op at depth 0).
    depth = 0
    assign_at = -1
    for k, t in enumerate(toks):
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif depth == 0 and t.text in ASSIGN_OPS and t.text != "==":
            assign_at = k
            break
    if assign_at >= 0:
        lhs, rhs = toks[:assign_at], toks[assign_at + 1 :]
        atom = expr_taint(rhs, env, value_mode=True)
        base = _lhs_base(lhs)
        if atom and base and "PPDS_SECRET" not in (t.text for t in lhs):
            changed |= _taint(
                env, base, stmt.line, f"{base} <- {atom[0]}", atom[0]
            )
        # View alias: lhs = base.append_raw(...) / base.subspan(...)
        for k, t in enumerate(rhs):
            if (
                t.is_ident
                and t.text in ALIAS_METHODS
                and k > 0
                and rhs[k - 1].text in (".", "->")
                and k >= 2
                and rhs[k - 2].is_ident
                and base
            ):
                env.aliases[base] = rhs[k - 2].text
    # Ctor-style declaration: Type name(args) / Type name{args}.
    if assign_at < 0:
        for k, t in enumerate(toks):
            if (
                t.text in ("(", "{")
                and k >= 2
                and toks[k - 1].is_ident
                and toks[k - 2].is_ident
                and toks[k - 1].text not in CONTROL_KEYWORDS
                and toks[k - 2].text not in CONTROL_KEYWORDS
            ):
                close = match_group(toks, k)
                atom = expr_taint(toks[k + 1 : close], env, value_mode=True)
                if atom:
                    changed |= _taint(
                        env,
                        toks[k - 1].text,
                        stmt.line,
                        f"{toks[k - 1].text} <- {atom[0]}",
                        atom[0],
                    )
                break
    # Write-through helpers: store_le64(buf, x) taints buf.
    for k, t in enumerate(toks):
        if t.is_ident and t.text in WRITE_THROUGH and k + 1 < len(toks) and toks[k + 1].text == "(":
            close = match_group(toks, k + 1)
            args = split_top(toks[k + 2 : close], ",")
            if len(args) >= 2:
                atom = None
                for arg in args[1:]:
                    atom = expr_taint(arg, env, value_mode=True)
                    if atom:
                        break
                if atom:
                    base = next((a.text for a in args[0] if a.is_ident and a.text != "std"), None)
                    if base:
                        changed |= _taint(
                            env, base, stmt.line,
                            f"{base} <- {t.text}(.., {atom[0]})", atom[0],
                        )
    # Receiver tainting: w.write(secret) taints w (unless sanitizer/projection).
    for k, t in enumerate(toks):
        if (
            t.is_ident
            and k + 1 < len(toks)
            and toks[k + 1].text == "("
            and k > 0
            and toks[k - 1].text in (".", "->")
            and k >= 2
            and toks[k - 2].is_ident
            and t.text not in SANITIZERS
            and t.text not in PROJECTIONS
            and t.text not in SINKS
            and t.text not in PURE_METHODS
        ):
            close = match_group(toks, k + 1)
            atom = expr_taint(toks[k + 2 : close], env, value_mode=True)
            if atom:
                recv = toks[k - 2].text
                changed |= _taint(
                    env, recv, stmt.line,
                    f"{recv} <- .{t.text}({atom[0]})", atom[0],
                )
    return changed


def _chain(env: Env, atom: str, line: int) -> list[str]:
    steps = [f"{atom} at line {line}"]
    cur = atom.strip(".").rstrip("()")
    seen = set()
    while cur in env.tainted and cur not in seen and len(steps) < MAX_CHAIN_STEPS:
        seen.add(cur)
        ln, desc, parent = env.tainted[cur]
        steps.append(f"{desc} (line {ln})")
        if parent is None:
            break
        cur = parent.strip(".").rstrip("()")
    return steps


def _check_rules(func: Func, stmts: list[Stmt], env: Env) -> list[Finding]:
    out: list[Finding] = []

    def add(rule: str, line: int, detail: str, atom: tuple[str, int]):
        out.append(
            Finding(
                path=func.path,
                line=line,
                rule=rule,
                function=func.display,
                message=f"{RULES[rule]} ({detail})",
                chain=_chain(env, atom[0], atom[1]),
            )
        )

    for stmt in stmts:
        toks = stmt.toks
        if stmt.kind in ("if", "switch"):
            atom = expr_taint(toks, env, value_mode=False)
            if atom:
                add("secret-branch", stmt.line, f"condition uses '{atom[0]}'", atom)
            continue
        if stmt.kind in ("while", "for"):
            atom = expr_taint(toks, env, value_mode=False)
            if atom:
                add("secret-loop-bound", stmt.line, f"bound uses '{atom[0]}'", atom)
            continue
        if stmt.kind == "range_for":
            continue
        # Ternary: cond ? a : b — flag a tainted condition.
        for k, t in enumerate(toks):
            if t.text != "?":
                continue
            j = k - 1
            depth = 0
            start = 0
            while j >= 0:
                tx = toks[j].text
                if tx in ")]}":
                    depth += 1
                elif tx in "([{":
                    if depth == 0:
                        start = j + 1
                        break
                    depth -= 1
                elif depth == 0 and tx in (",", "=", ";", "&&", "||", "return"):
                    start = j + 1
                    break
                j -= 1
            atom = expr_taint(toks[start:k], env, value_mode=False)
            if atom:
                add("secret-branch", stmt.line, f"ternary condition uses '{atom[0]}'", atom)
        # Indexing: arr[expr] with tainted expr.
        for k, t in enumerate(toks):
            if t.text != "[":
                continue
            prev = toks[k - 1].text if k > 0 else ""
            if prev not in (")", "]") and not (k > 0 and toks[k - 1].is_ident):
                continue  # lambda capture / attribute, not a subscript
            close = match_group(toks, k)
            atom = expr_taint(toks[k + 1 : close], env, value_mode=False)
            if atom:
                arr = toks[k - 1].text if toks[k - 1].is_ident else "<expr>"
                add("secret-index", toks[k].line, f"{arr}[..{atom[0]}..]", atom)
        # Division / modulo with a tainted operand.
        for k, t in enumerate(toks):
            if t.text not in ("/", "%", "/=", "%="):
                continue
            left_start = k - 1
            if left_start >= 0 and toks[left_start].text in (")", "]"):
                depth = 0
                j = left_start
                while j >= 0:
                    if toks[j].text in (")", "]"):
                        depth += 1
                    elif toks[j].text in ("(", "["):
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                left_start = j
            while left_start - 1 >= 0 and toks[left_start - 1].text in (".", "->", "::"):
                left_start -= 2
            left = toks[max(left_start, 0) : k]
            right_end = k + 2
            if k + 1 < len(toks) and toks[k + 1].text in ("(",):
                right_end = match_group(toks, k + 1) + 1
            else:
                while right_end < len(toks) and toks[right_end].text in (".", "->", "::") :
                    right_end += 2
            right = toks[k + 1 : min(right_end, len(toks))]
            # Evaluate the operands separately: concatenating the slices can
            # put an identifier next to '(' and disguise it as a call.
            atom = expr_taint(left, env, value_mode=False) or expr_taint(
                right, env, value_mode=False
            )
            if atom:
                add("secret-divmod", t.line, f"operand '{atom[0]}'", atom)
        # Sinks: send()/printf-family with tainted args; cout/cerr streams.
        for k, t in enumerate(toks):
            if t.is_ident and t.text in SINKS and k + 1 < len(toks) and toks[k + 1].text == "(":
                close = match_group(toks, k + 1)
                atom = expr_taint(toks[k + 2 : close], env, value_mode=True)
                if atom:
                    add("secret-sink", t.line, f"{t.text}(..{atom[0]}..)", atom)
            if t.is_ident and t.text in ("cout", "cerr", "clog"):
                atom = expr_taint(toks[k + 1 :], env, value_mode=True)
                if atom:
                    add("secret-sink", t.line, f"std::{t.text} << {atom[0]}", atom)
                break
    return out


def analyze_function(
    func: Func,
    bare_roots: set[str],
    field_roots: set[str],
    taint_returning: set[str],
) -> tuple[list[Finding], bool]:
    """Returns (findings, returns_tainted_value)."""
    env = Env(
        tainted={},
        aliases={},
        bare_roots=bare_roots,
        field_roots=field_roots,
        taint_returning=taint_returning,
    )
    _param_roots(func, env)
    stmts = split_statements(func.body)
    for _ in range(MAX_FIXPOINT_ITERS):
        changed = False
        for stmt in stmts:
            changed |= _propagate_stmt(stmt, env)
        if not changed:
            break
    findings = _check_rules(func, stmts, env)
    returns_tainted = any(
        stmt.kind == "return"
        and expr_taint(stmt.toks[1:], env, value_mode=True) is not None
        for stmt in stmts
    )
    return findings, returns_tainted


def scan_global_roots(
    files: dict[Path, str]
) -> dict[str, tuple[set[str], set[str]]]:
    """Names annotated PPDS_SECRET, scoped by file STEM so `slots_` annotated
    in ot.hpp taints ot.cpp but not an unrelated `slots_` in ompe.cpp. Names
    ending in '_' (members) taint bare uses; others taint field accesses."""
    by_stem: dict[str, tuple[set[str], set[str]]] = {}
    for path, text in files.items():
        bare, field = by_stem.setdefault(path.stem, (set(), set()))
        for m in _ANNOT_DECL.finditer(text):
            name = _declared_name(m.group(1))
            if not name or name == "PPDS_SECRET":
                continue
            (bare if name.endswith("_") else field).add(name)
    return by_stem


def builtin_scan(paths: list[Path], root: Path) -> list[Finding]:
    files: dict[Path, str] = {}
    for path in paths:
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            print(f"taint_analyzer: cannot read {path}: {exc}", file=sys.stderr)
            sys.exit(2)
        files[path] = strip_comments_strings(raw)

    roots_by_stem = scan_global_roots(files)
    funcs: list[Func] = []
    for path, text in files.items():
        funcs.extend(extract_functions(lex(text), path))

    def roots_for(func: Func) -> tuple[set[str], set[str]]:
        return roots_by_stem.get(func.path.stem, (set(), set()))

    # One level of call summaries, to a fixpoint: a function whose return
    # value is tainted taints its call sites everywhere.
    taint_returning: set[str] = set()
    for _ in range(MAX_SUMMARY_ROUNDS):
        new = set(taint_returning)
        for func in funcs:
            bare, field = roots_for(func)
            _, rt = analyze_function(func, bare, field, taint_returning)
            if rt and func.name not in SANITIZERS:
                new.add(func.name)
        if new == taint_returning:
            break
        taint_returning = new

    findings: list[Finding] = []
    for func in funcs:
        bare, field = roots_for(func)
        f, _ = analyze_function(func, bare, field, taint_returning)
        findings.extend(f)

    # Apply suppressions from the raw (comment-bearing) sources.
    kept: list[Finding] = []
    raw_cache: dict[Path, tuple[dict[int, set[str]], set[str]]] = {}
    for finding in findings:
        if finding.path not in raw_cache:
            raw_cache[finding.path] = collect_suppressions(
                finding.path.read_text(encoding="utf-8", errors="replace")
            )
        per_line, per_file = raw_cache[finding.path]
        if finding.rule in per_file:
            continue
        allowed = per_line.get(finding.line, set()) | per_line.get(
            finding.line - 1, set()
        )
        if finding.rule in allowed:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (str(f.path), f.line, f.rule))
    # Deduplicate identical (path, line, rule) hits from repeated atoms.
    seen: set[tuple[str, int, str]] = set()
    out = []
    for f in kept:
        k = (str(f.path), f.line, f.rule)
        if k in seen:
            continue
        seen.add(k)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# libclang frontend (best-effort; used when the bindings are installed)
# ---------------------------------------------------------------------------


def load_libclang():
    """Returns the clang.cindex module with a working library, or None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    candidates = [None, "libclang.so", "libclang-14.so.1", "libclang.so.1"]
    for cand in candidates:
        try:
            if cand is not None:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:  # noqa: BLE001 -- probing for a usable library
            continue
    return None


def compile_args_for(path: Path, compdb: dict[str, list[str]]) -> list[str]:
    args = compdb.get(str(path))
    if args:
        return args
    return ["-std=c++20", "-Iinclude", "-xc++"]


def load_compile_commands(path: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    try:
        entries = json.loads(path.read_text())
    except (OSError, ValueError):
        return out
    for entry in entries:
        file = str(Path(entry.get("directory", ".")) / entry["file"])
        cmd = entry.get("arguments") or entry.get("command", "").split()
        # Drop the compiler, -c/-o pairs and the source file itself.
        args = []
        skip = False
        for a in cmd[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", "-o"):
                skip = a == "-o"
                continue
            if a.endswith((".cpp", ".cc", ".cxx")):
                continue
            args.append(a)
        out[str(Path(entry["file"]).resolve())] = args
        out[file] = args
    return out


def libclang_scan(
    paths: list[Path], root: Path, cindex, compdb: dict[str, list[str]]
) -> list[Finding]:
    """AST pass: same five rules, driven by [[clang::annotate("ppds::secret")]].
    Best-effort — per-file failures degrade to a warning, not a crash."""
    findings: list[Finding] = []
    index = cindex.Index.create()
    ck = cindex.CursorKind

    def is_secret_decl(cur) -> bool:
        if "Secret<" in (cur.type.spelling or ""):
            return True
        return any(
            c.kind == ck.ANNOTATE_ATTR and c.spelling == "ppds::secret"
            for c in cur.get_children()
        )

    def extent_has(cur, word: str) -> bool:
        try:
            return any(t.spelling == word for t in cur.get_tokens())
        except Exception:  # noqa: BLE001
            return False

    def refs(cur, tainted: set[str]) -> bool:
        if cur is None:
            return False
        if cur.kind == ck.DECL_REF_EXPR or cur.kind == ck.MEMBER_REF_EXPR:
            ref = cur.referenced
            if ref is not None and ref.get_usr() in tainted:
                return True
        return any(refs(c, tainted) for c in cur.get_children())

    def walk_function(fn, tainted: set[str], func_name: str, path: Path):
        def visit(cur):
            kind = cur.kind
            line = cur.location.line
            if kind in (ck.VAR_DECL, ck.PARM_DECL) and is_secret_decl(cur):
                tainted.add(cur.get_usr())
            if kind == ck.BINARY_OPERATOR or kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                kids = list(cur.get_children())
                if len(kids) == 2:
                    op = ""
                    try:
                        toks = [t.spelling for t in cur.get_tokens()]
                        for cand in ("/=", "%=", "/", "%", "="):
                            if cand in toks:
                                op = cand
                                break
                    except Exception:  # noqa: BLE001
                        op = ""
                    if op in ("/", "%", "/=", "%=") and (
                        refs(kids[0], tainted) or refs(kids[1], tainted)
                    ):
                        findings.append(
                            Finding(path, line, "secret-divmod", func_name,
                                    RULES["secret-divmod"]))
                    if op in ("=", "/=", "%=") and refs(kids[1], tainted):
                        lhs_ref = kids[0]
                        while lhs_ref is not None and lhs_ref.kind not in (
                            ck.DECL_REF_EXPR, ck.MEMBER_REF_EXPR
                        ):
                            kids2 = list(lhs_ref.get_children())
                            lhs_ref = kids2[0] if kids2 else None
                        if lhs_ref is not None and lhs_ref.referenced is not None:
                            if not extent_has(cur, "PPDS_DECLASSIFY"):
                                tainted.add(lhs_ref.referenced.get_usr())
            if kind in (ck.IF_STMT, ck.SWITCH_STMT, ck.CONDITIONAL_OPERATOR):
                kids = list(cur.get_children())
                if kids and refs(kids[0], tainted):
                    findings.append(
                        Finding(path, line, "secret-branch", func_name,
                                RULES["secret-branch"]))
            if kind in (ck.WHILE_STMT, ck.FOR_STMT, ck.DO_STMT):
                kids = list(cur.get_children())
                cond = kids[1] if kind == ck.FOR_STMT and len(kids) > 1 else (
                    kids[0] if kids else None)
                if cond is not None and refs(cond, tainted):
                    findings.append(
                        Finding(path, line, "secret-loop-bound", func_name,
                                RULES["secret-loop-bound"]))
            if kind == ck.ARRAY_SUBSCRIPT_EXPR:
                kids = list(cur.get_children())
                if len(kids) == 2 and refs(kids[1], tainted):
                    findings.append(
                        Finding(path, line, "secret-index", func_name,
                                RULES["secret-index"]))
            if kind == ck.CALL_EXPR and cur.spelling in SINKS:
                if refs(cur, tainted) and not extent_has(cur, "PPDS_DECLASSIFY"):
                    findings.append(
                        Finding(path, line, "secret-sink", func_name,
                                RULES["secret-sink"]))
            for c in cur.get_children():
                visit(c)

        visit(fn)

    for path in paths:
        if path.suffix not in (".cpp", ".cc", ".cxx"):
            continue  # headers are analyzed through their includers
        try:
            tu = index.parse(str(path), args=compile_args_for(path, compdb))
        except Exception as exc:  # noqa: BLE001 -- degrade per file
            print(f"taint_analyzer: libclang parse failed for {path}: {exc}",
                  file=sys.stderr)
            continue

        def collect(cur, tainted: set[str]):
            if cur.kind in (ck.FIELD_DECL, ck.VAR_DECL) and is_secret_decl(cur):
                tainted.add(cur.get_usr())
            for c in cur.get_children():
                collect(c, tainted)

        tainted: set[str] = set()
        collect(tu.cursor, tainted)
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR) and \
                    cur.is_definition() and cur.location.file and \
                    Path(str(cur.location.file)).resolve() == path.resolve():
                walk_function(cur, set(tainted), cur.spelling, path)

    # Suppressions work identically for both frontends.
    kept = []
    raw_cache: dict[Path, tuple[dict[int, set[str]], set[str]]] = {}
    for finding in findings:
        if finding.path not in raw_cache:
            raw_cache[finding.path] = collect_suppressions(
                finding.path.read_text(encoding="utf-8", errors="replace"))
        per_line, per_file = raw_cache[finding.path]
        if finding.rule in per_file:
            continue
        if finding.rule in per_line.get(finding.line, set()) | per_line.get(
                finding.line - 1, set()):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return kept


# ---------------------------------------------------------------------------
# Baseline, reporting, self-test, CLI
# ---------------------------------------------------------------------------

_BASELINE_LINE = re.compile(
    r"^(?P<path>[^|]+)\|(?P<func>[^|]+)\|(?P<rule>[a-z-]+)\|(?P<max>\d+)"
    r"\s+--\s+(?P<why>.+)$"
)


def load_baseline(path: Path) -> dict[tuple[str, str, str], int]:
    out: dict[tuple[str, str, str], int] = {}
    if not path.is_file():
        return out
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _BASELINE_LINE.match(line)
        if not m:
            print(f"taint_analyzer: malformed baseline line {path}:{lineno}: "
                  f"{line!r}", file=sys.stderr)
            sys.exit(2)
        out[(m["path"], m["func"], m["rule"])] = int(m["max"])
    return out


def apply_baseline(
    findings: list[Finding], baseline: dict[tuple[str, str, str], int], root: Path
) -> tuple[list[Finding], list[str]]:
    """Returns (unbaselined findings, errors for over-budget/stale entries)."""
    by_key: dict[tuple[str, str, str], list[Finding]] = {}
    for f in findings:
        by_key.setdefault(f.key(root), []).append(f)
    errors: list[str] = []
    remaining: list[Finding] = []
    for key, fs in by_key.items():
        cap = baseline.get(key)
        if cap is None:
            remaining.extend(fs)
        elif len(fs) > cap:
            errors.append(
                f"baseline exceeded for {'|'.join(key)}: {len(fs)} findings, "
                f"budget {cap} (zero-growth: fix the new flow, don't raise it)")
            remaining.extend(fs)
    for key, cap in baseline.items():
        if key not in by_key:
            errors.append(
                f"stale baseline entry {'|'.join(key)}|{cap}: no findings "
                f"match — delete the line (burn-down is one-way)")
    return remaining, errors


def render(findings: list[Finding], root: Path) -> str:
    lines = []
    for f in findings:
        try:
            shown = f.path.relative_to(root)
        except ValueError:
            shown = f.path
        lines.append(f"{shown}:{f.line}: [{f.rule}] in {f.function}: {f.message}")
        for step in f.chain:
            lines.append(f"    {step}")
    return "\n".join(lines)


MUST_FLAG = re.compile(r"MUST-FLAG\(([a-z-]+)\)")


def self_test(root: Path) -> int:
    fixture_dir = root / "tools" / "lint" / "fixtures" / "taint"
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"taint_analyzer: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    findings = builtin_scan(fixtures, root)
    by_loc: dict[tuple[Path, int], set[str]] = {}
    for f in findings:
        by_loc.setdefault((f.path, f.line), set()).add(f.rule)
    ok = True
    fired = {f.rule for f in findings}
    missing = set(RULES) - fired
    if missing:
        print(f"taint_analyzer: self-test FAILED: rules never fired: "
              f"{sorted(missing)}")
        ok = False
    for path in fixtures:
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            m = MUST_FLAG.search(line)
            if m:
                got = by_loc.get((path, i), set())
                if m.group(1) not in got:
                    print(f"taint_analyzer: self-test FAILED: {path.name}:{i} "
                          f"expected [{m.group(1)}], got {sorted(got) or 'nothing'}")
                    ok = False
            if "MUST-NOT-FLAG" in line:
                got = by_loc.get((path, i), set())
                if got:
                    print(f"taint_analyzer: self-test FAILED: {path.name}:{i} "
                          f"must stay silent but fired {sorted(got)}")
                    ok = False
    if ok:
        print(f"taint_analyzer: self-test ok ({len(findings)} seeded findings, "
              f"all {len(RULES)} rules fire, suppressed lines silent)")
    return 0 if ok else 2


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify every rule fires on the seeded fixtures (builtin frontend)")
    parser.add_argument(
        "--frontend", choices=("auto", "builtin", "libclang"), default="auto",
        help="auto picks libclang when the bindings are installed")
    parser.add_argument(
        "--compile-commands", type=Path, default=None,
        help="compile_commands.json for the libclang frontend "
             "(default: <root>/build/compile_commands.json)")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: <root>/tools/lint/taint_baseline.txt)")
    parser.add_argument(
        "--report", type=Path, default=None,
        help="also write the full findings report (pre-baseline) to this file")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="explicit files to scan (default: the security-critical modules)")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    paths = [Path(p) for p in args.paths] or collect_files(args.root)
    if not paths:
        print("taint_analyzer: nothing to scan", file=sys.stderr)
        return 2

    frontend = args.frontend
    cindex = None
    if frontend in ("auto", "libclang"):
        cindex = load_libclang()
        if cindex is None:
            if frontend == "libclang":
                print("taint_analyzer: libclang frontend requested but the "
                      "python clang bindings / libclang library are not "
                      "available", file=sys.stderr)
                return 2
            frontend = "builtin"
        else:
            frontend = "libclang"

    if frontend == "libclang":
        cc_path = args.compile_commands or (args.root / "build" / "compile_commands.json")
        compdb = load_compile_commands(cc_path)
        findings = libclang_scan(paths, args.root, cindex, compdb)
    else:
        findings = builtin_scan(paths, args.root)

    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            render(findings, args.root) + ("\n" if findings else "")
            or "taint_analyzer: clean\n")

    baseline_path = args.baseline or (args.root / "tools" / "lint" / "taint_baseline.txt")
    baseline = load_baseline(baseline_path)
    remaining, errors = apply_baseline(findings, baseline, args.root)

    if remaining:
        print(render(remaining, args.root))
    for err in errors:
        print(f"taint_analyzer: {err}")
    baselined = len(findings) - len(remaining)
    if remaining or errors:
        print(f"taint_analyzer: {len(remaining)} finding(s) "
              f"({baselined} baselined) in {len(paths)} file(s) "
              f"[{frontend} frontend]")
        return 1
    print(f"taint_analyzer: clean ({len(paths)} files scanned, "
          f"{baselined} baselined finding(s)) [{frontend} frontend]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
