#!/usr/bin/env python3
"""Lint the GCC 12 await rule (sim/task.hpp, core/af_protocol.inc).

GCC 12 miscompiles a co_await inside a &&, || or ?: subexpression: the
coroutine silently stalls. This check fails when one statement of a C++
source combines `co_await` or `RWR_STEP` (the protocol texts' step marker)
with `&&`, `||` or `?`, after comments, string and character literals and
preprocessor lines are stripped. A statement here is the text between two
of `;`, `{` and `}`.

Usage:
  lint_await.py ROOT        scan ROOT/{src,tests,bench,examples}
  lint_await.py --selftest  plant violations in a scratch tree and expect
                            each one (and nothing else) to be reported
Exit status: 0 clean, 1 violations (or a failed self-test).
"""
import os
import re
import sys
import tempfile

DIRS = ("src", "tests", "bench", "examples")
EXTS = (".cpp", ".hpp", ".inc")
STEP = re.compile(r"\b(co_await|RWR_STEP)\b")
MIXED = re.compile(r"&&|\|\||\?")


def strip(text):
    """Blanks comments, literals and preprocessor lines, keeping newlines
    (so offsets still map to line numbers)."""
    out = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#":
            # Preprocessor directive, with backslash continuations.
            while i < n and not (text[i] == "\n" and text[i - 1] != "\\"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            continue
        if c == "\n":
            line_start = True
            out.append(c)
            i += 1
            continue
        if not c.isspace():
            line_start = False
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == "R" and text.startswith('R"', i) and not _ident_before(text, i):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            close = ")" + (m.group(1) if m else "") + '"'
            end = text.find(close, i + 2)
            end = n if end < 0 else end + len(close)
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == '"' or (c == "'" and not _digit_separator(text, i)):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(re.sub(r"[^\n]", " ", text[i : j + 1]))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _ident_before(text, i):
    return i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")


def _digit_separator(text, i):
    """True for the ' of 1'000'000: the token before it is a number."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def violations(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        code = strip(f.read())
    found = []
    start = 0
    for m in re.finditer(r"[;{}]", code + ";"):
        stmt = code[start : m.start()]
        step = STEP.search(stmt)
        if step and MIXED.search(stmt):
            line = code.count("\n", 0, start + step.start()) + 1
            found.append(f"{path}:{line}: {' '.join(stmt.split())}")
        start = m.end()
    return found


def scan(root):
    found = []
    for d in DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for name in sorted(files):
                if name.endswith(EXTS):
                    found += violations(os.path.join(dirpath, name))
    return found


PLANTED = {
    "and.cpp": "void f() { if (ok && co_await p.read(v)) {} }\n",
    "or.inc": "const bool b = RWR_STEP load(c, x) || other;\n",
    "cond.hpp": "auto w = flag\n    ? co_await a()\n    : co_await b();\n",
}
CLEAN = (
    "// co_await x && y in a comment\n"
    "/* RWR_STEP a ? b : c */\n"
    '#define RWR_STEP co_await\n'
    'const char* s = "co_await && ||";\n'
    "constexpr int big = 1'000'000;\n"
    "void g() { if (a && b) { co_await p.read(v); } }\n"
    "for (int i = 0; i < n && ok; ++i) { co_await step(); }\n"
)


def selftest():
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src"))
        for name, text in PLANTED.items():
            with open(os.path.join(root, "src", name), "w") as f:
                f.write(CLEAN + text)
        with open(os.path.join(root, "src", "clean.cpp"), "w") as f:
            f.write(CLEAN)
        found = scan(root)
        flagged = sorted(os.path.basename(v.split(":")[0]) for v in found)
    if flagged != sorted(PLANTED):
        print("lint_await self-test FAILED: flagged", flagged,
              "expected", sorted(PLANTED))
        return 1
    print(f"lint_await self-test: {len(found)} planted violations found")
    return 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = scan(argv[1])
    for v in found:
        print(v)
    if found:
        print(f"lint_await: {len(found)} statement(s) put an await inside "
              "&&, || or ?: (GCC 12 miscompiles them)")
        return 1
    print("lint_await: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
