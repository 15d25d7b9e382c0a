#!/usr/bin/env python3
"""List every exported value that nothing outside its own module names.

For each `val NAME` in lib/**/*.mli, search the code of every .ml file
under lib/, bin/, bench/, perfbench/, examples/ and test/ other than the
module's own implementation for NAME as a whole word.  Comments and
string literals are skipped: a value that only prose mentions has no
caller.  Print each value that no such file names as
`path/to/module.mli: NAME`, and exit 1 if there is any.  The match is by
name only, so a same-named value in another module keeps an export
alive: the list is a lower bound on the dead surface.

Run from the repository root:  python3 test/unused_exports.py
"""

import pathlib
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
# Comments (nested), string literals and char literals, in one pass.
TOKEN = re.compile(r"""\(\*|\*\)|"(?:\\.|[^"\\])*"|'(?:\\[^']+|[^\\'])'""", re.S)


def code_of(text):
    """The text with comments and string literals blanked out."""
    out, depth, pos = [], 0, 0
    for m in TOKEN.finditer(text):
        tok = m.group()
        if depth == 0:
            out.append(text[pos : m.start()])
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(depth - 1, 0)
        elif depth == 0:
            out.append(" ")
        pos = m.end()
    if depth == 0:
        out.append(text[pos:])
    return "".join(out)


def main():
    sources = {}
    for d in SEARCH_DIRS:
        for p in sorted(pathlib.Path(d).rglob("*.ml")):
            sources[p] = code_of(p.read_text())
    unused = []
    for mli in sorted(pathlib.Path("lib").rglob("*.mli")):
        own = mli.with_suffix(".ml")
        for name in VAL.findall(mli.read_text()):
            word = re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
            if not any(word.search(code) for p, code in sources.items() if p != own):
                unused.append(f"{mli}: {name}")
    for line in unused:
        print(line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
