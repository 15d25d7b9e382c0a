#!/usr/bin/env python3
"""List every exported value that nothing outside its own module uses.

For each `val NAME` in lib/**/*.mli, search the code of every .ml file
under lib/, bin/, bench/, perfbench/, examples/ and test/ other than the
module's own implementation for a use of it.  A use is

- NAME qualified by its module's name (`Endpoint.call`, also
  `Circus_pairmsg.Endpoint.call`), or by the name of a nested module the
  value is declared in (`Thread_id.codec` for `Ids.Thread_id`);
- NAME qualified by a local alias of that module
  (`module Tev = Circus_trace.Event` makes `Tev.NAME` a use);
- NAME as a whole word in a file that opens the module or an alias of
  it (`open`, `let open`, `include`, or a local `M.( ... )`).

Comments and string literals are skipped: a value that only prose
mentions has no caller.  Print each value with no use as
`path/to/module.mli: NAME`, and exit 1 if there is any.  A same-named
value of another module no longer keeps an export alive, unless the
file that names it also opens this module.

Run from the repository root:  python3 test/unused_exports.py
"""

import pathlib
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
# Comments (nested), string literals and char literals, in one pass.
TOKEN = re.compile(r"""\(\*|\*\)|"(?:\\.|[^"\\])*"|'(?:\\[^']+|[^\\'])'""", re.S)
# What an interface declares: nested signatures and values.
SIG = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*:\s*sig\b|\bsig\b|\bend\b|\bval\s+([a-z_][\w']*)")
ALIAS = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*=\s*([A-Z][\w'.]*)")
OPEN = re.compile(r"\b(?:open!?|include)\s+([A-Z][\w'.]*)|\b([A-Z][\w'.]*)\.\(")
IDENT_EDGE = r"(?![A-Za-z0-9_'])"


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


def exports(mli):
    """(NAME, qualifier) for each value the interface declares: the
    qualifier is the innermost module around the declaration."""
    top = mli.stem.capitalize()
    stack, found = [], []
    for m in SIG.finditer(code_of(mli.read_text())):
        if m.group(2):
            names = [q for q in stack if q]
            found.append((m.group(2), names[-1] if names else top))
        elif m.group(0) == "end":
            if stack:
                stack.pop()
        else:
            stack.append(m.group(1))
    return found


class Source:
    def __init__(self, path):
        self.path = path
        self.code = code_of(path.read_text())
        # Alias name -> last component of the aliased path; a Stdlib
        # module is never one of ours.
        self.aliases = {}
        for a, target in ALIAS.findall(self.code):
            if not target.startswith("Stdlib."):
                self.aliases.setdefault(target.split(".")[-1], set()).add(a)
        self.opened = set()
        for m in OPEN.finditer(self.code):
            self.opened.add((m.group(1) or m.group(2)).split(".")[-1])

    def names_for(self, module):
        return {module} | self.aliases.get(module, set())

    def uses(self, name, module):
        names = self.names_for(module)
        qualified = "|".join(re.escape(n) for n in sorted(names))
        if re.search(r"(?<![A-Za-z0-9_'])(?:" + qualified + r")\." + re.escape(name) + IDENT_EDGE,
                     self.code):
            return True
        if names & self.opened:
            return re.search(r"(?<![A-Za-z0-9_'.])" + re.escape(name) + IDENT_EDGE,
                             self.code) is not None
        return False


def main():
    sources = [Source(p) for d in SEARCH_DIRS for p in sorted(pathlib.Path(d).rglob("*.ml"))]
    unused = []
    for mli in sorted(pathlib.Path("lib").rglob("*.mli")):
        own = mli.with_suffix(".ml")
        for name, module in exports(mli):
            if not any(s.uses(name, module) for s in sources if s.path != own):
                unused.append(f"{mli}: {name}")
    for line in unused:
        print(line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
