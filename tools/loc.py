"""Print the line count and the code-line count of every module of the package.

Usage: ``python tools/loc.py [--src DIR]``

For each ``.py`` file under ``DIR/cdcfund`` (default: the ``src`` directory of
the checkout holding this script) one line gives its ``wc -l`` count and its
code lines, then one line the totals. A code line holds a token of the
program: blank lines, comment lines and the lines of a docstring (a string
that is a statement on its own) do not count. Comparing two checkouts::

    python tools/loc.py
    python tools/loc.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

# tokens that carry no program text
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token other than a comment or a docstring."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    lines = set()
    statement_start = True  # the next token begins a statement
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT
            )
            continue
        # a string that is a statement on its own (tokenize ends every statement with NEWLINE)
        docstring = (
            statement_start
            and tok.type == tokenize.STRING
            and next(t for t in tokens[k + 1 :] if t.type != tokenize.COMMENT).type
            == tokenize.NEWLINE
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="directory holding the cdcfund package (default: this checkout's src)",
    )
    args = parser.parse_args()
    total = code = 0
    for path in sorted((args.src / "cdcfund").glob("*.py")):
        text = path.read_text()
        n_lines, n_code = text.count("\n"), code_lines(text)
        total, code = total + n_lines, code + n_code
        print(f"{n_lines:6d} {n_code:6d}  {path.name}")
    print(f"{total:6,d} {code:6,d}  total (lines, code lines)")


if __name__ == "__main__":
    main()
