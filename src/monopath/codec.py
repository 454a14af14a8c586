"""Flat text format for colourings: a header line holding n, then one line
of R/B characters in iter_edges order.  encode emits no trailing newline;
decode tolerates any number of them."""

from __future__ import annotations

import re

from .core import Colouring, MonopathError, edge_count


class CodecError(MonopathError):
    pass


class MalformedHeader(CodecError):
    pass


class BadLength(CodecError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} edge characters, got {got}")
        self.expected = expected
        self.got = got


class BadCharacter(CodecError):
    # line/column are 1-based, matching editor conventions
    def __init__(self, line: int, column: int, char: str):
        super().__init__(f"bad character {char!r} at line {line}, column {column}")
        self.line = line
        self.column = column
        self.char = char


_NOT_RB = re.compile("[^RB]")
_DIGITS_TO_RB = str.maketrans("10", "RB")
_RB_TO_DIGITS = bytes.maketrans(b"RB", b"10")


def encode(g: Colouring) -> str:
    return f"{g.n}\n{g._edge_digits().translate(_DIGITS_TO_RB)}"


def decode(text: str) -> Colouring:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedHeader("empty input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MalformedHeader(f"header is not an integer: {lines[0]!r}") from None
    if n < 1:
        raise MalformedHeader(f"need n >= 1, got {n}")
    if len(lines) > 2:
        raise MalformedHeader(f"expected 2 lines, got {len(lines)}")
    body = lines[1] if len(lines) == 2 else ""
    m = edge_count(n)
    if len(body) != m:
        raise BadLength(m, len(body))
    # C-level checks on the happy path; the regex only names the first bad
    # character once there is one
    raw = body.encode("ascii") if body.isascii() else None
    if raw is None or raw.translate(None, b"RB"):
        bad = _NOT_RB.search(body)
        raise BadCharacter(2, bad.start() + 1, bad.group())
    digits = raw.translate(_RB_TO_DIGITS)
    del raw, lines, body  # before the digit matrix is built
    return Colouring._from_digits(n, digits)
