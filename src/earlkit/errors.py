"""Exception types shared across the toolkit.

Every raised error carries a stable ``code`` string so callers (and the
CLI) can branch on the failure kind without parsing messages.
"""

from __future__ import annotations

from collections.abc import Iterator


class EarlError(Exception):
    """Base error with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ParseError(EarlError):
    """Raised for unreadable EARL XML input."""


class LexiconError(EarlError):
    """Raised for malformed lexicon files."""


class MarkerError(EarlError):
    """Raised for labels outside the marker knowledge base."""


class FusionError(EarlError):
    """Raised for unusable evidence or empty fusion results."""


class PolicyError(EarlError):
    """Raised for malformed policy files."""


def read_lines(data: bytes | str, error: type[EarlError], code: str) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` for each line of a line-format file that says something.

    Bytes are read as UTF-8; a bad byte raises ``error(code, "line N: ...")``.
    ``#`` starts a comment; comments and surrounding space are stripped and
    blank lines skipped.  Lines are numbered from 1 and end at ``\n``,
    ``\r\n`` or ``\r``: a form feed or U+2028 is space within its line.
    """
    bad = None
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the first bad one decode; it is on their last line.
            bad, data = exc, data[:exc.start].decode("utf-8")
    lines = data.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if bad is not None:
        raise error(code, f"line {len(lines)}: not UTF-8 text ({bad.reason})")
    for line_no, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield line_no, line
