"""Exception types shared across the toolkit.

Every raised error carries a stable ``code`` string so callers (and the
CLI) can branch on the failure kind without parsing messages.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator


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


def read_lines(
    data: bytes | str, error: type[EarlError], code: str, build: Callable[[Iterator[str]], object]
) -> object:
    """``build`` applied to the lines of a line-format file that say
    something, given as a generator of stripped lines in line order.

    Bytes are read as UTF-8.  One leading byte-order mark (U+FEFF) is
    dropped, from bytes and str alike, as the XML readers drop it.  ``#``
    starts a comment; comments and surrounding space are stripped and blank
    lines skipped.  Lines are numbered from 1 and end at ``\n``, ``\r\n``
    or ``\r``: a form feed or U+2028 is space within its line.  This is the
    one place that names a line, the one read last: a bad byte raises
    ``error(code, "line N: ...")``, a ``ValueError`` from ``build`` comes
    back as ``error(code, "line N: <message>")`` and an :class:`EarlError`
    as ``error(<its code>, "line N: <message>")``; ``build`` maps or folds
    the lines lazily, so that the line read last is the one at fault.
    """
    bad = None
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the first bad one decode; it is on their last line.
            bad, data = exc, data[:exc.start].decode("utf-8")
    lines = data.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if bad is not None:
        raise error(code, f"line {len(lines)}: not UTF-8 text ({bad.reason})")
    line_no = 0

    def stripped() -> Iterator[str]:
        nonlocal line_no
        for line_no, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                yield line

    try:
        return build(stripped())
    except ValueError as exc:
        raise error(code, f"line {line_no}: {exc}") from None
    except EarlError as exc:
        raise error(exc.code, f"line {line_no}: {exc.message}") from None
