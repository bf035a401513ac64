"""Reading and writing EARL XML, plus stand-off scope resolution.

The parser is built on expat with namespace processing switched off:
published EARL snippets routinely use ``xlink:href`` without declaring the
namespace, which a namespace-aware parser rejects outright.  Attribute
prefixes are therefore matched as literal text, and ``href`` is accepted
with or without the ``xlink:`` prefix.

The serializer emits one canonical form (fixed attribute order, minimal
digits, two-space indent, UTF-8) so byte-level golden tests are possible;
``parse_document(serialize_document(doc))`` equals ``doc``.

The reader is built afresh for each document: three expat handlers that
are closures over the items, the warnings and a stack of open elements,
each element a small list.  An element's attributes are read at its end,
one lookup each in a per-profile table from name to slot, and a warning's
location such as ``item[3].constituent[1]`` is formatted only when the
warning is emitted.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import Union
from xml.parsers import expat

from .errors import ParseError, ScopeError
from .model import (
    CLASSIC_APPRAISAL_NAMES,
    CLASSIC_DIMENSION_NAMES,
    DEFAULT_PROFILE,
    REGULATION_TYPES,
    UNSCOPED,
    AnnotationItem,
    ComplexEmotion,
    EmotionAnnotation,
    Finding,
    InlineText,
    Reference,
    ReferencedTimeSpan,
    Scope,
    TimeSpan,
    Unscoped,
    VocabularyProfile,
    _Record,
    _scope_problems,
)

ROOT_TAG = "earl"
EMOTION_TAG = "emotion"
COMPLEX_TAG = "complex-emotion"

_HREF_ATTRS = ("xlink:href", "href")
# "hide" appears in the wild as a regulation type; it is folded into
# "suppress" (with a warning) rather than modelled separately.
_REGULATION_ALIASES = {"hide": "suppress"}


class AnnotationDocument(_Record):
    """An ordered collection of parsed annotations.

    Parser ``warnings`` are bookkeeping and excluded from equality, so
    round-tripped documents compare equal on the model.
    """

    _uncompared = ("warnings",)

    def __init__(self, items: tuple[AnnotationItem, ...] = (), warnings: tuple[Finding, ...] = ()):
        self.__dict__.update(items=tuple(items), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Scope targets


class TextSegment(_Record):
    def __init__(self, text: str):
        self.__dict__.update(text=text)


class MediaObject(_Record):
    def __init__(self, uri: str, exists: bool):
        self.__dict__.update(uri=uri, exists=exists)


class ClipSegment(_Record):
    def __init__(self, uri: str | None, start: float, end: float):
        self.__dict__.update(uri=uri, start=start, end=end)


ScopeTarget = Union[TextSegment, MediaObject, ClipSegment]


# ---------------------------------------------------------------------------
# Parsing


# Where an attribute's value goes.  Slots up to _END are fields of an
# annotation, kept as text below _INTENSITY and as numbers from it on.
_CATEGORY, _MODALITY, _URI, _INTENSITY, _PROBABILITY, _START, _END = range(7)
_DIMENSION, _APPRAISAL, _REGULATION, _ALIAS = range(7, 11)
# For the error that names both attributes giving one value.
_SAME_SLOT = {"href": "xlink:href", "xlink:href": "href", "hide": "suppress", "suppress": "hide"}

# An open element is a list: [kind, attrs, text parts, constituents, item, constituent].
_CONTAINER, _EMOTION, _COMPLEX, _IGNORED = range(4)


@lru_cache(maxsize=8)
def _attribute_kinds(profile: VocabularyProfile) -> dict[str, int]:
    # Known emotion attribute -> slot; later updates win over earlier ones.
    kinds = dict.fromkeys(CLASSIC_APPRAISAL_NAMES, _APPRAISAL)
    kinds.update(dict.fromkeys(CLASSIC_DIMENSION_NAMES, _DIMENSION))
    kinds.update(dict.fromkeys(profile.appraisal_names, _APPRAISAL))
    kinds.update(dict.fromkeys(profile.dimension_names, _DIMENSION))
    kinds.update(dict.fromkeys(_REGULATION_ALIASES, _ALIAS))
    kinds.update(dict.fromkeys(REGULATION_TYPES, _REGULATION))
    kinds.update(dict.fromkeys(_HREF_ATTRS, _URI))
    kinds.update(category=_CATEGORY, modality=_MODALITY, intensity=_INTENSITY)
    kinds.update(probability=_PROBABILITY, start=_START, end=_END)
    return kinds


# The lexical space of xs:double (XML Schema 1.1 Part 2), around it the
# whitespace its collapse facet strips.  float() reads a superset: digit
# group underscores, non-ASCII digits and spaces, and nan, inf and infinity
# in any case.  Compiled by re's cache on the first second look, so an
# import does not pay for it.
_DOUBLE = (
    r"[ \t\n\r]*(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[Ee][+-]?[0-9]+)?|[+-]?INF|NaN)"
    r"[ \t\n\r]*"
)


def _double(raw: str) -> float:
    """``float(raw)`` for an xs:double; ValueError for anything else."""
    value = float(raw)
    # Each text float() reads outside xs:double has an underscore, a
    # non-ASCII character or a value that is not finite (inf - inf is NaN,
    # and NaN is true); only such a value takes the second look.
    if ("_" in raw or not raw.isascii() or value - value) and not re.fullmatch(_DOUBLE, raw):
        raise ValueError(raw)
    return value


def _number(name: str, raw: str) -> float:
    try:
        return _double(raw)
    except ValueError:
        message = f"attribute {name}={raw!r} is not a number"
        raise ParseError("UNPARSEABLE_NUMBER", message) from None


def _duplicate(name: str) -> ParseError:
    # Keeping either value would depend on attribute order.
    message = f"attributes {_SAME_SLOT[name]!r} and {name!r} give one value; neither is kept"
    return ParseError("DUPLICATE_ATTRIBUTE", message)


def _warn(warnings: list[Finding], code: str, message: str, frame: list) -> None:
    item, constituent = frame[4], frame[5]
    if item is None:
        location = "document"
    elif constituent is None:
        location = f"item[{item}]"
    else:
        location = f"item[{item}].constituent[{constituent}]"
    warnings.append(Finding("warning", code, message, location))


def _scope(uri, start, end, text: str, frame: list, warnings: list[Finding]) -> Scope:
    if (start is None) != (end is None):
        message = "start and end must be given together; lone value ignored"
        _warn(warnings, "INCOMPLETE_TIMESPAN", message, frame)
        start = end = None
    if start is not None and not end > start:
        raise ParseError("START_AFTER_END", f"start={start} end={end}")
    if text and (uri is not None or start is not None):
        message = "element has both attribute scope and enclosed text; text ignored"
        _warn(warnings, "AMBIGUOUS_SCOPE", message, frame)
        text = ""
    if uri is not None:
        return Reference(uri) if start is None else ReferencedTimeSpan(uri, start, end)
    if start is not None:
        return TimeSpan(start, end)
    return InlineText(text) if text else UNSCOPED


def _annotation(frame: list, text: str, slot_of, warnings: list[Finding]) -> EmotionAnnotation:
    fields = [None] * (_END + 1)
    dimensions: dict[str, float] = {}
    appraisals: dict[str, float] = {}
    regulation: dict[str, float] = {}
    it = iter(frame[1])
    for name, raw in zip(it, it):
        slot = slot_of(name)
        if slot is None:
            try:
                appraisals[name] = _double(raw)
            except ValueError:
                message = f"attribute {name}={raw!r} not recognized; dropped"
            else:
                message = f"attribute {name!r} not in profile; kept as appraisal"
            _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
            continue
        if slot < _INTENSITY:
            if slot == _URI and fields[_URI] is not None:
                raise _duplicate(name)
            fields[slot] = raw
            continue
        try:
            value = float(raw)  # _double, inlined
            if ("_" in raw or not raw.isascii() or value - value) and not re.fullmatch(_DOUBLE, raw):
                raise ValueError(raw)
        except ValueError:
            message = f"attribute {name}={raw!r} is not a number"
            raise ParseError("UNPARSEABLE_NUMBER", message) from None
        if slot <= _END:
            fields[slot] = value
        elif slot == _DIMENSION:
            dimensions[name] = value
        elif slot == _APPRAISAL:
            appraisals[name] = value
        else:
            key = name
            if slot == _ALIAS:
                key = _REGULATION_ALIASES[name]
                _warn(warnings, "REGULATION_ALIAS", f"regulation {name!r} read as {key!r}", frame)
            if key in regulation:
                raise _duplicate(name)
            regulation[key] = value
    category, modality, uri, intensity, probability, start, end = fields
    return EmotionAnnotation(
        category, dimensions, appraisals, intensity, probability, regulation, modality,
        _scope(uri, start, end, text, frame, warnings),
    )


def _complex(frame: list, text: str, warnings: list[Finding]) -> ComplexEmotion:
    uri = start = end = None
    it = iter(frame[1])
    for name, raw in zip(it, it):
        if name in _HREF_ATTRS:
            if uri is not None:
                raise _duplicate(name)
            uri = raw
        elif name == "start":
            start = _number(name, raw)
        elif name == "end":
            end = _number(name, raw)
        else:
            message = f"attribute {name}={raw!r} not recognized on {COMPLEX_TAG}; dropped"
            _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
    return ComplexEmotion(frame[3], _scope(uri, start, end, text, frame, warnings))


def _expat_parse(data: bytes | str, start, end, text, context: str = "") -> None:
    # No namespace processing; attributes reach ``start`` as a flat list.
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    try:
        # expat reads a str as the text it is, whatever encoding it declares.
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseError("MALFORMED_XML", f"{context}{exc}") from None
    except UnicodeEncodeError as exc:
        # A lone surrogate, as surrogateescape decoding leaves, has no UTF-8 form.
        bad = f"U+{ord(exc.object[exc.start]):04X} at index {exc.start}"
        raise ParseError("MALFORMED_XML", f"{context}{bad} is not encodable as UTF-8") from None


def parse_document(
    data: bytes | str, profile: VocabularyProfile = DEFAULT_PROFILE
) -> AnnotationDocument:
    """Parse EARL XML into an :class:`AnnotationDocument`.

    The root may be a container element holding any number of ``emotion``
    and ``complex-emotion`` elements, or a single annotation element on its
    own.  Which attributes count as dimensions versus appraisals is decided
    by ``profile``; unknown numeric attributes are kept as appraisals with a
    warning, so no input attribute is ever dropped silently; the container's
    own attributes, ``xmlns`` and ``xmlns:*`` aside, are warned about too.
    Two attributes that give one value (``href`` and ``xlink:href``,
    ``suppress`` and ``hide``) raise ``DUPLICATE_ATTRIBUTE``, and a number
    outside the lexical space of ``xs:double`` raises ``UNPARSEABLE_NUMBER``.
    """
    slot_of = _attribute_kinds(profile).get
    items: list[AnnotationItem] = []
    warnings: list[Finding] = []
    stack: list[list] = []
    open_complex = 0  # real complex-emotion elements open, not ignored ones

    def start_element(name: str, attrs: list[str]) -> None:
        nonlocal open_complex
        if name == COMPLEX_TAG and open_complex:
            raise ParseError(
                "NESTED_COMPLEX", "complex-emotion may not contain another complex-emotion"
            )
        parent = stack[-1] if stack else None
        top = parent is None or parent[0] == _CONTAINER
        if top and name == EMOTION_TAG:
            frame = [_EMOTION, attrs, [], None, len(items), None]
        elif top and name == COMPLEX_TAG:
            open_complex += 1
            frame = [_COMPLEX, attrs, [], [], len(items), None]
        elif parent is None:
            # Any other root element serves as the document container.
            frame = [_CONTAINER, attrs, [], None, None, None]
        elif parent[0] == _COMPLEX and name == EMOTION_TAG:
            frame = [_EMOTION, attrs, [], None, parent[4], len(parent[3])]
        else:
            message = f"element <{name}> is not part of the annotation vocabulary here"
            _warn(warnings, "UNRECOGNIZED_ELEMENT", message, parent)
            frame = [_IGNORED, attrs, [], None, parent[4], parent[5]]
        stack.append(frame)

    def character_data(data: str) -> None:
        if stack:
            stack[-1][2].append(data)

    def end_element(_name: str) -> None:
        nonlocal open_complex
        frame = stack.pop()
        kind = frame[0]
        if kind == _IGNORED:
            return
        text = "".join(frame[2])
        if text and not text.strip(" \t\n\r"):
            text = ""  # pretty-printer whitespace is not inline scope
        if kind == _COMPLEX:
            open_complex -= 1
            items.append(_complex(frame, text, warnings))
        elif kind == _CONTAINER:
            it = iter(frame[1])
            for name, raw in zip(it, it):
                if name != "xmlns" and not name.startswith("xmlns:"):
                    message = f"attribute {name}={raw!r} not recognized on the container; dropped"
                    _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
            if text:
                _warn(warnings, "STRAY_TEXT", f"text outside annotations: {text.strip()!r}", frame)
        elif frame[5] is None:
            items.append(_annotation(frame, text, slot_of, warnings))
        else:
            stack[-1][3].append(_annotation(frame, text, slot_of, warnings))

    _expat_parse(data, start_element, end_element, character_data)
    return AnnotationDocument(items, warnings)


# ---------------------------------------------------------------------------
# Serialization


# The repr of a value that is not finite, as xs:double spells it.
_NON_FINITE = {"nan": "NaN", "inf": "INF", "-inf": "-INF"}


def format_number(value: float) -> str:
    """Render a float with minimal digits: drop trailing zeros, keep exactness."""
    # Below 1e16 the repr of an integral float ends in ".0"; above, it has
    # an exponent.  Only a value that is not finite ends in a letter.  One
    # character is read at a time: a slice would build a new string.
    text = repr(float(value))
    last = text[-1]
    if last == "0" and text[-2] == ".":
        return "0" if text == "-0.0" else text[:-2]
    if last > "9":
        return _NON_FINITE[text]
    return text


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
# \r would be normalized to \n on re-parse, and tab and newline in an
# attribute value to spaces; keep them as character references.
_TEXT_TABLE = str.maketrans(_TEXT_ESCAPES)
_ATTR_TABLE = str.maketrans(
    {**_TEXT_ESCAPES, '"': "&quot;", "\t": "&#9;", "\n": "&#10;"}
)
# XML 1.0 cannot hold these, not even as references; each C0 control is one UTF-8 byte.
_C0 = bytes(b for b in range(32) if b not in b"\t\n\r")
_UNWRITABLE = {chr(b) for b in _C0} | {"\ufffe", "\uffff"}


def _attr(name: str, value: str) -> str:
    return f' {name}="{value.translate(_ATTR_TABLE)}"'


def _text(value: str) -> str:
    return value.translate(_TEXT_TABLE)


def _scope_attrs(scope: Scope) -> str:
    # Numbers never need escaping; only the URI goes through the table.
    out = ""
    if isinstance(scope, (Reference, ReferencedTimeSpan)):
        out = _attr("xlink:href", scope.uri)
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        out += f' start="{format_number(scope.start)}" end="{format_number(scope.end)}"'
    return out


def _emotion_markup(a: EmotionAnnotation) -> str:
    parts = [f"<{EMOTION_TAG}"]
    if a.category is not None:
        parts.append(f' category="{a.category.translate(_ATTR_TABLE)}"')
    descriptors = a.dimensions
    if a.appraisals:
        descriptors = {**descriptors, **a.appraisals} if descriptors else a.appraisals
    for name in sorted(descriptors):
        parts.append(f' {name}="{format_number(descriptors[name])}"')
    if a.intensity is not None:
        parts.append(f' intensity="{format_number(a.intensity)}"')
    if a.probability is not None:
        parts.append(f' probability="{format_number(a.probability)}"')
    for name in sorted(a.regulation):
        parts.append(f' {name}="{format_number(a.regulation[name])}"')
    if a.modality is not None:
        parts.append(f' modality="{a.modality.translate(_ATTR_TABLE)}"')
    scope = a.scope
    if isinstance(scope, InlineText):
        parts.append(f">{_text(scope.text)}</{EMOTION_TAG}>")
    else:
        if not isinstance(scope, Unscoped):
            parts.append(_scope_attrs(scope))
        parts.append("/>")
    return "".join(parts)


def _complex_markup(c: ComplexEmotion) -> str:
    parts = [f"<{COMPLEX_TAG}", _scope_attrs(c.scope), ">"]
    if isinstance(c.scope, InlineText):
        parts.append(_text(c.scope.text))
    # Constituents are kept on one line: any whitespace between them would
    # read back as inline-text scope.
    for constituent in c.constituents:
        parts.append(_emotion_markup(constituent))
    parts.append(f"</{COMPLEX_TAG}>")
    return "".join(parts)


def serialize_document(doc: AnnotationDocument) -> bytes:
    """Emit canonical EARL XML bytes; a character XML cannot hold raises UNSERIALIZABLE_CHAR."""
    head = '<?xml version="1.0" encoding="UTF-8"?>\n'
    if not doc.items:
        return f"{head}<{ROOT_TAG}/>\n".encode()
    body = "\n  ".join(
        [
            _complex_markup(item) if isinstance(item, ComplexEmotion) else _emotion_markup(item)
            for item in doc.items
        ]
    )
    xml = f"{head}<{ROOT_TAG}>\n  {body}\n</{ROOT_TAG}>\n"
    try:
        data = xml.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate, as from a byte that was not UTF-8
        bad = exc.object[exc.start]
    else:  # searching a str for a character wider than all it holds returns at once
        if len(data.translate(None, _C0)) == len(data) and not ("\ufffe" in xml or "\uffff" in xml):
            return data
        bad = next(c for c in xml if c in _UNWRITABLE)
    raise ParseError("UNSERIALIZABLE_CHAR", f"U+{ord(bad):04X} cannot be written in XML")


# ---------------------------------------------------------------------------
# Scope resolution


def resolve_scope(item: AnnotationItem, corpus_root: str | Path) -> ScopeTarget:
    """Resolve an annotation's scope against files under ``corpus_root``.

    References may not escape the corpus directory; existence of the
    referenced media is checked, not required.
    """
    scope = item.scope
    if problems := _scope_problems(scope):
        raise ScopeError("MALFORMED_SCOPE", problems[0])
    if isinstance(scope, Unscoped):
        raise ScopeError("UNSCOPED", "annotation has no scope to resolve")
    if isinstance(scope, InlineText):
        return TextSegment(scope.text)
    if isinstance(scope, TimeSpan):
        return ClipSegment(None, scope.start, scope.end)

    root = Path(corpus_root).resolve()
    candidate = (root / scope.uri).resolve()
    try:
        inside = candidate.is_relative_to(root)
    except ValueError:  # pragma: no cover - windows drive mismatch
        inside = False
    if not inside:
        raise ScopeError("PATH_ESCAPE", f"{scope.uri!r} resolves outside the corpus root")
    if isinstance(scope, ReferencedTimeSpan):
        return ClipSegment(scope.uri, scope.start, scope.end)
    return MediaObject(scope.uri, candidate.exists())


# ---------------------------------------------------------------------------
# Vocabulary profile files


def load_profile(data: bytes | str) -> VocabularyProfile:
    """Load a profile from its XML file form.

    The file is a ``<profile>`` element whose children name the allowed
    labels, one per element::

        <profile>
          <category>pleasure</category>
          <dimension>arousal</dimension>
          <appraisal>suddenness</appraisal>
          <modality>face</modality>
        </profile>

    Any other child of the root raises ``UNKNOWN_PROFILE_ELEMENT``.
    """
    # Direct children of the root count by local name, so no namespace form
    # makes a wildcard profile; a label is the text before any grandchild.
    children: list[list[str]] = []  # [tag, leading text]
    depth = 0
    leading = False

    def start_element(name: str, _attrs) -> None:
        nonlocal depth, leading
        depth += 1
        leading = depth == 2
        if leading:
            children.append([name.rpartition(":")[2], ""])

    def end_element(_name: str) -> None:
        nonlocal depth, leading
        depth -= 1
        leading = False

    def character_data(data: str) -> None:
        if leading:
            children[-1][1] += data

    _expat_parse(data, start_element, end_element, character_data, "profile: ")
    # In the order of VocabularyProfile's fields.
    buckets: dict[str, set[str]] = {
        tag: set() for tag in ("category", "dimension", "appraisal", "modality")
    }
    for tag, text in children:
        # A typo such as <modalty> would silently leave its slot a wildcard.
        if tag not in buckets:
            raise ParseError(
                "UNKNOWN_PROFILE_ELEMENT",
                f"profile: unknown element <{tag}>; expected category, dimension, "
                "appraisal or modality",
            )
        if text.strip():
            buckets[tag].add(text.strip())
    return VocabularyProfile(*buckets.values())
