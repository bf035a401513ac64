"""Reading and writing EARL XML.

The parser is built on expat with namespace processing switched off:
published EARL snippets routinely use ``xlink:href`` without declaring the
namespace, which a namespace-aware parser rejects outright.  Attribute
prefixes are therefore matched as literal text, and ``href`` is accepted
with or without the ``xlink:`` prefix.

The serializer emits one canonical form (fixed attribute order, minimal
digits, two-space indent, UTF-8) so byte-level golden tests are possible;
``parse_document(serialize_document(doc))`` equals ``doc`` when no value is
NaN, which equals nothing, and each descriptor has the kind the reading
profile gives its name (an appraisal named ``arousal`` reads back as a
dimension).  What would not read back at all, the writer refuses.

The writer keeps three process-wide memos, each bounded at 4,096 entries
(first come, first kept): the text of each finite float, the escaped form of
each attribute value of up to 128 characters, and the descriptor names known
to read back.  They pay because what a batch writes repeats: numbers are
short decimals on fixed scales and labels come from a small vocabulary, so
most values are looked up rather than formatted again.  Every output byte is
what the plain path writes.

The reader is built afresh for each document: three expat handlers that
are closures over the items, the warnings and a stack of open elements,
each element a small list.  An element's attributes are read at its end by
one walk, one lookup each in a table from name to slot: per profile for an
``emotion``, and for a ``complex-emotion`` a table of its scope attributes
alone, which drops every other name with a warning.  A warning's location
such as ``item[3].constituent[1]`` is formatted only when it is emitted.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from xml.parsers import expat

from .errors import ParseError
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
    _NESTED_COMPLEX,
    _Record,
)

ROOT_TAG = "earl"
EMOTION_TAG = "emotion"
COMPLEX_TAG = "complex-emotion"


class AnnotationDocument(_Record):
    """An ordered collection of parsed annotations.

    Parser ``warnings`` are bookkeeping and excluded from equality, so
    round-tripped documents compare equal on the model.
    """

    _uncompared = ("warnings",)

    def __init__(self, items: tuple[AnnotationItem, ...] = (), warnings: tuple[Finding, ...] = ()):
        self.__dict__.update(items=tuple(items), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Parsing


# Where an attribute's value goes.  Slots up to _END are fields of an
# annotation, kept as text below _INTENSITY and as numbers from it on;
# _UNKNOWN takes a name an emotion's table does not hold, and _DROPPED any
# name but a scope attribute on a complex-emotion.
_CATEGORY, _MODALITY, _URI, _INTENSITY, _PROBABILITY, _START, _END = range(7)
_DIMENSION, _APPRAISAL, _REGULATION, _ALIAS, _UNKNOWN, _DROPPED = range(7, 13)
# For the error that names both attributes giving one value.  "hide" appears
# in the wild as a regulation type; it is read as "suppress", with a warning.
_SAME_SLOT = {"href": "xlink:href", "xlink:href": "href", "hide": "suppress", "suppress": "hide"}
# The slot of each name in model.FIELD_ATTRIBUTES.
_FIELD_SLOTS = {
    "category": _CATEGORY, "modality": _MODALITY, "href": _URI, "xlink:href": _URI,
    "intensity": _INTENSITY, "probability": _PROBABILITY, "start": _START, "end": _END,
    "hide": _ALIAS, **dict.fromkeys(REGULATION_TYPES, _REGULATION),
}
# A complex-emotion's fields are its scope alone.
_SCOPE_SLOTS = {name: slot for name, slot in _FIELD_SLOTS.items() if slot in (_URI, _START, _END)}

# An open element is a list: [kind, attrs, text parts, constituents, item, constituent].
_CONTAINER, _EMOTION, _COMPLEX, _IGNORED = range(4)


@lru_cache(maxsize=8)
def _attribute_kinds(profile: VocabularyProfile) -> dict[str, int]:
    # Known emotion attribute -> slot; later updates win over earlier ones.
    kinds = dict.fromkeys(CLASSIC_APPRAISAL_NAMES, _APPRAISAL)
    kinds.update(dict.fromkeys(CLASSIC_DIMENSION_NAMES, _DIMENSION))
    kinds.update(dict.fromkeys(profile.appraisal_names, _APPRAISAL))
    kinds.update(dict.fromkeys(profile.dimension_names, _DIMENSION))
    kinds.update(_FIELD_SLOTS)
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


def _annotation(
    frame: list, text: str, slot_of, unknown: int, warnings: list[Finding]
) -> AnnotationItem:
    # The item a closed <emotion> or <complex-emotion> frame gives; a name
    # that slot_of does not hold takes the slot ``unknown``.
    fields = [None] * (_END + 1)
    dimensions: dict[str, float] = {}
    appraisals: dict[str, float] = {}
    regulation: dict[str, float] = {}
    it = iter(frame[1])
    for name, raw in zip(it, it):
        slot = slot_of(name, unknown)
        if slot < _INTENSITY:
            if slot == _URI and fields[_URI] is not None:
                raise _duplicate(name)
            fields[slot] = raw
            continue
        if slot == _DROPPED:
            message = f"attribute {name}={raw!r} not recognized on {COMPLEX_TAG}; dropped"
            _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
            continue
        try:
            value = float(raw)
            # Each text float() reads outside xs:double has an underscore, a
            # non-ASCII character or a value that is not finite (inf - inf is
            # NaN, and NaN is true); only such a value takes the second look.
            if ("_" in raw or not raw.isascii() or value - value) and not re.fullmatch(_DOUBLE, raw):
                raise ValueError(raw)
        except ValueError:
            if slot == _UNKNOWN:
                message = f"attribute {name}={raw!r} not recognized; dropped"
                _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
                continue
            message = f"attribute {name}={raw!r} is not a number"
            raise ParseError("UNPARSEABLE_NUMBER", message) from None
        if slot <= _END:
            fields[slot] = value
        elif slot == _DIMENSION:
            dimensions[name] = value
        elif slot == _APPRAISAL:
            appraisals[name] = value
        elif slot == _UNKNOWN:
            appraisals[name] = value
            message = f"attribute {name!r} not in profile; kept as appraisal"
            _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
        else:
            key = name
            if slot == _ALIAS:
                key = _SAME_SLOT[name]
                _warn(warnings, "REGULATION_ALIAS", f"regulation {name!r} read as {key!r}", frame)
            if key in regulation:
                raise _duplicate(name)
            regulation[key] = value
    category, modality, uri, intensity, probability, start, end = fields
    scope = _scope(uri, start, end, text, frame, warnings)
    if frame[0] == _COMPLEX:
        return ComplexEmotion(frame[3], scope)
    return EmotionAnnotation(
        category, dimensions, appraisals, intensity, probability, regulation, modality, scope
    )


def _expat_parse(data: bytes | str, start, end, text, context: str = "") -> None:
    # No namespace processing; attributes reach ``start`` as a flat list.
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True

    def refuse_doctype(*_declaration) -> None:
        # A DTD would change what the document says unseen: default
        # attribute values, entities that expand, or, from a file expat
        # cannot read, labels that silently read as empty.
        raise ParseError("DTD_NOT_ALLOWED", f"{context}a DOCTYPE declaration is not allowed")

    parser.StartDoctypeDeclHandler = refuse_doctype
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
    by ``profile``; an emotion's unknown numeric attributes are kept as
    appraisals with a warning, so no input attribute is ever dropped silently;
    a complex-emotion's attributes other than its scope, and the container's,
    ``xmlns`` and ``xmlns:*`` aside, are dropped with a warning.
    Two attributes that give one value (``href`` and ``xlink:href``,
    ``suppress`` and ``hide``) raise ``DUPLICATE_ATTRIBUTE``, a number
    outside the lexical space of ``xs:double`` raises ``UNPARSEABLE_NUMBER``,
    and a DOCTYPE raises ``DTD_NOT_ALLOWED``.
    """
    slot_of = _attribute_kinds(profile).get
    items: list[AnnotationItem] = []
    warnings: list[Finding] = []
    stack: list[list] = []

    def start_element(name: str, attrs: list[str]) -> None:
        parent = stack[-1] if stack else None
        top = parent is None or parent[0] == _CONTAINER
        if top and name == EMOTION_TAG:
            frame = [_EMOTION, attrs, [], None, len(items), None]
        elif top and name == COMPLEX_TAG:
            frame = [_COMPLEX, attrs, [], [], len(items), None]
        elif parent is None:
            # Any other root element serves as the document container.
            frame = [_CONTAINER, attrs, [], None, None, None]
        elif parent[0] == _COMPLEX and name == EMOTION_TAG:
            frame = [_EMOTION, attrs, [], None, parent[4], len(parent[3])]
        elif name == COMPLEX_TAG and any(f[0] == _COMPLEX for f in stack[:2]):
            # A complex-emotion frame is only ever the root or a container's child.
            raise ParseError("NESTED_COMPLEX", _NESTED_COMPLEX)
        else:
            message = f"element <{name}> is not part of the annotation vocabulary here"
            _warn(warnings, "UNRECOGNIZED_ELEMENT", message, parent)
            frame = [_IGNORED, attrs, [], None, parent[4], parent[5]]
        stack.append(frame)

    def character_data(data: str) -> None:
        # expat reports text only inside the root element.
        stack[-1][2].append(data)

    def end_element(_name: str) -> None:
        frame = stack.pop()
        kind = frame[0]
        if kind == _IGNORED:
            return
        text = "".join(frame[2])
        if text and not text.strip(" \t\n\r"):
            text = ""  # pretty-printer whitespace is not inline scope
        if kind == _COMPLEX:
            items.append(_annotation(frame, text, _SCOPE_SLOTS.get, _DROPPED, warnings))
        elif kind == _CONTAINER:
            it = iter(frame[1])
            for name, raw in zip(it, it):
                if name != "xmlns" and not name.startswith("xmlns:"):
                    message = f"attribute {name}={raw!r} not recognized on the container; dropped"
                    _warn(warnings, "UNKNOWN_ATTRIBUTE", message, frame)
            if text:
                _warn(warnings, "STRAY_TEXT", f"text outside annotations: {text.strip()!r}", frame)
        elif frame[5] is None:
            items.append(_annotation(frame, text, slot_of, _UNKNOWN, warnings))
        else:
            stack[-1][3].append(_annotation(frame, text, slot_of, _UNKNOWN, warnings))

    _expat_parse(data, start_element, end_element, character_data)
    return AnnotationDocument(items, warnings)


# ---------------------------------------------------------------------------
# Serialization


# The repr of a value that is not finite, as xs:double spells it.
_NON_FINITE = {"nan": "NaN", "inf": "INF", "-inf": "-INF"}


# The bound of each writer memo: the first values written stay, so values
# that never repeat cannot grow a memo without end.
_MEMO_BOUND = 4096
# Finite float -> its text.  Only an exact float is looked up: a subclass
# may define its own equality and hash.  -0.0 finds 0.0's entry, and both
# are written "0".
_NUMBER_TEXT: dict[float, str] = {}


def format_number(value: float) -> str:
    """Render a float with minimal digits: drop trailing zeros, keep exactness."""
    exact = type(value) is float
    if exact and (text := _NUMBER_TEXT.get(value)) is not None:
        return text
    # Below 1e16 the repr of an integral float ends in ".0"; above, it has
    # an exponent.  Only a value that is not finite ends in a letter; none
    # is stored, as the hash of a NaN is its object's and would never hit.
    # One character is read at a time: a slice would build a new string.
    text = repr(float(value))
    last = text[-1]
    if last > "9":
        return _NON_FINITE[text]
    if last == "0" and text[-2] == ".":
        text = "0" if text == "-0.0" else text[:-2]
    if exact and len(_NUMBER_TEXT) < _MEMO_BOUND:
        _NUMBER_TEXT[value] = text
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


# Attribute value -> its escaped text; labels repeat across a batch.  The
# check for characters XML cannot hold is made on the whole output, so a
# stored value is still refused on every write.  A longer value is escaped
# each time, so that distinct long hrefs cannot fill the memo with megabytes;
# labels and paths are short.
_ESCAPED_ATTRS: dict[str, str] = {}
_MEMO_VALUE_CHARS = 128


def _escaped_attr(value: str) -> str:
    exact = type(value) is str
    if exact and (text := _ESCAPED_ATTRS.get(value)) is not None:
        return text
    text = value.translate(_ATTR_TABLE)
    if exact and len(value) <= _MEMO_VALUE_CHARS and len(_ESCAPED_ATTRS) < _MEMO_BOUND:
        _ESCAPED_ATTRS[value] = text
    return text


def _scope_attrs(scope: Scope) -> str:
    # Numbers never need escaping; only the URI goes through the table.
    out = ""
    if isinstance(scope, (Reference, ReferencedTimeSpan)):
        out = f' xlink:href="{_escaped_attr(scope.uri)}"'
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        if not scope.end > scope.start:  # NaN too; the reader refuses START_AFTER_END
            message = f"time span end {scope.end} must exceed start {scope.start}"
            raise ParseError("UNSERIALIZABLE_SCOPE", message)
        out += f' start="{format_number(scope.start)}" end="{format_number(scope.end)}"'
    return out


def _inline_text(scope: InlineText) -> str:
    # The reader takes text of XML space alone for layout, and reads no scope.
    if not scope.text.strip(" \t\n\r"):
        raise ParseError("UNSERIALIZABLE_SCOPE", "inline text is blank")
    return scope.text.translate(_TEXT_TABLE)


# Descriptor names found to read back.
_WRITABLE_NAMES: set[str] = set()
_REGULATION_NAMES = frozenset(REGULATION_TYPES)
_unwritable = partial(ParseError, "UNSERIALIZABLE_NAME")


def _check_names(a: EmotionAnnotation) -> None:
    """Raise UNSERIALIZABLE_NAME for a name of ``a`` that would not read back
    as what it names; remember the descriptor names that would."""
    if both := a.dimensions.keys() & a.appraisals.keys():
        raise _unwritable(f"descriptor {min(both)!r} is both a dimension and an appraisal")
    if bad := a.regulation.keys() - _REGULATION_NAMES:
        raise _unwritable(f"regulation {min(bad)!r} is not one of {'/'.join(REGULATION_TYPES)}")
    for name in sorted({*a.dimensions, *a.appraisals} - _WRITABLE_NAMES):
        # The reader decides: not an XML name to expat, or one it reads as
        # another field (probability, hide, ...), and the value is lost.
        try:
            back = parse_document(f'<{EMOTION_TAG} {name}="0"/>').items[0]
        except ParseError:
            back = None
        if back is None or {**back.dimensions, **back.appraisals} != {name: 0.0}:
            raise _unwritable(f"descriptor {name!r} is no XML name or reads back as another field")
        if len(_WRITABLE_NAMES) < _MEMO_BOUND:
            _WRITABLE_NAMES.add(name)


def _emotion_markup(a: EmotionAnnotation) -> str:
    parts = [f"<{EMOTION_TAG}"]
    if a.category is not None:
        parts.append(f' category="{_escaped_attr(a.category)}"')
    descriptors = a.dimensions
    if a.appraisals:
        descriptors = {**descriptors, **a.appraisals} if descriptors else a.appraisals
    # Set lookups only, unless a name is new or both kinds of descriptor.
    if not (
        _WRITABLE_NAMES.issuperset(descriptors) and _REGULATION_NAMES.issuperset(a.regulation)
        and len(descriptors) == len(a.dimensions) + len(a.appraisals)
    ):
        _check_names(a)
    for name in sorted(descriptors):
        parts.append(f' {name}="{format_number(descriptors[name])}"')
    if a.intensity is not None:
        parts.append(f' intensity="{format_number(a.intensity)}"')
    if a.probability is not None:
        parts.append(f' probability="{format_number(a.probability)}"')
    for name in sorted(a.regulation):
        parts.append(f' {name}="{format_number(a.regulation[name])}"')
    if a.modality is not None:
        parts.append(f' modality="{_escaped_attr(a.modality)}"')
    scope = a.scope
    if isinstance(scope, InlineText):
        parts.append(f">{_inline_text(scope)}</{EMOTION_TAG}>")
    else:
        if not isinstance(scope, Unscoped):
            parts.append(_scope_attrs(scope))
        parts.append("/>")
    return "".join(parts)


def _complex_markup(c: ComplexEmotion) -> str:
    parts = [f"<{COMPLEX_TAG}", _scope_attrs(c.scope), ">"]
    if isinstance(c.scope, InlineText):
        parts.append(_inline_text(c.scope))
    # Constituents are kept on one line: any whitespace between them would
    # read back as inline-text scope.
    for constituent in c.constituents:
        if isinstance(constituent, ComplexEmotion):
            raise ParseError("NESTED_COMPLEX", _NESTED_COMPLEX)
        parts.append(_emotion_markup(constituent))
    parts.append(f"</{COMPLEX_TAG}>")
    return "".join(parts)


def serialize_document(doc: AnnotationDocument) -> bytes:
    """Emit canonical EARL XML bytes; refuse what would not read back: UNSERIALIZABLE_CHAR, _NAME,
    _SCOPE (a time span not ending after its start, blank inline text) or NESTED_COMPLEX."""
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

    Any other child of the root raises ``UNKNOWN_PROFILE_ELEMENT``, and a
    child with no label ``EMPTY_PROFILE_ENTRY``.
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
        # A blank label would leave its slot a wildcard, allowing every label.
        label = text.strip()
        if not label:
            raise ParseError("EMPTY_PROFILE_ENTRY", f"profile: <{tag}> entry is empty")
        buckets[tag].add(label)
    return VocabularyProfile(*buckets.values())
