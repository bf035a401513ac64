"""Reading and writing EARL XML, plus stand-off scope resolution.

The parser is built on expat with namespace processing switched off:
published EARL snippets routinely use ``xlink:href`` without declaring the
namespace, which a namespace-aware parser rejects outright.  Attribute
prefixes are therefore matched as literal text, and ``href`` is accepted
with or without the ``xlink:`` prefix.

The serializer emits one canonical form (fixed attribute order, minimal
digits, two-space indent, UTF-8) so byte-level golden tests are possible;
``parse_document(serialize_document(doc))`` equals ``doc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union
from xml.etree import ElementTree
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
)

ROOT_TAG = "earl"
EMOTION_TAG = "emotion"
COMPLEX_TAG = "complex-emotion"

_HREF_ATTRS = ("xlink:href", "href")
# "hide" appears in the wild as a regulation type; it is folded into
# "suppress" (with a warning) rather than modelled separately.
_REGULATION_ALIASES = {"hide": "suppress"}


@dataclass(frozen=True)
class AnnotationDocument:
    """An ordered collection of parsed annotations.

    ``source_uri`` and parser ``warnings`` are bookkeeping and excluded
    from equality, so round-tripped documents compare equal on the model.
    """

    items: tuple[AnnotationItem, ...] = ()
    source_uri: str | None = field(default=None, compare=False)
    warnings: tuple[Finding, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "warnings", tuple(self.warnings))


# ---------------------------------------------------------------------------
# Scope targets


@dataclass(frozen=True)
class TextSegment:
    text: str


@dataclass(frozen=True)
class MediaObject:
    uri: str
    exists: bool


@dataclass(frozen=True)
class ClipSegment:
    uri: str | None
    start: float
    end: float


ScopeTarget = Union[TextSegment, MediaObject, ClipSegment]


# ---------------------------------------------------------------------------
# Parsing


class _Frame:
    __slots__ = ("kind", "attrs", "text_parts", "children", "location")

    def __init__(self, kind: str, attrs: list[tuple[str, str]], location: str):
        self.kind = kind  # "container", "emotion", "complex", "ignored"
        self.attrs = attrs
        self.text_parts: list[str] = []
        self.children: list[EmotionAnnotation] = []
        self.location = location


class _DocumentBuilder:
    def __init__(self, profile: VocabularyProfile):
        self.profile = profile
        self.items: list[AnnotationItem] = []
        self.warnings: list[Finding] = []
        self.stack: list[_Frame] = []

    # -- expat handlers -----------------------------------------------------

    def start_element(self, name: str, attr_list: list[str]) -> None:
        attrs = list(zip(attr_list[0::2], attr_list[1::2]))
        parent = self.stack[-1] if self.stack else None

        if parent is None:
            if name == EMOTION_TAG:
                self.stack.append(_Frame("emotion", attrs, "item[0]"))
            elif name == COMPLEX_TAG:
                self.stack.append(_Frame("complex", attrs, "item[0]"))
            else:
                # Any root element may serve as the document container.
                self.stack.append(_Frame("container", attrs, ""))
            return

        if name == COMPLEX_TAG and any(f.kind == "complex" for f in self.stack):
            raise ParseError(
                "NESTED_COMPLEX", "complex-emotion may not contain another complex-emotion"
            )

        if parent.kind == "container" and name == EMOTION_TAG:
            self.stack.append(_Frame("emotion", attrs, f"item[{len(self.items)}]"))
        elif parent.kind == "container" and name == COMPLEX_TAG:
            self.stack.append(_Frame("complex", attrs, f"item[{len(self.items)}]"))
        elif parent.kind == "complex" and name == EMOTION_TAG:
            loc = f"{parent.location}.constituent[{len(parent.children)}]"
            self.stack.append(_Frame("emotion", attrs, loc))
        else:
            self.warn(
                "UNRECOGNIZED_ELEMENT",
                f"element <{name}> is not part of the annotation vocabulary here",
                parent.location or "document",
            )
            self.stack.append(_Frame("ignored", attrs, parent.location))

    def character_data(self, data: str) -> None:
        if self.stack:
            self.stack[-1].text_parts.append(data)

    def end_element(self, _name: str) -> None:
        frame = self.stack.pop()
        if frame.kind == "ignored":
            return
        text = "".join(frame.text_parts)
        if not text.strip(" \t\n\r"):
            text = ""  # pretty-printer whitespace is not inline scope
        if frame.kind == "container":
            if text:
                self.warn("STRAY_TEXT", f"text outside annotations: {text.strip()!r}", "document")
            return
        if frame.kind == "emotion":
            annotation = self._build_annotation(frame, text)
            if self.stack and self.stack[-1].kind == "complex":
                self.stack[-1].children.append(annotation)
            else:
                self.items.append(annotation)
        else:  # complex
            self.items.append(self._build_complex(frame, text))

    # -- construction -------------------------------------------------------

    def warn(self, code: str, message: str, location: str) -> None:
        self.warnings.append(Finding("warning", code, message, location))

    def _number(self, name: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ParseError(
                "UNPARSEABLE_NUMBER", f"attribute {name}={raw!r} is not a number"
            ) from None

    def _scope(
        self,
        uri: str | None,
        start: float | None,
        end: float | None,
        text: str,
        loc: str,
    ) -> Scope:
        if (start is None) != (end is None):
            self.warn(
                "INCOMPLETE_TIMESPAN",
                "start and end must be given together; lone value ignored",
                loc,
            )
            start = end = None
        if start is not None and end is not None and not end > start:
            raise ParseError("START_AFTER_END", f"start={start} end={end}")
        if text and (uri is not None or start is not None):
            self.warn(
                "AMBIGUOUS_SCOPE",
                "element has both attribute scope and enclosed text; text ignored",
                loc,
            )
            text = ""
        if uri is not None and start is not None:
            return ReferencedTimeSpan(uri, start, end)
        if uri is not None:
            return Reference(uri)
        if start is not None:
            return TimeSpan(start, end)
        if text:
            return InlineText(text)
        return UNSCOPED

    def _build_annotation(self, frame: _Frame, text: str) -> EmotionAnnotation:
        category = modality = uri = None
        intensity = probability = start = end = None
        dimensions: dict[str, float] = {}
        appraisals: dict[str, float] = {}
        regulation: dict[str, float] = {}

        for name, raw in frame.attrs:
            if name == "category":
                category = raw
            elif name == "modality":
                modality = raw
            elif name == "intensity":
                intensity = self._number(name, raw)
            elif name == "probability":
                probability = self._number(name, raw)
            elif name == "start":
                start = self._number(name, raw)
            elif name == "end":
                end = self._number(name, raw)
            elif name in _HREF_ATTRS:
                uri = raw
            elif name in REGULATION_TYPES:
                regulation[name] = self._number(name, raw)
            elif name in _REGULATION_ALIASES:
                canonical = _REGULATION_ALIASES[name]
                regulation[canonical] = self._number(name, raw)
                self.warn(
                    "REGULATION_ALIAS",
                    f"regulation {name!r} read as {canonical!r}",
                    frame.location,
                )
            elif name in self.profile.dimension_names:
                dimensions[name] = self._number(name, raw)
            elif name in self.profile.appraisal_names:
                appraisals[name] = self._number(name, raw)
            elif name in CLASSIC_DIMENSION_NAMES:
                dimensions[name] = self._number(name, raw)
            elif name in CLASSIC_APPRAISAL_NAMES:
                appraisals[name] = self._number(name, raw)
            else:
                try:
                    value = float(raw)
                except ValueError:
                    self.warn(
                        "UNKNOWN_ATTRIBUTE",
                        f"attribute {name}={raw!r} not recognized; dropped",
                        frame.location,
                    )
                else:
                    appraisals[name] = value
                    self.warn(
                        "UNKNOWN_ATTRIBUTE",
                        f"attribute {name!r} not in profile; kept as appraisal",
                        frame.location,
                    )

        scope = self._scope(uri, start, end, text, frame.location)
        return EmotionAnnotation(
            category=category,
            dimensions=dimensions,
            appraisals=appraisals,
            intensity=intensity,
            probability=probability,
            regulation=regulation,
            modality=modality,
            scope=scope,
        )

    def _build_complex(self, frame: _Frame, text: str) -> ComplexEmotion:
        uri = start = end = None
        for name, raw in frame.attrs:
            if name in _HREF_ATTRS:
                uri = raw
            elif name == "start":
                start = self._number(name, raw)
            elif name == "end":
                end = self._number(name, raw)
            else:
                self.warn(
                    "UNKNOWN_ATTRIBUTE",
                    f"attribute {name}={raw!r} not recognized on {COMPLEX_TAG}; dropped",
                    frame.location,
                )
        scope = self._scope(uri, start, end, text, frame.location)
        return ComplexEmotion(constituents=tuple(frame.children), scope=scope)


def parse_document(
    data: bytes | str,
    profile: VocabularyProfile = DEFAULT_PROFILE,
    source_uri: str | None = None,
) -> AnnotationDocument:
    """Parse EARL XML into an :class:`AnnotationDocument`.

    The root may be a container element holding any number of ``emotion``
    and ``complex-emotion`` elements, or a single annotation element on its
    own.  Which attributes count as dimensions versus appraisals is decided
    by ``profile``; unknown numeric attributes are kept as appraisals with a
    warning, so no input attribute is ever dropped silently.
    """
    builder = _DocumentBuilder(profile)
    parser = expat.ParserCreate(namespace_separator=None)
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseError("MALFORMED_XML", str(exc)) from None
    return AnnotationDocument(
        items=tuple(builder.items),
        source_uri=source_uri,
        warnings=tuple(builder.warnings),
    )


# ---------------------------------------------------------------------------
# Serialization


def format_number(value: float) -> str:
    """Render a float with minimal digits: drop trailing zeros, keep exactness."""
    value = float(value)
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
# \r would be normalized to \n on re-parse, and tab and newline in an
# attribute value to spaces; keep them as character references.
_TEXT_TABLE = str.maketrans(_TEXT_ESCAPES)
_ATTR_TABLE = str.maketrans(
    {**_TEXT_ESCAPES, '"': "&quot;", "\t": "&#9;", "\n": "&#10;"}
)


def _attr(name: str, value: str) -> str:
    return f' {name}="{value.translate(_ATTR_TABLE)}"'


def _text(value: str) -> str:
    return value.translate(_TEXT_TABLE)


def _scope_attrs(scope: Scope) -> str:
    if isinstance(scope, Reference):
        return _attr("xlink:href", scope.uri)
    if isinstance(scope, TimeSpan):
        return _attr("start", format_number(scope.start)) + _attr("end", format_number(scope.end))
    if isinstance(scope, ReferencedTimeSpan):
        return (
            _attr("xlink:href", scope.uri)
            + _attr("start", format_number(scope.start))
            + _attr("end", format_number(scope.end))
        )
    return ""


def _emotion_markup(a: EmotionAnnotation) -> str:
    parts = [f"<{EMOTION_TAG}"]
    if a.category is not None:
        parts.append(_attr("category", a.category))
    descriptors = {**a.dimensions, **a.appraisals}
    for name in sorted(descriptors):
        parts.append(_attr(name, format_number(descriptors[name])))
    if a.intensity is not None:
        parts.append(_attr("intensity", format_number(a.intensity)))
    if a.probability is not None:
        parts.append(_attr("probability", format_number(a.probability)))
    for name in sorted(a.regulation):
        parts.append(_attr(name, format_number(a.regulation[name])))
    if a.modality is not None:
        parts.append(_attr("modality", a.modality))
    parts.append(_scope_attrs(a.scope))
    if isinstance(a.scope, InlineText):
        parts.append(f">{_text(a.scope.text)}</{EMOTION_TAG}>")
    else:
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
    """Emit canonical EARL XML bytes for a document."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not doc.items:
        lines.append(f"<{ROOT_TAG}/>")
    else:
        lines.append(f"<{ROOT_TAG}>")
        for item in doc.items:
            markup = (
                _complex_markup(item)
                if isinstance(item, ComplexEmotion)
                else _emotion_markup(item)
            )
            lines.append("  " + markup)
        lines.append(f"</{ROOT_TAG}>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Scope resolution


def resolve_scope(item: AnnotationItem, corpus_root: str | Path) -> ScopeTarget:
    """Resolve an annotation's scope against files under ``corpus_root``.

    References may not escape the corpus directory; existence of the
    referenced media is checked, not required.
    """
    scope = item.scope
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
    """
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise ParseError("MALFORMED_XML", f"profile: {exc}") from None
    buckets: dict[str, set[str]] = {
        "category": set(),
        "dimension": set(),
        "appraisal": set(),
        "modality": set(),
    }
    for child in root:
        label = (child.text or "").strip()
        if child.tag in buckets and label:
            buckets[child.tag].add(label)
    return VocabularyProfile(
        categories=frozenset(buckets["category"]),
        dimension_names=frozenset(buckets["dimension"]),
        appraisal_names=frozenset(buckets["appraisal"]),
        modalities=frozenset(buckets["modality"]),
    )
