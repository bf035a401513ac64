"""Each layer of the pipeline restated plainly, for reading rather than speed:
the oracles the tests compare the library with.  One function per layer; each
raises what its layer raises, so a test can compare errors as well as results.
"""

import math
import re
import unicodedata
from types import SimpleNamespace
from xml.parsers import expat
from xml.sax.saxutils import escape

from earlkit.earl_xml import AnnotationDocument
from earlkit.errors import EarlError, FusionError, ParseError
from earlkit.fusion import FusedEstimate, MarkerEvidence
from earlkit.markers import MOVEMENT_PATTERNS, VOICE_PATTERNS, RankedEmotion, VoiceFeatureDelta
from earlkit.model import (
    BEHAVIOR_FOR_EMOTION, CLASSIC_APPRAISAL_NAMES, CLASSIC_DIMENSION_NAMES,
    FIELD_ATTRIBUTES, REGULATION_TYPES, SOURCE_MODALITY, SOURCE_WEIGHTS, UNSCOPED,
    ComplexEmotion, EmotionAnnotation, Finding, InlineText, Reference, ReferencedTimeSpan,
    TimeSpan, Unscoped,
)

# ---------------------------------------------------------------------------
# EARL numbers and the writer.  The writer is restated without its checks of
# names and characters: whether a name reads back is the reader's to say,
# ``writable`` says which text XML can hold, and the tests of the writer's
# refusals compare against these unchecked bytes.

_ATTR_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def format_number(value):
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _attr(name, value):
    return f' {name}="{escape(value, _ATTR_ENTITIES)}"'


# XML 1.0, production [2] Char: the characters a document can hold at all,
# as themselves or as character references.
_XML_CHARS = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")


def writable(text):
    """Whether an XML 1.0 document can hold ``text``."""
    return _XML_CHARS.fullmatch(text) is not None


def _scope_attrs(scope):
    out = ""
    if isinstance(scope, (Reference, ReferencedTimeSpan)):
        out += _attr("xlink:href", scope.uri)
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        out += _attr("start", format_number(scope.start))
        out += _attr("end", format_number(scope.end))
    return out


def _emotion(a):
    parts = ["<emotion"]
    if a.category is not None:
        parts.append(_attr("category", a.category))
    descriptors = {**a.dimensions, **a.appraisals}
    for name in sorted(descriptors):
        parts.append(_attr(name, format_number(descriptors[name])))
    for name in ("intensity", "probability"):
        if getattr(a, name) is not None:
            parts.append(_attr(name, format_number(getattr(a, name))))
    for name in sorted(a.regulation):
        parts.append(_attr(name, format_number(a.regulation[name])))
    if a.modality is not None:
        parts.append(_attr("modality", a.modality))
    parts.append(_scope_attrs(a.scope))
    if isinstance(a.scope, InlineText):
        parts.append(f">{escape(a.scope.text, {chr(13): '&#13;'})}</emotion>")
    else:
        parts.append("/>")
    return "".join(parts)


def _complex(c):
    text = escape(c.scope.text, {"\r": "&#13;"}) if isinstance(c.scope, InlineText) else ""
    inner = "".join(_emotion(x) for x in c.constituents)
    return f"<complex-emotion{_scope_attrs(c.scope)}>{text}{inner}</complex-emotion>"


def serialize(doc):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not doc.items:
        lines.append("<earl/>")
    else:
        lines.append("<earl>")
        for item in doc.items:
            markup = _complex(item) if isinstance(item, ComplexEmotion) else _emotion(item)
            lines.append("  " + markup)
        lines.append("</earl>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# The reader: one frame object per open element, its location string built at
# its start.

_HREF_ATTRS = ("xlink:href", "href")
_ALIASES = {"hide": "suppress"}


class _Frame:
    def __init__(self, kind, attrs, location):
        self.kind, self.attrs, self.location = kind, attrs, location
        self.text_parts, self.children = [], []


def _kinds(profile):
    kinds = dict.fromkeys(CLASSIC_APPRAISAL_NAMES, "appraisal")
    kinds.update(dict.fromkeys(CLASSIC_DIMENSION_NAMES, "dimension"))
    kinds.update(dict.fromkeys(profile.appraisal_names, "appraisal"))
    kinds.update(dict.fromkeys(profile.dimension_names, "dimension"))
    kinds.update(dict.fromkeys(_ALIASES, "alias"))
    kinds.update(dict.fromkeys(REGULATION_TYPES, "regulation"))
    kinds.update(dict.fromkeys(_HREF_ATTRS, "uri"))
    fixed = ("category", "modality", "intensity", "probability", "start", "end")
    kinds.update(zip(fixed, fixed))
    return kinds


# XML Schema 1.1 Part 2, 3.3.5: a decimal or scientific numeral, or INF, +INF,
# -INF or NaN, after the collapse facet has stripped XML whitespace.
_NUMERAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?", re.ASCII)


def _double(raw):
    text = raw.strip(" \t\n\r")
    if text in ("INF", "+INF", "-INF", "NaN") or _NUMERAL.fullmatch(text):
        return float(text)
    raise ValueError(raw)


def _number(name, raw):
    try:
        return _double(raw)
    except ValueError:
        raise ParseError("UNPARSEABLE_NUMBER", f"attribute {name}={raw!r} is not a number")


class _Reader:
    def __init__(self, profile):
        self.kinds = _kinds(profile)
        self.items, self.warnings, self.stack = [], [], []

    def warn(self, code, message, location):
        self.warnings.append(Finding("warning", code, message, location))

    def doctype(self, *_declaration):
        raise ParseError("DTD_NOT_ALLOWED", "a DOCTYPE declaration is not allowed")

    def start_element(self, name, attrs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if name == "complex-emotion" and any(f.kind == "complex" for f in stack):
            raise ParseError(
                "NESTED_COMPLEX", "complex-emotion may not contain another complex-emotion"
            )
        top = parent is None or parent.kind == "container"
        if top and name in ("emotion", "complex-emotion"):
            kind = "emotion" if name == "emotion" else "complex"
            stack.append(_Frame(kind, attrs, f"item[{len(self.items)}]"))
        elif parent is None:
            stack.append(_Frame("container", attrs, ""))
        elif parent.kind == "complex" and name == "emotion":
            loc = f"{parent.location}.constituent[{len(parent.children)}]"
            stack.append(_Frame("emotion", attrs, loc))
        else:
            message = f"element <{name}> is not part of the annotation vocabulary here"
            self.warn("UNRECOGNIZED_ELEMENT", message, parent.location or "document")
            stack.append(_Frame("ignored", attrs, parent.location))

    def character_data(self, data):
        if self.stack:
            self.stack[-1].text_parts.append(data)

    def end_element(self, _name):
        frame = self.stack.pop()
        if frame.kind == "ignored":
            return
        text = "".join(frame.text_parts)
        if not text.strip(" \t\n\r"):
            text = ""
        if frame.kind == "container":
            it = iter(frame.attrs)
            for name, raw in zip(it, it):
                if name != "xmlns" and not name.startswith("xmlns:"):
                    message = f"attribute {name}={raw!r} not recognized on the container; dropped"
                    self.warn("UNKNOWN_ATTRIBUTE", message, "document")
            if text:
                self.warn("STRAY_TEXT", f"text outside annotations: {text.strip()!r}", "document")
        elif frame.kind == "emotion":
            annotation = self.annotation(frame, text)
            if self.stack and self.stack[-1].kind == "complex":
                self.stack[-1].children.append(annotation)
            else:
                self.items.append(annotation)
        else:
            self.items.append(self.complex(frame, text))

    def scope(self, uri, start, end, text, loc):
        if (start is None) != (end is None):
            message = "start and end must be given together; lone value ignored"
            self.warn("INCOMPLETE_TIMESPAN", message, loc)
            start = end = None
        if start is not None and not end > start:
            raise ParseError("START_AFTER_END", f"start={start} end={end}")
        if text and (uri is not None or start is not None):
            message = "element has both attribute scope and enclosed text; text ignored"
            self.warn("AMBIGUOUS_SCOPE", message, loc)
            text = ""
        if uri is not None and start is not None:
            return ReferencedTimeSpan(uri, start, end)
        if uri is not None:
            return Reference(uri)
        if start is not None:
            return TimeSpan(start, end)
        return InlineText(text) if text else UNSCOPED

    def annotation(self, frame, text):
        fields = dict.fromkeys(("category", "modality", "uri", "intensity", "probability"))
        fields.update(start=None, end=None)
        groups = {"dimension": {}, "appraisal": {}, "regulation": {}}
        it = iter(frame.attrs)
        for name, raw in zip(it, it):
            kind = self.kinds.get(name)
            if kind is None:
                try:
                    groups["appraisal"][name] = _double(raw)
                except ValueError:
                    message = f"attribute {name}={raw!r} not recognized; dropped"
                else:
                    message = f"attribute {name!r} not in profile; kept as appraisal"
                self.warn("UNKNOWN_ATTRIBUTE", message, frame.location)
            elif kind in ("category", "modality", "uri"):
                fields[kind] = raw
            elif kind in groups:
                groups[kind][name] = _number(name, raw)
            elif kind == "alias":
                value = _number(name, raw)
                groups["regulation"][_ALIASES[name]] = value
                message = f"regulation {name!r} read as {_ALIASES[name]!r}"
                self.warn("REGULATION_ALIAS", message, frame.location)
            else:
                fields[kind] = _number(name, raw)
        return EmotionAnnotation(
            category=fields["category"],
            dimensions=groups["dimension"],
            appraisals=groups["appraisal"],
            intensity=fields["intensity"],
            probability=fields["probability"],
            regulation=groups["regulation"],
            modality=fields["modality"],
            scope=self.scope(fields["uri"], fields["start"], fields["end"], text, frame.location),
        )

    def complex(self, frame, text):
        uri = start = end = None
        it = iter(frame.attrs)
        for name, raw in zip(it, it):
            if name in _HREF_ATTRS:
                uri = raw
            elif name == "start":
                start = _number(name, raw)
            elif name == "end":
                end = _number(name, raw)
            else:
                message = f"attribute {name}={raw!r} not recognized on complex-emotion; dropped"
                self.warn("UNKNOWN_ATTRIBUTE", message, frame.location)
        scope = self.scope(uri, start, end, text, frame.location)
        return ComplexEmotion(constituents=tuple(frame.children), scope=scope)


def parse(data, profile):
    reader = _Reader(profile)
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartDoctypeDeclHandler = reader.doctype
    parser.StartElementHandler = reader.start_element
    parser.EndElementHandler = reader.end_element
    parser.CharacterDataHandler = reader.character_data
    if isinstance(data, str):
        try:
            data = data.encode()
        except UnicodeEncodeError as exc:
            message = f"U+{ord(data[exc.start]):04X} at index {exc.start} is not encodable as UTF-8"
            raise ParseError("MALFORMED_XML", message)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseError("MALFORMED_XML", str(exc))
    return AnnotationDocument(items=tuple(reader.items), warnings=tuple(reader.warnings))


# ---------------------------------------------------------------------------
# Markers.  A word is a maximal run of letters and combining marks in the
# lowercased text, normalized to NFC, whatever its script; phrases match with
# one consumed flag per token, then single words on the tokens no phrase
# consumed.  A classifier scores +1 per pattern field matched and -1 per field
# pointing the opposite way, divided by pattern size and clamped to [0, 1],
# and ranks by descending score, then label.


def tokenize(text):
    tokens, word = [], []
    for char in unicodedata.normalize("NFC", text.lower()) + " ":
        if unicodedata.category(char).startswith(("L", "M")):
            word.append(char)
        elif word:
            tokens.append("".join(word))
            word = []
    return tokens


def tag_lexical(text, lexicon):
    tokens = tokenize(text)
    consumed = [False] * len(tokens)
    hits = {}
    for parts, emotion in lexicon._phrases:
        n = len(parts)
        for i in range(len(tokens) - n + 1):
            if tokens[i : i + n] == parts and not any(consumed[i : i + n]):
                hits.setdefault(emotion, []).extend(parts)
                consumed[i : i + n] = [True] * n
    for token, used in zip(tokens, consumed):
        if not used and token in lexicon._single:
            hits.setdefault(lexicon._single[token], []).append(token)
    total = sum(len(matched) for matched in hits.values())
    return [
        (
            EmotionAnnotation(
                category=emotion, modality="language",
                intensity=min(1.0, len(hits[emotion]) / 3),
                probability=len(hits[emotion]) / total, scope=InlineText(text),
            ),
            hits[emotion],
        )
        for emotion in sorted(hits)
    ]


# The values each descriptor field accepts.
VOICE_ALLOWED = {
    name: ("downward", "upward", "flat") if name == "f0_contour" else ("up", "down", "flat")
    for name in VoiceFeatureDelta._fields
}
MOVEMENT_ALLOWED = {
    "duration": ("short", "mid", "long"),
    "tempo_changes": ("frequent", "few", "neutral"),
    "stop_length": ("short", "mid", "long"),
    "spatial_extent": ("outward_from_centre", "close_to_centre", "neutral"),
    "tension": ("dynamic_high", "sustained_high", "continuously_low", "dynamic_varying", "neutral"),
}

_VOICE_OPPOSITES = {("up", "down"), ("downward", "upward")}
_MOVEMENT_OPPOSITES = {
    "duration": {("short", "long")},
    "tempo_changes": {("frequent", "few")},
    "stop_length": {("short", "long")},
    "spatial_extent": {("outward_from_centre", "close_to_centre")},
    "tension": {("dynamic_high", "continuously_low"), ("sustained_high", "continuously_low")},
}


def rank(descriptor):
    """classify_voice or classify_movement, by the descriptor's type."""
    if isinstance(descriptor, VoiceFeatureDelta):
        patterns = VOICE_PATTERNS
        opposites = dict.fromkeys(VoiceFeatureDelta._fields, _VOICE_OPPOSITES)
    else:
        patterns, opposites = MOVEMENT_PATTERNS, _MOVEMENT_OPPOSITES
    ranked = []
    for label, pattern in patterns.items():
        net, matched = 0, []
        for name, expected in pattern.items():
            value = getattr(descriptor, name)
            pairs = opposites[name]
            if value == expected:
                net += 1
                matched.append(name)
            elif (value, expected) in pairs or (expected, value) in pairs:
                net -= 1
        score = min(1.0, max(0.0, net / len(pattern))) if pattern else 0.0
        ranked.append(RankedEmotion(label, score, tuple(matched)))
    return sorted(ranked, key=lambda r: (-r.score, r.label))


# ---------------------------------------------------------------------------
# The validator, with a descriptor loop per kind and the verdict counted from
# the findings.


def _scope_problems(scope):
    if isinstance(scope, Unscoped):
        return []
    if isinstance(scope, InlineText):
        # The reader takes text of XML space alone for layout: it reads back as no scope.
        return [] if scope.text.strip(" \t\r\n") else ["inline text is blank"]
    problems = []
    if isinstance(scope, (Reference, ReferencedTimeSpan)) and not scope.uri:
        problems.append("reference URI is empty")
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        if scope.start < 0:
            problems.append("time span start is negative")
        if not scope.end > scope.start:
            problems.append(f"time span end {scope.end} must exceed start {scope.start}")
    return problems


def _check(a, profile, where, out):
    def emit(code, message, suffix="", severity="error"):
        out.append((severity, code, message, where + suffix))

    if a.category is None and not a.dimensions and not a.appraisals:
        emit("MISSING_DESCRIPTOR", "annotation carries no category, dimensions, or appraisals")
    if a.category == "":
        emit("EMPTY_CATEGORY", "category is empty", ".category")
    elif a.category is not None and profile.categories and a.category not in profile.categories:
        emit("UNKNOWN_CATEGORY", f"category {a.category!r} not in profile", ".category")
    for descriptors in (a.dimensions, a.appraisals):
        for name in sorted(FIELD_ATTRIBUTES & descriptors.keys()):
            emit("UNSERIALIZABLE_NAME", f"descriptor {name!r} reads back as another field",
                 f".{name}")
    for name in a.dimensions:
        if name in a.appraisals:
            emit("UNSERIALIZABLE_NAME",
                 f"descriptor {name!r} is both a dimension and an appraisal", f".{name}")
    for name, value in a.dimensions.items():
        if profile.dimension_names and name not in profile.dimension_names:
            emit("UNKNOWN_DIMENSION", f"dimension {name!r} not in profile", f".{name}")
        if not -1.0 <= value <= 1.0:
            emit("RANGE", f"{name}={value} outside [-1.0, 1.0]", f".{name}")
    for name, value in a.appraisals.items():
        if profile.appraisal_names and name not in profile.appraisal_names:
            emit("UNKNOWN_APPRAISAL", f"appraisal {name!r} not in profile", f".{name}")
        if not -1.0 <= value <= 1.0:
            emit("RANGE", f"{name}={value} outside [-1.0, 1.0]", f".{name}")
    for field in ("intensity", "probability"):
        value = getattr(a, field)
        if value is not None and not 0.0 <= value <= 1.0:
            emit("RANGE", f"{field}={value} outside [0.0, 1.0]", f".{field}")
    for name, value in a.regulation.items():
        if name not in REGULATION_TYPES:
            emit("UNKNOWN_REGULATION",
                 f"regulation key {name!r} not one of simulate/suppress/amplify/attenuate",
                 f".{name}")
        elif not 0.0 <= value <= 1.0:
            emit("RANGE", f"{name}={value} outside [0.0, 1.0]", f".{name}")
        elif value == 0.0:
            emit("NOOP_REGULATION", f"{name}=0 has no effect", f".{name}", "warning")
    if a.modality is not None and profile.modalities and a.modality not in profile.modalities:
        emit("UNKNOWN_MODALITY", f"modality {a.modality!r} not in profile", ".modality")
    for problem in _scope_problems(a.scope):
        emit("MALFORMED_SCOPE", problem, ".scope")


def validate(item, profile):
    """``(findings as (severity, code, message, location), ok)``."""
    out = []
    if isinstance(item, ComplexEmotion):
        count = len(item.constituents)
        if count < 2:
            message = f"complex emotion has {count} constituent(s), needs at least 2"
            out.append(("error", "TOO_FEW_CONSTITUENTS", message, "complex"))
        for i, constituent in enumerate(item.constituents):
            where = f"complex.constituent[{i}]"
            if isinstance(constituent, ComplexEmotion):
                message = "complex-emotion may not contain another complex-emotion"
                out.append(("error", "NESTED_COMPLEX", message, where))
                continue
            if isinstance(constituent.scope, (Reference, TimeSpan, ReferencedTimeSpan)):
                message = "constituent carries its own stand-off scope; scope lives on the group"
                out.append(("error", "CONSTITUENT_SCOPE", message, where + ".scope"))
            _check(constituent, profile, where, out)
        for problem in _scope_problems(item.scope):
            out.append(("error", "MALFORMED_SCOPE", problem, "complex.scope"))
    else:
        _check(item, profile, "annotation", out)
    return out, all(severity != "error" for severity, *_ in out)


# ---------------------------------------------------------------------------
# Decay and fusion.  Composed, fuse(fill_missing(state, now, cfg), cfg) is the
# whole estimate of a temporal state, errors in the order the two calls meet
# them.


def fill_missing(state, now, cfg):
    """A stand-in per remembered source, as fill_missing's docstring states:
    in ascending source order, p decayed as p * exp(-lambda * elapsed), those
    below the drop floor left out, and an item whose p does not change
    returned itself."""
    if not math.isfinite(now):
        raise FusionError("BAD_TIME", f"now={now} is not a finite time")
    if now < state.clock:
        raise FusionError("TIME_REGRESSION", f"now={now} behind clock t={state.clock}")
    stand_ins = []
    for source in sorted(state.last_evidence):
        item = state.last_evidence[source]
        elapsed = now - item.timestamp
        if elapsed < 0.0:
            raise FusionError(
                "TIME_REGRESSION", f"now={now} behind {source!r} evidence at t={item.timestamp}"
            )
        a = item.annotation
        p = 1.0 if a.probability is None else a.probability
        # No decay is exactly no decay, even when lambda * elapsed would be
        # 0 * inf.
        if cfg.decay_lambda == 0.0 or elapsed == 0.0:
            decayed = p
        else:
            decayed = p * math.exp(-cfg.decay_lambda * elapsed)
        if decayed < cfg.drop_floor:
            continue
        if decayed == a.probability:
            stand_ins.append(item)
            continue
        annotation = EmotionAnnotation(
            category=a.category,
            dimensions=a.dimensions,
            appraisals=a.appraisals,
            intensity=a.intensity,
            probability=decayed,
            regulation=a.regulation,
            modality=a.modality,
            scope=a.scope,
        )
        stand_ins.append(
            MarkerEvidence(annotation=annotation, source=item.source, timestamp=item.timestamp)
        )
    return stand_ins


def fuse(items, cfg):
    """fuse_instant as ``(scores, dominant, ambiguous)``: the items folded in
    (source, timestamp, category) order, whatever order they came in."""
    if not items:
        return {}, None, False
    ordered = sorted(items, key=lambda e: (e.source, e.timestamp, e.annotation.category))
    total, mass = 0.0, {}
    for item in ordered:
        weight = cfg.weight_overrides.get(item.source, SOURCE_WEIGHTS[item.source])
        total += weight
        a = item.annotation
        p = 1.0 if a.probability is None else a.probability
        i = 1.0 if a.intensity is None else a.intensity
        mass[a.category] = mass.get(a.category, 0.0) + weight * p * i
    if total == 0.0:
        raise FusionError("ZERO_WEIGHT", "all evidence sources have weight 0")
    if total == math.inf:
        raise FusionError("WEIGHT_OVERFLOW", f"evidence weights sum to {total}")
    scores = {category: value / total for category, value in mass.items()}
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    ambiguous = len(ranked) > 1 and scores[ranked[0]] - scores[ranked[1]] < cfg.ambiguity_epsilon
    return scores, ranked[0], ambiguous


# ---------------------------------------------------------------------------
# The need profile, and the access decision read off it.


def needs(scores):
    """infer_needs as ``(orientations, unmapped)``: orientations by descending
    score, then behavior, stably over categories in name order."""
    orientations, unmapped = [], []
    for category in sorted(scores):
        behavior = BEHAVIOR_FOR_EMOTION.get(category)
        if behavior is None:
            unmapped.append(category)
        else:
            orientations.append((behavior, scores[category]))
    orientations.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(orientations), tuple(unmapped)


def decision(estimate, resource, policy):
    """(verdict, rationale, rule); a behavior's strength is the sum of its
    entries in the need profile.  ValueError when a category a rule reads
    scores NaN or below 0."""
    orientations, _ = needs(estimate.scores)
    note = "; ambiguous estimate" if estimate.ambiguous else ""
    for rule in policy.rules:
        if rule.resource != resource:
            continue
        for category, score in sorted(estimate.scores.items()):
            if BEHAVIOR_FOR_EMOTION.get(category) == rule.behavior and not score >= 0.0:
                raise ValueError(f"score {score} of {category!r} is not a number >= 0")
        strength = sum((s for b, s in orientations if b == rule.behavior), 0.0)
        if strength >= rule.threshold:
            rationale = (
                f"rule '{rule.resource} deny_when {rule.behavior} >= "
                f"{rule.threshold}' triggered: {rule.behavior}={strength:.4f}{note}"
            )
            return "deny", rationale, rule
    return "allow", f"no rule matched{note}", None


# ---------------------------------------------------------------------------
# What ``earlkit fuse`` and ``earlkit decide`` print, composed from the
# oracles above and a plain reader of the stream file.  The config, profile
# and policy come loaded; only the glue between the layers is restated.


def _stream(data, profile):
    """The evidence of a stream file in line order; ValueError for a bad line."""
    evidence = []
    for line in re.split("\r\n|\r|\n", data.decode("utf-8")):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 5:
            raise ValueError(line)
        t, source, category, p, i = fields
        if profile is not None and profile.categories and category not in profile.categories:
            raise ValueError(category)
        annotation = EmotionAnnotation(
            category=category, intensity=float(i), probability=float(p),
            modality=SOURCE_MODALITY.get(source),
        )
        evidence.append(MarkerEvidence(annotation=annotation, source=source, timestamp=float(t)))
    return evidence


def run_stream(stream_bytes, command, cfg, at, profile, policy, resource):
    """``(exit code, stdout bytes)`` of ``command`` ("fuse" or "decide") on a
    stream file: the last observation of each source, decayed to ``at`` (the
    last timestamp when None) and fused; ``fuse`` writes the categories at or
    above the constituent threshold, strongest first, and ``decide`` the
    first rule for ``resource`` that fires.  Any input error, or no evidence
    live at ``at``, exits 2 and prints nothing."""
    try:
        evidence = _stream(stream_bytes, profile)
        if not evidence:
            return 2, b""
        state = SimpleNamespace(last_evidence={}, clock=0.0)
        for item in evidence:
            if item.timestamp < state.clock:
                return 2, b""
            state.last_evidence[item.source] = item
            state.clock = item.timestamp
        now = state.clock if at is None else at
        live = fill_missing(state, now, cfg)
        if not live:
            return 2, b""
        scores, dominant, ambiguous = fuse(live, cfg)
    except (EarlError, ValueError):
        return 2, b""
    if command == "fuse":
        threshold = cfg.constituent_threshold
        qualifying = sorted((c for c in scores if scores[c] >= threshold),
                            key=lambda c: (-scores[c], c))
        if not qualifying or not all(writable(c) for c in qualifying):
            return 2, b""
        constituents = tuple(EmotionAnnotation(category=c, probability=scores[c])
                             for c in qualifying)
        item = constituents[0] if len(constituents) == 1 else ComplexEmotion(constituents)
        return 0, serialize(AnnotationDocument(items=(item,)))
    if all(rule.resource != resource for rule in policy.rules):
        return 2, b""
    verdict, rationale, _ = decision(FusedEstimate(scores, dominant, ambiguous), resource, policy)
    return 3 if verdict == "deny" else 0, f"{verdict}\t{rationale}\n".encode()
