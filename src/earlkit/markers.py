"""Marker knowledge base: word lists, vocal and movement signatures.

Three rule classifiers turn already-extracted feature descriptors into
ranked emotion candidates; raw audio/video processing is out of scope.
Directions are categorical on purpose: the source findings state only
whether a property goes up or down for an emotion, never by how much, so
any magnitude would be invented.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from operator import attrgetter
from types import MappingProxyType

from .errors import LexiconError, MarkerError, read_lines
from .model import EmotionAnnotation, InlineText, _Record
from .model import (  # noqa: F401  (re-exported for callers of this module)
    BEHAVIOR_FOR_EMOTION, EMOTION_ALIASES, SOURCE_MODALITY, SOURCE_WEIGHTS,
    base_weight_for_source, behavior_for_emotion,
)

# ---------------------------------------------------------------------------
# Lexical markers

_words = re.compile(r"[a-z]+").findall


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-letter boundaries."""
    return _words(text.lower())


class Lexicon(_Record):
    """Emotion label -> set of lexical markers.

    Markers are stored tokenized (lowercase, space-joined); most are single
    words but multiword phrases such as "goose bumps" are kept whole and
    matched as contiguous token runs.  ``entries`` is a read-only view, so a
    lexicon can be shared and its marker index, built once at construction,
    never goes stale.
    """

    def __init__(self, entries: Mapping[str, frozenset[str]]):
        entries = {emotion: frozenset(markers) for emotion, markers in entries.items()}
        single = {}
        phrases = []
        for emotion, markers in entries.items():
            for marker in sorted(markers, key=lambda m: (-m.count(" "), m)):
                if " " in marker:
                    phrases.append((marker.split(" "), emotion))
                else:
                    single[marker] = emotion
        # The marker index is no __init__ parameter, so no field: single-word
        # marker -> emotion; (tokens, emotion) per phrase in matching
        # precedence (emotions in entry order; within one, longer phrases
        # first, then alphabetical, so no set order leaks in); and the
        # phrases' first tokens.
        self.__dict__.update(
            entries=MappingProxyType(entries),
            _single=single,
            _phrases=tuple(phrases),
            _phrase_heads=frozenset(p[0] for p, _ in phrases),
        )


def load_lexicon(data: bytes | str) -> Lexicon:
    """Parse the line-oriented lexicon format.

    One line per emotion: ``emotion: marker, marker, ...``; blank lines and
    ``#`` comments are skipped.  Markers are normalized through the same
    tokenizer used for matching.
    """
    entries: dict[str, frozenset[str]] = {}
    seen: dict[str, str] = {}
    for line_no, line in read_lines(data, LexiconError, "BAD_LEXICON"):
        emotion, _, rest = line.partition(":")
        emotion = emotion.strip().lower()
        markers = set()
        for raw in rest.split(","):
            tokens = tokenize(raw)
            if not tokens:
                continue
            marker = " ".join(tokens)
            owner = seen.get(marker)
            if owner is not None and owner != emotion:
                raise LexiconError(
                    "DUPLICATE_MARKER",
                    f"line {line_no}: {marker!r} already assigned to {owner!r}",
                )
            seen[marker] = emotion
            markers.add(marker)
        if not emotion or not markers:
            raise LexiconError(
                "EMPTY_EMOTION", f"line {line_no}: emotion with no markers"
            )
        entries[emotion] = frozenset(markers | entries.get(emotion, frozenset()))
    return Lexicon(entries=entries)


@functools.cache
def default_lexicon() -> Lexicon:
    """The bundled word-list lexicon (seven emotions).

    Read on the first call and shared by every later one; a lexicon is
    read-only, so sharing it is safe.
    """
    from importlib import resources  # deferred: slow to import, needed once

    data = resources.files("earlkit.data").joinpath("table2.lex").read_bytes()
    return load_lexicon(data)


def tag_lexical(text: str, lexicon: Lexicon | None = None) -> list[tuple[EmotionAnnotation, list[str]]]:
    """Tag free text against a lexicon.

    Returns one ``(annotation, matched_tokens)`` pair per emotion with at
    least one marker hit, ordered alphabetically by emotion.  Intensity
    saturates at three hits; probability is the emotion's share of all
    matched tokens.

    Phrases are matched before single words, one phrase at a time in the
    lexicon's precedence order, each at every free position left to right;
    a token consumed by a phrase is not matched again.
    """
    if lexicon is None:
        lexicon = default_lexicon()
    tokens = tokenize(text)
    hits: dict[str, list[str]] = {}
    free = tokens
    heads = lexicon._phrase_heads
    if not heads.isdisjoint(tokens):
        consumed = [False] * len(tokens)
        starts: dict[str, list[int]] = {}
        for i, token in enumerate(tokens):
            if token in heads:
                starts.setdefault(token, []).append(i)
        for parts, emotion in lexicon._phrases:
            n = len(parts)
            for i in starts.get(parts[0], ()):
                if tokens[i : i + n] == parts and not any(consumed[i : i + n]):
                    hits.setdefault(emotion, []).extend(parts)
                    consumed[i : i + n] = [True] * n
        free = [token for token, used in zip(tokens, consumed) if not used]
    single = lexicon._single
    for token in filter(single.__contains__, free):
        hits.setdefault(single[token], []).append(token)
    if not hits:
        return []

    total = sum(map(len, hits.values()))
    scope = InlineText(text)
    results = []
    for emotion in sorted(hits):
        matched = hits[emotion]
        annotation = EmotionAnnotation(
            category=emotion,
            modality="language",
            intensity=min(1.0, len(matched) / 3),
            probability=len(matched) / total,
            scope=scope,
        )
        results.append((annotation, matched))
    return results


# ---------------------------------------------------------------------------
# Feature values

UP, DOWN, FLAT = "up", "down", "flat"
DOWNWARD, UPWARD = "downward", "upward"
SHORT, MID, LONG = "short", "mid", "long"
FREQUENT, FEW = "frequent", "few"
OUTWARD, CLOSE, NEUTRAL = "outward_from_centre", "close_to_centre", "neutral"
DYNAMIC_HIGH = "dynamic_high"
SUSTAINED_HIGH = "sustained_high"
CONTINUOUSLY_LOW = "continuously_low"
DYNAMIC_VARYING = "dynamic_varying"

# Value -> the values that contradict it, in every field it fills and for
# both classifiers.  Only genuinely opposed values contradict; mid/neutral
# never do, and the two high-tension flavors are merely different, not
# opposed.
_OPPOSED = {
    UP: {DOWN}, DOWN: {UP}, DOWNWARD: {UPWARD}, UPWARD: {DOWNWARD},
    SHORT: {LONG}, LONG: {SHORT}, FREQUENT: {FEW}, FEW: {FREQUENT},
    OUTWARD: {CLOSE}, CLOSE: {OUTWARD},
    DYNAMIC_HIGH: {CONTINUOUSLY_LOW}, SUSTAINED_HIGH: {CONTINUOUSLY_LOW},
    CONTINUOUSLY_LOW: {DYNAMIC_HIGH, SUSTAINED_HIGH},
}


# ---------------------------------------------------------------------------
# Voice signatures

_DIRECTIONS = (UP, DOWN, FLAT)
_CONTOURS = (DOWNWARD, UPWARD, FLAT)

class VoiceFeatureDelta(_Record):
    """Directional changes of the seven vocal properties; flat is neutral."""

    def __init__(
        self, mean_f0: str = FLAT, f0_range: str = FLAT, f0_variability: str = FLAT,
        mean_energy: str = FLAT, high_freq_energy: str = FLAT, f0_contour: str = FLAT,
        articulation_rate: str = FLAT,
    ):
        values = {
            "mean_f0": mean_f0, "f0_range": f0_range, "f0_variability": f0_variability,
            "mean_energy": mean_energy, "high_freq_energy": high_freq_energy,
            "f0_contour": f0_contour, "articulation_rate": articulation_rate,
        }
        for name, value in values.items():
            allowed = _CONTOURS if name == "f0_contour" else _DIRECTIONS
            if value not in allowed:
                raise ValueError(f"{name}={value!r}; expected one of {allowed}")
        self.__dict__.update(values)


VOICE_FIELDS = VoiceFeatureDelta._fields


# Per-emotion expectations.  The hot-anger F0-range increase is folded into
# the single anger signature; disgust has no reliable vocal signature and
# is always scored 0.
VOICE_PATTERNS: dict[str, dict[str, str]] = {
    "anger": {
        "mean_f0": UP,
        "mean_energy": UP,
        "f0_variability": UP,
        "f0_range": UP,
        "high_freq_energy": UP,
        "f0_contour": DOWNWARD,
        "articulation_rate": UP,
    },
    "fear": {
        "mean_f0": UP,
        "f0_range": UP,
        "high_freq_energy": UP,
        "articulation_rate": UP,
    },
    "joy": {
        "mean_f0": UP,
        "f0_range": UP,
        "f0_variability": UP,
        "mean_energy": UP,
    },
    "sadness": {
        "mean_f0": DOWN,
        "f0_range": DOWN,
        "mean_energy": DOWN,
        "f0_contour": DOWNWARD,
    },
    "disgust": {},
}


class RankedEmotion(_Record):
    def __init__(self, label: str, score: float, matched_features: tuple[str, ...] = ()):
        self.__dict__.update(label=label, score=score, matched_features=matched_features)


RankedEmotions = list[RankedEmotion]


def _compile(patterns: dict[str, dict[str, str]], fields: tuple[str, ...]) -> tuple:
    """Scoring table: per emotion, its label, pattern size and one rule
    ``(field index, field name, expected value, opposed values)`` per
    pattern field, in pattern order."""
    return tuple(
        (emotion, len(pattern), tuple(
            (fields.index(name), name, expected, frozenset(_OPPOSED.get(expected, ())))
            for name, expected in pattern.items()
        ))
        for emotion, pattern in patterns.items()
    )


def _classify(values: tuple[str, ...], table: tuple) -> RankedEmotions:
    scored = []
    for emotion, size, rules in table:
        matched = []
        net = 0
        for index, name, expected, opposed in rules:
            value = values[index]
            if value == expected:
                matched.append(name)
                net += 1
            elif value in opposed:
                net -= 1
        score = min(1.0, max(0.0, net / size)) if size else 0.0
        scored.append((-score, emotion, tuple(matched)))
    # Descending score, alphabetical among ties; labels are distinct, so
    # the plain tuples never compare their matched fields.
    scored.sort()
    return [RankedEmotion(emotion, -negated, matched) for negated, emotion, matched in scored]


_VOICE_TABLE = _compile(VOICE_PATTERNS, VOICE_FIELDS)
_voice_values = attrgetter(*VOICE_FIELDS)


def classify_voice(v: VoiceFeatureDelta) -> RankedEmotions:
    """Rank the five vocally-signed emotions against a feature delta.

    Match credit and contradiction penalty are symmetric: each pattern field
    the observation matches counts +1, each where it points the opposite way
    counts -1, flat counts nothing, and the sum is divided by pattern size
    and clamped to [0, 1].
    """
    return _classify(_voice_values(v), _VOICE_TABLE)


# ---------------------------------------------------------------------------
# Movement signatures

_MOVEMENT_VALUES = {
    "duration": (SHORT, MID, LONG),
    "tempo_changes": (FREQUENT, FEW, NEUTRAL),
    "stop_length": (SHORT, MID, LONG),
    "spatial_extent": (OUTWARD, CLOSE, NEUTRAL),
    "tension": (DYNAMIC_HIGH, SUSTAINED_HIGH, CONTINUOUSLY_LOW, DYNAMIC_VARYING, NEUTRAL),
}


class MovementDescriptor(_Record):
    """Body-movement properties on the time/space/flow/weight dimensions.

    Defaults are the neutral value of each field, so an unspecified
    descriptor matches and contradicts nothing.
    """

    def __init__(
        self, duration: str = MID, tempo_changes: str = NEUTRAL, stop_length: str = MID,
        spatial_extent: str = NEUTRAL, tension: str = NEUTRAL,
    ):
        values = {
            "duration": duration, "tempo_changes": tempo_changes, "stop_length": stop_length,
            "spatial_extent": spatial_extent, "tension": tension,
        }
        for name, value in values.items():
            if value not in _MOVEMENT_VALUES[name]:
                raise ValueError(
                    f"{name}={value!r}; expected one of {_MOVEMENT_VALUES[name]}"
                )
        self.__dict__.update(values)


MOVEMENT_FIELDS = MovementDescriptor._fields


MOVEMENT_PATTERNS: dict[str, dict[str, str]] = {
    "anger": {
        "duration": SHORT,
        "tempo_changes": FREQUENT,
        "stop_length": SHORT,
        "spatial_extent": OUTWARD,
        "tension": DYNAMIC_HIGH,
    },
    "fear": {
        "tempo_changes": FREQUENT,
        "stop_length": LONG,
        "spatial_extent": CLOSE,
        "tension": SUSTAINED_HIGH,
    },
    "grief": {
        "duration": LONG,
        "tempo_changes": FEW,
        "tension": CONTINUOUSLY_LOW,
    },
    "joy": {
        "tempo_changes": FREQUENT,
        "stop_length": LONG,
        "spatial_extent": OUTWARD,
        "tension": DYNAMIC_VARYING,
    },
}

_MOVEMENT_TABLE = _compile(MOVEMENT_PATTERNS, MOVEMENT_FIELDS)
_movement_values = attrgetter(*MOVEMENT_FIELDS)


def classify_movement(m: MovementDescriptor) -> RankedEmotions:
    """Rank the four movement-signed emotions; scoring as in classify_voice."""
    return _classify(_movement_values(m), _MOVEMENT_TABLE)


# ---------------------------------------------------------------------------
# Feature files


def load_features(
    data: bytes | str, descriptor: type[VoiceFeatureDelta] | type[MovementDescriptor]
) -> VoiceFeatureDelta | MovementDescriptor:
    """Read a ``field=value`` feature file into a ``descriptor``.

    One field per line; fields not given keep the descriptor's neutral
    default, and a field given twice keeps its last value.  Every error,
    an unknown field or a value outside the field's set included, names
    its line.
    """
    names = descriptor._fields
    result = descriptor()
    for line_no, line in read_lines(data, MarkerError, "BAD_FEATURE"):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise MarkerError("BAD_FEATURE", f"line {line_no}: expected field=value")
        if key not in names:
            raise MarkerError(
                "BAD_FEATURE", f"line {line_no}: {key!r} is not a {descriptor.__name__} field"
            )
        try:
            result = result._replace(**{key: value.strip()})
        except ValueError as exc:
            raise MarkerError("BAD_FEATURE", f"line {line_no}: {exc}") from None
    return result
