"""Marker knowledge base: word lists, vocal and movement signatures.

Three rule classifiers turn already-extracted feature descriptors into
ranked emotion candidates; raw audio/video processing is out of scope.
Directions are categorical on purpose: the source findings state only
whether a property goes up or down for an emotion, never by how much, so
any magnitude would be invented.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from itertools import compress
from operator import attrgetter
from types import MappingProxyType

from .errors import LexiconError, MarkerError, read_lines
from .model import EmotionAnnotation, InlineText, _Record

# ---------------------------------------------------------------------------
# Lexical markers

# Byte -> itself for a-z, its lowercase for A-Z and a space for every other
# byte, so an ASCII text's words are what ``split()`` leaves of it.
_ASCII_WORDS = bytes(
    c + 32 if 65 <= c <= 90 else c if 97 <= c <= 122 else 32 for c in range(256)
)


def tokenize(text: str) -> list[str]:
    """Lowercase, normalize to NFC and split into words: maximal runs of
    letters and combining marks.

    Every other character separates words, so a marker never matches part
    of a longer word such as ``sadé`` (also when the accent is a separate
    combining mark) or ``İrritated``.  Markers go through this function
    too, so a composed and a decomposed spelling of one word match each
    other.  ASCII text, which NFC leaves as it is, takes a fast path: one
    ``bytes.translate`` over a 256-byte table folds ``A-Z`` to ``a-z`` and
    turns every byte but a letter into a space, and ``split()`` then gives
    the same words.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_WORDS).decode("ascii").split()
    from unicodedata import category, normalize  # deferred: only non-ASCII text needs them

    text = normalize("NFC", text.lower())
    return "".join(c if category(c)[0] in "LM" else " " for c in text).split()


class Lexicon(_Record):
    """Emotion label -> set of lexical markers.

    Markers are stored tokenized (lowercase, space-joined); most are single
    words but multiword phrases such as "goose bumps" are kept whole and
    matched as contiguous token runs.  It is built from a mapping or from
    ``(emotion, markers)`` pairs, each checked as it is taken; a repeated
    emotion keeps its first place and gains the later markers.  ``entries``
    is a read-only view, so a lexicon can be shared and its marker index,
    built once at construction, never goes stale.
    """

    def __init__(self, entries: Mapping[str, Iterable[str]] | Iterable[tuple[str, Iterable[str]]]):
        if isinstance(entries, Mapping):
            entries = entries.items()
        merged: dict[str, frozenset[str]] = {}
        owners: dict[str, str] = {}
        for emotion, markers in entries:
            markers = frozenset(markers)
            for marker in sorted(markers, key=_precedence):
                # Text is matched as tokenize gives it, so a marker in any
                # other form would never match.
                if not marker or " ".join(tokenize(marker)) != marker:
                    raise ValueError(f"marker {marker!r} is not in tokenized form")
                # A marker under two emotions would tag whichever came last.
                owner = owners.setdefault(marker, emotion)
                if owner != emotion:
                    raise LexiconError(
                        "DUPLICATE_MARKER", f"{marker!r} already assigned to {owner!r}"
                    )
            merged[emotion] = merged.get(emotion, frozenset()) | markers
        # The marker index is no __init__ parameter, so no field: single-word
        # marker -> emotion; (tokens, emotion) per phrase in matching
        # precedence (emotions in entry order; within one, longer phrases
        # first, then alphabetical, so no set order leaks in); and the
        # phrases' first tokens.
        phrases = tuple(
            (marker.split(" "), emotion)
            for emotion, markers in merged.items()
            for marker in sorted(markers, key=_precedence) if " " in marker
        )
        self.__dict__.update(
            entries=MappingProxyType(merged),
            _single={marker: emotion for marker, emotion in owners.items() if " " not in marker},
            _phrases=phrases,
            _phrase_heads=frozenset(p[0] for p, _ in phrases),
        )


def _precedence(marker: str) -> tuple[int, str]:
    """Longer phrases first, then alphabetical."""
    return -marker.count(" "), marker


def load_lexicon(data: bytes | str) -> Lexicon:
    """Parse the line-oriented lexicon format.

    One line per emotion: ``emotion: marker, marker, ...``; blank lines and
    ``#`` comments are skipped.  Markers are normalized through the same
    tokenizer used for matching.
    """

    def entry(line: str) -> tuple[str, set[str]]:
        emotion, _, rest = line.partition(":")
        emotion = emotion.strip().lower()
        markers = {" ".join(tokens) for tokens in map(tokenize, rest.split(",")) if tokens}
        if not emotion or not markers:
            raise LexiconError("EMPTY_EMOTION", "emotion with no markers")
        return emotion, markers

    return read_lines(data, LexiconError, "BAD_LEXICON", lambda lines: Lexicon(map(entry, lines)))


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
    free: Iterable[str] = tokens
    present = lexicon._phrase_heads.intersection(tokens)
    if present:
        # One mask of free tokens.  A head's occurrences are found in C, and
        # the free tokens are taken only if a phrase matched.
        free_at = [True] * len(tokens)
        for parts, emotion in lexicon._phrases:
            if parts[0] in present:
                n, i = len(parts), -1
                for _ in range(tokens.count(parts[0])):
                    i = tokens.index(parts[0], i + 1)
                    if tokens[i : i + n] == parts and all(free_at[i : i + n]):
                        hits.setdefault(emotion, []).extend(parts)
                        free_at[i : i + n] = [False] * n
        if hits:
            free = compress(tokens, free_at)
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
        n = len(matched)
        annotation = EmotionAnnotation(
            emotion, None, None, min(1.0, n / 3), n / total, None, "language", scope
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
        # One test for the common case; the walk below only names the bad field.
        if not (
            mean_f0 in _DIRECTIONS and f0_range in _DIRECTIONS and f0_variability in _DIRECTIONS
            and mean_energy in _DIRECTIONS and high_freq_energy in _DIRECTIONS
            and f0_contour in _CONTOURS and articulation_rate in _DIRECTIONS
        ):
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


@functools.cache
def _ranked(label: str, score: float, matched_features: tuple[str, ...]) -> RankedEmotion:
    """The one shared record for these fields; records are immutable."""
    return RankedEmotion(label, score, matched_features)


def _classify(observed: dict[str, str], patterns: dict[str, dict]) -> tuple[RankedEmotion, ...]:
    scored = []
    for emotion, pattern in patterns.items():
        matched = []
        net = 0
        for name, expected in pattern.items():
            value = observed[name]
            if value == expected:
                matched.append(name)
                net += 1
            elif value in _OPPOSED.get(expected, ()):
                net -= 1
        score = min(1.0, max(0.0, net / len(pattern))) if pattern else 0.0
        scored.append((-score, emotion, tuple(matched)))
    # Descending score, alphabetical among ties; labels are distinct, so
    # the plain tuples never compare their matched fields.
    scored.sort()
    return tuple(_ranked(emotion, -negated, matched) for negated, emotion, matched in scored)


_voice_values = attrgetter(*VOICE_FIELDS)


# Each classifier ranks a feature tuple once and keeps the result: at most
# 2,187 voice and 405 movement tuples exist, and their rankings share 706
# records.  The memo fills on use, since ranking every tuple at import
# would slow every CLI start.
@functools.cache
def _voice_ranking(values: tuple[str, ...]) -> tuple[RankedEmotion, ...]:
    return _classify(dict(zip(VOICE_FIELDS, values)), VOICE_PATTERNS)


def classify_voice(v: VoiceFeatureDelta) -> list[RankedEmotion]:
    """Rank the five vocally-signed emotions against a feature delta.

    Match credit and contradiction penalty are symmetric: each pattern field
    the observation matches counts +1, each where it points the opposite way
    counts -1, flat counts nothing, and the sum is divided by pattern size
    and clamped to [0, 1].  Each call returns a new list; its records are
    immutable and shared with every other ranking that holds the same one.
    """
    return list(_voice_ranking(_voice_values(v)))


# ---------------------------------------------------------------------------
# Movement signatures

_LENGTHS = (SHORT, MID, LONG)
_TEMPOS = (FREQUENT, FEW, NEUTRAL)
_EXTENTS = (OUTWARD, CLOSE, NEUTRAL)
_TENSIONS = (DYNAMIC_HIGH, SUSTAINED_HIGH, CONTINUOUSLY_LOW, DYNAMIC_VARYING, NEUTRAL)
_MOVEMENT_VALUES = {
    "duration": _LENGTHS, "tempo_changes": _TEMPOS, "stop_length": _LENGTHS,
    "spatial_extent": _EXTENTS, "tension": _TENSIONS,
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
        # One test for the common case; the walk below only names the bad field.
        if not (
            duration in _LENGTHS and tempo_changes in _TEMPOS and stop_length in _LENGTHS
            and spatial_extent in _EXTENTS and tension in _TENSIONS
        ):
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

_movement_values = attrgetter(*MOVEMENT_FIELDS)


@functools.cache
def _movement_ranking(values: tuple[str, ...]) -> tuple[RankedEmotion, ...]:
    return _classify(dict(zip(MOVEMENT_FIELDS, values)), MOVEMENT_PATTERNS)


def classify_movement(m: MovementDescriptor) -> list[RankedEmotion]:
    """Rank the four movement-signed emotions; scoring and result as in classify_voice."""
    return list(_movement_ranking(_movement_values(m)))


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

    def field(
        result: VoiceFeatureDelta | MovementDescriptor, line: str
    ) -> VoiceFeatureDelta | MovementDescriptor:
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError("expected field=value")
        if key not in names:
            raise ValueError(f"{key!r} is not a {descriptor.__name__} field")
        return result._replace(**{key: value.strip()})

    return read_lines(
        data, MarkerError, "BAD_FEATURE", lambda lines: functools.reduce(field, lines, descriptor())
    )
