"""Seeded input generators for the benchmark workloads.

Nothing here imports earlkit: the XML, stream and config text are written by
this module's own writers, so the inputs do not change when earlkit's
serializer or readers change.  Every generator also returns what it knows
about its output (item counts, categories, injected errors), which the
oracles compare against.

Size distributions are fixed multisets; the seed only chooses contents and
order.  That keeps the share of each input property the same for every seed,
so medians and quantiles do not move between seeds for reasons of mix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import oracle

# ---------------------------------------------------------------------------
# Shared vocabulary

CATEGORIES = (
    "anger", "annoyance", "fear", "friendliness", "joy",
    "pleasure", "relief", "sadness", "surprise", "worry",
)
DIMENSIONS = ("arousal", "power", "valence")
APPRAISALS = (
    "goal_conduciveness", "intrinsic_pleasantness",
    "relevance_self_concerns", "suddenness",
)
MODALITIES = ("face", "language", "movement", "voice")
REGULATIONS = ("amplify", "attenuate", "simulate", "suppress")
URIS = ("clip_7.mp4", "face12.jpg", "media/shot42.png", "notes.txt", "a&b.wav")
INLINE_TEXTS = (
    "Hello!", "I can't believe it", "that was <great>", "Tom & Jerry",
    'she said "no"', "well...", "fine, thanks", "über-cool",
)

RESOURCE = "hazardous-tool"

#: Fusion settings shared by the stream and cli workloads.  The oracle reads
#: these numbers; earlkit reads the text rendering of them.
FUSION = {
    "ambiguity_epsilon": 0.05,
    "constituent_threshold": 0.2,
    "decay_lambda": 0.2,
    "drop_floor": 0.05,
    "weight.face": 0.8,
}

#: The two-rule hazardous-tool policy: (resource, behavior, threshold).
POLICY = (
    (RESOURCE, "aggressive", 0.3),
    (RESOURCE, "protective", 0.3),
)


def config_text() -> str:
    lines = ["# fusion settings for the benchmark streams"]
    lines += [f"{key} = {value!r}" for key, value in FUSION.items()]
    return "\n".join(lines) + "\n"


def policy_text() -> str:
    lines = ["# two rules for one resource"]
    lines += [f"{r} deny_when {b} >= {t!r}" for r, b, t in POLICY]
    return "\n".join(lines) + "\n"


def profile_text() -> str:
    body = "".join(
        f"  <{tag}>{label}</{tag}>\n"
        for tag, labels in (
            ("category", CATEGORIES),
            ("dimension", DIMENSIONS),
            ("appraisal", APPRAISALS),
            ("modality", MODALITIES),
        )
        for label in labels
    )
    return f"<profile>\n{body}</profile>\n"


def digest(parts) -> str:
    """sha256 over an iterable of str/bytes parts, each length-prefixed."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# EARL documents


def _xml_attr(value: str, quote: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value.replace(quote, "&quot;" if quote == '"' else "&apos;")


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _num(rng: random.Random, value: float, canonical: bool) -> str:
    if canonical or rng.random() < 0.5:
        return repr(value)
    return f"{value:.6f}"  # trailing zeros parse to the same float


def _unit(rng: random.Random) -> float:
    return rng.randint(100, 1000) / 1000


def _signed(rng: random.Random) -> float:
    return rng.randint(-1000, 1000) / 1000


@dataclass
class _Item:
    """One annotation element before it is written out."""

    attrs: list  # [(name, value_text)]
    text: str = ""
    constituents: list = field(default_factory=list)  # of _Item, complex only


class _DocWriter:
    def __init__(self, rng: random.Random, canonical: bool):
        self.rng = rng
        self.canonical = canonical

    def emotion(self, constituent: bool, bad: str | None) -> tuple[_Item, str | None]:
        rng, canonical = self.rng, self.canonical
        attrs = []
        category = None
        if rng.random() < 0.93:
            category = rng.choice(CATEGORIES)
            attrs.append(("category", category))
        dims = rng.sample(DIMENSIONS, rng.randint(0 if category else 1, 3))
        for name in sorted(dims + rng.sample(APPRAISALS, rng.randint(0, 2))):
            attrs.append((name, _num(rng, _signed(rng), canonical)))
        if rng.random() < 0.6:
            attrs.append(("intensity", _num(rng, _unit(rng), canonical)))
        if rng.random() < 0.5:
            attrs.append(("probability", _num(rng, _unit(rng), canonical)))
        if rng.random() < 0.15:
            name = rng.choice(REGULATIONS)
            if name == "suppress" and not canonical and rng.random() < 0.5:
                name = "hide"  # read as suppress, with a parser warning
            attrs.append((name, _num(rng, _unit(rng), canonical)))
        if rng.random() < 0.5:
            attrs.append(("modality", rng.choice(MODALITIES)))
        if bad == "RANGE":
            name, value = rng.choice(
                (("intensity", 1.25), ("probability", 1.5), ("arousal", -1.6), ("simulate", 1.2))
            )
            attrs = [(n, v) for n, v in attrs if n != name] + [(name, repr(value))]
        text = ""
        if not constituent:
            text = self._scope(attrs, allow_text=True, bad=bad)
        return _Item(attrs, text), category

    def _scope(self, attrs: list, allow_text: bool, bad: str | None) -> str:
        rng = self.rng
        href = "xlink:href" if self.canonical or rng.random() < 0.5 else "href"
        if bad == "START_AFTER_END":
            start = rng.randint(100, 6000)
            attrs += [("start", repr(start / 100)), ("end", repr((start - rng.randint(0, 50)) / 100))]
            return ""
        roll = rng.random()
        if roll < 0.2:
            return ""
        if allow_text and roll < 0.5:
            return rng.choice(INLINE_TEXTS)
        if roll < 0.7:
            attrs.append((href, rng.choice(URIS)))
            return ""
        if roll > 0.9:
            attrs.append((href, rng.choice(URIS)))
        start = rng.randint(0, 6000)
        attrs += [("start", repr(start / 100)), ("end", repr((start + rng.randint(1, 500)) / 100))]
        return ""

    def item(self, bad: str | None):
        """Return (item, shape) where shape is the category, or a tuple of
        constituent categories for a complex emotion."""
        if self.rng.random() < 0.3:
            n = self.rng.randint(2, 4)
            bad_at = self.rng.randrange(n) if bad == "RANGE" else -1
            parts = [self.emotion(True, "RANGE" if k == bad_at else None) for k in range(n)]
            attrs: list = []
            self._scope(attrs, allow_text=False, bad=bad if bad != "RANGE" else None)
            item = _Item(attrs, constituents=[p[0] for p in parts])
            return item, tuple(p[1] for p in parts)
        return self.emotion(False, bad)

    def element(self, item: _Item) -> str:
        rng = self.rng
        attrs = list(item.attrs)
        quote = '"'
        if not self.canonical:
            rng.shuffle(attrs)
            quote = rng.choice("\"'")
        rendered = "".join(f" {n}={quote}{_xml_attr(v, quote)}{quote}" for n, v in attrs)
        if item.constituents:
            inner = "".join(self.element(c) for c in item.constituents)
            return f"<complex-emotion{rendered}>{inner}</complex-emotion>"
        if item.text:
            return f"<emotion{rendered}>{_xml_text(item.text)}</emotion>"
        return f"<emotion{rendered}/>"

    def document(self, items: list[_Item]) -> bytes:
        rng = self.rng
        if self.canonical:
            body = "".join(self.element(i) for i in items)
            return f'<?xml version="1.0" encoding="UTF-8"?>\n<earl>{body}</earl>\n'.encode()
        parts = ['<earl xmlns="http://emotion-research.net/earl/040/emotionml"'
                 ' xmlns:xlink="http://www.w3.org/1999/xlink">']
        for i in items:
            parts.append(rng.choice(("\n  ", "\n\t", " ", "\n\n    ")))
            parts.append(self.element(i))
        parts.append("\n</earl>\n")
        return "".join(parts).encode("utf-8")


@dataclass(frozen=True)
class Doc:
    """A generated document and what the generator knows about it."""

    ident: int
    xml: bytes
    shape: tuple  # per top-level item: category, or tuple of constituent categories
    expect: str  # "ok", "RANGE" or "START_AFTER_END"
    range_errors: int  # RANGE findings validation must report
    canonical: bool

    @property
    def items(self) -> int:
        return len(self.shape)


def make_doc(rng: random.Random, ident: int, n_items: int, expect: str, canonical: bool) -> Doc:
    writer = _DocWriter(rng, canonical)
    bad_at = rng.randrange(n_items) if expect != "ok" else -1
    items, shape = [], []
    for k in range(n_items):
        item, item_shape = writer.item(expect if k == bad_at else None)
        items.append(item)
        shape.append(item_shape)
    range_errors = 1 if expect == "RANGE" else 0
    return Doc(ident, writer.document(items), tuple(shape), expect, range_errors, canonical)


# (documents, sizes, RANGE-invalid, START_AFTER_END-invalid, non-canonical)
CORPUS_CLASSES = (
    (400, lambda k: 1, 8, 4, 100),
    (90, lambda k: 80 + (k * 40) // 89, 2, 1, 22),
    (10, lambda k: 1050 + 100 * k, 0, 0, 2),
)


def corpus_docs(seed: int, classes=CORPUS_CLASSES) -> list[Doc]:
    """The corpus pool: skewed document sizes, in seeded order."""
    rng = random.Random(f"corpus/{seed}")
    specs = []
    for count, size, n_range, n_sae, n_noncanon in classes:
        expects = ["RANGE"] * n_range + ["START_AFTER_END"] * n_sae
        expects += ["ok"] * (count - len(expects))
        canon = [False] * n_noncanon + [True] * (count - n_noncanon)
        rng.shuffle(expects)
        rng.shuffle(canon)
        specs += [(size(k), expects[k], canon[k]) for k in range(count)]
    rng.shuffle(specs)
    return [make_doc(rng, i, n, e, c) for i, (n, e, c) in enumerate(specs)]


def corpus_facts(docs: list[Doc]) -> dict:
    sizes = sorted(d.items for d in docs)
    q = lambda f: sizes[min(len(sizes) - 1, int(f * len(sizes)))]  # noqa: E731
    complex_items = sum(1 for d in docs for s in d.shape if isinstance(s, tuple))
    return {
        "documents": len(docs),
        "items": sum(sizes),
        "items_per_doc": {"p50": q(0.5), "p90": q(0.9), "p99": q(0.99), "max": sizes[-1]},
        "complex_item_share": complex_items / sum(sizes),
        "noncanonical_doc_share": sum(not d.canonical for d in docs) / len(docs),
        "invalid_doc_share": sum(d.expect != "ok" for d in docs) / len(docs),
        "invalid_docs": {
            code: sum(d.expect == code for d in docs) for code in ("RANGE", "START_AFTER_END")
        },
    }


# ---------------------------------------------------------------------------
# Stream events

#: Word list mirrored from the documented default lexicon (Table 2).
LEXICON = {
    "activation": ("disinhibited", "excited", "active", "agitated", "energetic", "fiery"),
    "amazement": ("amazed", "admiring", "fascinated", "impressed", "goose bumps", "thrills"),
    "dysphoria": ("anxious", "anguished", "frightened", "angry", "irritated", "nervous",
                  "revolted", "tense"),
    "joy": ("joyful", "happy", "radiant", "elated", "content"),
    "power": ("heroic", "triumphant", "proud", "strong"),
    "sadness": ("sorrowful", "depressed", "sad"),
    "sensuality": ("sensual", "desirous", "aroused"),
}
FILLERS = (
    "the day was i felt very after meeting we so really and then work coffee quite "
    "today a little bit my team said it is not at all when boss came in with news "
    "about project"
).split()
SEPARATORS = (" ", " ", " ", ", ", ". ", "! ", " - ", "... ")

VOICE_VALUES = {
    "mean_f0": ("up", "down", "flat"),
    "f0_range": ("up", "down", "flat"),
    "f0_variability": ("up", "down", "flat"),
    "mean_energy": ("up", "down", "flat"),
    "high_freq_energy": ("up", "down", "flat"),
    "f0_contour": ("downward", "upward", "flat"),
    "articulation_rate": ("up", "down", "flat"),
}
MOVEMENT_VALUES = {
    "duration": ("short", "mid", "long"),
    "tempo_changes": ("frequent", "few", "neutral"),
    "stop_length": ("short", "mid", "long"),
    "spatial_extent": ("outward_from_centre", "close_to_centre", "neutral"),
    "tension": ("dynamic_high", "sustained_high", "continuously_low", "dynamic_varying", "neutral"),
}
FACE_LABELS = ("anger", "fear", "joy", "sadness", "surprise", "disgust", "affection")

SUBJECTS = 8
#: Events per kind in one pool: 30 % text, 25 % voice, 25 % movement, 20 % face.
STREAM_MIX = (("text", 3000), ("voice", 2500), ("movement", 2500), ("face", 2000))
RENDER_EVERY = 10


@dataclass(frozen=True)
class Event:
    """One stream event.  ``payload`` depends on ``kind``:
    text -> (text, {emotion: matched token count}, n_tokens);
    voice/movement -> {field: value}; face -> label."""

    index: int
    subject: int
    t: float
    kind: str
    payload: object
    source: str
    probability: float  # face only
    intensity: float

    @property
    def render(self) -> bool:
        return self.index % RENDER_EVERY == RENDER_EVERY - 1


def _utterance(rng: random.Random):
    n = rng.randint(40, 150) if rng.random() < 0.1 else rng.randint(3, 18)
    marker_rate = 0.0 if rng.random() < 0.25 else rng.uniform(0.1, 0.35)
    words, counts = [], {}
    while len(words) < n:
        if rng.random() < marker_rate:
            emotion = rng.choice(sorted(LEXICON))
            marker = rng.choice(LEXICON[emotion])
            parts = marker.split(" ")
            words += parts
            counts[emotion] = counts.get(emotion, 0) + len(parts)
        else:
            words.append(rng.choice(FILLERS))
    out = []
    for w in words:
        roll = rng.random()
        if roll < 0.1:
            w = w.capitalize()
        elif roll < 0.13:
            w = w.upper()
        out.append(w)
        out.append(rng.choice(SEPARATORS))
    return "".join(out).strip(), counts, len(words)


#: A subject's mood biases its face labels, voice deltas and movements, so
#: that evidence from different channels often agrees, as it does for a real
#: person; "calm" matches no signature.
MOODS = ("anger", "fear", "joy", "sadness", "calm")
MOOD_MOVEMENT = {"sadness": "grief"}


def _signed_by(rng: random.Random, pattern: dict, values: dict) -> dict:
    return {
        name: pattern[name] if name in pattern and rng.random() < 0.7 else rng.choice(options)
        for name, options in values.items()
    }


def stream_events(seed: int, mix=STREAM_MIX) -> list[Event]:
    """One replayable session of events for SUBJECTS tracked subjects."""
    rng = random.Random(f"stream/{seed}")
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    moods = [rng.choice(MOODS) for _ in range(SUBJECTS)]
    events, t = [], 0.0
    for index, kind in enumerate(kinds):
        t += rng.expovariate(4.0)
        subject = rng.randrange(SUBJECTS)
        if rng.random() < 0.02:
            moods[subject] = rng.choice(MOODS)
        mood = moods[subject]
        source, probability = "language_voice", 1.0
        intensity = rng.uniform(0.5, 1.0)
        if kind == "text":
            payload = _utterance(rng)
        elif kind == "voice":
            payload = _signed_by(rng, oracle.VOICE_PATTERNS.get(mood, {}), VOICE_VALUES)
        elif kind == "movement":
            pattern = oracle.MOVEMENT_PATTERNS.get(MOOD_MOVEMENT.get(mood, mood), {})
            payload = _signed_by(rng, pattern, MOVEMENT_VALUES)
            source = "movement_kinematic" if rng.random() < 0.7 else "movement_kinetic"
        else:
            label = mood if mood in FACE_LABELS and rng.random() < 0.6 else rng.choice(FACE_LABELS)
            payload, source, probability = label, "face", rng.uniform(0.5, 1.0)
        events.append(Event(index, subject, t, kind, payload, source, probability, intensity))
    return events


def event_digest_parts(events: list[Event]):
    for e in events:
        payload = e.payload[0] if e.kind == "text" else e.payload
        yield f"{e.index}|{e.subject}|{e.t!r}|{e.kind}|{payload!r}|{e.source}|{e.probability!r}|{e.intensity!r}"


def stream_facts(events: list[Event]) -> dict:
    texts = [e.payload for e in events if e.kind == "text"]
    return {
        "events": len(events),
        "subjects": SUBJECTS,
        "kind_share": {k: sum(e.kind == k for e in events) / len(events) for k, _ in STREAM_MIX},
        "text_hit_share": sum(bool(counts) for _, counts, _ in texts) / len(texts),
        "mean_tokens_per_text": sum(n for _, _, n in texts) / len(texts),
        "rendered_share": sum(e.render for e in events) / len(events),
    }


# ---------------------------------------------------------------------------
# CLI inputs

CLI_STREAM_LINES = 1000
CLI_STREAM_CATEGORIES = ("anger", "fear", "joy", "sadness", "grief", "surprise", "disgust")
CLI_STREAM_SOURCES = ("face", "language_voice", "movement_kinematic", "movement_kinetic")
#: Corpus of the cli workload: (files, items per file, expectation).
CLI_CORPUS = (
    [(12, lambda k: 1, "ok"), (14, lambda k: 3 + 3 * k, "ok"), (2, lambda k: 60 + 20 * k, "ok")]
    + [(1, lambda k: 5, "RANGE"), (1, lambda k: 5, "START_AFTER_END")]
)
ANNOTATE_TEXT = "joyful, happy, radiant"


def cli_stream(seed: int) -> tuple[str, list[tuple[float, str, str, float, float]]]:
    """A recorded evidence stream as text, and the numbers earlkit will read."""
    rng = random.Random(f"cli-stream/{seed}")
    mood = rng.choice(MOODS[:4])
    rows, t = [], 0.0
    lines = ["# t source category p i"]
    for _ in range(CLI_STREAM_LINES):
        t += rng.expovariate(20.0)
        source = rng.choice(CLI_STREAM_SOURCES)
        category = mood if rng.random() < 0.9 else rng.choice(CLI_STREAM_CATEGORIES)
        p, i = rng.randint(500, 1000) / 1000, rng.randint(500, 1000) / 1000
        line = f"{t:.3f} {source} {category} {p!r} {i!r}"
        lines.append(line if rng.random() > 0.05 else line + "  # noted")
        t_read = float(f"{t:.3f}")
        rows.append((t_read, source, category, p, i))
    return "\n".join(lines) + "\n", rows


def cli_corpus(seed: int) -> list[Doc]:
    rng = random.Random(f"cli-corpus/{seed}")
    docs = []
    for count, size, expect in CLI_CORPUS:
        for k in range(count):
            docs.append(make_doc(rng, len(docs), size(k), expect, rng.random() < 0.7))
    return docs


def expected_stats(docs: list[Doc]) -> dict:
    """What ``stats --json`` must print for a corpus of generated documents."""
    annotations = complex_count = errors = 0
    categories: dict[str, int] = {}
    for d in docs:
        if d.expect == "START_AFTER_END":
            errors += 1
            continue
        errors += d.range_errors
        for s in d.shape:
            labels = s if isinstance(s, tuple) else (s,)
            complex_count += isinstance(s, tuple)
            for label in labels:
                annotations += 1
                key = "(none)" if label is None else label
                categories[key] = categories.get(key, 0) + 1
    return {
        "files_scanned": len(docs),
        "annotations_count": annotations,
        "complex_count": complex_count,
        "error_count": errors,
        "categories": dict(sorted(categories.items())),
    }
