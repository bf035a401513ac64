"""Reference computations that the benchmark checks earlkit against.

Nothing here imports earlkit.  The rule tables below restate the documented
marker signatures and capture weights; the fusion reference is the
brute-force sum  score(c) = sum(w * p * i) / sum(w)  over the remembered
evidence, with exponential decay and the drop floor, followed by the policy
thresholds.  XML output is read back with a bare expat parser.
"""

from __future__ import annotations

import math
from xml.parsers import expat

TOLERANCE = 1e-9

BASE_WEIGHTS = {
    "face": 1.0,
    "language_voice": 1.0,
    "movement_kinematic": 0.6,
    "movement_kinetic": 0.2,
}
BEHAVIOR = {
    "desire": "searching",
    "anger": "aggressive",
    "fear": "protective",
    "sadness": "dejected",
    "joy": "gratulant",
    "affection": "caressive",
    "sensuality": "searching",  # the word list's name for desire
}

VOICE_PATTERNS = {
    "anger": {"mean_f0": "up", "mean_energy": "up", "f0_variability": "up", "f0_range": "up",
              "high_freq_energy": "up", "f0_contour": "downward", "articulation_rate": "up"},
    "fear": {"mean_f0": "up", "f0_range": "up", "high_freq_energy": "up",
             "articulation_rate": "up"},
    "joy": {"mean_f0": "up", "f0_range": "up", "f0_variability": "up", "mean_energy": "up"},
    "sadness": {"mean_f0": "down", "f0_range": "down", "mean_energy": "down",
                "f0_contour": "downward"},
    "disgust": {},
}
VOICE_OPPOSITE = {"up": "down", "down": "up", "downward": "upward", "upward": "downward"}

MOVEMENT_PATTERNS = {
    "anger": {"duration": "short", "tempo_changes": "frequent", "stop_length": "short",
              "spatial_extent": "outward_from_centre", "tension": "dynamic_high"},
    "fear": {"tempo_changes": "frequent", "stop_length": "long",
             "spatial_extent": "close_to_centre", "tension": "sustained_high"},
    "grief": {"duration": "long", "tempo_changes": "few", "tension": "continuously_low"},
    "joy": {"tempo_changes": "frequent", "stop_length": "long",
            "spatial_extent": "outward_from_centre", "tension": "dynamic_varying"},
}
# Genuinely opposed values; opposition is symmetric, so both directions of
# each pair contradict.
MOVEMENT_OPPOSED = {
    ("duration", "short", "long"), ("tempo_changes", "frequent", "few"),
    ("stop_length", "short", "long"),
    ("spatial_extent", "outward_from_centre", "close_to_centre"),
    ("tension", "dynamic_high", "continuously_low"),
    ("tension", "sustained_high", "continuously_low"),
}


def _movement_contradicts(name: str, value: str, expected: str) -> bool:
    return (name, value, expected) in MOVEMENT_OPPOSED or (name, expected, value) in MOVEMENT_OPPOSED


def _top(patterns: dict, observed: dict, contradicts) -> tuple[str, float]:
    best = None
    for label in sorted(patterns):
        pattern = patterns[label]
        score = 0.0
        if pattern:
            net = sum(
                1 if observed[n] == e else -1 if contradicts(n, observed[n], e) else 0
                for n, e in pattern.items()
            )
            score = min(1.0, max(0.0, net / len(pattern)))
        if best is None or score > best[1]:
            best = (label, score)
    return best


def evidence_for(event):
    """(source, category, p, i) that the benchmark turns ``event`` into, or
    None for an utterance without any lexicon hit."""
    if event.kind == "text":
        _, counts, _ = event.payload
        if not counts:
            return None
        total = sum(counts.values())
        emotion = min(counts, key=lambda e: (-counts[e], e))
        n = counts[emotion]
        return ("language_voice", emotion, n / total, min(1.0, n / 3))
    if event.kind == "voice":
        label, score = _top(VOICE_PATTERNS, event.payload,
                            lambda n, v, e: v == VOICE_OPPOSITE.get(e))
        return (event.source, label, score, event.intensity)
    if event.kind == "movement":
        label, score = _top(MOVEMENT_PATTERNS, event.payload, _movement_contradicts)
        return (event.source, label, score, event.intensity)
    return ("face", event.payload, event.probability, event.intensity)


def fused_scores(remembered: dict, now: float, fusion: dict) -> dict[str, float]:
    """Brute-force fused scores at ``now`` from {source: (t, category, p, i)}."""
    lam, floor = fusion["decay_lambda"], fusion["drop_floor"]
    mass: dict[str, float] = {}
    total = 0.0
    for source, (t, category, p, i) in remembered.items():
        decayed = p * math.exp(-lam * (now - t))
        if decayed < floor:
            continue
        w = fusion.get(f"weight.{source}", BASE_WEIGHTS[source])
        total += w
        mass[category] = mass.get(category, 0.0) + w * decayed * i
    return {c: m / total for c, m in mass.items()}


def verdict(scores: dict[str, float], resource: str, policy) -> tuple[str, tuple | None]:
    """("deny", rule) for the first rule whose behavior strength reaches its
    threshold, else ("allow", None)."""
    strength: dict[str, float] = {}
    for category, score in scores.items():
        behavior = BEHAVIOR.get(category)
        if behavior is not None:
            strength[behavior] = max(strength.get(behavior, 0.0), score)
    for rule in policy:
        r, behavior, threshold = rule
        if r == resource and strength.get(behavior, 0.0) >= threshold:
            return "deny", rule
    return "allow", None


def rendered(scores: dict[str, float], fusion: dict):
    """Categories ``to_complex_emotion`` must emit, strongest first, as
    [(category, score)], or "NO_SIGNAL"."""
    threshold = fusion["constituent_threshold"]
    keep = sorted((c for c, s in scores.items() if s >= threshold), key=lambda c: (-scores[c], c))
    return [(c, scores[c]) for c in keep] if keep else "NO_SIGNAL"


class Expected:
    """Per-event expectations for one replay of a stream session."""

    __slots__ = ("scores", "verdict", "rule", "render")

    def __init__(self, scores, verdict_, rule, render):
        self.scores, self.verdict, self.rule, self.render = scores, verdict_, rule, render


def expect_stream(events: list, fusion: dict, resource: str, policy) -> list[Expected]:
    states: dict[int, dict] = {}
    out = []
    for e in events:
        remembered = states.setdefault(e.subject, {})
        ev = evidence_for(e)
        if ev is not None:
            source, category, p, i = ev
            remembered[source] = (e.t, category, p, i)
        scores = fused_scores(remembered, e.t, fusion)
        v, rule = verdict(scores, resource, policy)
        out.append(Expected(scores, v, rule, rendered(scores, fusion) if e.render else None))
    return out


def expect_recorded(rows, fusion: dict) -> dict[str, float]:
    """Fused scores for a whole recorded stream, taken at its last timestamp."""
    remembered = {}
    for t, source, category, p, i in rows:
        remembered[source] = (t, category, p, i)
    return fused_scores(remembered, rows[-1][0], fusion)


def scores_match(actual: dict, expected: dict) -> bool:
    return actual.keys() == expected.keys() and all(
        abs(actual[c] - expected[c]) <= TOLERANCE for c in expected
    )


# ---------------------------------------------------------------------------
# XML read-back


def xml_items(data: bytes) -> list:
    """Top-level annotation elements of an EARL document, read with bare
    expat: [(tag, attrs, [constituent attrs])]."""
    items: list = []
    depth = [0]

    def start(name, attrs):
        depth[0] += 1
        if depth[0] == 2:
            items.append((name, attrs, []))
        elif depth[0] == 3:
            items[-1][2].append(attrs)

    def end(_name):
        depth[0] -= 1

    parser = expat.ParserCreate()
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.Parse(data, True)
    return items


def xml_shape(data: bytes) -> tuple:
    """The generator's shape notation for serialized bytes."""
    return tuple(
        tuple(c.get("category") for c in constituents) if tag == "complex-emotion"
        else attrs.get("category")
        for tag, attrs, constituents in xml_items(data)
    )


def render_matches(data: bytes, expected) -> bool:
    """Check a one-item document written by ``to_complex_emotion`` +
    ``serialize_document`` against ``rendered()``."""
    (tag, attrs, constituents), = xml_items(data)
    emitted = constituents if tag == "complex-emotion" else [attrs]
    if tag == "complex-emotion" and len(emitted) < 2:
        return False
    return len(emitted) == len(expected) and all(
        a.get("category") == c and abs(float(a.get("probability", "nan")) - s) <= TOLERANCE
        for a, (c, s) in zip(emitted, expected)
    )
