"""Weighted fusion of per-modality emotion evidence.

Each evidence item contributes weight x probability x intensity to its
category; scores are normalized by the total weight of all contributing
sources, so they stay in [0, 1] and are invariant under uniform weight
scaling.  A temporal state keeps the last observation per source and can
synthesize decayed stand-ins for sources that have gone quiet, marked as
predicted so reports can tell observation from inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FusionError, decode_text
from .model import (
    SOURCE_WEIGHTS,
    UNSCOPED,
    ComplexEmotion,
    EmotionAnnotation,
    Scope,
    base_weight_for_source,
    effective_intensity,
    effective_probability,
)


@dataclass(frozen=True)
class MarkerEvidence:
    """One per-modality observation feeding the fusion engine."""

    annotation: EmotionAnnotation
    source: str
    timestamp: float
    available: bool = True
    predicted: bool = False  # set on synthetic items from fill_missing

    def __post_init__(self):
        if self.annotation.category is None:
            raise ValueError("evidence annotation must carry a category")
        if self.annotation.modality is None:
            raise ValueError("evidence annotation must carry a modality")


@dataclass(frozen=True)
class FusionConfig:
    """Tunable fusion knobs; every value is optional in the file form."""

    ambiguity_epsilon: float = 0.1
    constituent_threshold: float = 0.2
    decay_lambda: float = 0.2  # per second
    drop_floor: float = 0.05
    weight_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Fail closed: a NaN passes no comparison, so each check is written
        # to reject it rather than to let it through.
        for name in ("ambiguity_epsilon", "constituent_threshold", "drop_floor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if not 0.0 <= self.decay_lambda < math.inf:
            raise ValueError(f"decay_lambda={self.decay_lambda} must be finite and >= 0")
        for source, weight in self.weight_overrides.items():
            if source not in SOURCE_WEIGHTS:
                raise ValueError(f"weight.{source}: {source!r} is not a capture source")
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"weight.{source}={weight} must be finite and >= 0")

    def weight_for(self, source: str) -> float:
        override = self.weight_overrides.get(source)
        return base_weight_for_source(source) if override is None else override


def load_config(data: bytes | str) -> FusionConfig:
    """Read a flat ``key=value`` config file; all keys optional.

    Source weight overrides use dotted keys, e.g. ``weight.face = 0.8``.
    """
    data = decode_text(data, FusionError, "BAD_CONFIG")
    kwargs: dict = {}
    overrides: dict[str, float] = {}
    for line_no, line in enumerate(data.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise FusionError("BAD_CONFIG", f"line {line_no}: expected key=value")
        try:
            number = float(value)
        except ValueError:
            raise FusionError(
                "BAD_CONFIG", f"line {line_no}: {value!r} is not a number"
            ) from None
        if key.startswith("weight."):
            overrides[key[len("weight."):]] = number
        elif key in ("ambiguity_epsilon", "constituent_threshold", "decay_lambda", "drop_floor"):
            kwargs[key] = number
        else:
            raise FusionError("BAD_CONFIG", f"line {line_no}: unknown key {key!r}")
    try:
        return FusionConfig(weight_overrides=overrides, **kwargs)
    except ValueError as exc:
        raise FusionError("BAD_CONFIG", str(exc)) from None


@dataclass(frozen=True)
class FusedEstimate:
    """Per-category fused scores plus the dominance/ambiguity verdict.

    ``carried`` preserves descriptor and regulation detail from the
    underlying evidence so EARL output can echo it; it does not affect
    scores or equality.
    """

    scores: dict[str, float]
    dominant: str | None
    ambiguous: bool
    contributors: tuple[tuple[str, float], ...]
    carried: dict[str, "CarriedDetail"] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class CarriedDetail:
    dimensions: dict[str, float] = field(default_factory=dict)
    appraisals: dict[str, float] = field(default_factory=dict)
    regulation: dict[str, float] = field(default_factory=dict)


def _dominant(scores: dict[str, float], epsilon: float) -> tuple[str | None, bool]:
    if not scores:
        return None, False
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    dominant = ranked[0]
    ambiguous = len(ranked) > 1 and scores[dominant] - scores[ranked[1]] < epsilon
    return dominant, ambiguous


def fuse_instant(
    evidence: list[MarkerEvidence], cfg: FusionConfig = FusionConfig()
) -> FusedEstimate:
    """Fuse simultaneous evidence into one weighted estimate.

    score(c) = sum over evidence of category c of (weight * probability *
    intensity), divided by the total weight of all evidence.  Output is
    independent of evidence order.
    """
    for item in evidence:
        if not item.available:
            raise FusionError(
                "UNAVAILABLE_EVIDENCE", f"source {item.source!r} marked unavailable"
            )
    if not evidence:
        return FusedEstimate(scores={}, dominant=None, ambiguous=False, contributors=())

    # Deterministic processing order keeps carried-detail merges (and the
    # contributors listing) permutation invariant.
    ordered = sorted(
        evidence, key=lambda e: (e.source, e.timestamp, e.annotation.category)
    )
    total_weight = 0.0
    mass: dict[str, float] = {}
    carried: dict[str, CarriedDetail] = {}
    contributors = []
    for item in ordered:
        weight = cfg.weight_for(item.source)
        total_weight += weight
        contributors.append((item.source, weight))
        a = item.annotation
        category = a.category
        mass[category] = (
            mass.get(category, 0.0)
            + weight * effective_probability(a) * effective_intensity(a)
        )
        if a.dimensions or a.appraisals or a.regulation:
            detail = carried.get(category, CarriedDetail())
            carried[category] = CarriedDetail(
                dimensions={**detail.dimensions, **a.dimensions},
                appraisals={**detail.appraisals, **a.appraisals},
                regulation={**detail.regulation, **a.regulation},
            )

    if total_weight == 0.0:
        raise FusionError("ZERO_WEIGHT", "all evidence sources have weight 0")
    scores = {category: value / total_weight for category, value in mass.items()}
    dominant, ambiguous = _dominant(scores, cfg.ambiguity_epsilon)
    return FusedEstimate(
        scores=scores,
        dominant=dominant,
        ambiguous=ambiguous,
        contributors=tuple(contributors),
        carried=carried,
    )


# ---------------------------------------------------------------------------
# Temporal state


@dataclass(frozen=True)
class TemporalState:
    """Last evidence per source plus the stream clock; updated functionally."""

    last_evidence: dict[str, MarkerEvidence] = field(default_factory=dict)
    clock: float = 0.0


def update_temporal(state: TemporalState, evidence: MarkerEvidence) -> TemporalState:
    """Absorb one observation, replacing the previous one for its source."""
    if evidence.timestamp < state.clock:
        raise FusionError(
            "TIME_REGRESSION",
            f"evidence at t={evidence.timestamp} behind clock t={state.clock}",
        )
    updated = dict(state.last_evidence)
    updated[evidence.source] = evidence
    return TemporalState(last_evidence=updated, clock=evidence.timestamp)


def fill_missing(
    state: TemporalState, now: float, cfg: FusionConfig = FusionConfig()
) -> list[MarkerEvidence]:
    """Synthesize decayed stand-ins for every remembered source.

    Probability decays as p * exp(-lambda * elapsed); items whose decayed
    probability falls below the drop floor are omitted.  Synthetic items
    are flagged ``predicted`` so downstream reports can tell them apart.
    """
    if not math.isfinite(now):
        raise FusionError("BAD_TIME", f"now={now} is not a finite time")
    if now < state.clock:
        raise FusionError(
            "TIME_REGRESSION", f"now={now} behind clock t={state.clock}"
        )
    synthetic = []
    for source in sorted(state.last_evidence):
        item = state.last_evidence[source]
        a = item.annotation
        elapsed = now - item.timestamp
        decayed = effective_probability(a) * math.exp(-cfg.decay_lambda * elapsed)
        if decayed < cfg.drop_floor:
            continue
        # Direct construction costs far less than dataclasses.replace and
        # still runs every __post_init__ check.
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
        synthetic.append(
            MarkerEvidence(
                annotation=annotation,
                source=item.source,
                timestamp=item.timestamp,
                available=item.available,
                predicted=True,
            )
        )
    return synthetic


# ---------------------------------------------------------------------------
# EARL output


def to_complex_emotion(
    estimate: FusedEstimate, scope: Scope = UNSCOPED, cfg: FusionConfig = FusionConfig()
) -> EmotionAnnotation | ComplexEmotion:
    """Render a fused estimate as EARL: categories at or above the
    constituent threshold become constituents carrying their score as
    probability, strongest first.  One qualifying category collapses to a
    simple annotation."""
    qualifying = sorted(
        (c for c, s in estimate.scores.items() if s >= cfg.constituent_threshold),
        key=lambda c: (-estimate.scores[c], c),
    )
    if not qualifying:
        raise FusionError(
            "NO_SIGNAL",
            f"no category reaches the {cfg.constituent_threshold} threshold",
        )

    def constituent(category: str, item_scope: Scope) -> EmotionAnnotation:
        detail = estimate.carried.get(category, CarriedDetail())
        return EmotionAnnotation(
            category=category,
            dimensions=dict(detail.dimensions),
            appraisals=dict(detail.appraisals),
            regulation=dict(detail.regulation),
            probability=estimate.scores[category],
            scope=item_scope,
        )

    if len(qualifying) == 1:
        return constituent(qualifying[0], scope)
    return ComplexEmotion(
        constituents=tuple(constituent(c, UNSCOPED) for c in qualifying),
        scope=scope,
    )
