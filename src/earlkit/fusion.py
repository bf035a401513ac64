"""Weighted fusion of per-modality emotion evidence.

Each evidence item contributes weight x probability x intensity to its
category; scores are normalized by the total weight of all contributing
sources, so they stay in [0, 1] and are invariant under uniform weight
scaling.  A temporal state keeps the last observation per source and can
synthesize decayed stand-ins for sources that have gone quiet.  Each
stand-in keeps its observation time, so the elapsed time ``now - timestamp``
tells observation (0) from inference (> 0).  An item whose probability does
not change is its own stand-in: records are immutable, so it is returned as
it is.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import reduce
from operator import attrgetter
from types import MappingProxyType

from .errors import FusionError, read_lines
from .model import (
    SOURCE_MODALITY,
    SOURCE_WEIGHTS,
    ComplexEmotion,
    EmotionAnnotation,
    VocabularyProfile,
    _Record,
)


class MarkerEvidence(_Record):
    """One per-modality observation feeding the fusion engine."""

    def __init__(self, annotation: EmotionAnnotation, source: str, timestamp: float):
        # Fail closed: a source with no weight is refused here, before decay
        # can drop it unseen.  A NaN passes no comparison, so each range
        # check is written to reject it rather than to let it through.
        if source not in SOURCE_WEIGHTS:
            raise ValueError(f"unknown source {source!r}")
        a = annotation
        if a.category is None:
            raise ValueError("evidence annotation must carry a category")
        if a.modality is None:
            raise ValueError("evidence annotation must carry a modality")
        p, i = a.probability, a.intensity
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"probability={p} outside [0, 1]")
        if i is not None and not 0.0 <= i <= 1.0:
            raise ValueError(f"intensity={i} outside [0, 1]")
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp={timestamp} is not a finite time")
        self.__dict__.update(annotation=annotation, source=source, timestamp=timestamp)


class FusionConfig(_Record):
    """Tunable fusion knobs (decay_lambda per second); each is optional in the file form."""

    def __init__(
        self, ambiguity_epsilon: float = 0.1, constituent_threshold: float = 0.2,
        decay_lambda: float = 0.2, drop_floor: float = 0.05,
        weight_overrides: Mapping[str, float] | None = None,
    ):
        # A read-only copy, so the caller's dict can change without the
        # weight table below going stale.  The table is no __init__
        # parameter, so no field: equality and repr ignore it.
        overrides = MappingProxyType(dict(weight_overrides or {}))
        values = {
            "ambiguity_epsilon": ambiguity_epsilon, "constituent_threshold": constituent_threshold,
            "decay_lambda": decay_lambda, "drop_floor": drop_floor, "weight_overrides": overrides,
            "_weights": {
                source: overrides.get(source, base) for source, base in SOURCE_WEIGHTS.items()
            },
        }
        # Fail closed: a NaN passes no comparison, so each check is written
        # to reject it rather than to let it through.
        for name in ("ambiguity_epsilon", "constituent_threshold", "drop_floor"):
            if not 0.0 <= values[name] <= 1.0:
                raise ValueError(f"{name}={values[name]} outside [0, 1]")
        if not 0.0 <= decay_lambda < math.inf:
            raise ValueError(f"decay_lambda={decay_lambda} must be finite and >= 0")
        for source, weight in overrides.items():
            if source not in SOURCE_WEIGHTS:
                raise ValueError(f"weight.{source}: {source!r} is not a capture source")
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"weight.{source}={weight} must be finite and >= 0")
        self.__dict__.update(values)


def load_config(data: bytes | str) -> FusionConfig:
    """Read a flat ``key=value`` config file; all keys optional.

    Source weight overrides use dotted keys, e.g. ``weight.face = 0.8``.
    Each value is checked on its own line, so every error names its line.
    """

    def setting(cfg: FusionConfig, line: str) -> FusionConfig:
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError("expected key=value")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"{value!r} is not a number") from None
        if key.startswith("weight."):
            change = {"weight_overrides": {**cfg.weight_overrides, key[len("weight."):]: number}}
        elif key in ("ambiguity_epsilon", "constituent_threshold", "decay_lambda", "drop_floor"):
            change = {key: number}
        else:
            raise ValueError(f"unknown key {key!r}")
        return cfg._replace(**change)

    return read_lines(
        data, FusionError, "BAD_CONFIG", lambda lines: reduce(setting, lines, FusionConfig())
    )


def load_stream(
    data: bytes | str, profile: VocabularyProfile | None = None
) -> TemporalState:
    """The temporal state a recorded evidence stream leaves, its evidence
    folded through :func:`update_temporal` in line order; a stream with no
    evidence line is ``BAD_STREAM``.  Line format: ``t source category p i``,
    whitespace separated, where ``source`` is a capture source (its modality
    is implied) and ``t``, ``p`` and ``i`` are numbers that
    :class:`MarkerEvidence` accepts.  Given a ``profile``, a category outside
    it is an error too: a label no rule knows, such as ``Anger`` for
    ``anger``, would otherwise be fused as a category of its own and could
    turn a deny into an allow."""

    def read_item(line: str) -> MarkerEvidence:
        parts = line.split()
        if len(parts) != 5:
            raise ValueError("expected 't source category p i'")
        t_raw, source, category, p_raw, i_raw = parts
        if profile is not None and not profile.allows_category(category):
            raise ValueError(f"category {category!r} not in profile")
        try:
            timestamp, probability, intensity = float(t_raw), float(p_raw), float(i_raw)
        except ValueError:
            raise ValueError("t, p, i must be numbers") from None
        annotation = EmotionAnnotation(
            category=category, intensity=intensity, probability=probability,
            modality=SOURCE_MODALITY.get(source),
        )
        return MarkerEvidence(annotation, source, timestamp)

    state = read_lines(
        data, FusionError, "BAD_STREAM",
        lambda lines: reduce(update_temporal, map(read_item, lines), TemporalState()),
    )
    if not state.last_evidence:
        raise FusionError("BAD_STREAM", "no evidence line")
    return state


class FusedEstimate(_Record):
    """Per-category fused scores plus the dominance/ambiguity verdict."""

    def __init__(self, scores: dict[str, float], dominant: str | None, ambiguous: bool):
        self.__dict__.update(scores=scores, dominant=dominant, ambiguous=ambiguous)


def _dominant(scores: dict[str, float], epsilon: float) -> tuple[str, bool]:
    # One pass over scores, never empty: the top category (the first name among
    # equal scores) and the runner-up score, as sorting by (-score, name) would.
    entries = iter(scores.items())
    dominant, top = next(entries)
    second = None
    for category, score in entries:
        if score > top or (score == top and category < dominant):
            second = top
            dominant, top = category, score
        elif second is None or score > second:
            second = score
    return dominant, second is not None and top - second < epsilon


# Sources, then time, then category: the tuple compares at C speed.
_processing_order = attrgetter("source", "timestamp", "annotation.category")


def fuse_instant(
    evidence: list[MarkerEvidence], cfg: FusionConfig = FusionConfig()
) -> FusedEstimate:
    """Fuse simultaneous evidence into one weighted estimate.

    score(c) = sum over evidence of category c of (weight * probability *
    intensity), divided by the total weight of all evidence.  Output is
    independent of evidence order.
    """
    if not evidence:
        return FusedEstimate({}, None, False)

    # A fixed processing order keeps the floating-point sums independent of
    # input order.  Strictly ascending sources already are that order, as
    # fill_missing's output always is, so only other input is sorted.
    ordered = evidence
    items = iter(evidence)
    previous = next(items).source
    for item in items:
        if not previous < item.source:
            ordered = sorted(evidence, key=_processing_order)
            break
        previous = item.source
    weights = cfg._weights
    total_weight = 0.0
    mass: dict[str, float] = {}
    for item in ordered:
        weight = weights[item.source]
        total_weight += weight
        a = item.annotation
        category = a.category
        # A missing probability or intensity counts as 1.0.
        p = 1.0 if a.probability is None else a.probability
        i = 1.0 if a.intensity is None else a.intensity
        mass[category] = mass.get(category, 0.0) + weight * p * i

    if total_weight == 0.0:
        raise FusionError("ZERO_WEIGHT", "all evidence sources have weight 0")
    # Fail closed: an overflowed total gives inf / inf = NaN scores, on which
    # no rule fires.  A finite total also bounds every category's mass.
    if not total_weight < math.inf:
        raise FusionError("WEIGHT_OVERFLOW", f"evidence weights sum to {total_weight}")
    scores = {category: value / total_weight for category, value in mass.items()}
    dominant, ambiguous = _dominant(scores, cfg.ambiguity_epsilon)
    return FusedEstimate(scores, dominant, ambiguous)


# ---------------------------------------------------------------------------
# Temporal state


class TemporalState(_Record):
    """Last evidence per source, in ascending source order, plus the stream
    clock; updated functionally.  Times count from 0, the clock an empty
    state starts at, and never go back."""

    def __init__(self, last_evidence: dict[str, MarkerEvidence] | None = None, clock: float = 0.0):
        # Ascending sources are fuse_instant's processing order, so
        # fill_missing's stand-ins need no sort.
        if last_evidence is None:
            last_evidence = {}
        keys = iter(last_evidence)
        previous = next(keys, None)
        for source in keys:
            if not previous < source:
                last_evidence = dict(sorted(last_evidence.items()))
                break
            previous = source
        self.__dict__.update(last_evidence=last_evidence, clock=clock)


def update_temporal(state: TemporalState, evidence: MarkerEvidence) -> TemporalState:
    """Absorb one observation, replacing the previous one for its source."""
    t = evidence.timestamp
    if t < state.clock:
        raise FusionError("TIME_REGRESSION", f"evidence at t={t} behind clock t={state.clock}")
    updated = dict(state.last_evidence)
    updated[evidence.source] = evidence
    return TemporalState(updated, t)


def fill_missing(
    state: TemporalState, now: float, cfg: FusionConfig = FusionConfig()
) -> list[MarkerEvidence]:
    """Synthesize decayed stand-ins for every remembered source.

    The result holds at most one item per remembered source, in ascending
    source order, the order a :class:`TemporalState` keeps: that is
    :func:`fuse_instant`'s processing order, so it fuses them unsorted.
    Probability decays as p * exp(-lambda * elapsed); items whose decayed
    probability falls below the drop floor are omitted.  Each stand-in keeps
    its observation time, so ``now - timestamp`` is 0 for an item observed
    at ``now`` and positive for one inferred by decay.  An item whose
    probability does not change, as for one observed at ``now`` that carries
    a probability, is returned as it is, not copied.
    """
    if not math.isfinite(now):
        raise FusionError("BAD_TIME", f"now={now} is not a finite time")
    if now < state.clock:
        raise FusionError(
            "TIME_REGRESSION", f"now={now} behind clock t={state.clock}"
        )
    synthetic = []
    decay_lambda, drop_floor = cfg.decay_lambda, cfg.drop_floor
    for source, item in state.last_evidence.items():
        elapsed = now - item.timestamp
        if elapsed < 0.0:
            raise FusionError(
                "TIME_REGRESSION", f"now={now} behind {source!r} evidence at t={item.timestamp}"
            )
        a = item.annotation
        p = a.probability
        decayed = 1.0 if p is None else p
        # With lambda 0 p is kept: 0 * an overflowed elapsed time is NaN.
        # With elapsed 0 it is kept too: exp(-0.0) is exactly 1.0.
        if decay_lambda and elapsed:
            decayed *= math.exp(-decay_lambda * elapsed)
        if decayed < drop_floor:
            continue
        if decayed == p:
            # Nothing changes, so the immutable item is its own stand-in.
            synthetic.append(item)
            continue
        annotation = EmotionAnnotation(
            a.category, a.dimensions, a.appraisals, a.intensity, decayed, a.regulation,
            a.modality, a.scope,
        )
        synthetic.append(MarkerEvidence(annotation, item.source, item.timestamp))
    return synthetic


def fuse_at(state: TemporalState, now: float, cfg: FusionConfig = FusionConfig()) -> FusedEstimate:
    """:func:`fuse_instant` over :func:`fill_missing`'s stand-ins at ``now``.
    Evidence decayed below ``drop_floor`` is gone, not calm: an empty estimate
    would let a decision allow, so none live raises ``NO_SIGNAL``."""
    live = fill_missing(state, now, cfg)
    if not live:
        raise FusionError("NO_SIGNAL", f"no evidence is live at t={now}")
    return fuse_instant(live, cfg)


# ---------------------------------------------------------------------------
# EARL output


def to_complex_emotion(
    estimate: FusedEstimate, cfg: FusionConfig = FusionConfig()
) -> EmotionAnnotation | ComplexEmotion:
    """Render a fused estimate as unscoped EARL: categories at or above the
    constituent threshold become constituents carrying their score as
    probability, strongest first.  One qualifying category collapses to a
    simple annotation.  A scope is the caller's: ``item._replace(scope=...)``."""
    scores = estimate.scores
    qualifying = sorted(
        (c for c, s in scores.items() if s >= cfg.constituent_threshold),
        key=lambda c: (-scores[c], c),
    )
    if not qualifying:
        raise FusionError(
            "NO_SIGNAL", f"no category reaches the {cfg.constituent_threshold} threshold"
        )
    constituents = tuple(EmotionAnnotation(c, None, None, None, scores[c]) for c in qualifying)
    return ComplexEmotion(constituents) if len(constituents) > 1 else constituents[0]
