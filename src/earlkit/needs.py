"""From fused emotions to motivated behaviors and access decisions.

Emotional states are treated as proxies for current needs: each fused
category maps to its motivated behavior, keeping the fused score as the
orientation strength.  Access rules then threshold on behavior strength,
which is how a watchful storekeeper reasons: visibly aggressive, no
hammer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PolicyError, decode_text
from .fusion import FusedEstimate
from .model import BEHAVIOR_FOR_EMOTION, EMOTION_ALIASES, behavior_for_emotion


@dataclass(frozen=True)
class NeedProfile:
    """Behavior orientations by descending strength.

    Categories without a behavior mapping cannot be force-mapped; they are
    reported in ``unmapped`` instead of being dropped silently.
    """

    orientations: tuple[tuple[str, float], ...]
    unmapped: tuple[str, ...] = ()

    def strength(self, behavior: str) -> float:
        for label, value in self.orientations:
            if label == behavior:
                return value
        return 0.0


@dataclass(frozen=True)
class PolicyRule:
    resource: str
    behavior: str
    threshold: float


@dataclass(frozen=True)
class AccessPolicy:
    rules: tuple[PolicyRule, ...] = ()


@dataclass(frozen=True)
class Decision:
    verdict: str  # "allow" or "deny"
    rationale: str
    rule: PolicyRule | None = None


def _mappable(category: str) -> bool:
    return EMOTION_ALIASES.get(category, category) in BEHAVIOR_FOR_EMOTION


def _categories_by_behavior() -> dict[str, tuple[str, ...]]:
    mapped = sorted(c for c in {*BEHAVIOR_FOR_EMOTION, *EMOTION_ALIASES} if _mappable(c))
    return {
        behavior: tuple(c for c in mapped if behavior_for_emotion(c) == behavior)
        for behavior in BEHAVIOR_FOR_EMOTION.values()
    }


#: Every category that maps to each behavior, in name order.
_CATEGORIES_FOR = _categories_by_behavior()

#: The allow decisions carry no rule; they are immutable, so two are shared.
_ALLOW = Decision(verdict="allow", rationale="no rule matched")
_ALLOW_AMBIGUOUS = Decision(verdict="allow", rationale="no rule matched; ambiguous estimate")


def _strength(scores: dict[str, float], behavior: str) -> float:
    """``infer_needs(estimate).strength(behavior)`` without building the profile.

    The profile lists a behavior's strongest category first and, on equal
    scores, the category first in name order, which is the one kept here.
    A plain loop: ``max`` over a generator costs several times as much.
    """
    strength = None
    for category in _CATEGORIES_FOR.get(behavior, ()):
        score = scores.get(category)
        if score is not None and (strength is None or score > strength):
            strength = score
    return 0.0 if strength is None else strength


def infer_needs(estimate: FusedEstimate) -> NeedProfile:
    """Project fused category scores onto motivated-behavior strengths.

    Strengths are the fused scores unchanged; the ordering is strength
    descending with alphabetical tie-break.
    """
    orientations = []
    unmapped = []
    for category in sorted(estimate.scores):
        if _mappable(category):
            orientations.append((behavior_for_emotion(category), estimate.scores[category]))
        else:
            unmapped.append(category)
    orientations.sort(key=lambda pair: (-pair[1], pair[0]))
    return NeedProfile(orientations=tuple(orientations), unmapped=tuple(unmapped))


def decide_access(
    estimate: FusedEstimate, resource: str, policy: AccessPolicy
) -> Decision:
    """Deny iff a rule for the resource sees its blocking behavior at or
    above threshold; the first such rule in policy order is named."""
    scores = estimate.scores
    for rule in policy.rules:
        if rule.resource != resource:
            continue
        strength = _strength(scores, rule.behavior)
        if strength >= rule.threshold:
            note = "; ambiguous estimate" if estimate.ambiguous else ""
            return Decision(
                verdict="deny",
                rationale=(
                    f"rule '{rule.resource} deny_when {rule.behavior} >= "
                    f"{rule.threshold}' triggered: {rule.behavior}={strength:.4f}{note}"
                ),
                rule=rule,
            )
    return _ALLOW_AMBIGUOUS if estimate.ambiguous else _ALLOW


def load_policy(data: bytes | str) -> AccessPolicy:
    """Read the line-oriented policy format.

    One rule per line: ``resource_tag deny_when behavior >= threshold``;
    blank lines and ``#`` comments are skipped.
    """
    data = decode_text(data, PolicyError, "BAD_RULE")
    rules: list[PolicyRule] = []
    seen: set[tuple[str, str]] = set()
    for line_no, line in enumerate(data.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5 or parts[1] != "deny_when" or parts[3] != ">=":
            raise PolicyError(
                "BAD_RULE",
                f"line {line_no}: expected 'resource deny_when behavior >= threshold'",
            )
        resource, _, behavior, _, raw = parts
        try:
            threshold = float(raw)
        except ValueError:
            raise PolicyError(
                "BAD_RULE", f"line {line_no}: threshold {raw!r} is not a number"
            ) from None
        if not 0.0 <= threshold <= 1.0:
            raise PolicyError(
                "BAD_RULE", f"line {line_no}: threshold {threshold} outside [0, 1]"
            )
        key = (resource, behavior)
        if key in seen:
            raise PolicyError(
                "DUPLICATE_RULE",
                f"line {line_no}: second rule for {resource!r} blocking {behavior!r}",
            )
        seen.add(key)
        rules.append(PolicyRule(resource, behavior, threshold))
    return AccessPolicy(rules=tuple(rules))
