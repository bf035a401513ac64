"""From fused emotions to motivated behaviors and access decisions.

Emotional states are treated as proxies for current needs: each fused
category maps to its motivated behavior, keeping the fused score as the
orientation strength.  Access rules then threshold on behavior strength,
which is how a watchful storekeeper reasons: visibly aggressive, no
hammer.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import PolicyError, read_lines
from .fusion import FusedEstimate, FusionConfig, fuse_at
from .model import BEHAVIOR_FOR_EMOTION, _Record


class NeedProfile(_Record):
    """Behavior orientations by descending strength.

    Categories without a behavior mapping cannot be force-mapped; they are
    reported in ``unmapped`` instead of being dropped silently.
    """

    def __init__(self, orientations: tuple[tuple[str, float], ...], unmapped: tuple[str, ...] = ()):
        self.__dict__.update(orientations=orientations, unmapped=unmapped)


class PolicyRule(_Record):
    def __init__(self, resource: str, behavior: str, threshold: float):
        # Fail closed: a misspelt behavior or a NaN threshold would never
        # fire, so the rule would answer allow.
        if behavior not in _CATEGORIES_FOR:
            raise PolicyError("UNKNOWN_BEHAVIOR", f"unknown behavior {behavior!r}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        self.__dict__.update(resource=resource, behavior=behavior, threshold=threshold)


class AccessPolicy(_Record):
    def __init__(self, rules: Iterable[PolicyRule] = ()):
        # A second rule for one resource and behavior could never be the one
        # named.  Checked as each rule is taken, so a reader knows its line.
        taken = {}
        for rule in rules:
            key = (rule.resource, rule.behavior)
            if key in taken:
                raise PolicyError(
                    "DUPLICATE_RULE",
                    f"second rule for {rule.resource!r} blocking {rule.behavior!r}",
                )
            taken[key] = rule
        self.__dict__.update(rules=tuple(taken.values()))


# Still a dataclass: perfbench/selfcheck.py builds variants with dataclasses.replace.
@dataclass(frozen=True)
class Decision:
    verdict: str  # "allow" or "deny"
    rationale: str
    rule: PolicyRule | None = None


#: Every category that maps to each behavior, in name order.
_CATEGORIES_FOR = {behavior: () for behavior in BEHAVIOR_FOR_EMOTION.values()}
for _category, _behavior in sorted(BEHAVIOR_FOR_EMOTION.items()):
    _CATEGORIES_FOR[_behavior] += (_category,)

#: The allow decisions carry no rule; they are immutable, so two are shared.
_ALLOW = Decision(verdict="allow", rationale="no rule matched")
_ALLOW_AMBIGUOUS = Decision(verdict="allow", rationale="no rule matched; ambiguous estimate")


def infer_needs(estimate: FusedEstimate) -> NeedProfile:
    """Project fused category scores onto motivated-behavior strengths.

    Strengths are the fused scores unchanged; the ordering is strength
    descending with alphabetical tie-break.
    """
    orientations = []
    unmapped = []
    for category in sorted(estimate.scores):
        behavior = BEHAVIOR_FOR_EMOTION.get(category)
        if behavior is not None:
            orientations.append((behavior, estimate.scores[category]))
        else:
            unmapped.append(category)
    orientations.sort(key=lambda pair: (-pair[1], pair[0]))
    return NeedProfile(orientations=tuple(orientations), unmapped=tuple(unmapped))


def decide_access(
    estimate: FusedEstimate, resource: str, policy: AccessPolicy
) -> Decision:
    """Deny iff a rule for the resource sees its blocking behavior, the summed
    score of its categories, at or above threshold; the first such rule is named.
    Otherwise allow, also on an empty estimate and for a resource no rule
    names; :func:`decide` refuses both.

    Raises ValueError when a score a rule reads is NaN or negative: either
    would pull the sum below the threshold and answer allow.
    """
    scores = estimate.scores
    for rule in policy.rules:
        if rule.resource != resource:
            continue
        strength = 0.0
        for category in _CATEGORIES_FOR[rule.behavior]:
            score = scores.get(category, 0.0)
            if not score >= 0.0:
                raise ValueError(f"score {score} of {category!r} is not a number >= 0")
            strength += score
        if strength >= rule.threshold:
            note = "; ambiguous estimate" if estimate.ambiguous else ""
            rationale = (
                f"rule '{rule.resource} deny_when {rule.behavior} >= "
                f"{rule.threshold}' triggered: {rule.behavior}={strength:.4f}{note}"
            )
            return Decision("deny", rationale, rule)
    return _ALLOW_AMBIGUOUS if estimate.ambiguous else _ALLOW


def decide(state, now: float, cfg: FusionConfig, resource: str, policy: AccessPolicy) -> Decision:
    """:func:`decide_access` on :func:`~earlkit.fusion.fuse_at`'s estimate of
    ``state``, a ``fusion.TemporalState``, at ``now``, failing closed where
    ``decide_access`` allows: ``NO_SIGNAL`` when no evidence is live, then
    ``UNKNOWN_RESOURCE`` for a resource no rule names, most likely a typo."""
    estimate = fuse_at(state, now, cfg)
    if all(rule.resource != resource for rule in policy.rules):
        raise PolicyError("UNKNOWN_RESOURCE", f"no rule names {resource!r}")
    return decide_access(estimate, resource, policy)


def load_policy(data: bytes | str) -> AccessPolicy:
    """Read the line-oriented policy format.

    One rule per line: ``resource_tag deny_when behavior >= threshold``;
    blank lines and ``#`` comments are skipped.  ``behavior`` must be one
    that some emotion motivates: a misspelt one would never match.
    """

    def rule(line: str) -> PolicyRule:
        parts = line.split()
        if len(parts) != 5 or parts[1] != "deny_when" or parts[3] != ">=":
            raise ValueError("expected 'resource deny_when behavior >= threshold'")
        resource, _, behavior, _, raw = parts
        try:
            threshold = float(raw)
        except ValueError:
            raise ValueError(f"threshold {raw!r} is not a number") from None
        return PolicyRule(resource, behavior, threshold)

    return read_lines(data, PolicyError, "BAD_RULE", lambda lines: AccessPolicy(map(rule, lines)))
