"""Need inference and access decisions."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from earlkit.errors import PolicyError
from earlkit.fusion import FusedEstimate
from earlkit.needs import (
    AccessPolicy,
    PolicyRule,
    decide_access,
    infer_needs,
    load_policy,
)


def estimate(scores, ambiguous=False):
    dominant = max(scores, key=lambda c: (scores[c], c)) if scores else None
    return FusedEstimate(
        scores=scores, dominant=dominant, ambiguous=ambiguous, contributors=()
    )


HAZARD_POLICY = AccessPolicy(rules=(PolicyRule("hazardous-tool", "aggressive", 0.6),))


def reference_decision(estimate, resource, policy):
    """(verdict, rationale, rule) as decided from the full NeedProfile."""
    needs = infer_needs(estimate)
    note = "; ambiguous estimate" if estimate.ambiguous else ""
    for rule in policy.rules:
        if rule.resource != resource:
            continue
        strength = needs.strength(rule.behavior)
        if strength >= rule.threshold:
            rationale = (
                f"rule '{rule.resource} deny_when {rule.behavior} >= "
                f"{rule.threshold}' triggered: {rule.behavior}={strength:.4f}{note}"
            )
            return "deny", rationale, rule
    return "allow", f"no rule matched{note}", None


CATEGORIES = [
    "desire", "sensuality", "anger", "fear", "sadness", "joy", "affection", "grief", "boredom",
]
BEHAVIORS = [
    "searching", "aggressive", "protective", "dejected", "gratulant", "caressive", "bored",
]
scores_st = st.dictionaries(
    st.sampled_from(CATEGORIES),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
)
rules_st = st.lists(
    st.builds(
        PolicyRule,
        st.sampled_from(["door", "safe"]),
        st.sampled_from(BEHAVIORS),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=5,
)


class TestInferNeeds:
    def test_anger_maps_to_aggressive(self):
        profile = infer_needs(estimate({"anger": 0.8}))
        assert profile.orientations == (("aggressive", 0.8),)
        assert profile.unmapped == ()

    def test_empty_scores(self):
        profile = infer_needs(estimate({}))
        assert profile.orientations == ()

    def test_sorted_by_strength(self):
        profile = infer_needs(estimate({"joy": 0.6, "fear": 0.3}))
        assert profile.orientations == (("gratulant", 0.6), ("protective", 0.3))

    def test_strengths_are_raw_scores(self):
        scores = {"anger": 0.123456, "sadness": 0.9}
        profile = infer_needs(estimate(scores))
        assert dict(profile.orientations) == {
            "aggressive": 0.123456,
            "dejected": 0.9,
        }

    def test_unmapped_categories_reported(self):
        profile = infer_needs(estimate({"grief": 0.5, "anger": 0.2}))
        assert profile.unmapped == ("grief",)
        assert profile.orientations == (("aggressive", 0.2),)

    def test_sensuality_alias(self):
        profile = infer_needs(estimate({"sensuality": 0.4}))
        assert profile.orientations == (("searching", 0.4),)


class TestDecideAccess:
    def test_angry_jack_is_denied(self):
        decision = decide_access(estimate({"anger": 0.8}), "hazardous-tool", HAZARD_POLICY)
        assert decision.verdict == "deny"
        assert "hazardous-tool deny_when aggressive >= 0.6" in decision.rationale
        assert decision.rule == HAZARD_POLICY.rules[0]

    def test_below_threshold_allows(self):
        decision = decide_access(estimate({"anger": 0.5}), "hazardous-tool", HAZARD_POLICY)
        assert decision.verdict == "allow"

    def test_unmatched_resource_allows(self):
        decision = decide_access(estimate({"anger": 0.9}), "library", HAZARD_POLICY)
        assert decision.verdict == "allow"
        assert decision.rationale == "no rule matched"

    def test_first_matching_rule_wins(self):
        policy = AccessPolicy(
            rules=(
                PolicyRule("store", "dejected", 0.1),
                PolicyRule("store", "aggressive", 0.1),
            )
        )
        decision = decide_access(
            estimate({"sadness": 0.5, "anger": 0.5}), "store", policy
        )
        assert decision.verdict == "deny"
        assert decision.rule.behavior == "dejected"

    def test_ambiguity_echoed_in_rationale(self):
        decision = decide_access(
            estimate({"anger": 0.7, "joy": 0.65}, ambiguous=True),
            "hazardous-tool",
            HAZARD_POLICY,
        )
        assert decision.verdict == "deny"
        assert "ambiguous" in decision.rationale

    def test_empty_policy_always_allows(self):
        for scores in ({}, {"anger": 1.0}, {"joy": 0.4, "fear": 0.9}):
            decision = decide_access(estimate(scores), "anything", AccessPolicy())
            assert decision.verdict == "allow"

    @given(
        low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        bump=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_monotone_in_behavior_strength(self, low, bump):
        high = min(1.0, low + bump)
        before = decide_access(estimate({"anger": low}), "hazardous-tool", HAZARD_POLICY)
        after = decide_access(estimate({"anger": high}), "hazardous-tool", HAZARD_POLICY)
        if before.verdict == "deny":
            assert after.verdict == "deny"


class TestPolicyFile:
    def test_load(self):
        policy = load_policy(
            "# comment\nhazardous-tool deny_when aggressive >= 0.6\n"
            "archive deny_when dejected >= 0.9\n"
        )
        assert policy.rules == (
            PolicyRule("hazardous-tool", "aggressive", 0.6),
            PolicyRule("archive", "dejected", 0.9),
        )

    def test_bad_shape_rejected(self):
        with pytest.raises(PolicyError) as exc:
            load_policy("hazardous-tool deny aggressive >= 0.6")
        assert exc.value.code == "BAD_RULE"

    def test_bad_threshold_rejected(self):
        with pytest.raises(PolicyError) as exc:
            load_policy("x deny_when aggressive >= lots")
        assert exc.value.code == "BAD_RULE"

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(PolicyError) as exc:
            load_policy("x deny_when aggressive >= 1.5")
        assert exc.value.code == "BAD_RULE"

    def test_duplicate_rule_rejected(self):
        with pytest.raises(PolicyError) as exc:
            load_policy(
                "x deny_when aggressive >= 0.5\nx deny_when aggressive >= 0.7"
            )
        assert exc.value.code == "DUPLICATE_RULE"


class TestDecideWithoutProfile:
    """decide_access reads strengths off the scores; infer_needs is the reference."""

    @given(scores=scores_st, ambiguous=st.booleans(), rules=rules_st)
    @example(scores={"desire": 0.3, "sensuality": 0.7}, ambiguous=False,
             rules=[PolicyRule("door", "searching", 0.5)])
    @example(scores={"desire": 0.7, "sensuality": 0.3}, ambiguous=True,
             rules=[PolicyRule("door", "searching", 0.5)])
    @example(scores={"grief": 0.9, "boredom": 1.0}, ambiguous=False,
             rules=[PolicyRule("door", "bored", 0.0)])
    @example(scores={}, ambiguous=True, rules=[PolicyRule("door", "aggressive", 0.0)])
    @example(scores={"anger": 0.9}, ambiguous=True,
             rules=[PolicyRule("safe", "aggressive", 0.1), PolicyRule("door", "dejected", 0.5)])
    def test_same_decision_as_the_need_profile(self, scores, ambiguous, rules):
        policy = AccessPolicy(rules=tuple(rules))
        for resource in ("door", "safe", "window"):
            decision = decide_access(estimate(scores, ambiguous), resource, policy)
            want = reference_decision(estimate(scores, ambiguous), resource, policy)
            assert (decision.verdict, decision.rationale, decision.rule) == want

    def test_desire_and_sensuality_take_the_stronger(self):
        policy = AccessPolicy(rules=(PolicyRule("door", "searching", 0.6),))
        decision = decide_access(estimate({"desire": 0.2, "sensuality": 0.65}), "door", policy)
        assert decision.verdict == "deny"
        assert decision.rationale.endswith("searching=0.6500")

    def test_zero_threshold_denies_an_absent_behavior(self):
        policy = AccessPolicy(rules=(PolicyRule("door", "protective", 0.0),))
        decision = decide_access(estimate({"grief": 0.9}), "door", policy)
        assert decision.verdict == "deny"
        assert decision.rationale.endswith("protective=0.0000")

    def test_allow_decisions_are_shared(self):
        plain = decide_access(estimate({"joy": 0.9}), "door", HAZARD_POLICY)
        unsure = decide_access(estimate({"joy": 0.5}, ambiguous=True), "door", HAZARD_POLICY)
        assert plain.rationale == "no rule matched"
        assert unsure.rationale == "no rule matched; ambiguous estimate"
        assert decide_access(estimate({}), "x", AccessPolicy()) is plain
        assert decide_access(estimate({}, ambiguous=True), "x", AccessPolicy()) is unsure
