"""Need inference and access decisions."""

import dataclasses
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from earlkit.errors import FusionError, PolicyError
from earlkit.fusion import (
    FusedEstimate,
    FusionConfig,
    MarkerEvidence,
    TemporalState,
    fill_missing,
    fuse_instant,
    load_stream,
    update_temporal,
)
from earlkit.model import EmotionAnnotation
from earlkit.needs import (
    AccessPolicy,
    PolicyRule,
    decide,
    decide_access,
    infer_needs,
    load_policy,
)

import oracles


def estimate(scores, ambiguous=False):
    dominant = max(scores, key=lambda c: (scores[c], c)) if scores else None
    return FusedEstimate(scores=scores, dominant=dominant, ambiguous=ambiguous)


HAZARD_POLICY = AccessPolicy(rules=(PolicyRule("hazardous-tool", "aggressive", 0.6),))


CATEGORIES = [
    "desire", "sensuality", "anger", "fear", "sadness", "joy", "affection", "grief", "boredom",
]
BEHAVIORS = [
    "searching", "aggressive", "protective", "dejected", "gratulant", "caressive",
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
    # A policy holds one rule per resource and behavior.
    unique_by=lambda rule: (rule.resource, rule.behavior),
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

    @given(scores=scores_st)
    def test_same_profile_as_the_oracle(self, scores):
        profile = infer_needs(estimate(scores))
        assert (profile.orientations, profile.unmapped) == oracles.needs(scores)


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

    def test_unknown_behavior_rejected(self):
        # Loaded, the misspelt rule would never match and the tool stays allowed.
        with pytest.raises(PolicyError) as exc:
            load_policy("# typo\nhazardous-tool deny_when agressive >= 0.5\n")
        assert exc.value.code == "UNKNOWN_BEHAVIOR"
        assert exc.value.message == "line 2: unknown behavior 'agressive'"

    def test_duplicate_rule_rejected(self):
        with pytest.raises(PolicyError) as exc:
            load_policy(
                "x deny_when aggressive >= 0.5\nx deny_when aggressive >= 0.7"
            )
        assert exc.value.code == "DUPLICATE_RULE"
        assert exc.value.message == "line 2: second rule for 'x' blocking 'aggressive'"

    def test_same_behavior_for_two_resources_is_no_duplicate(self):
        policy = load_policy("x deny_when aggressive >= 0.5\ny deny_when aggressive >= 0.7\n")
        assert [rule.resource for rule in policy.rules] == ["x", "y"]

    def test_policy_is_built_once(self, monkeypatch):
        # Rebuilding the policy after each line would check every rule read so
        # far again.
        built = []
        init = AccessPolicy.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AccessPolicy, "__init__", counting)
        policy = load_policy("".join(f"door{n} deny_when aggressive >= 0.5\n" for n in range(50)))
        assert len(policy.rules) == 50
        assert len(built) == 1


class TestHandBuiltRecords:
    """A hand-built record rejects what the file readers reject: a rule or
    an item they refuse would otherwise answer allow."""

    def test_unknown_behavior_rejected(self):
        with pytest.raises(PolicyError) as exc:
            PolicyRule("hazardous-tool", "agressive", 0.6)
        assert (exc.value.code, exc.value.message) == (
            "UNKNOWN_BEHAVIOR", "unknown behavior 'agressive'"
        )

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_threshold_outside_unit_range_rejected(self, threshold):
        with pytest.raises(ValueError) as exc:
            PolicyRule("hazardous-tool", "aggressive", threshold)
        assert str(exc.value) == f"threshold {threshold} outside [0, 1]"

    def test_duplicate_rule_rejected(self):
        # The second rule could never be the one a decision names.
        rules = (PolicyRule("x", "aggressive", 0.5), PolicyRule("x", "aggressive", 0.7))
        with pytest.raises(PolicyError) as exc:
            AccessPolicy(rules)
        assert (exc.value.code, exc.value.message) == (
            "DUPLICATE_RULE", "second rule for 'x' blocking 'aggressive'"
        )

    def test_rules_are_kept_as_a_tuple(self):
        rule = PolicyRule("hazardous-tool", "aggressive", 0.6)
        policy = AccessPolicy([rule])
        assert policy.rules == (rule,)
        assert policy == AccessPolicy((rule,)) == HAZARD_POLICY
        assert hash(policy) == hash(HAZARD_POLICY)
        assert {HAZARD_POLICY: "hazard"}[policy] == "hazard"

    @pytest.mark.parametrize("rule, scores, category", [
        (PolicyRule("shop", "searching", 0.5), {"desire": 0.9, "sensuality": math.nan},
         "sensuality"),
        (PolicyRule("shop", "searching", 0.5), {"desire": 0.6, "sensuality": -0.5},
         "sensuality"),
        (HAZARD_POLICY.rules[0], {"anger": math.nan}, "anger"),
    ])
    def test_nan_or_negative_score_raises(self, rule, scores, category):
        # Summed into a behavior, either would answer allow.
        policy = AccessPolicy((rule,))
        for decide in (decide_access, oracles.decision):
            with pytest.raises(ValueError) as exc:
                decide(estimate(scores), rule.resource, policy)
            assert str(exc.value) == (
                f"score {scores[category]} of {category!r} is not a number >= 0"
            )

    def test_negative_zero_score_decides(self):
        policy = AccessPolicy((PolicyRule("door", "aggressive", 0.0),))
        decision = decide_access(estimate({"anger": -0.0}), "door", policy)
        assert decision.rationale.endswith("aggressive=0.0000")

    def test_decayed_unknown_source_never_reaches_a_decision(self):
        # An unknown source used to raise in fuse_instant while fresh, but
        # decayed below drop_floor it was dropped unseen and the tool allowed.
        annotation = EmotionAnnotation(category="anger", probability=0.9, modality="face")
        with pytest.raises(ValueError, match="unknown source 'telepathy'"):
            state = update_temporal(TemporalState(), MarkerEvidence(annotation, "telepathy", 0.0))
            decide_access(fuse_instant(fill_missing(state, 20.0)), "hazardous-tool", HAZARD_POLICY)


class TestDecideWithoutProfile:
    """decide_access reads strengths off the scores; oracles.needs is the reference."""

    @given(scores=scores_st, ambiguous=st.booleans(), rules=rules_st)
    @example(scores={"desire": 0.3, "sensuality": 0.7}, ambiguous=False,
             rules=[PolicyRule("door", "searching", 0.5)])
    @example(scores={"desire": 0.7, "sensuality": 0.3}, ambiguous=True,
             rules=[PolicyRule("door", "searching", 0.5)])
    @example(scores={}, ambiguous=True, rules=[PolicyRule("door", "aggressive", 0.0)])
    @example(scores={"anger": 0.9}, ambiguous=True,
             rules=[PolicyRule("safe", "aggressive", 0.1), PolicyRule("door", "dejected", 0.5)])
    def test_same_decision_as_the_need_profile(self, scores, ambiguous, rules):
        policy = AccessPolicy(rules=tuple(rules))
        for resource in ("door", "safe", "window"):
            decision = decide_access(estimate(scores, ambiguous), resource, policy)
            want = oracles.decision(estimate(scores, ambiguous), resource, policy)
            assert (decision.verdict, decision.rationale, decision.rule) == want

    def test_desire_and_sensuality_add_up(self):
        # Two names of one emotion split its fused mass; the stronger half
        # alone (0.65) would answer allow.
        policy = AccessPolicy(rules=(PolicyRule("door", "searching", 0.7),))
        decision = decide_access(estimate({"desire": 0.2, "sensuality": 0.65}), "door", policy)
        assert decision.verdict == "deny"
        assert decision.rationale.endswith("searching=0.8500")

    @given(scores=scores_st, ambiguous=st.booleans(), rules=rules_st)
    @example(scores={"desire": 0.3, "sensuality": 0.3}, ambiguous=False,
             rules=[PolicyRule("door", "searching", 0.5)])
    def test_moving_desire_onto_sensuality_changes_nothing(self, scores, ambiguous, rules):
        # Exact: decide_access sums desire, then sensuality, from 0.0.
        policy = AccessPolicy(rules=tuple(rules))
        others = {c: s for c, s in scores.items() if c not in ("desire", "sensuality")}
        variants = [scores]
        if "desire" in scores or "sensuality" in scores:
            total = scores.get("desire", 0.0) + scores.get("sensuality", 0.0)
            variants += [{**others, "sensuality": total}, {**others, "desire": total}]
        for resource in ("door", "safe"):
            decisions = {
                (d.verdict, d.rationale, d.rule)
                for d in (decide_access(estimate(v, ambiguous), resource, policy) for v in variants)
            }
            assert len(decisions) == 1, decisions

    def test_decisions_refuse_assignment(self):
        # The allow decisions are shared by every caller, so none may change.
        deny = decide_access(estimate({"anger": 0.8}), "hazardous-tool", HAZARD_POLICY)
        plain = decide_access(estimate({}), "x", AccessPolicy())
        unsure = decide_access(estimate({}, ambiguous=True), "x", AccessPolicy())
        for decision in (deny, plain, unsure):
            with pytest.raises(dataclasses.FrozenInstanceError):
                decision.verdict = "allow"

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


class TestDecide:
    """decide fuses a temporal state and decides, failing closed where
    decide_access allows."""

    STATE = load_stream(b"0 face anger 0.9 1\n")

    def test_nothing_live_is_no_signal(self):
        # At t=60 the anger has decayed below drop_floor.
        assert decide_access(
            fuse_instant(fill_missing(self.STATE, 60.0)), "hazardous-tool", HAZARD_POLICY
        ).verdict == "allow"
        with pytest.raises(FusionError) as exc:
            decide(self.STATE, 60.0, FusionConfig(), "hazardous-tool", HAZARD_POLICY)
        assert (exc.value.code, exc.value.message) == (
            "NO_SIGNAL", "no evidence is live at t=60.0"
        )

    def test_resource_no_rule_names_is_unknown(self):
        # A misspelt resource would be allowed whatever the evidence.
        estimate = fuse_instant(fill_missing(self.STATE, 0.0))
        assert decide_access(estimate, "hazardous-tol", HAZARD_POLICY).verdict == "allow"
        with pytest.raises(PolicyError) as exc:
            decide(self.STATE, 0.0, FusionConfig(), "hazardous-tol", HAZARD_POLICY)
        assert (exc.value.code, exc.value.message) == (
            "UNKNOWN_RESOURCE", "no rule names 'hazardous-tol'"
        )
