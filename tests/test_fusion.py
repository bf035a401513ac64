"""Fusion engine: weighted scores, temporal decay, EARL output."""

import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earlkit.earl_xml import AnnotationDocument, parse_document, serialize_document
from earlkit.errors import EarlError, FusionError, PolicyError
from earlkit.fusion import (
    FusedEstimate,
    FusionConfig,
    MarkerEvidence,
    TemporalState,
    fill_missing,
    fuse_at,
    fuse_instant,
    load_config,
    load_stream,
    to_complex_emotion,
    update_temporal,
)
from earlkit.model import (
    BEHAVIOR_FOR_EMOTION,
    SOURCE_WEIGHTS,
    UNSCOPED,
    ComplexEmotion,
    EmotionAnnotation,
    InlineText,
    TimeSpan,
    validate_annotation,
)
from earlkit.needs import AccessPolicy, PolicyRule, decide, decide_access

import oracles
from test_needs import rules_st

SOURCES = sorted(SOURCE_WEIGHTS)


def evidence(category, source, p=None, i=None, t=0.0, **kwargs):
    annotation = EmotionAnnotation(
        category=category, probability=p, intensity=i, modality="face", **kwargs
    )
    return MarkerEvidence(annotation=annotation, source=source, timestamp=t)


class TestFuseInstant:
    def test_single_item_identity(self):
        f = fuse_instant([evidence("anger", "face", p=0.7, i=1.0)])
        assert f.scores == {"anger": pytest.approx(0.7)}
        assert f.dominant == "anger"
        assert not f.ambiguous

    def test_equal_split_is_ambiguous(self):
        f = fuse_instant(
            [
                evidence("pleasure", "face", p=0.5),
                evidence("friendliness", "language_voice", p=0.5),
            ]
        )
        assert f.scores == {
            "pleasure": pytest.approx(0.25),
            "friendliness": pytest.approx(0.25),
        }
        assert f.ambiguous
        assert f.dominant == "friendliness"  # alphabetical tie-break

    def test_two_sources_same_category(self):
        f = fuse_instant(
            [
                evidence("anger", "language_voice", p=0.8, i=1.0),
                evidence("anger", "movement_kinematic", p=0.6, i=1.0),
            ]
        )
        assert f.scores["anger"] == pytest.approx(0.725, abs=1e-9)

    def test_empty_evidence(self):
        f = fuse_instant([])
        assert f.scores == {}
        assert f.dominant is None
        assert not f.ambiguous

    def test_weight_override(self):
        cfg = FusionConfig(weight_overrides={"face": 0.5})
        f = fuse_instant([evidence("joy", "face", p=1.0)], cfg)
        assert f.scores["joy"] == pytest.approx(1.0)  # 0.5*1 / 0.5
        # One source scores 1.0 whatever its weight; two show it:
        # face 0.5 and language_voice 1.0 give 0.5/1.5 and 1.0/1.5.
        f = fuse_instant([evidence("joy", "face"), evidence("anger", "language_voice")], cfg)
        assert f.scores == pytest.approx({"joy": 1 / 3, "anger": 2 / 3})

    def test_evidence_must_carry_category_and_modality(self):
        with pytest.raises(ValueError):
            MarkerEvidence(
                annotation=EmotionAnnotation(dimensions={"arousal": 0.1}),
                source="face",
                timestamp=0.0,
            )


class TestFusionProperties:
    def test_small_instances_match_brute_force(self):
        # Every single item on the full grid, and every unordered pair over a
        # thinned item space (intensity fixed).
        grid = [round(0.1 * k, 1) for k in range(11)]
        categories = ["anger", "joy"]
        cases = [
            [evidence(category, source, p=p, i=i)]
            for category, source, p, i in itertools.product(categories, SOURCES, grid, grid)
        ]
        items = [
            evidence(category, source, p=p, i=1.0)
            for category, source, p in itertools.product(categories, SOURCES, grid)
        ]
        cases += [list(pair) for pair in itertools.combinations_with_replacement(items, 2)]
        for case in cases:
            assert fused_fields(case, FusionConfig()) == oracle_fields(case, FusionConfig())

    def test_random_triples_match_brute_force(self):
        rng = random.Random(97)
        grid = [round(0.1 * k, 1) for k in range(11)]
        categories = ["anger", "joy", "sadness"]
        for _ in range(5000):
            items = [
                evidence(rng.choice(categories), rng.choice(SOURCES), p=rng.choice(grid),
                         i=rng.choice(grid))
                for _ in range(3)
            ]
            assert fused_fields(items, FusionConfig()) == oracle_fields(items, FusionConfig())

    def test_permutation_invariance(self):
        rng = random.Random(41)
        categories = ["anger", "joy", "pleasure", "worry"]
        for _ in range(1000):
            base = [
                evidence(
                    rng.choice(categories),
                    rng.choice(SOURCES),
                    p=round(rng.random(), 3),
                    i=round(rng.random(), 3),
                    t=float(k),
                )
                for k in range(rng.randint(2, 5))
            ]
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert fuse_instant(shuffled) == fuse_instant(base)

    def test_uniform_weight_scaling_preserves_scores(self):
        rng = random.Random(43)
        for _ in range(1000):
            items = [
                evidence(
                    rng.choice(["anger", "joy"]),
                    rng.choice(SOURCES),
                    p=round(rng.random(), 3),
                )
                for _ in range(rng.randint(1, 4))
            ]
            k = rng.choice([0.5, 2.0, 3.0, 10.0])
            scaled = FusionConfig(
                weight_overrides={s: k * SOURCE_WEIGHTS[s] for s in SOURCES}
            )
            plain = fuse_instant(items)
            boosted = fuse_instant(items, scaled)
            for label, value in plain.scores.items():
                assert boosted.scores[label] == pytest.approx(value, abs=1e-9)
            if boosted.dominant != plain.dominant:
                # only exact ties may swap under non-binary scaling noise
                assert plain.scores[boosted.dominant] == pytest.approx(
                    plain.scores[plain.dominant], abs=1e-9
                )

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        p2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        bump=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_raising_probability_never_lowers_score(self, p1, p2, bump):
        raised = min(1.0, p1 + bump)
        before = fuse_instant(
            [evidence("joy", "face", p=p1), evidence("anger", "language_voice", p=p2)]
        )
        after = fuse_instant(
            [evidence("joy", "face", p=raised), evidence("anger", "language_voice", p=p2)]
        )
        assert after.scores["joy"] >= before.scores["joy"] - 1e-12

    def test_scores_bounded(self):
        rng = random.Random(47)
        for _ in range(500):
            items = [
                evidence(
                    rng.choice(["a", "b", "c"]),
                    rng.choice(SOURCES),
                    p=round(rng.random(), 3),
                    i=round(rng.random(), 3),
                )
                for _ in range(rng.randint(1, 6))
            ]
            f = fuse_instant(items)
            assert all(0.0 <= v <= 1.0 for v in f.scores.values())


class TestTemporal:
    def test_first_update(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=1.0))
        assert state.clock == 1.0
        assert set(state.last_evidence) == {"face"}

    def test_same_source_replaced(self):
        state = TemporalState()
        state = update_temporal(state, evidence("joy", "face", p=0.8, t=1.0))
        state = update_temporal(state, evidence("anger", "face", p=0.4, t=2.0))
        assert state.clock == 2.0
        assert state.last_evidence["face"].annotation.category == "anger"

    def test_time_regression_rejected(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", t=2.0))
        with pytest.raises(FusionError) as exc:
            update_temporal(state, evidence("joy", "face", t=1.0))
        assert exc.value.code == "TIME_REGRESSION"

    def test_zero_elapsed_is_identity(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=1.0))
        (synthetic,) = fill_missing(state, 1.0)
        assert synthetic.annotation.probability == 0.8
        # Observed at now, so elapsed is 0: an observation, not an inference.
        assert 1.0 - synthetic.timestamp == 0.0

    def test_decay_value(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=0.0))
        (synthetic,) = fill_missing(state, 5.0, FusionConfig(decay_lambda=0.2))
        assert synthetic.annotation.probability == pytest.approx(
            0.8 * math.exp(-1.0), abs=1e-12
        )
        # The stand-in keeps its observation time, so elapsed is 5.
        assert synthetic.timestamp == 0.0

    def test_everything_but_probability_carried_over(self):
        item = MarkerEvidence(
            annotation=EmotionAnnotation(
                category="anger",
                dimensions={"arousal": 0.7},
                appraisals={"suddenness": 0.4},
                intensity=0.6,
                probability=0.9,
                regulation={"suppress": 0.3},
                modality="voice",
                scope=TimeSpan(1.0, 2.0),
            ),
            source="language_voice",
            timestamp=1.5,
        )
        state = update_temporal(TemporalState(), item)
        (synthetic,) = fill_missing(state, 3.5, FusionConfig(decay_lambda=0.2))
        decayed = synthetic.annotation.probability
        assert decayed == pytest.approx(0.9 * math.exp(-0.4), abs=1e-12)
        assert synthetic == MarkerEvidence(
            annotation=EmotionAnnotation(
                category="anger",
                dimensions={"arousal": 0.7},
                appraisals={"suddenness": 0.4},
                intensity=0.6,
                probability=decayed,
                regulation={"suppress": 0.3},
                modality="voice",
                scope=TimeSpan(1.0, 2.0),
            ),
            source="language_voice",
            timestamp=1.5,
        )

    def test_decayed_below_floor_dropped(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=0.0))
        assert fill_missing(state, 20.0, FusionConfig(decay_lambda=0.2)) == []

    def test_decay_consistency_with_fusion(self):
        state = TemporalState()
        items = [
            evidence("joy", "face", p=0.8, t=3.0),
            evidence("anger", "language_voice", p=0.5, t=3.0),
        ]
        for item in items:
            state = update_temporal(state, item)
        assert fuse_instant(fill_missing(state, 3.0)) == fuse_instant(items)


class TestStandInReuse:
    """An item whose probability does not change is returned as it is."""

    def test_item_observed_now_is_its_own_stand_in(self):
        observed = evidence("joy", "face", p=0.8, t=3.0, dimensions={"arousal": 0.2})
        old = evidence("anger", "language_voice", p=0.9, t=1.0)
        state = update_temporal(update_temporal(TemporalState(), old), observed)
        fresh, stale = fill_missing(state, 3.0, FusionConfig(decay_lambda=0.2))
        assert fresh is observed
        # The decayed one is a new record, as before.
        assert stale is not old and stale.annotation.probability < 0.9

    @pytest.mark.parametrize("decay_lambda", [0.0, 0.2])
    def test_item_without_probability_gets_a_new_record(self, decay_lambda):
        item = evidence("joy", "face", t=2.0)
        state = update_temporal(TemporalState(), item)
        (stand_in,) = fill_missing(state, 2.0, FusionConfig(decay_lambda=decay_lambda))
        assert stand_in is not item
        assert stand_in.annotation.probability == 1.0
        assert stand_in == oracles.fill_missing(state, 2.0, FusionConfig())[0]

    def test_decay_that_rounds_to_one_equals_the_reference(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.7, i=0.4, t=1.0))
        now, cfg = math.nextafter(1.0, 2.0), FusionConfig(decay_lambda=0.2)
        assert math.exp(-cfg.decay_lambda * (now - 1.0)) == 1.0
        want = stand_ins(oracles.fill_missing, state, now, cfg)
        assert stand_ins(fill_missing, state, now, cfg) == want


class TestToComplexEmotion:
    def test_two_categories_become_complex(self):
        f = fuse_instant(
            [
                evidence("pleasure", "face", p=0.7),
                evidence("worry", "language_voice", p=0.5),
            ]
        )
        item = to_complex_emotion(f)
        assert isinstance(item, ComplexEmotion)
        assert [c.category for c in item.constituents] == ["pleasure", "worry"]
        assert item.constituents[0].probability > item.constituents[1].probability
        assert item.scope == UNSCOPED
        assert validate_annotation(item).ok

    def test_single_category_stays_simple(self):
        f = fuse_instant([evidence("anger", "face", p=0.9)])
        item = to_complex_emotion(f)
        assert isinstance(item, EmotionAnnotation)
        assert item.category == "anger"
        assert item.probability == pytest.approx(0.9)

    def test_score_at_the_threshold_qualifies(self):
        f = FusedEstimate({"anger": 0.8, "fear": 0.2}, "anger", False)
        item = to_complex_emotion(f, cfg=FusionConfig(constituent_threshold=0.2))
        assert [c.category for c in item.constituents] == ["anger", "fear"]

    def test_no_signal(self):
        f = fuse_instant(
            [
                evidence("joy", "face", p=0.15),
                evidence("fear", "language_voice", p=0.1),
            ]
        )
        with pytest.raises(FusionError) as exc:
            to_complex_emotion(f)
        assert exc.value.code == "NO_SIGNAL"


class TestConfigFile:
    def test_load(self):
        cfg = load_config(
            "ambiguity_epsilon = 0.05\n"
            "constituent_threshold=0.3\n"
            "# comment\n"
            "weight.face = 0.8\n"
        )
        assert cfg.ambiguity_epsilon == 0.05
        assert cfg.constituent_threshold == 0.3
        assert cfg.decay_lambda == 0.2  # default kept
        assert cfg.weight_overrides == {"face": 0.8}
        # A key or a source weight given twice keeps its last value; weights
        # of other sources are all kept.
        cfg = load_config(
            "decay_lambda = 0.5\n"
            "weight.face = 0.8\n"
            "weight.language_voice = 0.4\n"
            "decay_lambda = 0.1\n"
            "weight.face = 0.6\n"
        )
        assert cfg.decay_lambda == 0.1
        assert cfg.weight_overrides == {"face": 0.6, "language_voice": 0.4}

    def test_unknown_key_rejected(self):
        with pytest.raises(FusionError) as exc:
            load_config("volume = 11")
        assert exc.value.code == "BAD_CONFIG"

    def test_bad_number_rejected(self):
        with pytest.raises(FusionError) as exc:
            load_config("decay_lambda = fast")
        assert exc.value.code == "BAD_CONFIG"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(ambiguity_epsilon=1.5)


class TestFusionEdges:
    def test_config_missing_separator_rejected(self):
        for text in ("decay_lambda 0.5", "drop_floor 0.1", "= 0.5"):
            with pytest.raises(FusionError) as exc:
                load_config(text)
            assert exc.value.code == "BAD_CONFIG"
            assert exc.value.message == "line 1: expected key=value"

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(decay_lambda=-0.1)

    def test_fill_missing_rejects_past_query(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", t=5.0))
        with pytest.raises(FusionError) as exc:
            fill_missing(state, 4.0)
        assert exc.value.code == "TIME_REGRESSION"

    def test_sample_config_fixture_loads(self):
        from support import FIXTURES

        cfg = load_config((FIXTURES / "config" / "custom.cfg").read_bytes())
        assert cfg.ambiguity_epsilon == 0.05
        assert cfg.constituent_threshold == 0.3
        assert cfg.decay_lambda == 0.1
        assert cfg.drop_floor == 0.05
        assert cfg.weight_overrides == {"face": 0.8}

    def test_missing_probability_defaults_before_decay(self):
        item = MarkerEvidence(
            annotation=EmotionAnnotation(category="joy", modality="face"),
            source="face",
            timestamp=0.0,
        )
        state = update_temporal(TemporalState(), item)
        (synthetic,) = fill_missing(state, 5.0, FusionConfig(decay_lambda=0.2))
        assert synthetic.annotation.probability == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_all_zero_weights_rejected(self):
        cfg = FusionConfig(weight_overrides={"face": 0.0})
        with pytest.raises(FusionError) as exc:
            fuse_instant([evidence("joy", "face", p=1.0)], cfg)
        assert exc.value.code == "ZERO_WEIGHT"

    def test_overflowing_weight_sum_rejected(self):
        # Each weight is finite; their sum is inf, and inf / inf is NaN.
        cfg = FusionConfig(
            weight_overrides={"language_voice": 1e308, "movement_kinematic": 1e308}
        )
        items = [
            evidence("anger", "language_voice", p=0.9),
            evidence("anger", "movement_kinematic", p=0.8),
        ]
        with pytest.raises(FusionError) as exc:
            fuse_instant(items, cfg)
        assert exc.value.code == "WEIGHT_OVERFLOW"
        # Either weight alone is fine.
        assert fuse_instant(items[:1], cfg).scores == {"anger": pytest.approx(0.9)}


class TestFailClosed:
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_non_finite_now_rejected(self, now):
        state = update_temporal(
            TemporalState(), evidence("anger", "language_voice", p=0.9, t=1.0)
        )
        with pytest.raises(FusionError) as exc:
            fill_missing(state, now)
        assert exc.value.code == "BAD_TIME"

    @pytest.mark.parametrize(
        "text", ["ambiguity_epsilon = 2", "constituent_threshold = -0.5", "decay_lambda = -1"]
    )
    def test_out_of_range_config_is_bad_config(self, text):
        with pytest.raises(FusionError) as exc:
            load_config(text)
        assert exc.value.code == "BAD_CONFIG"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ambiguity_epsilon": math.nan},
            {"constituent_threshold": math.inf},
            {"decay_lambda": math.nan},
            {"decay_lambda": math.inf},
            {"drop_floor": math.nan},
            {"drop_floor": 7.0},
            {"drop_floor": -0.1},
            {"weight_overrides": {"face": -1.0}},
            {"weight_overrides": {"face": math.nan}},
            {"weight_overrides": {"face": math.inf}},
            {"weight_overrides": {"telepathy": 1.0}},
        ],
    )
    def test_config_rejects_non_finite_and_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            FusionConfig(**kwargs)

    def test_config_accepts_its_boundaries(self):
        cfg = FusionConfig(
            ambiguity_epsilon=0.0, constituent_threshold=1.0, decay_lambda=0.0,
            drop_floor=1.0, weight_overrides={s: 0.0 for s in SOURCE_WEIGHTS},
        )
        assert cfg.drop_floor == 1.0
        assert FusionConfig(drop_floor=0.0).drop_floor == 0.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("decay_lambda = nan", "decay_lambda=nan"),
            ("drop_floor = 7", "drop_floor=7.0"),
            ("weight.face = -1", "weight.face=-1.0"),
            ("weight.face = inf", "weight.face=inf"),
            ("weight.telepathy = 1", "weight.telepathy"),
        ],
    )
    def test_bad_config_value_is_bad_config(self, text, message):
        with pytest.raises(FusionError) as exc:
            load_config("decay_lambda = 0.1\n" + text)
        assert exc.value.code == "BAD_CONFIG"
        assert exc.value.message.startswith(f"line 2: {message}")

    def test_non_utf8_config_is_bad_config(self):
        with pytest.raises(FusionError) as exc:
            load_config(b"decay_lambda = 0.1\n# caf\xe9\n")
        assert exc.value.code == "BAD_CONFIG"
        assert exc.value.message.startswith("line 2: not UTF-8 text")


class TestStreamFile:
    HEAD = "# t source category p i\n\n0.0 face joy 0.5 0.25  # first\n"
    REGRESSING = b"0 face anger 0.9 1\n2 face joy 0.5 1\n1 language_voice anger 0.8 1\n"

    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_load(self, encode):
        state = load_stream(encode(self.HEAD + "  1.5\tlanguage_voice anger 1 0.75\n"))
        assert state == TemporalState({
            "face": MarkerEvidence(
                EmotionAnnotation(category="joy", modality="face", probability=0.5,
                                  intensity=0.25),
                "face", 0.0,
            ),
            "language_voice": MarkerEvidence(
                EmotionAnnotation(category="anger", modality="voice", probability=1.0,
                                  intensity=0.75),
                "language_voice", 1.5,
            ),
        }, 1.5)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 face joy 0.5", "expected 't source category p i'"),
            ("1 face joy 0.5 0.5 0.5", "expected 't source category p i'"),
            ("1 telepathy joy 0.5 0.5", "unknown source 'telepathy'"),
            ("1 face joy lots 0.5", "t, p, i must be numbers"),
            *[(f"1 face joy {p} 0.5", f"probability={float(p)} outside [0, 1]")
              for p in ("nan", "inf", "-inf", "1.5", "-0.1")],
            *[(f"1 face joy 0.5 {i}", f"intensity={float(i)} outside [0, 1]")
              for i in ("nan", "inf", "-inf", "2", "-1")],
            *[(f"{t} face joy 0.5 0.5", f"timestamp={float(t)} is not a finite time")
              for t in ("nan", "inf", "-inf", "1e400")],
        ],
    )
    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_bad_line_is_bad_stream(self, line, message, encode):
        with pytest.raises(FusionError) as exc:
            load_stream(encode(self.HEAD + line + "\n"))
        assert (exc.value.code, exc.value.message) == ("BAD_STREAM", f"line 4: {message}")

    def test_non_utf8_stream_is_bad_stream(self):
        with pytest.raises(FusionError) as exc:
            load_stream(self.HEAD.encode() + b"1 face caf\xe9 0.5 0.5\n")
        assert exc.value.code == "BAD_STREAM"
        assert exc.value.message.startswith("line 4: not UTF-8 text")

    # Times count from 0, the clock of an empty state, and never go back.
    # Faults are found in line order: line 5's bad probability comes after
    # line 3's regression.
    @pytest.mark.parametrize(
        "data, message",
        [
            (REGRESSING, "line 3: evidence at t=1.0 behind clock t=2.0"),
            (REGRESSING + b"\n4 face joy 2 1\n", "line 3: evidence at t=1.0 behind clock t=2.0"),
            (b"-1 face anger 0.9 1\n", "line 1: evidence at t=-1.0 behind clock t=0.0"),
        ],
        ids=["behind_an_earlier_line", "before_a_later_bad_line", "below_zero"],
    )
    def test_time_regression_names_its_line(self, data, message):
        with pytest.raises(FusionError) as exc:
            load_stream(data)
        assert (exc.value.code, exc.value.message) == ("TIME_REGRESSION", message)

    @pytest.mark.parametrize(
        "data", [b"", "", b"# nothing\n", "\n  # t source category p i\n\n"],
        ids=["empty_bytes", "empty_str", "comment_bytes", "comments_str"],
    )
    def test_no_evidence_line_is_bad_stream(self, data):
        # An empty or truncated stream must not read as calm evidence: fused
        # and decided on, it would answer allow.
        with pytest.raises(FusionError) as exc:
            load_stream(data)
        assert (exc.value.code, exc.value.message) == ("BAD_STREAM", "no evidence line")


class TestEvidenceBoundary:
    """MarkerEvidence rejects numbers that would push a fused score out of [0, 1]."""

    # probability=3.0 used to be accepted, and fuse_instant returned 3.0.
    @pytest.mark.parametrize("field", ["probability", "intensity"])
    @pytest.mark.parametrize("value", [3.0, -0.1, 1.0000001, math.nan, math.inf, -math.inf])
    def test_out_of_unit_range_rejected(self, field, value):
        annotation = EmotionAnnotation(category="anger", modality="voice", **{field: value})
        with pytest.raises(ValueError, match=rf"{field}={value} outside \[0, 1\]"):
            MarkerEvidence(annotation=annotation, source="language_voice", timestamp=0.0)

    def test_annotation_without_modality_rejected(self):
        with pytest.raises(ValueError, match="^evidence annotation must carry a modality$"):
            MarkerEvidence(EmotionAnnotation("anger"), "face", 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, t):
        with pytest.raises(ValueError, match="timestamp="):
            evidence("anger", "language_voice", p=0.5, t=t)

    @pytest.mark.parametrize("value", [0.0, 1.0, None])
    def test_unit_range_boundaries_accepted(self, value):
        item = evidence("anger", "language_voice", p=value, i=value, t=-3.0)
        assert item.annotation.probability == value

    def test_stand_in_behind_its_evidence_is_rejected(self):
        # A state not built by update_temporal may remember evidence newer
        # than its clock; decaying over negative time would raise p above 1.
        item = evidence("anger", "language_voice", p=0.9, t=5.0)
        state = TemporalState(last_evidence={"language_voice": item}, clock=0.0)
        with pytest.raises(FusionError) as exc:
            fill_missing(state, 3.0)
        assert exc.value.code == "TIME_REGRESSION"

    def test_overflowed_elapsed_time_without_decay_keeps_p(self):
        # now - t overflows to inf; 0 * inf is NaN, and a NaN score passes
        # no deny threshold.
        item = evidence("anger", "language_voice", p=0.9, t=-1e308)
        state = update_temporal(TemporalState(clock=-1e308), item)
        (synthetic,) = fill_missing(state, 1e308, FusionConfig(decay_lambda=0.0))
        assert synthetic.annotation.probability == 0.9
        assert fuse_instant([synthetic]).scores == {"anger": 0.9}

    @given(
        p=st.none() | st.floats(allow_nan=True, allow_infinity=True),
        i=st.none() | st.floats(allow_nan=True, allow_infinity=True),
        t=st.floats(allow_nan=True, allow_infinity=True),
        t_joy=st.floats(allow_nan=False, allow_infinity=False),
        later=st.floats(allow_nan=False, allow_infinity=False),
        source=st.sampled_from(SOURCES),
        cfg=st.builds(
            FusionConfig,
            decay_lambda=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1e308),
            drop_floor=st.sampled_from([0.0, 0.05]),
        ),
    )
    @example(  # now - t overflows to inf while lambda is 0
        p=0.9, i=None, t=-1e308, t_joy=-1e308, later=1e308, source="language_voice",
        cfg=FusionConfig(decay_lambda=0.0),
    )
    def test_evidence_is_rejected_or_fuses_into_unit_scores(
        self, p, i, t, t_joy, later, source, cfg
    ):
        try:
            item = evidence("anger", source, p=p, i=i, t=t)
        except ValueError:
            return
        first, second = sorted([item, evidence("joy", "face", p=0.5, t=t_joy)],
                               key=lambda e: e.timestamp)
        state = update_temporal(TemporalState(clock=first.timestamp), first)
        state = update_temporal(state, second)
        for now in (state.clock, max(state.clock, later)):
            fused = fuse_instant(fill_missing(state, now, cfg), cfg)
            assert all(0.0 <= score <= 1.0 for score in fused.scores.values())


# ---------------------------------------------------------------------------
# fill_missing and fuse_instant against oracles.fill_missing and oracles.fuse,
# scores bit for bit and errors by type and code.


def bits(scores):
    return [(category, score.hex()) for category, score in scores.items()]


def processing_key(item):
    return item.source, item.timestamp, item.annotation.category


unit = st.floats(min_value=0.0, max_value=1.0)
descriptors = st.dictionaries(
    st.sampled_from(["arousal", "valence", "suddenness"]),
    st.floats(min_value=-1.0, max_value=1.0),
    max_size=2,
)
scopes = st.sampled_from([UNSCOPED, InlineText("hm"), TimeSpan(0.0, 1.5)])


@st.composite
def evidence_lists(draw, remembered=False):
    """Evidence with every field varied.  Remembered, it holds one item per
    source in time order, as a temporal state does; otherwise sources may
    repeat, and the items come in ascending, descending or shuffled
    processing order."""
    repeated = not remembered and draw(st.booleans())
    sources = draw(st.lists(
        st.sampled_from(SOURCES), min_size=1, max_size=6 if repeated else 4, unique=not repeated
    ))
    times = draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=30.0),
        min_size=len(sources), max_size=len(sources),
    ))
    items = []
    for source, t in zip(sources, sorted(times) if remembered else times):
        annotation = EmotionAnnotation(
            category=draw(
                st.sampled_from(["anger", "joy", "fear", "grief", "desire", "sensuality"])
            ),
            dimensions=draw(descriptors),
            appraisals=draw(descriptors),
            intensity=draw(st.none() | unit),
            probability=draw(st.none() | unit | st.sampled_from([0.0, 1.0])),
            regulation=draw(
                st.dictionaries(st.sampled_from(["suppress", "amplify"]), unit, max_size=2)
            ),
            modality=draw(st.sampled_from(["face", "voice", "movement"])),
            scope=draw(scopes),
        )
        items.append(MarkerEvidence(annotation=annotation, source=source, timestamp=t))
    if remembered:
        return items
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "shuffled":
        return draw(st.permutations(items))
    return sorted(items, key=processing_key, reverse=order == "descending")


configs = st.builds(
    FusionConfig,
    ambiguity_epsilon=unit,
    decay_lambda=st.floats(min_value=0.0, max_value=3.0),
    drop_floor=st.floats(min_value=0.0, max_value=0.5),
    weight_overrides=st.dictionaries(
        st.sampled_from(SOURCES), st.floats(min_value=0.01, max_value=5.0)
    ),
)
# Weights that are 0 for some sources and overflow the total for others.
_ODD_WEIGHTS = st.floats(min_value=0.0, max_value=5.0) | st.sampled_from([0.0, 1e308, 1.7e308])
odd_configs = st.builds(
    FusionConfig,
    ambiguity_epsilon=unit,
    weight_overrides=st.dictionaries(st.sampled_from(SOURCES), _ODD_WEIGHTS),
)


def outcome(call, *args):
    """What ``call`` returns, or the type, code and message of its error."""
    try:
        return call(*args)
    except EarlError as exc:
        return type(exc), exc.code, exc.message


def fused_fields(items, cfg):
    """fuse_instant's result, its scores as bits: FusedEstimate compares values."""
    estimate = fuse_instant(items, cfg)
    return bits(estimate.scores), estimate.dominant, estimate.ambiguous


def oracle_fields(items, cfg):
    scores, dominant, ambiguous = oracles.fuse(items, cfg)
    return bits(scores), dominant, ambiguous


def fold_matches_oracle(items, cfg):
    for subset in (items, items[:1], items[::-1]):
        assert outcome(fused_fields, subset, cfg) == outcome(oracle_fields, subset, cfg)


class TestFuseInstantMatchesSortedFold:
    @settings(max_examples=300)
    @given(items=evidence_lists(), cfg=configs | odd_configs)
    @example(  # distinct sources, already in order: the unsorted path
        items=[evidence("joy", "face", p=0.5, dimensions={"arousal": 0.2}),
               evidence("joy", "language_voice", p=0.5, dimensions={"arousal": -0.4})],
        cfg=FusionConfig(),
    )
    @example(  # one source twice: equal sources are sorted by time, then category
        items=[evidence("joy", "face", t=1.0, regulation={"suppress": 0.2}),
               evidence("anger", "face", t=1.0, regulation={"suppress": 0.9}),
               evidence("fear", "face", t=0.0)],
        cfg=FusionConfig(),
    )
    @example(  # ZERO_WEIGHT
        items=[evidence("joy", "face")], cfg=FusionConfig(weight_overrides={"face": 0.0})
    )
    @example(  # WEIGHT_OVERFLOW
        items=[evidence("joy", "face"), evidence("joy", "language_voice")],
        cfg=FusionConfig(weight_overrides={"face": 1.7e308, "language_voice": 1e308}),
    )
    def test_equals_the_sorted_fold(self, items, cfg):
        fold_matches_oracle(items, cfg)


@st.composite
def unordered_entries(draw):
    """(key, item) pairs in any order, keyed by the item sources or by any
    other text."""
    items = draw(evidence_lists(remembered=True))
    keys = draw(st.just([item.source for item in items]) | st.lists(
        st.text(max_size=3), min_size=len(items), max_size=len(items), unique=True
    ))
    return draw(st.permutations(list(zip(keys, items))))


@st.composite
def states(draw):
    """A temporal state built through update_temporal, or one built directly:
    keys in any order, and a clock at the last item's time or one that may lag
    or lead the items' times."""
    if draw(st.booleans()):
        state = TemporalState()
        for item in draw(evidence_lists(remembered=True)):
            state = update_temporal(state, item)
        return state
    keyed = draw(unordered_entries())
    latest = max(item.timestamp for _, item in keyed)
    return TemporalState(dict(keyed), draw(st.just(latest) | st.floats(0.0, 30.0)))


class TestEquivalentToConstructors:
    @given(
        items=evidence_lists(remembered=True),
        dt=st.floats(min_value=0.0, max_value=20.0),
        cfg=configs,
    )
    def test_fill_missing_equals_constructed_stand_ins(self, items, dt, cfg):
        state = TemporalState()
        for item in items:
            state = update_temporal(state, item)
        now = state.clock + dt
        got = fill_missing(state, now, cfg)
        want = oracles.fill_missing(state, now, cfg)
        assert got == want
        assert [e.source for e in got] == [e.source for e in want]
        assert all(type(e) is MarkerEvidence for e in got)
        # Each stand-in keeps the observation time of the item it stands in for.
        assert [e.timestamp for e in got] == [
            state.last_evidence[e.source].timestamp for e in got
        ]
        assert all(type(e.annotation) is EmotionAnnotation for e in got)
        assert [e.annotation.probability.hex() for e in got] == [
            e.annotation.probability.hex() for e in want
        ]

    @given(items=evidence_lists(remembered=True), cfg=configs)
    @example(  # all three scores equal
        items=[evidence("anger", "face", p=0.5, i=0.5),
               evidence("joy", "language_voice", p=0.5, i=0.5),
               evidence("fear", "movement_kinematic", p=0.5, i=0.5)],
        cfg=FusionConfig(weight_overrides={"movement_kinematic": 1.0}),
    )
    @example(  # a tie at the top, with and without a margin to miss
        items=[evidence("joy", "face", p=0.8), evidence("anger", "language_voice", p=0.8),
               evidence("fear", "movement_kinematic", p=0.5)],
        cfg=FusionConfig(),
    )
    @example(
        items=[evidence("joy", "face", p=0.8), evidence("anger", "language_voice", p=0.8),
               evidence("fear", "movement_kinematic", p=0.5)],
        cfg=FusionConfig(ambiguity_epsilon=0.0),
    )
    @example(  # the runner-up comes after a lower score
        items=[evidence("joy", "face", p=0.9), evidence("grief", "language_voice", p=0.1),
               evidence("anger", "movement_kinematic", p=0.85)],
        cfg=FusionConfig(weight_overrides={"movement_kinematic": 1.0}),
    )
    @example(  # a tie for second place
        items=[evidence("joy", "face", p=0.9), evidence("grief", "language_voice", p=0.4),
               evidence("anger", "movement_kinematic", p=0.4)],
        cfg=FusionConfig(weight_overrides={"movement_kinematic": 1.0}),
    )
    def test_fuse_instant_scores_are_bit_identical(self, items, cfg):
        fold_matches_oracle(items, cfg)

    @given(state=states(), dt=st.floats(min_value=0.0, max_value=5.0), cfg=configs | odd_configs)
    def test_fused_stand_ins_are_bit_identical(self, state, dt, cfg):
        # The two calls against their two oracles, errors included.
        now = state.clock + dt
        got = outcome(lambda: fused_fields(fill_missing(state, now, cfg), cfg))
        want = outcome(lambda: oracle_fields(oracles.fill_missing(state, now, cfg), cfg))
        assert got == want


# One resource per behavior, so that each decision reads that behavior's scores.
EVERY_BEHAVIOR = AccessPolicy(
    tuple(PolicyRule(b, b, 0.0) for b in sorted(set(BEHAVIOR_FOR_EMOTION.values())))
)


class TestFusedEstimatesDecide:
    @given(state=states(), dt=st.floats(min_value=0.0, max_value=5.0), cfg=configs | odd_configs)
    @example(  # searching sums its two categories, each from its own source
        state=TemporalState({"face": evidence("desire", "face", p=0.9),
                             "language_voice": evidence("sensuality", "language_voice", p=0.8)}),
        dt=0.0, cfg=FusionConfig(),
    )
    def test_no_fused_score_trips_the_score_check(self, state, dt, cfg):
        # decide_access raises on a NaN or negative score; fusion never makes one.
        try:
            estimate = fuse_instant(fill_missing(state, state.clock + dt, cfg), cfg)
        except FusionError:
            return
        for rule in EVERY_BEHAVIOR.rules:
            assert decide_access(estimate, rule.resource, EVERY_BEHAVIOR).rule == rule


class TestFuseAtAndDecide:
    def test_nothing_live_is_no_signal(self):
        # At t=60 anger 0.9 has decayed below drop_floor; the two calls fuse
        # that to an empty estimate, on which decide_access allows.
        state = load_stream(b"0 face anger 0.9 1\n")
        assert fuse_instant(fill_missing(state, 60.0)) == FusedEstimate({}, None, False)
        with pytest.raises(FusionError) as exc:
            fuse_at(state, 60.0)
        assert (exc.value.code, exc.value.message) == (
            "NO_SIGNAL", "no evidence is live at t=60.0"
        )

    @settings(max_examples=300)
    @given(
        state=states(),
        # None: dt after the state's clock.
        now=st.none() | st.floats(0.0, 40.0) | st.sampled_from([math.nan, math.inf]),
        dt=st.floats(min_value=0.0, max_value=20.0),
        cfg=configs | odd_configs,
    )
    @example(  # nothing is live, and BAD_TIME comes before NO_SIGNAL
        state=TemporalState(), now=math.nan, dt=0.0, cfg=FusionConfig(),
    )
    @example(  # nothing is live, and TIME_REGRESSION comes before NO_SIGNAL
        state=TemporalState({}, 5.0), now=4.0, dt=0.0, cfg=FusionConfig(),
    )
    @example(  # seen below drop_floor
        state=TemporalState({"face": evidence("anger", "face", p=0.04)}), now=None, dt=0.0,
        cfg=FusionConfig(),
    )
    def test_fuses_the_live_stand_ins_or_refuses(self, state, now, dt, cfg):
        now = state.clock + dt if now is None else now

        def fields():
            estimate = fuse_at(state, now, cfg)
            return bits(estimate.scores), estimate.dominant, estimate.ambiguous

        def oracle():
            live = oracles.fill_missing(state, now, cfg)
            if not live:
                raise FusionError("NO_SIGNAL", f"no evidence is live at t={now}")
            return oracle_fields(live, cfg)

        assert outcome(fields) == outcome(oracle)

    @given(
        state=states(), dt=st.floats(min_value=0.0, max_value=20.0),
        cfg=configs | odd_configs, rules=rules_st, resource=st.sampled_from(["door", "safe"]),
    )
    @example(  # nothing live and no rule for the resource: NO_SIGNAL comes first
        state=load_stream(b"0 face anger 0.9 1\n"), dt=60.0, cfg=FusionConfig(), rules=[],
        resource="door",
    )
    def test_decide_is_the_oracle_decision_or_refuses(self, state, dt, cfg, rules, resource):
        policy = AccessPolicy(tuple(rules))
        now = state.clock + dt

        def fields():
            decision = decide(state, now, cfg, resource, policy)
            return decision.verdict, decision.rationale, decision.rule

        def oracle():
            live = oracles.fill_missing(state, now, cfg)
            if not live:
                raise FusionError("NO_SIGNAL", f"no evidence is live at t={now}")
            scores, dominant, ambiguous = oracles.fuse(live, cfg)
            if all(rule.resource != resource for rule in rules):
                raise PolicyError("UNKNOWN_RESOURCE", f"no rule names {resource!r}")
            return oracles.decision(FusedEstimate(scores, dominant, ambiguous), resource, policy)

        assert outcome(fields) == outcome(oracle)


def stand_ins(fill, state, now, cfg):
    """Each stand-in, its probability's bits and whether it is the item itself."""
    remembered = list(state.last_evidence.values())
    return [
        (e, e.annotation.probability.hex(), any(e is r for r in remembered))
        for e in fill(state, now, cfg)
    ]


class TestStateOrder:
    @given(entries=unordered_entries(), clock=st.floats(min_value=0.0, max_value=30.0))
    @example(
        entries=[("movement_kinetic", evidence("joy", "movement_kinetic", p=0.5)),
                 ("face", evidence("anger", "face", p=0.9))],
        clock=0.0,
    )
    def test_a_state_stores_its_sources_ascending(self, entries, clock):
        ordered = dict(sorted(entries))
        want = TemporalState(ordered, clock)
        # A dict already in order is stored as given.
        assert want.last_evidence is ordered
        state = TemporalState(dict(entries), clock)
        rebuilt = [
            state, copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state)),
            want._replace(last_evidence=dict(entries)),
        ]
        for twin in rebuilt:
            assert list(twin.last_evidence) == list(ordered)
            assert twin == want


@st.composite
def source_keyed_states(draw):
    """A temporal state built through update_temporal, or one built directly
    with its items keyed by their sources, inserted in any order."""
    items = draw(evidence_lists(remembered=True))
    if draw(st.booleans()):
        state = TemporalState()
        for item in items:
            state = update_temporal(state, item)
        return state
    keyed = draw(st.permutations([(item.source, item) for item in items]))
    return TemporalState(dict(keyed), max(item.timestamp for item in items))


class TestFillMissingOrder:
    @given(
        state=source_keyed_states(), dt=st.floats(min_value=0.0, max_value=20.0), cfg=configs
    )
    def test_one_item_per_source_in_ascending_source_order(self, state, dt, cfg):
        now = state.clock + dt
        got = fill_missing(state, now, cfg)
        sources = [item.source for item in got]
        assert all(a < b for a, b in zip(sources, sources[1:]))
        assert set(sources) <= set(state.last_evidence)
        # Insertion order does not show.
        resorted = TemporalState(dict(sorted(state.last_evidence.items())), state.clock)
        assert fill_missing(resorted, now, cfg) == got
        assert outcome(fused_fields, got, cfg) == outcome(oracle_fields, got, cfg)


class TestSourceOrder:
    @given(sources=st.lists(st.sampled_from(SOURCES), max_size=12))
    @example(sources=["movement_kinetic", "face", "movement_kinetic", "language_voice", "face"])
    def test_update_temporal_keeps_sources_ascending(self, sources):
        state, last = TemporalState(), {}
        for t, source in enumerate(sources):
            item = evidence("joy", source, p=0.5, t=float(t))
            state = update_temporal(state, item)
            last[source] = item
            assert list(state.last_evidence) == sorted(last)
            assert all(state.last_evidence[s] is item for s, item in last.items())
            assert state.clock == t

    @settings(max_examples=300)
    @given(
        state=states(),
        # None: dt after the state's clock.
        now=st.none() | st.floats(0.0, 40.0) | st.sampled_from([math.nan, math.inf]),
        dt=st.floats(min_value=0.0, max_value=20.0),
        cfg=configs,
    )
    def test_fill_missing_equals_the_sorted_fill(self, state, now, dt, cfg):
        now = state.clock + dt if now is None else now
        assert outcome(stand_ins, fill_missing, state, now, cfg) == outcome(
            stand_ins, oracles.fill_missing, state, now, cfg
        )


class TestFusedOutputWrites:
    @given(items=evidence_lists(remembered=True))
    @example(  # one name as a dimension of one source and an appraisal of another
        items=[evidence("joy", "face", p=0.9, dimensions={"x": 0.1}, regulation={"suppress": 0.5}),
               evidence("joy", "language_voice", p=0.8, appraisals={"x": 0.2})],
    )
    def test_fused_output_reads_back(self, items):
        try:
            item = to_complex_emotion(fuse_instant(items))
        except FusionError as exc:
            assert exc.code == "NO_SIGNAL"
            return
        doc = AnnotationDocument(items=(item,))
        assert parse_document(serialize_document(doc)) == doc


class TestWeightTable:
    def test_mutating_the_passed_dict_changes_nothing(self):
        overrides = {"face": 0.8}
        cfg = FusionConfig(weight_overrides=overrides)
        items = [evidence("joy", "face", p=0.9), evidence("anger", "language_voice", p=0.6)]
        before = fuse_instant(items, cfg)
        overrides["face"] = 0.1
        overrides["language_voice"] = 0.0
        assert cfg.weight_overrides == {"face": 0.8}
        after = fuse_instant(items, cfg)
        # face 0.8 x 0.9 and language_voice 1.0 x 0.6, over a total weight of 1.8.
        assert after.scores == pytest.approx({"joy": 0.4, "anger": 1 / 3})
        assert bits(after.scores) == bits(before.scores)

    def test_overrides_are_read_only(self):
        cfg = FusionConfig(weight_overrides={"face": 0.8})
        with pytest.raises(TypeError):
            cfg.weight_overrides["face"] = 0.1

    def test_table_is_not_part_of_equality_or_repr(self):
        assert FusionConfig(weight_overrides={"face": 1.0}) != FusionConfig()
        assert FusionConfig(weight_overrides={}) == FusionConfig()
        assert "_weights" not in repr(FusionConfig())

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))]
    )
    def test_config_copies_and_pickles(self, clone):
        cfg = FusionConfig(
            ambiguity_epsilon=0.3, constituent_threshold=0.4, decay_lambda=0.3,
            drop_floor=0.1, weight_overrides={"movement_kinetic": 0.5},
        )
        # Every field differs from its default, so a clone that dropped one
        # would not compare equal.
        default = FusionConfig()
        assert all(getattr(cfg, name) != getattr(default, name) for name in cfg._fields)
        twin = clone(cfg)
        assert twin == cfg
        items = [evidence("joy", "face", p=0.9), evidence("anger", "movement_kinetic", p=0.6)]
        # face 1.0 x 0.9 and movement_kinetic 0.5 x 0.6, over a total weight of 1.5.
        assert fuse_instant(items, twin).scores == pytest.approx({"joy": 0.6, "anger": 0.2})

    def test_unknown_source_still_raises(self):
        # A source with no weight cannot be built, so fuse_instant never
        # meets one.  "voice" is a modality, not a capture source.
        for source in ("telepathy", "voice"):
            with pytest.raises(ValueError) as exc:
                MarkerEvidence(
                    annotation=EmotionAnnotation(category="joy", modality="face"),
                    source=source, timestamp=0.0,
                )
            assert str(exc.value) == f"unknown source {source!r}"
