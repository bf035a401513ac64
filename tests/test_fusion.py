"""Fusion engine: weighted scores, temporal decay, EARL output."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from earlkit.errors import FusionError
from earlkit.fusion import (
    FusionConfig,
    MarkerEvidence,
    TemporalState,
    fill_missing,
    fuse_instant,
    load_config,
    to_complex_emotion,
    update_temporal,
)
from earlkit.markers import SOURCE_WEIGHTS
from earlkit.model import (
    ComplexEmotion,
    EmotionAnnotation,
    InlineText,
    TimeSpan,
    validate_annotation,
)

SOURCES = sorted(SOURCE_WEIGHTS)


def evidence(category, source, p=None, i=None, t=0.0, **kwargs):
    annotation = EmotionAnnotation(
        category=category, probability=p, intensity=i, modality="face", **kwargs
    )
    return MarkerEvidence(annotation=annotation, source=source, timestamp=t)


def brute_force_scores(items):
    """Independent evaluation of the fused-score formula.

    ``items`` are (category, weight, probability, intensity) tuples.
    """
    total = sum(w for _, w, _, _ in items)
    scores = {}
    for category, w, p, i in items:
        scores[category] = scores.get(category, 0.0) + w * p * i
    return {category: value / total for category, value in scores.items()}


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

    def test_unavailable_evidence_rejected(self):
        item = MarkerEvidence(
            annotation=EmotionAnnotation(category="joy", modality="face"),
            source="face",
            timestamp=0.0,
            available=False,
        )
        with pytest.raises(FusionError) as exc:
            fuse_instant([item])
        assert exc.value.code == "UNAVAILABLE_EVIDENCE"

    def test_weight_override(self):
        cfg = FusionConfig(weight_overrides={"face": 0.5})
        f = fuse_instant([evidence("joy", "face", p=1.0)], cfg)
        assert f.scores["joy"] == pytest.approx(1.0)  # 0.5*1 / 0.5
        assert f.contributors == (("face", 0.5),)

    def test_evidence_must_carry_category_and_modality(self):
        with pytest.raises(ValueError):
            MarkerEvidence(
                annotation=EmotionAnnotation(dimensions={"arousal": 0.1}),
                source="face",
                timestamp=0.0,
            )


class TestFusionProperties:
    def test_small_instances_match_brute_force(self):
        grid = [round(0.1 * k, 1) for k in range(11)]
        categories = ["anger", "joy"]

        # every single-item case on the full grid
        for category, source, p, i in itertools.product(categories, SOURCES, grid, grid):
            f = fuse_instant([evidence(category, source, p=p, i=i)])
            expected = brute_force_scores([(category, SOURCE_WEIGHTS[source], p, i)])
            for label, value in expected.items():
                assert abs(f.scores[label] - value) <= 1e-9

        # every unordered pair over a thinned item space (intensity fixed)
        items = [
            (category, source, p)
            for category, source, p in itertools.product(categories, SOURCES, grid)
        ]
        for (c1, s1, p1), (c2, s2, p2) in itertools.combinations_with_replacement(items, 2):
            f = fuse_instant(
                [evidence(c1, s1, p=p1, i=1.0), evidence(c2, s2, p=p2, i=1.0)]
            )
            expected = brute_force_scores(
                [(c1, SOURCE_WEIGHTS[s1], p1, 1.0), (c2, SOURCE_WEIGHTS[s2], p2, 1.0)]
            )
            for label, value in expected.items():
                assert abs(f.scores[label] - value) <= 1e-9

    def test_random_triples_match_brute_force(self):
        rng = random.Random(97)
        grid = [round(0.1 * k, 1) for k in range(11)]
        categories = ["anger", "joy", "sadness"]
        for _ in range(5000):
            spec = [
                (rng.choice(categories), rng.choice(SOURCES), rng.choice(grid), rng.choice(grid))
                for _ in range(3)
            ]
            f = fuse_instant([evidence(c, s, p=p, i=i) for c, s, p, i in spec])
            expected = brute_force_scores(
                [(c, SOURCE_WEIGHTS[s], p, i) for c, s, p, i in spec]
            )
            assert set(f.scores) == set(expected)
            for label, value in expected.items():
                assert abs(f.scores[label] - value) <= 1e-9

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
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=0.0))
        (synthetic,) = fill_missing(state, 0.0)
        assert synthetic.annotation.probability == 0.8
        assert synthetic.predicted

    def test_decay_value(self):
        state = update_temporal(TemporalState(), evidence("joy", "face", p=0.8, t=0.0))
        (synthetic,) = fill_missing(state, 5.0, FusionConfig(decay_lambda=0.2))
        assert synthetic.annotation.probability == pytest.approx(
            0.8 * math.exp(-1.0), abs=1e-12
        )

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
            available=False,
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
            available=False,
            predicted=True,
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


class TestToComplexEmotion:
    def test_two_categories_become_complex(self):
        f = fuse_instant(
            [
                evidence("pleasure", "face", p=0.7),
                evidence("worry", "language_voice", p=0.5),
            ]
        )
        item = to_complex_emotion(f, InlineText("scene"))
        assert isinstance(item, ComplexEmotion)
        assert [c.category for c in item.constituents] == ["pleasure", "worry"]
        assert item.constituents[0].probability > item.constituents[1].probability
        assert item.scope == InlineText("scene")
        assert validate_annotation(item).ok

    def test_single_category_stays_simple(self):
        f = fuse_instant([evidence("anger", "face", p=0.9)])
        item = to_complex_emotion(f)
        assert isinstance(item, EmotionAnnotation)
        assert item.category == "anger"
        assert item.probability == pytest.approx(0.9)

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

    def test_regulation_and_descriptors_carried_through(self):
        item = evidence(
            "pleasure",
            "face",
            p=0.9,
            regulation={"simulate": 0.8},
            dimensions={"arousal": 0.3},
        )
        out = to_complex_emotion(fuse_instant([item]))
        assert out.regulation == {"simulate": 0.8}
        assert out.dimensions == {"arousal": 0.3}


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
        with pytest.raises(FusionError) as exc:
            load_config("decay_lambda 0.5")
        assert exc.value.code == "BAD_CONFIG"

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


class TestFailClosed:
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_non_finite_now_rejected(self, now):
        state = update_temporal(TemporalState(), evidence("anger", "voice", p=0.9, t=1.0))
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
            load_config(text)
        assert exc.value.code == "BAD_CONFIG"
        assert message in exc.value.message

    def test_non_utf8_config_is_bad_config(self):
        with pytest.raises(FusionError) as exc:
            load_config(b"decay_lambda = 0.1\n# caf\xe9\n")
        assert exc.value.code == "BAD_CONFIG"
        assert exc.value.message.startswith("line 2: not UTF-8 text")
