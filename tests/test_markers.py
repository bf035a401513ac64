"""Knowledge-base fidelity: word lists, voice and movement signatures, weights."""

import itertools
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlkit.errors import LexiconError, MarkerError
from earlkit.markers import (
    MOVEMENT_PATTERNS,
    VOICE_PATTERNS,
    Lexicon,
    MovementDescriptor,
    RankedEmotion,
    VoiceFeatureDelta,
    base_weight_for_source,
    behavior_for_emotion,
    classify_movement,
    classify_voice,
    default_lexicon,
    load_features,
    load_lexicon,
    tag_lexical,
    tokenize,
)
from earlkit.model import EmotionAnnotation, InlineText


def voice_from_pattern(pattern: dict) -> VoiceFeatureDelta:
    return VoiceFeatureDelta(**pattern)


def movement_from_pattern(pattern: dict) -> MovementDescriptor:
    return MovementDescriptor(**pattern)


def all_voice_inputs():
    directions = ("up", "down", "flat")
    contours = ("downward", "upward", "flat")
    fields = itertools.product(
        directions, directions, directions, directions, directions, contours, directions
    )
    for mean_f0, f0_range, f0_var, energy, hf, contour, rate in fields:
        yield VoiceFeatureDelta(mean_f0, f0_range, f0_var, energy, hf, contour, rate)


def all_movement_inputs():
    lengths = ("short", "mid", "long")
    fields = itertools.product(
        lengths,
        ("frequent", "few", "neutral"),
        lengths,
        ("outward_from_centre", "close_to_centre", "neutral"),
        ("dynamic_high", "sustained_high", "continuously_low", "dynamic_varying", "neutral"),
    )
    for values in fields:
        yield MovementDescriptor(*values)


# The documented scoring rule, restated independently of the classifiers:
# +1 per pattern field matched, -1 per field pointing the opposite way,
# divided by pattern size, clamped to [0, 1]; descending score, then label.
VOICE_OPPOSITES = {("up", "down"), ("downward", "upward")}
MOVEMENT_OPPOSITES = {
    "duration": {("short", "long")},
    "tempo_changes": {("frequent", "few")},
    "stop_length": {("short", "long")},
    "spatial_extent": {("outward_from_centre", "close_to_centre")},
    "tension": {("dynamic_high", "continuously_low"), ("sustained_high", "continuously_low")},
}


def reference_rank(descriptor, patterns, opposites) -> list[RankedEmotion]:
    ranked = []
    for label, pattern in patterns.items():
        net, matched = 0, []
        for name, expected in pattern.items():
            value = getattr(descriptor, name)
            pairs = opposites(name)
            if value == expected:
                net += 1
                matched.append(name)
            elif (value, expected) in pairs or (expected, value) in pairs:
                net -= 1
        score = min(1.0, max(0.0, net / len(pattern))) if pattern else 0.0
        ranked.append(RankedEmotion(label, score, tuple(matched)))
    return sorted(ranked, key=lambda r: (-r.score, r.label))


class TestBehaviorMap:
    def test_all_six_rows(self):
        assert behavior_for_emotion("desire") == "searching"
        assert behavior_for_emotion("anger") == "aggressive"
        assert behavior_for_emotion("fear") == "protective"
        assert behavior_for_emotion("sadness") == "dejected"
        assert behavior_for_emotion("joy") == "gratulant"
        assert behavior_for_emotion("affection") == "caressive"

    def test_sensuality_alias_bridges_to_searching(self):
        assert behavior_for_emotion("sensuality") == "searching"

    def test_unknown_emotion(self):
        with pytest.raises(MarkerError) as exc:
            behavior_for_emotion("surprise")
        assert exc.value.code == "UNKNOWN_EMOTION"


class TestFeatureFile:
    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_load(self, encode):
        text = "# voice\n\n mean_f0 = up  # rises\nf0_contour=downward\nmean_f0=down\n"
        assert load_features(encode(text), VoiceFeatureDelta) == VoiceFeatureDelta(
            mean_f0="down", f0_contour="downward"
        )
        assert load_features(encode("tension=sustained_high\n"), MovementDescriptor) == (
            MovementDescriptor(tension="sustained_high")
        )
        assert load_features(encode("# nothing\n"), MovementDescriptor) == MovementDescriptor()

    @pytest.mark.parametrize(
        "descriptor, line, message",
        [
            (VoiceFeatureDelta, "mean_f0 up", "expected field=value"),
            (VoiceFeatureDelta, "loudness=up", "'loudness' is not a VoiceFeatureDelta field"),
            (VoiceFeatureDelta, "tension=neutral", "'tension' is not a VoiceFeatureDelta field"),
            (MovementDescriptor, "mean_f0=up", "'mean_f0' is not a MovementDescriptor field"),
            (VoiceFeatureDelta, "mean_f0=sideways", "mean_f0='sideways'; expected one of"),
            (VoiceFeatureDelta, "f0_contour=up", "f0_contour='up'; expected one of"),
            (MovementDescriptor, "duration=", "duration=''; expected one of"),
        ],
    )
    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_bad_line_is_bad_feature(self, descriptor, line, message, encode):
        with pytest.raises(MarkerError) as exc:
            load_features(encode(f"# header\n\n{line}\n"), descriptor)
        assert exc.value.code == "BAD_FEATURE"
        assert exc.value.message.startswith(f"line 3: {message}")

    def test_non_utf8_features_are_bad_feature(self):
        with pytest.raises(MarkerError) as exc:
            load_features(b"mean_f0=up\n\xff=up\n", VoiceFeatureDelta)
        assert exc.value.code == "BAD_FEATURE"
        assert exc.value.message.startswith("line 2: not UTF-8 text")


class TestLexicon:
    def test_bundled_lexicon_has_seven_emotions(self):
        lex = default_lexicon()
        assert sorted(lex.entries) == [
            "activation", "amazement", "dysphoria", "joy",
            "power", "sadness", "sensuality",
        ]

    def test_duplicate_marker_rejected(self):
        data = "joy: happy\nactivation: happy"
        with pytest.raises(LexiconError) as exc:
            load_lexicon(data)
        assert exc.value.code == "DUPLICATE_MARKER"

    def test_empty_emotion_rejected(self):
        with pytest.raises(LexiconError) as exc:
            load_lexicon("joy:")
        assert exc.value.code == "EMPTY_EMOTION"

    def test_every_bundled_marker_maps_back(self):
        lex = default_lexicon()
        for emotion, markers in lex.entries.items():
            for marker in markers:
                results = tag_lexical(marker, lex)
                assert [a.category for a, _ in results] == [emotion], marker

    def test_default_lexicon_is_shared_and_read_only(self):
        lex = default_lexicon()
        assert default_lexicon() is lex
        with pytest.raises(TypeError):
            lex.entries["joy"] = frozenset({"glad"})
        with pytest.raises(AttributeError):
            lex.entries["joy"].add("glad")
        assert tag_lexical("glad") == []

    def test_entries_are_copied_at_construction(self):
        markers = {"glad"}
        entries = {"joy": markers}
        lex = Lexicon(entries)
        assert lex.entries == entries
        markers.add("merry")
        entries["sadness"] = {"blue"}
        assert tag_lexical("merry blue", lex) == []
        assert [a.category for a, _ in tag_lexical("glad", lex)] == ["joy"]

    def test_phrase_precedence(self):
        # Emotions in file order; within one, longer phrases first, then
        # alphabetical.
        def matched(text, lexicon_text):
            return [tokens for _, tokens in tag_lexical(text, load_lexicon(lexicon_text))]

        assert matched("goose bumps ahead", "a: goose bumps, bumps ahead") == [
            ["bumps", "ahead"]
        ]
        assert matched("goose bumps ahead", "a: goose bumps, goose bumps ahead") == [
            ["goose", "bumps", "ahead"]
        ]
        assert matched("goose bumps ahead", "b: goose bumps\na: bumps ahead") == [
            ["goose", "bumps"]
        ]
        assert matched("goose bumps ahead", "a: bumps ahead\nb: goose bumps") == [
            ["bumps", "ahead"]
        ]

    def test_phrase_precedence_ignores_hash_seed(self):
        # Seeds 0 and 2 iterate a frozenset of these two phrases in opposite
        # orders.
        script = (
            "from earlkit.markers import load_lexicon, tag_lexical\n"
            "lex = load_lexicon('a: goose bumps, bumps ahead')\n"
            "print([tokens for _, tokens in tag_lexical('goose bumps ahead', lex)])\n"
        )
        outputs = []
        for seed in ("0", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout.strip())
        assert outputs == ["[['bumps', 'ahead']]"] * 2


class TestTagLexical:
    def test_joy_words(self):
        results = tag_lexical("joyful, happy, radiant")
        ((a, tokens),) = results
        assert a.category == "joy"
        assert tokens == ["joyful", "happy", "radiant"]
        assert a.intensity == 1.0
        assert a.probability == 1.0
        assert a.modality == "language"
        assert a.scope == InlineText("joyful, happy, radiant")

    def test_empty_text(self):
        assert tag_lexical("") == []

    def test_split_across_two_emotions(self):
        results = tag_lexical("anxious but proud")
        assert [(a.category, a.probability) for a, _ in results] == [
            ("dysphoria", 0.5),
            ("power", 0.5),
        ]
        for a, tokens in results:
            assert a.intensity == pytest.approx(1 / 3)
            assert len(tokens) == 1

    def test_phrase_marker_matches_token_run(self):
        ((a, tokens),) = tag_lexical("That gave me goose bumps!")
        assert a.category == "amazement"
        assert tokens == ["goose", "bumps"]

    @given(
        st.lists(
            st.sampled_from(
                sorted(m for ms in default_lexicon().entries.values() for m in ms)
                + ["goose", "bumps", "the", "not", "Happy!", ","]
            ),
            max_size=30,
        )
    )
    def test_default_lexicon_argument_is_implied(self, words):
        text = " ".join(words)
        assert tag_lexical(text) == tag_lexical(text, default_lexicon())

    def test_tokenizer_strips_punctuation_and_case(self):
        assert tokenize("Joyful, HAPPY!! radiant...") == ["joyful", "happy", "radiant"]


# The tagger as first written, restated: split on non-letters and drop empty
# tokens; match phrases with one consumed flag per token, then single words
# on the tokens no phrase consumed.
def reference_tokenize(text):
    return [t for t in re.split(r"[^a-z]+", text.lower()) if t]


def reference_tag_lexical(text, lexicon):
    tokens = reference_tokenize(text)
    consumed = [False] * len(tokens)
    hits = {}
    for parts, emotion in lexicon._phrases:
        n = len(parts)
        for i in range(len(tokens) - n + 1):
            if tokens[i : i + n] == parts and not any(consumed[i : i + n]):
                hits.setdefault(emotion, []).extend(parts)
                consumed[i : i + n] = [True] * n
    for token, used in zip(tokens, consumed):
        if not used and token in lexicon._single:
            hits.setdefault(lexicon._single[token], []).append(token)
    total = sum(len(matched) for matched in hits.values())
    return [
        (
            EmotionAnnotation(
                category=emotion, modality="language",
                intensity=min(1.0, len(hits[emotion]) / 3),
                probability=len(hits[emotion]) / total, scope=InlineText(text),
            ),
            hits[emotion],
        )
        for emotion in sorted(hits)
    ]


# Phrases that overlap one another and single words, in two emotions.
_OVERLAPPING = load_lexicon(
    "a: goose bumps, bumps ahead, goose bumps ahead, happy\n"
    "b: bumps, goose, ahead goose, sad\n"
)
_WORDS = (
    sorted(m for ms in default_lexicon().entries.values() for m in ms)
    + ["goose bumps", "goose", "bumps", "ahead", "goose, bumps", "Goose\tBUMPS", "goose-bumps"]
    + ["the", "not", "a", "I", "so", "very", "", "it's"]
    + [",", "!", "...", "  ", "\n", "-", "'", "3", "_"]
    + ["Happy!", "SAD", "pRoUd", "zärtlich", "naïve", "Straße", "ÅNGRY", "İt", "sadé", "ﬁery"]
)
_SEPARATORS = st.sampled_from([" ", "", ",", ", ", "\n", "-", "é", "  "])


class TestTaggerMatchesReference:
    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(st.sampled_from(_WORDS), _SEPARATORS), max_size=30),
        st.sampled_from([default_lexicon(), _OVERLAPPING]),
    )
    def test_tag_lexical_matches_reference(self, words, lexicon):
        text = "".join(word + sep for word, sep in words)
        assert tokenize(text) == reference_tokenize(text)
        got = tag_lexical(text, lexicon)
        want = reference_tag_lexical(text, lexicon)
        assert got == want
        # The repr shows the types and the order of the matched tokens too.
        assert repr(got) == repr(want)


class TestClassifyVoice:
    def test_anger_pattern_ranks_anger_first_at_full_score(self):
        ranked = classify_voice(voice_from_pattern(VOICE_PATTERNS["anger"]))
        assert ranked[0].label == "anger"
        assert ranked[0].score == 1.0

    def test_sadness_pattern(self):
        v = VoiceFeatureDelta(
            mean_f0="down", f0_range="down", mean_energy="down", f0_contour="downward"
        )
        ranked = classify_voice(v)
        assert ranked[0].label == "sadness"
        assert ranked[0].score == 1.0
        scores = {r.label: r.score for r in ranked}
        assert scores["disgust"] == 0.0

    def test_all_flat_scores_zero_alphabetical(self):
        ranked = classify_voice(VoiceFeatureDelta())
        assert [r.label for r in ranked] == ["anger", "disgust", "fear", "joy", "sadness"]
        assert all(r.score == 0.0 for r in ranked)

    def test_each_row_ranks_its_emotion_first(self):
        for emotion, pattern in VOICE_PATTERNS.items():
            if not pattern:
                continue
            ranked = classify_voice(voice_from_pattern(pattern))
            assert ranked[0].label == emotion
            assert ranked[0].score == 1.0

    def test_fear_input_scores_anger_partially(self):
        # Shared markers are scored, never suppressed: the fear signature is
        # a subset of anger's, so a pure fear input credits anger partially.
        ranked = classify_voice(voice_from_pattern(VOICE_PATTERNS["fear"]))
        scores = {r.label: r.score for r in ranked}
        assert scores["fear"] == 1.0
        assert 0.0 < scores["anger"] < 1.0

    def test_disgust_never_scores(self):
        for v in all_voice_inputs():
            assert classify_voice(v)[-1].score >= 0.0
            scores = {r.label: r.score for r in classify_voice(v)}
            assert scores["disgust"] == 0.0

    def test_deterministic(self):
        v = voice_from_pattern(VOICE_PATTERNS["joy"])
        assert classify_voice(v) == classify_voice(v)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            VoiceFeatureDelta(mean_f0="sideways")

    def test_matches_documented_rule_on_every_input(self):
        for v in all_voice_inputs():
            assert classify_voice(v) == reference_rank(
                v, VOICE_PATTERNS, lambda _name: VOICE_OPPOSITES
            ), v


class TestClassifyMovement:
    def test_grief_example(self):
        m = MovementDescriptor("long", "few", "mid", "neutral", "continuously_low")
        ranked = classify_movement(m)
        assert ranked[0].label == "grief"
        assert ranked[0].score == 1.0
        assert all(r.score == 0.0 for r in ranked[1:])

    def test_anger_descriptor(self):
        ranked = classify_movement(movement_from_pattern(MOVEMENT_PATTERNS["anger"]))
        assert ranked[0].label == "anger"
        assert ranked[0].score == 1.0

    def test_all_neutral_scores_zero(self):
        ranked = classify_movement(MovementDescriptor())
        assert {r.label for r in ranked} == {"anger", "fear", "grief", "joy"}
        assert all(r.score == 0.0 for r in ranked)

    def test_each_row_ranks_its_emotion_strictly_first(self):
        for emotion, pattern in MOVEMENT_PATTERNS.items():
            ranked = classify_movement(movement_from_pattern(pattern))
            assert ranked[0].label == emotion
            assert ranked[0].score == 1.0
            assert ranked[1].score < 1.0

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            MovementDescriptor(tension="rigid")

    def test_matches_documented_rule_on_every_input(self):
        for m in all_movement_inputs():
            assert classify_movement(m) == reference_rank(
                m, MOVEMENT_PATTERNS, MOVEMENT_OPPOSITES.__getitem__
            ), m


class TestSourceWeights:
    def test_weights(self):
        assert base_weight_for_source("face") == 1.0
        assert base_weight_for_source("language_voice") == 1.0
        assert base_weight_for_source("movement_kinematic") == 0.6
        assert base_weight_for_source("movement_kinetic") == 0.2

    def test_unknown_source(self):
        with pytest.raises(MarkerError) as exc:
            base_weight_for_source("telepathy")
        assert exc.value.code == "UNKNOWN_SOURCE"
