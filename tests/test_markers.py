"""Knowledge-base fidelity: word lists, voice and movement signatures, weights."""

import itertools
import os
import subprocess
import sys
import unicodedata
from importlib import resources

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from earlkit import markers
from earlkit.errors import LexiconError, MarkerError
from earlkit.markers import (
    MOVEMENT_PATTERNS,
    VOICE_PATTERNS,
    Lexicon,
    MovementDescriptor,
    RankedEmotion,
    VoiceFeatureDelta,
    classify_movement,
    classify_voice,
    default_lexicon,
    load_features,
    load_lexicon,
    tag_lexical,
    tokenize,
)
from earlkit.model import (
    SOURCE_WEIGHTS,
    InlineText,
    behavior_for_emotion,
)

import oracles


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


# The classifiers' memo: voice rankings, movement rankings, shared records.
MEMOS = (markers._voice_ranking, markers._movement_ranking, markers._ranked)


def clear_memo():
    for memo in MEMOS:
        memo.cache_clear()


def assert_same_ranking(got, want, descriptor):
    assert got == want, descriptor
    # The repr shows the field types too (1 and 1.0 compare equal).
    assert repr(got) == repr(want), descriptor


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


@st.composite
def lexicon_with_one_repeat(draw):
    """A lexicon file in which one marker is listed under two emotions on two
    lines, and the message that must refuse it: it names the later line and
    the emotion of the earlier one.  Emotions repeat across lines, and
    comment lines shift the numbering."""
    emotions = draw(st.lists(st.sampled_from(["joy", "sadness", "fear"]), min_size=2, max_size=7))
    pairs = [
        (i, j) for i in range(len(emotions)) for j in range(i + 1, len(emotions))
        if emotions[i] != emotions[j]
    ]
    assume(pairs)
    i, j = draw(st.sampled_from(pairs))
    word = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
    words = draw(st.lists(
        st.one_of(word, st.tuples(word, word).map(" ".join)),
        min_size=len(emotions), max_size=3 * len(emotions), unique=True,
    ))
    groups = [words[k::len(emotions)] for k in range(len(emotions))]
    marker = draw(st.sampled_from(groups[i]))
    groups[j].insert(draw(st.integers(0, len(groups[j]))), marker)
    lines, line_no = [], 0
    for k, (emotion, group) in enumerate(zip(emotions, groups)):
        if draw(st.booleans()):
            lines.append("# note")
        lines.append(f"{emotion}: {', '.join(group)}")
        if k == j:
            line_no = len(lines)
    message = f"line {line_no}: {marker!r} already assigned to {emotions[i]!r}"
    return "\n".join(lines), message


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
        assert exc.value.message == "line 2: 'happy' already assigned to 'joy'"

    @pytest.mark.parametrize(
        "entries, marker, owner",
        [
            ({"joy": {"glad"}, "sadness": {"glad"}}, "glad", "joy"),
            ({"sadness": {"glad"}, "joy": {"glad"}}, "glad", "sadness"),
            ({"a": {"goose bumps", "glad"}, "b": {"blue", "goose bumps"}}, "goose bumps", "a"),
        ],
    )
    def test_hand_built_duplicate_marker_rejected(self, entries, marker, owner):
        # Accepted, the marker would tag as whichever emotion came last.
        with pytest.raises(LexiconError) as exc:
            Lexicon(entries)
        assert (exc.value.code, exc.value.message) == (
            "DUPLICATE_MARKER", f"{marker!r} already assigned to {owner!r}"
        )

    @pytest.mark.parametrize(
        "data, code, message",
        [
            # The line's syntax is checked before the lexicon it builds.
            ("joy: glad\n: glad", "EMPTY_EMOTION", "line 2: emotion with no markers"),
            # Of two repeated markers, the first in matching precedence is named.
            ("joy: glad, goose bumps\nsad: glad, goose bumps", "DUPLICATE_MARKER",
             "line 2: 'goose bumps' already assigned to 'joy'"),
        ],
    )
    def test_line_with_two_faults_reports_one(self, data, code, message):
        with pytest.raises(LexiconError) as exc:
            load_lexicon(data)
        assert (exc.value.code, exc.value.message) == (code, message)

    def test_repeated_marker_names_the_line_that_owns_it(self):
        # Line 3 adds to joy, which comes first, but blue is sadness's.
        with pytest.raises(LexiconError) as exc:
            load_lexicon("joy: glad\nsadness: blue\njoy: blue, zany")
        assert (exc.value.code, exc.value.message) == (
            "DUPLICATE_MARKER", "line 3: 'blue' already assigned to 'sadness'"
        )

    @given(lexicon_with_one_repeat())
    @example(("b: z\na: y\nb: y", "line 3: 'y' already assigned to 'a'"))
    def test_repeated_marker_names_its_earlier_owner(self, case):
        data, message = case
        with pytest.raises(LexiconError) as exc:
            load_lexicon(data)
        assert (exc.value.code, exc.value.message) == ("DUPLICATE_MARKER", message)

    def test_bundled_table_tokenizes_each_marker_twice(self, monkeypatch):
        # Once by the reader and once by Lexicon's form check.  Rebuilding the
        # lexicon after each line would check every marker read so far again.
        calls = []
        tokenize = markers.tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(markers, "tokenize", counting)
        data = resources.files("earlkit.data").joinpath("table2.lex").read_bytes()
        lexicon = load_lexicon(data)
        assert sum(map(len, lexicon.entries.values())) == 35
        assert len(calls) == 70

    def test_emotion_on_two_lines_merges(self):
        lexicon = load_lexicon("joy: glad\nsadness: blue\n# more\nJoy: merry, glad\n")
        assert lexicon == Lexicon({"joy": {"glad", "merry"}, "sadness": {"blue"}})
        assert list(lexicon.entries) == ["joy", "sadness"]

    def test_empty_emotion_rejected(self):
        with pytest.raises(LexiconError) as exc:
            load_lexicon("joy:")
        assert exc.value.code == "EMPTY_EMOTION"

    @pytest.mark.parametrize(
        "marker", ["Happy", "goose  bumps", "", " glad", "glad!", "cafe\u0301"]
    )
    def test_marker_that_can_never_match_rejected(self, marker):
        # Text is matched as tokenize gives it; this marker would tag nothing.
        with pytest.raises(ValueError, match="not in tokenized form"):
            Lexicon({"joy": {"glad", marker}})

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


_SINGLE_MARKERS = sorted(
    m for ms in default_lexicon().entries.values() for m in ms if " " not in m
)


class TestWholeWordsOnly:
    # A marker never matches part of a longer word: letters and combining
    # marks of any script belong to the word.
    @pytest.mark.parametrize(
        "text, words",
        [
            ("sadé Straße naïve contentó", ["sadé", "straße", "naïve", "contentó"]),
            (unicodedata.normalize("NFD", "sadé contentó"), ["sad\u00e9", "content\u00f3"]),
            ("İrritated", ["i\u0307rritated"]),
            ("ÅNGRY — sad, ﬁery!", ["ångry", "sad", "ﬁery"]),
            ("happy2sad_proud", ["happy", "sad", "proud"]),
            ("глад happy", ["глад", "happy"]),
        ],
    )
    def test_tokenize_keeps_letters_and_marks_together(self, text, words):
        assert tokenize(text) == words

    @pytest.mark.parametrize(
        "text",
        ["sadé contentó", unicodedata.normalize("NFD", "sadé contentó"), "İrritated",
         "Angryé", "ñsad", "happyß", "proudō"],
    )
    def test_accented_words_tag_nothing(self, text):
        assert tag_lexical(text) == []

    def test_a_marker_beside_a_non_letter_still_matches(self):
        ((a, tokens),) = tag_lexical("«sad»—1sad² sad…")
        assert (a.category, tokens) == ("sadness", ["sad", "sad", "sad"])

    @given(
        marker=st.sampled_from(_SINGLE_MARKERS),
        extra=st.text(st.characters(categories=("L", "M")), min_size=1, max_size=3),
        before=st.booleans(),
    )
    def test_marker_joined_to_letters_or_marks_does_not_match(self, marker, extra, before):
        word = extra + marker if before else marker + extra
        assert tokenize(word) == [unicodedata.normalize("NFC", word.lower())]
        assert all(marker not in tokens for _, tokens in tag_lexical(word))

    def test_custom_lexicon_keeps_non_ascii_markers_whole(self):
        lexicon = load_lexicon("joy: zärtlich, naïve")
        assert lexicon.entries["joy"] == {"zärtlich", "naïve"}
        assert [t for _, t in tag_lexical("Zärtlich und naïve", lexicon)] == [
            ["zärtlich", "naïve"]
        ]
        assert tag_lexical("z rtlich na ve", lexicon) == []

    @pytest.mark.parametrize("marker_form, text_form", [("NFC", "NFD"), ("NFD", "NFC")])
    def test_composed_and_decomposed_spellings_match(self, marker_form, text_form):
        lexicon = load_lexicon(unicodedata.normalize(marker_form, "joy: zärtlich, naïve"))
        text = unicodedata.normalize(text_form, "Zärtlich und NAÏVE")
        assert text != unicodedata.normalize(marker_form, text)
        ((annotation, tokens),) = tag_lexical(text, lexicon)
        assert annotation.category == "joy"
        assert tokens == ["zärtlich", "naïve"]
        # The scope keeps the text as it was given.
        assert annotation.scope == InlineText(text)

    @pytest.mark.parametrize("form", ["NFC", "NFD"])
    def test_normalizing_joins_no_new_word_to_a_marker(self, form):
        for text in ("İrritated", "sadé"):
            assert tag_lexical(unicodedata.normalize(form, text)) == []


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
    + ["sade\u0301", "İrritated", "глад", "٣"]
    # Repeated and overlapping phrase heads.
    + ["goose goose bumps", "goose bumps bumps", "Goose GOOSE bumps ahead", "bumps goose"]
)
_SEPARATORS = st.sampled_from([" ", "", ",", ", ", "\n", "-", "é", "  ", "\u0301", "—"])
# The inputs the ASCII fast path serves: stream utterances reach 149 tokens,
# and any ASCII character may stand between two words.
_ASCII_WORDS = [word for word in _WORDS if word.isascii()]
_ASCII_CHARS = [chr(c) for c in range(128)]
_ASCII_SEPARATORS = st.lists(st.sampled_from(_ASCII_CHARS), max_size=2).map("".join)


def _tagger_matches_reference(words, lexicon):
    text = "".join(word + sep for word, sep in words)
    assert tokenize(text) == oracles.tokenize(text)
    got = tag_lexical(text, lexicon)
    want = oracles.tag_lexical(text, lexicon)
    assert got == want
    # The repr shows the types and the order of the matched tokens too.
    assert repr(got) == repr(want)


class TestTaggerMatchesReference:
    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(st.sampled_from(_WORDS), _SEPARATORS), max_size=30),
        st.sampled_from([default_lexicon(), _OVERLAPPING]),
    )
    @example([("ahead goose bumps", "")], _OVERLAPPING)  # a free head, its tail taken
    @example([("goose goose bumps", "")], _OVERLAPPING)  # the phrase at a later head
    def test_tag_lexical_matches_reference(self, words, lexicon):
        _tagger_matches_reference(words, lexicon)

    @settings(max_examples=100)
    @given(
        # The length is drawn first: a plain list draw seldom passes 20 items.
        st.integers(0, 160).flatmap(lambda n: st.lists(
            st.tuples(st.sampled_from(_ASCII_WORDS), _ASCII_SEPARATORS), min_size=n, max_size=n
        )),
        st.sampled_from([default_lexicon(), _OVERLAPPING]),
    )
    def test_long_ascii_text_matches_reference(self, words, lexicon):
        assert all((word + sep).isascii() for word, sep in words)
        _tagger_matches_reference(words, lexicon)

    @given(st.integers(0, 600).flatmap(
        lambda n: st.lists(st.sampled_from(_ASCII_CHARS), min_size=n, max_size=n).map("".join)
    ))
    def test_ascii_tokenize_is_the_letter_runs(self, text):
        assert tokenize(text) == oracles.tokenize(text)

    @pytest.mark.parametrize(
        "text, words",
        [
            # KELVIN SIGN is not ASCII, but lowercases to ASCII k.
            ("\u212a", ["k"]),
            ("O\u212a, \u212aelvin!", ["ok", "kelvin"]),
            # Dotted capital I lowercases to i and a combining dot above.
            ("İ", ["i\u0307"]),
            ("İt is OK", ["i\u0307t", "is", "ok"]),
        ],
    )
    def test_non_ascii_text_that_lowercases_near_ascii(self, text, words):
        assert tokenize(text) == oracles.tokenize(text) == words
        lexicon = Lexicon({"a": {"ok", "kelvin"}, "b": {"it", "is"}})
        assert tag_lexical(text, lexicon) == oracles.tag_lexical(text, lexicon)


# Values no descriptor field accepts; with the other fields' values (the
# oracles' tables) these are the invalid ones.
_JUNK = ["sideways", "", "UP", "flat ", None, 1, 0.0, ("up",)]
DESCRIPTORS = pytest.mark.parametrize(
    "descriptor, allowed",
    [(VoiceFeatureDelta, oracles.VOICE_ALLOWED), (MovementDescriptor, oracles.MOVEMENT_ALLOWED)],
    ids=["voice", "movement"],
)


CANDIDATES = sorted(
    {
        v for fields in (oracles.VOICE_ALLOWED, oracles.MOVEMENT_ALLOWED)
        for ok in fields.values() for v in ok
    }
) + _JUNK


class TestDescriptorCheck:
    @DESCRIPTORS
    def test_every_invalid_field_value_is_named(self, descriptor, allowed):
        for name, ok in allowed.items():
            for value in CANDIDATES:
                if value in ok:
                    continue
                with pytest.raises(ValueError) as exc:
                    descriptor(**{name: value})
                assert str(exc.value) == f"{name}={value!r}; expected one of {ok}"

    @DESCRIPTORS
    @given(data=st.data())
    def test_check_matches_the_restated_rule(self, descriptor, allowed, data):
        values = {
            name: data.draw(st.sampled_from(CANDIDATES), label=name)
            for name in allowed
        }
        bad = [name for name, ok in allowed.items() if values[name] not in ok]
        if not bad:
            record = descriptor(**values)
            assert {name: getattr(record, name) for name in allowed} == values
            return
        # The first bad field in field order is the one named.
        name = bad[0]
        with pytest.raises(ValueError) as exc:
            descriptor(*values.values())
        assert str(exc.value) == f"{name}={values[name]!r}; expected one of {allowed[name]}"

    @DESCRIPTORS
    def test_every_valid_tuple_constructs(self, descriptor, allowed):
        assert descriptor._fields == tuple(allowed)
        count = 0
        for values in itertools.product(*allowed.values()):
            record = descriptor(*values)
            assert tuple(getattr(record, name) for name in allowed) == values
            assert descriptor(**dict(zip(allowed, values))) == record
            count += 1
        assert count == {VoiceFeatureDelta: 2187, MovementDescriptor: 405}[descriptor]


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
        clear_memo()
        for v in all_voice_inputs():
            want = oracles.rank(v)
            assert_same_ranking(classify_voice(v), want, v)
            assert_same_ranking(classify_voice(v), want, v)


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
        clear_memo()
        for m in all_movement_inputs():
            want = oracles.rank(m)
            assert_same_ranking(classify_movement(m), want, m)
            assert_same_ranking(classify_movement(m), want, m)


class TestClassifierMemo:
    # Each feature tuple is ranked once; later calls copy the kept ranking
    # into a new list of the same immutable records.
    @pytest.mark.parametrize(
        "classify, descriptor",
        [(classify_voice, VoiceFeatureDelta(mean_f0="up", f0_contour="downward")),
         (classify_movement, MovementDescriptor(tension="dynamic_high"))],
        ids=["voice", "movement"],
    )
    def test_calls_return_new_lists_of_the_same_records(self, classify, descriptor):
        clear_memo()
        first = classify(descriptor)
        second = classify(descriptor._replace())
        assert type(first) is type(second) is list
        assert first is not second
        assert first == second
        assert all(a is b for a, b in zip(first, second, strict=True))

    @pytest.mark.parametrize(
        "classify, descriptor",
        [(classify_voice, VoiceFeatureDelta(mean_f0="up")),
         (classify_movement, MovementDescriptor(duration="long"))],
        ids=["voice", "movement"],
    )
    def test_mutating_a_result_leaves_the_next_unchanged(self, classify, descriptor):
        want = classify(descriptor).copy()  # a snapshot, should the memo share its list
        got = classify(descriptor)
        got.reverse()
        got.append(RankedEmotion("rage", 1.0))
        del got[0]
        got[0] = None
        assert classify(descriptor) == want

    def test_memo_is_bounded_by_the_feature_tuples(self):
        clear_memo()
        rankings = [classify_voice(v) for v in all_voice_inputs()]
        rankings += [classify_movement(m) for m in all_movement_inputs()]
        rankings += [classify_voice(v) for v in all_voice_inputs()]
        rankings += [classify_movement(m) for m in all_movement_inputs()]
        sizes = [memo.cache_info().currsize for memo in MEMOS]
        assert sizes[0] <= 2187
        assert sizes[1] <= 405
        assert sizes[2] <= 706
        assert len({id(r) for ranking in rankings for r in ranking}) <= 706

    def test_importing_earlkit_leaves_the_memo_empty(self):
        script = (
            "import earlkit, earlkit.markers as m\n"
            "print([f.cache_info().currsize for f in"
            " (m._voice_ranking, m._movement_ranking, m._ranked)])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[0, 0, 0]"


class TestSourceWeights:
    def test_weights(self):
        assert SOURCE_WEIGHTS == {
            "face": 1.0, "language_voice": 1.0, "movement_kinematic": 0.6, "movement_kinetic": 0.2,
        }
