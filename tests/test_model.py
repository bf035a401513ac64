"""Domain types: construction, immutability and validation."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from earlkit.model import (
    DEFAULT_PROFILE,
    FIELD_ATTRIBUTES,
    REGULATION_TYPES,
    UNSCOPED,
    ComplexEmotion,
    EmotionAnnotation,
    Finding,
    FrozenRecordError,
    InlineText,
    Reference,
    ReferencedTimeSpan,
    TimeSpan,
    ValidationReport,
    VocabularyProfile,
    validate_annotation,
)

import generators
import oracles

PLEASURE_PROFILE = VocabularyProfile(categories=frozenset({"pleasure"}))


def codes(report, severity=None):
    return [
        f.code
        for f in report.findings
        if severity is None or f.severity == severity
    ]


class TestValidateAnnotation:
    def test_inline_pleasure_ok(self):
        a = EmotionAnnotation(category="pleasure", scope=InlineText("Hello!"))
        report = validate_annotation(a, PLEASURE_PROFILE)
        assert report.ok
        assert report.findings == ()

    def test_missing_descriptor(self):
        report = validate_annotation(EmotionAnnotation())
        assert not report.ok
        assert codes(report, "error") == ["MISSING_DESCRIPTOR"]

    def test_intensity_out_of_range(self):
        a = EmotionAnnotation(category="pleasure", intensity=1.7)
        report = validate_annotation(a, PLEASURE_PROFILE)
        assert not report.ok
        (finding,) = report.errors()
        assert finding.code == "RANGE"
        assert finding.location.endswith("intensity")

    def test_unknown_category(self):
        a = EmotionAnnotation(category="smugness")
        report = validate_annotation(a, PLEASURE_PROFILE)
        assert codes(report, "error") == ["UNKNOWN_CATEGORY"]

    def test_empty_category_set_accepts_anything(self):
        a = EmotionAnnotation(category="smugness")
        assert validate_annotation(a).ok

    @pytest.mark.parametrize("profile", [DEFAULT_PROFILE, PLEASURE_PROFILE], ids=["open", "listed"])
    def test_empty_category_is_one_error(self, profile):
        # No profile entry or rule can name "", so no profile allows it.
        report = validate_annotation(EmotionAnnotation(category=""), profile)
        assert [(f.severity, f.code, f.location) for f in report.findings] == [
            ("error", "EMPTY_CATEGORY", "annotation.category")
        ]

    def test_unknown_dimension_and_modality(self):
        profile = VocabularyProfile(
            dimension_names=frozenset({"arousal"}), modalities=frozenset({"face"})
        )
        a = EmotionAnnotation(
            dimensions={"sideways": 0.5}, modality="smell", category=None
        )
        report = validate_annotation(a, profile)
        assert codes(report, "error") == ["UNKNOWN_DIMENSION", "UNKNOWN_MODALITY"]

    def test_unknown_regulation_key(self):
        a = EmotionAnnotation(category="pleasure", regulation={"conceal": 0.5})
        report = validate_annotation(a)
        assert codes(report, "error") == ["UNKNOWN_REGULATION"]

    def test_regulation_range_and_noop_warning(self):
        a = EmotionAnnotation(
            category="pleasure", regulation={"simulate": 1.4, "suppress": 0.0}
        )
        report = validate_annotation(a)
        assert codes(report, "error") == ["RANGE"]
        assert codes(report, "warning") == ["NOOP_REGULATION"]

    def test_malformed_timespan(self):
        a = EmotionAnnotation(category="pleasure", scope=TimeSpan(2.0, 1.0))
        report = validate_annotation(a)
        assert codes(report, "error") == ["MALFORMED_SCOPE"]

    def test_empty_reference(self):
        a = EmotionAnnotation(category="pleasure", scope=Reference(""))
        report = validate_annotation(a)
        assert codes(report, "error") == ["MALFORMED_SCOPE"]

    def test_complex_constituent_standoff_scope_rejected(self):
        c = ComplexEmotion(
            constituents=(
                EmotionAnnotation(category="pleasure", scope=Reference("x.jpg")),
                EmotionAnnotation(category="worry"),
            )
        )
        report = validate_annotation(c)
        assert "CONSTITUENT_SCOPE" in codes(report, "error")

    def test_nested_complex_is_reported_not_raised(self):
        # Its constituent checks used to raise AttributeError on .category.
        inner = ComplexEmotion((EmotionAnnotation("joy"), EmotionAnnotation("fear")))
        group = ComplexEmotion((inner, EmotionAnnotation("worry", scope=TimeSpan(2.0, 1.0))))
        report = validate_annotation(group)
        assert [(f.code, f.message, f.location) for f in report.findings] == [
            ("NESTED_COMPLEX", "complex-emotion may not contain another complex-emotion",
             "complex.constituent[0]"),
            ("CONSTITUENT_SCOPE",
             "constituent carries its own stand-off scope; scope lives on the group",
             "complex.constituent[1].scope"),
            ("MALFORMED_SCOPE", "time span end 1.0 must exceed start 2.0",
             "complex.constituent[1].scope"),
        ]

    def test_complex_needs_two_constituents(self):
        c = ComplexEmotion(constituents=(EmotionAnnotation(category="pleasure"),))
        report = validate_annotation(c)
        assert "TOO_FEW_CONSTITUENTS" in codes(report, "error")

    def test_validation_is_pure(self):
        a = EmotionAnnotation(
            category="pleasure",
            dimensions={"arousal": 2.0},
            regulation={"suppress": 0.0},
        )
        assert validate_annotation(a) == validate_annotation(a)

    def test_random_valid_annotations_pass(self):
        rng = random.Random(20260809)
        for _ in range(300):
            a = generators.annotation(rng)
            report = validate_annotation(a)
            assert report.ok, report.findings
            for value in (*a.dimensions.values(), *a.appraisals.values()):
                assert -1.0 <= value <= 1.0
            for value in a.regulation.values():
                assert 0.0 <= value <= 1.0


class TestValidationEdges:
    def test_appraisal_out_of_range(self):
        a = EmotionAnnotation(appraisals={"suddenness": -2.0})
        report = validate_annotation(a)
        (finding,) = report.errors()
        assert finding.code == "RANGE"
        assert finding.location.endswith("suddenness")

    def test_unknown_appraisal_with_restrictive_profile(self):
        profile = VocabularyProfile(appraisal_names=frozenset({"suddenness"}))
        a = EmotionAnnotation(appraisals={"warmth": 0.5})
        report = validate_annotation(a, profile)
        assert [f.code for f in report.errors()] == ["UNKNOWN_APPRAISAL"]

    def test_negative_timespan_start(self):
        a = EmotionAnnotation(category="x", scope=TimeSpan(-1.0, 2.0))
        report = validate_annotation(a)
        assert [f.code for f in report.errors()] == ["MALFORMED_SCOPE"]

    def test_nan_numeric_is_out_of_range(self):
        a = EmotionAnnotation(category="x", intensity=float("nan"))
        report = validate_annotation(a)
        assert [f.code for f in report.errors()] == ["RANGE"]

    @pytest.mark.parametrize(
        "scope, problem",
        [
            (Reference(""), "reference URI is empty"),
            (TimeSpan(2.0, 1.0), "time span end 1.0 must exceed start 2.0"),
            (TimeSpan(float("nan"), 1.0), "time span end 1.0 must exceed start nan"),
            (TimeSpan(-1.0, 1.0), "time span start is negative"),
            (ReferencedTimeSpan("", 0.0, 1.0), "reference URI is empty"),
            (InlineText(""), "inline text is blank"),
            (InlineText(" \t\r\n"), "inline text is blank"),
        ],
        ids=["empty-uri", "end-before-start", "nan-start", "negative-start", "empty-clip-uri",
             "empty-text", "space-text"],
    )
    def test_malformed_scope_messages(self, scope, problem):
        a = EmotionAnnotation(category="x", scope=scope)
        assert [f.message for f in validate_annotation(a).errors()] == [problem]

    def test_blank_inline_text_on_a_group_or_a_constituent(self):
        group = ComplexEmotion(
            (EmotionAnnotation("joy", scope=InlineText("\n")), EmotionAnnotation("fear")),
            InlineText("  "),
        )
        assert [(f.code, f.location) for f in validate_annotation(group).findings] == [
            ("MALFORMED_SCOPE", "complex.constituent[0].scope"),
            ("MALFORMED_SCOPE", "complex.scope"),
        ]

    def test_text_the_reader_keeps_is_no_finding(self):
        # Only text of XML space alone reads back as no scope; U+3000 is no XML space.
        for text in [" a ", "\u3000", "\xa0\n"]:
            assert validate_annotation(EmotionAnnotation("x", scope=InlineText(text))).ok


class TestUnwritableNames:
    """The writer's name rules that a set test can tell, as error findings."""

    @pytest.mark.parametrize("kind", ["dimensions", "appraisals"])
    @pytest.mark.parametrize("name", sorted(FIELD_ATTRIBUTES))
    def test_a_name_the_reader_routes_to_a_field(self, name, kind):
        report = validate_annotation(EmotionAnnotation("joy", **{kind: {"x": 0.1, name: 0.5}}))
        assert not report.ok
        assert [(f.severity, f.code, f.message, f.location) for f in report.findings] == [
            ("error", "UNSERIALIZABLE_NAME", f"descriptor {name!r} reads back as another field",
             f"annotation.{name}"),
        ]

    def test_a_name_both_a_dimension_and_an_appraisal(self):
        a = EmotionAnnotation("joy", {"x": 0.1, "y": 0.2}, {"y": 0.3, "x": 0.2})
        assert [(f.code, f.message, f.location) for f in validate_annotation(a).errors()] == [
            ("UNSERIALIZABLE_NAME", "descriptor 'x' is both a dimension and an appraisal",
             "annotation.x"),
            ("UNSERIALIZABLE_NAME", "descriptor 'y' is both a dimension and an appraisal",
             "annotation.y"),
        ]

    def test_in_a_constituent(self):
        group = ComplexEmotion(
            (EmotionAnnotation("fear"), EmotionAnnotation("joy", {"probability": 0.5}))
        )
        (finding,) = validate_annotation(group).findings
        assert (finding.code, finding.location) == (
            "UNSERIALIZABLE_NAME", "complex.constituent[1].probability"
        )

    def test_names_only_the_writer_can_refuse_validate_clean(self):
        # Whether a name is an XML name only the writer's parser can tell.
        for name in ['a"b', "x y", ""]:
            assert validate_annotation(EmotionAnnotation("joy", {name: 0.1})).ok


class TestSharedCleanReport:
    def test_clean_items_share_one_immutable_report(self):
        a = validate_annotation(EmotionAnnotation(category="pleasure"), PLEASURE_PROFILE)
        group = ComplexEmotion(
            (EmotionAnnotation(category="pleasure"), EmotionAnnotation(category="pleasure")),
            scope=InlineText("hi"),
        )
        b = validate_annotation(group, PLEASURE_PROFILE)
        assert a is b
        assert (a.ok, a.findings) == (True, ())
        with pytest.raises(FrozenRecordError):
            a.ok = False

    def test_noop_regulation_in_constituent_is_a_warning(self):
        group = ComplexEmotion(
            (
                EmotionAnnotation(category="pleasure"),
                EmotionAnnotation(category="pleasure", regulation={"suppress": 0.0}),
            )
        )
        report = validate_annotation(group)
        assert report.ok
        assert [(f.severity, f.code, f.location) for f in report.findings] == [
            ("warning", "NOOP_REGULATION", "complex.constituent[1].suppress")
        ]

    def test_finding_locations(self):
        profile = VocabularyProfile(
            categories=frozenset({"pleasure"}),
            dimension_names=frozenset({"arousal"}),
            appraisal_names=frozenset({"suddenness"}),
            modalities=frozenset({"face"}),
        )
        bad = EmotionAnnotation(
            category="rage",
            dimensions={"valence": 2.0},
            appraisals={"warmth": 0.1},
            intensity=1.5,
            probability=-1.0,
            regulation={"hide": 0.2, "amplify": 3.0},
            modality="smell",
            scope=TimeSpan(-1.0, -2.0),
        )
        group = ComplexEmotion((EmotionAnnotation(), bad), scope=Reference(""))
        report = validate_annotation(group, profile)
        assert [(f.code, f.location) for f in report.findings] == [
            ("MISSING_DESCRIPTOR", "complex.constituent[0]"),
            ("CONSTITUENT_SCOPE", "complex.constituent[1].scope"),
            ("UNKNOWN_CATEGORY", "complex.constituent[1].category"),
            ("UNKNOWN_DIMENSION", "complex.constituent[1].valence"),
            ("RANGE", "complex.constituent[1].valence"),
            ("UNKNOWN_APPRAISAL", "complex.constituent[1].warmth"),
            ("RANGE", "complex.constituent[1].intensity"),
            ("RANGE", "complex.constituent[1].probability"),
            ("UNKNOWN_REGULATION", "complex.constituent[1].hide"),
            ("RANGE", "complex.constituent[1].amplify"),
            ("UNKNOWN_MODALITY", "complex.constituent[1].modality"),
            ("MALFORMED_SCOPE", "complex.constituent[1].scope"),
            ("MALFORMED_SCOPE", "complex.constituent[1].scope"),
            ("MALFORMED_SCOPE", "complex.scope"),
        ]
        (single,) = validate_annotation(EmotionAnnotation(), profile).findings
        assert single.location == "annotation"


class TestReportVerdict:
    def test_ok_is_derived_from_the_findings(self):
        error = Finding("error", "RANGE", "x=2 outside [0, 1]", "annotation.x")
        warning = Finding("warning", "NOOP_REGULATION", "suppress=0 has no effect", "annotation")
        assert ValidationReport(()).ok
        assert ValidationReport((warning,)).ok
        assert not ValidationReport((warning, error)).ok
        with pytest.raises(TypeError):
            ValidationReport(ok=True, findings=(error,))


NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1.5, -2.0, math.nan, math.inf, -math.inf]),
    st.floats(),
)
DESCRIPTOR_NAMES = st.sampled_from(
    sorted(FIELD_ATTRIBUTES) + ["arousal", "valence", "suddenness", "warmth", "x y"]
)
LABELS = st.sampled_from(["pleasure", "worry", "joy", "face", "voice"])
SCOPE_VARIANTS = st.one_of(
    st.just(UNSCOPED),
    st.builds(InlineText, st.sampled_from(["", " \r\n\t", "hi", " hi "])),
    st.builds(Reference, st.sampled_from(["", "clip.avi"])),
    st.builds(TimeSpan, NUMBERS, NUMBERS),
    st.builds(ReferencedTimeSpan, st.sampled_from(["", "clip.avi"]), NUMBERS, NUMBERS),
)
ANNOTATIONS = st.builds(
    EmotionAnnotation,
    category=st.none() | LABELS,
    dimensions=st.dictionaries(DESCRIPTOR_NAMES, NUMBERS, max_size=3),
    appraisals=st.dictionaries(DESCRIPTOR_NAMES, NUMBERS, max_size=3),
    intensity=st.none() | NUMBERS,
    probability=st.none() | NUMBERS,
    regulation=st.dictionaries(
        st.sampled_from([*REGULATION_TYPES, "hide", "conceal"]), NUMBERS, max_size=3
    ),
    modality=st.none() | LABELS,
    scope=SCOPE_VARIANTS,
)
COMPLEXES = st.builds(ComplexEmotion, st.lists(ANNOTATIONS, max_size=4), SCOPE_VARIANTS)
# A complex emotion given as a constituent, which no document can hold.
NESTED = st.builds(
    ComplexEmotion, st.lists(ANNOTATIONS | COMPLEXES, min_size=1, max_size=3), SCOPE_VARIANTS
)
ITEMS = st.one_of(ANNOTATIONS, COMPLEXES, NESTED)
NAME_SETS = st.frozensets(st.sampled_from(["arousal", "suddenness", "pleasure", "face"]))
PROFILES = st.one_of(
    st.just(DEFAULT_PROFILE),
    st.builds(VocabularyProfile, NAME_SETS, NAME_SETS, NAME_SETS, NAME_SETS),
)


class TestValidatorMatchesReference:
    @given(item=ITEMS, profile=PROFILES)
    def test_findings_and_verdict_match_the_reference(self, item, profile):
        report = validate_annotation(item, profile)
        findings = [(f.severity, f.code, f.message, f.location) for f in report.findings]
        assert (findings, report.ok) == oracles.validate(item, profile)
