"""The contract every immutable record keeps: frozen, eq, hash, repr, copies.

The repr strings are the ones the frozen dataclasses these records replaced
printed, so logs and test output read as before.
"""

import copy
import math
import pickle

import pytest

from earlkit import earl_xml, fusion, markers, model, needs
from earlkit.earl_xml import AnnotationDocument
from earlkit.errors import PolicyError
from earlkit.fusion import FusedEstimate, FusionConfig, MarkerEvidence, TemporalState
from earlkit.markers import Lexicon, MovementDescriptor, RankedEmotion, VoiceFeatureDelta
from earlkit.model import (
    ComplexEmotion,
    EmotionAnnotation,
    Finding,
    FrozenRecordError,
    InlineText,
    Reference,
    ReferencedTimeSpan,
    TimeSpan,
    Unscoped,
    ValidationReport,
    VocabularyProfile,
    _Record,
)
from earlkit.needs import AccessPolicy, Decision, NeedProfile, PolicyRule

ANGER = EmotionAnnotation(
    category="anger", dimensions={"arousal": 0.5}, intensity=0.8, probability=0.9,
    modality="voice", scope=TimeSpan(0.0, 1.5),
)
ANGER_REPR = (
    "EmotionAnnotation(category='anger', dimensions={'arousal': 0.5}, appraisals={}, "
    "intensity=0.8, probability=0.9, regulation={}, modality='voice', "
    "scope=TimeSpan(start=0.0, end=1.5))"
)
JOY_FACE = EmotionAnnotation(category="joy", modality="face")
JOY_FACE_REPR = (
    "EmotionAnnotation(category='joy', dimensions={}, appraisals={}, intensity=None, "
    "probability=None, regulation={}, modality='face', scope=Unscoped())"
)
RULE_REPR = "PolicyRule(resource='door', behavior='aggressive', threshold=0.5)"
WARNING = Finding("warning", "NOOP_REGULATION", "m", "l")
WARNING_REPR = "Finding(severity='warning', code='NOOP_REGULATION', message='m', location='l')"

# Per record class: a factory, a record of the same class that differs in
# one compared field, the repr, and whether the record can be hashed (one
# that holds a dict, directly or inside another record, cannot).
CASES = {
    InlineText: (lambda: InlineText("hi"), InlineText("ho"), "InlineText(text='hi')", True),
    Reference: (lambda: Reference("clip.avi"), Reference("b.avi"), "Reference(uri='clip.avi')",
                True),
    TimeSpan: (lambda: TimeSpan(0.0, 1.5), TimeSpan(0.0, 2.0), "TimeSpan(start=0.0, end=1.5)",
               True),
    ReferencedTimeSpan: (
        lambda: ReferencedTimeSpan("clip.avi", 1.0, 2.0), ReferencedTimeSpan("clip.avi", 1.0, 3.0),
        "ReferencedTimeSpan(uri='clip.avi', start=1.0, end=2.0)", True,
    ),
    Unscoped: (Unscoped, None, "Unscoped()", True),
    EmotionAnnotation: (
        lambda: EmotionAnnotation(
            category="anger", dimensions={"arousal": 0.5}, intensity=0.8, probability=0.9,
            modality="voice", scope=TimeSpan(0.0, 1.5),
        ),
        EmotionAnnotation(category="anger"), ANGER_REPR, False,
    ),
    ComplexEmotion: (
        lambda: ComplexEmotion([ANGER, EmotionAnnotation(category="joy")], scope=InlineText("x")),
        ComplexEmotion([ANGER, EmotionAnnotation(category="joy")]),
        f"ComplexEmotion(constituents=({ANGER_REPR}, EmotionAnnotation(category='joy', "
        "dimensions={}, appraisals={}, intensity=None, probability=None, regulation={}, "
        "modality=None, scope=Unscoped())), scope=InlineText(text='x'))",
        False,
    ),
    VocabularyProfile: (
        lambda: VocabularyProfile(categories={"joy"}, modalities={"face"}),
        VocabularyProfile(categories={"joy"}),
        "VocabularyProfile(categories=frozenset({'joy'}), dimension_names=frozenset(), "
        "appraisal_names=frozenset(), modalities=frozenset({'face'}))",
        True,
    ),
    Finding: (
        lambda: Finding("error", "RANGE", "x=2 outside [0, 1]", "annotation.x"),
        Finding("warning", "RANGE", "x=2 outside [0, 1]", "annotation.x"),
        "Finding(severity='error', code='RANGE', message='x=2 outside [0, 1]', "
        "location='annotation.x')",
        True,
    ),
    ValidationReport: (
        lambda: ValidationReport((WARNING,)), ValidationReport(()),
        f"ValidationReport(findings=({WARNING_REPR},))", True,
    ),
    MarkerEvidence: (
        lambda: MarkerEvidence(ANGER, "language_voice", 2.0),
        MarkerEvidence(ANGER, "language_voice", 3.0),
        f"MarkerEvidence(annotation={ANGER_REPR}, source='language_voice', timestamp=2.0)",
        False,
    ),
    FusionConfig: (
        lambda: FusionConfig(decay_lambda=0.3, weight_overrides={"face": 0.5}),
        FusionConfig(decay_lambda=0.3),
        "FusionConfig(ambiguity_epsilon=0.1, constituent_threshold=0.2, decay_lambda=0.3, "
        "drop_floor=0.05, weight_overrides=mappingproxy({'face': 0.5}))",
        False,
    ),
    FusedEstimate: (
        lambda: FusedEstimate({"anger": 0.75}, "anger", False),
        FusedEstimate({"anger": 0.75}, "anger", True),
        "FusedEstimate(scores={'anger': 0.75}, dominant='anger', ambiguous=False)",
        False,
    ),
    TemporalState: (
        lambda: TemporalState({"face": MarkerEvidence(JOY_FACE, "face", 1.0)}, 1.0),
        TemporalState({"face": MarkerEvidence(JOY_FACE, "face", 1.0)}, 2.0),
        f"TemporalState(last_evidence={{'face': MarkerEvidence(annotation={JOY_FACE_REPR}, "
        "source='face', timestamp=1.0)}, clock=1.0)",
        False,
    ),
    AnnotationDocument: (
        lambda: AnnotationDocument([ANGER], warnings=[WARNING]),
        AnnotationDocument([ANGER, ANGER]),
        f"AnnotationDocument(items=({ANGER_REPR},), warnings=({WARNING_REPR},))",
        False,
    ),
    Lexicon: (
        lambda: Lexicon({"joy": {"glad"}, "fear": {"goose bumps"}}),
        Lexicon({"joy": {"glad"}}),
        "Lexicon(entries=mappingproxy({'joy': frozenset({'glad'}), "
        "'fear': frozenset({'goose bumps'})}))",
        False,
    ),
    VoiceFeatureDelta: (
        lambda: VoiceFeatureDelta(mean_f0="up", f0_contour="downward"),
        VoiceFeatureDelta(mean_f0="up"),
        "VoiceFeatureDelta(mean_f0='up', f0_range='flat', f0_variability='flat', "
        "mean_energy='flat', high_freq_energy='flat', f0_contour='downward', "
        "articulation_rate='flat')",
        True,
    ),
    RankedEmotion: (
        lambda: RankedEmotion("anger", 0.5, ("mean_f0",)), RankedEmotion("anger", 0.5),
        "RankedEmotion(label='anger', score=0.5, matched_features=('mean_f0',))", True,
    ),
    MovementDescriptor: (
        lambda: MovementDescriptor(tension="dynamic_high"), MovementDescriptor(),
        "MovementDescriptor(duration='mid', tempo_changes='neutral', stop_length='mid', "
        "spatial_extent='neutral', tension='dynamic_high')",
        True,
    ),
    NeedProfile: (
        lambda: NeedProfile((("aggressive", 0.5),), ("surprise",)),
        NeedProfile((("aggressive", 0.5),)),
        "NeedProfile(orientations=(('aggressive', 0.5),), unmapped=('surprise',))", True,
    ),
    PolicyRule: (
        lambda: PolicyRule("door", "aggressive", 0.5), PolicyRule("door", "aggressive", 0.6),
        RULE_REPR, True,
    ),
    AccessPolicy: (
        lambda: AccessPolicy((PolicyRule("door", "aggressive", 0.5),)), AccessPolicy(),
        f"AccessPolicy(rules=({RULE_REPR},))", True,
    ),
    Decision: (
        lambda: Decision("deny", "why", PolicyRule("door", "aggressive", 0.5)),
        Decision("deny", "why"),
        f"Decision(verdict='deny', rationale='why', rule={RULE_REPR})", True,
    ),
}
RECORDS = sorted(CASES, key=lambda cls: cls.__name__)
ids = [cls.__name__ for cls in RECORDS]


def test_every_record_class_is_covered():
    defined = {
        value
        for module in (model, fusion, earl_xml, markers, needs)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, _Record) and value is not _Record
    }
    assert defined | {Decision} == set(CASES)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
class TestContract:
    def test_frozen(self, cls):
        record = CASES[cls][0]()
        name = next(iter(vars(record)), "anything")
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.new_attribute = 1

    def test_equality_within_the_class(self, cls):
        make, other, _, _ = CASES[cls]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if other is not None:
            assert a != other and not a == other

    def test_never_equal_across_classes(self, cls):
        a = CASES[cls][0]()
        for other_cls in RECORDS:
            if other_cls is not cls:
                b = CASES[other_cls][0]()
                assert a != b and not a == b
                assert a.__eq__(b) is NotImplemented

    def test_hash(self, cls):
        make, _, _, hashable = CASES[cls]
        if hashable:
            assert hash(make()) == hash(make())
            assert {make(): 1}[make()] == 1
        else:
            with pytest.raises(TypeError):
                hash(make())

    def test_repr_matches_the_dataclass_repr(self, cls):
        assert repr(CASES[cls][0]()) == CASES[cls][2]


CLONES = (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_copies_are_equal(cls):
    record = CASES[cls][0]()
    for clone in CLONES:
        twin = clone(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_copied_lexicon_tags_as_the_original():
    # The marker index is no field; a copy that tags alike has rebuilt it.
    lexicon = markers.default_lexicon()
    text = "goose bumps, so happy"
    tagged = markers.tag_lexical(text, lexicon)
    assert [a.category for a, _ in tagged] == ["amazement", "joy"]
    for clone in CLONES:
        assert markers.tag_lexical(text, clone(lexicon)) == tagged


def test_copies_are_rebuilt_by_init():
    # A record whose fields fail __init__'s checks cannot be copied into being.
    evidence = MarkerEvidence(ANGER, "face", 0.0)
    evidence.__dict__["timestamp"] = math.nan
    for clone in CLONES:
        with pytest.raises(ValueError, match="timestamp=nan"):
            clone(evidence)


def test_rule_copies_are_rebuilt_by_init():
    # A rule that could never fire cannot be copied into being either.
    rule = PolicyRule("door", "aggressive", 0.5)
    rule.__dict__["threshold"] = math.nan
    for clone in CLONES:
        with pytest.raises(ValueError, match=r"threshold nan outside \[0, 1\]"):
            clone(rule)
    rule.__dict__.update(behavior="agressive", threshold=0.5)
    for clone in CLONES:
        with pytest.raises(PolicyError, match="UNKNOWN_BEHAVIOR"):
            clone(rule)


def test_same_fields_in_another_class_are_unequal():
    assert InlineText("hi") != Reference("hi")


def test_frozen_error_is_an_attribute_error():
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'text'"):
        InlineText("hi").text = "ho"
    with pytest.raises(FrozenRecordError, match="cannot delete field 'uri'"):
        del Reference("clip.avi").uri
    assert issubclass(FrozenRecordError, AttributeError)


class TestUncomparedFields:
    def test_document_bookkeeping_does_not_affect_equality_or_hash(self):
        doc = AnnotationDocument([InlineText("x")])
        noted = AnnotationDocument([InlineText("x")], warnings=[Finding("warning", "W", "m", "l")])
        assert doc == noted and hash(doc) == hash(noted)
        assert doc != AnnotationDocument()


class TestFields:
    def test_fields_are_the_init_parameters_in_order(self):
        assert EmotionAnnotation._fields == (
            "category", "dimensions", "appraisals", "intensity", "probability", "regulation",
            "modality", "scope",
        )
        assert Unscoped._fields == ()
        assert MarkerEvidence._fields == ("annotation", "source", "timestamp")
        assert AnnotationDocument._fields == ("items", "warnings")

    def test_tables_built_at_construction_are_no_fields(self):
        assert FusionConfig._fields == (
            "ambiguity_epsilon", "constituent_threshold", "decay_lambda", "drop_floor",
            "weight_overrides",
        )
        assert Lexicon._fields == ("entries",)
        assert "_single" not in repr(Lexicon({"joy": {"glad"}}))

    def test_descriptor_field_names_come_from_the_records(self):
        assert markers.VOICE_FIELDS == VoiceFeatureDelta._fields
        assert markers.MOVEMENT_FIELDS == MovementDescriptor._fields


class TestReplace:
    def test_replace_changes_one_field(self):
        cfg = FusionConfig(weight_overrides={"face": 0.5})
        changed = cfg._replace(decay_lambda=0.5)
        evidence = [
            MarkerEvidence(JOY_FACE, "face", 1.0), MarkerEvidence(ANGER, "language_voice", 1.0)
        ]
        fused = fusion.fuse_instant(evidence, changed)
        assert changed.decay_lambda == 0.5
        # face 0.5 x 1 and language_voice 1.0 x 0.9 x 0.8, over a total weight of 1.5.
        assert fused.scores == pytest.approx({"joy": 1 / 3, "anger": 0.48})
        assert changed == FusionConfig(decay_lambda=0.5, weight_overrides={"face": 0.5})
        assert cfg._replace() == cfg

    @pytest.mark.parametrize(
        "record, change",
        [
            (FusionConfig(), {"decay_lambda": math.nan}),
            (FusionConfig(), {"weight_overrides": {"telepathy": 1.0}}),
            (MarkerEvidence(ANGER, "face", 0.0), {"timestamp": math.inf}),
            (PolicyRule("door", "aggressive", 0.5), {"threshold": math.nan}),
            (VoiceFeatureDelta(), {"mean_f0": "sideways"}),
            (MovementDescriptor(), {"tension": "loose"}),
        ],
        ids=[
            "nan-lambda", "unknown-source", "inf-time", "nan-threshold", "bad-voice",
            "bad-movement",
        ],
    )
    def test_replace_reruns_the_checks(self, record, change):
        with pytest.raises(ValueError):
            record._replace(**change)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            FusionConfig()._replace(_weights={})

    def test_replace_coerces_like_init(self):
        group = ComplexEmotion((ANGER, ANGER))._replace(constituents=[ANGER])
        assert group.constituents == (ANGER,)


def test_profile_is_a_cache_key():
    # earl_xml memoises its attribute table per profile.
    profiles = [VocabularyProfile(categories=c) for c in ({"joy"}, {"joy"}, {"fear"})]
    assert len(set(profiles)) == 2
    assert earl_xml._attribute_kinds(profiles[0]) is earl_xml._attribute_kinds(profiles[1])
