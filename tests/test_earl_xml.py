"""Parser, serializer and profile file tests."""

import math
import random
from xml.parsers import expat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earlkit import earl_xml
from earlkit.earl_xml import (
    AnnotationDocument,
    format_number,
    load_profile,
    parse_document,
    serialize_document,
)
from earlkit.errors import ParseError
from earlkit.model import (
    CLASSIC_APPRAISAL_NAMES,
    CLASSIC_DIMENSION_NAMES,
    FIELD_ATTRIBUTES,
    REGULATION_TYPES,
    UNSCOPED,
    ComplexEmotion,
    EmotionAnnotation,
    InlineText,
    Reference,
    ReferencedTimeSpan,
    TimeSpan,
    VocabularyProfile,
    validate_annotation,
)

import generators
import oracles
from support import FIXTURES


class TestParse:
    def test_inline_text(self):
        doc = parse_document(b'<emotion category="pleasure">Hello!</emotion>')
        (a,) = doc.items
        assert a.category == "pleasure"
        assert a.scope == InlineText("Hello!")

    def test_standoff_reference(self):
        doc = parse_document(b'<emotion xlink:href="face12.jpg" category="pleasure"/>')
        assert doc.items[0].scope == Reference("face12.jpg")

    def test_href_without_prefix(self):
        doc = parse_document(b'<emotion href="face12.jpg" category="pleasure"/>')
        assert doc.items[0].scope == Reference("face12.jpg")

    def test_time_span(self):
        doc = parse_document(b'<emotion start="0.4" end="1.3" category="pleasure"/>')
        assert doc.items[0].scope == TimeSpan(0.4, 1.3)

    def test_masking_complex(self):
        doc = parse_document((FIXTURES / "earl" / "fig4.xml").read_bytes())
        (c,) = doc.items
        assert isinstance(c, ComplexEmotion)
        assert c.scope == Reference("face12.jpg")
        first, second = c.constituents
        assert (first.category, first.regulation) == ("pleasure", {"simulate": 0.8})
        assert (second.category, second.regulation) == ("annoyance", {"suppress": 0.5})
        assert not doc.warnings

    def test_profile_drives_attribute_roles(self):
        profile = VocabularyProfile(
            dimension_names=frozenset({"glow"}), appraisal_names=frozenset({"spark"})
        )
        doc = parse_document(b'<emotion glow="0.5" spark="-0.25"/>', profile)
        (a,) = doc.items
        assert a.dimensions == {"glow": 0.5}
        assert a.appraisals == {"spark": -0.25}
        assert not doc.warnings

    def test_unknown_numeric_attribute_kept_with_warning(self):
        doc = parse_document(b'<emotion category="x" wobble="0.5"/>')
        assert doc.items[0].appraisals == {"wobble": 0.5}
        assert [w.code for w in doc.warnings] == ["UNKNOWN_ATTRIBUTE"]

    def test_unknown_text_attribute_warned_not_silently_dropped(self):
        doc = parse_document(b'<emotion category="x" annotator="sam"/>')
        (w,) = doc.warnings
        assert w.code == "UNKNOWN_ATTRIBUTE"
        assert "annotator" in w.message

    def test_hide_is_read_as_suppress(self):
        doc = parse_document(b'<emotion category="x" hide="0.4"/>')
        assert doc.items[0].regulation == {"suppress": 0.4}
        assert [w.code for w in doc.warnings] == ["REGULATION_ALIAS"]

    def test_malformed_xml(self):
        with pytest.raises(ParseError) as exc:
            parse_document(b"<emotion category='x'")
        assert exc.value.code == "MALFORMED_XML"

    def test_lone_surrogate_is_malformed_xml(self):
        # As left by decoding with surrogateescape; it has no UTF-8 form.
        with pytest.raises(ParseError) as exc:
            parse_document('<emotion category="a\udcffb"/>')
        assert (exc.value.code, exc.value.message) == (
            "MALFORMED_XML", "U+DCFF at index 20 is not encodable as UTF-8"
        )

    def test_str_is_read_as_text_whatever_encoding_it_declares(self):
        data = '<?xml version="1.0" encoding="latin-1"?><emotion category="zärtlich"/>'
        assert parse_document(data).items[0].category == "zärtlich"
        assert parse_document(data.encode("latin-1")).items[0].category == "zärtlich"

    @pytest.mark.parametrize(
        "data, first, second",
        [
            (b'<emotion category="a" href="one.wav" xlink:href="two.wav"/>', "href", "xlink:href"),
            (b'<emotion category="a" xlink:href="one.wav" href="two.wav"/>', "xlink:href", "href"),
            (b'<emotion category="a" suppress="0.2" hide="0.5"/>', "suppress", "hide"),
            (b'<emotion category="a" hide="0.5" suppress="0.2"/>', "hide", "suppress"),
            (
                b'<complex-emotion href="one.wav" xlink:href="two.wav">'
                b'<emotion category="a"/></complex-emotion>',
                "href",
                "xlink:href",
            ),
        ],
        ids=["href-first", "xlink-first", "suppress-first", "hide-first", "complex"],
    )
    def test_two_attributes_for_one_value_rejected(self, data, first, second):
        # Keeping one would drop the other silently, by attribute order.
        with pytest.raises(ParseError) as exc:
            parse_document(data)
        assert (exc.value.code, exc.value.message) == (
            "DUPLICATE_ATTRIBUTE",
            f"attributes {first!r} and {second!r} give one value; neither is kept",
        )

    @pytest.mark.parametrize("first, second", [("suppress", "hide"), ("hide", "suppress")])
    def test_regulation_pair_on_complex_is_two_drops(self, first, second):
        # Regulation is no field of a complex emotion: each is dropped on its own.
        data = (
            f'<complex-emotion {first}="0.2" {second}="0.5">'
            '<emotion category="a"/></complex-emotion>'
        )
        doc = parse_document(data)
        assert [(w.code, w.message, w.location) for w in doc.warnings] == [
            ("UNKNOWN_ATTRIBUTE",
             f"attribute {name}={raw!r} not recognized on complex-emotion; dropped", "item[0]")
            for name, raw in [(first, "0.2"), (second, "0.5")]
        ]
        plain = parse_document('<complex-emotion><emotion category="a"/></complex-emotion>')
        assert doc.items == plain.items

    def test_unparseable_number(self):
        with pytest.raises(ParseError) as exc:
            parse_document(b'<emotion category="x" intensity="high"/>')
        assert exc.value.code == "UNPARSEABLE_NUMBER"

    def test_start_after_end(self):
        with pytest.raises(ParseError) as exc:
            parse_document(b'<emotion category="x" start="2.0" end="1.0"/>')
        assert exc.value.code == "START_AFTER_END"

    def test_start_equal_end_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_document(b'<emotion category="x" start="1.0" end="1.0"/>')
        assert exc.value.code == "START_AFTER_END"

    def test_nested_complex_rejected(self):
        data = (
            b"<complex-emotion><complex-emotion>"
            b'<emotion category="x"/></complex-emotion></complex-emotion>'
        )
        with pytest.raises(ParseError) as exc:
            parse_document(data)
        assert exc.value.code == "NESTED_COMPLEX"

    def test_complex_under_an_unrecognized_element_in_a_complex_is_nested(self):
        data = (
            b"<earl><complex-emotion><note><complex-emotion>"
            b'<emotion category="x"/></complex-emotion></note></complex-emotion></earl>'
        )
        with pytest.raises(ParseError) as exc:
            parse_document(data)
        assert exc.value.code == "NESTED_COMPLEX"

    def test_complex_under_an_unrecognized_element_at_top_level_is_dropped(self):
        data = (
            b'<earl><note><complex-emotion><emotion category="x"/>'
            b'<emotion category="y"/></complex-emotion></note><emotion category="z"/></earl>'
        )
        doc = parse_document(data)
        assert [item.category for item in doc.items] == ["z"]
        assert [(w.code, w.location) for w in doc.warnings] == [
            ("UNRECOGNIZED_ELEMENT", "document")
        ] * 4

    def test_lone_start_warns_and_is_dropped(self):
        doc = parse_document(b'<emotion category="x" start="1.0"/>')
        assert doc.items[0].scope == UNSCOPED
        assert [w.code for w in doc.warnings] == ["INCOMPLETE_TIMESPAN"]

    def test_unrecognized_element_warns(self):
        doc = parse_document(b'<earl><note/><emotion category="x"/></earl>')
        assert len(doc.items) == 1
        assert [w.code for w in doc.warnings] == ["UNRECOGNIZED_ELEMENT"]

    def test_no_attribute_is_lost(self):
        data = (
            b'<emotion category="joy" arousal="0.1" custom="0.2" note="hi"'
            b' intensity="0.5" probability="0.5" simulate="0.3" modality="face"'
            b' xlink:href="f.jpg"/>'
        )
        doc = parse_document(data)
        (a,) = doc.items
        assert a.category == "joy"
        assert a.dimensions == {"arousal": 0.1}
        assert a.appraisals == {"custom": 0.2}
        assert (a.intensity, a.probability) == (0.5, 0.5)
        assert a.regulation == {"simulate": 0.3}
        assert a.modality == "face"
        assert a.scope == Reference("f.jpg")
        warned = " ".join(w.message for w in doc.warnings)
        assert "custom" in warned and "note" in warned


# Scopes the writer wrote although they do not read back: a span the reader
# refuses (START_AFTER_END) and text the reader takes for layout.
UNWRITABLE_SCOPES = {
    "end-before-start": TimeSpan(2.0, 1.0),
    "end-at-start": TimeSpan(1.0, 1.0),
    "nan-start": TimeSpan(math.nan, 1.0),
    "clip-end-before-start": ReferencedTimeSpan("a", 3.0, 1.0),
    "empty-text": InlineText(""),
    "space-text": InlineText("   "),
    "newline-text": InlineText("\n"),
}


def _scoped(scope, where):
    """An item with ``scope`` on an emotion, a complex emotion or its first constituent."""
    if where == "emotion":
        return EmotionAnnotation("joy", scope=scope)
    if where == "complex":
        return ComplexEmotion((EmotionAnnotation("joy"), EmotionAnnotation("fear")), scope)
    return ComplexEmotion((EmotionAnnotation("joy", scope=scope), EmotionAnnotation("fear")))


class TestSerialize:
    def test_dimension_values_preserved(self):
        doc = parse_document((FIXTURES / "earl" / "fig1.xml").read_bytes())
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert again.items[0].dimensions == {"arousal": -0.2, "valence": 0.5, "power": 0.2}

    def test_empty_document_is_empty_root(self):
        assert serialize_document(AnnotationDocument()) == (
            b'<?xml version="1.0" encoding="UTF-8"?>\n<earl/>\n'
        )

    def test_numbers_use_minimal_digits(self):
        a = EmotionAnnotation(category="x", intensity=0.50)
        data = serialize_document(AnnotationDocument(items=(a,)))
        assert b'intensity="0.5"' in data
        again = parse_document(data)
        assert again.items[0].intensity == 0.5

    def test_canonical_attribute_order(self):
        a = EmotionAnnotation(
            category="joy",
            dimensions={"valence": 0.5, "arousal": -0.2},
            appraisals={"suddenness": 0.1},
            intensity=1.0,
            probability=0.25,
            regulation={"suppress": 0.5, "amplify": 0.2},
            modality="face",
            scope=ReferencedTimeSpan("clip.mp4", 1.0, 2.5),
        )
        data = serialize_document(AnnotationDocument(items=(a,)))
        assert data.decode() == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            "<earl>\n"
            '  <emotion category="joy" arousal="-0.2" suddenness="0.1" valence="0.5"'
            ' intensity="1" probability="0.25" amplify="0.2" suppress="0.5"'
            ' modality="face" xlink:href="clip.mp4" start="1" end="2.5"/>\n'
            "</earl>\n"
        )

    def test_text_escaping_round_trips(self):
        a = EmotionAnnotation(category="x", scope=InlineText('a <b> & "c" \' d'))
        again = parse_document(serialize_document(AnnotationDocument(items=(a,))))
        assert again.items[0].scope == a.scope

    @given(st.text())
    def test_escaping_matches_saxutils(self, value):
        # oracles.serialize escapes through xml.sax.saxutils; the writer
        # through its attribute memo and its text table.
        a = EmotionAnnotation(category=value, scope=InlineText(value))
        attr, text = earl_xml._escaped_attr(value), value.translate(earl_xml._TEXT_TABLE)
        assert oracles.serialize(AnnotationDocument(items=(a,))).decode() == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<earl>\n  <emotion category="{attr}">{text}</emotion>\n</earl>\n'
        )

    @pytest.mark.parametrize(
        "category, text, point",
        [
            ("joy", "so happy\x01 today", "U+0001"),
            ("ang\x01er", "x", "U+0001"),
            ("joy", "so happy \udcff today", "U+DCFF"),  # a byte that was not UTF-8
            ("joy", "a\ufffeb", "U+FFFE"),
            ("joy\x1f", "\uffff", "U+001F"),
        ],
        ids=["text-control", "attribute-control", "surrogate", "u-fffe", "first-of-two"],
    )
    def test_character_xml_cannot_hold_is_refused(self, category, text, point):
        a = EmotionAnnotation(category=category, scope=InlineText(text))
        with pytest.raises(ParseError) as exc:
            serialize_document(AnnotationDocument(items=(a,)))
        assert exc.value.code == "UNSERIALIZABLE_CHAR"
        assert exc.value.message.startswith(point)

    # exclude_categories=() lets in the lone surrogates that text() leaves out.
    @given(st.text(st.characters(exclude_categories=())))
    @example("\t\n\r\x7f\x85")
    @example("\x00")
    @example("\udcff")
    @example("\uffff")
    @example("")
    @example(" \t\r\n")
    @example(" a ")
    def test_output_always_reads_back(self, value):
        a = EmotionAnnotation(category=value, scope=InlineText(value))
        doc = AnnotationDocument(items=(a,))
        unwritable = not oracles.writable(value)
        blank = not value.strip(" \t\r\n")  # read back as no scope
        try:
            data = serialize_document(doc)
        except ParseError as exc:
            assert exc.code == ("UNSERIALIZABLE_SCOPE" if blank else "UNSERIALIZABLE_CHAR")
            assert blank or unwritable
        else:
            assert not (blank or unwritable)
            assert parse_document(data).items == (a,)

    @pytest.mark.parametrize("where", ["emotion", "complex", "constituent"])
    @pytest.mark.parametrize("scope", UNWRITABLE_SCOPES.values(), ids=UNWRITABLE_SCOPES.keys())
    def test_scope_that_would_not_read_back_is_refused(self, scope, where):
        doc = AnnotationDocument(items=(_scoped(scope, where),))
        with pytest.raises(ParseError) as exc:
            serialize_document(doc)
        assert exc.value.code == "UNSERIALIZABLE_SCOPE"
        if isinstance(scope, InlineText):
            assert exc.value.message == "inline text is blank"
        else:
            message = f"time span end {scope.end} must exceed start {scope.start}"
            assert exc.value.message == message
        # The bytes written unchecked do not read back.
        try:
            back = parse_document(oracles.serialize(doc))
        except ParseError as refused:
            assert refused.code == "START_AFTER_END"
        else:
            assert back != doc

    @pytest.mark.parametrize("where", ["emotion", "complex", "constituent"])
    def test_text_with_space_around_it_reads_back(self, where):
        doc = AnnotationDocument(items=(_scoped(InlineText(" a "), where),))
        assert parse_document(serialize_document(doc)) == doc

    def test_nested_complex_is_refused_as_the_reader_refuses_it(self):
        inner = ComplexEmotion((EmotionAnnotation("joy"), EmotionAnnotation("fear")))
        doc = AnnotationDocument(items=(ComplexEmotion((inner, EmotionAnnotation("worry"))),))
        with pytest.raises(ParseError) as written:
            serialize_document(doc)
        with pytest.raises(ParseError) as read:
            parse_document(b"<complex-emotion><complex-emotion/></complex-emotion>")
        assert (written.value.code, written.value.message) == (read.value.code, read.value.message)
        assert written.value.code == "NESTED_COMPLEX"

    def test_format_number(self):
        assert format_number(1.0) == "1"
        assert format_number(0.50) == "0.5"
        assert format_number(-0.2) == "-0.2"
        assert format_number(0.9405233862724746) == "0.9405233862724746"


# Names the reader gives a meaning of its own, and names it routes by default.
SPECIAL_NAMES = sorted(
    {"category", "modality", "intensity", "probability", "start", "end", "href", "xlink:href",
     "hide", "xmlns", *REGULATION_TYPES, *CLASSIC_DIMENSION_NAMES, *CLASSIC_APPRAISAL_NAMES}
)
NAMES = st.one_of(
    st.sampled_from(SPECIAL_NAMES),
    st.from_regex(r"[A-Za-z_:][A-Za-z0-9_.:-]{0,5}", fullmatch=True),
    st.text(st.characters(exclude_categories=()), max_size=4),
)
VALUES = st.floats(-1.0, 1.0)
SCOPES = st.sampled_from([UNSCOPED, Reference("a.jpg"), TimeSpan(1.0, 2.0)])

# The six names the writer wrote unchecked, and what went wrong on read-back.
UNWRITABLE = {
    "not-an-xml-name": ({'a"b': 0.5}, {}, {}, "descriptor 'a\"b' is no XML name"),
    "read-as-probability": ({"probability": 0.5}, {}, {}, "descriptor 'probability' is no"),
    "read-as-suppress": ({"hide": 0.5}, {}, {}, "descriptor 'hide' is no XML name"),
    "duplicate-attribute": (
        {"suppress": 0.5}, {}, {"suppress": 0.5}, "descriptor 'suppress' is no XML name",
    ),
    "dimension-and-appraisal": (
        {"x": 0.1}, {"x": 0.2}, {}, "descriptor 'x' is both a dimension and an appraisal",
    ),
    "regulation-not-a-type": ({}, {}, {"x y": 0.5}, "regulation 'x y' is not one of"),
}


def _reads_back(doc: AnnotationDocument, data: bytes) -> bool:
    # Under a profile listing the document's own descriptor names.
    (a,) = doc.items
    profile = VocabularyProfile(dimension_names=a.dimensions, appraisal_names=a.appraisals)
    try:
        return parse_document(data, profile) == doc
    except ParseError:
        return False


def _one_attribute(name: str) -> bool:
    """Whether expat reads ``name="0"`` as exactly that one attribute."""
    attributes = []
    parser = expat.ParserCreate()
    parser.StartElementHandler = lambda _tag, attrs: attributes.append(attrs)
    try:
        parser.Parse(f'<e {name}="0"/>', True)
    except (expat.ExpatError, UnicodeEncodeError):
        return False
    return attributes == [{name: "0"}]


class TestNames:
    @pytest.mark.parametrize("case", UNWRITABLE.values(), ids=UNWRITABLE.keys())
    def test_names_that_would_not_read_back_are_refused(self, case):
        dimensions, appraisals, regulation, message = case
        a = EmotionAnnotation("joy", dimensions, appraisals, regulation=regulation)
        for _ in range(2):  # a refused name is not remembered as writable
            with pytest.raises(ParseError) as exc:
                serialize_document(AnnotationDocument(items=(a,)))
            assert exc.value.code == "UNSERIALIZABLE_NAME"
            assert exc.value.message.startswith(message)

    @pytest.mark.parametrize("kind", ["dimension", "appraisal"])
    @pytest.mark.parametrize("name", [
        "category", "modality", "intensity", "probability", "start", "end",
        "href", "xlink:href", "hide", *REGULATION_TYPES,
    ])
    def test_names_the_reader_routes_elsewhere_are_refused(self, name, kind):
        descriptors = {name: 0.5}
        a = (EmotionAnnotation("joy", dimensions=descriptors) if kind == "dimension"
             else EmotionAnnotation("joy", appraisals=descriptors))
        with pytest.raises(ParseError) as exc:
            serialize_document(AnnotationDocument(items=(a,)))
        assert (exc.value.code, exc.value.message) == (
            "UNSERIALIZABLE_NAME",
            f"descriptor {name!r} is no XML name or reads back as another field",
        )

    def test_a_refused_constituent_refuses_the_document(self):
        bad = EmotionAnnotation("joy", {"intensity": 0.5})
        doc = AnnotationDocument(items=(ComplexEmotion((EmotionAnnotation("fear"), bad)),))
        with pytest.raises(ParseError) as exc:
            serialize_document(doc)
        assert exc.value.code == "UNSERIALIZABLE_NAME"

    @given(
        st.dictionaries(NAMES, VALUES, max_size=3),
        st.dictionaries(NAMES, VALUES, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(REGULATION_TYPES), NAMES), VALUES, max_size=2),
        SCOPES,
    )
    @settings(max_examples=300)
    @example(*UNWRITABLE["not-an-xml-name"][:3], UNSCOPED)
    @example(*UNWRITABLE["read-as-probability"][:3], UNSCOPED)
    @example(*UNWRITABLE["read-as-suppress"][:3], UNSCOPED)
    @example(*UNWRITABLE["duplicate-attribute"][:3], UNSCOPED)
    @example(*UNWRITABLE["dimension-and-appraisal"][:3], UNSCOPED)
    @example(*UNWRITABLE["regulation-not-a-type"][:3], UNSCOPED)
    @example({"start": 0.5}, {}, {}, TimeSpan(1.0, 2.0))
    @example({}, {"href": 0.5}, {}, UNSCOPED)
    @example({"arousal": 0.5}, {"valence": 0.5, "xmlns": 0.25}, {"amplify": 0.5}, UNSCOPED)
    def test_written_names_read_back(self, dimensions, appraisals, regulation, scope):
        a = EmotionAnnotation("joy", dimensions, appraisals, regulation=regulation, scope=scope)
        doc = AnnotationDocument(items=(a,))
        try:
            before = oracles.serialize(doc)  # the writer as it was, names unchecked
        except UnicodeEncodeError:  # a lone surrogate
            before = b""
        try:
            data = serialize_document(doc)
        except ParseError as exc:
            # Refused exactly when the unchecked bytes would not read back.
            assert exc.code == "UNSERIALIZABLE_NAME"
            assert not _reads_back(doc, before)
        else:
            assert _reads_back(doc, data)
            assert data == before

    def test_every_field_name_has_a_slot(self):
        assert earl_xml._FIELD_SLOTS.keys() == FIELD_ATTRIBUTES

    @given(st.dictionaries(NAMES, VALUES, max_size=3), st.dictionaries(NAMES, VALUES, max_size=3))
    @settings(max_examples=300)
    @example(*UNWRITABLE["not-an-xml-name"][:2])
    @example(*UNWRITABLE["read-as-probability"][:2])
    @example(*UNWRITABLE["dimension-and-appraisal"][:2])
    @example({"x": 0.1}, {"hide": 0.2})
    def test_validator_agrees_with_the_writer(self, dimensions, appraisals):
        a = EmotionAnnotation("joy", dimensions, appraisals)
        reported = [f for f in validate_annotation(a).findings if f.code == "UNSERIALIZABLE_NAME"]
        assert all(f.severity == "error" for f in reported)
        try:
            serialize_document(AnnotationDocument(items=(a,)))
        except ParseError as exc:
            assert exc.code == "UNSERIALIZABLE_NAME"
            # What the validator leaves to the writer: a name expat reads as
            # something other than one attribute.
            assert reported or not all(map(_one_attribute, {*dimensions, *appraisals}))
        else:
            assert reported == []

    def test_memo_of_writable_names_is_bounded(self):
        memo = earl_xml._WRITABLE_NAMES
        try:
            for n in range(4200):
                a = EmotionAnnotation("joy", {f"d{n}": 0.5})
                serialize_document(AnnotationDocument(items=(a,)))
            assert len(memo) == 4096
            # Past the bound, each name is still checked.
            bad = EmotionAnnotation("joy", {"end": 1.0})
            with pytest.raises(ParseError):
                serialize_document(AnnotationDocument(items=(bad,)))
        finally:
            memo.clear()


# Hand-built items for the writer's round trip.  Descriptor names are drawn as
# generators.py draws them, for the reading profile decides a descriptor's
# kind: dimensions from the classic ones, appraisals from outside those and the
# field names (an appraisal named "arousal" reads back as a dimension).  No
# written value is NaN, which equals nothing; a span may be, as no such span
# is written.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
SPAN_VALUES = st.sampled_from([0.0, 1.0, 2.0, -1.0, math.nan, math.inf]) | st.floats()
# Half the spans in order, so that more items reach the reader.
SPANS = st.tuples(SPAN_VALUES, SPAN_VALUES) | st.tuples(SPAN_VALUES, SPAN_VALUES).map(sorted)
WRITTEN_VALUES = st.floats(allow_nan=False)
FUZZ_SCOPES = st.one_of(
    st.just(UNSCOPED),
    st.builds(InlineText, st.sampled_from(["", " \t\r\n", " a "]) | ANY_TEXT),
    st.builds(Reference, ANY_TEXT),
    SPANS.map(lambda span: TimeSpan(*span)),
    st.tuples(ANY_TEXT, SPANS).map(lambda drawn: ReferencedTimeSpan(drawn[0], *drawn[1])),
)
FUZZ_APPRAISAL_NAMES = (st.sampled_from(generators.APPRAISALS) | NAMES).filter(
    lambda name: name not in CLASSIC_DIMENSION_NAMES and name not in FIELD_ATTRIBUTES
)
FUZZ_ANNOTATIONS = st.builds(
    EmotionAnnotation,
    category=st.none() | st.sampled_from(generators.CATEGORIES) | ANY_TEXT,
    dimensions=st.dictionaries(st.sampled_from(sorted(CLASSIC_DIMENSION_NAMES)), WRITTEN_VALUES),
    appraisals=st.dictionaries(FUZZ_APPRAISAL_NAMES, WRITTEN_VALUES, max_size=3),
    intensity=st.none() | WRITTEN_VALUES,
    probability=st.none() | WRITTEN_VALUES,
    regulation=st.dictionaries(st.sampled_from(REGULATION_TYPES), WRITTEN_VALUES, max_size=2),
    modality=st.none() | st.sampled_from(generators.MODALITIES) | ANY_TEXT,
    scope=FUZZ_SCOPES,
)
FUZZ_COMPLEXES = st.builds(ComplexEmotion, st.lists(FUZZ_ANNOTATIONS, max_size=3), FUZZ_SCOPES)
FUZZ_ITEMS = st.one_of(
    FUZZ_ANNOTATIONS,
    FUZZ_COMPLEXES,
    # Sometimes a complex emotion given as a constituent.
    st.builds(ComplexEmotion, st.lists(FUZZ_ANNOTATIONS | FUZZ_COMPLEXES, max_size=3),
              FUZZ_SCOPES),
)
REFUSALS = {"UNSERIALIZABLE_CHAR", "UNSERIALIZABLE_NAME", "UNSERIALIZABLE_SCOPE", "NESTED_COMPLEX"}


class TestRoundTrip:
    @settings(max_examples=300)
    @given(st.lists(FUZZ_ITEMS, max_size=2))
    @example([_scoped(TimeSpan(2.0, 1.0), "constituent")])
    @example([_scoped(InlineText("  "), "complex")])
    def test_written_output_reads_back_or_is_refused(self, items):
        doc = AnnotationDocument(items=tuple(items))
        try:
            data = serialize_document(doc)
        except ParseError as exc:
            assert exc.code in REFUSALS
        else:
            assert parse_document(data) == doc

    def test_random_documents_survive(self):
        rng = random.Random(7)
        for _ in range(200):
            doc = generators.document(rng)
            assert parse_document(serialize_document(doc)) == doc

    def test_serialization_is_stable(self):
        rng = random.Random(11)
        for _ in range(50):
            doc = generators.document(rng)
            once = serialize_document(doc)
            assert serialize_document(parse_document(once)) == once

    def test_invalid_documents_rejected(self):
        from earlkit.model import validate_annotation

        rng = random.Random(13)
        for _ in range(100):
            data, expected = generators.invalid_case(rng)
            if expected == "START_AFTER_END":
                with pytest.raises(ParseError) as exc:
                    parse_document(data)
                assert exc.value.code == "START_AFTER_END"
            else:
                doc = parse_document(data)
                (item,) = doc.items
                report = validate_annotation(item)
                assert not report.ok
                assert expected in {f.code for f in report.errors()}


# Each form of DOCTYPE, with what it would do to the documents below: a
# default probability, an entity it declares or, as expat cannot read the DTD
# file, an entity read as nothing.
DOCTYPES = {
    "internal": '<!DOCTYPE earl [<!ATTLIST emotion probability CDATA "0.9">'
                '<!ENTITY anger "anger">]>',
    "system": '<!DOCTYPE earl SYSTEM "earl.dtd">',
    "public": '<!DOCTYPE earl PUBLIC "-//earlkit//DTD EARL//EN" "earl.dtd">',
}


class TestProfileFile:
    def test_load(self):
        profile = load_profile((FIXTURES / "profiles" / "basic.xml").read_bytes())
        assert "pleasure" in profile.categories
        assert profile.dimension_names == {"arousal", "valence", "power"}
        assert "face" in profile.modalities

    def test_malformed(self):
        with pytest.raises(ParseError) as exc:
            load_profile(b"<profile>")
        assert exc.value.code == "MALFORMED_XML"

    def test_lone_surrogate_is_malformed_xml(self):
        with pytest.raises(ParseError) as exc:
            load_profile("<profile><category>a\udcffb</category></profile>")
        assert (exc.value.code, exc.value.message) == (
            "MALFORMED_XML", "profile: U+DCFF at index 20 is not encodable as UTF-8"
        )

    def test_str_is_read_as_text_whatever_encoding_it_declares(self):
        data = (
            '<?xml version="1.0" encoding="latin-1"?>'
            "<profile><category>zärtlich</category></profile>"
        )
        assert load_profile(data).categories == {"zärtlich"}

    @pytest.mark.parametrize(
        "data",
        [
            b'<profile xmlns="urn:x"><category>joy</category></profile>',
            b'<p:profile xmlns:p="urn:x"><p:category>joy</p:category></p:profile>',
            b"<profile><x:category>joy</x:category></profile>",
        ],
    )
    def test_namespaced_profile_still_restricts(self, data):
        # Read as a namespaced tree, the first two had children named
        # "{urn:x}category" and accepted every category.
        profile = load_profile(data)
        assert profile.categories == {"joy"}
        (item,) = parse_document(b'<emotion category="rage"/>', profile).items
        assert not validate_annotation(item, profile).ok

    @pytest.mark.parametrize(
        "data, tag",
        [
            (b"<profile><categories>joy</categories></profile>", "categories"),
            (b'<profile xmlns:p="urn:x"><p:catgory>joy</p:catgory></profile>', "catgory"),
        ],
    )
    def test_profile_of_only_unknown_children_rejected(self, data, tag):
        # Read as a profile, the typo would be the all-wildcard profile.
        with pytest.raises(ParseError) as exc:
            load_profile(data)
        assert exc.value.code == "UNKNOWN_PROFILE_ELEMENT"
        assert f"<{tag}>" in exc.value.message

    @pytest.mark.parametrize("data", [b"<profile/>", b"<profile>  </profile>"])
    def test_empty_profile_is_the_wildcard_profile(self, data):
        assert load_profile(data) == VocabularyProfile()

    def test_label_is_leading_text_of_direct_children(self):
        profile = load_profile(
            b"<profile><category> a <b>x</b>tail</category>"
            b"<category>n<group><category>nested</category></group></category>"
            b"<category>c<!-- note -->d</category></profile>"
        )
        assert profile.categories == {"a", "n", "cd"}

    @pytest.mark.parametrize("data, tag", [
        (b"<profile><category> </category></profile>", "category"),
        (b"<profile><category>joy</category><dimension>  </dimension></profile>", "dimension"),
        (b"<profile><category><b>joy</b></category></profile>", "category"),
        (b"<profile><modality><!-- face --></modality></profile>", "modality"),
        (b"<profile><appraisal/></profile>", "appraisal"),
    ])
    def test_blank_entry_rejected(self, data, tag):
        # Skipped, a blank entry would leave its slot a wildcard.
        with pytest.raises(ParseError) as exc:
            load_profile(data)
        assert (exc.value.code, exc.value.message) == (
            "EMPTY_PROFILE_ENTRY", f"profile: <{tag}> entry is empty"
        )

    @given(
        entries=st.lists(st.tuples(
            st.sampled_from(["category", "dimension", "modality"]),
            st.sampled_from(["anger", " rage ", "", " ", "&anger;", "<b>joy</b>", "joy<b>x</b>"]),
        ), max_size=4),
        head=st.sampled_from(["", DOCTYPES["system"], DOCTYPES["internal"]]),
        category=st.sampled_from(["anger", "joy", "rage", "sadness", ""]),
    )
    def test_a_profile_allows_only_the_categories_it_lists(self, entries, head, category):
        data = head + "<profile>" + "".join(f"<{t}>{e}</{t}>" for t, e in entries) + "</profile>"
        # What the file lists: each category element's text before any markup.
        listed = {e.partition("<")[0].strip() for t, e in entries if t == "category"}
        try:
            profile = load_profile(data)
        except ParseError:
            return
        if profile.allows_category(category):
            assert not listed or category in listed


class TestDoctype:
    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    @pytest.mark.parametrize("form", DOCTYPES)
    @pytest.mark.parametrize("read, body, context", [
        (parse_document, '<earl><emotion category="&anger;"/></earl>', ""),
        (load_profile, "<profile><category>&anger;</category></profile>", "profile: "),
    ], ids=["earl", "profile"])
    def test_both_readers_refuse_a_doctype(self, read, body, context, form, encode):
        with pytest.raises(ParseError) as exc:
            read(encode(DOCTYPES[form] + body))
        assert (exc.value.code, exc.value.message) == (
            "DTD_NOT_ALLOWED", f"{context}a DOCTYPE declaration is not allowed"
        )


class TestParseEdges:
    def test_accepts_str_input(self):
        doc = parse_document('<emotion category="pleasure"/>')
        assert doc.items[0].category == "pleasure"

    def test_empty_container(self):
        assert parse_document(b"<earl/>").items == ()

    def test_stray_text_in_container_warns(self):
        doc = parse_document(b'<earl>lost words<emotion category="x"/></earl>')
        assert len(doc.items) == 1
        assert [w.code for w in doc.warnings] == ["STRAY_TEXT"]

    def test_text_plus_reference_prefers_reference(self):
        doc = parse_document(b'<emotion category="x" xlink:href="f.jpg">hi</emotion>')
        assert doc.items[0].scope == Reference("f.jpg")
        assert [w.code for w in doc.warnings] == ["AMBIGUOUS_SCOPE"]

    def test_complex_can_carry_time_span(self):
        data = (
            b'<complex-emotion start="1" end="2">'
            b'<emotion category="a"/><emotion category="b"/></complex-emotion>'
        )
        doc = parse_document(data)
        assert doc.items[0].scope == TimeSpan(1.0, 2.0)
        assert parse_document(serialize_document(doc)) == doc

    def test_unknown_attribute_on_complex_warned(self):
        data = (
            b'<complex-emotion category="x">'
            b'<emotion category="a"/><emotion category="b"/></complex-emotion>'
        )
        doc = parse_document(data)
        assert [w.code for w in doc.warnings] == ["UNKNOWN_ATTRIBUTE"]

    @pytest.mark.parametrize(
        "name", sorted(FIELD_ATTRIBUTES - {"href", "xlink:href", "start", "end"})
    )
    def test_field_attribute_on_complex_warned_and_dropped(self, name):
        # Only the scope attributes are fields of a complex emotion.
        constituents = '<emotion category="a"/><emotion category="b"/>'
        doc = parse_document(f'<complex-emotion {name}="0.5">{constituents}</complex-emotion>')
        message = f"attribute {name}='0.5' not recognized on complex-emotion; dropped"
        assert [(w.code, w.message, w.location) for w in doc.warnings] == [
            ("UNKNOWN_ATTRIBUTE", message, "item[0]")
        ]
        plain = parse_document(f"<complex-emotion>{constituents}</complex-emotion>")
        assert doc.items == plain.items

    def test_emotion_inside_emotion_ignored_with_warning(self):
        doc = parse_document(b'<emotion category="x"><emotion category="y"/></emotion>')
        (a,) = doc.items
        assert a.category == "x"
        assert [w.code for w in doc.warnings] == ["UNRECOGNIZED_ELEMENT"]

    @pytest.mark.parametrize(
        "data, warned",
        [
            # Ignored elements stay ignored, whatever they are named.
            (
                b"<earl><note><complex-emotion><complex-emotion/></complex-emotion></note></earl>",
                [("note", "document"), ("complex-emotion", "document"),
                 ("complex-emotion", "document")],
            ),
            (
                b'<emotion category="a"><complex-emotion><complex-emotion/></complex-emotion>'
                b"</emotion>",
                [("complex-emotion", "item[0]"), ("complex-emotion", "item[0]")],
            ),
            # An ignored element is placed at the item, or constituent, around it.
            (
                b'<earl><emotion category="a"><x><y/></x></emotion><complex-emotion>'
                b'<emotion category="b"><note/></emotion><aside/></complex-emotion></earl>',
                [("x", "item[0]"), ("y", "item[0]"), ("note", "item[1].constituent[0]"),
                 ("aside", "item[1]")],
            ),
        ],
        ids=["complex-in-ignored", "complex-in-emotion", "item-locations"],
    )
    def test_ignored_elements_warn_where_they_are(self, data, warned):
        doc = parse_document(data)
        assert [(w.code, w.message, w.location) for w in doc.warnings] == [
            (
                "UNRECOGNIZED_ELEMENT",
                f"element <{tag}> is not part of the annotation vocabulary here",
                location,
            )
            for tag, location in warned
        ]

    def test_complex_inside_ignored_inside_complex_is_nested(self):
        data = b'<complex-emotion><note><complex-emotion/></note></complex-emotion>'
        with pytest.raises(ParseError) as exc:
            parse_document(data)
        assert exc.value.code == "NESTED_COMPLEX"

    def test_container_warnings_are_at_document(self):
        doc = parse_document(b"<earl>lost <note>inner</note>words</earl>")
        assert [(w.code, w.location) for w in doc.warnings] == [
            ("UNRECOGNIZED_ELEMENT", "document"),
            ("STRAY_TEXT", "document"),
        ]
        assert doc.warnings[1].message == "text outside annotations: 'lost words'"

    def test_container_attributes_are_warned(self):
        data = (
            b'<earl category="joy" href="clip.wav" start="1" end="2" xmlns="urn:earl"'
            b' xmlns:xlink="urn:x">lost<emotion category="a"/></earl>'
        )
        doc = parse_document(data)
        assert doc.items == (EmotionAnnotation(category="a"),)
        assert [(w.code, w.message, w.location) for w in doc.warnings] == [
            ("UNKNOWN_ATTRIBUTE", f"attribute {name}={raw!r} not recognized on the container;"
             " dropped", "document")
            for name, raw in [("category", "joy"), ("href", "clip.wav"), ("start", "1"),
                              ("end", "2")]
        ] + [("STRAY_TEXT", "text outside annotations: 'lost'", "document")]

    def test_namespace_declarations_on_the_container_are_not_warned(self):
        data = b'<note xmlns="urn:earl" xmlns:xlink="urn:x" xmlnsfoo="1"/>'
        assert [w.message for w in parse_document(data).warnings] == [
            "attribute xmlnsfoo='1' not recognized on the container; dropped"
        ]

    def test_constituent_standoff_scope_parses_and_fails_validation(self):
        from earlkit.model import validate_annotation

        data = (
            b"<complex-emotion>"
            b'<emotion category="a" xlink:href="f.jpg"/>'
            b'<emotion category="b"/></complex-emotion>'
        )
        (item,) = parse_document(data).items
        report = validate_annotation(item)
        assert "CONSTITUENT_SCOPE" in {f.code for f in report.errors()}

    def test_profile_rejects_unknown_children(self):
        # Ignored, <modalty> would leave the modality slot a wildcard, so
        # modality="telepathy" would validate.
        for data, tag in [
            (b"<profile><category>x</category><junk>y</junk></profile>", "junk"),
            (b"<profile><category>joy</category><modalty>face</modalty></profile>", "modalty"),
            (b"<profile><group><category>nested</category></group></profile>", "group"),
        ]:
            with pytest.raises(ParseError) as exc:
                load_profile(data)
            assert exc.value.code == "UNKNOWN_PROFILE_ELEMENT"
            assert f"<{tag}>" in exc.value.message


class TestUnicodeAndNumbers:
    def test_unicode_text_and_labels_round_trip(self):
        a = EmotionAnnotation(
            category="zärtlichkeit",
            scope=InlineText("héllo wörld \N{GREEK SMALL LETTER ALPHA} \U0001F600"),
        )
        doc = AnnotationDocument(items=(a,))
        assert parse_document(serialize_document(doc)) == doc

    def test_nbsp_only_text_is_preserved(self):
        a = EmotionAnnotation(category="x", scope=InlineText(" "))
        doc = AnnotationDocument(items=(a,))
        assert parse_document(serialize_document(doc)) == doc

    def test_extreme_floats_round_trip(self):
        a = EmotionAnnotation(
            category="x",
            appraisals={"tiny": 5e-324, "third": 1 / 3},
            scope=TimeSpan(0.0, 1e20),
        )
        doc = AnnotationDocument(items=(a,))
        assert parse_document(serialize_document(doc)) == doc

    @pytest.mark.parametrize(
        "raw",
        ["0.0_1", "1_000", "nan", "inf", "-inf", "Infinity", "-NaN", "+nan",
         "\N{ARABIC-INDIC DIGIT ONE}", "\N{FULLWIDTH DIGIT ONE}", "\N{NO-BREAK SPACE}1"],
    )
    @pytest.mark.parametrize("attribute", ["arousal", "probability", "suppress", "hide"])
    def test_numbers_outside_xs_double_are_unparseable(self, raw, attribute):
        # float() reads every one of these.
        float(raw)
        with pytest.raises(ParseError) as exc:
            parse_document(f'<emotion category="x" {attribute}="{raw}"/>'.encode())
        assert (exc.value.code, exc.value.message) == (
            "UNPARSEABLE_NUMBER", f"attribute {attribute}={raw!r} is not a number"
        )

    @pytest.mark.parametrize("where", ["emotion", "complex-emotion"])
    def test_underscored_span_is_unparseable(self, where):
        with pytest.raises(ParseError) as exc:
            parse_document(f'<{where} category="x" start="1_000" end="2_000"/>'.encode())
        assert exc.value.code == "UNPARSEABLE_NUMBER"
        assert exc.value.message == "attribute start='1_000' is not a number"

    def test_unknown_attribute_outside_xs_double_is_dropped(self):
        doc = parse_document(b'<emotion category="x" glow="1_0" spark=" -INF "/>')
        assert doc.items[0].appraisals == {"spark": -math.inf}
        assert [w.message for w in doc.warnings] == [
            "attribute glow='1_0' not recognized; dropped",
            "attribute 'spark' not in profile; kept as appraisal",
        ]

    @pytest.mark.parametrize(
        "raw, value",
        [("NaN", math.nan), ("INF", math.inf), ("-INF", -math.inf), ("+INF", math.inf),
         ("1e400", math.inf), ("-1E400", -math.inf), (" \t1.", 1.0), (".5", 0.5),
         ("+1E-3", 0.001), ("-0", -0.0)],
    )
    def test_xs_double_spellings_are_read(self, raw, value):
        doc = parse_document(f'<emotion category="x" arousal="{raw}"/>'.encode())
        assert repr(doc.items[0].dimensions["arousal"]) == repr(value)

    def test_non_finite_values_round_trip(self):
        a = EmotionAnnotation(
            category="x", dimensions={"arousal": math.inf, "valence": -math.inf},
            appraisals={"odd": math.nan},
        )
        data = serialize_document(AnnotationDocument(items=(a,)))
        assert b'arousal="INF" odd="NaN" valence="-INF"' in data
        assert repr(parse_document(data).items) == repr((a,))

    def test_negative_zero_serializes_as_zero(self):
        a = EmotionAnnotation(category="x", dimensions={"arousal": -0.0})
        data = serialize_document(AnnotationDocument(items=(a,)))
        assert b'arousal="0"' in data
        assert parse_document(data).items[0].dimensions == {"arousal": 0.0}


# ---------------------------------------------------------------------------
# The serializer and parser rewritten for speed, checked against the rules
# restated in oracles.py.

# A document mixing every attribute route of the parser: unknown numeric and
# non-numeric attributes, the hide alias, href with and without prefix, profile
# names that take over classic ones, and complex-emotion constituents.
MIXED_DOC = (
    b"<earl>\n"
    b'  <emotion category="joy" wobble="0.5" annotator="sam" hide="0.4"'
    b' href="a.jpg" valence="0.2" suddenness="-0.1" arousal="0.3"/>\n'
    b'  <complex-emotion xlink:href="clip.mp4" note="n">'
    b'<emotion category="calm" hide="0.1" zest="2" mood="meh"/>'
    b"<aside/>"
    b'<emotion category="tense" xlink:href="f.jpg" start="1"/>'
    b"</complex-emotion>\n"
    b'  <emotion category="odd" start="1" end="2">text</emotion>\n'
    b"</earl>\n"
)
MIXED_PROFILE = VocabularyProfile(
    dimension_names=frozenset({"suddenness"}), appraisal_names=frozenset({"valence"})
)
MIXED_WARNINGS = [
    ("UNKNOWN_ATTRIBUTE", "attribute 'wobble' not in profile; kept as appraisal", "item[0]"),
    ("UNKNOWN_ATTRIBUTE", "attribute annotator='sam' not recognized; dropped", "item[0]"),
    ("REGULATION_ALIAS", "regulation 'hide' read as 'suppress'", "item[0]"),
    ("REGULATION_ALIAS", "regulation 'hide' read as 'suppress'", "item[1].constituent[0]"),
    (
        "UNKNOWN_ATTRIBUTE",
        "attribute 'zest' not in profile; kept as appraisal",
        "item[1].constituent[0]",
    ),
    ("UNKNOWN_ATTRIBUTE", "attribute mood='meh' not recognized; dropped", "item[1].constituent[0]"),
    (
        "UNRECOGNIZED_ELEMENT",
        "element <aside> is not part of the annotation vocabulary here",
        "item[1]",
    ),
    (
        "INCOMPLETE_TIMESPAN",
        "start and end must be given together; lone value ignored",
        "item[1].constituent[1]",
    ),
    (
        "UNKNOWN_ATTRIBUTE",
        "attribute note='n' not recognized on complex-emotion; dropped",
        "item[1]",
    ),
    (
        "AMBIGUOUS_SCOPE",
        "element has both attribute scope and enclosed text; text ignored",
        "item[2]",
    ),
]


_EXTREME = EmotionAnnotation(
    category='a&"<b>',
    appraisals={"tiny": 5e-324, "big": 1e16, "neg": -0.0},
    intensity=float("nan"),
    probability=float("inf"),
    regulation={"suppress": 2.0**53},
    modality="x\ty",
    scope=ReferencedTimeSpan("a b&c\n.wav", 0.0, 1e20),
)
_INLINE = EmotionAnnotation(dimensions={"arousal": 1.0}, scope=InlineText("x\r<y>"))
EXTREME_DOC = AnnotationDocument(
    items=(_EXTREME, ComplexEmotion((_INLINE, _INLINE), scope=InlineText("t&u")))
)


class TestRewriteEquivalence:
    @given(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-(2**63), max_value=2**63),
        )
    )
    @example(0.0)
    @example(-0.0)
    @example(1e16)
    @example(1e16 - 2)
    @example(-1e16)
    @example(2**53)
    @example(5e-324)
    @example(0)
    @example(7)
    @example(-12)
    def test_format_number_matches_int_round_trip_rule(self, value):
        assert format_number(value) == oracles.format_number(value)

    @given(st.randoms(use_true_random=False))
    def test_serialize_matches_reference(self, rng):
        doc = generators.document(rng, max_items=6)
        assert serialize_document(doc) == oracles.serialize(doc)

    def test_serialize_matches_reference_on_extreme_values(self):
        assert serialize_document(EXTREME_DOC) == oracles.serialize(EXTREME_DOC)

    def test_parser_warnings_are_unchanged(self):
        doc = parse_document(MIXED_DOC, MIXED_PROFILE)
        assert [(w.code, w.message, w.location) for w in doc.warnings] == MIXED_WARNINGS
        first, group, last = doc.items
        assert first.dimensions == {"suddenness": -0.1, "arousal": 0.3}
        assert first.appraisals == {"wobble": 0.5, "valence": 0.2}
        assert (first.regulation, first.scope) == ({"suppress": 0.4}, Reference("a.jpg"))
        calm, tense = group.constituents
        assert (calm.appraisals, calm.regulation) == ({"zest": 2.0}, {"suppress": 0.1})
        assert (tense.scope, group.scope) == (Reference("f.jpg"), Reference("clip.mp4"))
        assert last.scope == TimeSpan(1.0, 2.0)

    def test_first_unparseable_known_number_is_reported(self):
        data = (
            b'<earl><emotion category="x" wobble="z" hide="0.1"/>'
            b'<emotion arousal="0.1" odd="y" hide="bad" intensity="q"/></earl>'
        )
        with pytest.raises(ParseError) as exc:
            parse_document(data)
        assert (exc.value.code, exc.value.message) == (
            "UNPARSEABLE_NUMBER",
            "attribute hide='bad' is not a number",
        )


# The writer's memos: every output is what the plain path writes, whatever
# the memos already hold.  Each test empties them when it ends.


def _clear_writer_memos():
    earl_xml._NUMBER_TEXT.clear()
    earl_xml._ESCAPED_ATTRS.clear()
    earl_xml._WRITABLE_NAMES.clear()


def _fill_writer_memos():
    # Values no other test writes: numbers above a million, prefixed labels.
    for n in range(earl_xml._MEMO_BOUND):
        format_number(1e6 + n + 0.5)
        earl_xml._escaped_attr(f"filler-{n}")


class _LyingFloat(float):
    # Equal to everything, with the hash of 0.5: stored, it would answer
    # for a later plain 0.5.
    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash(0.5)


class TestWriterMemos:
    def test_serialize_matches_reference_cold_warm_and_full(self):
        rng = random.Random(23)
        docs = [generators.document(rng, max_items=6) for _ in range(60)] + [EXTREME_DOC]
        try:
            for doc in docs:
                _clear_writer_memos()
                expected = oracles.serialize(doc)
                assert serialize_document(doc) == expected  # cold
                assert serialize_document(doc) == expected  # warm
            _clear_writer_memos()
            _fill_writer_memos()
            for doc in docs:
                assert serialize_document(doc) == oracles.serialize(doc)  # full
        finally:
            _clear_writer_memos()

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0, 0.0],
            [0.0, -0.0],
            [float("nan"), float("inf"), float("-inf")],
            [5e-324, 1e16, 2.0**53, 0.1, -1e-7],
            [0, 7, -12, True, False, 2**53],
            [_LyingFloat(2.25), 0.5, 2.25],
            [0.5, _LyingFloat(2.25)],
        ],
    )
    def test_format_number_matches_reference_on_every_call(self, values):
        try:
            _clear_writer_memos()
            for _ in range(2):
                for value in values:
                    assert format_number(value) == oracles.format_number(value)
        finally:
            _clear_writer_memos()

    def test_only_finite_exact_floats_are_stored(self):
        try:
            _clear_writer_memos()
            for value in (float("nan"), float("inf"), float("-inf"), 1, True, _LyingFloat(2.25)):
                format_number(value)
            assert earl_xml._NUMBER_TEXT == {}
            format_number(-0.0)
            format_number(0.0)
            assert list(earl_xml._NUMBER_TEXT.values()) == ["0"]
        finally:
            _clear_writer_memos()

    @pytest.mark.parametrize("bad", ["joy\ufffe", "an\x01ger"])
    @pytest.mark.parametrize("field", ["category", "modality", "uri"])
    def test_unwritable_label_is_refused_on_every_call(self, bad, field):
        if field == "uri":
            a = EmotionAnnotation(category="joy", scope=Reference(bad))
        else:
            a = EmotionAnnotation(**{field: bad})
        doc = AnnotationDocument(items=(a,))
        try:
            _clear_writer_memos()
            for _ in range(3):
                with pytest.raises(ParseError) as exc:
                    serialize_document(doc)
                assert exc.value.code == "UNSERIALIZABLE_CHAR"
            assert bad in earl_xml._ESCAPED_ATTRS
        finally:
            _clear_writer_memos()

    def test_long_attribute_value_is_not_stored(self):
        long = "a&" * earl_xml._MEMO_VALUE_CHARS
        a = EmotionAnnotation(category=long[:-1], modality="x", scope=Reference(long))
        doc = AnnotationDocument(items=(a,))
        try:
            _clear_writer_memos()
            for _ in range(2):
                assert serialize_document(doc) == oracles.serialize(doc)
            assert set(earl_xml._ESCAPED_ATTRS) == {"x"}
        finally:
            _clear_writer_memos()

    def test_memos_stop_at_the_bound(self):
        bound = earl_xml._MEMO_BOUND
        try:
            _clear_writer_memos()
            _fill_writer_memos()
            assert len(earl_xml._NUMBER_TEXT) == len(earl_xml._ESCAPED_ATTRS) == bound
            # Past the bound a value is still written right, and not stored.
            assert format_number(0.125) == "0.125"
            assert earl_xml._escaped_attr('x&"y\t') == "x&amp;&quot;y&#9;"
            assert 0.125 not in earl_xml._NUMBER_TEXT
            assert 'x&"y\t' not in earl_xml._ESCAPED_ATTRS
            assert len(earl_xml._NUMBER_TEXT) == len(earl_xml._ESCAPED_ATTRS) == bound
        finally:
            _clear_writer_memos()


def parse_outcome(parse, data, profile):
    """What ``parse`` makes of ``data``: its items and warnings, or its error."""
    try:
        doc = parse(data, profile)
    except ParseError as exc:
        return exc.code, exc.message
    # The repr keeps NaN comparable and dict order visible.
    return repr(doc.items), [(w.severity, w.code, w.message, w.location) for w in doc.warnings]


# Attribute names that reach every route of the reader: text and numeric
# fields, classic and profile-claimed descriptors, regulation and its alias,
# both URI forms, and names nothing claims.  A profile may claim a classic
# name for the other descriptor kind, or a name a fixed field already owns.
_RAW_NAMES = (
    "category", "modality", "intensity", "probability", "arousal", "valence", "suddenness",
    "goal_conduciveness", "glow", "spark", "amplify", "simulate", "suppress", "hide", "href",
    "xlink:href", "wobble", "note", "xmlns", "xmlns:xlink",
)
# Pairs that fill one slot; their reading changed on purpose, so none is drawn.
_RAW_ONE_SLOT = ({"href", "xlink:href"}, {"suppress", "hide"})
_RAW_TEXT_NAMES = {"category", "modality", "href", "xlink:href", "note", "xmlns", "xmlns:xlink"}
_RAW_WORDS = ("high", "", "face12.jpg", "a &amp; b", "zärtlich")
# Mostly numbers that parse and spans that hold, so that most documents
# get past their first few elements.  float() reads the last six, but they
# are no xs:double.
_RAW_NUMBERS = (
    ("0.5", "-0.25", "1", "2", "1.0", "0", "-0", " 0.7 ", "2e-3", "1e400", "NaN", "-INF", "+INF")
    * 30
    + _RAW_WORDS
    + ("1_0", "nan", "-inf", "Infinity", "\N{ARABIC-INDIC DIGIT ONE}", "\N{NO-BREAK SPACE}1")
)
_RAW_SPANS = (
    ("",) * 40
    + (' start="0" end="1"', ' start="0.5" end="2e0"', ' end="3" start="1"') * 3
    + (' start="1"', ' end="2"') * 3
    + (' start="2" end="1"', ' start="1" end="1"', ' start="nan" end="1"', ' start="x" end="1"')
)
_RAW_TEXTS = ("", "\n  ", " \t", "lost words", "x &lt; y", " ", "zärtlich", "&#13;", "a\r\nb")
# Weighted towards items, and constituents in them; any other element is
# ignored, so its children are too.
_RAW_CHILDREN = {
    "earl": ("emotion", "complex-emotion", "note", "text"),
    "complex-emotion": ("emotion",) * 8 + ("complex-emotion", "note", "text"),
    None: ("text",) * 3 + ("note", "note", "emotion", "complex-emotion"),
}
PROFILES = (
    VocabularyProfile(),
    VocabularyProfile(
        dimension_names=frozenset({"glow", "suddenness"}),
        appraisal_names=frozenset({"spark", "valence"}),
    ),
    VocabularyProfile(
        dimension_names=frozenset({"category", "hide", "simulate"}),
        appraisal_names=frozenset({"href", "glow"}),
    ),
)


def raw_earl(rng):
    """EARL-like bytes: any nesting of the annotation tags, others and text."""

    def element(tag, depth):
        names = rng.sample(_RAW_NAMES, rng.randint(0, 5))
        if any(pair <= set(names) for pair in _RAW_ONE_SLOT):
            names = [n for n in names if n not in ("xlink:href", "hide")]
        attrs = [
            f' {n}="{rng.choice(_RAW_WORDS if n in _RAW_TEXT_NAMES else _RAW_NUMBERS)}"'
            for n in names
        ]
        attrs.insert(rng.randint(0, len(attrs)), rng.choice(_RAW_SPANS))
        inner = []
        for _ in range(rng.randint(0, 6 if tag == "earl" else 3 if depth < 4 else 0)):
            child = rng.choice(_RAW_CHILDREN.get(tag, _RAW_CHILDREN[None]))
            inner.append(rng.choice(_RAW_TEXTS) if child == "text" else element(child, depth + 1))
        body = "".join(inner) + rng.choice(_RAW_TEXTS)
        attrs = "".join(attrs)
        return f"<{tag}{attrs}>{body}</{tag}>" if body else f"<{tag}{attrs}/>"

    root = rng.choice(("earl",) * 3 + ("emotion", "complex-emotion", "note"))
    # A str that declares another encoding is read differently on purpose;
    # now and then a DOCTYPE, which both refuse.
    heads = ("", '<?xml version="1.0" encoding="UTF-8"?>\n') * 5 + (DOCTYPES["internal"],)
    head = rng.choice(heads)
    data = (head + element(root, 0)).encode()
    if rng.random() < 0.1:  # malformed after some elements ended
        data = data[: rng.randint(0, len(data))]
    return data


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=True), st.sampled_from(PROFILES), st.booleans())
    def test_parse_matches_reference(self, rng, profile, as_text):
        data = raw_earl(rng)
        if as_text:
            data = data.decode(errors="surrogateescape")
        assert parse_outcome(parse_document, data, profile) == parse_outcome(
            oracles.parse, data, profile
        )
