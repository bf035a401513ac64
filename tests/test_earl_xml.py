"""Parser, serializer, scope resolution, and profile file tests."""

import math
import random
import re
from xml.parsers import expat
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earlkit.earl_xml import (
    _attr,
    _text,
    AnnotationDocument,
    ClipSegment,
    MediaObject,
    TextSegment,
    format_number,
    load_profile,
    parse_document,
    resolve_scope,
    serialize_document,
)
from earlkit.errors import ParseError, ScopeError
from earlkit.model import (
    CLASSIC_APPRAISAL_NAMES,
    CLASSIC_DIMENSION_NAMES,
    REGULATION_TYPES,
    UNSCOPED,
    ComplexEmotion,
    EmotionAnnotation,
    Finding,
    InlineText,
    Reference,
    ReferencedTimeSpan,
    TimeSpan,
    VocabularyProfile,
    validate_annotation,
)

import generators
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
        attr_entities = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
        assert _attr("a", value) == f' a="{escape(value, attr_entities)}"'
        assert _text(value) == escape(value, {"\r": "&#13;"})

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
    def test_output_always_reads_back(self, value):
        a = EmotionAnnotation(category=value, scope=InlineText(value))
        doc = AnnotationDocument(items=(a,))
        unwritable = any(
            (c < " " and c not in "\t\n\r") or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff"
            for c in value
        )
        try:
            data = serialize_document(doc)
        except ParseError as exc:
            assert exc.code == "UNSERIALIZABLE_CHAR" and unwritable
        else:
            assert not unwritable
            assert parse_document(data).items[0].category == value

    def test_format_number(self):
        assert format_number(1.0) == "1"
        assert format_number(0.50) == "0.5"
        assert format_number(-0.2) == "-0.2"
        assert format_number(0.9405233862724746) == "0.9405233862724746"


class TestRoundTrip:
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


class TestResolveScope:
    def test_reference_with_file_present(self, tmp_path):
        (tmp_path / "face12.jpg").write_bytes(b"\xff\xd8")
        a = EmotionAnnotation(category="x", scope=Reference("face12.jpg"))
        assert resolve_scope(a, tmp_path) == MediaObject("face12.jpg", True)

    def test_reference_with_file_absent(self, tmp_path):
        a = EmotionAnnotation(category="x", scope=Reference("gone.png"))
        assert resolve_scope(a, tmp_path) == MediaObject("gone.png", False)

    def test_inline_text(self, tmp_path):
        a = EmotionAnnotation(category="x", scope=InlineText("Hello!"))
        assert resolve_scope(a, tmp_path) == TextSegment("Hello!")

    def test_path_escape(self, tmp_path):
        a = EmotionAnnotation(category="x", scope=Reference("../secret"))
        with pytest.raises(ScopeError) as exc:
            resolve_scope(a, tmp_path)
        assert exc.value.code == "PATH_ESCAPE"

    def test_time_spans(self, tmp_path):
        a = EmotionAnnotation(category="x", scope=TimeSpan(0.4, 1.3))
        assert resolve_scope(a, tmp_path) == ClipSegment(None, 0.4, 1.3)
        b = EmotionAnnotation(category="x", scope=ReferencedTimeSpan("c.mp4", 1.0, 2.0))
        assert resolve_scope(b, tmp_path) == ClipSegment("c.mp4", 1.0, 2.0)

    def test_unscoped(self, tmp_path):
        with pytest.raises(ScopeError) as exc:
            resolve_scope(EmotionAnnotation(category="x"), tmp_path)
        assert exc.value.code == "UNSCOPED"

    @pytest.mark.parametrize(
        "scope, problem",
        [
            (Reference(""), "reference URI is empty"),
            (TimeSpan(2.0, 1.0), "time span end 1.0 must exceed start 2.0"),
            (TimeSpan(math.nan, 1.0), "time span end 1.0 must exceed start nan"),
            (TimeSpan(-1.0, 1.0), "time span start is negative"),
            (ReferencedTimeSpan("", 0.0, 1.0), "reference URI is empty"),
        ],
        ids=["empty-uri", "end-before-start", "nan-start", "negative-start", "empty-clip-uri"],
    )
    def test_malformed_scope_is_not_resolved(self, tmp_path, scope, problem):
        a = EmotionAnnotation(category="x", scope=scope)
        assert [f.message for f in validate_annotation(a).errors()] == [problem]
        with pytest.raises(ScopeError) as exc:
            resolve_scope(a, tmp_path)
        assert (exc.value.code, exc.value.message) == ("MALFORMED_SCOPE", problem)

    def test_empty_href_is_not_the_corpus_root(self, tmp_path):
        (item,) = parse_document(b'<emotion category="x" xlink:href=""/>').items
        with pytest.raises(ScopeError) as exc:
            resolve_scope(item, tmp_path)
        assert exc.value.code == "MALFORMED_SCOPE"


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
            b"<category>c<!-- note -->d</category><dimension>  </dimension></profile>"
        )
        assert profile.categories == {"a", "n", "cd"}
        assert profile.dimension_names == frozenset()


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
# The serializer and parser rewritten for speed, checked against the earlier
# rules restated here.

_ATTR_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def reference_format_number(value):
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _ref_attr(name, value):
    return f' {name}="{escape(value, _ATTR_ENTITIES)}"'


def _ref_scope_attrs(scope):
    out = ""
    if isinstance(scope, (Reference, ReferencedTimeSpan)):
        out += _ref_attr("xlink:href", scope.uri)
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        out += _ref_attr("start", reference_format_number(scope.start))
        out += _ref_attr("end", reference_format_number(scope.end))
    return out


def _ref_emotion(a):
    parts = ["<emotion"]
    if a.category is not None:
        parts.append(_ref_attr("category", a.category))
    descriptors = {**a.dimensions, **a.appraisals}
    for name in sorted(descriptors):
        parts.append(_ref_attr(name, reference_format_number(descriptors[name])))
    for name in ("intensity", "probability"):
        if getattr(a, name) is not None:
            parts.append(_ref_attr(name, reference_format_number(getattr(a, name))))
    for name in sorted(a.regulation):
        parts.append(_ref_attr(name, reference_format_number(a.regulation[name])))
    if a.modality is not None:
        parts.append(_ref_attr("modality", a.modality))
    parts.append(_ref_scope_attrs(a.scope))
    if isinstance(a.scope, InlineText):
        parts.append(f">{escape(a.scope.text, {chr(13): '&#13;'})}</emotion>")
    else:
        parts.append("/>")
    return "".join(parts)


def _ref_complex(c):
    text = escape(c.scope.text, {"\r": "&#13;"}) if isinstance(c.scope, InlineText) else ""
    inner = "".join(_ref_emotion(x) for x in c.constituents)
    return f"<complex-emotion{_ref_scope_attrs(c.scope)}>{text}{inner}</complex-emotion>"


def reference_serialize(doc):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not doc.items:
        lines.append("<earl/>")
    else:
        lines.append("<earl>")
        for item in doc.items:
            markup = _ref_complex(item) if isinstance(item, ComplexEmotion) else _ref_emotion(item)
            lines.append("  " + markup)
        lines.append("</earl>")
    return ("\n".join(lines) + "\n").encode("utf-8")


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
        assert format_number(value) == reference_format_number(value)

    @given(st.randoms(use_true_random=False))
    def test_serialize_matches_reference(self, rng):
        doc = generators.document(rng, max_items=6)
        assert serialize_document(doc) == reference_serialize(doc)

    def test_serialize_matches_reference_on_extreme_values(self):
        a = EmotionAnnotation(
            category='a&"<b>',
            appraisals={"tiny": 5e-324, "big": 1e16, "neg": -0.0},
            intensity=float("nan"),
            probability=float("inf"),
            regulation={"suppress": 2.0**53},
            modality="x\ty",
            scope=ReferencedTimeSpan("a b&c\n.wav", 0.0, 1e20),
        )
        inline = EmotionAnnotation(dimensions={"arousal": 1.0}, scope=InlineText("x\r<y>"))
        doc = AnnotationDocument(
            items=(a, ComplexEmotion((inline, inline), scope=InlineText("t&u")))
        )
        assert serialize_document(doc) == reference_serialize(doc)

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


# The reader as it was before its handlers became closures, restated: one
# frame object per open element, its location string built at its start.

_REF_HREF_ATTRS = ("xlink:href", "href")
_REF_ALIASES = {"hide": "suppress"}


class _RefFrame:
    def __init__(self, kind, attrs, location):
        self.kind, self.attrs, self.location = kind, attrs, location
        self.text_parts, self.children = [], []


def _ref_kinds(profile):
    kinds = dict.fromkeys(CLASSIC_APPRAISAL_NAMES, "appraisal")
    kinds.update(dict.fromkeys(CLASSIC_DIMENSION_NAMES, "dimension"))
    kinds.update(dict.fromkeys(profile.appraisal_names, "appraisal"))
    kinds.update(dict.fromkeys(profile.dimension_names, "dimension"))
    kinds.update(dict.fromkeys(_REF_ALIASES, "alias"))
    kinds.update(dict.fromkeys(REGULATION_TYPES, "regulation"))
    kinds.update(dict.fromkeys(_REF_HREF_ATTRS, "uri"))
    fixed = ("category", "modality", "intensity", "probability", "start", "end")
    kinds.update(zip(fixed, fixed))
    return kinds


# XML Schema 1.1 Part 2, 3.3.5: a decimal or scientific numeral, or INF, +INF,
# -INF or NaN, after the collapse facet has stripped XML whitespace.
_REF_NUMERAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?", re.ASCII)


def _ref_double(raw):
    text = raw.strip(" \t\n\r")
    if text in ("INF", "+INF", "-INF", "NaN") or _REF_NUMERAL.fullmatch(text):
        return float(text)
    raise ValueError(raw)


def _ref_number(name, raw):
    try:
        return _ref_double(raw)
    except ValueError:
        raise ParseError("UNPARSEABLE_NUMBER", f"attribute {name}={raw!r} is not a number")


class _RefBuilder:
    def __init__(self, profile):
        self.kinds = _ref_kinds(profile)
        self.items, self.warnings, self.stack = [], [], []

    def warn(self, code, message, location):
        self.warnings.append(Finding("warning", code, message, location))

    def start_element(self, name, attrs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if name == "complex-emotion" and any(f.kind == "complex" for f in stack):
            raise ParseError(
                "NESTED_COMPLEX", "complex-emotion may not contain another complex-emotion"
            )
        if (parent is None or parent.kind == "container") and name in (
            "emotion",
            "complex-emotion",
        ):
            kind = "emotion" if name == "emotion" else "complex"
            stack.append(_RefFrame(kind, attrs, f"item[{len(self.items)}]"))
        elif parent is None:
            stack.append(_RefFrame("container", attrs, ""))
        elif parent.kind == "complex" and name == "emotion":
            loc = f"{parent.location}.constituent[{len(parent.children)}]"
            stack.append(_RefFrame("emotion", attrs, loc))
        else:
            message = f"element <{name}> is not part of the annotation vocabulary here"
            self.warn("UNRECOGNIZED_ELEMENT", message, parent.location or "document")
            stack.append(_RefFrame("ignored", attrs, parent.location))

    def character_data(self, data):
        if self.stack:
            self.stack[-1].text_parts.append(data)

    def end_element(self, _name):
        frame = self.stack.pop()
        if frame.kind == "ignored":
            return
        text = "".join(frame.text_parts)
        if not text.strip(" \t\n\r"):
            text = ""
        if frame.kind == "container":
            it = iter(frame.attrs)
            for name, raw in zip(it, it):
                if name != "xmlns" and not name.startswith("xmlns:"):
                    message = f"attribute {name}={raw!r} not recognized on the container; dropped"
                    self.warn("UNKNOWN_ATTRIBUTE", message, "document")
            if text:
                self.warn("STRAY_TEXT", f"text outside annotations: {text.strip()!r}", "document")
        elif frame.kind == "emotion":
            annotation = self.annotation(frame, text)
            if self.stack and self.stack[-1].kind == "complex":
                self.stack[-1].children.append(annotation)
            else:
                self.items.append(annotation)
        else:
            self.items.append(self.complex(frame, text))

    def scope(self, uri, start, end, text, loc):
        if (start is None) != (end is None):
            message = "start and end must be given together; lone value ignored"
            self.warn("INCOMPLETE_TIMESPAN", message, loc)
            start = end = None
        if start is not None and not end > start:
            raise ParseError("START_AFTER_END", f"start={start} end={end}")
        if text and (uri is not None or start is not None):
            message = "element has both attribute scope and enclosed text; text ignored"
            self.warn("AMBIGUOUS_SCOPE", message, loc)
            text = ""
        if uri is not None and start is not None:
            return ReferencedTimeSpan(uri, start, end)
        if uri is not None:
            return Reference(uri)
        if start is not None:
            return TimeSpan(start, end)
        return InlineText(text) if text else UNSCOPED

    def annotation(self, frame, text):
        fields = dict.fromkeys(("category", "modality", "uri", "intensity", "probability"))
        fields.update(start=None, end=None)
        groups = {"dimension": {}, "appraisal": {}, "regulation": {}}
        it = iter(frame.attrs)
        for name, raw in zip(it, it):
            kind = self.kinds.get(name)
            if kind is None:
                try:
                    groups["appraisal"][name] = _ref_double(raw)
                except ValueError:
                    message = f"attribute {name}={raw!r} not recognized; dropped"
                else:
                    message = f"attribute {name!r} not in profile; kept as appraisal"
                self.warn("UNKNOWN_ATTRIBUTE", message, frame.location)
            elif kind in ("category", "modality", "uri"):
                fields[kind] = raw
            elif kind in groups:
                groups[kind][name] = _ref_number(name, raw)
            elif kind == "alias":
                value = _ref_number(name, raw)
                groups["regulation"][_REF_ALIASES[name]] = value
                message = f"regulation {name!r} read as {_REF_ALIASES[name]!r}"
                self.warn("REGULATION_ALIAS", message, frame.location)
            else:
                fields[kind] = _ref_number(name, raw)
        return EmotionAnnotation(
            category=fields["category"],
            dimensions=groups["dimension"],
            appraisals=groups["appraisal"],
            intensity=fields["intensity"],
            probability=fields["probability"],
            regulation=groups["regulation"],
            modality=fields["modality"],
            scope=self.scope(fields["uri"], fields["start"], fields["end"], text, frame.location),
        )

    def complex(self, frame, text):
        uri = start = end = None
        it = iter(frame.attrs)
        for name, raw in zip(it, it):
            if name in _REF_HREF_ATTRS:
                uri = raw
            elif name == "start":
                start = _ref_number(name, raw)
            elif name == "end":
                end = _ref_number(name, raw)
            else:
                message = f"attribute {name}={raw!r} not recognized on complex-emotion; dropped"
                self.warn("UNKNOWN_ATTRIBUTE", message, frame.location)
        scope = self.scope(uri, start, end, text, frame.location)
        return ComplexEmotion(constituents=tuple(frame.children), scope=scope)


def reference_parse(data, profile):
    builder = _RefBuilder(profile)
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    if isinstance(data, str):
        try:
            data = data.encode()
        except UnicodeEncodeError as exc:
            message = f"U+{ord(data[exc.start]):04X} at index {exc.start} is not encodable as UTF-8"
            raise ParseError("MALFORMED_XML", message)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseError("MALFORMED_XML", str(exc))
    return AnnotationDocument(items=tuple(builder.items), warnings=tuple(builder.warnings))


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
    # A str that declares another encoding is read differently on purpose.
    head = rng.choice(("", '<?xml version="1.0" encoding="UTF-8"?>\n'))
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
            reference_parse, data, profile
        )
