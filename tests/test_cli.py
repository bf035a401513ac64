"""Exit-code and output-format contract for every subcommand."""

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earlkit.earl_xml import load_profile, parse_document
from earlkit.errors import EarlError, FusionError
from earlkit.fusion import load_config, load_stream
from earlkit.markers import (
    MOVEMENT_FIELDS, VOICE_FIELDS, VoiceFeatureDelta, load_features, load_lexicon,
)
from earlkit.model import BEHAVIOR_FOR_EMOTION, SOURCE_WEIGHTS
from earlkit.needs import load_policy

import oracles
from support import FIXTURES, golden, run_cli


class TestValidate:
    def test_fixture_corpus_is_clean(self):
        code, out, err = run_cli(["validate", FIXTURES / "earl"])
        assert code == 0
        assert out == ""
        assert err == ""

    def test_single_file(self):
        code, _, _ = run_cli(["validate", FIXTURES / "earl" / "fig1.xml"])
        assert code == 0

    def test_strict_with_profile(self):
        code, _, err = run_cli(
            ["validate", FIXTURES / "earl", "--profile", FIXTURES / "profiles" / "basic.xml", "--strict"]
        )
        assert code == 0, err

    def test_parse_error_exits_2(self, tmp_path):
        (tmp_path / "broken.xml").write_bytes(b"<emotion")
        code, _, err = run_cli(["validate", tmp_path])
        assert code == 2
        assert "MALFORMED_XML" in err

    def test_validation_error_exits_2(self, tmp_path):
        (tmp_path / "bad.xml").write_bytes(b'<emotion category="x" intensity="1.7"/>')
        code, _, err = run_cli(["validate", tmp_path])
        assert code == 2
        assert "RANGE" in err

    def test_unknown_category_against_profile(self, tmp_path):
        (tmp_path / "odd.xml").write_bytes(b'<emotion category="smugness"/>')
        code, _, err = run_cli(
            ["validate", tmp_path, "--profile", FIXTURES / "profiles" / "basic.xml"]
        )
        assert code == 2
        assert "UNKNOWN_CATEGORY" in err

    def test_empty_category_exits_2(self, tmp_path):
        (tmp_path / "empty.xml").write_bytes(b'<earl><emotion category=""/></earl>')
        code, _, err = run_cli(["validate", tmp_path])
        assert code == 2
        assert "EMPTY_CATEGORY" in err

    def test_missing_path_exits_2(self, tmp_path):
        code, _, err = run_cli(["validate", tmp_path / "nowhere"])
        assert code == 2
        assert err == f"earlkit: validate: {tmp_path / 'nowhere'}: no such file or directory\n"


class TestAnnotate:
    def test_joy_golden(self):
        code, out, _ = run_cli(["annotate", "--text", "joyful, happy, radiant"])
        assert code == 0
        assert out == golden("annotate_joy.xml")

    def test_no_matches_gives_empty_document(self):
        code, out, _ = run_cli(["annotate", "--text", "completely unremarkable"])
        assert code == 0
        assert out == '<?xml version="1.0" encoding="UTF-8"?>\n<earl/>\n'

    @pytest.mark.parametrize(
        "text, point", [("so happy\x01 today", "U+0001"), ("so happy \udcff today", "U+DCFF")],
        ids=["control", "not-utf8"],
    )
    def test_text_xml_cannot_hold_exits_2(self, text, point):
        # A byte of argv that is not UTF-8 reaches the CLI as a lone surrogate.
        code, out, err = run_cli(["annotate", "--text", text])
        assert (code, out) == (2, "")
        assert err == f"earlkit: UNSERIALIZABLE_CHAR: {point} cannot be written in XML\n"

    def test_custom_lexicon(self, tmp_path):
        lex = tmp_path / "tiny.lex"
        lex.write_text("calm: serene\n")
        code, out, _ = run_cli(["annotate", "--text", "serene", "--lexicon", lex])
        assert code == 0
        assert 'category="calm"' in out


class TestClassify:
    def test_voice_anger_golden(self):
        code, out, _ = run_cli(
            ["classify", "--voice", FIXTURES / "features" / "voice_anger.features"]
        )
        assert code == 0
        assert out == golden("classify_voice_anger.tsv")

    def test_movement_grief_golden(self):
        code, out, _ = run_cli(
            ["classify", "--movement", FIXTURES / "features" / "movement_grief.features"]
        )
        assert code == 0
        assert out == golden("classify_movement_grief.tsv")

    def test_voice_sadness_tops_ranking(self):
        code, out, _ = run_cli(
            ["classify", "--voice", FIXTURES / "features" / "voice_sadness.features"]
        )
        assert code == 0
        assert out.splitlines()[0].startswith("sadness\t1")

    def test_bad_feature_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.features"
        bad.write_text("mean_f0=sideways\n")
        code, _, err = run_cli(["classify", "--voice", bad])
        assert code == 2
        assert "BAD_FEATURE" in err

    def test_unknown_field_exits_2(self, tmp_path):
        bad = tmp_path / "bad.features"
        bad.write_text("loudness=up\n")
        code, _, _ = run_cli(["classify", "--voice", bad])
        assert code == 2


class TestFuse:
    def test_jack_stream_golden(self):
        code, out, _ = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream"]
        )
        assert code == 0
        assert out == golden("fuse_jack.xml")

    def test_calm_stream_yields_complex(self):
        code, out, _ = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_calm.stream"]
        )
        assert code == 0
        assert "<complex-emotion>" in out
        assert out.index('category="sadness"') < out.index('category="grief"')

    def test_at_far_future_has_no_signal(self):
        code, _, err = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream", "--at", "60"]
        )
        assert code == 2
        assert "NO_SIGNAL" in err

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("constituent_threshold = 0.95\n")
        code, _, err = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream", "--config", cfg]
        )
        assert code == 2
        assert "NO_SIGNAL" in err

    def test_bad_stream_exits_2(self, tmp_path):
        bad = tmp_path / "bad.stream"
        bad.write_text("0.0 telepathy anger 1.0 1.0\n")
        code, _, err = run_cli(["fuse", "--evidence", bad])
        assert code == 2
        assert "BAD_STREAM" in err

    def test_category_xml_cannot_hold_exits_2(self, tmp_path):
        stream = tmp_path / "control.stream"
        stream.write_bytes(b"0 language_voice ang\x01er 0.9 0.9\n")
        code, out, err = run_cli(["fuse", "--evidence", stream])
        assert (code, out) == (2, "")
        assert err == "earlkit: UNSERIALIZABLE_CHAR: U+0001 cannot be written in XML\n"


class TestDecide:
    def test_angry_stream_denied(self):
        code, out, _ = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_angry.stream",
                "--resource", "hazardous-tool",
                "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
            ]
        )
        assert code == 3
        assert out == golden("decide_jack_angry.txt")

    def test_calm_stream_allowed(self):
        code, out, _ = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_calm.stream",
                "--resource", "hazardous-tool",
                "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
            ]
        )
        assert code == 0
        assert out == golden("decide_jack_calm.txt")

    @pytest.mark.parametrize("profile", [
        (), ("--profile", FIXTURES / "profiles" / "behaviors.xml"),
    ])
    @pytest.mark.parametrize("second, note", [
        ("desire", ""), ("sensuality", "; ambiguous estimate"),
    ])
    def test_two_names_of_one_emotion_add_up(self, tmp_path, profile, second, note):
        # `sensuality` is the word list's name for `desire`: a face reading and
        # a text reading of one emotion must not split its vote into allow.
        stream, policy = tmp_path / "s.stream", tmp_path / "shop.policy"
        stream.write_text(f"0 face desire 0.8 1.0\n0 language_voice {second} 0.8 1.0\n")
        policy.write_text("shop deny_when searching >= 0.5\n")
        argv = ["decide", "--evidence", stream, "--resource", "shop", "--policy", policy]
        rationale = f"rule 'shop deny_when searching >= 0.5' triggered: searching=0.8000{note}"
        assert run_cli([*argv, *profile]) == (3, f"deny\t{rationale}\n", "")

    def test_unlisted_resource_exits_2(self):
        # No rule names "library", so the resource is most likely misspelt:
        # answering allow would let a typo open any resource.
        policy = FIXTURES / "policies" / "hazardous_tool.policy"
        code, out, err = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_angry.stream",
                "--resource", "library",
                "--policy", policy,
            ]
        )
        assert (code, out) == (2, "")
        assert err == f"earlkit: UNKNOWN_RESOURCE: {policy}: no rule names 'library'\n"


class TestStats:
    def test_tsv_golden(self):
        code, out, _ = run_cli(["stats", FIXTURES / "earl"])
        assert code == 0
        assert out == golden("stats_earl.tsv")

    def test_json_golden(self):
        code, out, _ = run_cli(["stats", FIXTURES / "earl", "--json"])
        assert code == 0
        assert out == golden("stats_earl.json")

    def test_histogram_totals_match_annotation_count(self):
        _, out, _ = run_cli(["stats", FIXTURES / "earl"])
        rows = dict(line.split("\t") for line in out.splitlines())
        histogram_total = sum(
            int(v) for k, v in rows.items() if k.startswith("category.")
        )
        assert histogram_total == int(rows["annotations_count"])


class TestUsage:
    def test_no_arguments_exits_1(self):
        code, _, _ = run_cli([])
        assert code == 1

    def test_unknown_subcommand_exits_1(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_missing_required_flag_exits_1(self):
        stream = ["--evidence", FIXTURES / "streams" / "jack_angry.stream"]
        required = "the following arguments are required:"
        for argv, message in [
            (["annotate"], f"{required} --text"),
            (["classify"], "one of the arguments --voice --movement is required"),
            (["fuse"], f"{required} --evidence"),
            (["decide", *stream, "--resource", "x"], f"{required} --policy"),
        ]:
            code, _, err = run_cli(argv)
            assert (code, err.splitlines()[-1]) == (1, f"earlkit: {message}")

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "earlkit.cli", "annotate", "--text", "happy"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert 'category="joy"' in result.stdout

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_documents_are_utf8_whatever_the_stdout_encoding(self, tmp_path, encoding):
        # Every command writes UTF-8 bytes. A document declares UTF-8; text
        # written through a latin-1 stdout would not parse, and through an
        # ascii one a non-ASCII label, text or resource would not be written.
        stream = tmp_path / "tender.stream"
        stream.write_bytes("0 face zärtlich 1 1\n".encode())
        policy = tmp_path / "saw.policy"
        policy.write_bytes("säge deny_when aggressive >= 0.6\n".encode())
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tender.xml").write_bytes('<emotion category="zärtlich"/>'.encode())
        cases = [
            (["annotate", "--text", "happy café"], 0),
            (["fuse", "--evidence", stream], 0),
            (["decide", "--policy", policy, "--resource", "säge", "--evidence", ANGRY], 3),
            (["stats", corpus], 0),
            (["classify", "--voice", FIXTURES / "features" / "voice_anger.features"], 0),
        ]
        for argv, code in cases:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "earlkit.cli", *map(str, argv)], capture_output=True,
                    env={**os.environ, "PYTHONIOENCODING": name},
                )
                for name in ("utf-8", encoding)
            ]
            assert [run.returncode for run in runs] == [code, code], runs[1].stderr
            assert runs[1].stdout == runs[0].stdout
            if argv[0] != "classify":
                assert b"\xc3" in runs[0].stdout  # the non-ASCII label, text or resource
            if argv[0] in ("annotate", "fuse"):
                assert parse_document(runs[1].stdout).items
            else:
                assert runs[1].stdout.endswith(b"\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate", "--text", "happy"],
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream"],
            ["decide", "--evidence", FIXTURES / "streams" / "jack_angry.stream", "--resource",
             "hazardous-tool", "--policy", FIXTURES / "policies" / "hazardous_tool.policy"],
            ["stats", FIXTURES / "earl"],
            ["classify", "--voice", FIXTURES / "features" / "voice_anger.features"],
        ],
        ids=["annotate", "fuse", "decide", "stats", "classify"],
    )
    def test_closed_stdout_keeps_the_exit_code(self, argv):
        # With fd 1 closed, sys.stdout is None: the command writes nothing,
        # and its exit code is the one it gives with stdout open.
        command = [sys.executable, "-m", "earlkit.cli", *map(str, argv)]
        opened = subprocess.run(command, capture_output=True)
        closed = subprocess.run(command, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert opened.stdout
        assert (closed.returncode, closed.stderr) == (opened.returncode, b"")

    def test_package_runs_as_a_module(self):
        result = subprocess.run(
            [sys.executable, "-m", "earlkit", "stats", "fixtures/earl"],
            capture_output=True,
            text=True,
            cwd=FIXTURES.parent,
        )
        assert result.returncode == 0
        assert result.stdout == golden("stats_earl.tsv")

    def test_import_skips_heavy_stdlib_modules(self):
        # xml.sax.saxutils would pull in urllib, http.client and email;
        # profiles are read with expat, like documents, not with ElementTree.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import earlkit.cli\n"
            "added = set(sys.modules) - before\n"
            "print([m for m in ('xml.sax', 'xml.etree', 'http.client', 'email') if m in added])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


class TestCliEdges:
    def test_validate_recurses_and_sorts(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a").mkdir()
        (tmp_path / "b" / "two.xml").write_bytes(b"<emotion/>")
        (tmp_path / "a" / "one.xml").write_bytes(b"<emotion/>")
        code, _, err = run_cli(["validate", tmp_path])
        assert code == 2  # MISSING_DESCRIPTOR in both
        lines = [line for line in err.splitlines() if "MISSING_DESCRIPTOR" in line]
        assert len(lines) == 2
        assert "one.xml" in lines[0] and "two.xml" in lines[1]

    def test_stats_missing_path_exits_2(self, tmp_path):
        code, _, err = run_cli(["stats", tmp_path / "nowhere"])
        assert code == 2
        assert err == f"earlkit: stats: {tmp_path / 'nowhere'}: no such file or directory\n"

    def test_stats_counts_broken_file_as_error(self, tmp_path):
        (tmp_path / "ok.xml").write_bytes(b'<emotion category="x"/>')
        (tmp_path / "broken.xml").write_bytes(b"<emotion")
        code, out, _ = run_cli(["stats", tmp_path])
        rows = dict(line.split("\t") for line in out.splitlines())
        assert code == 0
        assert rows["files_scanned"] == "2"
        assert rows["error_count"] == "1"
        assert rows["annotations_count"] == "1"

    def test_fuse_at_before_stream_end_exits_2(self):
        code, _, err = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream", "--at", "0.1"]
        )
        assert code == 2
        assert "TIME_REGRESSION" in err

    def test_decide_with_config(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("weight.movement_kinematic = 0.0\ndecay_lambda = 0\n")
        code, out, _ = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_angry.stream",
                "--resource", "hazardous-tool",
                "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
                "--config", cfg,
            ]
        )
        assert code == 3  # voice alone still clears the threshold
        assert "aggressive=1.0000" in out

    def test_missing_evidence_file_exits_2(self, tmp_path):
        code, _, err = run_cli(
            [
                "decide",
                "--evidence", tmp_path / "nope.stream",
                "--resource", "x",
                "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
            ]
        )
        assert code == 2

    def test_bad_lexicon_exits_2(self, tmp_path):
        lex = tmp_path / "dup.lex"
        lex.write_text("joy: happy\nactivation: happy\n")
        code, _, err = run_cli(["annotate", "--text", "happy", "--lexicon", lex])
        assert code == 2
        assert "DUPLICATE_MARKER" in err

    def test_bad_policy_exits_2(self, tmp_path):
        pol = tmp_path / "bad.policy"
        pol.write_text("x denywhen y >= 0.5\n")
        code, _, err = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_angry.stream",
                "--resource", "x",
                "--policy", pol,
            ]
        )
        assert code == 2
        assert "BAD_RULE" in err

    def test_decide_at_nan_exits_2(self):
        # Without --at this stream is denied; a NaN time must not turn it into allow.
        code, out, err = run_cli(
            [
                "decide",
                "--evidence", FIXTURES / "streams" / "jack_angry.stream",
                "--resource", "hazardous-tool",
                "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
                "--at", "nan",
            ]
        )
        assert code == 2
        assert out == ""
        assert "BAD_TIME" in err

    def test_out_of_range_config_exits_2(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("ambiguity_epsilon = 2\n")
        code, _, err = run_cli(
            ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream", "--config", cfg]
        )
        assert code == 2
        assert "BAD_CONFIG" in err

    def test_strict_escalates_parser_and_validator_warnings_once(self, tmp_path):
        path = tmp_path / "w.xml"
        path.write_bytes(b'<emotion category="x" hide="0"/>')
        lines = [
            f"{path}: {{}} REGULATION_ALIAS regulation 'hide' read as 'suppress' [item[0]]",
            f"{path}: {{}} NOOP_REGULATION suppress=0 has no effect [annotation.suppress]",
        ]
        code, _, err = run_cli(["validate", path])
        assert (code, err.splitlines()) == (0, [line.format("warning") for line in lines])
        code, _, err = run_cli(["validate", path, "--strict"])
        assert (code, err.splitlines()) == (2, [line.format("error") for line in lines])

    def test_two_attributes_for_one_value_is_an_error(self, tmp_path):
        path = tmp_path / "d.xml"
        path.write_bytes(b'<emotion category="a" href="one.wav" xlink:href="two.wav"/>')
        code, _, err = run_cli(["validate", path])
        assert (code, err) == (
            2,
            f"{path}: error DUPLICATE_ATTRIBUTE attributes 'href' and 'xlink:href'"
            " give one value; neither is kept\n",
        )


# An annotation whose intensity is out of range: a RANGE error wherever it is read from.
OUT_OF_RANGE = b'<emotion category="x" intensity="9"/>'


def run_on_fifo(tmp_path, command, data):
    """Run ``command`` on a FIFO that a writer thread feeds ``data``."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # A daemon: if the command never opens the pipe, the writer waits unseen.
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    result = run_cli([command, fifo])
    writer.join(timeout=10)
    assert not writer.is_alive()  # the command read the pipe to its end
    return fifo, result


class TestCorpusPath:
    """validate and stats walk a directory and read any other path as one document."""

    def test_validate_reads_dev_null_as_a_document(self):
        code, _, err = run_cli(["validate", os.devnull])
        assert code == 2
        assert err == f"{os.devnull}: error MALFORMED_XML no element found: line 1, column 0\n"

    def test_stats_counts_dev_null_as_a_broken_file(self):
        code, out, _ = run_cli(["stats", os.devnull, "--json"])
        counts = json.loads(out)
        assert code == 0
        assert (counts["files_scanned"], counts["error_count"]) == (1, 1)

    def test_validate_reads_a_fifo(self, tmp_path):
        fifo, (code, _, err) = run_on_fifo(tmp_path, "validate", OUT_OF_RANGE)
        assert code == 2
        assert err == (
            f"{fifo}: error RANGE intensity=9.0 outside [0.0, 1.0] [annotation.intensity]\n"
        )

    def test_stats_reads_a_fifo(self, tmp_path):
        _, (code, out, _) = run_on_fifo(tmp_path, "stats", OUT_OF_RANGE)
        rows = dict(line.split("\t") for line in out.splitlines())
        assert code == 0
        assert (rows["files_scanned"], rows["error_count"], rows["annotations_count"]) == (
            "1", "1", "1"
        )


ANGRY = FIXTURES / "streams" / "jack_angry.stream"
POLICY = FIXTURES / "policies" / "hazardous_tool.policy"
BEHAVIORS = FIXTURES / "profiles" / "behaviors.xml"


def decide(evidence=ANGRY, *extra):
    return run_cli(
        ["decide", "--evidence", evidence, "--resource", "hazardous-tool", "--policy", POLICY,
         *extra]
    )


class TestStreamProfile:
    # A label no behavior knows is fused as a category of its own, so
    # without --profile these streams are allowed where `anger` is denied.
    @staticmethod
    def labelled(tmp_path, label):
        stream = tmp_path / "s.stream"
        stream.write_text(
            f"0 language_voice {label} 0.9 0.9\n0.5 movement_kinetic {label} 0.8 0.9\n"
        )
        return stream

    @pytest.mark.parametrize("label", ["Anger", "rage", "surprise"])
    def test_category_outside_the_profile_exits_2(self, tmp_path, label):
        stream = self.labelled(tmp_path, label)
        assert decide(stream)[:2] == (0, "allow\tno rule matched\n")
        message = f"earlkit: BAD_STREAM: {stream}: line 1: category {label!r} not in profile\n"
        assert decide(stream, "--profile", BEHAVIORS) == (2, "", message)
        assert run_cli(["fuse", "--evidence", stream, "--profile", BEHAVIORS]) == (2, "", message)

    def test_known_category_is_still_denied(self, tmp_path):
        stream = self.labelled(tmp_path, "anger")
        assert decide(stream, "--profile", BEHAVIORS) == decide(stream)
        assert decide(stream)[0] == 3

    def test_unknown_label_cannot_dilute_a_known_one(self, tmp_path):
        # The extra source pulls anger below the rule's 0.6 threshold.
        stream = tmp_path / "s.stream"
        stream.write_text(ANGRY.read_text() + "0.5 face Anger 0.9 0.9\n")
        assert decide(stream)[0] == 0
        assert decide(stream, "--profile", BEHAVIORS) == (
            2, "", f"earlkit: BAD_STREAM: {stream}: line 4: category 'Anger' not in profile\n"
        )

    def test_profile_that_allows_every_category_changes_nothing(self, tmp_path):
        profile = tmp_path / "p.xml"
        profile.write_text(
            "<profile><category>sadness</category><category>grief</category></profile>"
        )
        calm = FIXTURES / "streams" / "jack_calm.stream"
        for extra in [(), ("--at", "3")]:
            assert decide(ANGRY, "--profile", BEHAVIORS, *extra) == decide(ANGRY, *extra)
            assert decide(calm, "--profile", profile, *extra) == decide(calm, *extra)
        fuse = ["fuse", "--evidence", ANGRY]
        assert run_cli([*fuse, "--profile", BEHAVIORS]) == (0, golden("fuse_jack.xml"), "")

    @pytest.mark.parametrize("text, code", [
        ("<profile><category> </category></profile>", "EMPTY_PROFILE_ENTRY"),
        ('<!DOCTYPE profile SYSTEM "p.dtd"><profile><category>&anger;</category></profile>',
         "DTD_NOT_ALLOWED"),
    ])
    def test_profile_that_would_read_as_the_wildcard_exits_2(self, tmp_path, text, code):
        # Read as the wildcard profile, it would let `rage` through to allow.
        profile = tmp_path / "p.xml"
        profile.write_text(text)
        status, out, err = decide(self.labelled(tmp_path, "rage"), "--profile", profile)
        assert (status, out) == (2, "")
        assert err.startswith(f"earlkit: {code}: {profile}: profile: "), err

    def test_unreadable_profile_exits_2(self, tmp_path):
        profile = tmp_path / "p.xml"
        profile.write_text("<profile><categories>anger</categories></profile>")
        code, out, err = decide(ANGRY, "--profile", profile)
        assert (code, out) == (2, "")
        assert err.startswith(f"earlkit: UNKNOWN_PROFILE_ELEMENT: {profile}: ")
        code, out, err = decide(ANGRY, "--profile", tmp_path / "missing.xml")
        assert (code, out) == (2, "")


class TestFailClosedInputs:
    # Without these inputs jack_angry.stream is denied (exit 3); none may
    # turn it into allow.
    @pytest.mark.parametrize(
        "text", ["decay_lambda = nan", "drop_floor = 7", "weight.movement_kinetic = -5"]
    )
    def test_bad_config_value_exits_2(self, tmp_path, text):
        assert decide()[0] == 3
        cfg = tmp_path / "f.cfg"
        cfg.write_text(text + "\n")
        code, out, err = decide(ANGRY, "--config", cfg)
        assert (code, out) == (2, "")
        assert "BAD_CONFIG" in err

    def test_overflowing_weights_exit_2(self, tmp_path):
        # Each weight is finite, but their sum is not: inf / inf scores are
        # NaN, and no rule fires on NaN.
        cfg = tmp_path / "f.cfg"
        cfg.write_text("weight.language_voice = 1e308\nweight.movement_kinematic = 1e308\n")
        code, out, err = decide(ANGRY, "--config", cfg)
        assert (code, out) == (2, "")
        assert err == "earlkit: WEIGHT_OVERFLOW: evidence weights sum to inf\n"

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_stream_timestamp_exits_2(self, tmp_path, t):
        stream = tmp_path / "s.stream"
        stream.write_text(f"{t} face joy 0.9 0.9\n" + ANGRY.read_text())
        code, out, err = decide(stream)
        assert (code, out) == (2, "")
        assert err == (
            f"earlkit: BAD_STREAM: {stream}: line 1: timestamp={float(t)} is not a finite time\n"
        )

    @pytest.mark.parametrize("text", ["", "# nothing\n\n   \n"])
    @pytest.mark.parametrize("command", ["fuse", "decide"])
    def test_stream_without_evidence_line_exits_2(self, tmp_path, command, text):
        # A truncated or mistyped stream must not be read as calm evidence:
        # decide would answer allow.
        stream = tmp_path / "s.stream"
        stream.write_text(text)
        argv = ["--evidence", stream]
        if command == "decide":
            argv += ["--resource", "hazardous-tool", "--policy", POLICY]
        code, out, err = run_cli([command, *argv])
        assert (code, out) == (2, "")
        assert err == f"earlkit: BAD_STREAM: {stream}: no evidence line\n"

    @pytest.mark.parametrize("command", ["fuse", "decide"])
    def test_stream_time_regression_names_its_line(self, tmp_path, command):
        # A line behind an earlier one is the stream file's fault, named
        # with its file and line as every other bad line is.
        stream = tmp_path / "s.stream"
        stream.write_text("0 face anger 0.9 1\n2 face joy 0.5 1\n1 language_voice anger 0.8 1\n")
        argv = [command, "--evidence", stream]
        if command == "decide":
            argv += ["--resource", "hazardous-tool", "--policy", POLICY]
        assert run_cli(argv) == (2, "", (
            f"earlkit: TIME_REGRESSION: {stream}: line 3: evidence at t=1.0 behind clock t=2.0\n"
        ))

    @pytest.mark.parametrize("faint, at", [(True, ()), (False, ("--at", "60"))])
    @pytest.mark.parametrize("command", ["fuse", "decide"])
    def test_no_live_evidence_exits_2(self, tmp_path, command, faint, at):
        # Every line decayed below drop_floor, or seen below it: an empty
        # estimate used to make decide answer allow.
        stream = ANGRY
        if faint:
            stream = tmp_path / "s.stream"
            stream.write_text("0 face anger 0.04 1.0\n")
        argv = [command, "--evidence", stream, *at]
        if command == "decide":
            argv += ["--resource", "hazardous-tool", "--policy", POLICY]
        t = 0.0 if faint else 60.0
        assert run_cli(argv) == (
            2, "", f"earlkit: NO_SIGNAL: {stream}: no evidence is live at t={t}\n"
        )

    @pytest.mark.parametrize(
        "kind, code_name",
        [
            ("stream", "BAD_STREAM"),
            ("config", "BAD_CONFIG"),
            ("policy", "BAD_RULE"),
            ("features", "BAD_FEATURE"),
            ("lexicon", "BAD_LEXICON"),
        ],
    )
    def test_non_utf8_file_exits_2(self, tmp_path, kind, code_name):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(
            {
                "stream": b"0 face anger 0.9 0.9\n1 face \xff 0.5 0.5\n",
                "config": b"decay_lambda = 0.1\n# \xff\n",
                "policy": b"# ok\nhazardous-tool deny_when aggressive >= 0.5 \xff\n",
                "features": b"mean_f0=up\n\xff=up\n",
                "lexicon": b"joy: happy\nfear: \xfe\n",
            }[kind]
        )
        argv = {
            "stream": ["fuse", "--evidence", bad],
            "config": ["fuse", "--evidence", ANGRY, "--config", bad],
            "policy": ["decide", "--evidence", ANGRY, "--resource", "x", "--policy", bad],
            "features": ["classify", "--voice", bad],
            "lexicon": ["annotate", "--text", "happy", "--lexicon", bad],
        }[kind]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        where = f"{bad}: line 2"
        assert err == f"earlkit: {code_name}: {where}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("kind", ["stream", "config", "policy", "features", "lexicon"])
    def test_a_byte_order_mark_reads_as_nothing(self, tmp_path, kind):
        data = {
            "stream": b"0.0 language_voice anger 1.0 1.0\n0.5 face anger 0.9 0.7\n",
            "config": b"decay_lambda = 0.1\nweight.face = 0.8\n",
            # A mark read into the first rule's resource keeps that rule from
            # matching, and the policy allows.
            "policy": b"hazardous-tool deny_when aggressive >= 0.6\n"
                      b"hazardous-tool deny_when protective >= 0.7\n",
            "features": b"mean_f0=up\nmean_energy=up\n",
            "lexicon": b"joy: happy\nfear: afraid\n",
        }[kind]
        outputs = []
        for name, raw in (("plain", data), ("bom", b"\xef\xbb\xbf" + data)):
            path = tmp_path / f"{name}.{kind}"
            path.write_bytes(raw)
            argv = {
                "stream": ["fuse", "--evidence", path],
                "config": ["fuse", "--evidence", ANGRY, "--config", path],
                "policy": ["decide", "--evidence", ANGRY, "--resource", "hazardous-tool",
                           "--policy", path],
                "features": ["classify", "--voice", path],
                "lexicon": ["annotate", "--text", "happy", "--lexicon", path],
            }[kind]
            outputs.append(run_cli(argv))
        code, out, err = outputs[0]
        assert outputs[1] == (code, out, err)
        assert (code, err) == (3 if kind == "policy" else 0, "")
        if kind == "lexicon":
            assert 'category="joy"' in out

    def test_profile_of_unknown_elements_exits_2(self, tmp_path):
        (tmp_path / "rage.xml").write_bytes(b'<emotion category="rage"/>')
        profile = tmp_path / "typo.profile"
        profile.write_bytes(b"<profile><categories>joy</categories></profile>")
        code, _, err = run_cli(["validate", tmp_path / "rage.xml", "--profile", profile])
        assert code == 2
        assert "UNKNOWN_PROFILE_ELEMENT" in err and "<categories>" in err
        profile.write_bytes(b"<profile/>")
        assert run_cli(["validate", tmp_path / "rage.xml", "--profile", profile])[0] == 0

    def test_profile_with_one_unknown_element_exits_2(self, tmp_path):
        # Ignored, the <modalty> typo left modality a wildcard: telepathy passed.
        doc = tmp_path / "rage.xml"
        doc.write_bytes(b'<emotion category="rage" modality="telepathy"/>')
        profile = tmp_path / "typo.profile"
        profile.write_bytes(b"<profile><category>rage</category><modalty>face</modalty></profile>")
        code, _, err = run_cli(["validate", doc, "--profile", profile])
        assert code == 2
        assert err.startswith(
            f"earlkit: UNKNOWN_PROFILE_ELEMENT: {profile}: profile: unknown element <modalty>"
        )

    def test_unknown_behavior_policy_exits_2(self, tmp_path):
        # Loaded, the misspelt rule never matched and this stream was allowed.
        policy = tmp_path / "typo.policy"
        policy.write_text("hazardous-tool deny_when agressive >= 0.5\n")
        code, out, err = run_cli(
            ["decide", "--evidence", ANGRY, "--resource", "hazardous-tool", "--policy", policy]
        )
        assert (code, out) == (2, "")
        assert err == f"earlkit: UNKNOWN_BEHAVIOR: {policy}: line 1: unknown behavior 'agressive'\n"


# ---------------------------------------------------------------------------
# Generated input files: NaN, infinities, overflow, non-numbers, non-UTF-8
# bytes and unknown labels in every line format the CLI reads.

NUMBERS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "-1", "1.5", "1e400", "nan", "inf", "-inf", "lots"]),
    st.floats().map(repr),
)


def words(*parts):
    return st.tuples(*parts).map(" ".join)


@st.composite
def line_file(draw, line):
    """A file of generated lines, comments and blank lines; maybe a non-UTF-8 byte."""
    lines = draw(st.lists(st.one_of(line, st.just(""), st.just("# note")), max_size=6))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


SOURCES = st.sampled_from([*SOURCE_WEIGHTS, "telepathy"])
CATEGORIES = st.sampled_from(["anger", "joy", "sadness", "fear", "surprise", "rage"])
UNIT = st.floats(0, 1).map(repr)
# Floats alone draw 0.0 and tiny values often, and their fused scores mostly
# fall below the constituent threshold; round values let fuse print.
ROUND = st.sampled_from(["0.5", "0.8", "1"])
STRENGTH = ROUND | UNIT
# Valid lines in time order, so fusion and the decision run too.
VALID_STREAM_FILES = st.lists(
    st.tuples(
        st.floats(0, 5), st.sampled_from(list(SOURCE_WEIGHTS)), CATEGORIES, STRENGTH, STRENGTH
    ),
    max_size=6,
).map(
    lambda items: "\n".join(f"{t!r} {s} {c} {p} {i}" for t, s, c, p, i in sorted(items)).encode()
)
STREAM_FILES = st.one_of(
    line_file(words(NUMBERS, SOURCES, CATEGORIES, NUMBERS, NUMBERS)),
    line_file(words(NUMBERS, SOURCES, CATEGORIES)),
    VALID_STREAM_FILES,
)
CONFIG_FILES = line_file(
    st.one_of(
        st.tuples(
            st.sampled_from([
                "ambiguity_epsilon", "constituent_threshold", "decay_lambda", "drop_floor",
                "weight.telepathy", "volume", *(f"weight.{s}" for s in SOURCE_WEIGHTS),
            ]),
            NUMBERS,
        ).map(" = ".join),
        st.just("decay_lambda 0.5"),
    )
)
def config_files(values):
    """Config files of up to four knobs, each set to one of ``values``."""
    knobs = st.sampled_from([
        "ambiguity_epsilon", "constituent_threshold", "decay_lambda", "drop_floor",
        *(f"weight.{s}" for s in SOURCE_WEIGHTS),
    ])
    lines = st.lists(st.tuples(knobs, values).map(" = ".join), max_size=4)
    return lines.map(lambda lines: "\n".join(lines).encode())


# Every knob in range, so the file is read and each setting reaches fusion.
VALID_CONFIG_FILES = config_files(UNIT)
ROUND_CONFIG_FILES = config_files(st.sampled_from(["0", "0.1", "0.2", "0.5"]))
POLICY_FILES = line_file(
    words(
        st.sampled_from(["hazardous-tool", "door"]),
        st.sampled_from(["deny_when", "deny"]),
        st.sampled_from([*sorted(set(BEHAVIOR_FOR_EMOTION.values())), "agressive", "anger"]),
        st.sampled_from([">=", ">"]),
        NUMBERS,
    )
)
FEATURE_FILES = line_file(
    st.tuples(
        st.sampled_from([*VOICE_FIELDS, *MOVEMENT_FIELDS, "loudness", ""]),
        st.sampled_from(["up", "down", "flat", "downward", "short", "long", "neutral", "sideways"]),
    ).map("=".join)
)
PROFILE_CATEGORIES = st.frozensets(CATEGORIES, max_size=4)


def profile_file(categories) -> bytes:
    return "".join(
        ["<profile>", *(f"<category>{c}</category>" for c in sorted(categories)), "</profile>"]
    ).encode()


PROFILE_FILES = st.one_of(
    PROFILE_CATEGORIES.map(profile_file),
    st.just(b"<profile><categories>anger</categories></profile>"),
    st.just(b"<profile><category>ang\xffer</category></profile>"),
)
LEXICON_FILES = line_file(
    st.tuples(
        st.sampled_from(["joy", "fear", "rage", ""]),
        st.lists(st.sampled_from(["happy", "glad", "afraid", "goose bumps", "!!"]), max_size=3),
    ).map(lambda entry: f"{entry[0]}: {', '.join(entry[1])}")
)


@st.composite
def bad_stream_line(draw):
    """A stream line the reader must reject, built from a valid one."""
    fields = ["1.0", "face", "anger", "0.5", "0.5"]
    kind = draw(st.sampled_from(["t", "source", "p", "i", "count", "bytes"]))
    if kind == "t":
        fields[0] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "soon"]))
    elif kind == "source":
        fields[1] = draw(st.sampled_from(["telepathy", "voice", "Face"]))
    elif kind in ("p", "i"):
        fields[3 if kind == "p" else 4] = draw(
            st.one_of(
                st.sampled_from(["nan", "inf", "-inf", "1e400", "lots"]),
                st.floats(allow_nan=False).filter(lambda x: not 0 <= x <= 1).map(repr),
            )
        )
    elif kind == "count":
        at = draw(st.integers(0, 4))
        fields[at:at + 1] = draw(st.sampled_from([[], ["0.5", "0.5"]]))
    line = " ".join(fields).encode()
    return line.replace(b"anger", b"ang\xffer") if kind == "bytes" else line


def _run_as_the_oracles_compose(stream, config, policy, profile, at, resource):
    """Run fuse and decide on these file bytes (a profile of None is not given);
    each exits and prints as oracles.run_stream composes, or exits 2 silently
    when a file other than the stream does not load."""
    loaded = {}
    for name, data, load in [("cfg", config, load_config), ("policy", policy, load_policy),
                             ("profile", profile, load_profile)]:
        try:
            loaded[name] = None if data is None else load(data)
        except EarlError:
            loaded[name] = EarlError
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in [("stream", stream), ("config", config), ("policy", policy),
                           ("profile", profile)]:
            if data is not None:
                files[name] = Path(tmp) / name
                files[name].write_bytes(data)
        options = ["--config", files["config"]]
        if profile is not None:
            options += ["--profile", files["profile"]]
        if at is not None:
            options.append(f"--at={at!r}")
        for command, extra in [("fuse", []), ("decide", ["--resource", resource,
                                                         "--policy", files["policy"]])]:
            code, out, err = run_cli([command, "--evidence", files["stream"], *extra,
                                      *options])
            needed = ("cfg", "profile") + (("policy",) if command == "decide" else ())
            if any(loaded[name] is EarlError for name in needed):
                expected = (2, b"")
            else:
                expected = oracles.run_stream(
                    stream, command, loaded["cfg"], at, loaded["profile"],
                    loaded["policy"], resource,
                )
            assert (code, out.encode()) == expected, (command, err)


class TestGeneratedFiles:
    @settings(deadline=None)
    @given(stream=STREAM_FILES, config=CONFIG_FILES, policy=POLICY_FILES,
           features=FEATURE_FILES, lexicon=LEXICON_FILES, profile=PROFILE_FILES)
    def test_every_run_exits_0_2_or_3(self, stream, config, policy, features, lexicon, profile):
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for name, data in [("stream", stream), ("config", config), ("policy", policy),
                               ("features", features), ("lexicon", lexicon),
                               ("profile", profile)]:
                files[name] = Path(tmp) / name
                files[name].write_bytes(data)
            runs = [
                (["fuse", "--evidence", files["stream"]], (0, 2)),
                (["fuse", "--evidence", files["stream"], "--profile", files["profile"]], (0, 2)),
                (["decide", "--evidence", files["stream"], "--resource", "hazardous-tool",
                  "--policy", POLICY, "--profile", files["profile"]], (0, 2, 3)),
                (["fuse", "--evidence", ANGRY, "--config", files["config"]], (0, 2)),
                (["decide", "--evidence", files["stream"], "--resource", "hazardous-tool",
                  "--policy", files["policy"]], (0, 2, 3)),
                (["decide", "--evidence", ANGRY, "--resource", "hazardous-tool",
                  "--policy", POLICY, "--config", files["config"]], (0, 2, 3)),
                (["classify", "--voice", files["features"]], (0, 2)),
                (["classify", "--movement", files["features"]], (0, 2)),
                (["annotate", "--text", "happy, glad, afraid", "--lexicon", files["lexicon"]],
                 (0, 2)),
            ]
            for argv, codes in runs:
                code, out, err = run_cli(argv)
                assert code in codes, (argv, err)
                assert (out == "") == (code == 2), (argv, out, err)

    # Both rules fire; the first one in the file names the verdict, as
    # decide_access's docstring requires.
    @example(
        stream=b"0 face anger 1 1\n0 language_voice fear 1 1\n", config=b"",
        policy=b"hazardous-tool deny_when aggressive >= 0.3\n"
               b"hazardous-tool deny_when protective >= 0.3\n",
        profile=None, at=None, resource="hazardous-tool",
    )
    # The profile is checked whatever other file is given.
    @example(
        stream=b"0 face rage 1 1\n", config=b"decay_lambda = 0.5\n", policy=POLICY.read_bytes(),
        profile=profile_file({"anger"}), at=None, resource="hazardous-tool",
    )
    # A leading byte-order mark is nothing, as in every line format.
    @example(
        stream=b"\xef\xbb\xbf0 face anger 0.9 1\n", config=b"", policy=POLICY.read_bytes(),
        profile=None, at=None, resource="hazardous-tool",
    )
    # Most generated files are refused; valid files and times let more runs
    # reach fusion and the decision.
    @settings(deadline=None)
    @given(stream=VALID_STREAM_FILES.filter(bool) | STREAM_FILES,
           config=VALID_CONFIG_FILES | CONFIG_FILES,
           policy=st.just(POLICY.read_bytes()) | POLICY_FILES,
           profile=st.none() | PROFILE_CATEGORIES.map(profile_file) | PROFILE_FILES,
           at=st.none() | st.floats(0, 10) | st.floats(),
           resource=st.sampled_from(["hazardous-tool", "door"]))
    def test_fuse_and_decide_print_what_the_oracles_compose(
        self, stream, config, policy, profile, at, resource
    ):
        _run_as_the_oracles_compose(stream, config, policy, profile, at, resource)

    # Only inputs that load, so that most runs reach fusion's output and the
    # decision: two or three categories at round strengths, round knobs, the
    # fixture rule or the same rule at a lower threshold, which denies more
    # often, and --at unset or at or after the last line.
    @settings(deadline=None)
    @given(data=st.data(), categories=st.lists(CATEGORIES, min_size=2, max_size=3, unique=True),
           config=ROUND_CONFIG_FILES,
           policy=st.sampled_from([POLICY.read_bytes(), *(
               f"hazardous-tool deny_when aggressive >= {threshold}\n".encode()
               for threshold in ("0.2", "0.3")
           )]))
    def test_loadable_inputs_print_what_the_oracles_compose(
        self, data, categories, config, policy
    ):
        lines = data.draw(st.lists(
            st.tuples(st.floats(0, 5), st.sampled_from(list(SOURCE_WEIGHTS)),
                      st.sampled_from(categories), ROUND, ROUND),
            min_size=1, max_size=6,
        ).map(sorted))
        stream = "\n".join(f"{t!r} {s} {c} {p} {i}" for t, s, c, p, i in lines).encode()
        profile = data.draw(st.none() | st.just(profile_file(categories)))
        at = data.draw(st.none() | st.sampled_from([0.0, 0.5, 1.0]).map(lines[-1][0].__add__))
        _run_as_the_oracles_compose(stream, config, policy, profile, at, "hazardous-tool")

    @settings(deadline=None)
    @given(stream=STREAM_FILES, categories=PROFILE_CATEGORIES)
    def test_profile_only_rejects_categories_outside_it(self, stream, categories):
        # The state load_stream returns keeps one line per source, so the
        # categories come from every evidence line, read by the oracle.
        try:
            load_stream(stream)
            streamed = {e.annotation.category for e in oracles._stream(stream, None)}
        except FusionError:
            streamed = None
        with tempfile.TemporaryDirectory() as tmp:
            evidence, profile = Path(tmp) / "stream", Path(tmp) / "profile.xml"
            evidence.write_bytes(stream)
            profile.write_bytes(profile_file(categories))
            for argv in (["fuse", "--evidence", evidence],
                         ["decide", "--evidence", evidence, "--resource", "hazardous-tool",
                          "--policy", POLICY]):
                plain = run_cli(argv)
                code, out, err = run_cli([*argv, "--profile", profile])
                if streamed is None:
                    assert (code, out) == (2, "") and plain[0] == 2, err
                elif not categories or streamed <= categories:  # empty: the wildcard
                    assert (code, out, err) == plain
                else:
                    assert (code, out) == (2, ""), err
                    assert err.startswith(f"earlkit: BAD_STREAM: {evidence}: line "), err
                    assert err.endswith(" not in profile\n"), err

    @settings(deadline=None)
    @given(resource=st.one_of(
        st.sampled_from(["hazardous_tool", "Hazardous-tool", "hazardous-tool ", "hazardous", ""]),
        st.text(),
    ).filter(lambda r: r != "hazardous-tool"))
    def test_resource_no_rule_names_exits_2(self, resource):
        # jack_angry.stream is denied for hazardous-tool; a near miss must
        # not turn that into allow.
        code, out, err = run_cli(
            ["decide", "--evidence", ANGRY, f"--resource={resource}", "--policy", POLICY]
        )
        assert (code, out) == (2, ""), err
        assert err.startswith(f"earlkit: UNKNOWN_RESOURCE: {POLICY}: no rule names "), err

    @settings(deadline=None)
    @given(bad=bad_stream_line(), at=st.integers(0, len(ANGRY.read_bytes().splitlines())))
    def test_one_bad_line_in_a_denied_stream_exits_2(self, bad, at):
        lines = ANGRY.read_bytes().splitlines(keepends=True)
        with tempfile.TemporaryDirectory() as tmp:
            stream = Path(tmp) / "s.stream"
            stream.write_bytes(b"".join(lines[:at]) + bad + b"\n" + b"".join(lines[at:]))
            code, out, err = decide(stream)
        assert (code, out) == (2, ""), err
        assert err.startswith(f"earlkit: BAD_STREAM: {stream}: line {at + 1}: "), err


# ---------------------------------------------------------------------------
# Line numbers: a line ends at \n, \r\n or \r, in the error of a bad line
# and in that of a byte that is not UTF-8 alike.

# The characters str.splitlines breaks at besides \n and \r; strip() and
# split() read each as space.
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Per line reader: its call, a valid line (the line's index given) and lines it
# rejects.  A stream's -1 is behind the clock wherever it stands, as no valid
# line's time is below 0: its error comes from update_temporal, not from the
# line's own reader.
LINE_READERS = {
    "config": (load_config, lambda i: f"decay_lambda = 0.{i % 10}", ["drop_floor = 2"]),
    "stream": (load_stream, lambda i: f"{i} face anger 0.5 1",
               ["1 face anger 2 1", "-1 face anger 0.5 1"]),
    "policy": (load_policy, lambda i: f"door{i} deny_when aggressive >= 0.5",
               ["door deny_when agressive >= 0.5"]),
    "lexicon": (load_lexicon, lambda i: "joy: happy, glad", ["joy:"]),
    "features": (lambda data: load_features(data, VoiceFeatureDelta), lambda i: "mean_f0=up",
                 ["loudness=up"]),
}


@st.composite
def numbered_file(draw, good, last):
    """Valid, blank and comment lines, then ``last``, then more valid lines,
    each padded with other breaks and joined by random line ends; returns
    the text and the number of ``last``'s line."""
    kinds = draw(st.lists(st.sampled_from(["good", "", "# note"]), max_size=5))
    lines = [good(i) if kind == "good" else kind for i, kind in enumerate(kinds)]
    line_no = len(lines) + 1
    lines += [last, *map(good, range(line_no, line_no + draw(st.integers(0, 2))))]
    breaks = st.text(st.sampled_from(OTHER_BREAKS), max_size=2)
    parts, end = [], ""
    for line in lines:
        line = draw(breaks) + line.replace(" ", draw(st.sampled_from(" " + OTHER_BREAKS)))
        line += draw(breaks)
        # "\r" then an empty line's "\n" would read as one "\r\n".
        ends = ["\r"] if end == "\r" and not line else ["\n", "\r\n", "\r"]
        end = draw(st.sampled_from(ends))
        parts += [line, end]
    if draw(st.booleans()):
        parts.pop()
    return "".join(parts), line_no


class TestLineNumbers:
    @pytest.mark.parametrize(
        "data, line",
        [
            (b"0.0 face anger 0.5 1.0\x0c\n0.5 face anger 2 1\n", "line 2: probability="),
            ("0 face anger 0.5 1\u2028\r\n\x851 face anger 2 1", "line 2: probability="),
            (b"0 face anger 0.5 1\r1 face anger 2 1\r", "line 2: probability="),
            (b"# t source category p i\r\r0 face \xff 0.5 1\r", "line 3: not UTF-8"),
        ],
    )
    def test_only_cr_and_lf_end_a_line(self, data, line):
        with pytest.raises(FusionError) as exc:
            load_stream(data)
        assert exc.value.message.startswith(line)

    @settings(deadline=None)
    @given(reader=st.sampled_from(sorted(LINE_READERS)), bad_byte=st.booleans(),
           as_text=st.booleans(), data=st.data())
    def test_both_error_paths_name_the_line(self, reader, bad_byte, as_text, data):
        load, good, bad_lines = LINE_READERS[reader]
        bad = data.draw(st.sampled_from(bad_lines))
        # \x00 stands for the byte that is not UTF-8; no line holds it otherwise.
        text, line_no = data.draw(numbered_file(good, good(99) + " \x00" if bad_byte else bad))
        raw = text.encode().replace(b"\x00", b"\xff")
        with pytest.raises(EarlError) as exc:
            load(text if as_text and not bad_byte else raw)
        expected = f"line {line_no}: not UTF-8 text" if bad_byte else f"line {line_no}: "
        assert exc.value.message.startswith(expected), (text, exc.value.message)
