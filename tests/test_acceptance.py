"""Acceptance criteria, one test per criterion.

The conftest hook prints a PASS/FAIL line per criterion when the suite
runs; everything here executes at desk scale (well under ten seconds).
"""

import itertools
import math
import random

import pytest

from earlkit.earl_xml import parse_document, serialize_document
from earlkit.errors import ParseError
from earlkit.fusion import (
    FusionConfig,
    MarkerEvidence,
    TemporalState,
    fill_missing,
    fuse_instant,
    update_temporal,
)
from earlkit.markers import (
    MOVEMENT_PATTERNS,
    VOICE_PATTERNS,
    MovementDescriptor,
    VoiceFeatureDelta,
    classify_movement,
    classify_voice,
    default_lexicon,
    tag_lexical,
)
from earlkit.model import (
    SOURCE_WEIGHTS,
    EmotionAnnotation,
    behavior_for_emotion,
    validate_annotation,
)
from earlkit.needs import infer_needs

import generators
from support import FIXTURES, golden, run_cli

SNIPPETS = [
    "inline_text.xml",
    "inline_standoff.xml",
    "inline_timespan.xml",
    "fig1.xml",
    "fig2.xml",
    "fig3.xml",
    "fig4.xml",
]


def test_c1_figure_fidelity():
    for name in SNIPPETS:
        data = (FIXTURES / "earl" / name).read_bytes()
        doc = parse_document(data)
        assert doc.items, name
        assert parse_document(serialize_document(doc)) == doc, name

    masking = parse_document((FIXTURES / "earl" / "fig4.xml").read_bytes())
    first, second = masking.items[0].constituents
    assert first.regulation == {"simulate": 0.8}
    assert second.regulation == {"suppress": 0.5}


def test_c2_table_fidelity():
    # emotion -> motivated behavior, all six rows
    assert behavior_for_emotion("desire") == "searching"
    assert behavior_for_emotion("anger") == "aggressive"
    assert behavior_for_emotion("fear") == "protective"
    assert behavior_for_emotion("sadness") == "dejected"
    assert behavior_for_emotion("joy") == "gratulant"
    assert behavior_for_emotion("affection") == "caressive"

    # every bundled lexical marker maps back to exactly its emotion
    lexicon = default_lexicon()
    for emotion, markers in lexicon.entries.items():
        for marker in markers:
            tagged = tag_lexical(marker, lexicon)
            assert [a.category for a, _ in tagged] == [emotion], marker

    # each voice row, built verbatim, comes back ranked first at full score
    for emotion, pattern in VOICE_PATTERNS.items():
        if not pattern:
            continue
        ranked = classify_voice(VoiceFeatureDelta(**pattern))
        assert ranked[0].label == emotion
        assert ranked[0].score == 1.0

    # same for each movement row
    for emotion, pattern in MOVEMENT_PATTERNS.items():
        ranked = classify_movement(MovementDescriptor(**pattern))
        assert ranked[0].label == emotion
        assert ranked[0].score == 1.0

    # disgust scores zero over the entire voice-feature space
    directions = ("up", "down", "flat")
    contours = ("downward", "upward", "flat")
    for combo in itertools.product(
        directions, directions, directions, directions, directions, contours, directions
    ):
        scores = {r.label: r.score for r in classify_voice(VoiceFeatureDelta(*combo))}
        assert scores["disgust"] == 0.0


def _evidence(category, source, p, i, t=0.0):
    return MarkerEvidence(
        annotation=EmotionAnnotation(
            category=category, probability=p, intensity=i, modality="face"
        ),
        source=source,
        timestamp=t,
    )


def _brute_force(items):
    total = sum(w for _, w, _, _ in items)
    scores = {}
    for category, w, p, i in items:
        scores[category] = scores.get(category, 0.0) + w * p * i
    return {category: value / total for category, value in scores.items()}


def test_c3_fusion_oracle():
    sources = sorted(SOURCE_WEIGHTS)
    grid = [round(0.1 * k, 1) for k in range(11)]
    categories = ["anger", "joy"]

    # all size-1 evidence sets on the full 0.1 grid
    for category, source, p, i in itertools.product(categories, sources, grid, grid):
        f = fuse_instant([_evidence(category, source, p, i)])
        for label, value in _brute_force([(category, SOURCE_WEIGHTS[source], p, i)]).items():
            assert abs(f.scores[label] - value) <= 1e-9

    # all size-2 sets over the probability grid (intensity pinned at 1.0)
    items = list(itertools.product(categories, sources, grid))
    for (c1, s1, p1), (c2, s2, p2) in itertools.combinations_with_replacement(items, 2):
        f = fuse_instant([_evidence(c1, s1, p1, 1.0), _evidence(c2, s2, p2, 1.0)])
        expected = _brute_force(
            [(c1, SOURCE_WEIGHTS[s1], p1, 1.0), (c2, SOURCE_WEIGHTS[s2], p2, 1.0)]
        )
        for label, value in expected.items():
            assert abs(f.scores[label] - value) <= 1e-9

    # densely sampled size-3 sets on the full grid
    rng = random.Random(20260809)
    for _ in range(5000):
        spec = [
            (rng.choice(categories), rng.choice(sources), rng.choice(grid), rng.choice(grid))
            for _ in range(3)
        ]
        f = fuse_instant([_evidence(c, s, p, i) for c, s, p, i in spec])
        expected = _brute_force([(c, SOURCE_WEIGHTS[s], p, i) for c, s, p, i in spec])
        for label, value in expected.items():
            assert abs(f.scores[label] - value) <= 1e-9

    # permutation invariance and weight-scaling argmax stability, 1000 cases
    for _ in range(1000):
        base = [
            _evidence(
                rng.choice(["anger", "joy", "pleasure"]),
                rng.choice(sources),
                rng.choice(grid),
                rng.choice(grid),
                t=float(k),
            )
            for k in range(rng.randint(2, 4))
        ]
        shuffled = base[:]
        rng.shuffle(shuffled)
        plain = fuse_instant(base)
        assert fuse_instant(shuffled) == plain

        # Scaling by powers of two is bit-exact, so the full estimate
        # (dominant included, even across exact ties) must be unchanged.
        k = rng.choice([0.5, 2.0, 4.0])
        scaled_cfg = FusionConfig(
            weight_overrides={s: k * SOURCE_WEIGHTS[s] for s in sources}
        )
        scaled = fuse_instant(base, scaled_cfg)
        assert scaled.dominant == plain.dominant
        assert scaled.scores == plain.scores

        # Arbitrary scalings agree within 1e-9; the argmax may only move
        # between categories that are tied at that tolerance.
        k = rng.choice([3.0, 10.0])
        scaled_cfg = FusionConfig(
            weight_overrides={s: k * SOURCE_WEIGHTS[s] for s in sources}
        )
        scaled = fuse_instant(base, scaled_cfg)
        for label, value in plain.scores.items():
            assert abs(scaled.scores[label] - value) <= 1e-9
        if scaled.dominant != plain.dominant:
            assert abs(plain.scores[scaled.dominant] - plain.scores[plain.dominant]) <= 1e-9


def test_c4_temporal_decay():
    probabilities = [round(0.1 * k, 1) for k in range(1, 11)]
    lambdas = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0]
    elapsed = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    for p, lam, dt in itertools.product(probabilities, lambdas, elapsed):
        state = update_temporal(TemporalState(), _evidence("joy", "face", p, 1.0, t=0.0))
        cfg = FusionConfig(decay_lambda=lam)
        result = fill_missing(state, dt, cfg)
        expected = p * math.exp(-lam * dt)
        if expected < cfg.drop_floor:
            assert result == []
        else:
            (synthetic,) = result
            assert abs(synthetic.annotation.probability - expected) <= 1e-9
            if dt == 0.0:
                assert synthetic.annotation.probability == p  # exact identity


def test_c5_round_trip():
    rng = random.Random(5150)
    for _ in range(1000):
        doc = generators.document(rng)
        assert parse_document(serialize_document(doc)) == doc

    for _ in range(200):
        data, expected = generators.invalid_case(rng)
        if expected == "START_AFTER_END":
            with pytest.raises(ParseError) as exc:
                parse_document(data)
            assert exc.value.code == "START_AFTER_END"
        else:
            (item,) = parse_document(data).items
            report = validate_annotation(item)
            assert not report.ok
            assert expected in {f.code for f in report.errors()}


def test_c6_scenario():
    # feature files built from the anger rows classify to anger at full score
    voice = classify_voice(
        VoiceFeatureDelta(
            mean_f0="up", f0_range="up", f0_variability="up", mean_energy="up",
            high_freq_energy="up", f0_contour="downward", articulation_rate="up",
        )
    )
    movement = classify_movement(
        MovementDescriptor(
            duration="short", tempo_changes="frequent", stop_length="short",
            spatial_extent="outward_from_centre", tension="dynamic_high",
        )
    )
    assert voice[0].label == "anger" and voice[0].score == 1.0
    assert movement[0].label == "anger" and movement[0].score == 1.0

    # the bundled stream fuses to a confident, unambiguous anger estimate
    cfg = FusionConfig()
    state = TemporalState()
    state = update_temporal(state, _evidence("anger", "language_voice", 1.0, 1.0, t=0.0))
    state = update_temporal(
        state, _evidence("anger", "movement_kinematic", 1.0, 1.0, t=0.5)
    )
    estimate = fuse_instant(fill_missing(state, 0.5, cfg), cfg)
    assert estimate.dominant == "anger"
    assert estimate.scores["anger"] >= 0.6

    needs = infer_needs(estimate)
    assert needs.orientations[0][0] == "aggressive"

    policy = FIXTURES / "policies" / "hazardous_tool.policy"
    code, _, _ = run_cli(
        [
            "decide",
            "--evidence", FIXTURES / "streams" / "jack_angry.stream",
            "--resource", "hazardous-tool",
            "--policy", policy,
        ]
    )
    assert code == 3  # deny

    code, _, _ = run_cli(
        [
            "decide",
            "--evidence", FIXTURES / "streams" / "jack_calm.stream",
            "--resource", "hazardous-tool",
            "--policy", policy,
        ]
    )
    assert code == 0  # allow


def test_c7_cli_contract():
    code, out, err = run_cli(["validate", FIXTURES / "earl"])
    assert (code, out, err) == (0, "", "")

    code, out, _ = run_cli(["annotate", "--text", "joyful, happy, radiant"])
    assert code == 0 and out == golden("annotate_joy.xml")

    code, out, _ = run_cli(
        ["classify", "--voice", FIXTURES / "features" / "voice_anger.features"]
    )
    assert code == 0 and out == golden("classify_voice_anger.tsv")

    code, out, _ = run_cli(
        ["classify", "--movement", FIXTURES / "features" / "movement_grief.features"]
    )
    assert code == 0 and out == golden("classify_movement_grief.tsv")

    code, out, _ = run_cli(
        ["fuse", "--evidence", FIXTURES / "streams" / "jack_angry.stream"]
    )
    assert code == 0 and out == golden("fuse_jack.xml")

    code, out, _ = run_cli(
        [
            "decide",
            "--evidence", FIXTURES / "streams" / "jack_angry.stream",
            "--resource", "hazardous-tool",
            "--policy", FIXTURES / "policies" / "hazardous_tool.policy",
        ]
    )
    assert code == 3 and out == golden("decide_jack_angry.txt")

    code, out, _ = run_cli(["stats", FIXTURES / "earl"])
    assert code == 0 and out == golden("stats_earl.tsv")

    code, out, _ = run_cli(["stats", FIXTURES / "earl", "--json"])
    assert code == 0 and out == golden("stats_earl.json")

    code, _, _ = run_cli(["frobnicate"])
    assert code == 1  # usage errors are distinct from input errors
