"""Batch command-line front end.

Subcommands: validate, annotate, classify, fuse, decide, stats.  Exit
codes are part of the contract: 0 success/allow, 1 usage error, 2 input
or parse error, 3 policy deny.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Each command imports the layers it runs, so a one-shot run does not pay
# to load (and, without cached bytecode, compile) the others.
from .errors import EarlError, decode_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DENY = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for input errors, so remap through an exception.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _xml_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    return sorted(p for p in path.rglob("*.xml") if p.is_file())


def _load_profile_arg(path: str | None):
    from .earl_xml import load_profile
    from .model import DEFAULT_PROFILE

    if path is None:
        return DEFAULT_PROFILE
    return load_profile(Path(path).read_bytes())


def _load_config_arg(path: str | None):
    from .fusion import FusionConfig, load_config

    if path is None:
        return FusionConfig()
    return load_config(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    from .earl_xml import parse_document
    from .model import validate_annotation

    profile = _load_profile_arg(args.profile)
    root = Path(args.path)
    if not root.exists():
        print(f"validate: {root}: no such file or directory", file=sys.stderr)
        return EXIT_INPUT
    failed = False
    for path in _xml_files(root):
        try:
            doc = parse_document(path.read_bytes(), profile, source_uri=str(path))
        except EarlError as exc:
            print(f"{path}: error {exc.code} {exc.message}", file=sys.stderr)
            failed = True
            continue
        findings = list(doc.warnings)
        for item in doc.items:
            findings.extend(validate_annotation(item, profile).findings)
        # Parser warnings bypass validate_annotation: escalate both here, once.
        for f in findings:
            severity = "error" if args.strict and f.severity == "warning" else f.severity
            print(f"{path}: {severity} {f.code} {f.message} [{f.location}]", file=sys.stderr)
            if severity == "error":
                failed = True
    return EXIT_INPUT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# annotate


def _cmd_annotate(args) -> int:
    from .earl_xml import AnnotationDocument, serialize_document
    from .markers import default_lexicon, load_lexicon, tag_lexical

    lexicon = (
        default_lexicon()
        if args.lexicon is None
        else load_lexicon(Path(args.lexicon).read_bytes())
    )
    tagged = tag_lexical(args.text, lexicon)
    doc = AnnotationDocument(items=tuple(annotation for annotation, _ in tagged))
    sys.stdout.write(serialize_document(doc).decode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def _read_features(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    text = decode_text(path.read_bytes(), EarlError, "BAD_FEATURE", f"{path}:")
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise EarlError("BAD_FEATURE", f"{path}:{line_no}: expected field=value")
        values[key.strip()] = value.strip()
    return values


def _cmd_classify(args) -> int:
    from .earl_xml import format_number
    from .markers import (
        MOVEMENT_FIELDS,
        VOICE_FIELDS,
        MovementDescriptor,
        VoiceFeatureDelta,
        classify_movement,
        classify_voice,
    )

    if args.voice:
        kind, path, fields, make, classify = (
            "voice", args.voice, VOICE_FIELDS, VoiceFeatureDelta, classify_voice)
    else:
        kind, path, fields, make, classify = (
            "movement", args.movement, MOVEMENT_FIELDS, MovementDescriptor, classify_movement)
    raw = _read_features(Path(path))
    unknown = set(raw) - set(fields)
    if unknown:
        raise EarlError("BAD_FEATURE", f"unknown {kind} fields: {sorted(unknown)}")
    try:
        ranked = classify(make(**raw))
    except ValueError as exc:
        raise EarlError("BAD_FEATURE", str(exc)) from None
    for entry in ranked:
        features = ",".join(entry.matched_features)
        print(f"{entry.label}\t{format_number(entry.score)}\t{features}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse / decide


def _read_stream(path: Path) -> list[MarkerEvidence]:
    """Stream line format: ``t source category p i`` (whitespace separated)."""
    import math

    from .fusion import MarkerEvidence
    from .model import SOURCE_MODALITY, EmotionAnnotation

    stream = []
    text = decode_text(path.read_bytes(), EarlError, "BAD_STREAM", f"{path}:")
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise EarlError(
                "BAD_STREAM", f"{path}:{line_no}: expected 't source category p i'"
            )
        t_raw, source, category, p_raw, i_raw = parts
        if source not in SOURCE_MODALITY:
            raise EarlError("BAD_STREAM", f"{path}:{line_no}: unknown source {source!r}")
        try:
            timestamp, probability, intensity = float(t_raw), float(p_raw), float(i_raw)
        except ValueError:
            raise EarlError(
                "BAD_STREAM", f"{path}:{line_no}: t, p, i must be numbers"
            ) from None
        if not math.isfinite(timestamp):
            raise EarlError("BAD_STREAM", f"{path}:{line_no}: t must be finite")
        if not (0.0 <= probability <= 1.0 and 0.0 <= intensity <= 1.0):
            raise EarlError(
                "BAD_STREAM", f"{path}:{line_no}: p and i must lie in [0, 1]"
            )
        annotation = EmotionAnnotation(
            category=category,
            intensity=intensity,
            probability=probability,
            modality=SOURCE_MODALITY[source],
        )
        stream.append(MarkerEvidence(annotation=annotation, source=source, timestamp=timestamp))
    return stream


def _fused_estimate(args):
    from .fusion import TemporalState, fill_missing, fuse_instant, update_temporal

    cfg = _load_config_arg(args.config)
    stream = _read_stream(Path(args.evidence))
    state = TemporalState()
    for evidence in stream:
        state = update_temporal(state, evidence)
    at = state.clock if args.at is None else args.at
    return fuse_instant(fill_missing(state, at, cfg), cfg), cfg


def _cmd_fuse(args) -> int:
    from .earl_xml import AnnotationDocument, serialize_document
    from .fusion import to_complex_emotion

    estimate, cfg = _fused_estimate(args)
    item = to_complex_emotion(estimate, cfg=cfg)
    doc = AnnotationDocument(items=(item,))
    sys.stdout.write(serialize_document(doc).decode("utf-8"))
    return EXIT_OK


def _cmd_decide(args) -> int:
    from .needs import decide_access, load_policy

    estimate, _ = _fused_estimate(args)
    policy = load_policy(Path(args.policy).read_bytes())
    decision = decide_access(estimate, args.resource, policy)
    print(f"{decision.verdict}\t{decision.rationale}")
    return EXIT_DENY if decision.verdict == "deny" else EXIT_OK


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> int:
    from .earl_xml import parse_document
    from .model import ComplexEmotion, validate_annotation

    profile = _load_profile_arg(args.profile)
    root = Path(args.path)
    if not root.exists():
        print(f"stats: {root}: no such file or directory", file=sys.stderr)
        return EXIT_INPUT
    counts = dict.fromkeys(("files_scanned", "annotations_count", "complex_count", "error_count"), 0)
    categories: dict[str, int] = {}
    for path in _xml_files(root):
        counts["files_scanned"] += 1
        try:
            doc = parse_document(path.read_bytes(), profile, source_uri=str(path))
        except EarlError:
            counts["error_count"] += 1
            continue
        for item in doc.items:
            counts["error_count"] += len(validate_annotation(item, profile).errors())
            annotations = (item,)
            if isinstance(item, ComplexEmotion):
                counts["complex_count"] += 1
                annotations = item.constituents
            for a in annotations:
                counts["annotations_count"] += 1
                label = a.category if a.category is not None else "(none)"
                categories[label] = categories.get(label, 0) + 1
    if args.json:
        import json

        print(json.dumps({**counts, "categories": dict(sorted(categories.items()))}))
    else:
        for key, value in counts.items():
            print(f"{key}\t{value}")
        for label in sorted(categories):
            print(f"category.{label}\t{categories[label]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="earlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate EARL files under a path")
    p.add_argument("path")
    p.add_argument("--profile", help="vocabulary profile XML file")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("annotate", help="tag text with lexical markers, emit EARL XML")
    p.add_argument("--text", required=True)
    p.add_argument("--lexicon", help="lexicon file (default: bundled)")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("classify", help="rank emotions for a feature file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--voice", help="voice feature file (field=value lines)")
    group.add_argument("--movement", help="movement feature file (field=value lines)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fuse", help="fuse an evidence stream, emit EARL XML")
    p.add_argument("--evidence", required=True, help="stream file: 't source category p i'")
    p.add_argument("--config", help="fusion config file (key=value)")
    p.add_argument("--at", type=float, help="fusion time (default: last timestamp)")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("decide", help="fuse evidence and decide resource access")
    p.add_argument("--evidence", required=True)
    p.add_argument("--resource", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--config", help="fusion config file (key=value)")
    p.add_argument("--at", type=float)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("stats", help="summarize a corpus")
    p.add_argument("path")
    p.add_argument("--profile")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"earlkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except EarlError as exc:
        print(f"earlkit: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"earlkit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
