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
from .errors import EarlError

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


def _load(path: str, loader, *args):
    """``loader(<the bytes of path>, *args)``; an input error names the file."""
    try:
        return loader(Path(path).read_bytes(), *args)
    except EarlError as exc:
        raise type(exc)(exc.code, f"{path}: {exc.message}") from None


def _document(items) -> bytes:
    """The serializer's bytes for a document of ``items``."""
    from .earl_xml import AnnotationDocument, serialize_document

    return serialize_document(AnnotationDocument(items=tuple(items)))


# ---------------------------------------------------------------------------
# validate


def _corpus(args):
    """Yield ``(path, document, findings)`` for each ``*.xml`` file under the
    directory ``args.path``, in name order; any other path (a file, a pipe, a
    device) is read as one document.  ``findings`` holds the parser's warnings,
    then each item's validator findings.  A file that does not parse gives
    ``(path, error, None)``."""
    from .earl_xml import load_profile, parse_document
    from .model import DEFAULT_PROFILE, validate_annotation

    profile = DEFAULT_PROFILE if args.profile is None else _load(args.profile, load_profile)
    root = Path(args.path)
    if not root.exists():
        raise FileNotFoundError(f"{args.command}: {root}: no such file or directory")
    paths = sorted(p for p in root.rglob("*.xml") if p.is_file()) if root.is_dir() else [root]
    for path in paths:
        try:
            doc = parse_document(path.read_bytes(), profile)
        except EarlError as exc:
            yield path, exc, None
            continue
        findings = list(doc.warnings)
        for item in doc.items:
            findings.extend(validate_annotation(item, profile).findings)
        yield path, doc, findings


def _cmd_validate(args) -> tuple[int, bytes]:
    failed = False
    for path, result, findings in _corpus(args):
        if findings is None:
            print(f"{path}: error {result.code} {result.message}", file=sys.stderr)
            failed = True
            continue
        # --strict escalates parser and validator warnings alike, here only.
        for f in findings:
            severity = "error" if args.strict and f.severity == "warning" else f.severity
            print(f"{path}: {severity} {f.code} {f.message} [{f.location}]", file=sys.stderr)
            if severity == "error":
                failed = True
    return (EXIT_INPUT if failed else EXIT_OK), b""


# ---------------------------------------------------------------------------
# annotate


def _cmd_annotate(args) -> tuple[int, bytes]:
    from .markers import default_lexicon, load_lexicon, tag_lexical

    lexicon = default_lexicon() if args.lexicon is None else _load(args.lexicon, load_lexicon)
    return EXIT_OK, _document(annotation for annotation, _ in tag_lexical(args.text, lexicon))


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> tuple[int, bytes]:
    from .earl_xml import format_number
    from .markers import (
        MovementDescriptor,
        VoiceFeatureDelta,
        classify_movement,
        classify_voice,
        load_features,
    )

    if args.voice:
        path, descriptor, classify = args.voice, VoiceFeatureDelta, classify_voice
    else:
        path, descriptor, classify = args.movement, MovementDescriptor, classify_movement
    return EXIT_OK, "".join(
        f"{entry.label}\t{format_number(entry.score)}\t{','.join(entry.matched_features)}\n"
        for entry in classify(_load(path, load_features, descriptor))
    ).encode()


# ---------------------------------------------------------------------------
# fuse / decide


def _stream_inputs(args):
    """``(state, at, cfg)`` from ``--evidence`` under ``--profile``, ``--at`` and ``--config``."""
    from .fusion import FusionConfig, load_config, load_stream

    cfg = FusionConfig() if args.config is None else _load(args.config, load_config)
    profile = None
    if args.profile is not None:
        from .earl_xml import load_profile

        profile = _load(args.profile, load_profile)
    state = _load(args.evidence, load_stream, profile)
    return state, state.clock if args.at is None else args.at, cfg


def _cmd_fuse(args) -> tuple[int, bytes]:
    from .fusion import fuse_at, to_complex_emotion

    state, at, cfg = _stream_inputs(args)
    return EXIT_OK, _document([to_complex_emotion(fuse_at(state, at, cfg), cfg=cfg)])


def _cmd_decide(args) -> tuple[int, bytes]:
    from .needs import decide, load_policy

    state, at, cfg = _stream_inputs(args)
    decision = decide(state, at, cfg, args.resource, _load(args.policy, load_policy))
    code = EXIT_DENY if decision.verdict == "deny" else EXIT_OK
    return code, f"{decision.verdict}\t{decision.rationale}\n".encode()


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> tuple[int, bytes]:
    from .model import ComplexEmotion

    counts = dict.fromkeys(("files_scanned", "annotations_count", "complex_count", "error_count"), 0)
    categories: dict[str, int] = {}
    for _, doc, findings in _corpus(args):
        counts["files_scanned"] += 1
        if findings is None:
            counts["error_count"] += 1
            continue
        # Parser warnings are never errors, so this counts the validator's.
        counts["error_count"] += sum(f.severity == "error" for f in findings)
        for item in doc.items:
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

        text = json.dumps({**counts, "categories": dict(sorted(categories.items()))}) + "\n"
    else:
        rows = list(counts.items()) + [(f"category.{c}", categories[c]) for c in sorted(categories)]
        text = "".join(f"{key}\t{value}\n" for key, value in rows)
    return EXIT_OK, text.encode()


# ---------------------------------------------------------------------------
# entry point


def _add_stream_command(sub, name: str, func, help: str, *required: str) -> None:
    """A command that fuses a stream: ``--evidence``, the ``required``
    options, then the optional ``--config``, ``--at`` and ``--profile``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--evidence", required=True, help="stream file: 't source category p i'")
    for option in required:
        p.add_argument(option, required=True)
    p.add_argument("--config", help="fusion config file (key=value)")
    p.add_argument("--at", type=float, help="fusion time (default: last timestamp)")
    profile_help = "vocabulary profile XML file; a stream category outside it is an error"
    p.add_argument("--profile", help=profile_help)
    p.set_defaults(func=func)


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

    _add_stream_command(sub, "fuse", _cmd_fuse, "fuse an evidence stream, emit EARL XML")
    _add_stream_command(
        sub, "decide", _cmd_decide, "fuse evidence and decide resource access",
        "--resource", "--policy",
    )

    p = sub.add_parser("stats", help="summarize a corpus")
    p.add_argument("path")
    p.add_argument("--profile", help="vocabulary profile XML file")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Every command returns its stdout as bytes, written here and only
        # here: UTF-8 whatever the locale, nothing when stdout is closed.
        code, out = args.func(args)
        if sys.stdout is not None:
            sys.stdout.buffer.write(out)
        return code
    except _UsageExit as exc:
        print(f"earlkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # EarlError.__init__ makes str(exc) "CODE: message"; _load rebuilds errors through it.
    except (EarlError, OSError) as exc:
        print(f"earlkit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
