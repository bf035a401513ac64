"""earlkit: parse, validate, classify, fuse, and act on EARL emotion annotations.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a caller pays only
for the layers it uses.
"""

import importlib

#: Exported name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "EarlError", "FusionError", "LexiconError", "MarkerError", "ParseError",
            "PolicyError",
        ),
        "model": (
            "DEFAULT_PROFILE", "REGULATION_TYPES", "UNSCOPED", "ComplexEmotion",
            "EmotionAnnotation", "Finding", "InlineText", "Reference", "ReferencedTimeSpan",
            "Scope", "TimeSpan", "Unscoped", "ValidationReport", "VocabularyProfile",
            "validate_annotation", "behavior_for_emotion",
        ),
        "earl_xml": (
            "AnnotationDocument", "load_profile", "parse_document", "serialize_document",
        ),
        "markers": (
            "Lexicon", "MovementDescriptor", "RankedEmotion", "VoiceFeatureDelta",
            "classify_movement", "classify_voice", "default_lexicon", "load_features",
            "load_lexicon", "tag_lexical",
        ),
        "fusion": (
            "FusedEstimate", "FusionConfig", "MarkerEvidence", "TemporalState", "fill_missing",
            "fuse_at", "fuse_instant", "load_config", "load_stream", "to_complex_emotion",
            "update_temporal",
        ),
        "needs": (
            "AccessPolicy", "Decision", "NeedProfile", "PolicyRule", "decide", "decide_access",
            "infer_needs", "load_policy",
        ),
    }.items()
    for name in names
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
