"""Core domain types for emotion annotations and their structural validation.

An annotation describes one emotional state through a category label,
continuous dimensions, and/or appraisal values, optionally qualified by
intensity, labeller probability, regulation attempts, and the modality it
was observed in.  A complex emotion groups co-occurring constituent
annotations under one shared scope.

All types are immutable after construction and all operations are pure,
so everything here is safe for unrestricted concurrent use.  Construction
is deliberately permissive: invariants are checked by
:func:`validate_annotation`, which reports problems instead of raising.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType
from typing import Union

from .errors import MarkerError

REGULATION_TYPES = ("simulate", "suppress", "amplify", "attenuate")

#: Dimension and appraisal values live on a signed unit scale.
DESCRIPTOR_RANGE = (-1.0, 1.0)
#: Intensity, probability and regulation values live on the unit interval.
UNIT_RANGE = (0.0, 1.0)


# ---------------------------------------------------------------------------
# Immutable records


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of an immutable record."""


class _Record:
    """Base of the immutable value types of every layer.

    A record's fields are its ``__init__`` parameters, in order.  Each
    ``__init__`` checks and coerces its arguments, then stores them with one
    ``self.__dict__.update(...)``.  Records are equal when of one class with
    equal fields, leaving out those named in ``_uncompared``; the hash is
    that of the same fields, so a record that holds a dict has none; the
    repr is ``Name(field=value, ...)``; copies and unpickled records are
    rebuilt by ``__init__``, so they pass its checks.
    """

    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        compared = [name for name in cls._fields if name not in cls._uncompared]
        # attrgetter returns a bare value for one name and needs at least one.
        cls._key = attrgetter(*compared) if compared else staticmethod(lambda record: ())

    def __init__(self):  # a record with no fields
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # A mappingproxy cannot be pickled; it goes as the dict it views.
        values = (getattr(self, name) for name in self._fields)
        return self.__class__, tuple(dict(v) if type(v) is MappingProxyType else v for v in values)

    def _replace(self, **changes):
        """A copy with ``changes``, built and so checked by ``__init__``."""
        return self.__class__(**({name: getattr(self, name) for name in self._fields} | changes))


# ---------------------------------------------------------------------------
# Scope variants


class InlineText(_Record):
    """Scope over a piece of text enclosed by the annotation itself."""

    def __init__(self, text: str):
        self.__dict__.update(text=text)


class Reference(_Record):
    """Stand-off scope: the annotation refers to an external object by URI."""

    def __init__(self, uri: str):
        self.__dict__.update(uri=uri)


class TimeSpan(_Record):
    """Scope over a [start, end) interval of the annotated clip, in seconds."""

    def __init__(self, start: float, end: float):
        self.__dict__.update(start=start, end=end)


class ReferencedTimeSpan(_Record):
    """Stand-off scope combined with a time interval within the referenced clip."""

    def __init__(self, uri: str, start: float, end: float):
        self.__dict__.update(uri=uri, start=start, end=end)


class Unscoped(_Record):
    """No scope of its own (e.g. a constituent inheriting the group scope)."""


Scope = Union[InlineText, Reference, TimeSpan, ReferencedTimeSpan, Unscoped]

UNSCOPED = Unscoped()


# ---------------------------------------------------------------------------
# Annotations


class EmotionAnnotation(_Record):
    """A single emotion statement.

    At least one descriptor (category, dimensions, or appraisals) must be
    present for the annotation to validate.  Missing ``intensity`` or
    ``probability`` mean the emotion is asserted outright; downstream
    consumers treat both as 1.0.  Missing dicts are empty.
    """

    def __init__(
        self, category: str | None = None, dimensions: dict[str, float] | None = None,
        appraisals: dict[str, float] | None = None, intensity: float | None = None,
        probability: float | None = None, regulation: dict[str, float] | None = None,
        modality: str | None = None, scope: Scope = UNSCOPED,
    ):
        self.__dict__.update(
            category=category, dimensions={} if dimensions is None else dimensions,
            appraisals={} if appraisals is None else appraisals, intensity=intensity,
            probability=probability, regulation={} if regulation is None else regulation,
            modality=modality, scope=scope,
        )


class ComplexEmotion(_Record):
    """Co-occurring constituent emotions sharing one scope.

    Constituents are kept in document order; the scope lives on the group,
    not on the constituents.
    """

    def __init__(self, constituents: tuple[EmotionAnnotation, ...], scope: Scope = UNSCOPED):
        self.__dict__.update(constituents=tuple(constituents), scope=scope)


AnnotationItem = Union[EmotionAnnotation, ComplexEmotion]


# ---------------------------------------------------------------------------
# Vocabulary profiles


class VocabularyProfile(_Record):
    """User-definable descriptor vocabularies.

    An empty set acts as a wildcard: any label is accepted for that slot.
    This keeps corpora without an explicit profile parseable; restriction
    is opt-in by listing labels.
    """

    def __init__(
        self, categories: frozenset[str] = frozenset(),
        dimension_names: frozenset[str] = frozenset(),
        appraisal_names: frozenset[str] = frozenset(), modalities: frozenset[str] = frozenset(),
    ):
        self.__dict__.update(
            categories=frozenset(categories), dimension_names=frozenset(dimension_names),
            appraisal_names=frozenset(appraisal_names), modalities=frozenset(modalities),
        )

    def allows_category(self, label: str) -> bool:
        return not self.categories or label in self.categories

    def allows_modality(self, label: str) -> bool:
        return not self.modalities or label in self.modalities


#: With every set empty the default profile restricts nothing: no label
#: vocabulary can be prescribed, so restriction is always opt-in.
DEFAULT_PROFILE = VocabularyProfile()

#: Classic descriptor names, used by the parser to route attributes when the
#: active profile does not claim them.  They carry no restriction.
CLASSIC_DIMENSION_NAMES = frozenset({"arousal", "valence", "power"})
CLASSIC_APPRAISAL_NAMES = frozenset(
    {
        "suddenness",
        "intrinsic_pleasantness",
        "goal_conduciveness",
        "relevance_self_concerns",
    }
)


# ---------------------------------------------------------------------------
# Validation


class Finding(_Record):
    def __init__(self, severity: str, code: str, message: str, location: str):
        # severity is "error" or "warning".
        self.__dict__.update(severity=severity, code=code, message=message, location=location)


class ValidationReport(_Record):
    def __init__(self, ok: bool, findings: tuple[Finding, ...]):
        self.__dict__.update(ok=ok, findings=findings)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


#: The report for an item with no findings; it is immutable, so one is shared.
_CLEAN = ValidationReport(ok=True, findings=())


def _emit(
    out: list[Finding], index: int | None, code: str, message: str, suffix: str = "",
    severity: str = "error",
) -> None:
    # The location is built only when a finding is emitted.
    where = "annotation" if index is None else f"complex.constituent[{index}]"
    out.append(Finding(severity, code, message, where + suffix))


def _scope_problems(scope: Scope) -> tuple[str, ...]:
    if isinstance(scope, (Unscoped, InlineText)):
        return ()
    problems = ()
    if isinstance(scope, (Reference, ReferencedTimeSpan)) and not scope.uri:
        problems += ("reference URI is empty",)
    if isinstance(scope, (TimeSpan, ReferencedTimeSpan)):
        if scope.start < 0:
            problems += ("time span start is negative",)
        if not scope.end > scope.start:
            problems += (f"time span end {scope.end} must exceed start {scope.start}",)
    return problems


def _check_annotation(
    a: EmotionAnnotation, profile: VocabularyProfile, index: int | None, out: list[Finding]
) -> None:
    if a.category is None and not a.dimensions and not a.appraisals:
        message = "annotation carries no category, dimensions, or appraisals"
        _emit(out, index, "MISSING_DESCRIPTOR", message)
    if a.category is not None and not profile.allows_category(a.category):
        message = f"category {a.category!r} not in profile"
        _emit(out, index, "UNKNOWN_CATEGORY", message, ".category")

    # A range check ``lo <= value <= hi`` also fails for NaN, as intended.
    lo, hi = DESCRIPTOR_RANGE
    allowed = profile.dimension_names
    for name, value in a.dimensions.items():
        if allowed and name not in allowed:
            _emit(out, index, "UNKNOWN_DIMENSION", f"dimension {name!r} not in profile", f".{name}")
        if not lo <= value <= hi:
            _emit(out, index, "RANGE", f"{name}={value} outside [{lo}, {hi}]", f".{name}")
    allowed = profile.appraisal_names
    for name, value in a.appraisals.items():
        if allowed and name not in allowed:
            _emit(out, index, "UNKNOWN_APPRAISAL", f"appraisal {name!r} not in profile", f".{name}")
        if not lo <= value <= hi:
            _emit(out, index, "RANGE", f"{name}={value} outside [{lo}, {hi}]", f".{name}")

    lo, hi = UNIT_RANGE
    if a.intensity is not None and not lo <= a.intensity <= hi:
        _emit(out, index, "RANGE", f"intensity={a.intensity} outside [{lo}, {hi}]", ".intensity")
    if a.probability is not None and not lo <= a.probability <= hi:
        message = f"probability={a.probability} outside [{lo}, {hi}]"
        _emit(out, index, "RANGE", message, ".probability")

    for name, value in a.regulation.items():
        if name not in REGULATION_TYPES:
            message = f"regulation key {name!r} not one of {'/'.join(REGULATION_TYPES)}"
            _emit(out, index, "UNKNOWN_REGULATION", message, f".{name}")
        elif not lo <= value <= hi:
            _emit(out, index, "RANGE", f"{name}={value} outside [{lo}, {hi}]", f".{name}")
        elif value == 0.0:
            # A zero regulation value asserts "no regulation": legal but inert.
            message = f"{name}=0 has no effect"
            _emit(out, index, "NOOP_REGULATION", message, f".{name}", "warning")

    if a.modality is not None and not profile.allows_modality(a.modality):
        message = f"modality {a.modality!r} not in profile"
        _emit(out, index, "UNKNOWN_MODALITY", message, ".modality")
    for problem in _scope_problems(a.scope):
        _emit(out, index, "MALFORMED_SCOPE", problem, ".scope")


def validate_annotation(
    item: AnnotationItem, profile: VocabularyProfile = DEFAULT_PROFILE
) -> ValidationReport:
    """Check one annotation or complex emotion against a vocabulary profile.

    All problems are reported, never raised; findings come back in document
    order so identical inputs produce identical reports.
    """
    findings: list[Finding] = []
    if isinstance(item, ComplexEmotion):
        if len(item.constituents) < 2:
            findings.append(
                Finding(
                    "error",
                    "TOO_FEW_CONSTITUENTS",
                    f"complex emotion has {len(item.constituents)} constituent(s), needs at least 2",
                    "complex",
                )
            )
        for i, constituent in enumerate(item.constituents):
            if isinstance(constituent.scope, (Reference, TimeSpan, ReferencedTimeSpan)):
                message = "constituent carries its own stand-off scope; scope lives on the group"
                _emit(findings, i, "CONSTITUENT_SCOPE", message, ".scope")
            _check_annotation(constituent, profile, i, findings)
        for problem in _scope_problems(item.scope):
            findings.append(Finding("error", "MALFORMED_SCOPE", problem, "complex.scope"))
    else:
        _check_annotation(item, profile, None, findings)

    if not findings:
        return _CLEAN
    ok = not any(f.severity == "error" for f in findings)
    return ValidationReport(ok=ok, findings=tuple(findings))


def effective_intensity(a: EmotionAnnotation) -> float:
    """Intensity with the unqualified-annotation default of 1.0 applied."""
    return 1.0 if a.intensity is None else a.intensity


def dominant_constituent(c: ComplexEmotion) -> EmotionAnnotation:
    """Return the constituent with the highest intensity.

    Missing intensity counts as 1.0; ties go to the earliest constituent
    in document order.
    """
    return max(c.constituents, key=effective_intensity)


# ---------------------------------------------------------------------------
# Shared marker tables (re-exported by ``markers``); here so fusion, needs
# and the CLI stream reader need not load the classifiers.

#: Basic emotion -> motivated behavior (MacLean's classification).
BEHAVIOR_FOR_EMOTION = {
    "desire": "searching",
    "anger": "aggressive",
    "fear": "protective",
    "sadness": "dejected",
    "joy": "gratulant",
    "affection": "caressive",
}

# The word-list vocabulary says "sensuality (desire)"; the alias lets both
# vocabularies name the same behavior.
EMOTION_ALIASES = {"sensuality": "desire"}


def behavior_for_emotion(emotion: str) -> str:
    """Map a basic emotion to its motivated behavior label."""
    canonical = EMOTION_ALIASES.get(emotion, emotion)
    try:
        return BEHAVIOR_FOR_EMOTION[canonical]
    except KeyError:
        raise MarkerError("UNKNOWN_EMOTION", f"{emotion!r} has no behavior mapping") from None


# Capture convenience per source, worst listed condition governing:
# Good -> 1.0, Middle -> 0.6, Bad -> 0.2.
SOURCE_WEIGHTS = {
    "face": 1.0,
    "language_voice": 1.0,
    "movement_kinematic": 0.6,
    "movement_kinetic": 0.2,
}

#: Expressive channel recorded on annotations produced from each source.
SOURCE_MODALITY = {
    "face": "face",
    "language_voice": "voice",
    "movement_kinematic": "movement",
    "movement_kinetic": "movement",
}


def base_weight_for_source(source: str) -> float:
    """Base fusion weight for a capture source."""
    try:
        return SOURCE_WEIGHTS[source]
    except KeyError:
        raise MarkerError("UNKNOWN_SOURCE", f"{source!r} is not a capture source") from None
