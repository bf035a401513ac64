"""Spans around calls into earlkit's layers, and the metrics derived from them.

Tracing happens only from outside: the workloads call earlkit's public
functions through a namespace (``Layers``), and a traced run swaps each
function for a wrapper that records one span per call.  Spans are
``(name, start_ns, end_ns, parent, ref, extra)``: ``parent`` is the index
of the enclosing workload span (one per document, event or command run),
``ref`` the document id, event index or invocation number, and ``extra``
the per-call facts the layer metrics need.  They stay in memory and are
written out once, at the end.

No layer call nests inside another traced call, so a span's self time is
its duration.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter_ns
from types import SimpleNamespace

_WORD = re.compile(r"[a-z]+")


#: Per-call facts, recorded after the span has ended: (args, result) -> tuple.
EXTRACT = {
    "parse_document": lambda _a, doc: (len(doc.items), len(doc.warnings)),
    "serialize_document": lambda a, data: (len(a[0].items), len(data)),
    "validate_annotation": lambda _a, report: (not report.ok,),
    "tag_lexical": lambda a, tagged: (len(_WORD.findall(a[0].lower())), bool(tagged)),
    "fill_missing": lambda a, kept: (len(a[0].last_evidence), len(kept)),
    "fuse_instant": lambda a, _r: (len(a[0]),),
    "to_complex_emotion": lambda _a, _r: (False,),
    "decide_access": lambda _a, decision: (decision.verdict == "deny",),
}

#: earlkit functions the workloads call, by module.
TRACED = {
    "earl_xml": ("parse_document", "serialize_document"),
    "model": ("validate_annotation",),
    "markers": ("tag_lexical", "classify_voice", "classify_movement"),
    "fusion": ("update_temporal", "fill_missing", "fuse_instant", "to_complex_emotion"),
    "needs": ("decide_access",),
}
#: Types the workloads construct; not traced.
TYPES = (
    "AnnotationDocument", "EmotionAnnotation", "MarkerEvidence", "MovementDescriptor",
    "TemporalState", "VoiceFeatureDelta",
)


def layers(earlkit) -> SimpleNamespace:
    """The functions and types the workloads use, untraced."""
    names = [n for fns in TRACED.values() for n in fns] + list(TYPES)
    return SimpleNamespace(**{n: getattr(earlkit, n) for n in names})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.parent = -1
        self.ref = None

    def begin(self, ref) -> None:
        """Reserve the enclosing span for one document, event or command."""
        self.ref = ref
        self.parent = len(self.spans)
        self.spans.append(None)

    def end(self, name: str, start: int, stop: int, extra=None) -> None:
        self.spans[self.parent] = (name, start, stop, -1, self.ref, extra)
        self.parent = -1

    def record(self, name: str, start: int, stop: int, ref=None, extra=None) -> None:
        self.spans.append((name, start, stop, -1, ref, extra))

    def wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        extract = EXTRACT.get(fn.__name__)
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stop = perf_counter_ns()
                spans.append((name, start, stop, self.parent, self.ref,
                              ("raised", getattr(exc, "code", type(exc).__name__))))
                raise
            stop = perf_counter_ns()
            spans.append((name, start, stop, self.parent, self.ref,
                          extract(args, result) if extract else None))
            return result

        traced.__name__ = fn.__name__
        return traced

    def traced_layers(self, plain: SimpleNamespace) -> SimpleNamespace:
        out = SimpleNamespace(**vars(plain))
        for module, names in TRACED.items():
            for n in names:
                setattr(out, n, self.wrap(module, getattr(plain, n)))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tref\textra\n")
            for name, start, stop, parent, ref, extra in self.spans:
                fh.write(f"{name}\t{start}\t{stop}\t{parent}\t{ref}\t{json.dumps(extra)}\n")


# ---------------------------------------------------------------------------
# Metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Every per-layer metric the spans support, keyed by metric name."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    out: dict[str, float] = {}
    for module, names in TRACED.items():
        for fn in names:
            key = f"{module}.{fn}"
            group = by_name.get(key, [])
            ok = [s[5] for s in group if s[5] is not None and s[5][0] != "raised"]
            raised = [s[5][1] for s in group if s[5] is not None and s[5][0] == "raised"]
            busy = sum(s[2] - s[1] for s in group)
            n = len(group)
            out[f"{key}.calls"] = n
            if not n:
                continue
            out[f"{key}.busy_s"] = busy / 1e9
            out[f"{key}.us_per_call"] = busy / 1e3 / n
            if fn == "parse_document":
                out[f"{key}.us_per_item"] = _ratio(busy / 1e3, sum(e[0] for e in ok))
                out[f"{key}.warnings"] = sum(e[1] for e in ok)
            elif fn == "serialize_document":
                out[f"{key}.us_per_item"] = _ratio(busy / 1e3, sum(e[0] for e in ok))
                out[f"{key}.bytes_out"] = sum(e[1] for e in ok)
            elif fn == "validate_annotation":
                out[f"{key}.error_ratio"] = _ratio(sum(e[0] for e in ok), n)
            elif fn == "tag_lexical":
                out[f"{key}.tokens"] = sum(e[0] for e in ok)
                out[f"{key}.hit_ratio"] = _ratio(sum(e[1] for e in ok), n)
            elif fn == "fill_missing":
                out[f"{key}.kept_ratio"] = _ratio(sum(e[1] for e in ok), sum(e[0] for e in ok))
            elif fn == "fuse_instant":
                out[f"{key}.items_per_call"] = _ratio(sum(e[0] for e in ok), n)
            elif fn == "to_complex_emotion":
                out[f"{key}.no_signal_ratio"] = _ratio(raised.count("NO_SIGNAL"), n)
            elif fn == "decide_access":
                out[f"{key}.deny_ratio"] = _ratio(sum(e[0] for e in ok), n)

    def median_ms(name):
        group = by_name.get(name, [])
        return statistics.median((s[2] - s[1]) / 1e6 for s in group) if group else None

    interp, imported = median_ms("cli.interp"), median_ms("cli.import")
    if interp is not None:
        out["cli.interp_ms"] = interp
        out["cli.import_ms"] = imported - interp
    runs = [s for name, group in by_name.items() if name.startswith("cli.run.") for s in group]
    if runs:
        for name in sorted({s[0] for s in runs}):
            out[f"cli.{name[len('cli.run.'):]}_ms"] = median_ms(name)
        out["cli.exit_mismatch"] = sum(1 for s in runs if s[5] and s[5][0] != s[5][1])
    return out
