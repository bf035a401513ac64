"""The three workloads and the loop that measures them.

corpus  An annotator's batch job: each EARL document is parsed, every item
        validated against a profile, and the document serialized again.
        earl_xml and model do the work; markers, fusion and needs do none.
stream  A live decision loop: one caller, no concurrency, seeded events for
        eight tracked subjects.  Each event becomes marker evidence and goes
        through update_temporal, fill_missing, fuse_instant and decide_access;
        every 10th estimate is also rendered to EARL.  markers, fusion and
        needs do the work; earl_xml only writes small documents.
cli     One-shot ``python -m earlkit.cli`` runs, one at a time, rotating
        through decide, fuse, validate, stats and annotate.  The only
        workload where interpreter start, import and argparse count.

Each workload has a fixed pool of inputs (documents, events, commands) that
the loop replays in passes.  Every output is checked against the generator's
knowledge or the oracle, outside the timed intervals; the first pass checks
in full, later passes compare against outputs already verified.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gen
import oracle
import spans


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(failure)


#: The machine's speed drifts by up to 2x over tens of seconds (a fixed loop
#: took 71 to 156 ms on a shared 2-core Xeon VM (Python 3.11), with process
#: time tracking wall time).  Every timing is therefore also expressed in
#: units of a fixed reference task timed next to it: reading a fixed 40-item
#: EARL document with the oracle's expat reader, three times.  It does not
#: call earlkit, so only the machine moves it.
REFERENCE_DOC = gen.make_doc(random.Random("reference"), 0, 40, "ok", True).xml
#: Busy time between two timings of the reference task.
CALIBRATE_NS = 20_000_000


def reference_ns() -> int:
    """One timing of the reference task."""
    start = perf_counter_ns()
    for _ in range(3):
        oracle.xml_items(REFERENCE_DOC)
    return perf_counter_ns() - start


class Window:
    """What one measuring window saw."""

    def __init__(self):
        # Arrays, not lists: the samples stay small next to the program's
        # own memory, which peak_rss_mb measures.
        self.latencies_ns = array("q")
        self.latencies_ref = array("d")  # each over the reference task's time
        self.rates: list[float] = []  # units per busy second, per complete pass
        self.rates_ref: list[float] = []  # units per reference task, per complete pass
        self.references_ns: list[int] = []


def window(w, layers, tally: Tally, tracer=None, seconds: float | None = None,
           min_ops: int = 0) -> Window:
    """Replay ``w.pool`` in passes until ``seconds`` have passed and at least
    ``min_ops`` operations ran; with ``seconds=None``, one pass."""
    deadline = None if seconds is None else perf_counter() + seconds
    out = Window()
    while True:
        w.begin_pass(layers)
        busy = busy_ref = units = since = 0
        ref = reference_ns()
        out.references_ns.append(ref)
        complete = True
        for item in w.pool:
            latency, spent, n, outcome = w.op(layers, item, tracer)
            tally.record(w.check(item, outcome))
            out.latencies_ns.append(latency)
            out.latencies_ref.append(latency / ref)
            busy += spent
            busy_ref += spent / ref
            units += n
            since += spent
            if since >= CALIBRATE_NS:
                ref = reference_ns()
                out.references_ns.append(ref)
                since = 0
            if deadline is not None and perf_counter() >= deadline and (
                    len(out.latencies_ns) >= min_ops):
                complete = False
                break
        if complete:
            out.rates.append(units / busy * 1e9)
            out.rates_ref.append(units / busy_ref)
        if deadline is None or not complete:
            return out


def _read(work: Path, name: str) -> bytes:
    return (work / name).read_bytes()


def _raised(outcome) -> str | None:
    if isinstance(outcome, Exception):
        return getattr(outcome, "code", None) or type(outcome).__name__
    return None


# ---------------------------------------------------------------------------
# corpus


def _shape(doc) -> tuple:
    return tuple(
        tuple(c.category for c in item.constituents) if hasattr(item, "constituents")
        else item.category
        for item in doc.items
    )


class Corpus:
    name = "corpus"
    ops, min_ops = "documents", 0
    tail = 0.99

    def __init__(self, seed: int, small: bool = False):
        classes = ((20, lambda k: 1, 1, 1, 5), (2, lambda k: 50, 0, 0, 1)) if small else gen.CORPUS_CLASSES
        self.pool = gen.corpus_docs(seed, classes)
        self.profile_xml = gen.profile_text()
        self.digest = gen.digest([self.profile_xml] + [d.xml for d in self.pool])
        self.facts = gen.corpus_facts(self.pool)
        self.verified: dict[int, bytes] = {}

    def prepare(self, work: Path) -> None:
        (work / "profile.xml").write_text(self.profile_xml, encoding="utf-8")

    def load(self, earlkit, work: Path) -> None:
        self.plain = spans.layers(earlkit)
        self.profile = earlkit.load_profile(_read(work, "profile.xml"))

    def begin_pass(self, layers) -> None:
        pass

    def op(self, L, doc: gen.Doc, tracer):
        profile = self.profile
        if tracer is not None:
            tracer.begin(doc.ident)
        start = perf_counter_ns()
        try:
            parsed = L.parse_document(doc.xml, profile)
            reports = [L.validate_annotation(item, profile) for item in parsed.items]
            outcome = (parsed, reports, L.serialize_document(parsed))
        except Exception as exc:  # an expected rejection, or a failure to report
            outcome = exc
        stop = perf_counter_ns()
        if tracer is not None:
            tracer.end("corpus.document", start, stop, (doc.items,))
        return stop - start, stop - start, doc.items, outcome

    def check(self, doc: gen.Doc, outcome) -> str | None:
        where = f"corpus doc {doc.ident}"
        raised = _raised(outcome)
        if doc.expect == "START_AFTER_END" or raised is not None:
            if raised == doc.expect:
                return None
            return f"{where}: expected {doc.expect}, got {raised or 'a document'}"
        parsed, reports, data = outcome
        if _shape(parsed) != doc.shape:
            return f"{where}: parsed items differ from the generated ones"
        errors = [f.code for r in reports for f in r.findings if f.severity == "error"]
        if errors != ["RANGE"] * doc.range_errors:
            return f"{where}: validation errors {errors}, expected {doc.range_errors} RANGE"
        known = self.verified.get(doc.ident)
        if known is not None:
            return None if data == known else f"{where}: serialization changed between passes"
        try:
            if oracle.xml_shape(data) != doc.shape:
                return f"{where}: serialized items differ from the generated ones"
        except Exception as exc:  # unreadable output is a failed check
            return f"{where}: serialized bytes do not read back: {exc}"
        if self.plain.parse_document(data, self.profile) != parsed:
            return f"{where}: parse(serialize(d)) != d"
        self.verified[doc.ident] = data
        return None


# ---------------------------------------------------------------------------
# stream


def _hits(pair) -> int:
    return len(pair[1])


class Stream:
    name = "stream"
    ops, min_ops = "events", 0
    tail = 0.99

    def __init__(self, seed: int, small: bool = False):
        mix = (("text", 60), ("voice", 50), ("movement", 50), ("face", 40)) if small else gen.STREAM_MIX
        self.pool = gen.stream_events(seed, mix)
        self.cfg_text, self.policy_text = gen.config_text(), gen.policy_text()
        self.digest = gen.digest(
            [self.cfg_text, self.policy_text, *gen.event_digest_parts(self.pool)])
        self.facts = gen.stream_facts(self.pool)
        self.expected = oracle.expect_stream(self.pool, gen.FUSION, gen.RESOURCE, gen.POLICY)
        self.verified: dict[int, bytes] = {}

    def prepare(self, work: Path) -> None:
        (work / "fusion.cfg").write_text(self.cfg_text, encoding="utf-8")
        (work / "policy.txt").write_text(self.policy_text, encoding="utf-8")

    def load(self, earlkit, work: Path) -> None:
        self.plain = spans.layers(earlkit)
        self.cfg = earlkit.load_config(_read(work, "fusion.cfg"))
        self.policy = earlkit.load_policy(_read(work, "policy.txt"))

    def begin_pass(self, L) -> None:
        empty = L.TemporalState()
        self.states = [empty] * gen.SUBJECTS

    def _evidence(self, L, e: gen.Event):
        kind = e.kind
        if kind == "text":
            tagged = L.tag_lexical(e.payload[0])
            if not tagged:
                return None
            annotation = max(tagged, key=_hits)[0]
        elif kind == "face":
            annotation = L.EmotionAnnotation(
                category=e.payload, probability=e.probability, intensity=e.intensity,
                modality="face")
        else:
            if kind == "voice":
                top = L.classify_voice(L.VoiceFeatureDelta(**e.payload))[0]
            else:
                top = L.classify_movement(L.MovementDescriptor(**e.payload))[0]
            annotation = L.EmotionAnnotation(
                category=top.label, probability=top.score, intensity=e.intensity,
                modality=kind)
        return L.MarkerEvidence(annotation=annotation, source=e.source, timestamp=e.t)

    def op(self, L, e: gen.Event, tracer):
        cfg = self.cfg
        if tracer is not None:
            tracer.begin(e.index)
        start = perf_counter_ns()
        try:
            state = self.states[e.subject]
            evidence = self._evidence(L, e)
            if evidence is not None:
                state = self.states[e.subject] = L.update_temporal(state, evidence)
            estimate = L.fuse_instant(L.fill_missing(state, e.t, cfg), cfg)
            decision = L.decide_access(estimate, gen.RESOURCE, self.policy)
        except Exception as exc:  # a failure to report
            decision = exc
        decided = perf_counter_ns()
        if tracer is not None:
            tracer.end("stream.event", start, decided)
        if isinstance(decision, Exception):
            return decided - start, decided - start, 1, decision
        rendered = None
        stop = decided
        if e.render:
            if tracer is not None:
                tracer.begin(e.index)
            render_start = perf_counter_ns()
            try:
                item = L.to_complex_emotion(estimate, cfg=cfg)
                rendered = L.serialize_document(L.AnnotationDocument(items=(item,)))
            except Exception as exc:  # NO_SIGNAL is expected; others are failures
                rendered = exc
            stop = perf_counter_ns()
            if tracer is not None:
                tracer.end("stream.render", render_start, stop)
            stop = decided + (stop - render_start)
        return decided - start, stop - start, 1, (estimate, decision, rendered)

    def check(self, e: gen.Event, outcome) -> str | None:
        where = f"stream event {e.index}"
        if isinstance(outcome, Exception):
            return f"{where}: raised {outcome!r}"
        estimate, decision, rendered = outcome
        x = self.expected[e.index]
        if not oracle.scores_match(estimate.scores, x.scores):
            return f"{where}: scores {estimate.scores} != reference {x.scores}"
        if decision.verdict != x.verdict:
            return f"{where}: verdict {decision.verdict}, reference {x.verdict}"
        rule = decision.rule
        if x.rule is not None and (rule is None or (rule.resource, rule.behavior, rule.threshold) != x.rule):
            return f"{where}: deny names rule {rule}, reference {x.rule}"
        if not e.render:
            return None
        raised = _raised(rendered)
        if x.render == "NO_SIGNAL" or raised is not None:
            return None if raised == x.render else f"{where}: render gave {raised or 'a document'}, reference {x.render}"
        known = self.verified.get(e.index)
        if known is not None:
            return None if rendered == known else f"{where}: rendering changed between passes"
        try:
            ok = oracle.render_matches(rendered, x.render)
        except Exception as exc:  # unreadable output is a failed check
            return f"{where}: rendered bytes do not read back: {exc}"
        if not ok:
            return f"{where}: rendered EARL differs from reference {x.render}"
        self.verified[e.index] = rendered
        return None


# ---------------------------------------------------------------------------
# cli

GOLDEN_ANNOTATE = Path("tests") / "golden" / "annotate_joy.xml"


def child_env() -> dict:
    """Environment for child interpreters: earlkit from ``src`` of the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"
    #: At least 200 invocations per measuring window, so that p90 has twenty
    #: beyond it; with ten, it moved by 14 % between seeds.
    ops, min_ops = "invocations", 200
    tail = 0.90

    def __init__(self, seed: int, small: bool = False):  # one size: the inputs are small
        self.stream_text, rows = gen.cli_stream(seed)
        self.docs = gen.cli_corpus(seed)
        self.cfg_text, self.policy_text = gen.config_text(), gen.policy_text()
        self.profile_xml = gen.profile_text()
        self.digest = gen.digest(
            [self.stream_text, self.cfg_text, self.policy_text, self.profile_xml,
             gen.ANNOTATE_TEXT] + [d.xml for d in self.docs])
        self.facts = {
            "stream_lines": gen.CLI_STREAM_LINES,
            "corpus_files": len(self.docs),
            "corpus_items": sum(d.items for d in self.docs),
            "invalid_files": sum(d.expect != "ok" for d in self.docs),
            "rotation": ["decide", "fuse", "validate", "stats", "annotate"],
        }
        scores = oracle.expect_recorded(rows, gen.FUSION)
        self.verdict, self.rule = oracle.verdict(scores, gen.RESOURCE, gen.POLICY)
        self.render = oracle.rendered(scores, gen.FUSION)
        self.stats = gen.expected_stats(self.docs)
        self.pool: list = []
        self.golden = None

    def prepare(self, work: Path) -> None:
        (work / "stream.txt").write_text(self.stream_text, encoding="utf-8")
        (work / "fusion.cfg").write_text(self.cfg_text, encoding="utf-8")
        (work / "policy.txt").write_text(self.policy_text, encoding="utf-8")
        (work / "profile.xml").write_text(self.profile_xml, encoding="utf-8")
        corpus = work / "corpus"
        corpus.mkdir()
        for d in self.docs:
            (corpus / f"doc{d.ident:03d}.xml").write_bytes(d.xml)
        self.golden = GOLDEN_ANNOTATE.read_bytes()
        self.env = child_env()
        self.pool = self.commands(work)

    def commands(self, work: Path) -> list[tuple[str, list[str], int]]:
        """(name, argv, expected exit code) for each command of the rotation."""
        w = work.as_posix()
        fused = ["--evidence", f"{w}/stream.txt", "--config", f"{w}/fusion.cfg"]
        invalid = any(d.expect != "ok" for d in self.docs)
        return [
            ("decide", ["decide", *fused, "--resource", gen.RESOURCE, "--policy", f"{w}/policy.txt"],
             3 if self.verdict == "deny" else 0),
            ("fuse", ["fuse", *fused], 2 if self.render == "NO_SIGNAL" else 0),
            ("validate", ["validate", f"{w}/corpus", "--profile", f"{w}/profile.xml"],
             2 if invalid else 0),
            ("stats", ["stats", f"{w}/corpus", "--profile", f"{w}/profile.xml", "--json"], 0),
            ("annotate", ["annotate", "--text", gen.ANNOTATE_TEXT], 0),
        ]

    def load(self, earlkit, work: Path) -> None:
        self.cfg = earlkit.load_config(_read(work, "fusion.cfg"))
        self.policy = earlkit.load_policy(_read(work, "policy.txt"))
        self.profile = earlkit.load_profile(_read(work, "profile.xml"))

    def warm_up(self, earlkit_cli, work: Path) -> None:
        parser = earlkit_cli.build_parser()
        for _, argv, _ in self.commands(work):
            parser.parse_args(argv)

    def begin_pass(self, layers) -> None:
        pass

    def op(self, _layers, command, tracer):
        name, argv, want = command
        start = perf_counter_ns()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "earlkit.cli", *argv], env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            proc = exc
        stop = perf_counter_ns()
        if tracer is not None:
            tracer.record(f"cli.run.{name}", start, stop, extra=(want, getattr(proc, "returncode", None)))
        return stop - start, stop - start, 1, proc

    def check(self, command, proc) -> str | None:
        name, _, want = command
        where = f"cli {name}"
        if isinstance(proc, subprocess.TimeoutExpired):
            return f"{where}: timed out"
        if proc.returncode != want:
            return f"{where}: exit {proc.returncode}, expected {want}: {proc.stderr[-300:]!r}"
        out, err = proc.stdout, proc.stderr.decode("utf-8", "replace")
        if name == "decide":
            verdict, _, rationale = out.decode().partition("\t")
            if verdict != self.verdict:
                return f"{where}: verdict {verdict!r}, reference {self.verdict}"
            if self.rule is not None and f"deny_when {self.rule[1]} >= {self.rule[2]!r}" not in rationale:
                return f"{where}: deny names another rule than {self.rule}"
        elif name == "fuse":
            if self.render == "NO_SIGNAL":
                return None if "NO_SIGNAL" in err else f"{where}: NO_SIGNAL not reported"
            try:
                ok = oracle.render_matches(out, self.render)
            except Exception as exc:  # unreadable output is a failed check
                return f"{where}: output does not read back: {exc}"
            if not ok:
                return f"{where}: fused EARL differs from reference {self.render}"
        elif name == "validate":
            errors = sum(1 for line in err.splitlines() if line.split(" ", 2)[1:2] == ["error"])
            if errors != self.stats["error_count"]:
                return f"{where}: {errors} error lines, expected {self.stats['error_count']}"
        elif name == "stats":
            try:
                got = json.loads(out)
            except ValueError:
                return f"{where}: output is not JSON"
            if got != self.stats:
                return f"{where}: {got} != generator counts {self.stats}"
        elif out != self.golden:
            return f"{where}: output differs from {GOLDEN_ANNOTATE.as_posix()}"
        return None


WORKLOADS = {"corpus": Corpus, "stream": Stream, "cli": Cli}
