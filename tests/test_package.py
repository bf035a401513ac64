"""The package surface: lazy exports, the modules each CLI command loads, one build path."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import earlkit
from support import FIXTURES, REPO

#: Every name the package exports, by the module it was first exported from.
EXPORTED = {
    "errors": (
        "EarlError FusionError LexiconError MarkerError ParseError PolicyError"
    ),
    "model": (
        "DEFAULT_PROFILE REGULATION_TYPES UNSCOPED ComplexEmotion EmotionAnnotation Finding"
        " InlineText Reference ReferencedTimeSpan Scope TimeSpan Unscoped ValidationReport"
        " VocabularyProfile validate_annotation behavior_for_emotion"
    ),
    "earl_xml": "AnnotationDocument load_profile parse_document serialize_document",
    "markers": (
        "Lexicon MovementDescriptor RankedEmotion VoiceFeatureDelta classify_movement"
        " classify_voice default_lexicon load_lexicon tag_lexical load_features"
    ),
    "fusion": (
        "FusedEstimate FusionConfig MarkerEvidence TemporalState fill_missing fuse_instant"
        " load_config to_complex_emotion update_temporal load_stream fuse_at"
    ),
    "needs": (
        "AccessPolicy Decision NeedProfile PolicyRule decide_access infer_needs load_policy"
        " decide"
    ),
}


class TestLazyExports:
    def test_all_is_the_export_list(self):
        expected = {name for names in EXPORTED.values() for name in names.split()}
        assert set(earlkit.__all__) == expected
        assert len(earlkit.__all__) == len(expected)

    @pytest.mark.parametrize("module", sorted(EXPORTED))
    def test_names_resolve_to_the_submodule_objects(self, module):
        submodule = importlib.import_module(f"earlkit.{module}")
        assert getattr(earlkit, module) is submodule
        for name in EXPORTED[module].split():
            assert getattr(earlkit, name) is getattr(submodule, name), name
            assert vars(earlkit)[name] is getattr(submodule, name), name

    def test_dir_lists_exports_submodules_and_version(self):
        listed = set(dir(earlkit))
        assert set(earlkit.__all__) <= listed
        assert set(EXPORTED) <= listed
        assert "__version__" in listed
        assert earlkit.__version__ == "0.1.0"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            earlkit.no_such_name  # noqa: B018


# Runs one command in a fresh interpreter and reports its exit code, the
# earlkit modules it loaded, whether it added ``json``, whether ``json`` is
# loaded at the end and whether it added ``dataclasses``.
PROBE = (
    "import os, sys\n"
    "before = set(sys.modules)\n"
    "from earlkit.cli import main\n"
    "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
    "code = main(sys.argv[1:])\n"
    "added = set(sys.modules) - before\n"
    "mods = sorted(m[len('earlkit.'):] for m in added if m.startswith('earlkit.'))\n"
    "sys.__stdout__.write(repr(\n"
    "    (code, mods, 'json' in added, 'json' in sys.modules, 'dataclasses' in added)))\n"
)
STREAM = FIXTURES / "streams" / "jack_angry.stream"
POLICY = FIXTURES / "policies" / "hazardous_tool.policy"


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["decide", "--evidence", STREAM, "--resource", "hazardous-tool", "--policy", POLICY],
         3, ["errors", "fusion", "model", "needs"]),
        (["fuse", "--evidence", STREAM], 0, ["earl_xml", "errors", "fusion", "model"]),
        (["validate", FIXTURES / "earl"], 0, ["earl_xml", "errors", "model"]),
        (["stats", FIXTURES / "earl", "--json"], 0, ["earl_xml", "errors", "model"]),
        # ``data`` is the bundled lexicon's resource package, not a layer.
        (["annotate", "--text", "happy"], 0, ["data", "earl_xml", "errors", "markers", "model"]),
        (["classify", "--voice", FIXTURES / "features" / "voice_anger.features"],
         0, ["earl_xml", "errors", "markers", "model"]),
    ],
    ids=["decide", "fuse", "validate", "stats", "annotate", "classify"],
)
def test_each_command_loads_only_its_layers(argv, code, modules):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, argv)], capture_output=True, text=True, check=True
    )
    got_code, got_modules, added_json, has_json, added_dataclasses = ast.literal_eval(
        result.stdout
    )
    assert (got_code, got_modules) == (code, ["cli", *modules])
    if argv[0] == "stats":
        assert has_json
    else:
        assert not added_json
    # Records are built without ``dataclasses``; only needs.Decision still
    # is a dataclass.
    assert added_dataclasses == (argv[0] == "decide")


def test_benchmark_selfcheck_passes():
    # The benchmark harness builds records and calls layers by name; a name
    # or field it uses that goes away fails here before a measuring run.
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"], cwd=REPO, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture
def tools(monkeypatch):
    """tools/mutants.py and tools/killmatrix.py, imported as the scripts import each other."""
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    return importlib.import_module("mutants"), importlib.import_module("killmatrix")


def test_mutation_runner_covers_every_module(tools):
    # tools/mutants.py mutates only the modules its table lists, so a new
    # module left out of it would escape the runner; the kill matrix runs the
    # same table, and both skip shrinking under the profile conftest.py registers.
    mutants, killmatrix = tools
    modules = {
        f"src/earlkit/{path.name}" for path in (REPO / "src" / "earlkit").glob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    assert sorted(mutants.TESTS) == sorted(modules)
    assert all((REPO / test).is_file() for tests in mutants.TESTS.values() for test in tests)
    assert killmatrix.TESTS is mutants.TESTS
    assert killmatrix.EQUIVALENT is mutants.EQUIVALENT
    assert killmatrix.run_pytest is mutants.run_pytest
    profiles = [arg.split("=", 1)[1] for arg in mutants.PYTEST_ARGS
                if arg.startswith("--hypothesis-profile=")]
    assert len(profiles) == 1
    assert Phase.shrink not in settings.get_profile(profiles[0]).phases


_REPORT = """<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">
<testcase classname="tests.test_x" name="test_passes" time="0.001" />
<testcase classname="tests.test_x" name="test_fails" time="0.001"><failure message="assert 1 == 2">E</failure></testcase>
<testcase classname="tests.test_x.TestY" name="test_z[a.b::c/d]" time="0.001"><failure message="x">E</failure></testcase>
<testcase classname="tests.test_x.TestY" name="test_z[e]" time="0.001" />
<testcase classname="tests.test_y.TestY" name="test_errs" time="0.001"><error message="fixture">E</error></testcase>
<testcase classname="tests.test_y" name="test_skipped" time="0.0"><skipped message="s" /></testcase>
<testcase classname="" name="tests.test_y" time="0.0"><error message="collection failure">E</error></testcase>
<testcase classname="pytest" name="internal" time="0.0"><error message="internal error">E</error></testcase>
</testsuite></testsuites>"""


def test_kill_matrix_reads_failing_ids_from_a_junit_report(tools):
    _, killmatrix = tools
    assert killmatrix.killers(_REPORT, ["tests/test_x.py", "tests/test_y.py"]) == [
        "tests/test_x.py::test_fails",
        "tests/test_x.py::TestY::test_z[a.b::c/d]",
        "tests/test_y.py::TestY::test_errs",
        "tests/test_y.py",
        "pytest.internal",
    ]


def test_bare_import_loads_no_submodule():
    # A submodule loads on first access, with what it imports and nothing else.
    script = (
        "import sys, earlkit\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('earlkit.'))\n"
        "print(loaded())\n"
        "print(earlkit.fusion is sys.modules['earlkit.fusion'])\n"
        "print(loaded())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        "[]", "True", "['earlkit.errors', 'earlkit.fusion', 'earlkit.model']",
    ]


# Hooks through which a copy or an unpickled object could skip ``__init__``.
COPY_HOOKS = {"__reduce__", "__reduce_ex__", "__copy__", "__deepcopy__", "__setstate__"}


def test_records_are_built_only_by_their_init():
    # Every record is built, copied and unpickled by its own ``__init__``, so
    # none skips its checks: no module calls object.__new__ or
    # object.__setattr__, and the only copy hook is _Record.__reduce__.
    calls, hooks = [], []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
                and node.func.attr in ("__new__", "__setattr__")
            ):
                calls.append(f"{path.name}:{node.lineno}: object.{node.func.attr}")
            if isinstance(node, ast.ClassDef):
                hooks += [
                    f"{path.name}: {node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in COPY_HOOKS
                ]
    assert calls == []
    assert hooks == ["model.py: _Record.__reduce__"]


#: The calls of the per-event decision path, by module.
HOT_PATH = {
    "fusion": ("update_temporal", "fill_missing", "fuse_instant", "to_complex_emotion"),
    "needs": ("decide_access",),
    "markers": ("tag_lexical",),
}


@pytest.mark.parametrize("module", sorted(HOT_PATH))
def test_hot_path_builds_records_positionally(module):
    # A keyword argument costs about 0.25 us per record built, so the calls
    # each event makes pass every field by position.
    submodule = importlib.import_module(f"earlkit.{module}")
    tree = ast.parse(Path(submodule.__file__).read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in HOT_PATH[module]
    }
    assert sorted(functions) == sorted(HOT_PATH[module])
    for name, function in functions.items():
        builds = [
            node for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and _is_record_class(getattr(submodule, node.func.id, None))
        ]
        assert builds, name
        keywords = [
            f"{name}:{node.lineno}: {node.func.id}" for node in builds if node.keywords
        ]
        assert keywords == []


def _is_record_class(obj) -> bool:
    return isinstance(obj, type) and (
        issubclass(obj, earlkit.model._Record) or dataclasses.is_dataclass(obj)
    )


def _imports(packages) -> list[str]:
    """``file:line: module`` for each absolute import in earlkit of a module
    in one of ``packages``."""
    found = []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {module}" for module in modules
                if module.split(".")[0] in packages
            ]
    return found


def test_only_the_cli_touches_the_filesystem():
    # The library reads and writes bytes and text it is given; only the CLI
    # opens files, so no other module imports pathlib or os.
    found = _imports(("pathlib", "os"))
    assert [line for line in found if not line.startswith("cli.py:")] == []


def test_only_cli_main_writes_stdout():
    # Each command returns its output as bytes and cli.main writes them, so
    # stdout is UTF-8 whatever the locale and is skipped when closed; a print
    # without file= would write through the locale's text layer.
    named, bare_prints = set(), []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth-first, so an inner function overwrites its outer one.
        owner = {}
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), scope.name) for node in ast.walk(scope))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "stdout" and (
                isinstance(node.value, ast.Name) and node.value.id == "sys"
            ):
                named.add(f"{path.stem}.{owner.get(id(node), '<module>')}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "print" and all(k.arg != "file" for k in node.keywords)
            ):
                bare_prints.append(f"{path.name}:{node.lineno}")
    assert (sorted(named), bare_prints) == (["cli.main"], [])


def test_no_module_imports_typing():
    # Every command loads errors and model, and where site has not already
    # imported typing it costs about 3 ms of a run; from Python 3.10, the
    # package's floor, a union is written A | B without it.
    assert _imports(("typing",)) == []


def test_only_read_lines_names_a_line():
    # errors.read_lines puts "line N: " before every line reader's error, so
    # no other module builds that text and each line is named one way.
    found = []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # An f-string's literal parts are constants too.
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                node.value.startswith("line ")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert any(where.startswith("errors.py:") for where in found)
    assert [where for where in found if not where.startswith("errors.py:")] == []


def test_only_fusion_folds_a_stream():
    # fusion.load_stream folds a stream file into its TemporalState through
    # update_temporal, so no other module decides what a stream file means.
    # __init__.py names both only as export strings, which are no names here.
    found = []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}" for name in names
                if name in ("TemporalState", "update_temporal")
            ]
    assert any(where.startswith("fusion.py:") for where in found)
    assert [where for where in found if not where.startswith("fusion.py:")] == []


def test_the_cli_decides_through_the_library():
    # fusion.fuse_at refuses a state with no live evidence and needs.decide a
    # resource no rule names; the CLI calls them, so it names none of the
    # calls they compose nor the error it used to raise itself.
    path = Path(earlkit.__file__).parent / "cli.py"
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert named & {"fill_missing", "fuse_instant", "decide_access", "PolicyError"} == set()
    assert {"decide", "fuse_at"} <= named


def test_no_line_reader_keeps_state_outside_its_fold():
    # Each line reader maps or folds the lines read_lines hands its build, so
    # no per-line function rebinds a record in an enclosing scope.  Only
    # read_lines' line counter and load_profile's expat handlers do that.
    found = []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Nonlocal):
                found.append(f"{path.name}:{node.lineno}")
    assert [where for where in found if not where.startswith(("errors.py:", "earl_xml.py:"))] == []


def test_only_one_function_checks_xs_double():
    # earl_xml._DOUBLE is the lexical space of xs:double; a second function
    # that reads it would be a second statement of what a number is.
    found = []
    for path in sorted(Path(earlkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(name, ast.Name) and name.id == "_DOUBLE" for name in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.name}")
    assert len(found) == 1, found


def _restatements(source: str) -> list[str]:
    """The shapes a restatement of a layer has taken outside tests/oracles.py:
    a ``reference_*`` function, an ``xml.sax.saxutils`` import (the writer's
    escapes) and a module-level ``*_ALLOWED`` table (the descriptor check)."""
    tree = ast.parse(source)
    found = [
        f"{node.lineno}: {target.id}" for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_ALLOWED")
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("reference_"):
            found.append(f"{node.lineno}: {node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            found += [
                f"{node.lineno}: {prefix}{alias.name}" for alias in node.names
                if f"{prefix}{alias.name}.".startswith("xml.sax.saxutils.")
            ]
    return found


def test_only_oracles_restates_a_layer():
    # tests/oracles.py holds the one restatement of each layer that the tests
    # compare with; a second one elsewhere would drift from it.
    here = Path(__file__).parent
    found = [
        f"{path.name}:{where}"
        for path in sorted(here.glob("*.py")) if path.name != "oracles.py"
        for where in _restatements(path.read_text(encoding="utf-8"))
    ]
    assert found == []
    body = ast.parse((here / "oracles.py").read_text(encoding="utf-8")).body
    assert {n.name for n in body if isinstance(n, ast.FunctionDef) and n.name[0] != "_"} == {
        "format_number", "serialize", "writable", "parse", "tokenize", "tag_lexical", "rank",
        "validate", "fill_missing", "fuse", "needs", "decision", "run_stream",
    }


@pytest.mark.parametrize(
    "source, found",
    [
        ("def reference_parse(data):\n    pass\n", ["1: reference_parse"]),
        ("from xml.sax.saxutils import escape\n", ["1: xml.sax.saxutils.escape"]),
        ("from xml.sax import saxutils\n", ["1: xml.sax.saxutils"]),
        ("import xml.sax.saxutils as sx\n", ["1: xml.sax.saxutils"]),
        ("VOICE_ALLOWED = {}\n", ["1: VOICE_ALLOWED"]),
        ("MOVEMENT_ALLOWED: dict = {}\n", ["1: MOVEMENT_ALLOWED"]),
        ("A = B_ALLOWED = ()\n", ["1: B_ALLOWED"]),
        # Neither a module-level table nor saxutils: not a restatement.
        ("def f():\n    LOCAL_ALLOWED = ()\n", []),
        ("from xml.sax import handler\nimport xml.saxutils_like\n", []),
        ('CODE = "DTD_NOT_ALLOWED"\n', []),
    ],
)
def test_restatement_guard_matches_each_shape(source, found):
    assert _restatements(source) == found
