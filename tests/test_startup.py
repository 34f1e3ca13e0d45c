"""Each command imports only the layers it runs.

Every call of the command line is a fresh interpreter, so whatever a
command imports and never uses is start-up time paid on every call.  Each
case runs commands through ``dowgraph.cli.main`` in a fresh interpreter and
lists the modules it left loaded, minus those a bare interpreter loads.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# runs each argument as one command line; prints a marker, then the modules loaded
PROBE = """
import sys
import dowgraph.cli
for command in sys.argv[1:]:
    assert dowgraph.cli.main(command.split()) == 0, command
print("--")
print(*sys.modules, sep="\\n")
"""

# no command loads the test oracles
ORACLES = ("dowgraph.oracles",)

# what count and tc need: no graph, enumeration, maximality or census code,
# and none of the standard modules only those layers use
LEAN = ORACLES + ("dowgraph.census", "dowgraph.maximality", "dowgraph.graphs",
                  "dowgraph.hamiltonian", "dataclasses", "csv", "multiprocessing")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _loaded(code: str, *args: str) -> tuple[list[str], set[str]]:
    """The output lines before the marker, and the modules loaded beyond a bare interpreter."""
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules, sep='\\n')"],
                          env=_env(), capture_output=True, text=True, check=True)
    run = subprocess.run([sys.executable, "-c", code, *args],
                         env=_env(), capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    cut = lines.index("--")
    return lines[:cut], set(lines[cut + 1:]) - set(bare.stdout.splitlines())


# what analyze and framing need beyond that: maximality, and no graph or
# enumeration code
VERDICT = ORACLES + ("dowgraph.graphs", "dowgraph.hamiltonian", "dataclasses", "dowgraph.census",
                     "csv")


@pytest.mark.parametrize(
    "commands, output, absent",
    [
        (["count 1212", "tc 3"], ["4", "121323"], LEAN + ("json",)),
        (["count 1212", "count 1212 --format json", "tc 3"], ["4", "4", "121323"],
         LEAN + ("json",)),
        (["enumerate 1212"], ["000  [1][2]", "100  [1-2]", "010  [1-2]", "001  [1-2]"],
         ORACLES + ("dowgraph.census", "dowgraph.maximality", "dataclasses")),
        (["export-dot 1212"], None,
         ORACLES + ("dowgraph.census", "dowgraph.maximality", "dataclasses")),
        (["analyze 11"], None, VERDICT),
        (["framing 1212"], ["1 2"], VERDICT),
        (["census 3 --format csv"], None,
         ORACLES + ("dowgraph.graphs", "dowgraph.hamiltonian", "dataclasses", "csv")),
    ],
    ids=["count-and-tc-text", "count-and-tc-json", "enumerate", "export-dot", "analyze",
         "framing", "census"],
)
def test_a_command_loads_only_the_layers_it_runs(commands, output, absent):
    printed, loaded = _loaded(PROBE, *commands)
    if output is not None:
        assert printed == output
    assert "dowgraph.cli" in loaded
    assert sorted(loaded.intersection(absent)) == []


def test_count_loads_the_counting_programme_and_the_word_layer_only():
    _, loaded = _loaded(PROBE, "count 121323")
    assert sorted(m for m in loaded if m.startswith("dowgraph")) == [
        "dowgraph", "dowgraph.cli", "dowgraph.counting", "dowgraph.errors", "dowgraph.words",
    ]


def test_the_package_counting_name_loads_the_counting_programme_and_the_word_layer_only():
    code = "import sys, dowgraph; dowgraph.count_words; print('--'); print(*sys.modules, sep='\\n')"
    _, loaded = _loaded(code)
    assert sorted(m for m in loaded if m.startswith("dowgraph")) == [
        "dowgraph", "dowgraph.counting", "dowgraph.errors", "dowgraph.words",
    ]


def test_analyze_loads_the_verdict_and_the_counting_programme_only():
    _, loaded = _loaded(PROBE, "analyze 121323 --format json", "framing 1122")
    assert sorted(m for m in loaded if m.startswith("dowgraph")) == [
        "dowgraph", "dowgraph.cli", "dowgraph.counting", "dowgraph.errors",
        "dowgraph.maximality", "dowgraph.words",
    ]


def _importing(module: str) -> list[str]:
    """The dowgraph modules with a line that imports ``module``."""
    pattern = re.compile(rf"^\s*(from|import)\s+{module}\b", re.M)
    return [path.name for path in sorted((SRC / "dowgraph").glob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))]


def test_no_module_imports_dataclasses():
    # it imports inspect, ast and dis, which no command needs
    assert _importing("dataclasses") == []


def test_no_module_imports_re():
    # parse tests and splits its text with str methods
    assert _importing("re") == []


def test_no_engine_module_imports_the_oracles():
    # only the tests and the oracles module itself reach the oracles
    for path in sorted((SRC / "dowgraph").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = re.search(r"^\s*(from|import)\s+(\.|dowgraph\.)oracles\b"
                          r"|^\s*from\s+(\.|dowgraph)\s+import\s.*\boracles\b", text, re.M)
        assert path.name == "oracles.py" or not found, path.name
