"""The names that README.md and the package's docstrings cite exist.

Each backticked dotted name in README.md (`trace.seeded_stream`,
`frametime.trace.DEFAULT_FREQ_TABLE`, `random.Random`) resolves by import
and getattr, and so does each name of a package module in a src/
docstring, backticked or not.  Each `frametime ...` line of README's
walkthrough parses with cli.build_parser(), and each tests/FILE.py::NAME
reference names a file and a class or function defined in it.  The
`--help` text names every command and no exception class, and README's
config table names the sections and keys of config.SECTIONS.
"""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import frametime
from frametime import cli, config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(m.name for m in pkgutil.iter_modules(frametime.__path__))

DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"
BACKTICKED = re.compile(rf"`({DOTTED})`")
MODULE_NAME = re.compile(rf"(?<![\w.])((?:frametime\.)?(?:{'|'.join(MODULES)})"
                         rf"(?:\.[A-Za-z_]\w*)+)")
TEST_REFERENCE = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def _prose(text: str) -> str:
    """text without its fenced code blocks."""
    return re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)


def _docstrings() -> list[tuple[str, str]]:
    """(where, docstring) of each module, class and function of the package."""
    found = []
    for path in sorted(Path(frametime.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    name = getattr(node, "name", None)
                    found.append((f"{path.name}:{name}" if name else path.name, doc))
    return found


DOCSTRINGS = _docstrings()


def _cited_names() -> list[tuple[str, str]]:
    """(where, name) of each dotted name README or a docstring cites."""
    names = {("README.md", name) for name in BACKTICKED.findall(_prose(README))}
    for where, doc in DOCSTRINGS:
        names.update((where, name)
                     for name in BACKTICKED.findall(doc) + MODULE_NAME.findall(doc))
    return sorted(names)


def _resolve(name: str):
    """The object a dotted name refers to.  A package module may drop the
    frametime prefix; the longest prefix that imports as a module is
    imported, and the rest are attributes."""
    parts = name.split(".")
    if parts[0] in MODULES:
        parts.insert(0, "frametime")
    for i in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            found = getattr(found, part)
        return found
    raise ImportError(f"no module in {name!r}")


def _walkthrough() -> list[str]:
    """The `frametime` command lines of README's walkthrough block."""
    section = README.split("## CLI walkthrough", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("frametime ")]


def _test_references() -> list[tuple[str, str, tuple[str, ...]]]:
    """(where, file, names) of each tests/FILE.py reference in README and
    the docstrings, names being the ::-separated parts after the file."""
    texts = [("README.md", README)] + DOCSTRINGS
    return sorted({(where, file, tuple(names.split("::")[1:]))
                   for where, text in texts
                   for file, names in TEST_REFERENCE.findall(text)})


def _config_table() -> dict[str, set[str]]:
    """{section: keys} of README's "Config file format" table: each
    backticked [section] of a row's first cell, and each backticked key of
    its second, alone or as `key = ...`."""
    section = README.split("## Config file format", 1)[1].split("\n## ", 1)[0]
    table = {}
    for names, fields in re.findall(r"^\| (`\[.*?) \| (.*) \|$", section, flags=re.M):
        keys = set(re.findall(r"`(\w+)(?: = [^`]*)?`", fields))
        table.update((name, keys) for name in re.findall(r"`\[(.+?)\]`", names))
    return table


NAMES = _cited_names()
COMMANDS = _walkthrough()
TEST_REFERENCES = _test_references()


def test_each_source_cites_names():
    # a pattern that stopped matching would pass every check below unseen
    assert {where for where, _ in NAMES} >= {"README.md"}
    assert any(where != "README.md" for where, _ in NAMES)
    assert len(COMMANDS) == 6
    assert any(names for _, _, names in TEST_REFERENCES)


@pytest.mark.parametrize("where, name", NAMES, ids=[f"{w}:{n}" for w, n in NAMES])
def test_cited_name_resolves(where, name):
    _resolve(name)


@pytest.mark.parametrize("line", COMMANDS,
                         ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(COMMANDS, 1)])
def test_walkthrough_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("where, file, names", TEST_REFERENCES,
                         ids=["::".join((w, f) + n) for w, f, n in TEST_REFERENCES])
def test_cited_test_exists(where, file, names):
    path = ROOT / "tests" / file
    assert path.is_file(), f"{where} cites tests/{file}"
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        defined = {node.name: node for node in scope
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert name in defined, f"{where} cites tests/{file}::{'::'.join(names)}"
        scope = defined[name].body


def test_config_table_names_what_config_reads():
    # both ways: each section and key README lists is read, and no other
    assert _config_table() == {name: set(keys) for name, keys in config.SECTIONS.items()}


def test_help_names_each_command_and_no_exception_class(capsys):
    # how main maps errors to codes is in its docstring, not the user's --help
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    shown = capsys.readouterr().out
    commands = [name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")]
    assert len(commands) == 5
    assert [c for c in commands if f"\n  {c} " not in shown] == []
    assert re.findall(r"\w+(?:Error|Exception)\b", shown) == []
