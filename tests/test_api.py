import importlib
import json
import math
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import csrk
from csrk.cli import build_parser, main
from csrk.tableau import _DOCUMENTS

MODULES = ["csrk"] + [f"csrk.{info.name}"
                      for info in pkgutil.iter_modules(csrk.__path__)]
README = (Path(__file__).parents[1] / "README.md").read_text()


def csrk_commands(text):
    """Arguments of each ``csrk`` line in the sh blocks of text, with
    continuation lines joined and comments dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["csrk"]:
                commands.append(argv[1:])
    return commands


PAPER_RUNS = csrk_commands(
    README.split("## Reproducing the paper\n", 1)[1].split("\n## ", 1)[0])


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing {missing}"
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"


def test_readme_quick_start_runs():
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_readme_scheme_file_is_crdi1wm_document():
    section = README.split("## Scheme files\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads(_DOCUMENTS["CRDI1WM"])


@pytest.mark.parametrize("argv", csrk_commands(README), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PAPER_RUNS,
                         ids=["linear", "system2d", "dense"])
def test_paper_run_at_small_m(capsys, argv):
    argv = list(argv)
    argv[argv.index("--M") + 1] = "2000"
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    h_list, thetas = [], [None]
    if argv[0] == "converge":
        h_list = argv[argv.index("--h-list") + 1].split(",")
    else:
        thetas = argv[argv.index("--theta-list") + 1].split(",")
    # converge: one row per step size; dense: one per step of T = 2 and theta
    assert len(rows) == (len(h_list) or 8 * len(thetas))
    assert all(math.isfinite(float(v)) for row in rows for v in row)
