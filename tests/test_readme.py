"""The README's library quick start runs as written, and its command-line
examples parse, so that a renamed or removed public name, flag or
subcommand, or a changed signature, fails here instead of leaving the README
silently wrong."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gbh_fdr import cli, exact_p_conditional
from oracles import loo_sides_exact

ROOT = Path(__file__).resolve().parent.parent


def quick_start_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "expected one python block under 'Library quick start'"
    return blocks[0]


def test_readme_quick_start_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", "-c", quick_start_block()],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def command_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "expected one sh block under 'Command line'"
    return blocks[0]


def unparsed_commands(block: str) -> tuple:
    """(commands, refused): the gbh-fdr command lines of block, and those
    that the CLI's parser refuses."""
    commands, refused = [], []
    for line in block.splitlines():
        if "gbh-fdr" not in line:
            continue
        words = shlex.split(line, comments=True)
        commands.append(line)
        try:
            cli.build_parser().parse_args(words[words.index("gbh-fdr") + 1:])
        except SystemExit:
            refused.append(line)
    return commands, refused


def test_readme_commands_parse():
    commands, refused = unparsed_commands(command_block())
    assert len(commands) >= 8
    assert refused == []


@pytest.mark.parametrize("flag, typo", [("--lambda", "--lamda"), ("--out", "--output"),
                                        ("--config", "--cfg"), ("--section", "--sections")])
def test_readme_command_check_catches_a_misspelled_flag(flag, typo):
    block = command_block()
    assert flag in block
    _, refused = unparsed_commands(block.replace(flag, typo, 1))
    assert len(refused) == 1 and typo in refused[0]


def test_readme_leave_one_out_table_is_the_closed_form():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### The leave-one-out comparison, exactly", 1)[1]
    rows = re.findall(r"^\| (−?\d) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                      section.split("\n#", 1)[0], flags=re.M)
    assert len(rows) == 8
    for x0, *shown in rows:
        p_exceed = exact_p_conditional(0.5, 0.2, float(x0.replace("−", "-")))
        left, right = loo_sides_exact(10, 20, 2, p_exceed, "paper_h")
        one_left, one_right = loo_sides_exact(10, 20, 2, p_exceed, "constant_one")
        assert shown == [f"{left:.6f}", f"{right:.6f}", f"{left / right:.4f}",
                         f"{one_left / one_right:.4f}"], x0
        # for h = 1 the ratio is 1 - q^n_j, n_j E[1/(n_j - A)] being (1 - q^n_j)/P
        assert one_left / one_right == pytest.approx(1.0 - (1.0 - p_exceed) ** 10, rel=1e-12)
