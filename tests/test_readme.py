"""The README's library and attack examples run as documented."""

import contextlib
import io
import re
from pathlib import Path

from privavg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks_under(heading: str, lang: str) -> list[str]:
    """The fenced `lang` blocks after the markdown heading `heading`, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert blocks, f"no {lang} block under {heading!r}"
    return blocks


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        source = fenced_blocks_under("Library example", "python")[0]
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue() == "-5 / 1 in 16 rounds\n"


def test_attack_example_runs(tmp_path, monkeypatch, capsys):
    # The CLI section's sh block, then hub.txt, pair.cfg and the printed lines.
    (commands,) = fenced_blocks_under("CLI", "sh")
    (argv,) = [line.split()[1:] for line in commands.splitlines() if "--attack" in line]
    graph, config, printed = fenced_blocks_under("CLI", "text")
    (tmp_path / "hub.txt").write_text(graph, encoding="ascii")
    (tmp_path / "pair.cfg").write_text(config, encoding="ascii")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    assert (tmp_path / "out" / "privacy_audit.txt").read_text(encoding="ascii") == printed
    assert "attack,0,witness,helper,1,delta,1,digest,9531356856c4a989" in printed.splitlines()
