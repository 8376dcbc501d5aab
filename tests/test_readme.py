"""README examples: the Python tour and the CLI examples print what they show."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from hc3 import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_python_tour():
    (tour,) = [body for lang, body in BLOCKS if lang == "python"]
    test = doctest.DocTestParser().get_doctest(tour, {}, "README tour", None, 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    out = io.StringIO()
    runner.run(test, out=out.write)
    assert runner.failures == 0, out.getvalue()
    assert runner.tries == len(test.examples) > 0


def shown_cli_examples():
    """(command line, shown output lines) for every `$ hc3 ...` example."""
    (examples,) = [body for _, body in BLOCKS if body.startswith("$ hc3 ")]
    for chunk in examples.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        yield command.removeprefix("$ "), shown


def run_shell_line(line):
    """Run `hc3 A && hc3 B >/dev/null ...` in process; the combined stdout
    of the commands whose output is not discarded."""
    printed = []
    for part in line.split(" && "):
        argv = shlex.split(part)
        discard = argv[-1] == ">/dev/null"
        if discard:
            argv.pop()
        assert argv[0] == "hc3", part
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv[1:]) == 0, part
        if not discard:
            printed.extend(buf.getvalue().splitlines())
    return printed


def test_cli_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = list(shown_cli_examples())
    assert len(examples) == 3
    for command, shown in examples:
        printed = run_shell_line(command)
        if shown[-1] == "...":
            shown = shown[:-1]
            printed = printed[: len(shown)]
        assert printed == shown, command
