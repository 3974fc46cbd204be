"""Byte-identical CLI output.

The eight README commands, every ``verify`` suite at its default size and
with ``--corrupt``, a set of harmonic-log commands and a set of composition
commands must print exactly the stdout and exit with exactly the code frozen
in ``tests/data/cli_golden.json``. After a change that is meant to alter that
output, refreeze with

    PYTHONPATH=src python3 tests/test_cli_golden.py --freeze

and review the diff of the data file.
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from umbra.cli import main
from umbra.suites import SUITE_NAMES

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

README_COMMANDS = (
    ("seq", "--op", "exp(D)-1", "--range", "0..4"),
    ("seq", "--op", "abel(b)", "--param", "b=1/2", "--n", "3", "--format", "latex"),
    ("logseq", "--op", "exp(D)-1", "--n", "-1", "--depth", "8"),
    ("expand", "--op", "shift(a)", "--op2", "exp(D)-1", "--param", "a=3", "--n", "6"),
    ("invert", "--op", "D*exp(D)", "--n", "8"),
    ("connect", "--op", "1-exp(-D)", "--op2", "exp(D)-1", "--n", "6"),
    ("verify", "--suite", "golden"),
    ("eval", "--op", "exp(D)-1", "--n", "0", "--x0", "10", "--prec", "25"),
)

# The logarithmic layer: negative ranges, plain and csv output, numeric
# evaluation, the suites that read log windows at a non-default depth or
# parameter, and windows and evaluations at depth 24 from operators known
# to order 25.
LOG_COMMANDS = (
    ("logseq", "--op", "D*exp(D)", "--range=-6..2", "--depth", "10"),
    ("logseq", "--op", "1-exp(-D)", "--range=-4..4", "--format", "plain"),
    ("eval", "--op", "D*exp(D)", "--n", "-1", "--x0", "7/2"),
    ("verify", "--suite", "golden", "--depth", "20"),
    ("verify", "--suite", "abel_numeric", "--depth", "16"),
    ("logseq", "--op", "laguerre", "--order", "25", "--depth", "24", "--range=-24..11"),
    ("logseq", "--op", "abel(b)", "--param", "b=17/29", "--order", "25", "--depth", "24",
     "--range=-3..3", "--format", "csv"),
    ("logseq", "--op", "D+D^2", "--order", "13", "--range=-5..5"),
    ("eval", "--op", "D*exp(D)", "--n", "0", "--x0", "67/5", "--order", "25", "--depth", "24",
     "--prec", "30"),
    ("eval", "--op", "log(1+D)", "--n", "3", "--x0", "9/2", "--format", "plain"),
    ("verify", "--suite", "logbinomial", "--param", "a=17/29", "--depth", "16"),
    ("verify", "--suite", "logbinomial", "--corrupt", "--param", "a=-3/5"),
    ("logseq", "--op", "log(1+D)", "--order", "25", "--depth", "24", "--range=-3..3"),
)

# Composition paths: expansion in a basis with a high first outer power, a
# Laurent outer series and a log outer series; connection constants; the
# inverse with its f(g(t)) = t certificate; basic sequences, inverses
# and connection constants at working orders 24 to 40; log outer series
# at orders 20 to 24; the Pincherle suite, whose operators act on
# polynomials; and deep basic-sequence rows, connection constants and an
# expansion in a basis at orders 40 to 48.
COMPOSE_COMMANDS = (
    ("expand", "--op", "D^2", "--op2", "exp(D)-1", "--n", "14"),
    ("expand", "--op", "log(1+D)", "--op2", "1-exp(-D)", "--n", "10"),
    ("expand", "--op", "D^-1", "--op2", "exp(D)-1", "--n", "8"),
    ("connect", "--op", "D/(1-D)", "--op2", "D*exp(D)", "--n", "8"),
    ("invert", "--op", "D+D^2", "--order", "20", "--n", "14"),
    ("invert", "--op", "D/(1-D)", "--format", "plain"),
    ("seq", "--op", "abel(b)", "--param", "b=17/29", "--order", "24", "--range", "0..22"),
    ("invert", "--op", "laguerre", "--order", "40", "--n", "38"),
    ("connect", "--op", "1-exp(-D)", "--op2", "exp(D)-1", "--order", "24", "--n", "20"),
    ("seq", "--op", "log(1+D)", "--order", "30", "--range", "20..28"),
    ("verify", "--suite", "pincherle", "--format", "plain"),
    ("invert", "--op", "log(1+D)", "--order", "24", "--n", "22"),
    ("expand", "--op", "log(1+D^2)", "--op2", "exp(D)-1", "--order", "20", "--n", "18"),
    ("seq", "--op", "log(1+D)+D^2", "--order", "20", "--range", "0..8"),
    ("seq", "--op", "abel(b)", "--param", "b=17/29", "--order", "48", "--range", "40..46"),
    ("connect", "--op", "1-exp(-D)", "--op2", "exp(D)-1", "--order", "40", "--n", "38"),
    ("expand", "--op", "shift(a)", "--op2", "exp(D)-1", "--param", "a=19/23", "--order", "40",
     "--n", "38"),
)

# Failing verify reports in every output format, each exiting 4: a numeric
# failure in plain text, corrupted suites in csv and latex, and a
# corrupted suite at a chosen parameter and grid size in json.
FAILING_VERIFY_COMMANDS = (
    ("verify", "--suite", "abel_numeric", "--param", "x=3", "--format", "plain"),
    ("verify", "--suite", "vandermonde", "--n", "2", "--corrupt", "--format", "csv"),
    ("verify", "--suite", "golden", "--depth", "3", "--corrupt", "--format", "latex"),
    ("verify", "--suite", "abel", "--n", "3", "--param", "b=17/29", "--corrupt"),
)

# README_COMMANDS already holds "verify --suite golden"; keep the first copy.
COMMANDS = tuple(dict.fromkeys(README_COMMANDS + tuple(
    ("verify", "--suite", name, *flag)
    for name in SUITE_NAMES
    for flag in ((), ("--corrupt",))
) + LOG_COMMANDS + COMPOSE_COMMANDS + FAILING_VERIFY_COMMANDS))


def run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def frozen():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_every_command_is_frozen():
    assert set(frozen()) == set(COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.delenv("UMBRA_ORDER", raising=False)
    case = frozen()[argv]
    assert run(argv) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    os.environ.pop("UMBRA_ORDER", None)
    cases = []
    for argv in COMMANDS:
        code, stdout = run(argv)
        cases.append({"argv": list(argv), "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
