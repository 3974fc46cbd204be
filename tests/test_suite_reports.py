"""Frozen ``run_suite`` reports.

Every suite, healthy and with ``corrupt``, at each grid size, depth and
parameter set below must return exactly the report (or raise exactly the
refusal) frozen in ``tests/data/suite_reports.json``. After a change that is
meant to alter a report, refreeze with

    PYTHONPATH=src python3 tests/test_suite_reports.py --freeze

and review the diff of the data file.
"""
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from umbra.errors import UmbraError
from umbra.suites import SUITE_NAMES, run_suite

FROZEN = Path(__file__).parent / "data" / "suite_reports.json"

N_MAX = (None, 1, 3)
DEPTHS = (1, 5, 12)
PARAMETERS = (
    {},
    {"b": "17/29"},
    {"a": "-3/5"},
    {"x": "3"},
    {"x": "21/10"},
    {"b": "1/2", "x": "1"},
    {"tol": "1/1000"},
    {"b": "0"},
)


def configurations(suite):
    for corrupt, n_max, depth, params in product((False, True), N_MAX, DEPTHS, PARAMETERS):
        yield {"suite": suite, "corrupt": corrupt, "n_max": n_max, "depth": depth,
               "parameters": params}


def _plain(value):
    """The report as JSON data, with fractions tagged so a change of type shows."""
    if isinstance(value, Fraction):
        return {"fraction": str(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"unexpected report value {value!r}")


def outcome(config):
    """The report of one configuration, or the type and text of its refusal."""
    params = {k: Fraction(v) for k, v in config["parameters"].items()}
    try:
        report = run_suite(config["suite"], parameters=params, n_max=config["n_max"],
                           depth=config["depth"], corrupt=config["corrupt"])
    except UmbraError as err:
        return {"refusal": [type(err).__name__, str(err)]}
    return {"report": _plain(report)}


def frozen():
    return json.loads(FROZEN.read_text())


def test_every_configuration_is_frozen():
    want = [config for suite in SUITE_NAMES for config in configurations(suite)]
    assert [{k: case[k] for k in want[0]} for case in frozen()] == want


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_reports_match(suite):
    cases = [case for case in frozen() if case["suite"] == suite]
    assert cases
    for case in cases:
        config = {k: case[k] for k in ("suite", "corrupt", "n_max", "depth", "parameters")}
        got = outcome(config)
        want = {k: case[k] for k in ("report", "refusal") if k in case}
        # key order counts: the latex format prints the witness dict as it is built
        assert json.dumps(got) == json.dumps(want), config


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    cases = [{**config, **outcome(config)}
             for suite in SUITE_NAMES for config in configurations(suite)]
    FROZEN.parent.mkdir(exist_ok=True)
    FROZEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
