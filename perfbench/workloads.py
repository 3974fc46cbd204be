"""Job lists of the three workloads, generated from a seed.

A library job is a plain record (id, kind, arguments) that the worker
process turns into one call into umbra and that the checker turns into a
certificate. A CLI job is one argv for ``python -m umbra.cli`` together
with the outcome the README documents for it.

The seed draws the rational parameters and the job order; nothing else.
Parameters are p/q with p < q distinct primes of a fixed bit size, so the
coefficient heights, and with them the work, are about the same for every
seed: no seed draws an integer, a power of two or a value above 1.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("deep_inverse", "log_windows", "cli_cold")

# 5-bit primes for the operator parameters (abel b, shift a); 7-bit primes
# over a 3-bit prime for the evaluation points x0 of the numeric boundary.
PARAM_PRIMES = (17, 19, 23, 29, 31)
X0_NUMERATORS = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)
X0_DENOMINATORS = (5, 7)

# log_windows sizes: windows of LOG_DEPTH coefficients need the operators
# known to order LOG_DEPTH + 1.
LOG_DEPTH = 24
LOG_DEGREES = range(-24, 12)
LLF_DEGREES = range(0, 8)
LLF_DEPTH = 16
NEWTON_DEPTH = 12
NUMERIC_PRECISION = 30


def rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _draw_param(rng: random.Random) -> Fraction:
    p, q = sorted(rng.sample(PARAM_PRIMES, 2))
    return Fraction(p, q)


def _draw_x0(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(X0_NUMERATORS), rng.choice(X0_DENOMINATORS))


def library_jobs(workload: str, seed: int) -> list:
    """The job list of one pass of a library workload, in run order."""
    rng = random.Random(seed)
    if workload == "deep_inverse":
        b = _draw_param(rng)
        a = _draw_param(rng)
        jobs = [
            ("inverse.forward_difference", "inverse", {"op": "forward_difference", "order": 33}),
            ("inverse.abel", "inverse", {"op": "abel", "b": b, "order": 32}),
            ("inverse.laguerre", "inverse", {"op": "laguerre", "order": 48}),
            ("expand.shift_in_forward", "expand", {"a": a, "order": 32}),
            ("connect.backward_forward", "connect", {"order": 32}),
            ("lagrange.abel", "lagrange", {"b": b, "order": 36}),
            ("transfer.abel", "transfer", {"b": b, "order": 36}),
            ("recurrence.abel", "recurrence", {"b": b, "order": 48}),
        ]
    elif workload == "log_windows":
        b = _draw_param(rng)
        x0s = [_draw_x0(rng) for _ in range(3)]
        ops = [("forward_difference", {}), ("abel", {"b": b}), ("laguerre", {})]
        jobs = []
        for op, params in ops:
            for n in LOG_DEGREES:
                jobs.append((f"log_sequence.{op}.{n}", "log_sequence", {"op": op, "n": n, **params}))
            jobs.append((f"newton.{op}", "newton", {"op": op, **params}))
            for x0 in x0s:
                for n in (0, -1):
                    jobs.append((
                        f"numeric.{op}.{n}.{rat_text(x0)}",
                        "numeric",
                        {"op": op, "n": n, "x0": x0, **params},
                    ))
        for n in LLF_DEGREES:
            jobs.append((f"log_lower_factorial.{n}", "log_lower_factorial", {"n": n}))
    else:
        raise ValueError(f"not a library workload: {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- cli_cold ---------------------------------------------------------------
#
# Each entry: (id, argv, expected exit code, defect signature). The expected
# code is the documented outcome. A defect signature (exit code, traceback
# printed) records how a known defect behaved when this benchmark was
# written; a job showing exactly that behaviour is counted in error_rate as
# a known defect, any other wrong outcome is an unexpected failure.

FD = "exp(D)-1"

CLI_JOBS = (
    # the README commands
    ("readme.seq", ["seq", "--op", FD, "--range", "0..4"], 0, None),
    ("readme.seq_latex", ["seq", "--op", "abel(b)", "--param", "b=1/2", "--n", "3", "--format", "latex"], 0, None),
    ("readme.logseq", ["logseq", "--op", FD, "--n", "-1", "--depth", "8"], 0, None),
    ("readme.expand", ["expand", "--op", "shift(a)", "--op2", FD, "--param", "a=3", "--n", "6"], 0, None),
    ("readme.invert", ["invert", "--op", "D*exp(D)", "--n", "8"], 0, None),
    ("readme.connect", ["connect", "--op", "1-exp(-D)", "--op2", FD, "--n", "6"], 0, None),
    ("readme.verify_golden", ["verify", "--suite", "golden"], 0, None),
    ("readme.eval", ["eval", "--op", FD, "--n", "0", "--x0", "10", "--prec", "25"], 0, None),
    # every other verify suite at its default size
    ("verify.abel", ["verify", "--suite", "abel"], 0, None),
    ("verify.vandermonde", ["verify", "--suite", "vandermonde"], 0, None),
    ("verify.pincherle", ["verify", "--suite", "pincherle"], 0, None),
    ("verify.logbinomial", ["verify", "--suite", "logbinomial"], 0, None),
    ("verify.connection_upper_lower", ["verify", "--suite", "connection_upper_lower"], 0, None),
    ("verify.abel_numeric", ["verify", "--suite", "abel_numeric"], 0, None),
    # certification-heavy grids
    ("verify.vandermonde_14", ["verify", "--suite", "vandermonde", "--n", "14"], 0, None),
    ("verify.abel_14", ["verify", "--suite", "abel", "--n", "14"], 0, None),
    # a negative degree range, which argparse only accepts in --range=A..B form
    ("logseq.negative_range", ["logseq", "--op", "D*exp(D)", "--range=-6..2", "--depth", "10"], 0, None),
    # error paths that already end cleanly
    ("error.parse", ["seq", "--op", "exp(D-1"], 2, None),
    ("error.unknown_name", ["seq", "--op", "foo(D)"], 2, None),
    # known defects, expected at their documented outcome
    ("defect.eval_x0_zero_denominator", ["eval", "--op", FD, "--x0", "1/0"], 2, (1, True)),
    ("defect.eval_prec_zero", ["eval", "--op", FD, "--x0", "10", "--prec", "0"], 2, (1, True)),
    ("defect.verify_negative_n", ["verify", "--suite", "vandermonde", "--n", "-1"], 2, (0, False)),
    ("defect.logseq_depth_zero", ["logseq", "--op", FD, "--n", "0", "--depth", "0"], 2, (0, False)),
    ("defect.seq_polynomial_delta", ["seq", "--op", "D+D^2", "--range", "0..6"], 0, (3, False)),
)


def cli_jobs(seed: int) -> list:
    """The commands of one cli_cold pass, in run order."""
    jobs = list(CLI_JOBS)
    random.Random(seed).shuffle(jobs)
    return jobs
