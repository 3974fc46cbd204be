"""Output checks behind error_rate.

Every job's exact result is checked in two ways:

* against digests frozen when the benchmark was written (``digests.json``):
  CLI jobs by their stdout bytes plus exit code, for every seed, since
  their argv does not depend on the seed; library jobs for the default
  seed;
* by a certificate that does not reuse the code path under test, computed
  here with plain ``Fraction`` and ``Decimal`` arithmetic: f(g(t)) = t on
  the window for inverses, f(D) p_n = n p_(n-1) with p_n(0) = 0 for basic
  sequences, the same recurrence on harmonic-log windows anchored at
  closed forms, closed forms for Abel polynomials, falling factorials and
  the rising-to-falling connection constants, and a direct evaluation of
  each numeric window.

A check returns a list of problems; an empty list means the job is right.
"""
from __future__ import annotations

import hashlib
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import workloads

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def _q(text) -> Fraction:
    return Fraction(text)


# -- plain truncated series ---------------------------------------------------


def _mul(a: list, b: list, n: int) -> list:
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def _compose(f: list, g: list, n: int) -> list:
    """f(g) mod t^n for dense coefficient lists with f[0] = g[0] = 0."""
    acc = [Fraction(0)] * n
    for k in range(n - 1, 0, -1):
        acc[0] += f[k] if k < len(f) else 0
        acc = _mul(acc, g, n)
    return acc


def _delta_coeffs(op: str, n: int, b: Fraction = Fraction(0)) -> list:
    """[t^k] of the catalog delta series, k < n, from their closed forms."""
    out = [Fraction(0)] * n
    for k in range(1, n):
        if op == "forward_difference":
            out[k] = Fraction(1, factorial(k))
        elif op == "backward_difference":
            out[k] = Fraction((-1) ** (k + 1), factorial(k))
        elif op == "abel":
            out[k] = b ** (k - 1) / factorial(k - 1)
        elif op == "laguerre":
            out[k] = Fraction(-1)
        else:
            raise ValueError(op)
    return out


def _falling(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a - i
    return out


def _dense(pairs, n: int) -> list:
    out = [Fraction(0)] * n
    for e, c in pairs:
        out[e] = _q(c)
    return out


# -- library certificates -----------------------------------------------------


def _inverse_problems(f: list, g: list, n: int) -> list:
    fg = _compose(f, g, n)
    want = [Fraction(0)] * n
    want[1] = Fraction(1)
    if fg != want:
        bad = next(k for k in range(n) if fg[k] != want[k])
        return [f"f(g(t)) differs from t at t^{bad}"]
    return []


def _basic_sequence_problems(f: list, polys: list) -> list:
    """p_0 = 1, and for n >= 1: degree n, p_n(0) = 0, f(D) p_n = n p_(n-1)."""
    if polys[0] != [Fraction(1)]:
        return ["p_0 != 1"]
    for n in range(1, len(polys)):
        p = polys[n]
        if len(p) != n + 1 or p[0] != 0:
            return [f"p_{n} has the wrong degree or p_{n}(0) != 0"]
        image = [Fraction(0)] * n
        deriv = p
        for k in range(1, n + 1):
            deriv = [i * c for i, c in enumerate(deriv)][1:]
            if f[k]:
                for i, c in enumerate(deriv):
                    image[i] += f[k] * c
        prev = polys[n - 1] + [Fraction(0)] * (n - len(polys[n - 1]))
        if image != [n * c for c in prev]:
            return [f"f(D) p_{n} != {n} p_{n - 1}"]
    return []


def _abel_closed_form(n: int, b: Fraction) -> list:
    """x (x - n b)^(n-1), the Abel polynomial, in the x^k basis."""
    if n == 0:
        return [Fraction(1)]
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n):
        coeffs[j + 1] = comb(n - 1, j) * (-n * b) ** (n - 1 - j)
    return coeffs


def _rising_to_falling(n: int, k: int) -> Fraction:
    """c_(n, n-k) of the falling factorials over the rising ones."""
    if n == 0:
        return Fraction(1)
    return Fraction((-1) ** k * comb(n - 1, k) * factorial(n), factorial(n - k))


def certify_library_job(kind: str, args: dict, output) -> list:
    """Certificate of one library job that stands alone; the harmonic-log
    jobs are certified together by certify_log_windows."""
    if kind == "inverse":
        # abel and laguerre are t times a series known to the working
        # order, so their windows reach one further
        n = args["order"] + (args["op"] in ("abel", "laguerre"))
        if output["order"] != n:
            return [f"window order {output['order']}, expected {n}"]
        f = _delta_coeffs(args["op"], n, args.get("b", Fraction(0)))
        return _inverse_problems(f, _dense(output["coeffs"], n), n)
    if kind == "lagrange":
        n = args["order"] - 1
        g = [Fraction(0)] + [_q(c) for c in output]
        if len(g) != n:
            return [f"{len(output)} coefficients, expected {n - 1}"]
        return _inverse_problems(_delta_coeffs("abel", n, args["b"]), g, n)
    if kind == "expand":
        got = [_q(c) for c in output]
        want = [_falling(args["a"], k) for k in range(args["order"] - 1)]
        return [] if got == want else ["coefficients are not the falling factorials (a)_k"]
    if kind == "connect":
        size = args["order"] - 1
        if len(output) != size:
            return [f"{len(output)} rows, expected {size}"]
        for n, row in enumerate(output):
            if [_q(c) for c in row] != [_rising_to_falling(n, n - j) for j in range(n + 1)]:
                return [f"row {n} differs from (-1)^k C(n-1,k) n!/(n-k)!"]
        return []
    if kind in ("transfer", "recurrence"):
        polys = [[_q(c) for c in p] for p in output]
        if len(polys) != args["order"] - 1:
            return [f"{len(polys)} polynomials, expected {args['order'] - 1}"]
        problems = _basic_sequence_problems(_delta_coeffs("abel", len(polys) + 1, args["b"]), polys)
        if not problems and any(p != _abel_closed_form(n, args["b"]) for n, p in enumerate(polys)):
            problems = ["differs from the Abel closed form x (x - n b)^(n-1)"]
        return problems
    raise ValueError(f"no standalone certificate for {kind!r}")


def _roman(n: int) -> int:
    return n if n != 0 else 1


def _roman_factorial(n: int) -> Fraction:
    if n >= 0:
        return Fraction(factorial(n))
    return Fraction((-1) ** (-n - 1), factorial(-n - 1))


def _window(output) -> tuple:
    return output["floor"], {d: _q(c) for d, c in output["coeffs"]}


def _log_anchor(op: str, b: Fraction, windows: dict) -> list:
    """Closed forms of one window per operator (tests/test_acceptance.py,
    criterion 8)."""
    depth = workloads.LOG_DEPTH
    if op == "laguerre":
        _, w = windows[0]
        want = {0: Fraction(1)}
        want.update({-j: Fraction((-1) ** (j - 1) * factorial(j - 1)) for j in range(1, depth)})
    else:
        _, w = windows[-1]
        if op == "forward_difference":
            want = {-1 - j: Fraction((-1) ** j) for j in range(depth)}
        else:
            want = {-1 - j: (j + 1) * (-b) ** j for j in range(depth)}
    if any(w.get(d, 0) != c for d, c in want.items()):
        return [f"{op}: anchor window differs from its closed form"]
    return []


def certify_log_windows(jobs: list, outputs: dict) -> dict:
    """Problems per job id for every harmonic-log job of a log_windows
    pass. The log_sequence windows of each operator are certified by the
    recurrence f(D) p_n = roman(n) p_(n-1) between neighbouring degrees,
    anchored at one closed-form window; the other jobs are then checked
    against those certified windows."""
    depth = workloads.LOG_DEPTH
    problems = {job_id: [] for job_id, _, _ in jobs}
    by_op = {}
    for job_id, kind, args in jobs:
        if kind == "log_sequence":
            by_op.setdefault(args["op"], (args.get("b", Fraction(0)), {}))[1][args["n"]] = job_id
    certified = {}
    for op, (b, ids) in by_op.items():
        windows = {}
        for n, job_id in ids.items():
            floor, w = _window(outputs[job_id])
            if floor != n - depth + 1 or any(d > n or d < floor for d in w):
                problems[job_id].append(f"window [{floor}, top] is not [{n - depth + 1}, {n}]")
            windows[n] = (floor, w)
        f = _delta_coeffs(op, depth + 1, b)
        holds = {n: _recurrence_holds(f, windows[n][1], windows[n - 1][1], n, depth)
                 for n in windows if n - 1 in windows}
        for n, job_id in ids.items():
            # a window is wrong when every recurrence it takes part in fails
            linked = [holds[m] for m in (n, n + 1) if m in holds]
            if linked and not any(linked):
                problems[job_id].append(f"f(D) p_n != roman(n) p_(n-1) on both sides of degree {n}")
        anchor = _log_anchor(op, b, windows)
        if anchor:
            for job_id in ids.values():
                problems[job_id] += anchor
        certified[op] = {n: outputs[job_id] for n, job_id in ids.items()}
    for job_id, kind, args in jobs:
        output = outputs[job_id]
        if kind == "numeric":
            window, value, bound = output
            if window != certified[args["op"]][args["n"]]:
                problems[job_id].append("window differs from the certified log_sequence window")
            problems[job_id] += _numeric_problems(window, value, bound, args["x0"])
        elif kind == "newton":
            problems[job_id] += _newton_problems(certified[args["op"]][-1], output)
        elif kind == "log_lower_factorial":
            n = args["n"]
            floor, w = _window(output)
            _, ref = _window(certified["forward_difference"][n])
            low = n - workloads.LLF_DEPTH + 1
            if floor != low or any(w.get(d, 0) != ref.get(d, 0) for d in range(low, n + 1)) or any(d < low for d in w):
                problems[job_id].append("differs from the certified forward-difference window")
    return problems


def _recurrence_holds(f: list, p: dict, prev: dict, n: int, depth: int) -> bool:
    """f(D) p_n = roman(n) p_(n-1) on degrees [n - depth, n - 1], where
    D^k sends lambda_j to roman(j) roman(j-1) ... roman(j-k+1) lambda_(j-k)."""
    for d in range(n - depth, n):
        acc = Fraction(0)
        for k in range(1, n - d + 1):
            c = p.get(d + k)
            if c:
                r = 1
                for i in range(k):
                    r *= _roman(d + k - i)
                acc += f[k] * r * c
        if acc != _roman(n) * prev.get(d, 0):
            return False
    return True


def _newton_problems(window, output) -> list:
    """a_k = <FD^k s> / roman(k)!, with (e^t - 1)^k built here as a Laurent
    series t^k u^k, u = (e^t - 1)/t."""
    floor, s = _window(window)
    top = max(s)
    got = {k: _q(c) for k, c in output}
    depth = workloads.NEWTON_DEPTH
    if sorted(got) != list(range(top - depth + 1, top + 1)) or top - depth + 1 < floor:
        return ["Newton coefficients cover the wrong degrees"]
    length = depth
    u = [Fraction(1, factorial(i + 1)) for i in range(length)]
    inv = [Fraction(0)] * length
    inv[0] = Fraction(1)
    for i in range(1, length):
        inv[i] = -sum(u[j] * inv[i - j] for j in range(1, i + 1))
    for k, a in got.items():
        base, e = (u, k) if k >= 0 else (inv, -k)
        power = [Fraction(1)] + [Fraction(0)] * (length - 1)
        for _ in range(e):
            power = _mul(power, base, length)
        # (e^t - 1)^k = sum_i power[i] t^(k+i); degree 0 of its image of s
        acc = sum(power[j - k] * _roman_factorial(j) * s.get(j, 0) for j in range(k, top + 1))
        if acc / _roman_factorial(k) != a:
            return [f"Newton coefficient a_{k} differs"]
    return []


def _numeric_problems(window, value, bound, x0: Fraction) -> list:
    """The window evaluated here: lambda_d = x^d for d < 0 and
    x^d (log x - H_d) for d >= 0 (order-1 harmonic logarithms)."""
    _, w = _window(window)
    prec = workloads.NUMERIC_PRECISION
    with localcontext() as ctx:
        ctx.prec = prec + 20
        x = Decimal(x0.numerator) / Decimal(x0.denominator)
        lx = x.ln()
        total = size = Decimal(0)
        for d, c in w.items():
            term = Decimal(c.numerator) / Decimal(c.denominator) * x ** d
            if d >= 0:
                h = sum(Fraction(1, i) for i in range(1, d + 1))
                term *= lx - Decimal(h.numerator) / Decimal(h.denominator)
            total += term
            size += abs(term)
        got = Decimal(value)
        tolerance = Decimal(10) ** (1 - prec) * abs(total) + Decimal(10) ** (-prec) * size
        problems = []
        if abs(got - total) > tolerance:
            problems.append(f"value {value} differs from the direct evaluation {+total}")
        if bound is not None and not Decimal(bound) >= 0:
            problems.append(f"tail bound {bound} is not a nonnegative number")
    return problems


# -- CLI checks ---------------------------------------------------------------


def _cli_certificate(job_id: str, result: dict) -> list:
    """Closed-form checks of the JSON result of the CLI jobs that have one."""
    if job_id.startswith("verify.") or job_id == "readme.verify_golden":
        ok = result.get("status") == "pass" and result.get("checks", 0) > 0
        return [] if ok else ["suite did not pass with a positive check count"]
    if job_id in ("readme.seq", "defect.seq_polynomial_delta"):
        f = [Fraction(0), Fraction(1), Fraction(1)] + [Fraction(0)] * 16
        if job_id == "readme.seq":
            f = _delta_coeffs("forward_difference", 19)
        rows = result["rows"]
        polys = []
        for row in rows:
            n = row["n"]
            p = [Fraction(0)] * (n + 1)
            for d, c in row["coeffs"].items():
                p[int(d)] = _q(c)
            polys.append(p)
        if [row["n"] for row in rows] != list(range(len(rows))):
            return ["rows are not degrees 0..N"]
        return _basic_sequence_problems(f, polys)
    if job_id == "readme.expand":
        got = [_q(result["coefficients"][str(k)]) for k in range(7)]
        return [] if got == [_falling(Fraction(3), k) for k in range(7)] else ["not (3)_k"]
    if job_id == "readme.invert":
        got = [_q(result["coefficients"][str(k)]) for k in range(1, 9)]
        want = [Fraction((-k) ** (k - 1), factorial(k)) for k in range(1, 9)]
        ok = got == want and result.get("cross_check") == "match"
        return [] if ok else ["not the Lambert series (-k)^(k-1)/k!"]
    if job_id == "readme.connect":
        for row in result["rows"]:
            n = row["n"]
            want = {str(n - k): _rising_to_falling(n, k) for k in range(n + 1)}
            if {k: _q(v) for k, v in row["coeffs"].items()} != {k: v for k, v in want.items() if v}:
                return [f"row {n} differs from (-1)^k C(n-1,k) n!/(n-k)!"]
        return []
    if job_id == "readme.logseq":
        (row,) = result["rows"]
        want = {str(-1 - j): (-1) ** j for j in range(8)}
        return [] if {k: _q(v) for k, v in row["coeffs"].items()} == want else ["not 1/(x+1)"]
    if job_id == "readme.eval":
        # digamma(11) = H_10 - Euler's constant; the window has 12 terms at
        # x0 = 10, far more accurate than this tolerance
        psi = Decimal("2.351752589066721257733459330")
        ok = abs(Decimal(result["value"]) - psi) < Decimal("1e-9")
        return [] if ok else ["value is not digamma(11)"]
    return []


def check_cli_job(job_id: str, expected_code: int, code: int, stdout: bytes, stderr: bytes,
                  frozen: dict | None) -> list:
    """Problems of one CLI run against its documented outcome, its frozen
    digest and its certificate."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, documented {expected_code}")
    if b"Traceback" in stderr:
        problems.append("printed a traceback")
    if frozen is not None:
        if frozen["exit"] != code or frozen["stdout_sha256"] != hashlib.sha256(stdout).hexdigest():
            problems.append("stdout or exit code differs from the frozen digest")
    if code == 0 and expected_code == 0 and stdout.lstrip().startswith(b"{"):
        try:
            document = json.loads(stdout)
            problems += _cli_certificate(job_id, document["result"])
        except (ValueError, KeyError, TypeError) as err:
            problems.append(f"JSON result does not parse: {err}")
    elif job_id == "error.parse" and b"position" not in stderr:
        problems.append("parse error without a position")
    return problems


def classify_cli(problems: list, code: int, stderr: bytes, signature) -> str:
    """'ok', 'known_defect' (wrong exactly as recorded) or 'unexpected'."""
    if not problems:
        return "ok"
    if signature is not None and (code, b"Traceback" in stderr) == tuple(signature):
        return "known_defect"
    return "unexpected"
