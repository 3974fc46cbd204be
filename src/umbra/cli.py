"""Command-line front end.

Subcommands:

    seq      basic polynomial sequence of a delta operator
    logseq   windowed harmonic-log basic sequence (any integer degree)
    expand   coefficients of an operator in powers of a delta basis
    invert   Lagrange-inversion coefficients of the compositional inverse
    connect  connection constants between two basic sequences
    verify   named identity suites with exact certification
    eval     numeric evaluation of a harmonic-log window at a point

Operators are written as expressions in D, for example "exp(D)-1" or
"D*exp(b*D)" with --param b=1/2. Exit codes: 0 success, 2 expression or
flag errors, 3 domain errors (preconditions), 4 failed verification.
Defaults may come from --config key=value files and the UMBRA_ORDER
environment variable; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction as Rat

from .errors import ParseError, PreconditionError, UmbraError, VerificationFailure
from .logarithmic import evaluate_numeric, log_sequence, tail_bound
from .operators import DeltaOperator, expand_in_basis, lagrange_inversion
from .parsing import elaborate, parse_operator, pretty, truncate_exact
from .sequences import connection_constants, generate_transfer
from .series import TruncatedSeries, compose, monomial
from .suites import SUITE_NAMES, run_suite

DEFAULT_ORDER = 16
DEFAULT_DEPTH = 12
DEFAULT_FORMAT = "json"
# documented caps: verify --n 96 takes several seconds per suite, verify
# --depth 200 runs past 30 s, eval --depth 600 takes about 11 s where 300
# takes about one, and eval --prec 50000 does not finish in minutes
VERIFY_N_MAX = 64
VERIFY_DEPTH_MAX = 64
LOG_DEPTH_MAX = 300
PREC_MAX = 10000
DEPTH_MAX = {"verify": VERIFY_DEPTH_MAX, "logseq": LOG_DEPTH_MAX, "eval": LOG_DEPTH_MAX}


class UsageError(UmbraError):
    """A malformed flag or config value; the CLI maps these to exit code 2."""


# -- configuration --------------------------------------------------------


def _read_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys: order, depth, format."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from err
    for i, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"config line {i} is not key=value")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in ("order", "depth"):
            try:
                out[key] = int(value)
            except ValueError as err:
                raise UsageError(
                    f"config line {i}: {key} must be an integer, got {value!r}"
                ) from err
        elif key == "format":
            out[key] = value
        else:
            raise UsageError(f"unknown config key {key!r}")
    return out


def _resolve_settings(args) -> dict:
    config = _read_config(args.config) if args.config else {}
    env_order = os.environ.get("UMBRA_ORDER")
    order = args.order
    if order is None:
        order = config.get("order")
    if order is None and env_order is not None:
        try:
            order = int(env_order)
        except ValueError as err:
            raise UsageError(f"UMBRA_ORDER must be an integer, got {env_order!r}") from err
    if order is not None and order < 1:
        raise UsageError(f"order must be a positive integer, got {order}")
    depth = args.depth
    if depth is None:
        depth = config.get("depth")
    if depth is not None and depth < 1:
        raise UsageError(f"depth must be a positive integer, got {depth}")
    cap = DEPTH_MAX.get(args.command)
    if depth is not None and cap is not None and depth > cap:
        raise UsageError(f"{args.command} depth must be at most the cap {cap}, got {depth}")
    fmt = getattr(args, "format", None)
    if fmt is None:
        fmt = config.get("format")
    if fmt is not None and fmt not in ("json", "csv", "latex", "plain"):
        raise UsageError(f"unknown format {fmt!r}")
    return {
        "order": DEFAULT_ORDER if order is None else order,
        "depth": DEFAULT_DEPTH if depth is None else depth,
        "format": fmt or DEFAULT_FORMAT,
    }


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param {pair!r} is not name=value")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = Rat(value.strip())
        except (ValueError, ZeroDivisionError) as err:
            raise UsageError(
                f"--param {key.strip()!r} needs a rational value"
            ) from err
    return out


def _parse_range(args, fallback) -> range:
    if getattr(args, "n", None) is not None and getattr(args, "range", None):
        raise UsageError("give --n or --range, not both")
    if getattr(args, "n", None) is not None:
        return range(args.n, args.n + 1)
    text = getattr(args, "range", None) or fallback
    head, sep, tail = text.partition("..")
    if not sep:
        raise UsageError("--range must look like A..B")
    try:
        lo, hi = int(head), int(tail)
    except ValueError as err:
        raise UsageError("--range must be integer..integer") from err
    if hi < lo:
        raise UsageError("--range must be nondecreasing")
    return range(lo, hi + 1)


# -- value rendering ------------------------------------------------------


def _text(value) -> str:
    """The one way a flat value becomes text: an exact value by str, a dict
    as the sorted JSON of its _jsonable form. A value whose decimal digits
    pass the interpreter's int-to-str limit is refused, not crashed on."""
    if isinstance(value, dict):
        return json.dumps(_jsonable(value), sort_keys=True)
    try:
        return str(value)
    except ValueError as err:  # only past the limit, so the interpreter has one
        n = max(abs(value.numerator), value.denominator)
        digits = int((n.bit_length() - 1) * 0.30102999566398) + 1
        digits += n >= 10**digits
        raise PreconditionError(
            f"a value needs {digits} decimal digits, past the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for printing an integer"
        ) from err


def _jsonable(value):
    if isinstance(value, dict):
        return {_text(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (Rat, Decimal)):
        return _text(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _rat_latex(q) -> str:
    if q.denominator == 1:
        return _text(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{_text(abs(q.numerator))}}}{{{_text(q.denominator)}}}"


_LATEX_ESCAPES = str.maketrans({"\\": r"\textbackslash{}", "^": r"\textasciicircum{}",
                                "~": r"\textasciitilde{}", **{c: "\\" + c for c in "{}_%&#$"}})


def _latex_text(value) -> str:
    """A key or value as LaTeX text, special characters escaped."""
    return _text(value).translate(_LATEX_ESCAPES)


def _term_plain(c: Rat, var: str, d: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if d == 0:
        body = _text(mag)
    else:
        v = var if d == 1 else (f"{var}^({d})" if d < 0 else f"{var}^{d}")
        body = v if mag == 1 else f"{_text(mag)}*{v}"
    return f"{sign}{body}" if first else f"{sign} {body}"


def _sum_plain(items, var) -> str:
    # items: iterable of (degree, coefficient), rendered high degree first
    parts = []
    for d, c in items:
        parts.append(_term_plain(c, var, d, first=not parts))
    return " ".join(parts) if parts else "0"


# -- commands -------------------------------------------------------------


def _delta_from(text: str, params: dict, order: int) -> DeltaOperator:
    """The delta operator an expression names. An exact series that is not
    a monomial is truncated at the working order, so that its reciprocal
    and inverse are determined; exact monomials such as D stay exact."""
    tree = parse_operator(text, params)
    series = truncate_exact(elaborate(tree, params, order), order)
    return DeltaOperator(series, name=pretty(tree))


def _cmd_seq(args, settings, params):
    op = _delta_from(args.op, params, settings["order"])
    degrees = _parse_range(args, "0..6")
    if degrees[0] < 0:
        raise PreconditionError("seq degrees must be nonnegative; use logseq")
    seq = generate_transfer(op, degrees[-1])
    rows = [
        {"n": n, "basis": "x^k", "coeffs": {d: c for d, c in enumerate(seq[n].coeffs) if c}}
        for n in degrees
    ]
    return {"operator": op.name, "rows": rows}, True


def _cmd_logseq(args, settings, params):
    op = _delta_from(args.op, params, settings["order"])
    degrees = _parse_range(args, "-3..3")
    rows = []
    for n in degrees:
        s = log_sequence(op, n, settings["depth"])
        rows.append(
            {
                "n": n,
                "basis": "lambda_k^(1)",
                "coeffs": dict(sorted(s.coeffs.items())),
                "floor": None if s.is_exact else int(s.floor),
                "top": n,
                "order_t": 1,
            }
        )
    return {"operator": op.name, "rows": rows}, True


def _cmd_expand(args, settings, params):
    order = settings["order"]
    ttree = parse_operator(args.op, params)
    target = elaborate(ttree, params, order)
    basis = _delta_from(args.op2 or "D", params, order)
    coeffs = expand_in_basis(target, basis, k_max=args.n)
    return {
        "operator": pretty(ttree),
        "basis": basis.name,
        "coefficients": dict(enumerate(coeffs)),
    }, True


def _cmd_invert(args, settings, params):
    order = settings["order"]
    op = _delta_from(args.op, params, order)
    k_max = args.n if args.n is not None else order - 2
    if k_max < 1:
        raise UsageError(
            f"the default --n is order - 2 = {k_max}, below 1; pass --n or --order 3 or more"
        )
    coeffs = lagrange_inversion(op.series, monomial(1), k_max)
    # Certificate: g(f(t)) = t on every exponent the truncations determine,
    # for f_1 != 0 the same as f(g(t)) = t, with the operator as the inner
    # series, whose rows abel and the differences read off a rule.
    g = TruncatedSeries(dict(enumerate(coeffs, start=1)), len(coeffs) + 1)
    residual = compose(g, op.series) - monomial(1)
    status = "match" if residual.is_zero else "mismatch"
    payload = {
        "operator": op.name,
        "coefficients": dict(enumerate(coeffs, start=1)),
        "cross_check": status,
    }
    if status != "match":
        raise VerificationFailure(
            f"the Lagrange inverse g fails f(g(t)) = t at t^{residual.valuation}",
            payload,
        )
    return payload, True


def _cmd_connect(args, settings, params):
    order = settings["order"]
    g = _delta_from(args.op, params, order)
    h = _delta_from(args.op2, params, order)
    n_max = args.n if args.n is not None else 6
    matrix = connection_constants(g, h, n_max)
    rows = [
        {"n": n, "coeffs": {k: c for k, c in enumerate(matrix.row(n)) if c}}
        for n in range(n_max + 1)
    ]
    return {"source": h.name, "target": g.name, "rows": rows}, True


def _cmd_verify(args, settings, params):
    report = run_suite(
        args.suite,
        parameters=params,
        n_max=args.n,
        depth=settings["depth"],
        corrupt=args.corrupt,
    )
    return report, report["status"] == "pass"


def _cmd_eval(args, settings, params):
    op = _delta_from(args.op, params, settings["order"])
    n = args.n if args.n is not None else 0
    s = log_sequence(op, n, settings["depth"])
    value = evaluate_numeric(s, args.x0, args.prec)
    bound = tail_bound(s, args.x0, args.prec)
    return {
        "operator": op.name,
        "n": n,
        "x0": args.x0,
        "precision": args.prec,
        "value": value,
        "tail_bound": bound,
        "floor": int(s.floor),
    }, True


# -- output formats -------------------------------------------------------


def _render_csv(command: str, payload: dict) -> str:
    lines = []
    if "rows" in payload:
        lines.append("n,degree,coefficient" if command in ("seq", "logseq") else "n,k,value")
        for row in payload["rows"]:
            for d, c in row["coeffs"].items():
                lines.append(f"{row['n']},{d},{_text(c)}")
    elif "coefficients" in payload:
        lines.append("k,coefficient")
        for k, c in payload["coefficients"].items():
            lines.append(f"{k},{_text(c)}")
    else:
        lines.append("key,value")
        for key in sorted(payload):
            lines.append(f"{key},{_text(payload[key])}")
    return "\n".join(lines)


def _render_latex(command: str, payload: dict) -> str:
    lines = []
    if command in ("seq", "logseq"):
        for row in payload["rows"]:
            terms = []
            for d, c in sorted(row["coeffs"].items(), reverse=True):
                coeff = _rat_latex(c)
                if d == 0:
                    terms.append(coeff)
                else:
                    if command == "seq":
                        base = "x" if d == 1 else f"x^{{{d}}}"
                    else:
                        base = f"\\lambda_{{{d}}}"
                    if c == 1:
                        terms.append(base)
                    elif c == -1:
                        terms.append(f"-{base}")
                    else:
                        terms.append(f"{coeff}\\,{base}")
            body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
            lines.append(f"p_{{{row['n']}}} &= {body} \\\\")
        return "\\begin{align*}\n" + "\n".join(lines) + "\n\\end{align*}"
    if "coefficients" in payload:
        for k, c in payload["coefficients"].items():
            lines.append(f"c_{{{k}}} &= {_rat_latex(c)} \\\\")
        return "\\begin{align*}\n" + "\n".join(lines) + "\n\\end{align*}"
    if "rows" in payload:  # connect
        size = len(payload["rows"])
        body = []
        for row in payload["rows"]:
            cells = [_rat_latex(row["coeffs"].get(k, 0)) for k in range(size)]
            body.append(" & ".join(cells) + " \\\\")
        return "\\begin{pmatrix}\n" + "\n".join(body) + "\n\\end{pmatrix}"
    for key in sorted(payload):
        lines.append(f"\\text{{{_latex_text(key)}}}: {_latex_text(payload[key])} \\\\")
    return "\n".join(lines)


def _render_plain(command: str, payload: dict) -> str:
    lines = []
    if command in ("seq", "logseq"):
        for row in payload["rows"]:
            items = sorted(row["coeffs"].items(), reverse=True)
            if command == "seq":
                lines.append(f"p_{row['n']}(x) = {_sum_plain(items, 'x')}")
            else:
                body = _sum_plain(items, "L")
                lines.append(f"p_{row['n']} = {body}   (window floor {row['floor']})")
    elif command == "connect":
        for row in payload["rows"]:
            cells = ", ".join(f"{k}: {_text(c)}" for k, c in row["coeffs"].items())
            lines.append(f"n={row['n']}: {cells if cells else '0'}")
    elif "coefficients" in payload:
        for k, c in payload["coefficients"].items():
            lines.append(f"c_{k} = {_text(c)}")
        if "cross_check" in payload:
            lines.append(f"cross check: {payload['cross_check']}")
    elif command == "verify":
        lines.append(
            f"suite {payload['suite']}: {payload['status']} "
            f"({payload['checks']} checks)"
        )
        lines.append(payload["identity"])
        if payload.get("witness"):
            lines.append(f"witness: {_text(payload['witness'])}")
        for key in ("difference_1", "difference_2", "tolerance", "terms"):
            if payload.get(key) is not None:
                lines.append(f"{key} = {_text(payload[key])}")
    else:
        for key in sorted(payload):
            lines.append(f"{key} = {_text(payload[key])}")
    return "\n".join(lines)


def _render(command: str, payload: dict, settings: dict, ok: bool) -> str:
    fmt = settings["format"]
    if fmt == "json":
        document = {
            "command": command,
            "order": settings["order"],
            "status": "ok" if ok else "fail",
            "result": _jsonable(payload),
        }
        if command in DEPTH_MAX:
            document["depth"] = settings["depth"]
        return json.dumps(document, sort_keys=True, indent=2)
    render = {"csv": _render_csv, "latex": _render_latex, "plain": _render_plain}[fmt]
    return render(command, payload)


# -- argument parsing -----------------------------------------------------


def _rational(text: str) -> Rat:
    try:
        return Rat(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from err


def _int_at_least(low: int, cap=None):
    """An argparse type accepting integers >= low, and <= cap when one is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from err
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most the cap {cap}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports usage errors in one line, like every other exit-2 error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--order", type=int, default=None, help="working order (default 16, or UMBRA_ORDER)")
    shared.add_argument("--depth", type=int, default=None, help="window depth for harmonic logs (default 12)")
    shared.add_argument("--format", choices=("json", "csv", "latex", "plain"), default=None)
    shared.add_argument("--config", default=None, help="key=value defaults file (order, depth, format)")
    shared.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a rational parameter; identities with free parameters are certified at several rational points",
    )

    parser = _Parser(
        prog="umbra",
        description="Finite operator calculus on exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, parents=[shared], help=help_text, **kwargs)
        return p

    p = add("seq", "basic polynomial sequence of a delta operator")
    p.add_argument("--op", required=True, help="delta operator expression, e.g. 'exp(D)-1'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--range", default=None, metavar="A..B")

    p = add("logseq", "windowed harmonic-log basic sequence",
            description=f"Windowed harmonic-log basic sequence; the window depth (--depth, "
                        f"or depth in --config) is at most {LOG_DEPTH_MAX}.")
    p.add_argument("--op", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--range", default=None, metavar="A..B")

    p = add("expand", "coefficients of an operator in a delta basis")
    p.add_argument("--op", required=True, help="operator to expand")
    p.add_argument("--op2", default=None, help="delta basis (default D)")
    p.add_argument("--n", type=_int_at_least(0), default=None, help="highest power")

    p = add("invert", "compositional inverse by Lagrange inversion")
    p.add_argument("--op", required=True)
    p.add_argument("--n", type=_int_at_least(1), default=None, help="highest coefficient")

    p = add("connect", "connection constants between two basic sequences")
    p.add_argument("--op", required=True, help="target basis operator")
    p.add_argument("--op2", required=True, help="source basis operator")
    p.add_argument("--n", type=_int_at_least(0), default=None, help="highest row (default 6)")

    p = add("verify", "run a named identity suite",
            description=f"Run a named identity suite; the window depth (--depth, or depth "
                        f"in --config) is at most {VERIFY_DEPTH_MAX}.")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--n", type=_int_at_least(1, VERIFY_N_MAX), default=None,
                   help=f"grid size where applicable (at most {VERIFY_N_MAX})")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb the object under test first; a healthy build then fails with exit code 4 (negative control)",
    )

    p = add("eval", "evaluate a harmonic-log window numerically",
            description=f"Evaluate a harmonic-log window numerically; the window depth "
                        f"(--depth, or depth in --config) is at most {LOG_DEPTH_MAX}.")
    p.add_argument("--op", required=True)
    p.add_argument("--n", type=int, default=None, help="degree (default 0)")
    p.add_argument("--x0", type=_rational, required=True, help="evaluation point, rational like 5 or 7/2")
    p.add_argument("--prec", type=_int_at_least(1, PREC_MAX), default=28,
                   help=f"decimal digits (default 28, at most {PREC_MAX})")

    return parser


_DISPATCH = {
    "seq": _cmd_seq,
    "logseq": _cmd_logseq,
    "expand": _cmd_expand,
    "invert": _cmd_invert,
    "connect": _cmd_connect,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep those
        # codes but return instead of killing an embedding interpreter
        return int(exc.code or 0)
    try:
        settings = _resolve_settings(args)
        params = _parse_params(args.param)
        payload, ok = _DISPATCH[args.command](args, settings, params)
        sys.stdout.write(_render(args.command, payload, settings, ok) + "\n")
    except (ParseError, UsageError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except PreconditionError as err:
        hint = "; raise --order" if err.needed is not None else ""
        sys.stderr.write(f"error: {err}{hint}\n")
        return 3
    except VerificationFailure as err:
        sys.stderr.write(f"error: {err}\n")
        if getattr(err, "witness", None) is not None:
            sys.stderr.write(
                json.dumps(_jsonable(err.witness), sort_keys=True, indent=2) + "\n"
            )
        return 4
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
