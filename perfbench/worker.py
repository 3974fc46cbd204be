"""Child process of the benchmark: one fresh interpreter per pass or command.

    worker.py lib WORKLOAD SEED TRACE OUT [--outputs] [--stepped]
        run one pass of a library workload and write its result to OUT;
        with --stepped, run the jobs in steps: read a count of jobs from
        stdin, run that many, and write a line on stdout when ready and
        after each step
    worker.py cli OUT -- ARGV...
        run ``umbra.cli.main(ARGV)`` under the tracer, like
        ``python -m umbra.cli ARGV``, and write the trace to OUT

The parent puts the checkout's ``src`` on PYTHONPATH, so ``import umbra``
loads the program under test.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _rat(q) -> str:
    return workloads.rat_text(Fraction(q))


def serialize(value):
    """A canonical JSON-able form of a job result; its digest is the job's
    output digest."""
    import umbra

    if isinstance(value, umbra.TruncatedSeries):
        return {
            "order": "inf" if value.order == umbra.INF else int(value.order),
            "coeffs": [[e, _rat(c)] for e, c in sorted(value.coeffs.items())],
        }
    if isinstance(value, umbra.HarmonicLogSeries):
        return {
            "floor": None if value.is_exact else int(value.floor),
            "coeffs": [[d, _rat(c)] for d, c in sorted(value.coeffs.items())],
        }
    if isinstance(value, umbra.ConnectionMatrix):
        return [[_rat(c) for c in row] for row in value.entries]
    if isinstance(value, umbra.Polynomial):
        return [_rat(c) for c in value.coeffs]
    if isinstance(value, dict):
        return [[k, _rat(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [serialize(v) for v in value]
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, Decimal):
        return str(value)
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical(serialized) -> bytes:
    return json.dumps(serialized, sort_keys=True, separators=(",", ":")).encode()


def digest(serialized) -> str:
    return hashlib.sha256(canonical(serialized)).hexdigest()


def _operator(u, args, order):
    params = {"b": args["b"]} if "b" in args else {}
    return u.catalog(args["op"], params, order=order)


def run_job(u, kind: str, args: dict):
    """One library call. ``u`` is the umbra package; names are looked up on
    it at call time so that a tracer's rebinding is seen."""
    if kind == "inverse":
        return u.compositional_inverse(_operator(u, args, args["order"]).series)
    if kind == "expand":
        n = args["order"]
        shift = u.catalog("shift", {"a": args["a"]}, order=n)
        fd = u.catalog("forward_difference", order=n)
        return u.expand_in_basis(shift.series, fd.series, k_max=n - 2)
    if kind == "connect":
        n = args["order"]
        bd = u.catalog("backward_difference", order=n)
        fd = u.catalog("forward_difference", order=n)
        return u.connection_constants(bd, fd, n - 2)
    if kind == "lagrange":
        n = args["order"]
        abel = u.catalog("abel", {"b": args["b"]}, order=n)
        return u.lagrange_inversion(abel.series, u.monomial(1), n - 2)
    if kind in ("transfer", "recurrence"):
        n = args["order"]
        abel = u.catalog("abel", {"b": args["b"]}, order=n)
        gen = u.generate_transfer if kind == "transfer" else u.generate_recurrence
        return gen(abel, n - 2).terms(n - 2)
    depth = workloads.LOG_DEPTH
    if kind == "log_sequence":
        return u.log_sequence(_operator(u, args, depth + 1), args["n"], depth)
    if kind == "newton":
        window = u.log_sequence(_operator(u, args, depth + 1), -1, depth)
        return u.newton_expand(window, depth=workloads.NEWTON_DEPTH)
    if kind == "numeric":
        from umbra import logarithmic

        window = u.log_sequence(_operator(u, args, depth + 1), args["n"], depth)
        prec = workloads.NUMERIC_PRECISION
        value = logarithmic.evaluate_numeric(window, args["x0"], prec)
        bound = logarithmic.tail_bound(window, args["x0"], prec)
        return [window, value, bound]
    if kind == "log_lower_factorial":
        return u.log_lower_factorial(args["n"], depth=workloads.LLF_DEPTH)
    raise ValueError(f"unknown job kind {kind!r}")


def cache_stats() -> dict:
    """hits, lookups and entries of the memoised number engines, from their
    public cache_info()."""
    from umbra import logarithmic, numbers

    hits = lookups = entries = 0
    for fn in (numbers.roman_factorial, numbers.roman_coefficient,
               numbers.stirling_second, logarithmic.monomial_expansion):
        info = fn.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
        entries += info.currsize
    return {"hits": hits, "lookups": lookups, "entries": entries}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _step_done() -> None:
    sys.stdout.write("done\n")
    sys.stdout.flush()


def lib_pass(workload: str, seed: int, trace: bool, out: Path, want_outputs: bool, stepped: bool) -> None:
    import umbra

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.library_jobs(workload, seed)
    results = []
    clock = time.perf_counter_ns
    pass_s = 0.0
    # The client times its reference loop between the steps.
    step_left = 0
    if stepped:
        _step_done()
    for job_id, kind, args in jobs:
        if stepped and step_left == 0:
            line = sys.stdin.readline()
            if not line:
                return
            step_left = int(line)
        start = clock()
        try:
            value, error = run_job(umbra, kind, args), None
        except Exception as err:  # a failing job is recorded, not fatal
            value, error = None, f"{type(err).__name__}: {err}"
        seconds = (clock() - start) / 1e9
        pass_s += seconds
        results.append((job_id, seconds, value, error))
        step_left -= 1
        if stepped and step_left == 0:
            _step_done()
    peak_rss_kb = _peak_rss_kb()
    trace_report = None
    if tracer is not None:
        tracer.uninstall()
        trace_report = tracer.report(job_s=pass_s)
        tracer.write_spans(out.with_suffix(".spans"))
    jobs_out = []
    for job_id, seconds, value, error in results:
        entry = {"id": job_id, "seconds": seconds, "error": error, "digest": None, "output": None}
        if error is None:
            data = serialize(value)
            entry["digest"] = digest(data)
            if want_outputs:
                entry["output"] = data
        jobs_out.append(entry)
    report = {
        "jobs": jobs_out,
        "pass_s": pass_s,
        "peak_rss_kb": peak_rss_kb,
        "caches": cache_stats(),
        "trace": trace_report,
    }
    out.write_text(json.dumps(report))


def cli_traced(out: Path, argv: list) -> int:
    """Run one CLI command in this process with the tracer installed. An
    uncaught exception prints its traceback and exits 1, as the interpreter
    does for ``python -m umbra.cli``."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from umbra import cli

    start = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    job_s = (time.perf_counter_ns() - start) / 1e9
    sys.stdout.flush()
    tracer.uninstall()
    report = tracer.report(job_s=job_s)
    report["caches"] = cache_stats()
    tracer.write_spans(out.with_suffix(".spans"))
    out.write_text(json.dumps(report))
    return code if isinstance(code, int) else 1


def main(argv: list) -> int:
    if argv[0] == "lib":
        workload, seed, trace, out = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
        lib_pass(workload, seed, trace, out, "--outputs" in argv[5:], "--stepped" in argv[5:])
        return 0
    if argv[0] == "cli":
        out = Path(argv[1])
        if argv[2] != "--":
            raise SystemExit("usage: worker.py cli OUT -- ARGV...")
        return cli_traced(out, argv[3:])
    raise SystemExit(f"unknown worker mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
