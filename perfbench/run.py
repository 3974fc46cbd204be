"""Benchmark of umbra: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --freeze

Runs whole passes of the workload (see workloads.py) until the next pass
would end past ``--seconds``, checks every job's output (checks.py), and
prints a human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` untraced and traced passes alternate; the
metrics are the per-layer counts and self times of the traced passes, the
tracing overhead, and error_rate. ``--freeze`` rewrites digests.json from
the program as it stands.

Run it from the root of a checkout; it imports the program from ``src``
and writes scratch files under ``.bench_build/perfbench``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refloop  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import GROUPS, LAYERS  # noqa: E402

# Interpreter spawns measured for setup_s before each untraced pass, so
# that the samples spread over the whole run.
SETUP_SPAWNS_PER_PASS = 4
# Reference loops timed per library pass: between every job, or between
# steps of a few jobs where a pass has more jobs than this.
LOOPS_PER_PASS = 24
# The end-to-end metrics of the JSON line. job_p50_s is printed for every
# workload but not gated: on deep_inverse it falls between two of 8 jobs of
# quite different size and moves too much from run to run, and a gated
# metric must exist on every workload.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# Children are killed this long after the run started, so that a run ends
# inside three minutes however slow the program under test becomes.
RUN_LIMIT_S = 170

ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "UMBRA_ORDER")}
ENV["PYTHONPATH"] = str(ROOT / "src")


class Spawned:
    __slots__ = ("code", "stdout", "stderr", "seconds", "peak_rss_kb")

    def __init__(self, code, stdout, stderr, seconds, peak_rss_kb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.seconds, self.peak_rss_kb = seconds, peak_rss_kb


RUN_START = time.monotonic()


def spawn(argv: list) -> Spawned:
    """Run argv to completion; wall time from spawn to exit and the child's
    peak resident set come from wait4. A child still running at the run's
    time limit is killed."""
    with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        box = []

        def reap():
            box.append(os.wait4(proc.pid, 0))
            box.append(time.monotonic_ns())

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(max(1.0, RUN_START + RUN_LIMIT_S - time.monotonic()))
        if reaper.is_alive():
            proc.kill()
            reaper.join()
        (_, status, usage), end = box
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Spawned(proc.returncode, out.read(), err.read(), (end - start) / 1e9, usage.ru_maxrss)


def stepped_worker(argv: list, steps: list) -> tuple:
    """Run a ``worker.py lib ... --stepped`` child, letting it run
    ``steps[i]`` jobs in step i. The reference loop runs here between the
    steps, outside the process that holds the program's heap. Returns the
    child's exit code, its stderr and the loop times: one before the first
    step and one after each finished step. A child still running at the
    run's time limit is killed."""
    with open(WORK / "stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=ENV)
        loops = []
        try:
            # The child writes a line when it is ready and after each job.
            for step in range(len(steps) + 1):
                left = max(1.0, RUN_START + RUN_LIMIT_S - time.monotonic())
                if not select.select([proc.stdout], [], [], left)[0] or not proc.stdout.readline():
                    break
                loops.append(refloop.loop_seconds())
                if step < len(steps):
                    proc.stdin.write(b"%d\n" % steps[step])
                    proc.stdin.flush()
            proc.stdin.close()
            proc.wait(max(1.0, RUN_START + RUN_LIMIT_S - time.monotonic()))
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        return proc.returncode, err.read(), loops


def setup_samples(count: int) -> list:
    """(seconds, reference loop seconds) of ``count`` spawns: seconds from
    spawning a fresh interpreter until ``import umbra`` returns, read off
    the system-wide monotonic clock in both processes, and the mean of the
    reference loops timed right before and after the spawn."""
    samples = []
    loop = refloop.loop_seconds()
    for _ in range(count):
        start = time.monotonic_ns()
        child = spawn([sys.executable, "-c", "import umbra, time; print(time.monotonic_ns())"])
        if child.code != 0:
            raise ProgramMissing(child.stderr.decode(errors="replace").strip())
        seconds = (int(child.stdout) - start) / 1e9
        after = refloop.loop_seconds()
        samples.append((seconds, (loop + after) / 2))
        loop = after
    return samples


def normalized(seconds: float, loop_s: float) -> float:
    """Seconds scaled to the host speed at which the reference loop takes
    refloop.REF_S seconds."""
    return seconds * refloop.REF_S / loop_s


class ProgramMissing(Exception):
    pass


# -- one pass -------------------------------------------------------------------


class Pass:
    """Job times, peak RSS, per-job problems and (traced) counters of one pass."""

    def __init__(self, traced):
        self.traced = traced
        self.times = {}        # job id -> seconds
        self.loops = {}        # job id -> reference loop seconds around the job
        self.problems = {}     # job id -> list of problems
        self.kinds = {}        # job id -> "ok" | "known_defect" | "unexpected"
        self.wall_s = 0.0
        self.peak_rss_kb = 0
        self.trace = None
        self.outputs = None    # first pass only: job id -> output
        self.digests = None    # first library pass only: job id -> digest


def library_pass(workload: str, seed: int, traced: bool, reference: dict | None, frozen: dict | None) -> Pass:
    """One fresh worker runs the job list. The first pass of a run is
    certified job by job; later passes must reproduce its digests."""
    out = WORK / "pass.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "lib", workload, str(seed), str(int(traced)), str(out),
            "--stepped"]
    if reference is None:
        argv.append("--outputs")
    jobs = workloads.library_jobs(workload, seed)
    # Steps of near-equal job counts, one job each where there are few.
    n_steps = min(len(jobs), LOOPS_PER_PASS)
    steps = [len(jobs) * (i + 1) // n_steps - len(jobs) * i // n_steps for i in range(n_steps)]
    step_of = [i for i, count in enumerate(steps) for _ in range(count)]
    code, stderr, loops = stepped_worker(argv, steps)
    p = Pass(traced)
    problems = worker_problems(code, out) or ([] if len(loops) == len(steps) + 1 else ["worker stopped early"])
    if problems:
        sys.stderr.write(stderr.decode(errors="replace"))
        for job_id, _, _ in jobs:
            p.problems[job_id] = problems
            p.kinds[job_id] = "unexpected"
        return p
    report = json.loads(out.read_text())
    p.wall_s = report["pass_s"]
    p.peak_rss_kb = report["peak_rss_kb"]
    if traced:
        p.trace = report["trace"]
        p.trace["caches"] = report["caches"]
    results = {j["id"]: j for j in report["jobs"]}
    # A job's host speed is the mean of the reference loops right before
    # and right after its step.
    for i, (job_id, _, _) in enumerate(jobs):
        p.times[job_id] = results[job_id]["seconds"]
        p.loops[job_id] = (loops[step_of[i]] + loops[step_of[i] + 1]) / 2
        p.problems[job_id] = [results[job_id]["error"]] if results[job_id]["error"] else []
    if reference is None:
        outputs = {job_id: r["output"] for job_id, r in results.items()}
        for job_id, found in certify(workload, jobs, outputs).items():
            p.problems[job_id] += found
        p.outputs = outputs
        p.digests = {job_id: r["digest"] for job_id, r in results.items()}
    else:
        for job_id, _, _ in jobs:
            p.problems[job_id] += digest_problems(results[job_id]["digest"], reference.get(job_id), "the run's first pass")
    if frozen is not None:
        for job_id, _, _ in jobs:
            p.problems[job_id] += digest_problems(results[job_id]["digest"], frozen.get(job_id), "the frozen digest")
    for job_id in p.problems:
        p.kinds[job_id] = "unexpected" if p.problems[job_id] else "ok"
    return p


def worker_problems(code: int, out: Path) -> list:
    if code != 0:
        return [f"worker exited with code {code}"]
    if not out.exists():
        return ["worker wrote no result"]
    return []


def digest_problems(got, want, what: str) -> list:
    if got is None or want is None or got != want:
        return [f"output digest differs from {what}"]
    return []


def certify(workload: str, jobs: list, outputs: dict) -> dict:
    """Certificates of a library pass, on outputs of jobs that returned."""
    ran = [job for job in jobs if outputs.get(job[0]) is not None]
    missing = {job[0]: [] for job in jobs if outputs.get(job[0]) is None}
    if workload == "log_windows":
        try:
            return {**checks.certify_log_windows(ran, outputs), **missing}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            return {job[0]: [f"certificate could not be evaluated: {err!r}"] for job in jobs}
    found = dict(missing)
    for job_id, kind, args in ran:
        try:
            found[job_id] = checks.certify_library_job(kind, args, outputs[job_id])
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as err:
            found[job_id] = [f"certificate could not be evaluated: {err!r}"]
    return found


def cli_pass(seed: int, traced: bool, frozen: dict) -> Pass:
    """Each command in a fresh interpreter, one at a time."""
    p = Pass(traced)
    traces = []
    p.outputs = {}  # job id -> (exit code, stdout, stderr)
    # The reference loop runs here, between the commands; a command's host
    # speed is the mean of the loops right before and right after it.
    loop = refloop.loop_seconds()
    for job_id, argv, expected, signature in workloads.cli_jobs(seed):
        if time.monotonic() > RUN_START + RUN_LIMIT_S:
            p.problems[job_id] = ["not run: the run reached its time limit"]
            p.kinds[job_id] = "unexpected"
            continue
        trace_out = WORK / "cli_trace.json"
        if traced:
            trace_out.unlink(missing_ok=True)
            child = spawn([sys.executable, str(HERE / "worker.py"), "cli", str(trace_out), "--", *argv])
            if trace_out.exists():
                traces.append(json.loads(trace_out.read_text()))
        else:
            child = spawn([sys.executable, "-m", "umbra.cli", *argv])
        found = checks.check_cli_job(job_id, expected, child.code, child.stdout, child.stderr, frozen.get(job_id))
        after = refloop.loop_seconds()
        p.times[job_id] = child.seconds
        p.loops[job_id] = (loop + after) / 2
        loop = after
        p.problems[job_id] = found
        p.kinds[job_id] = checks.classify_cli(found, child.code, child.stderr, signature)
        p.outputs[job_id] = (child.code, child.stdout, child.stderr)
        p.wall_s += child.seconds
        p.peak_rss_kb = max(p.peak_rss_kb, child.peak_rss_kb)
    if traced:
        p.trace = merge_traces(traces)
    return p


def merge_traces(traces: list) -> dict:
    """Sum the counters of the traced commands of one pass."""
    merged = {
        "layers": {l: {"calls": 0, "self_s": 0.0, "failed": 0} for l in LAYERS},
        "groups": {g: {"calls": 0, "self_s": 0.0} for g in GROUPS},
        "mul_pairs": 0, "bits_out": 0, "coeff_bits_max": 0, "job_s": 0.0,
        "caches": {"hits": 0, "lookups": 0, "entries": 0},
    }
    for t in traces:
        for section in ("layers", "groups"):
            for name, values in t[section].items():
                for key, value in values.items():
                    merged[section][name][key] += value
        for key in ("mul_pairs", "bits_out", "job_s"):
            merged[key] += t[key]
        merged["coeff_bits_max"] = max(merged["coeff_bits_max"], t["coeff_bits_max"])
        for key in ("hits", "lookups", "entries"):
            merged["caches"][key] += t["caches"][key]
    return merged


# -- negative control -------------------------------------------------------------


def _bump_first_coefficient(value):
    """A copy of a serialized output with its first rational raised by 1."""
    done = [False]

    def go(v):
        if isinstance(v, str) and not done[0]:
            try:
                q = checks.Fraction(v)
            except ValueError:
                return v
            done[0] = True
            return workloads.rat_text(q + 1)
        if isinstance(v, list):
            return [go(x) for x in v]
        if isinstance(v, dict):
            return {k: go(x) for k, x in v.items()}
        return v

    return go(value)


def _flip_byte(data: bytes) -> bytes:
    """The same bytes with one digit changed."""
    i = next(i for i, c in enumerate(data) if chr(c).isdigit())
    return data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]


def negative_control(workload: str, seed: int, first: Pass, frozen: dict) -> list:
    """Feed the checker a coefficient off by one, an output with one byte
    changed and a wrong exit code; return the ones it failed to flag."""
    missed = []
    if workload == "cli_cold":
        job_id, argv, expected, _ = next(j for j in workloads.CLI_JOBS if j[0] == "readme.expand")
        code, stdout, stderr = first.outputs[job_id]
        doc = json.loads(stdout)
        doc["result"] = _bump_first_coefficient(doc["result"])
        bumped = json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"
        cases = {
            "coefficient off by one": (code, bumped),
            "one byte changed": (code, _flip_byte(stdout)),
            "wrong exit code": (3, stdout),
        }
        for label, (c, out) in cases.items():
            if not checks.check_cli_job(job_id, expected, c, out, stderr, frozen.get(job_id)):
                missed.append(label)
        return missed
    jobs = workloads.library_jobs(workload, seed)
    job_id = "expand.shift_in_forward" if workload == "deep_inverse" else jobs[0][0]
    outputs = dict(first.outputs)
    outputs[job_id] = _bump_first_coefficient(outputs[job_id])
    if not certify(workload, jobs, outputs)[job_id]:
        missed.append("coefficient off by one")
    flipped = checks.hashlib.sha256(_flip_byte(worker.canonical(first.outputs[job_id]))).hexdigest()
    if not digest_problems(flipped, first.digests[job_id], "the run's first pass"):
        missed.append("one byte changed")
    out = WORK / "pass.json"
    if not worker_problems(1, out):
        missed.append("wrong exit code")
    return missed


# -- the run ------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so that the reference
    loop timed here runs where the jobs run."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    digests = checks.load_digests()
    frozen_cli = digests["cli_cold"]
    frozen_lib = digests.get(workload) if seed == checks.DEFAULT_SEED else None
    setup = setup_samples(1)  # also fails fast when the program is missing
    passes = []
    reference = None
    durations = []
    while True:
        began = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        if not trace:
            setup += setup_samples(SETUP_SPAWNS_PER_PASS)
        if workload == "cli_cold":
            p = cli_pass(seed, traced, frozen_cli)
        else:
            p = library_pass(workload, seed, traced, reference, frozen_lib)
        if not passes:
            missed = negative_control(workload, seed, p, frozen_cli) if p.outputs else ["no outputs"]
            reference = p.digests
        passes.append(p)
        durations.append(time.monotonic() - began)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.monotonic() + median(durations[-3:]) > RUN_START + seconds:
            break
    samples = {
        "ref_s": refloop.REF_S,
        "setup_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "peak_rss_kb": p.peak_rss_kb, "jobs": p.times,
                    "loop_s": p.loops} for p in passes],
    }
    (WORK / f"samples-{workload}-{seed}-{int(trace)}.json").write_text(json.dumps(samples))
    return summarize(workload, seed, trace, passes, setup, missed)


def summarize(workload, seed, trace, passes, setup, missed) -> dict:
    kinds = [k for p in passes for k in p.kinds.values()]
    attempted = len(kinds)
    known = kinds.count("known_defect")
    unexpected = kinds.count("unexpected")
    error_rate = (known + unexpected) / attempted
    plain = [p for p in passes if not p.traced]
    lines = [f"umbra benchmark: workload {workload}, seed {seed}, {len(passes)} passes, {attempted} jobs"]
    if not trace:
        job_ids = list(plain[0].times)
        # Each job's median over the passes of its normalized time: the
        # normalization takes out the slow minutes of a loaded host, the
        # median the bursts during single jobs.
        job_medians = [median([normalized(p.times[j], p.loops[j]) for p in plain if j in p.times])
                       for j in job_ids]
        measured = [median([p.times[j] for p in plain if j in p.times]) for j in job_ids]
        speed = median([refloop.REF_S / p.loops[j] for p in plain for j in p.loops])
        metrics = {
            "wall_s": (sum(job_medians), "s"),
            "job_p50_s": (median(job_medians), "s"),
            "setup_s": (median([normalized(s, loop) for s, loop in setup]), "s"),
            "peak_rss_mb": (median([p.peak_rss_kb for p in plain]) / 1024, "MB"),
        }
        notes = {
            "wall_s": f"one pass, as the sum of each job's median of {len(plain)} passes; "
                      f"measured {sum(measured):.4f} s, median pass {median([p.wall_s for p in plain]):.4f} s",
            "job_p50_s": f"median over {len(job_ids)} jobs of each one's median of {len(plain)} passes; "
                         f"measured {median(measured):.4f} s",
            "setup_s": f"median of {len(setup)} spawns; measured {median([s for s, _ in setup]):.4f} s",
            "peak_rss_mb": f"median over {len(plain)} passes of each pass's peak",
        }
        lines.append(f"  times in seconds at the reference host speed; the host ran at {speed:.3f} of it")
    else:
        metrics = layer_metrics(passes)
        notes = {}
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    if trace:
        total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) or 1.0
        lines.append("  share of traced self time: " + ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'][0] / total:.3f}" for layer in LAYERS))
    lines.append(f"  {'error_rate':40s} {error_rate:14.6g} {'ratio':6s} "
                 f"{known + unexpected} wrong of {attempted}: {known} known defects, {unexpected} unexpected")
    first = passes[0]
    for job_id, found in first.problems.items():
        if found:
            lines.append(f"    {first.kinds[job_id]:12s} {job_id}: {'; '.join(found)}")
    lines.append(f"  negative control: {3 - len(missed)} of 3 doctored results flagged"
                 + (f" (missed: {', '.join(missed)})" if missed else ""))
    print("\n".join(lines))
    if trace:
        metrics["error_rate"] = (error_rate, "ratio")
    else:
        metrics = {name: metrics[name] for name in END_TO_END}
    return {
        "correct": unexpected == 0 and not missed,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(passes: list) -> dict:
    """Medians over the traced passes of the per-layer counters."""
    traced = [p for p in passes if p.traced and p.trace]
    plain = [p for p in passes if not p.traced]

    def med(get):
        return median([get(p.trace) for p in traced])

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (med(lambda t: t["layers"][layer]["calls"]), "count")
        out[f"{layer}.self_s"] = (med(lambda t: t["layers"][layer]["self_s"]), "s")
        out[f"{layer}.failed"] = (med(lambda t: t["layers"][layer]["failed"]), "count")
    for group in GROUPS:
        out[f"{group}.calls"] = (med(lambda t: t["groups"][group]["calls"]), "count")
        out[f"{group}.self_s"] = (med(lambda t: t["groups"][group]["self_s"]), "s")
    out["series.mul.pairs"] = (med(lambda t: t["mul_pairs"]), "count")
    out["series.coeff_bits_max"] = (med(lambda t: t["coeff_bits_max"]), "bit")
    out["series.bits_out"] = (med(lambda t: t["bits_out"]), "bit")
    lookups = med(lambda t: t["caches"]["lookups"])
    hits = med(lambda t: t["caches"]["hits"])
    out["numbers.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["numbers.cache_lookups"] = (lookups, "count")
    out["numbers.cache_entries"] = (med(lambda t: t["caches"]["entries"]), "count")
    def pass_s(p):
        return sum(normalized(p.times[j], p.loops[j]) for j in p.times)

    traced_wall = median([pass_s(p) for p in traced])
    plain_wall = median([pass_s(p) for p in plain])
    out["trace.overhead_ratio"] = (traced_wall / plain_wall - 1 if plain_wall else 0.0, "ratio")
    self_sum = med(lambda t: sum(v["self_s"] for v in t["layers"].values()))
    job_s = med(lambda t: t["job_s"])
    out["trace.attributed_ratio"] = (self_sum / job_s if job_s else 0.0, "ratio")
    return out


# -- freezing digests -------------------------------------------------------------


def freeze() -> None:
    """Record the digests of the program as it stands, for the default seed."""
    WORK.mkdir(parents=True, exist_ok=True)
    frozen = {}
    for workload in ("deep_inverse", "log_windows"):
        out = WORK / "pass.json"
        child = spawn([sys.executable, str(HERE / "worker.py"), "lib", workload,
                       str(checks.DEFAULT_SEED), "0", str(out)])
        if worker_problems(child.code, out):
            raise SystemExit(child.stderr.decode(errors="replace"))
        frozen[workload] = {j["id"]: j["digest"] for j in json.loads(out.read_text())["jobs"]}
    frozen["cli_cold"] = {}
    for job_id, argv, _, signature in workloads.CLI_JOBS:
        if signature is None:
            child = spawn([sys.executable, "-m", "umbra.cli", *argv])
            frozen["cli_cold"][job_id] = {
                "exit": child.code,
                "stdout_sha256": checks.hashlib.sha256(child.stdout).hexdigest(),
            }
    checks.DIGESTS_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite digests.json and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "umbra").is_dir():
        sys.stderr.write(f"error: no program to measure: {ROOT / 'src' / 'umbra'} is missing\n")
        return 1
    try:
        if args.freeze:
            freeze()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        sys.stderr.write(f"error: cannot import the program: {err}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
