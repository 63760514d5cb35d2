"""supdeform benchmark: time to a verified answer, end to end and per layer.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record     # rewrite bench/expected.json from this code

The benchmark imports ``supdeform`` from ``src/`` and calls
``supdeform.cli.main`` in-process, one call at a time: a closed loop with one
caller, in one single-threaded process.  Every call's exit code and the
SHA-256 of its stdout are compared with ``bench/expected.json``, recorded from
a commit whose answers are trusted; a call that differs counts as failed.

Workloads (argument lists in ``WORKLOADS``):

* ``betti-g0p``: one ``betti`` call on aff(1)+aff(1) extended by g0' at
  weight -4.  Nearly all time is Bareiss elimination over Q[t] on the pivots
  locus path; ``axioms`` is never entered.
* ``jacobi-filiform5``: one ``axioms`` call on the 5-dim filiform algebra,
  32 768 super Jacobi triples through ``form_bracket``; no elimination.
* ``cli-sweep``: many short calls over the shipped configs and small rungs,
  including three expected exit-1 answers.  It shows per-call fixed costs,
  the minors locus path, Schouten, and chain assembly without elimination.
  The seed permutes its call order; answers do not depend on the order.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median time
of one pass over the workload's calls), ``setup_s`` (median over fresh
interpreters of the time to import ``supdeform`` and load the workload's
configs), ``peak_rss_mb`` and ``ops_ok_frac`` (calls answered as expected per
call attempted).  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of ``tracer.py``, plus the tracing overhead
and a check that tracing changed no answer.

The last stdout line is the result object; the line before it is a report
with the environment, the seed, the call order and per-call details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

# fresh interpreters timed for setup_s; one more runs first and is not counted,
# so that bytecode compilation of a fresh checkout does not enter the median
SETUP_SAMPLES = 11

AFF_G0P = "bench/configs/aff1-aff1-g0prime.cfg"
FILIFORM5 = "bench/configs/filiform5-standard.cfg"
HEIS_TRIVIAL = "bench/configs/heisenberg-trivial-kappa.cfg"
SHIPPED = ["dim2-standard", "dim2-trivial", "dim2-extended", "heisenberg-closed", "heisenberg-nonclosed"]
SWEEP_WEIGHTS = ["--weight", "-3", "--weight", "-4", "--weight", "-5", "--weight", "-6"]


def _sweep_calls() -> list[list[str]]:
    calls = []
    for name in SHIPPED:
        cfg = f"configs/{name}.cfg"
        calls += [
            ["validate", "--config", cfg],
            ["axioms", "--config", cfg],
            ["chain", "--config", cfg, *SWEEP_WEIGHTS],
            ["betti", "--config", cfg, *SWEEP_WEIGHTS],
            ["schouten", "--config", cfg],
        ]
    calls += [
        ["schouten", "--config", AFF_G0P],
        ["ffamily", "--closed", "--grid", "8"],
        ["ffamily", "--nonclosed", "--grid", "8"],
        ["chain", "--config", AFF_G0P, "--weight", "-5", "--format", "json"],
        ["chain", "--config", AFF_G0P, "--weight", "-6", "--format", "json"],
        ["betti", "--config", HEIS_TRIVIAL, "--weight", "-5"],
    ]
    return calls


WORKLOADS = {
    "betti-g0p": [["betti", "--config", AFF_G0P, "--weight", "-4", "--format", "json"]],
    "jacobi-filiform5": [["axioms", "--config", FILIFORM5, "--format", "json"]],
    "cli-sweep": _sweep_calls(),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, configs or answers)."""


def call_id(argv: list[str]) -> str:
    return " ".join(argv)


def config_paths(calls: list[list[str]]) -> list[str]:
    return sorted({argv[i + 1] for argv in calls for i, tok in enumerate(argv) if tok == "--config"})


def workload_calls(name: str, seed: int) -> list[list[str]]:
    calls = [list(argv) for argv in WORKLOADS[name]]
    random.Random(seed).shuffle(calls)
    return calls


def load_program():
    """Import supdeform from this checkout's sources; returns cli.main."""
    if not (SRC / "supdeform" / "cli.py").is_file():
        raise BenchError(f"no supdeform sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from supdeform.cli import main

    return main


def load_expected(workload: str) -> dict:
    try:
        recorded = json.loads(EXPECTED.read_text())["workloads"][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded answers for {workload} in {EXPECTED}: {exc!r}") from None
    return {cid: (entry["exit"], entry["sha256"]) for cid, entry in recorded.items()}


# -- running calls ------------------------------------------------------------


class _HashSink:
    """A text stream that keeps only the SHA-256 and the size of what it gets."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


def _absolute(argv: list[str]) -> list[str]:
    return [str(ROOT / tok) if i and argv[i - 1] == "--config" else tok for i, tok in enumerate(argv)]


def invoke(main, argv: list[str]) -> tuple[object, str, int]:
    """(exit code, stdout SHA-256, stdout bytes) of one CLI call."""
    out, err = _HashSink(), _HashSink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(_absolute(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a wrong answer, not a benchmark crash
            code = f"uncaught {type(exc).__name__}"
    return code, out.sha.hexdigest(), out.size


def run_pass(main, calls: list[list[str]], tracer=None) -> dict:
    """One pass over the calls; the elapsed time covers the calls only."""
    answers, per_call, size = {}, {}, 0
    start = time.perf_counter()
    for argv in calls:
        code, digest, nbytes = invoke(main, argv)
        answers[call_id(argv)] = (code, digest)
        size += nbytes
        if tracer is not None:
            per_call[call_id(argv)] = tracer.calls_since_mark()
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "answers": answers, "bytes": size, "per_call": per_call}


def traced_pass(main, calls: list[list[str]]):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(main, calls, tracer), tracer
    finally:
        tracer.uninstall()


def repeat(step, seconds: float) -> list:
    """Run step() at least once, and again while the next run, predicted to
    take as long as the last, still ends inside the measuring window."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        gc.collect()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def wrong_answers(answers: dict, expected: dict) -> list[str]:
    return [cid for cid, answer in answers.items() if expected.get(cid) != answer]


# -- set-up time and environment ---------------------------------------------

_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import supdeform.cli\n"
    "from supdeform.config import load_config\n"
    "for path in sys.argv[2:]:\n"
    "    load_config(path)\n"
)


def measure_setup(configs: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter until supdeform is imported
    and the configs are loaded (and the interpreter has exited)."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), *(str(ROOT / c) for c in configs)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.decode(errors='replace').strip()}")
        if i:
            samples.append(elapsed)
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "supdeform").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": threading.active_count(),
    }


# -- statistics -----------------------------------------------------------------


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are fewer than eleven samples), and the sample count."""
    ordered = sorted(samples)
    summary = {"median": statistics.median(ordered), "samples": len(ordered), "percentile": None, "values": samples}
    k = len(ordered) - 11  # ordered[k] has exactly ten samples above it
    if k >= 0:
        summary["percentile"] = {"p": 100.0 * (k + 1) / len(ordered), "value": ordered[k]}
    return summary


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- modes ------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    calls = workload_calls(workload, seed)
    expected = load_expected(workload)
    missing = [cid for cid in map(call_id, calls) if cid not in expected]
    if missing:
        raise BenchError(f"no recorded answer for {missing}")
    configs = config_paths(calls)
    for cfg in configs:
        if not (ROOT / cfg).is_file():
            raise BenchError(f"missing config {cfg}")
    main = load_program()
    setup = [] if trace else measure_setup(configs)

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "order": [call_id(argv) for argv in calls],
    }
    failed, attempted = [], 0
    if not trace:
        passes = repeat(lambda: run_pass(main, calls), seconds)
        for p in passes:
            attempted += len(p["answers"])
            failed += wrong_answers(p["answers"], expected)
        wall = timing_summary([p["elapsed"] for p in passes])
        report.update(wall_s=wall, setup_s=timing_summary(setup), failed_calls=sorted(set(failed)))
        metrics = {
            "wall_s": _metric(wall["median"], "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ops_ok_frac": _metric((attempted - len(failed)) / attempted, "ratio"),
        }
        return report, {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}

    from tracer import layer_metrics

    # each step: an untraced pass, then a traced pass with its tracer
    steps = repeat(lambda: (run_pass(main, calls), *traced_pass(main, calls)), seconds)
    changed = []
    for plain, traced, _tracer in steps:
        for p in (plain, traced):
            attempted += len(p["answers"])
            failed += wrong_answers(p["answers"], expected)
        changed += [cid for cid, answer in plain["answers"].items() if traced["answers"][cid] != answer]
    per_pass = [layer_metrics(tracer)[0] for _plain, _traced, tracer in steps]
    _plain, first_traced, first_tracer = steps[0]
    values, absent = layer_metrics(first_tracer)
    metrics = {}
    for name, (value, unit) in values.items():
        if unit == "s":  # times: median over the traced passes; counts: first pass
            value = statistics.median(v[name][0] for v in per_pass if name in v)
        metrics[name] = _metric(value, unit)
    plain_wall = timing_summary([plain["elapsed"] for plain, _traced, _tracer in steps])
    traced_wall = timing_summary([traced["elapsed"] for _plain, traced, _tracer in steps])
    metrics["cli.report_bytes"] = _metric(first_traced["bytes"], "bytes")
    metrics["trace.overhead_s"] = _metric(traced_wall["median"] - plain_wall["median"], "s")
    report.update(
        untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        failed_calls=sorted(set(failed)),
        tracing_changed_answers=sorted(set(changed)),
        counts_repeat=all(v.get(n) == values[n] for v in per_pass for n in values if values[n][1] != "s"),
        absent_spans=first_tracer.absent,
        hook_errors=first_tracer.hook_errors,
        absent_metrics=absent,
        spans={name: stat.to_json() for name, stat in first_tracer.stats.items()},
        per_call_span_calls=first_traced["per_call"],
    )
    correct = not failed and not changed
    return report, {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def record():
    """Write the exit code and stdout SHA-256 of every call of every workload."""
    main = load_program()
    out = {"environment": environment(), "workloads": {}}
    for name, calls in WORKLOADS.items():
        answers = run_pass(main, calls)["answers"]
        out["workloads"][name] = {cid: {"exit": code, "sha256": digest} for cid, (code, digest) in answers.items()}
        print(f"{name}: {len(answers)} calls recorded", file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite bench/expected.json and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.record:
            record()
            return 0
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
