"""Seeded closed-loop benchmark of the rpphilb library and its CLI.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One client in one process, no
threads: each job starts when the previous one has finished and its
output has been checked (checks are not timed).

``--trace 0`` measures the end-to-end metrics.  About two thirds of
``--seconds`` go to library jobs, in whole blocks of the workload's input
stream; the rest go to the equivalent ``rpphilb ... --format json``
commands, run one at a time as subprocesses, a share after each block.
The numbers of blocks and of commands follow from ``--seconds`` and fixed
nominal costs, never from the speed of the program, so every commit
measures the same jobs and the tail percentile sits at the same rank.
Set-up time is measured in separate fresh interpreters.

``--trace 1`` runs block 0 untraced, then again with spans around the
library's public functions, plus one representative in-process CLI
command, and reports the per-layer metrics.  The spans are written to
``bench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it report the
tail percentile, the failure share, the output counts of the run's jobs
(which must repeat exactly between runs and commits for the same seed
and ``--seconds``) and the share of jobs with each input property.  The
exit code is 1 when any job raised or failed its check, 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

IN_PROCESS_SHARE = 2 / 3
#: seconds one block and one CLI command took on the reference machine
#: (2 cores, Python 3.11.7); they size a run, and a run does not adapt them
NOMINAL_BLOCK_S = {"classify": 3.8, "series": 2.9, "verify": 0.65}
NOMINAL_CLI_S = {"classify": 0.2, "series": 0.2, "verify": 0.75}
WARMUP_JOBS = 3
#: fresh interpreters per set-up measurement, taken at three points of a run
SETUP_RUNS = 5
MIN_CLI_CALLS = 7
CLI_TIMEOUT_S = 120
TAIL_BEYOND = 10
CLI_MAIN_REPEATS = 3

#: the console script's entry point, run with the checkout's src on the path
CLI_ENTRY = "import sys\nfrom rpphilb.cli import main\nsys.exit(main())"

#: lazy work a fresh interpreter pays on its first call, per workload
FIRST_USE = {
    "classify": "rpphilb.classify(rpphilb.RPP.from_text('1'))",
    "series": "rpphilb.motivic_series(rpphilb.YoungDiagram([1]), 'A1', 1)",
    "verify": "import rpphilb.verify\nrpphilb.verify.load_corpus()",
}

#: one representative in-process CLI command per workload, for cli.main.self_s
CLI_MAIN_ARGS = {
    "classify": ["classify", "0 0 3 / 0 2 5 / 3 5 5", "--format", "json"],
    "series": ["series", "4,3,2,1", "--curve", "P1", "--max-size", "8", "--format", "json"],
    "verify": ["verify", "--format", "json"],
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Executes and checks jobs; keeps failures, digests and output counts."""

    def __init__(self, workload: str, seed: int, corpus_rows):
        import jobs  # imports rpphilb, so only once src/ is on the path

        self.jobs = jobs
        self.pool = inputs.load_pool()
        self.workload = workload
        self.seed = seed
        self.corpus_rows = corpus_rows
        self.checker = jobs.Checker()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict = {}  # job key -> digest of its first output
        self.work: dict = {}  # output counts summed over distinct jobs
        self.singular: dict = {}  # job key -> has a singular component
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get(workload, {}).get(str(seed), {})

    def block(self, index: int):
        return inputs.block(self.workload, self.seed, index, self.pool, self.corpus_rows)

    def fail(self, job, problems: list[str]) -> None:
        """Count one failed execution and keep its messages."""
        if problems:
            self.failed += 1
            label = f"{job.kind} {job.key} {json.dumps(job.spec, sort_keys=True)[:200]}"
            self.failures += [f"{label}: {problem}" for problem in problems]

    def execute(self, job, tracer=None) -> float | None:
        """Run one job; its latency in seconds, or None when it raised."""
        call = self.jobs.prepare(job)
        self.attempted += 1
        if tracer is not None:
            tracer.job = job.key
            tracer.on = True
        try:
            start = time.perf_counter()
            out = call()
            latency = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a job's failure is recorded and the loop goes on
            self.fail(job, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
            return None
        finally:
            if tracer is not None:
                tracer.on = False
        self.fail(job, self.inspect(job, out))
        return latency

    def inspect(self, job, out) -> list[str]:
        """Problems with one output; the first output of a job is fully checked,
        later ones must match it."""
        canon = self.jobs.canonical(job, out)
        digest = self.jobs.digest(canon)
        first = self.digests.get(job.key)
        if first is not None:
            return [] if digest == first else ["output differs from the same job's earlier output"]
        self.digests[job.key] = digest
        problems = self.checker.check(job, out, canon)
        if job.key in self.recorded and self.recorded[job.key] != digest:
            problems.append("output digest differs from the recorded one")
        for name, value in self.jobs.work(job, out, canon).items():
            self.work[name] = self.work.get(name, 0) + value
        if job.kind == "classify":
            self.singular[job.key] = any(not r.smooth for r in out)
        return problems

    def shares(self, jobs) -> dict:
        """Share of the jobs with each input property."""
        counts: dict = {}

        def bump(name):
            counts[name] = counts.get(name, 0) + 1

        for job in jobs:
            props = job.props
            if props.get("repeated_diagonal"):
                bump("repeated_diagonal")
            if self.singular.get(job.key):
                bump("singular_component")
            if "weight" in props:
                bump(f"weight={props['weight']}")
        return {name: count / len(jobs) for name, count in sorted(counts.items())}


def measure_setup(workload: str) -> list[float]:
    """CPU times of import plus first use, each in a fresh interpreter.

    CPU time rather than wall time, so that waiting for other tenants of
    the machine does not show up in a 50 ms measurement."""
    code = "import time\nstart = time.process_time()\nimport rpphilb\n"
    code += FIRST_USE[workload] + "\nprint(repr(time.process_time() - start))"
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cli_sample(block0, n_calls: int) -> list:
    """Block-0 jobs for the CLI commands, spread evenly over the cost bands,
    so the sample has the same cost profile for every seed."""
    cli_jobs = sorted(
        (job for job in block0 if job.kind != "series-bruteforce"), key=lambda job: (job.band, job.kind, job.key)
    )
    return [cli_jobs[int((k + 0.5) * len(cli_jobs) / n_calls)] for k in range(n_calls)]


def run_cli(runner: Runner, jobs, tmp: str) -> list[float]:
    """Run the equivalent CLI command of each job, one subprocess at a time."""
    times: list[float] = []
    for job in jobs:
        argv = runner.jobs.cli_args(job, tmp)
        runner.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            runner.fail(job, [f"CLI exit {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        else:
            runner.fail(job, runner.jobs.check_cli(json.loads(proc.stdout), runner.digests[job.key]))
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    pos = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[pos], 100.0 * (pos + 1) / len(ordered)


def run_untraced(runner: Runner, seconds: float) -> dict:
    n_blocks = max(1, round(seconds * IN_PROCESS_SHARE / NOMINAL_BLOCK_S[runner.workload]))
    n_calls = max(MIN_CLI_CALLS, round(seconds * (1 - IN_PROCESS_SHARE) / NOMINAL_CLI_S[runner.workload]))
    block0 = runner.block(0)
    commands = cli_sample(block0, n_calls)
    for job in block0[:WARMUP_JOBS]:
        runner.execute(job)
    # blocks, CLI commands and set-up samples take turns through the run, so
    # that every metric averages over the same slow and fast spells of the
    # machine rather than over a window of its own
    latencies: list[float] = []
    cli_times: list[float] = []
    setup_times = measure_setup(runner.workload)
    all_jobs = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for index in range(n_blocks):
            blk = block0 if index == 0 else runner.block(index)
            all_jobs += blk
            for job in blk:
                latency = runner.execute(job)
                if latency is not None:
                    latencies.append(latency)
            turn = commands[len(commands) * index // n_blocks:len(commands) * (index + 1) // n_blocks]
            cli_times += run_cli(runner, turn, tmp)
            if index == n_blocks // 2:
                setup_times += measure_setup(runner.workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += measure_setup(runner.workload)

    tail_s, tail_pct = tail(latencies)
    print(
        f"{runner.workload} seed {runner.seed}: {len(latencies)} jobs in {n_blocks} blocks, "
        f"{sum(latencies):.3f} s in process; {len(cli_times)} CLI calls, {sum(cli_times):.3f} s"
    )
    print(f"job_tail_ms is the p{tail_pct:.2f} latency of {len(latencies)} samples ({TAIL_BEYOND} beyond it)")
    print(f"failed_frac {runner.failed / runner.attempted:.6f} ({runner.failed} of {runner.attempted})")
    print("work " + json.dumps(runner.work, sort_keys=True))
    print("shares " + json.dumps(runner.shares(all_jobs), sort_keys=True))
    return {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "job_tail_ms": (tail_s * 1000, "ms"),
        "cli_p50_ms": (statistics.median(cli_times) * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner) -> dict:
    import rpphilb.cli
    import tracing

    block0 = runner.block(0)
    for job in block0[:WARMUP_JOBS]:
        runner.execute(job)
    untraced = sum(filter(None, (runner.execute(job) for job in block0)))
    tracer = tracing.new_tracer()
    undo = tracing.install(tracer)
    try:
        traced = sum(filter(None, (runner.execute(job, tracer) for job in block0)))
        for _ in range(CLI_MAIN_REPEATS):
            runner.attempted += 1
            printed = io.StringIO()
            tracer.job = "cli"
            tracer.on = True
            try:
                with contextlib.redirect_stdout(printed):
                    code = rpphilb.cli.main(CLI_MAIN_ARGS[runner.workload])
            finally:
                tracer.on = False
            if code != 0 or not printed.getvalue().strip():
                runner.failed += 1
                runner.failures.append(f"in-process CLI {CLI_MAIN_ARGS[runner.workload]} exited {code}")
    finally:
        tracing.uninstall(undo)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{runner.workload}-seed{runner.seed}.json").write_text(json.dumps(tracer.dump()))

    units = dict(tracing.PER_LAYER)
    metrics = {name: (value, units[name]) for name, value in tracing.layer_values(tracer).items()}
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    print(
        f"{runner.workload} seed {runner.seed}: block 0 ({len(block0)} jobs) untraced {untraced:.3f} s, "
        f"traced {traced:.3f} s; {len(tracer.spans)} spans kept, {tracer.dropped} dropped"
    )
    print(
        f"trace.overhead_frac {traced / untraced - 1:.4f}; a wrapped call costs its caller "
        f"{tracer.call_cost * 1e9:.0f} ns outside its span, booked as covered (calibrated on a no-op)"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rpphilb" / "__init__.py").is_file():
        print(f"rpphilb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rpphilb.verify

    corpus_rows = rpphilb.verify.load_corpus()["rows"] if args.workload == "verify" else None
    runner = Runner(args.workload, args.seed, corpus_rows)
    # keep the harness's own long-lived objects (pool, digests) out of the
    # collector's scans, so they do not lengthen collections inside jobs
    gc.collect()
    gc.freeze()
    metrics = run_traced(runner) if args.trace else run_untraced(runner, args.seconds)

    for failure in runner.failures[:20]:
        print("FAILED " + failure, file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
