"""End-to-end and per-layer benchmark of the artindex command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload renoir --seed 1 --seconds 55 --trace 0

The benchmark imports ``artindex`` from ``./src``, writes its inputs
under ``./.perfbench/``, and then runs whole rounds of the workload's
commands in a closed loop (one command at a time, each waiting for the
previous one) for about ``--seconds``. Commands run in-process
through ``artindex.cli.main`` with stdout captured, except ``cli_cold``
and the ``setup_s`` probes, which start a fresh interpreter. Every output is checked against
``oracle.py``, which never imports ``artindex``.

With ``--trace 0`` it prints the end-to-end metrics: the median over
the run of each command's time, scaled to a fixed host speed by a
reference loop timed before and after it (see ``REFERENCE_S``). With
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics from the traced ones, per round, with the tracing
overhead; the spans of the first traced round are written to
``.perfbench/trace-<workload>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters importing artindex.cli, per round, for setup_s
SETUP_PER_ROUND = 2
# The host is shared: for stretches of seconds to minutes every command
# runs up to twice as slow, in wall and CPU time alike, and whole runs
# can fall in such a stretch, so raw run medians of the same code spread
# by up to a third between runs. Each time sample is therefore scaled by
# REFERENCE_S over the mean of the reference loop's times just before
# and just after the command, which gives the command's time at the host
# speed where the loop takes REFERENCE_S (about its uncontended time on
# the 2-CPU machine in README.md). The benchmark and every process it
# starts run on one CPU, so that the loop and the command share it.
REFERENCE_S = 0.0016
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "index_npgm_s": "s",
    "index_hpm_s": "s",
    "fit_s": "s",
    "audit_single_s": "s",
    "audit_grid_hpm_s": "s",
    "audit_random_hpm_s": "s",
    "audit_grid_npgm_s": "s",
    "audit_random_npgm_s": "s",
    "reproduce_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs operations, checks them once per distinct output, and keeps the tallies."""

    def __init__(self, root: Path, workdir: Path, reference: bool = True):
        import numpy
        from artindex import cli

        self.cli = cli
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, tuple[int, str]] = {}
        # per metric: raw seconds, and seconds scaled to the reference speed
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        # no reference loop in traced runs, where it would water down the overhead
        self.reference = reference
        self._reference_array = numpy.arange(16.0)
        self._last_reference = reference_loop(self._reference_array) if reference else REFERENCE_S
        self._verdicts: dict[tuple, tuple[int, str, str | None]] = {}

    def in_process(self, argv: list[str]) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, out.getvalue(), time.perf_counter() - start

    def fresh_process(self, args: list[str]) -> tuple[int, str, float]:
        """Exit status, stdout and wall seconds of ``python3 <args>``."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        return proc.returncode, proc.stdout.decode("utf-8"), time.perf_counter() - start

    def peak_rss_mb(self, argv: list[str]) -> float:
        """Peak resident memory of ``python3 -m artindex.cli <argv>``, through a small launcher."""
        launcher = [sys.executable, "-S", str(HERE / "peak_rss.py"), sys.executable, "-m", "artindex.cli"]
        proc = subprocess.run([*launcher, *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        if proc.returncode not in (0, 4):
            raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
        return int(proc.stdout.decode("utf-8").splitlines()[-1]) / 1024.0

    def reference_scale(self) -> float:
        """REFERENCE_S over the mean of the reference loop before and after the command just run."""
        if not self.reference:
            return 1.0
        before, self._last_reference = self._last_reference, reference_loop(self._reference_array)
        return 2.0 * REFERENCE_S / (before + self._last_reference)

    def record(self, metric: str, elapsed: float, scale: float) -> None:
        self.times.setdefault(metric, []).append(elapsed)
        self.scaled.setdefault(metric, []).append(elapsed * scale)

    def run(self, op) -> None:
        self.attempted += 1
        try:
            if op.subprocess:
                rc, out, elapsed = self.fresh_process(["-m", "artindex.cli", *op.argv])
            else:
                rc, out, elapsed = self.in_process(op.argv)
            scale = self.reference_scale()
            error = self._verdict(op, rc, out)
        except Exception:  # a crash inside the program is a failed operation
            error = traceback.format_exc(limit=3)
            self.reference_scale()
        if error is not None:
            self.failed += 1
            if op.known_fault is None:
                self.unexpected += 1
            count, first = self.failures.get(op.name, (0, error))
            self.failures[op.name] = (count + 1, first)
        elif op.metric is not None:
            self.record(op.metric, elapsed, scale)

    def fresh_import(self) -> None:
        """One ``setup_s`` sample: a fresh interpreter importing ``artindex.cli``."""
        rc, _, elapsed = self.fresh_process(["-c", "import artindex.cli"])
        scale = self.reference_scale()
        if rc != 0:
            raise RuntimeError("importing artindex.cli in a fresh interpreter failed")
        self.record("setup_s", elapsed, scale)

    def _verdict(self, op, rc: int, out: str) -> str | None:
        """Check the first output of each command fully; later ones must repeat it byte for byte."""
        from oracle import Mismatch

        key = tuple(op.argv)
        seen = self._verdicts.get(key)
        if seen is not None:
            if (rc, out) != seen[:2]:
                return "output differs from the first run of the same command"
            return seen[2]
        try:
            op.check(rc, out)
            error = None
        except Mismatch as exc:
            error = str(exc)
        self._verdicts[key] = (rc, out, error)
        return error


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def reference_loop(array) -> float:
    """Seconds of a fixed mix of the kinds of work the program does.

    Float arithmetic with dict stores, method calls, string and JSON
    formatting, and reads of numpy elements: a mix tracked the host's
    slowdowns of the commands more closely than a float loop alone.
    """
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(4000):
        x = i * 0.5
        total += x * x - total * 1e-9
        table[i & 127] = x
    point = _Point(1.5, 2.0)
    for i in range(2000):
        total += point.at(i)
    text = json.dumps([(str(i), i * 0.25) for i in range(600)])
    total += len(text.split(","))
    for i in range(300):
        total += float(array[i & 15]) + float(array.sum())
    return time.perf_counter() - start


def run_round(runner: Runner, ops) -> float:
    """Every op ``op.repeat`` times, in passes, so that repeats spread over the round."""
    start = time.perf_counter()
    for k in range(max(op.repeat for op in ops)):
        for op in ops:
            if k < op.repeat:
                runner.run(op)
    return time.perf_counter() - start


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Start a round unless the run would end, on average, past ``seconds``; always run one."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def end_to_end(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` have passed; each round also times fresh imports."""
    rss = runner.peak_rss_mb(workload.heaviest)
    runner.fresh_process(["-c", "import artindex.cli"])  # compiles bytecode once
    start = time.perf_counter()
    rounds = 0
    while another_round(start, rounds, seconds):
        run_round(runner, workload.ops)
        for _ in range(SETUP_PER_ROUND):
            runner.fresh_import()
        rounds += 1

    metrics = {
        name: {"value": statistics.median(runner.scaled[name]), "unit": unit}
        for name, unit in END_TO_END.items()
        if runner.scaled.get(name)
    }
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    samples = {name: len(runner.times.get(name, ())) for name in END_TO_END}
    samples["peak_rss_mb"] = 1
    raw = {name: statistics.median(times) for name, times in runner.times.items()}
    return metrics, {"rounds": rounds, "samples": samples, "raw_median_s": raw}


def per_layer(runner: Runner, workload, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    import tracer

    recorder = tracer.Tracer()
    plain, traced = [], []
    spans_all, counts_all = [], None
    start = time.perf_counter()
    while another_round(start, len(traced), seconds):
        plain.append(run_round(runner, workload.ops))
        recorder.install()
        try:
            traced.append(run_round(runner, workload.ops))
        finally:
            recorder.uninstall()
        spans, counts = recorder.take()
        if counts_all is None:
            tracer.write_spans(trace_path, spans)
            counts_all = counts
        else:
            counts_all.update(counts)
        spans_all.append(tracer.span_totals(spans))
    metrics = tracer.layer_metrics(spans_all, counts_all, len(traced))
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["tracer.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics, {"rounds": len(traced), "untraced_rounds": len(plain)}


def machine_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["renoir", "panel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "artindex" / "__init__.py").is_file():
        print(f"error: no artindex sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    # one CPU for the benchmark and every process it starts (see REFERENCE_S)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import artindex

    if Path(artindex.__file__).resolve().parent != (src / "artindex").resolve():
        print(f"error: imported artindex from {artindex.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    bench_dir = root / ".perfbench"
    workdir = bench_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](root, workdir, args.seed)
        prepare_s = time.perf_counter() - t0
        runner = Runner(root, workdir, reference=not args.trace)
        # the benchmark's own heap (scipy, the oracle's arrays) would make
        # every full collection inside a timed command scan it; a CLI
        # process never carries it
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_path = bench_dir / f"trace-{args.workload}.jsonl"
            metrics, info = per_layer(runner, workload, args.seconds, trace_path)
        else:
            metrics, info = end_to_end(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  inputs {workload.facts}  input preparation {prepare_s:.2f} s")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    samples, raw = info.pop("samples", {}), info.pop("raw_median_s", {})
    print(f"rounds {json.dumps(info)}")
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        unscaled = f"  (unscaled median {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name:<36s} {m['value']:>14.6g} {m['unit']}{n}{unscaled}")
    print(f"attempted {runner.attempted}  failed {runner.failed}")
    for name, (count, first) in runner.failures.items():
        op = next(o for o in workload.ops if o.name == name)
        kind = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
        print(f"  failed {name} x{count} ({kind}): {first.strip().splitlines()[-1]}")
    result = {
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
