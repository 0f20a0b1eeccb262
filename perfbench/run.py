"""Outside-in benchmark for qht: drives ``qht.cli.main`` in-process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exponent-sweep --seed 1 --seconds 30 --trace 0

Each op is one subcommand invocation with ``--out`` into a fresh directory.
Ops run in a closed loop from one client in this one process.  The
workload's fixed op list runs at least twice, and again while the next
pass still fits in ``--seconds``; ``wall_s`` is the median pass time.  Every op's
outputs go through the gate in ``oracle.py`` and a determinism digest; an
op that raises, exits nonzero, fails the gate or changes its digest counts
as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs three
passes whatever ``--seconds`` says: one untraced, one with spans (self
times, counts, tracing overhead) and one with spans and tracemalloc
(allocation peaks), and reports the per-layer metrics.  The last stdout line is the JSON result; the lines
before it, and files under ``.perfbench/``, hold the details.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fresh-interpreter import probes: a few before the first pass and a few
# after each pass, because CPU speed on a shared host drifts over tens of seconds.
SETUP_PROBES_FIRST = 4
SETUP_PROBES_PER_PASS = 2
WORK_ROOT = Path(".perfbench")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qht").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def measure_setup(probes: int) -> list[float]:
    """Import time of qht in fresh interpreters, excluding input generation."""
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "perfbench/setup_probe.py"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def op_digest(stdout: str, out: Path) -> dict:
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    record = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(), "files": files}
    record["op"] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    return record


class Runner:
    def __init__(self, cli, oracle, ops, pairs, work: Path):
        self.cli = cli
        self.oracle = oracle
        self.ops = ops
        self.pairs = pairs
        self.work = work
        self.reference = {}  # op name -> digest of its first run
        self.attempted = 0
        self.failed_runs = set()  # (op name, run number)
        self.failures = []  # one line of detail per failed run
        self.recorder = None
        self.op_times = {}  # op name -> seconds of each run

    def run_op(self, index, op) -> float:
        out = self.work / "out" / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        argv = list(op.argv) + (["--out", out.as_posix()] if op.takes_out else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.recorder is not None:
            self.recorder.op = index
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            problems.append(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        if not problems:
            try:
                problems = self.oracle.check(op, code, stdout.getvalue(), out, self.pairs)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        digest = op_digest(stdout.getvalue(), out)
        first = self.reference.setdefault(op.name, digest)
        if digest["op"] != first["op"]:
            problems.append("output digest differs from the first run of this op")
        self.attempted += 1
        if problems:
            detail = "; ".join(problems[:3])
            if stderr.getvalue().strip():
                detail += f" | stderr: {stderr.getvalue().strip()[-300:]}"
            self.fail(op.name, len(self.op_times.get(op.name, ())), detail)
        return elapsed

    def fail(self, name: str, run: int, detail: str) -> None:
        self.failed_runs.add((name, run))
        self.failures.append(f"{name} (run {run}): {detail}")

    def run_pass(self) -> float:
        """Wall time of one pass: the ops themselves, not the gate or digests."""
        times = [self.run_op(i, op) for i, op in enumerate(self.ops)]
        for op, elapsed in zip(self.ops, times):
            self.op_times.setdefault(op.name, []).append(elapsed)
        return sum(times)

    def run_traced_pass(self, recorder) -> float:
        recorder.install()
        self.recorder = recorder
        try:
            return self.run_pass()
        finally:
            self.recorder = None
            recorder.uninstall()


def compare_digests(runner: Runner, path: Path) -> None:
    """Count ops whose digest differs from an earlier run of the same source.

    Digests are keyed by the op's full argv, so an op only meets its own
    earlier runs; new ops are added to the file.
    """
    current = {" ".join(op.argv): runner.reference[op.name]["op"] for op in runner.ops}
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for op in runner.ops:
        key = " ".join(op.argv)
        if earlier.get(key, current[key]) != current[key]:
            for run in range(len(runner.op_times[op.name])):
                runner.fail(op.name, run, "output digest differs from an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**current, **earlier}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qht" / "__init__.py").is_file():
        print("error: run from the root of a qht checkout (no src/qht here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One BLAS thread per core this process may use.  BLAS reads these when
    # numpy loads, so they are set before any import of it.
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(root / "src"))

    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    pairs = workloads.write_pairs(args.seed, work / "inputs")
    ops = workloads.build_ops(args.workload, args.seed, work / "inputs", pairs)

    import qht.cli

    if Path(qht.cli.__file__).resolve().parent != (root / "src" / "qht").resolve():
        print(f"error: imported qht from {qht.cli.__file__}", file=sys.stderr)
        return 2
    runner = Runner(qht.cli, oracle, ops, pairs, work)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    summary["environment"] = environment(threads)
    summary["source"] = source_digest(root)

    if args.trace == 0:
        begin = time.perf_counter()
        setup = measure_setup(SETUP_PROBES_FIRST)
        passes = []
        while True:
            passes.append(runner.run_pass())
            setup += measure_setup(SETUP_PROBES_PER_PASS)
            # At least two passes; then another only while it still fits.
            if len(passes) >= 2 and time.perf_counter() - begin + statistics.median(passes) > args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
        summary.update(
            pass_s=passes,
            setup_samples_s=setup,
            op_median_s={name: statistics.median(t) for name, t in runner.op_times.items()},
        )
        declared = [m["name"] for m in spec["end_to_end"]]
    else:
        import tracemalloc

        import spans

        cpu0 = time.process_time()
        untraced = runner.run_pass()
        cpu_s = time.process_time() - cpu0
        timing = spans.SpanRecorder()
        traced = runner.run_traced_pass(timing)
        # tracemalloc slows small-array Python code several times over, so
        # allocation peaks come from a pass of their own and no time is
        # taken from it.
        memory = spans.SpanRecorder()
        tracemalloc.start()
        try:
            alloc_wall = runner.run_traced_pass(memory)
        finally:
            tracemalloc.stop()
        values = timing.metrics(cpu_s=cpu_s, overhead_s=traced - untraced)
        values.update(memory.peak_allocs())
        timing.write(work / "spans.csv")
        summary.update(
            untraced_wall_s=untraced,
            traced_wall_s=traced,
            tracemalloc_wall_s=alloc_wall,
            layer_shares=timing.layer_shares(traced),
            missing_functions=timing.missing,
            spans=len(timing.spans),
        )
        declared = [m["name"] for m in spec["per_layer"]]

    compare_digests(runner, WORK_ROOT / "digests" / f"{summary['source']}.json")
    if sorted(values) != sorted(declared):
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = len(runner.failed_runs)
    summary.update(
        attempted=runner.attempted,
        failed=failed,
        fail_ratio=failed / runner.attempted,
        failures=runner.failures,
        digests={name: d["op"] for name, d in runner.reference.items()},
        metrics=values,
    )
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8"
    )
    for key in ("environment", "source", "pass_s", "setup_samples_s", "op_median_s",
                "untraced_wall_s", "traced_wall_s", "tracemalloc_wall_s", "layer_shares",
                "missing_functions", "fail_ratio", "failures", "digests"):
        if key in summary:
            print(f"# {key}: {json.dumps(summary[key])}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
