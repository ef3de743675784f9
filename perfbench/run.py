"""Benchmark harness for zenon: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  Inputs are generated from --seed under
perfbench/work/.  After one iteration, which is discarded, the harness runs
iterations back to back for --seconds and checks every output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s (median
time of fresh interpreters that import zenon.cli and load the inputs),
wall_s (median warm iteration, inputs to outputs on disk) and peak_rss_mb.
--trace 1 times one cold iteration in a fresh interpreter (cold.py), then
alternates untraced and traced iterations and reports the per-layer
metrics: the median self time of each layer's spans, counts, the cold
iteration and the tracing overhead.  Every time
is corrected for the host's speed (see Speedometer); the raw medians are
printed beside the corrected ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation fails on a nonzero exit, an
exception, a failed output check or, when traced, output that is not
byte-identical to the untraced run's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 12
MIN_WARM = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Speedometer:
    """Host speed, timed with two fixed reference kernels beside every
    measurement of a run.

    On a shared host the same code runs up to 1.6x slower for tens of
    seconds at a time.  A run reports each time t as t * factor(kind), with
    factor(kind) = REFERENCE_S[kind] / (median kernel time over the run): the
    time on a host where the kernel takes REFERENCE_S[kind].  The
    "interpreter" kernel mixes an interpreter loop, 4x4 complex matmuls and
    single-threaded numpy vector work; the "blas" kernel times 256x256
    complex matmuls on numpy's default BLAS threads.  Both are timed right
    after each iteration, so the blas kernel finds the threads the
    iteration woke; set-up probes are preceded by the interpreter kernel
    alone.  A workload is corrected by the kernel that matches what bounds
    it; set-up always by the interpreter kernel.
    """

    REFERENCE_S = {"interpreter": 0.02, "blas": 0.013}

    def __init__(self, kinds):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        self._np = np
        self._vector = np.linspace(0.0, 1.0, 200_000)
        self._matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.times: dict[str, list[float]] = {kind: [] for kind in kinds}

    def measure(self, blas: bool = True) -> None:
        np = self._np
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i
        m = np.eye(4, dtype=complex)
        for _ in range(2000):
            m = m @ m
        for _ in range(5):
            float(np.exp(-self._vector).sum())
        self.times["interpreter"].append(time.perf_counter() - start)
        if blas and "blas" in self.times:
            start = time.perf_counter()
            for _ in range(8):
                self._matrix @ self._matrix
            self.times["blas"].append(time.perf_counter() - start)

    def factor(self, kind: str) -> float:
        return self.REFERENCE_S[kind] / statistics.median(self.times[kind])

    def summary(self) -> str:
        return ", ".join(
            f"{kind} kernel median {1000 * statistics.median(t):.2f} ms over {len(t)} timings"
            f" (nominal {1000 * self.REFERENCE_S[kind]:.0f} ms)"
            for kind, t in self.times.items()
        )


class Runner:
    """Runs timed iterations and set-up probes of one workload, and tallies
    failed operations."""

    def __init__(self, workload_name: str, workload, inputs: Path, work: Path):
        self.workload_name = workload_name
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.speed = Speedometer(("interpreter", workload.BOUND_BY))
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.values: dict[str, list[float]] = {}

    def setup(self) -> float:
        """Wall time of one fresh interpreter running probe.py on the inputs."""
        self.speed.measure(blas=False)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *self.workload.probe_args()], cwd=ROOT, check=True
        )
        return time.perf_counter() - start

    def cold(self) -> float:
        """Wall time of the first iteration in a fresh interpreter (cold.py),
        before this process has timed anything."""
        out = self.work / "out" / "cold"
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), self.workload_name, str(self.inputs), str(out)],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self._tally(out, result["failed"])
        return result["seconds"]

    def iterate(self, name: str, tracer=None) -> float:
        """Wall time of one iteration writing under out/<name>."""
        out = self.work / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            failed = self.workload.run(out, None)
        else:
            with tracer.span("iteration"):
                failed = self.workload.run(out, tracer)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            failed.update(self._compare(out))
        self._tally(out, failed)
        self.speed.measure()
        return elapsed

    def _tally(self, out: Path, failed: dict[str, str]) -> None:
        """Check the outputs under out and count the iteration's operations."""
        bad, values = self.workload.check(out)
        failed = {**failed, **bad}
        for key, value in values.items():
            self.values.setdefault(key, []).append(value)
        self.attempted += self.workload.n_ops
        self.failed += len(failed)
        self.failures.update(failed)

    def _compare(self, traced: Path) -> dict[str, str]:
        failed = {}
        for op, _, _ in self.workload.ops:
            try:
                checks.check_identical(self.work / "out" / "untraced" / op, traced / op)
            except checks.OUTPUT_ERRORS as exc:
                failed[op] = f"traced output differs: {exc}"
        return failed


def describe(raw: list[float], k: float, what: str) -> str:
    q1, _, q3 = statistics.quantiles(raw, n=4)
    return (
        f"{k * statistics.median(raw):.4f} s (median of {len(raw)} {what}, corrected; raw"
        f" median {statistics.median(raw):.4f} s, q1 {q1:.4f}, q3 {q3:.4f})"
    )


def run_one(args, meta) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        workloads.WORKLOADS[args.workload].generate(inputs, args.seed)
        workload = workloads.WORKLOADS[args.workload](inputs)
        runner = Runner(args.workload, workload, inputs, work)
        tracer = Tracer()
        cold = runner.cold() if args.trace else None
        runner.iterate("untraced")  # this process's first iteration, discarded
        setup, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            # --seconds of iterations; set-up probes are spread between them,
            # so they see the same host speed, and extend the run.
            elapsed = time.perf_counter() - start - sum(setup)
            if (
                elapsed >= args.seconds
                and len(untraced) >= MIN_WARM
                and (not args.trace or len(traced) >= MIN_WARM)
            ):
                break
            if not args.trace and len(setup) < min(
                SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / args.seconds)
            ):
                setup.append(runner.setup())
            untraced.append(runner.iterate("untraced"))
            if args.trace:
                tracer.iteration = len(traced)
                traced.append(runner.iterate("traced", tracer))
        while not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(runner.setup())

        k = runner.speed.factor(workload.BOUND_BY)
        k_setup = runner.speed.factor("interpreter")
        lines = [
            f"{args.workload} seed={args.seed} trace={args.trace}; times are corrected by the"
            f" {workload.BOUND_BY} speed factor {k:.4f}, set-up by the interpreter one;"
            f" {runner.speed.summary()}",
            f"  wall_s = {describe(untraced, k, 'warm iterations')}",
        ]
        if args.trace:
            runner.values.update({name: [v] for name, v in workload.counts().items()})
            metrics = layer_metrics(meta, tracer, traced, untraced, k * cold, runner.values, k)
            spans_path = HERE / "work" / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            glue = statistics.median(
                tracer.self_times(i)["iteration"] / t for i, t in enumerate(traced)
            )
            lines += [
                f"  cold_iter_s = {k * cold:.4f} s (corrected; raw {cold:.4f} s; first iteration"
                " of a fresh interpreter)",
                f"  traced iteration = {describe(traced, k, 'traced iterations')}",
                f"  benchmark glue is {100 * glue:.2f} % of a traced iteration, layer self times"
                f" the rest; spans written to {spans_path.relative_to(ROOT)}",
            ]
            lines += [
                f"  {name} = {v['value']:.6g} {v['unit']}"
                for name, v in metrics.items()
                if name != "cold_iter_s"
            ]
        else:
            rss_kb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            values = {
                "setup_s": k_setup * statistics.median(setup),
                "wall_s": k * statistics.median(untraced),
                "peak_rss_mb": rss_kb / 1024,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in meta["end_to_end"]}
            lines += [
                f"  setup_s = {describe(setup, k_setup, 'fresh interpreters')}",
                f"  peak_rss_mb = {rss_kb / 1024:.2f} MB (largest of this process and its children)",
            ]
        lines.append(f"  fail_frac = {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4g}")
        lines += [f"  FAILED {op}: {msg}" for op, msg in sorted(runner.failures.items())]
        print("\n".join(lines))
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(meta, tracer, traced, untraced, cold_s, values, k) -> dict:
    """Per-layer metrics.  `<span>_s` is the median over traced iterations of
    the self time of the spans named <span>, corrected by the speed factor k;
    other quantities come from the outputs or the workload's counts; a
    layer the workload never calls reads 0."""
    per_iter = [tracer.self_times(i) for i in range(len(traced))]
    out = {}
    for m in meta["per_layer"]:
        name = m["name"]
        if name == "cold_iter_s":
            value = cold_s
        elif name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(untraced) - 1.0
        elif name in values:
            value = statistics.median(values[name])
        elif name.endswith("_s"):
            value = k * statistics.median(st.get(name[:-2], 0.0) for st in per_iter)
        else:
            value = 0.0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                info[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_all(args, meta) -> None:
    """Every workload in its own process, then a table of the end-to-end metrics."""
    print("machine:", json.dumps(machine_info()))
    rows = [f"{'workload':<18} {'setup_s [s]':>12} {'wall_s [s]':>11} {'peak_rss_mb [MB]':>17} {'fail_frac':>10}"]
    results = {}
    for w in meta["workloads"]:
        name = w["name"]
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        print(proc.stdout.rstrip())
        result = results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        m = result["metrics"]
        rows.append(
            f"{name:<18} {m['setup_s']['value']:>12.4f} {m['wall_s']['value']:>11.4f} "
            f"{m['peak_rss_mb']['value']:>17.2f} {result['failed'] / result['attempted']:>10.4g}"
        )
    print("\n".join(rows))
    print(json.dumps(results))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail(f"seed must be nonnegative, got {args.seed}")
    for needed in ("BENCHMARK.json", "src/zenon/cli.py", "configs", "fixtures"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found under {ROOT}; run from a zenon checkout")
    os.chdir(ROOT)
    meta = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in meta["workloads"]]
    if args.workload == "all":
        run_all(args, meta)
    elif args.workload in names:
        print(json.dumps(run_one(args, meta)))
    else:
        fail(f"unknown workload {args.workload!r}; choose from {names} or all")


if __name__ == "__main__":
    main()
