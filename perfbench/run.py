"""susygate benchmark: closed-loop CLI jobs, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload monitor_fit --seed 1 --seconds 30 --trace 0

One client runs one job at a time through ``susygate.cli.main(argv)``,
checks every op's outputs, and prints human-readable metrics followed by a
last line of JSON: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A result file with the environment record is
written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 7
WORKLOAD_NAMES = ("monitor_fit", "ensemble", "control_design")
# Fresh interpreter running the smallest CLI command: start-up, imports and
# the lazy imports of the first subcommand (the manifest imports SciPy).
SETUP_CODE = "import sys\nfrom susygate.cli import main\nsys.exit(main())\n"
SETUP_ARGV = ["spectrum", "--dim", "2", "--raw-dim", "4"]
# Nominal seconds of one calibrate() call on an uncontended core of the
# machine the benchmark was tuned on; it only fixes the scale of the times.
CAL_REF_S = 0.035


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and ln.endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = int(func())
                break
    return name, threads


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# -- measurement --------------------------------------------------------------


def measure_setup(run_dir: Path, probe: "SpeedProbe") -> list:
    """Timings (see SpeedProbe) of SETUP_REPS fresh interpreters running the
    setup command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run_dir.mkdir(parents=True, exist_ok=True)
    times = []
    for i in range(SETUP_REPS):
        argv = [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV, "--out-dir", str(run_dir / f"setup{i}")]
        proc, timing = probe.time_call(
            subprocess.run, argv, env=env, cwd=run_dir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup command exited {proc.returncode}: {proc.stderr.strip()}")
        times.append([timing])
    return times


def calibrate() -> float:
    """Seconds for a fixed mix of the jobs' two kinds of work: a Python loop
    over small matrices and a batched 24x24 eigh.  It runs no susygate code."""
    import numpy as np

    a = np.eye(4) + 0.01 * np.arange(16).reshape(4, 4)
    s = a + a.T
    batch = np.random.default_rng(0).normal(size=(256, 24, 24))
    batch = batch + batch.transpose(0, 2, 1)
    x = np.ones(4)
    t0 = time.perf_counter()
    for _ in range(2000):
        x = a @ x
        x = x / np.linalg.norm(x)
        np.linalg.eigvalsh(s)
    np.linalg.eigh(batch)
    return time.perf_counter() - t0


class SpeedProbe:
    """Rescales timed calls to the reference machine speed.

    The VM's effective speed changes by up to 1.8x over seconds to minutes.
    A calibrate() sample is taken between calls.  A call's wall time is
    multiplied by CAL_REF_S over the median of the six samples nearest to
    it, three before and three after, so that one noisy sample does not set
    its time.
    """

    def __init__(self):
        self.samples = [calibrate()]

    def time_call(self, fn, *args, **kwargs):
        """Return fn's result and its timing: (wall seconds, index of the
        sample taken just before the call)."""
        before = len(self.samples) - 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.samples.append(calibrate())
        return result, (wall, before)

    def times(self, timings) -> tuple:
        """Summed (wall, scaled) seconds of a list of timings."""
        wall = scaled = 0.0
        for w, i in timings:
            wall += w
            scaled += w * CAL_REF_S / statistics.median(self.samples[max(0, i - 2): i + 4])
        return wall, scaled


class Tally:
    """Op outcomes: ok, failed (error exit, exception or missed check) and
    wrong (a missed check the program did not report)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict = {}  # message -> count

    def add(self, outcome: str, message: str | None) -> None:
        self.attempted += 1
        if outcome != "ok":
            self.failed += 1
            self.wrong += outcome == "wrong"
            key = f"{outcome}: {message}"
            self.failures[key] = self.failures.get(key, 0) + 1


def _call(main, argv) -> tuple:
    try:
        return main(argv), None
    except Exception as exc:  # an uncaught exception is a failed op
        return None, "".join(traceback.format_exception_only(exc)).strip()


def run_job(ops, main, probe: SpeedProbe) -> tuple:
    """Run the ops of one job; return their timings and results (exit status
    or exception text).  Program output is discarded."""
    timings, results = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            result, timing = probe.time_call(_call, main, op.argv)
            results.append(result)
            timings.append(timing)
    return timings, results


def check_job(ops, results, tally: Tally) -> None:
    from workloads import Miss

    for op, (status, error) in zip(ops, results):
        if error is not None:
            tally.add("failed", f"{op.name} raised {error}")
        elif status != 0:
            tally.add("failed", f"{op.name} exited {status}")
        else:
            try:
                op.check(op.out_dir)
            except Miss as miss:
                tally.add("wrong" if miss.wrong else "failed", f"{op.name}: {miss}")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                tally.add("wrong", f"{op.name}: unreadable output ({exc!r})")
            else:
                tally.add("ok", None)


def run_loop(workload, jobs_dir: Path, seconds: float, trace: bool, tally: Tally, probe: SpeedProbe):
    """Closed loop: start the next job only if it is expected to end within
    ``seconds`` (at least one job always runs).  In a traced run each job
    runs untraced and then traced, on the same inputs and seed.  Returns
    the op timings of each job for each variant, and the recorder."""
    from susygate import cli
    from tracing import Recorder

    recorder = Recorder() if trace else None
    jobs = {"plain": [], "traced": []}
    t_start = time.perf_counter()
    last = 0.0
    k = 0
    while k == 0 or (time.perf_counter() - t_start) + last <= seconds:
        t_iter = time.perf_counter()
        for variant in ("plain", "traced") if trace else ("plain",):
            out = jobs_dir / f"{k}-{variant}"
            ops = workload.ops(k, out)
            if variant == "traced":
                recorder.job = k
                with recorder:
                    timings, results = run_job(ops, cli.main, probe)
                recorder.job = None
            else:
                timings, results = run_job(ops, cli.main, probe)
            jobs[variant].append(timings)
            check_job(ops, results, tally)
            shutil.rmtree(out, ignore_errors=True)
        last = time.perf_counter() - t_iter
        k += 1
    return jobs, recorder


def end_to_end(jobs: dict, setup: list, tally: Tally) -> dict:
    scaled = [s for _, s in jobs["plain"]]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(c for _, c in setup), "s", len(setup)),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s", len(scaled)),
        "job_s.p50": (statistics.median(scaled), "s", len(scaled)),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac", tally.attempted),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def per_layer(jobs: dict, recorder) -> tuple:
    n = len(jobs["traced"])
    metrics = {k: (v, u, n) for k, (v, u) in recorder.layer_metrics(n).items()}
    # paired: job k untraced, then job k traced, both at reference speed
    overhead = [t[1] - p[1] for p, t in zip(jobs["plain"], jobs["traced"])]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s", n)
    job = statistics.fmean(w for w, _ in jobs["traced"])  # layer values are per-job means
    shares = {
        k[: -len(".busy_s")]: v / job
        for k, (v, _, _) in metrics.items() if k.endswith(".busy_s") and v > 0
    }
    shares["filter_fit.lindblad_evolve in fit_parameters"] = (
        recorder.busy_under("filter_fit.lindblad_evolve", "filter_fit.fit_parameters") / n / job
    )
    return metrics, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "susygate" / "cli.py").is_file():
        print(f"error: no susygate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        probe = SpeedProbe()
        setup = measure_setup(run_dir, probe)
        workload = workloads.Workload(args.workload, args.seed, run_dir / "inputs")
        if args.workload == "ensemble":
            workload.reference_final()  # outside the timed region
        from susygate import cli

        with contextlib.redirect_stdout(io.StringIO()):  # warm-up, not timed
            cli.main([*SETUP_ARGV, "--out-dir", str(run_dir / "warmup")])
        tally = Tally()
        jobs, recorder = run_loop(workload, run_dir / "jobs", args.seconds, bool(args.trace), tally, probe)
        setup = [probe.times(t) for t in setup]
        jobs = {v: [probe.times(t) for t in js] for v, js in jobs.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics, shares = per_layer(jobs, recorder)
    else:
        metrics, shares = end_to_end(jobs, setup, tally), {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "wrong": tally.wrong,
        "failures": tally.failures,
        "job_s": {v: {"wall": [w for w, _ in js], "scaled": [c for _, c in js]} for v, js in jobs.items()},
        "setup_s": {"wall": [w for w, _ in setup], "scaled": [c for _, c in setup]},
        "shares_of_traced_job": shares,
        "absent": recorder.absent if recorder else [],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder is not None:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for name, t0, t1, parent, job in recorder.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "job": job}) + "\n")

    print("environment " + json.dumps(record["environment"]))
    for msg, count in tally.failures.items():
        print(f"failed op x{count}: {msg}")
    print(f"ops: {tally.attempted} attempted, {tally.failed} failed (fail_frac {record['fail_frac']:.4f}), "
          f"{tally.wrong} wrong")
    walls = [w for w, _ in jobs["plain"]]
    print(f"{'job wall s (not rescaled), p50':48s} {statistics.median(walls):14.6g} s      n={len(walls)}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} n={n}")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"share of mean traced job  {name:48s} {share:7.1%}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
