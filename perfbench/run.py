"""entgeo benchmark: one workload per call, printed as one JSON line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan-planes --seed 1 --seconds 30 --trace 0

Workloads: scan-planes, stats-2x2, project-mixed (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run. --smoke runs every workload and check on tiny inputs.

This launcher imports no numpy. It times cold imports for set-up before and
after the workload, runs the workload in a fresh worker interpreter with BLAS
pinned to one thread and ENTGEO_THREADS unset, and prints the worker's
metrics. The last line of stdout is {"correct", "attempted", "failed",
"metrics"}. A full run record (manifest, output digests, span table) is
written under .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-planes", "stats-2x2", "project-mixed")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 5  # before the workload, and again after it

# How each workload's generic metrics read in the workload's own terms.
NAMES = {
    "scan-planes": {"items_per_s": ("scan_cells_per_s", 1.0, "1/s"),
                    "op_ms_p50": ("scan_job_s_p50", 1e-3, "s"),
                    "op_ms_tail": ("scan_job_s_tail", 1e-3, "s")},
    "stats-2x2": {"items_per_s": ("stats_states_per_s", 1.0, "1/s"),
                  "op_ms_p50": ("stats_call_s_p50", 1e-3, "s"),
                  "op_ms_tail": ("stats_call_s_tail", 1e-3, "s")},
    "project-mixed": {"items_per_s": ("project_reports_per_s", 1.0, "1/s"),
                      "op_ms_p50": ("project_report_ms_p50", 1.0, "ms"),
                      "op_ms_tail": ("project_report_ms_p99", 1.0, "ms")},
}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ENTGEO_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_imports(env: dict, repeats: int) -> list[float]:
    """Wall times of cold interpreter starts plus ``import entgeo.cli``.

    The exit is awaited on a pidfd: ``Popen.wait(timeout)`` polls in sleeps of
    up to 50 ms, which would round every sample up to that grid.
    """
    cmd = [sys.executable, "-c", "import entgeo.cli"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([fd], [], [], 60)[0]
        finally:
            os.close(fd)
        elapsed = perf_counter() - t0
        if not exited:
            proc.kill()
        if proc.wait() != 0 or not exited:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        times.append(elapsed)
    return times


def summary(workload: str, seed: int, result: dict) -> list[str]:
    lines = [f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}"
             f" error_rate {result['failed'] / result['attempted']:.4g}"]
    for name, m in result["metrics"].items():
        alias = NAMES[workload].get(name)
        extra = f"  ({alias[0]} {m['value'] * alias[1]:.6g} {alias[2]})" if alias else ""
        lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}{extra}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entgeo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check")
    args = parser.parse_args(argv)

    start = perf_counter()
    if not (ROOT / "src" / "entgeo" / "__init__.py").is_file():
        print(f"error: no entgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    out_dir = ROOT / ".perfbench"
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    setup_times = []
    # Half the set-up samples are taken before the workload and half after it,
    # so that one slow spell of the machine does not set the median. The first
    # start compiles the bytecode, which users pay only once, and is not timed.
    repeats = 0 if args.trace else (1 if args.smoke else SETUP_REPEATS)
    try:
        time_imports(env, 1)
        setup_times += time_imports(env, repeats)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, TIME_LIMIT_S - (perf_counter() - start)))
        setup_times += time_imports(env, repeats)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up import failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_times:
        record["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        record["setup_seconds"] = setup_times
    record["launcher_argv"] = sys.argv
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("manifest " + json.dumps(record["manifest"]))
    print("\n".join(summary(args.workload, args.seed, record)))
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
