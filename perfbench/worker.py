"""Runs one benchmark workload in this process and prints its result as JSON.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
ENTGEO_THREADS unset. Every operation is one in-process ``entgeo`` command
(``entgeo.cli.main``); its wall time is the operation's latency. Outputs are
checked after each operation, outside the timed region.

With --trace 1 the run has two parts: an untraced third, then a traced two
thirds whose spans give the per-layer numbers. Their mean operation times
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
LEVELS = "0.1,0.2,0.3,0.5,0.8"
SPAN_DUMP_LIMIT = 20_000  # raw spans written per run; a stats call makes ~2e5
PIN_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ENTGEO_THREADS")


@dataclass
class Op:
    argv: list[str]
    items: int                      # cells, states or reports this op produces
    check: object                   # callable(stdout) -> (errors, {output: sha256})
    outputs: list[Path] = field(default_factory=list)


class ScanPlanes:
    """Full plane jobs: plane, grid, CSV, 7 contours, contour JSON.

    A cycle is one ff3 job (real frame) and one random:<seed+k> job (complex
    frame), so the two eigvalsh paths are always measured in equal number.
    """

    name = "scan-planes"
    unit = "cells"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.resolution = 21 if smoke else 401
        self.csv = workdir / "plane.csv"
        self.contours = workdir / "plane.contours.json"
        self.rng = np.random.default_rng([seed, 1])

    def _job(self, plane: str, resolution: int) -> Op:
        argv = ["scan", "--plane", plane, "--resolution", str(resolution),
                "--out", str(self.csv), "--contours", LEVELS]

        def check(stdout):
            csv, contours = self.csv.read_text(), self.contours.read_text()
            errors = checks.check_scan(plane, resolution, len(LEVELS.split(",")), csv, contours, self.rng)
            return errors, {plane: [checks.sha256(csv), checks.sha256(contours)]}

        return Op(argv, resolution * resolution, check, [self.csv, self.contours])

    def warmup(self) -> list[Op]:
        return [self._job("ff3", 11), self._job(f"random:{self.seed}", 11)]

    def cycle(self, k: int) -> list[Op]:
        return [self._job("ff3", self.resolution),
                self._job(f"random:{self.seed + k}", self.resolution)]


class Stats2x2:
    """``entgeo stats --dims 2x2`` at 10^4 samples; each op draws fresh seeds."""

    name = "stats-2x2"
    unit = "states"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.samples = 300 if smoke else 10_000
        self.base = seed * 1_000_000

    def _call(self, samples: int, first_seed: int) -> Op:
        argv = ["stats", "--samples", str(samples), "--seed", str(first_seed), "--dims", "2x2"]

        def check(stdout):
            return checks.check_stats(stdout, samples), {f"seed{first_seed}": checks.sha256(stdout)}

        return Op(argv, samples, check)

    def warmup(self) -> list[Op]:
        # seeds far above those of the timed calls, which use base + k * samples
        return [self._call(50, self.base + 999_000)]

    def cycle(self, k: int) -> list[Op]:
        return [self._call(self.samples, self.base + k * self.samples)]


class ProjectMixed:
    """One ``entgeo project --state <file> --json <out>`` report per op.

    A cycle is six HS-random state files of dims 2x2, 2x3, 3x3, 2x4, 3x4 and
    4x4, then the named ``w`` and ``bell``. Each cycle draws fresh states, so
    no file is reported twice.
    """

    name = "project-mixed"
    unit = "reports"
    DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.report = workdir / "report.json"

    def _report(self, state: str, rho, dims, golden, key: str) -> Op:
        argv = ["project", "--state", state, "--json", str(self.report)]

        def check(stdout):
            text = self.report.read_text()
            return checks.check_report(json.loads(text), rho, dims, golden), {key: checks.sha256(text)}

        return Op(argv, 1, check, [self.report])

    def _cycle(self, stream: int, k: int) -> list[Op]:
        ops = []
        for da, db in self.DIMS:
            rng = np.random.default_rng([stream, self.seed, k, da, db])
            rho = checks.hs_random_state(rng, da * db)
            path = self.workdir / f"state-{da}x{db}.json"
            path.write_text(checks.state_json(rho, (da, db)))
            ops.append(self._report(str(path), rho, (da, db), None, f"cycle{k}:{da}x{db}"))
        ops.append(self._report("w", checks.w_state(), (2, 4), checks.W_DISTANCE, "w"))
        ops.append(self._report("bell", checks.bell_state(), (2, 2), checks.BELL_DISTANCE, "bell"))
        return ops

    def warmup(self) -> list[Op]:
        return self._cycle(0, 0)

    def cycle(self, k: int) -> list[Op]:
        return self._cycle(1, k)


WORKLOADS = {w.name: w for w in (ScanPlanes, Stats2x2, ProjectMixed)}


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    cycles: int = 0


def run_op(op: Op, tracer: Tracer | None, phase: Phase) -> None:
    from entgeo import cli

    for path in op.outputs:
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    if tracer is not None:
        tracer.start_op(phase.attempted)
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        dt = perf_counter() - t0
    except (Exception, SystemExit):
        dt, rc = None, None
        phase.errors.append(f"{' '.join(op.argv)}: {traceback.format_exc(limit=3)}")
    finally:
        if tracer is not None:
            tracer.stop_op()
    phase.attempted += 1
    if rc != 0:
        phase.failed += 1
        if rc is not None:
            phase.errors.append(f"{' '.join(op.argv)}: exit code {rc}")
        return
    phase.times.append(dt)
    phase.items += op.items
    try:
        errors, digests = op.check(buf.getvalue())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors, digests = [f"output unreadable: {exc!r}"], {}
    phase.digests.update(digests)
    if errors:
        phase.failed += 1
        phase.errors.extend(f"{' '.join(op.argv)}: {e}" for e in errors)


def run_phase(workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Whole cycles until ``seconds`` have passed; at least one cycle."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        for op in workload.cycle(phase.cycles):
            run_op(op, tracer, phase)
        phase.cycles += 1
        if perf_counter() >= deadline:
            return phase


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(n: int) -> int:
    """The highest of p99, p90 and p50 with at least ten samples beyond it.

    With fewer than 20 samples no percentile has ten beyond it; the median is
    then the only stable tail figure.
    """
    for q in (99, 90):
        if n * (100 - q) >= 1000:
            return q
    return 50


def tail_seconds(times: np.ndarray) -> float:
    """Tail latency at ``tail_percentile``.

    With 1000 operations or more it is the median of the p99 of consecutive
    windows of at least 1000 operations each, so that one slow spell of the
    machine inside a run does not set it.
    """
    windows = len(times) // 1000
    if windows == 0:
        return float(np.percentile(times, tail_percentile(len(times))))
    return float(np.median([np.percentile(w, 99) for w in np.array_split(times, windows)]))


def end_to_end(phase: Phase) -> dict:
    times = np.asarray(phase.times or [0.0])
    return {
        "items_per_s": (_ratio(phase.items, times.sum()), "1/s"),
        "op_ms_p50": (np.percentile(times, 50) * 1e3, "ms"),
        "op_ms_tail": (tail_seconds(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Span names reported per layer; every other span counts in trace.other.self_s.
SPANS = (
    "cli.main", "cli.build_parser", "cli.resolve_plane", "cli.cmd_project", "cli.cmd_stats", "cli.cmd_scan",
    "geometry.build_plane", "geometry.scan_plane", "geometry.boundary_contours",
    "geometry.grid_to_csv", "geometry.contours_to_json",
    "projection.project_simplex_psd", "projection.distance_closed_form", "projection.closest_pt_state",
    "projection.general_negativity", "projection.negativity", "projection.robustness_to_identity",
    "states.validate_state", "states.partial_transpose", "states.make_named",
    "states.sample_hs_random", "states.state_to_json", "states.state_from_json",
    "linalg.as_matrix", "linalg.asymmetry", "linalg.hs_inner", "linalg.hs_norm",
    "linalg.eig_hermitian", "linalg.is_psd",
    "lapack.eigh", "lapack.eigvalsh",
)
CONTOUR_KINDS = ("state_boundary", "ppt_boundary", "negativity")


def per_layer(agg: dict, traced: Phase, untraced: Phase) -> dict:
    """Per-op span numbers, layer counters and the tracing overhead."""
    ops = traced.attempted
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0}
    get = lambda name: agg.get(name, zero)
    m = {}
    for name in SPANS:
        s = get(name)
        m[f"{name}.calls"] = (s["calls"] / ops, "1/op")
        m[f"{name}.self_s"] = (s["self_s"] / ops, "s/op")
        m[f"{name}.total_s"] = (s["total_s"] / ops, "s/op")
    for frame in ("real_frame", "complex_frame"):
        s = get(f"geometry.scan_plane:{frame}")
        m[f"geometry.scan_plane.{frame}.s_per_Mcell"] = (
            s["total_s"] / (s["work"] / 1e6) if s["work"] else 0.0, "s/Mcell")
    for kind in CONTOUR_KINDS:
        m[f"geometry.boundary_contours.{kind}.self_s"] = (
            get(f"geometry.boundary_contours:{kind}")["self_s"] / ops, "s/op")
    m["geometry.contour_points"] = (get("geometry.boundary_contours")["work"] / ops, "count/op")
    m["geometry.grid_to_csv.bytes"] = (get("geometry.grid_to_csv")["work"] / ops, "B/op")
    matrices = get("lapack.eigh")["work"] + get("lapack.eigvalsh")["work"]
    m["lapack.matrices"] = (matrices / traced.cycles, "count/cycle")
    m["lapack.matrices_per_op"] = (matrices / ops, "count/op")
    untagged = {name: s for name, s in agg.items() if ":" not in name}
    self_all = sum(s["self_s"] for s in untagged.values())
    other = sum(s["self_s"] for name, s in untagged.items() if name not in SPANS)
    m["trace.other.self_s"] = (other / ops, "s/op")
    m["trace.accounted_frac"] = (_ratio(self_all, sum(traced.times)), "frac")
    mean = lambda p: _ratio(sum(p.times), len(p.times))
    m["trace.overhead_frac"] = (_ratio(mean(traced), mean(untraced)) - 1.0, "frac")
    m["trace.ops"] = (ops, "count")
    return m


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(args, entgeo_version: str) -> dict:
    return {
        "entgeo": entgeo_version,
        "numpy": np.__version__,
        "openblas": openblas_version(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "argv": sys.argv,
        "git_commit": git_commit(ROOT),
        "thread_env": {k: os.environ.get(k) for k in PIN_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import entgeo

    if ROOT / "src" not in Path(entgeo.__file__).resolve().parents:
        print(f"error: entgeo imported from {entgeo.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.smoke)
    warm = Phase()
    for op in workload.warmup():
        run_op(op, None, warm)
    for line in warm.errors:
        print(f"warm-up: {line}", file=sys.stderr)

    record = {"manifest": manifest(args, entgeo.__version__)}
    if args.trace == 0:
        phase = run_phase(workload, args.seconds)
        metrics = end_to_end(phase)
    else:
        untraced = run_phase(workload, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_phase(workload, args.seconds * 2 / 3, tracer)
        finally:
            tracer.uninstall()
        table = tracer.table()
        agg = tracer.aggregate(table)
        metrics = per_layer(agg, phase, untraced)
        record["spans"] = {name: agg[name] for name in sorted(agg)}
        record["first_op_span_count"] = int(np.count_nonzero(table[:, 2] == 0))
        record["first_op_spans"] = tracer.spans_of_op(table, 0, SPAN_DUMP_LIMIT)
        phase.attempted += untraced.attempted
        phase.failed += untraced.failed
        phase.errors += untraced.errors
        phase.digests.update(untraced.digests)

    record.update(
        correct=phase.failed == 0,
        attempted=phase.attempted,
        failed=phase.failed,
        errors=phase.errors[:20],
        digests=phase.digests,
        unit=workload.unit,
        tail_percentile=tail_percentile(len(phase.times)),
        op_seconds=phase.times,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    for line in phase.errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
