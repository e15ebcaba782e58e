"""Command-line interface: projection reports, Monte-Carlo statistics, plane scans."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import geometry, linalg, projection, states

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _format_matrix(m: np.ndarray) -> str:
    rows = []
    for row in m:
        cells = []
        for z in row:
            if abs(z.imag) > 5e-7:
                cells.append(f"{z.real:+9.6f}{z.imag:+9.6f}i")
            else:
                cells.append(f"{z.real:+9.6f}")
        rows.append("  ".join(cells))
    return "\n".join(rows)


def _resolve_state(spec: str) -> states.DensityMatrix:
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        try:
            return states.state_from_json(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read state file {spec!r}: {exc}") from exc
    aliases = {"w": "w_state", "bell": "bell_psi_plus", "qd": "quasi_distillable"}
    return states.make_named(aliases.get(spec.lower(), spec))


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_project(args) -> int:
    rho = _resolve_state(args.state)
    res = projection.closest_pt_state(rho, args.subsystem)
    d = res.pt_spectrum
    neg = float(projection.pt_negativity(d, rho.dims))
    robustness = float(projection.pt_robustness(d))
    # positive only by grace of the tolerance: min eigenvalue in [-1e-9, 0)
    borderline = res.rho_s_is_positive and res.rho_s_min_eig < 0

    print(f"state: {args.state}  dims {rho.dims[0]}x{rho.dims[1]}  PT over {args.subsystem}")
    print("PT spectrum (ascending): " + "  ".join(f"{x: .10f}" for x in d))
    print("E^2 (descending):        " + "  ".join(f"{x: .10f}" for x in res.e_squared))
    print(f"lambda:               {res.lam:.12f}")
    print(f"kept indices:         {list(res.kept_indices)} (rank {res.rank})")
    print(f"distance (exact):     {res.distance_exact:.16f}")
    print(f"distance (spectral):  {res.distance_closed_form:.16f}")
    print(f"negativity:           {neg:.16f}")
    print(f"robustness t:         {robustness:.16f}")
    positive = "yes" + (" (borderline)" if borderline else "") if res.rho_s_is_positive else "no (distance is a lower bound to the PPT set)"
    print(f"rho_s PSD:            {positive}")
    print("closest PT state rho_s:")
    print(_format_matrix(res.closest_pt_state))

    if args.json:
        report = {
            "input": args.state,
            "dims": list(rho.dims),
            "subsystem": args.subsystem,
            "pt_spectrum": [float(x) for x in d],
            "e_squared": [float(x) for x in res.e_squared],
            "lambda": res.lam,
            "kept_indices": list(res.kept_indices),
            "distance_exact": res.distance_exact,
            "distance_closed_form": res.distance_closed_form,
            "negativity": neg,
            "robustness": robustness,
            "rho_s_is_positive": res.rho_s_is_positive,
            "borderline": borderline,
            "d_min": res.d_min,
            "rho_s": states.state_to_dict(states.DensityMatrix(res.closest_pt_state, rho.dims)),
        }
        _write_text(args.json, json.dumps(report, indent=1))
    return EXIT_OK


# States per batched block in cmd_stats; bounds the matrix stacks whatever
# --samples is. Every state is computed on its own, so the block size changes
# no printed value.
_STATS_BLOCK = 512

# Two-qubit NPT probability under the Hilbert-Schmidt measure: the PPT (here
# separable) probability is 8/33 (Milz & Strunz, J. Phys. A 48, 035306, 2015).
HS_NPT_FRACTION_2X2 = 1.0 - 8.0 / 33.0


def cmd_stats(args) -> int:
    da, db = args.dims
    n = da * db
    samples = args.samples
    npt = 0
    positive = 0
    rank2 = 0
    rank2_positive = 0
    neg_sum = 0.0
    for start in range(0, samples, _STATS_BLOCK):
        seeds = range(args.seed + start, args.seed + min(start + _STATS_BLOCK, samples))
        rhos = states.sample_hs_random_stack(n, seeds)
        pt = linalg.eig_hermitian(states.partial_transpose(rhos, "B", (da, db)))
        # only the NPT states go on to the projection
        is_npt = ~projection.above_noise_floor(pt.eigenvalues[:, 0])
        res = projection.project_pt_spectra(
            linalg.EigenDecomposition(pt.eigenvalues[is_npt], pt.unitary[is_npt]), (da, db)
        )
        # one at a time in seed order, so the sum rounds as a per-state loop's would
        for value in projection.pt_negativity(res.d, (da, db)).tolist():
            neg_sum += value
        is_rank2 = res.rank == 2
        npt += len(res.d)
        positive += int(res.rho_s_is_positive.sum())
        rank2 += int(is_rank2.sum())
        rank2_positive += int((is_rank2 & res.rho_s_is_positive).sum())

    print(f"samples:                  {samples}  (seed {args.seed}, dims {da}x{db})")
    print(f"NPT fraction:             {npt / samples:.4f}  ({npt}/{samples})")
    if npt:
        print(f"positive rho_s fraction:  {positive / npt:.4f}  (of NPT)")
        print(f"mean negativity (NPT):    {neg_sum / npt:.6f}")
        print(f"rank-2 fraction (NPT):    {rank2 / npt:.4f}  ({rank2_positive} of {rank2} with PSD rho_s)")
    if (da, db) == (2, 2):
        p = HS_NPT_FRACTION_2X2
        se = math.sqrt(p * (1.0 - p) / samples)
        print(f"HS reference 1-8/33:      {p:.4f}  (se {se:.4f}, z {(npt / samples - p) / se:+.2f})")
    return EXIT_OK


_PLANE_ANCHORS = {
    "ff1": ("bell_psi_plus", "ff1_rho2"),
    "ff2": ("bell_psi_plus", "ff2_rho2"),
    "ff3": ("bell_psi_plus", "ff3_rho2"),
    "ff4": ("bell_psi_plus", "ff4_rho2"),
    "ff8": ("bell_psi_plus", "ff8_rho2"),
}


def resolve_plane(spec: str) -> geometry.Plane:
    """Plane from a named tag, random(seed), or two JSON state paths joined by ','."""
    if spec in _PLANE_ANCHORS:
        n1, n2 = _PLANE_ANCHORS[spec]
        return geometry.build_plane(states.make_named(n1), states.make_named(n2))
    m = re.fullmatch(r"random[:(](\d+)\)?", spec)
    if m:
        seed = int(m.group(1))
        rho1 = states.sample_hs_random(4, seed, dims=(2, 2))
        rho2 = states.sample_hs_random(4, seed + 1, dims=(2, 2))
        return geometry.build_plane(rho1, rho2)
    if "," in spec:
        p1, p2 = spec.split(",", 1)
        return geometry.build_plane(
            states.state_from_json(Path(p1).read_text()),
            states.state_from_json(Path(p2).read_text()),
        )
    raise ValueError(
        f"unknown plane {spec!r}; use ff1|ff2|ff3|ff4|ff8, random:<seed>, or two JSON paths"
    )


def cmd_scan(args) -> int:
    plane = resolve_plane(args.plane)
    lo, hi = args.range
    grid = geometry.scan_plane(plane, (lo, hi, args.resolution), (lo, hi, args.resolution))
    _write_text(args.out, geometry.grid_to_csv(grid))
    print(f"wrote {args.resolution}x{args.resolution} grid to {args.out}")

    if args.contours is not None:
        entries = [
            ("state_boundary", 0.0, geometry.boundary_contours(grid, "state_boundary")),
            ("ppt_boundary", 0.0, geometry.boundary_contours(grid, "ppt_boundary")),
        ]
        for level in args.contours:
            entries.append(
                ("negativity", level, geometry.boundary_contours(grid, "negativity", level))
            )
        out = args.contour_out or str(Path(args.out).with_suffix(".contours.json"))
        _write_text(out, geometry.contours_to_json(entries))
        print(f"wrote contours to {out}")
    return EXIT_OK


def _parse_dims(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("dims must look like 2x2")
    return int(m.group(1)), int(m.group(2))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_levels(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_range(text: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in text.split(":"))
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entgeo",
        description="Closest partially transposed states, negativity, and state-space slices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="projection report for a single state")
    p.add_argument("--state", required=True, help="named tag (w, bell-psi-plus, ...) or JSON path")
    p.add_argument("--subsystem", choices=["A", "B"], default="B")
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("stats", help="Monte-Carlo statistics over random states")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dims", type=_parse_dims, default=(2, 2))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("scan", help="scan a 2-D plane and export the grid as CSV")
    p.add_argument("--plane", required=True, help="ff1|ff2|ff3|ff4|ff8, random:<seed>, or 'a.json,b.json'")
    p.add_argument("--resolution", type=int, default=401)
    p.add_argument("--range", type=_parse_range, default=(-0.9, 0.9), help="axis range lo:hi, lo < hi; write a negative lo as --range=-0.5:0.5")
    p.add_argument("--out", required=True)
    p.add_argument("--contours", type=_parse_levels, help="negativity levels, e.g. 0.1,0.2,0.5")
    p.add_argument("--contour-out")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
