"""Command-line interface: projection reports, Monte-Carlo statistics, plane scans."""

from __future__ import annotations

import argparse
import functools
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
    # Python numbers format faster than numpy scalars, to the same text
    for row in m.tolist():
        cells = []
        for z in row:
            if abs(z.imag) > 5e-7:
                cells.append(f"{z.real:+9.6f}{z.imag:+9.6f}i")
            else:
                cells.append(f"{z.real:+9.6f}")
        rows.append("  ".join(cells))
    return "\n".join(rows)


_encode_scalar = json.JSONEncoder().encode


def _report_json(obj, indent: str = "") -> str:
    """Exactly ``json.dumps(obj, indent=1)`` for str-keyed dicts, lists, tuples and JSON scalars.

    ``json.dumps`` with an indent runs its pure-Python encoder; this writes the
    same layout and hands each key and non-finite or non-float scalar to the C
    encoder. Finite floats take ``float.__repr__``, as ``json`` writes them.
    """
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + " "
        items = (",\n" + inner).join(
            [float.__repr__(v) if type(v) is float and math.isfinite(v) else _report_json(v, inner) for v in obj]
        )
        return f"[\n{inner}{items}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + " "
        items = (",\n" + inner).join([f"{_encode_scalar(k)}: {_report_json(v, inner)}" for k, v in obj.items()])
        return f"{{\n{inner}{items}\n{indent}}}"
    return _encode_scalar(obj)


def _resolve_state(spec: str) -> states.DensityMatrix:
    """A named tag, or a JSON state file; a tag wins over a same-named file unless it ends in .json."""
    if not spec.endswith(".json"):
        aliases = {"w": "w_state", "bell": "bell_psi_plus", "qd": "quasi_distillable"}
        try:
            return states.make_named(aliases.get(spec.lower(), spec))
        except ValueError:
            if not Path(spec).is_file():
                raise
    try:
        return states.state_from_json(Path(spec).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read state file {spec!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_project(args) -> int:
    rho = _resolve_state(args.state)
    res = projection.closest_pt_states(rho.matrix[None], rho.dims)
    d = res.d[0]
    neg = float(projection.pt_negativity(d))
    robustness = float(projection.pt_robustness(d))
    spectrum, e_squared = d.tolist(), np.sort(res.e2[0])[::-1].tolist()
    lam = float(res.lam[0])
    kept_indices = np.flatnonzero(res.kept[0]).tolist()
    distance_exact = float(np.linalg.norm(rho.matrix - res.rho_s[0]))
    distance_closed_form = float(projection.distance_closed_form(res.d, res.kept)[0])
    is_positive = bool(res.rho_s_is_positive[0])
    # positive only by grace of the tolerance: min eigenvalue in [-1e-9, 0)
    borderline = is_positive and bool(res.rho_s_min_eig[0] < 0)

    print(f"state: {args.state}  dims {rho.dims[0]}x{rho.dims[1]}  PT over B")
    print("PT spectrum (ascending): " + "  ".join(f"{x: .10f}" for x in spectrum))
    print("E^2 (descending):        " + "  ".join(f"{x: .10f}" for x in e_squared))
    print(f"lambda:               {lam:.12f}")
    print(f"kept indices:         {kept_indices} (rank {len(kept_indices)})")
    print(f"distance (exact):     {distance_exact:.16f}")
    print(f"distance (spectral):  {distance_closed_form:.16f}")
    print(f"negativity:           {neg:.16f}")
    print(f"robustness t:         {robustness:.16f}")
    positive = "yes" + (" (borderline)" if borderline else "") if is_positive else "no (distance is a lower bound to the PPT set)"
    print(f"rho_s PSD:            {positive}")
    print("closest PT state rho_s:")
    print(_format_matrix(res.rho_s[0]))

    if args.json:
        report = {
            "input": args.state,
            "dims": list(rho.dims),
            "subsystem": "B",
            "pt_spectrum": spectrum,
            "e_squared": e_squared,
            "lambda": lam,
            "kept_indices": kept_indices,
            "distance_exact": distance_exact,
            "distance_closed_form": distance_closed_form,
            "negativity": neg,
            "robustness": robustness,
            "rho_s_is_positive": is_positive,
            "borderline": borderline,
            "d_min": spectrum[0],
            "rho_s": states.state_to_dict(states.DensityMatrix(res.rho_s[0], rho.dims)),
        }
        _write_text(args.json, _report_json(report))
    return EXIT_OK


# States per batched block in cmd_stats at n = 4. A block holds
# _STATS_BLOCK * 16 matrix elements whatever n, so the matrix stacks are
# bounded whatever --samples and --dims are. Every state is computed on its
# own, so the block size changes no printed value.
_STATS_BLOCK = 512

# Upper bound on --samples: two qubits run at about 5 * 10^4 states/s, so a
# run at the cap takes minutes, and a count like 2^64 would never finish.
MAX_SAMPLES = 10**7

# Two-qubit NPT probability under the Hilbert-Schmidt measure: the PPT (here
# separable) probability is 8/33 (Milz & Strunz, J. Phys. A 48, 035306, 2015).
HS_NPT_FRACTION_2X2 = 1.0 - 8.0 / 33.0


def cmd_stats(args) -> int:
    da, db = args.dims
    n = da * db
    samples = args.samples
    rows = max(1, _STATS_BLOCK * 16 // n**2)
    npt = 0
    positive = 0
    rank2 = 0
    rank2_positive = 0
    neg_sum = 0.0
    for start in range(0, samples, rows):
        seeds = range(args.seed + start, args.seed + min(start + rows, samples))
        rhos = states.sample_hs_random_stack(n, seeds)
        d, u = linalg.eig_hermitian(states.partial_transpose(rhos, (da, db)))
        # only the NPT states go on to the projection
        is_npt = ~projection.above_noise_floor(d[:, 0])
        res = projection.project_pt_spectra(d[is_npt], u[is_npt], (da, db))
        # one at a time in seed order, so the sum rounds as a per-state loop's would
        for value in projection.pt_negativity(res.d).tolist():
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
    """Plane from a named tag, random:<seed>, or two states joined by ',', each a tag or a JSON path."""
    if spec in _PLANE_ANCHORS:
        n1, n2 = _PLANE_ANCHORS[spec]
        return geometry.build_plane(states.make_named(n1), states.make_named(n2))
    m = re.fullmatch(r"random:(\d+)", spec)
    if m:
        seed = int(m.group(1))
        rho1, rho2 = states.sample_hs_random_stack(4, [seed, seed + 1])
        return geometry.build_plane(states.DensityMatrix(rho1, (2, 2)), states.DensityMatrix(rho2, (2, 2)))
    if "," in spec:
        p1, p2 = spec.split(",", 1)
        return geometry.build_plane(_resolve_state(p1), _resolve_state(p2))
    raise ValueError(
        f"unknown plane {spec!r}; use ff1|ff2|ff3|ff4|ff8, random:<seed>, or two states 'a,b' (tags or JSON paths)"
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
    da, db = int(m.group(1)), int(m.group(2))
    if not (da >= 1 and db >= 1 and da * db <= states.MAX_DIM):
        raise argparse.ArgumentTypeError(f"dims need dA, dB >= 1 and dA*dB <= {states.MAX_DIM}, got {text!r}")
    return da, db


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {text!r}")
    return value


def _parse_levels(text: str) -> list[float]:
    levels = [float(x) for x in text.split(",") if x.strip()]
    if not all(map(math.isfinite, levels)):
        raise argparse.ArgumentTypeError(f"contour levels must be finite, got {text!r}")
    return levels


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
    p.add_argument("--json", help="also write a machine-readable report here")

    p = sub.add_parser("stats", help="Monte-Carlo statistics over random states")
    p.add_argument("--samples", type=_sample_count, default=10000, help=f"states to draw, 1 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dims", type=_parse_dims, default=(2, 2))

    p = sub.add_parser("scan", help="scan a 2-D plane and export the grid as CSV")
    p.add_argument("--plane", required=True, help="ff1|ff2|ff3|ff4|ff8, random:<seed>, or two states 'a,b' (tags or JSON paths)")
    p.add_argument("--resolution", type=int, default=401, help=f"steps per axis, 2 to {geometry.MAX_RESOLUTION}")
    p.add_argument("--range", type=_parse_range, default=(-0.9, 0.9), help="axis range lo:hi, lo < hi; write a negative lo as --range=-0.5:0.5")
    p.add_argument("--out", required=True)
    p.add_argument("--contours", type=_parse_levels, help="negativity levels, e.g. 0.1,0.2,0.5")
    p.add_argument("--contour-out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; parsing leaves no state in it
    return build_parser()


def main(argv=None) -> int:
    """Run one entgeo command; may be called repeatedly in one process."""
    args = _parser().parse_args(argv)
    # the handlers are looked up when called, so a replaced module attribute is the one that runs
    command = {"project": cmd_project, "stats": cmd_stats, "scan": cmd_scan}[args.command]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
