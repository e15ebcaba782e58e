"""Output checks for the benchmark workloads.

Every oracle here is rebuilt from numpy and the published definitions, never
from entgeo itself, so a defect in entgeo cannot hide in its own check. Each
check returns a list of error strings; an empty list means the output passed.
The checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Zyczkowski-Sommers HS measure: the two-qubit PPT probability is 8/33
# (Milz & Strunz 2015), and PPT equals separable for 2x2 (Horodecki 1996).
HS_NPT_FRACTION_2X2 = 1.0 - 8.0 / 33.0
W_DISTANCE = 0.5443310539518174
BELL_DISTANCE = 1.0 / math.sqrt(3.0)
SCAN_TOL = 1e-12
REPORT_TOL = 1e-12


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def partial_transpose(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Transpose the second tensor factor; works on stacks of matrices."""
    n = da * db
    lead = m.shape[:-2]
    t = m.reshape(*lead, da, db, da, db)
    return np.swapaxes(t, -3, -1).reshape(*lead, n, n)


def hs_random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """rho = G G^dagger / tr(G G^dagger) with G square complex Ginibre."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def state_json(rho: np.ndarray, dims: tuple[int, int]) -> str:
    """The entgeo state interchange schema, written with exact float repr."""
    mat = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps({"dims": list(dims), "matrix": mat})


def _projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj()) / float(np.vdot(v, v).real)


def plane_anchors(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Anchor states of the planes the scan workload uses.

    ``ff3``: the Bell state (|01>+|10>)/sqrt(2) and |01><01|.
    ``random:<s>``: HS-random two-qubit states drawn from default_rng(s) and
    default_rng(s + 1), real parts first, as the entgeo CLI documents.
    """
    if spec == "ff3":
        return bell_state(), _projector([0, 1, 0, 0])
    seed = int(spec.split(":", 1)[1])
    return (
        hs_random_state(np.random.default_rng(seed), 4),
        hs_random_state(np.random.default_rng(seed + 1), 4),
    )


def plane_frame(rho1: np.ndarray, rho2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HS-orthonormal traceless frame of the plane through I/n, rho1 and rho2."""
    n = rho1.shape[0]
    center = np.eye(n) / n
    a1 = rho1 - center
    a1 = a1 / np.linalg.norm(a1)
    v2 = rho2 - center
    v2 = v2 - np.trace(a1.conj().T @ v2) * a1
    return a1, v2 / np.linalg.norm(v2)


def check_scan(
    plane_spec: str,
    resolution: int,
    n_levels: int,
    csv_text: str,
    contours_text: str,
    rng: np.random.Generator,
    n_cells: int = 50,
) -> list[str]:
    """Row count, spot-checked cell spectra, and the contour document."""
    errors = []
    rows = csv_text.splitlines()
    if len(rows) != resolution * resolution + 1:
        errors.append(f"csv has {len(rows)} rows, want {resolution * resolution + 1}")
        return errors
    a1, a2 = plane_frame(*plane_anchors(plane_spec))
    center = np.eye(4) / 4
    picks = rng.choice(resolution * resolution, size=min(n_cells, resolution * resolution), replace=False)
    for idx in picks:
        fields = rows[1 + int(idx)].split(",")
        a, b, min_eig, min_eig_pt = (float(x) for x in fields[:4])
        m = center + a * a1 + b * a2
        want = float(np.linalg.eigvalsh(m)[0])
        want_pt = float(np.linalg.eigvalsh(partial_transpose(m, 2, 2))[0])
        if abs(min_eig - want) > SCAN_TOL or abs(min_eig_pt - want_pt) > SCAN_TOL:
            errors.append(
                f"cell ({a:.6g},{b:.6g}): min_eig {min_eig!r}/{want!r}, "
                f"min_eig_pt {min_eig_pt!r}/{want_pt!r}"
            )
            break
    try:
        doc = json.loads(contours_text)
    except json.JSONDecodeError as exc:
        return errors + [f"contour json: {exc}"]
    if len(doc) != 2 + n_levels:
        errors.append(f"contour json has {len(doc)} entries, want {2 + n_levels}")
    if plane_spec == "ff3":
        ppt = [e for e in doc if e.get("field") == "ppt_boundary"]
        if not ppt or not ppt[0].get("polylines"):
            errors.append("ff3 ppt_boundary is empty")
    return errors


def _stat_line(stdout: str, label: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    raise ValueError(f"no {label!r} line")


def check_stats(stdout: str, samples: int) -> list[str]:
    """NPT fraction within 4 sigma of 1 - 8/33; positive rho_s fraction >= 0.99."""
    try:
        counts = _stat_line(stdout, "NPT fraction:").split("(")[1].rstrip(")")
        npt, total = (int(x) for x in counts.split("/"))
        positive = float(_stat_line(stdout, "positive rho_s fraction:").split()[0])
    except (ValueError, IndexError) as exc:
        return [f"stats output unreadable: {exc}"]
    errors = []
    if total != samples:
        errors.append(f"stats ran {total} samples, want {samples}")
    p = HS_NPT_FRACTION_2X2
    sigma = math.sqrt(p * (1 - p) / samples)
    if abs(npt / total - p) > 4 * sigma:
        errors.append(f"NPT fraction {npt / total:.4f} is more than 4 sigma from {p:.4f}")
    if positive < 0.99:
        errors.append(f"positive rho_s fraction {positive} < 0.99")
    return errors


def check_report(
    report: dict, rho: np.ndarray, dims: tuple[int, int], expected_distance: float | None
) -> list[str]:
    """Distance, PT minimum, simplex weights and golden distances of a project report."""
    errors = []
    da, db = dims
    if list(report["dims"]) != [da, db]:
        return [f"report dims {report['dims']}, want {[da, db]}"]
    rho_s = np.array([[complex(re, im) for re, im in row] for row in report["rho_s"]["matrix"]])
    distance = float(np.linalg.norm(rho - rho_s))
    if abs(report["distance_exact"] - distance) > REPORT_TOL:
        errors.append(f"distance_exact {report['distance_exact']!r}, numpy {distance!r}")
    d_min = float(np.linalg.eigvalsh(partial_transpose(rho, da, db))[0])
    if abs(report["d_min"] - d_min) > REPORT_TOL:
        errors.append(f"d_min {report['d_min']!r}, numpy {d_min!r}")
    e2 = np.asarray(report["e_squared"], dtype=float)
    if np.any(e2 < 0) or abs(e2.sum() - 1.0) > REPORT_TOL:
        errors.append(f"e_squared not on the simplex: min {e2.min()!r}, sum {e2.sum()!r}")
    if expected_distance is not None and abs(report["distance_exact"] - expected_distance) > REPORT_TOL:
        errors.append(f"distance_exact {report['distance_exact']!r}, golden {expected_distance!r}")
    return errors


def w_state() -> np.ndarray:
    """(|001>+|010>+|100>)/sqrt(3), qubit 1 against qubits 2 and 3."""
    v = np.zeros(8)
    v[[1, 2, 4]] = 1.0
    return _projector(v)


def bell_state() -> np.ndarray:
    return _projector([0, 1, 1, 0])
