"""JSON/CSV/SVG output helpers for the command-line tools.

JSON reports carry a schema version and echo the configuration; floats are
serialized through repr (shortest round-trip, up to 17 significant digits),
so identical runs produce byte-identical files once wall-clock fields are
omitted.  Reports are strict JSON: a non-finite residual is written as null
and fails its check, and writing any other NaN or infinity is an error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__

SCHEMA_VERSION = 1


def make_report(command: str, config: dict, checks: list[dict],
                with_clock: bool = True, t0: float | None = None) -> dict:
    """Assemble the standard report dict; overall pass iff all checks pass."""
    rep = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": _plain(config),
        "checks": _plain(checks),
        "passed": all(c.get("pass", False) for c in checks),
        "library_version": __version__,
    }
    if with_clock:
        rep["timestamp"] = datetime.now(timezone.utc).isoformat()
        if t0 is not None:
            rep["timing_seconds"] = time.perf_counter() - t0
    return rep


def check_entry(name: str, max_residual: float, tolerance: float) -> dict:
    finite = math.isfinite(max_residual)
    return {
        "name": name,
        "max_residual": float(max_residual) if finite else None,
        "tolerance": float(tolerance),
        "pass": bool(finite and max_residual <= tolerance),
    }


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain python values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def csv_to_stdout(header: list[str], rows):
    w = csv.writer(sys.stdout)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                    for v in row])


def svg_traces(path: str, traces, radius: float = 1.0):
    """800x800 SVG: the domain ball as the inscribed circle, each trace in the
    first two coordinates with its straight chord overlaid."""
    size = 800
    half = size / 2.0

    def to_px(p):
        return (half + half * p[0] / radius, half - half * p[1] / radius)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{half}" cy="{half}" r="{half}" fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for tr in traces:
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in map(to_px, tr.points))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>')
        x0, x1 = tr.points[0], tr.points[-1]
        (ax, ay), (bx, by) = to_px(x0), to_px(x1)
        parts.append(f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                     f'stroke="#1f77b4" stroke-width="0.8" stroke-dasharray="6,4"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
