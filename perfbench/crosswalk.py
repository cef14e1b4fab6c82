"""Re-measure the ROADMAP baseline rows, untraced and traced, on this machine.

Run from the repository root:  python3 perfbench/crosswalk.py

Each row is timed best-of-5 with ``time.perf_counter``, as the baseline was
(it took best-of-3), and best-of-5 again under the benchmark's tracer, where the number
is the duration of the row's own span (for ``spray_ab``, the mean span per
call; its untraced figure is the batch time divided by the same call count).
Prints a markdown table.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if run.use_checkout_source() is None:
    sys.exit(f"finslerlab sources not found under {run.SRC}")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from finslerlab import flatness, models  # noqa: E402

MODELS = ("funk", "berwald", "example63-plus", "example64")
REPS = 5


def cli_geodesic_batch(m):
    """The CLI verify command's geodesic check at --seed 0: 10 traces, <= 1000 steps."""
    rng = np.random.default_rng(1)
    xs = flatness.sample_ball(rng, 3, 10, 0.4)
    ys = flatness.sample_sphere(rng, 3, 10)
    return flatness.integrate_geodesics(m, xs, ys, 0.9, 1e-3, max_steps=1000)


# (ROADMAP row, its baseline, callable on the built models, span name, per call?)
CASES = [
    *((f"`verify_flatness` n=100, {name}", base,
       lambda ms, name=name: flatness.verify_flatness(ms[name], samples=100),
       "flatness.verify_flatness", False)
      for name, base in (("funk", "8.6 ms"), ("berwald", "5.7 ms"),
                         ("example63-plus", "21 ms"), ("example64", "293 ms"))),
    ('`build_model("example64")`, gate included', "~300 ms",
     lambda ms: models.build_model("example64", 3), "models.build_model", False),
    ("`spray_ab` batch 10, funk, per call", "~0.65 ms",
     lambda ms: cli_geodesic_batch(ms["funk"]), "abmetric.spray_ab", True),
    ("RK4 funk, 10 traces x 1000 steps (all leave by step 698)", "2.6 s",
     lambda ms: cli_geodesic_batch(ms["funk"]), "flatness.integrate_geodesics", False),
]


def build_all():
    return {name: models.build_model(name, 3) for name in MODELS}


def main():
    plain = build_all()
    print("| ROADMAP row (d = 3) | baseline | untraced, best of 5 | traced span, best of 5 |")
    print("| --- | --- | --- | --- |")
    for label, base, fn, span, per_call in CASES:
        untraced = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn(plain)
            untraced = min(untraced, time.perf_counter() - t0)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced_models = build_all()  # built under the tracer, so chain fields are wrapped
            for rep in range(REPS):
                tr.job = rep
                fn(traced_models)
        finally:
            tr.uninstall()
        traced = float("inf")
        for rep in range(REPS):
            durations = [s[3] - s[2] for s in tr.spans if s[5] == rep and s[1] == span]
            traced = min(traced, sum(durations) / len(durations) if per_call else max(durations))
        if per_call:
            untraced /= len(durations)
            label += f" ({len(durations)} calls)"
        print(f"| {label} | {base} | {_fmt(untraced)} | {_fmt(traced)} |")


def _fmt(seconds):
    return f"{seconds:.3g} s" if seconds >= 1.0 else f"{seconds * 1e3:.3g} ms"


if __name__ == "__main__":
    main()
