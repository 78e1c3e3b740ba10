"""Benchmark of the polyagibbs library on the forest spec.

    python3 bench/run.py --workload series-forest --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory; without it the benchmark stops with an error.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench-out"
SETUPS = 3


def load_program():
    src = ROOT / "src"
    if not (src / "polyagibbs" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'polyagibbs'}")
    sys.path.insert(0, str(src))
    import polyagibbs

    if Path(polyagibbs.__file__).resolve().parent != (src / "polyagibbs").resolve():
        sys.exit(f"error: polyagibbs imported from {polyagibbs.__file__}, not {src}")
    # the tail evaluator imports scipy.integrate on first use; keep that
    # one-time import out of the first timed round
    import scipy.integrate  # noqa: F401

    return polyagibbs


# Seconds one calibration slice takes on the reference machine (a shared
# 2-core VM, Intel Xeon at 2.1 GHz, Python 3.11.7): the median of 488
# readings.
CAL_REF_S = 0.00384
# After each set-up or round, calibrate for this share of its wall time;
# before the first one, for CAL_FIRST_S.
CAL_SHARE = 0.02
CAL_FIRST_S = 0.2


def calibrate(min_seconds: float) -> float:
    """Median seconds of a fixed pure-Python integer loop, over at least
    three slices and ``min_seconds``, with the collector off: a reading of
    how fast the machine runs the interpreter right now, independent of
    the program and its heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        start = perf_counter()
        while len(times) < 3 or perf_counter() - start < min_seconds:
            t0 = perf_counter()
            acc = 0
            for i in range(40_000):
                acc += i * i % 7
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Phase:
    """Set-ups and rounds of one workload, for at least ``seconds`` of
    round time, with at least ``setups`` timed set-ups.

    Each set-up and round is timed between two calibration readings (the
    reading after one is the reading before the next).  Its wall time is
    scaled by CAL_REF_S over the mean of the two readings, which gives
    seconds at the reference speed.  On the shared reference machine the
    interpreter's speed drifts by about +-25% over minutes; the scaling
    removes most of that drift (see README).  Rounds of a workload with
    more than one worker thread stay wall-clock: the single-thread
    calibration does not track how fast two threads share the interpreter.
    """

    def __init__(self, wl, seconds: float, setups: int, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.wall = {"setup": [], "round": []}
        self.scaled = {"setup": [], "round": []}
        self.cal_s = []
        self.done = 0
        self.attempted = 0
        self.failed = 0
        self.fails = []
        self.cpu = 0.0
        self.state = None
        self._run(seconds, setups)

    def _timed(self, kind, fn):
        if self.tracer:
            self.tracer.phase = kind
        if not self.cal_s:
            self.cal_s.append(calibrate(CAL_FIRST_S))
        c0, t0 = cpu_seconds(), perf_counter()
        result = fn()
        wall = perf_counter() - t0
        if kind == "round":
            self.cpu += cpu_seconds() - c0
        self.cal_s.append(calibrate(CAL_SHARE * wall))
        self.wall[kind].append(wall)
        if kind == "round" and self.wl.workers > 1:
            self.scaled[kind].append(wall)
        else:
            self.scaled[kind].append(wall * CAL_REF_S * 2.0 / (self.cal_s[-2] + self.cal_s[-1]))
        return result

    def _setup(self):
        self.state = self._timed("setup", self.wl.setup)

    def _round(self, index):
        wl = self.wl
        try:
            ops = self._timed("round", lambda: wl.round(self.state, index))
        except Exception:
            traceback.print_exc()
            self.attempted += wl.ops_per_round
            self.failed += wl.ops_per_round
            self.fails.append(f"round {index} raised")
            return
        self.done += ops
        self.attempted += ops
        self.fails += wl.check_round(self.state, index)

    def _run(self, seconds, setups):
        if not self.wl.fresh_setup_per_round:
            for _ in range(setups):
                self._setup()
        index = 0
        while index == 0 or sum(self.wall["round"]) < seconds:
            if self.wl.fresh_setup_per_round:
                self._setup()
            self._round(index)
            index += 1
            if not self.wall["round"] and index >= 3:
                break
        while len(self.wall["setup"]) < setups:
            self._setup()

    @property
    def setup_s(self) -> float:
        """Median set-up time at the reference speed."""
        return statistics.median(self.scaled["setup"])

    @property
    def ops_per_s(self) -> float:
        """Operations over scaled round time, pooled over the rounds."""
        if not self.done:
            return float("nan")
        return self.done / sum(self.scaled["round"])

    def summary(self) -> str:
        return (
            f"{len(self.wall['round'])} rounds; wall-clock: set-up median "
            f"{statistics.median(self.wall['setup']):.6g} s, "
            f"{self.done / sum(self.wall['round']):.6g} ops/s; calibration "
            f"median {1e3 * statistics.median(self.cal_s):.4g} ms, reference "
            f"{1e3 * CAL_REF_S:.4g} ms"
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pg = load_program()
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    fails = checks.self_test()
    wl = WORKLOADS[args.workload](pg, args.seed)

    if args.trace:
        from layers import per_layer_metrics
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase(wl, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        phases = (traced,)
        fails += traced.fails + wl.final_check(traced.state)
        values = per_layer_metrics(tracer, traced, wl)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json.gz",
                     {"workload": wl.name, "seed": args.seed, "metrics": values})
        wanted = spec["per_layer"]
    else:
        run = Phase(wl, args.seconds, SETUPS)
        phases = (run,)
        values = {
            "setup_s": run.setup_s,
            "ops_per_s": run.ops_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        fails += run.fails + wl.final_check(run.state)
        wanted = spec["end_to_end"]

    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    for ph in phases:
        print(ph.summary(), file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
