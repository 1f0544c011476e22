"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload frame --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
The workload runs as a closed loop with one caller: each operation
starts when the previous one has returned and been checked. Set-up
runs several times and its median is reported. Every op and set-up
time is rescaled to the reference machine speed with the calibration
loop of ``calibrate.py``, run around each timed interval; the wall
times are kept in the ``info`` line. With ``--trace 1``
every second operation records spans, the per-layer metrics come from
those, and the other operations give the untraced reference for
``trace.overhead_frac``.

Standard output: one ``info`` line of JSON (environment, constants,
counters, digests), one ``metric`` line per metric with its unit, and
last a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The metric names and units are those of BENCHMARK.json.
Exits 2 without a result when the library or its files are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_OPS = {False: 3, True: 4}  # the traced run needs two ops of each kind
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="small: the reduced sizes selftest.py uses")
    return p.parse_args(argv)


def _cap_blas_threads(nproc: int) -> None:
    # must run before numpy is imported
    for var in _BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pinned = json.loads((HERE / "pinned.json").read_text())
        sys.path.insert(0, str(ROOT / "src"))
        import fuse3d
        if Path(fuse3d.__file__).resolve().parent.parent != (ROOT / "src").resolve():
            raise ImportError(f"fuse3d imported from {fuse3d.__file__}, not src/")
        import numpy as np
        from calibrate import ReferenceClock
        from tracing import NullTracer, Tracer
        from workloads import WORKLOADS
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    consts = pinned["workloads"][args.workload]
    camera = pinned["camera"]
    pinned_digests = None
    if args.seed == pinned["default_seed"]:
        pinned_digests = pinned["digests"].get(args.workload, {}).get(args.scale)
    null = NullTracer()
    tracer = Tracer() if args.trace else None
    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    cal = pinned["calibration"][args.workload]
    clock = ReferenceClock(cal["kernels"], cal["repeats"], cal["reference_s"])
    try:
        # set-up: generate the scene, write the files, warm up with one
        # reduced-size operation
        setup_s, setup_wall_s = [], []
        for k in range(SETUP_REPEATS):
            if tracer:
                tracer.op_id = f"setup{k}"
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](consts[args.scale], camera, args.seed,
                                          workdir, tracer or null)
            warm = WORKLOADS[args.workload](consts["small"], camera, args.seed,
                                            workdir / "warm", null)
            warm.check(warm.op(null))
            setup_wall_s.append(time.perf_counter() - t0)
            setup_s.append(clock.rescale(setup_wall_s[-1]))

        ops = []  # (reference seconds, traced, ok)
        op_wall_s = []
        failures = []
        counters = {}
        first_digests = None
        start = time.perf_counter()
        i = 0
        while i < MIN_OPS[bool(args.trace)] or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            t = tracer if traced else null
            if traced:
                tracer.op_id = i
            out = None
            t0 = time.perf_counter()
            try:
                with t.span("op"):
                    out = wl.op(t)
            except Exception as exc:  # a raising op is a failed op, not a crash
                msgs, digests = [f"raised {type(exc).__name__}: {exc}"], None
            op_wall_s.append(time.perf_counter() - t0)
            # calibrate right after the op, before its checks
            dt = clock.rescale(op_wall_s[-1])
            if out is not None:
                try:
                    msgs, counters, digests = wl.check(out)
                except Exception as exc:
                    msgs, digests = [f"check raised {type(exc).__name__}: {exc}"], None
                del out  # keeps this op's outputs out of the next op's peak RSS
            if digests is not None:
                first_digests = first_digests or digests
                if digests != first_digests:
                    msgs.append("digests differ from the first op of the run")
                if pinned_digests is not None and digests != pinned_digests:
                    msgs.append(f"digests {digests} differ from pinned {pinned_digests}")
            ops.append((dt, traced, not msgs))
            if msgs:
                failures.append({"op": i, "messages": msgs})
                print(f"perfbench: op {i} failed: {msgs}", file=sys.stderr)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [dt for dt, traced, _ in ops if not traced]
    completed = sum(1 for _, traced, ok in ops if ok and not traced)
    values = {
        "op_s.p50": statistics.median(untraced),
        "ops_per_s": completed / sum(untraced),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    trace_file = None
    if tracer:
        layer_ms = tracer.median_self_ms()
        traced_p50 = statistics.median([dt for dt, traced, _ in ops if traced])
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "op.unattributed_ms":
                values[name] = layer_ms["op"]
            elif name == "trace.overhead_frac":
                values[name] = traced_p50 / values["op_s.p50"] - 1.0
            elif name.endswith(".ms"):
                # a layer this workload does not call reads 0
                values[name] = layer_ms.get(name[:-3], 0.0)
            else:
                values[name] = counters.get(name, 0)
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)

    failed = len(failures)
    if pinned_digests is None:
        digest_state = "not pinned for this seed and scale"
    else:
        digest_state = "match" if first_digests == pinned_digests else "mismatch"
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(np),
            "blas_threads": {var: os.environ[var] for var in _BLAS_VARS},
            "nproc": nproc,
            "git_revision": _git_revision(),
            "platform": platform.platform(),
        },
        "constants": {"camera": camera, **consts[args.scale]},
        "ops": {"attempted": len(ops), "untraced": len(untraced),
                "traced": len(ops) - len(untraced)},
        "op_s": [dt for dt, _, _ in ops],
        "op_wall_s": op_wall_s,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "calibration_s": clock.cal_s,
        "calibration": cal,
        "counters": counters,
        "digests": first_digests,
        "digests_pinned": digest_state,
        "failures": failures,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print("info " + json.dumps(info, sort_keys=True))
    shown = spec["end_to_end"] + (spec["per_layer"] if tracer else [])
    for m in shown:
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"metric failed_frac = {failed / len(ops)!r} frac"
          f" ({failed} of {len(ops)} ops)")
    reported = spec["per_layer"] if tracer else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
