"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload at ``--scale small`` for one second, untraced and
traced, with the default seed, and checks that:

- the last line is the result object with the four contract keys,
  ``correct`` is true and no op failed (``failed_frac`` is 0);
- every metric of BENCHMARK.json is printed on a ``metric`` line and in
  the result, with its unit;
- the digests match the ones pinned for the small sizes;
- a calibration ran before the first and after every timed interval;
- each layer a workload calls reports time, and the sampling layer
  reports none on ``proposals``;
- in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layer timings each workload must report as non-zero
CALLED = {
    "frame": ["kitti_io.ms", "geometry.crop.ms", "geometry.gather.ms",
              "fusion.forward.ms", "sampling.L0.ms", "sampling.L1.ms",
              "sampling.L2.ms", "sampling.L3.ms", "roi.select.ms",
              "roi.pool.ms", "scene.ms"],
    "proposals": ["roi.select.ms", "roi.pool.ms", "losses.ms", "scene.ms"],
    "study": ["sampling.sweep.ms", "sampling.aad.ms", "fusion.gradcheck.ms",
              "scene.ms"],
}
NOT_CALLED = {"proposals": ["sampling.L0.ms", "sampling.sweep.ms",
                            "sampling.aad.ms"]}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check_run(workload, trace, spec) -> list[str]:
    where = f"{workload} trace={trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}: {proc.stderr[-500:]}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.split()
    if printed.get("failed_frac", [None])[:2] != ["0.0", "frac"]:
        problems.append(f"{where}: failed_frac line {printed.get('failed_frac')}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json")
    for m in expected + spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        if printed.get(name, [None, None])[1] != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} in result as {got}")
    info = json.loads(lines[0][len("info "):])
    if info["digests_pinned"] != "match":
        problems.append(f"{where}: digests {info['digests']} {info['digests_pinned']}")
    # one calibration before the first timed interval and one after each
    timed = len(info["setup_s"]) + len(info["op_s"])
    if len(info["calibration_s"]) != timed + 1 or len(info["op_wall_s"]) != len(info["op_s"]):
        problems.append(f"{where}: {len(info['calibration_s'])} calibrations "
                        f"for {timed} timed intervals")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        problems += [f"{where}: {name} is 0" for name in CALLED[workload]
                     if not values[name] > 0]
        problems += [f"{where}: {name} is not 0" for name in
                     NOT_CALLED.get(workload, []) if values[name] != 0]
    return problems


def _check_bare_directory() -> list[str]:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "frame", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in CALLED:
        for trace in (0, 1):
            problems += _check_run(workload, trace, spec)
    problems += _check_bare_directory()
    for p in problems:
        print("selftest:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
