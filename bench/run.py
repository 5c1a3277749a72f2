"""zcp-paclab benchmark: runs the CLI over fixed workloads and reports metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]

Every pass of a workload runs in a fresh child interpreter (``child.py``),
one child at a time, with the BLAS thread variables pinned to 1.  A child
imports ``zcp_paclab.cli``, calls ``cli.run(argv)`` for each argv of the
workload in order (a closed loop with one client), and checks every
output.  An untimed warm-up child runs first so the bytecode cache, kept
under ``bench/.pycache``, exists.  Children start until ``--seconds`` is
used up, and at least ``MIN_PASSES`` of each kind.

Each untraced child times a fixed calibration kernel (``calibration.py``)
right after set-up and during its pass.  ``setup_s`` is the median set-up
time rescaled by the first kernel time to a reference host speed, and
``wall_ref_s`` the median pass time rescaled segment by segment the same
way.

``--trace 0`` reports the end-to-end metrics (medians over the children);
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "fraction"}
# per-layer metrics taken from the pass times rather than from the spans
PASS_UNITS = {"wall_s": "s", "calibration_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"}
MIN_PASSES = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    """A child interpreter crashed, timed out or printed no report."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # keeps the bytecode cache out of src/
    env["PYTHONPYCACHEPREFIX"] = str(BENCH / ".pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, spans_path: Path | None = None) -> dict:
    """Start one child, wait for it, and return its report with ``setup_s``."""
    cmd = [sys.executable] + (["-X", "importtime"] if mode == "trace" else [])
    cmd += [str(BENCH / "child.py"), workload, str(seed), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child of {workload} ran over {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{mode} child of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    if mode == "trace":
        for package, seconds in layers.import_seconds(proc.stderr).items():
            report["layers"][f"setup.import.{package}_s"] = seconds
    return report


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric ``--trace 1`` reports."""
    return {**layers.per_layer_units(), **PASS_UNITS}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its metrics, units, counts and samples."""
    run_child(workload, seed, "warmup")
    modes = ["pass", "trace"] if trace else ["pass"]
    reports: dict[str, list[dict]] = {mode: [] for mode in modes}
    spans_path = BENCH / "out" / f"spans-{workload}.jsonl"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    start = time.monotonic()
    durations = []
    while True:
        mode = modes[len(durations) % len(modes)]
        t0 = time.monotonic()
        spans = spans_path if mode == "trace" else None
        reports[mode].append(run_child(workload, seed, mode, spans))
        durations.append(time.monotonic() - t0)
        enough = all(len(r) >= MIN_PASSES for r in reports.values())
        if enough and time.monotonic() - start + statistics.median(durations) > seconds:
            break

    timed = [r for rs in reports.values() for r in rs]
    problems = [p for r in timed for p in r["problems"]]
    attempted = sum(r["attempted"] for r in timed)
    walls = [sum(r["invocation_s"]) for r in reports["pass"]]
    segments = [r["segments"] for r in reports["pass"]]
    kernel_times = list(map(calibration.mean_kernel_s, segments))
    samples = {
        "wall_s": walls,
        "calibration_s": kernel_times,
        "wall_ref_s": list(map(calibration.segments_at_reference_speed, segments)),
        "invocation_s": [r["invocation_s"] for r in reports["pass"]],
        "segments": segments,
    }
    extra = {"wall_s": statistics.median(walls), "calibration_s": statistics.median(kernel_times)}
    if trace:
        traced = reports["trace"]
        samples["trace.wall_s"] = [sum(r["invocation_s"]) for r in traced]
        units = per_layer_units()
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in layers.per_layer_units()
        }
        metrics.update(extra)
        metrics["trace.wall_s"] = statistics.median(samples["trace.wall_s"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
        extra = {}
        missing = sorted({m for r in traced for m in r["missing"]})
    else:
        extra_setups = max(MIN_SETUPS - len(timed), 0)
        set_up = timed + [run_child(workload, seed, "setup") for _ in range(extra_setups)]
        setups = [r["setup_s"] for r in set_up]
        samples["setup_raw_s"] = setups
        samples["setup_kernel_s"] = [r["setup_kernel_s"] for r in set_up]
        samples["setup_s"] = list(
            map(calibration.at_reference_speed, setups, samples["setup_kernel_s"])
        )
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in timed]
        extra["setup_raw_s"] = statistics.median(setups)
        units = END_TO_END
        metrics = {
            "wall_ref_s": statistics.median(samples["wall_ref_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "success_rate": (attempted - len(problems)) / attempted,
        }
        missing = []
    return {
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": {name: {"value": value, "unit": "s"} for name, value in extra.items()},
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "missing_layers": missing,
        "samples": samples,
    }


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def print_table(workload: str, result: dict) -> None:
    for name, metric in {**result["metrics"], **result["extra"]}.items():
        line = f"{workload:<15} {name:<48} {metric['value']:>14.6g} {metric['unit']}"
        values = result["samples"].get(name)
        if values:
            line += f"  (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
        print(line)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if "trace.wall_s" in metrics:
        focus = workloads.FOCUS[workload]
        share = sum(metrics[f"{span}.self_s"] for span in focus) / metrics["trace.wall_s"]
        print(
            f"{workload:<15} {'focus share of trace.wall_s':<48} {share:>14.6g} fraction"
            f"  ({' + '.join(focus)})"
        )
    if "success_rate" in metrics:
        rate = result["failed"] / result["attempted"]
        print(
            f"{workload:<15} {'error_rate':<48} {rate:>14.6g} fraction"
            f"  ({result['failed']} of {result['attempted']} operations failed)"
        )
    for problem in result["problems"][:10]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    if result["missing_layers"]:
        print(f"{workload}: not found, reported as 0: {result['missing_layers']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="also write the full result record here as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zcp_paclab" / "cli.py").is_file():
        print(f"run.py: no zcp_paclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, results[name])
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    meta = run_metadata(args)
    if args.out is not None:
        args.out.write_text(json.dumps({"meta": meta, "results": results}, indent=1) + "\n")
    prefix = len(names) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
