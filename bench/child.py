"""One benchmark child interpreter.

Usage: python3 child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import the CLI, time the calibration kernel and stop),
``warmup`` (run the workload's first invocation, untimed), ``pass`` (time
the calibration kernel, then one timed pass of the workload's argv list
with the kernel timed again between its segments and at its end) or
``trace`` (the pass alone with every layer wrapped; spans are written to
SPANS_PATH at exit when it is given).
The report is one JSON line on stdout.  ``ready`` is CLOCK_MONOTONIC
after ``zcp_paclab.cli`` is imported, so the parent, which notes the
same clock before starting the child, can take setup time from it.
"""

import time

import zcp_paclab.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (imported after the setup timestamp)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Least pass time between two timings of the calibration kernel.
SEGMENT_S = 0.2


def run_pass(invocations, kernel_s=None):
    """Run each invocation once, in order.

    Returns (code, stdout, stderr, seconds) per invocation; code is None
    when the call raised.  Given ``kernel_s``, the calibration kernel's time
    just before the pass, the kernel is timed again, outside the invocations'
    times, whenever ``SEGMENT_S`` of pass time has run since it was last
    timed, and after the last invocation; the pass segments between two
    timings come back as [seconds, kernel before, kernel after].
    """
    outcomes, segments = [], []
    segment_s = 0.0
    for number, invocation in enumerate(invocations, 1):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(invocation.argv))
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        outcomes.append((code, out.getvalue(), err.getvalue(), seconds))
        segment_s += seconds
        if kernel_s is not None and (segment_s >= SEGMENT_S or number == len(invocations)):
            after = calibration.median_seconds()
            segments.append([segment_s, kernel_s, after])
            kernel_s, segment_s = after, 0.0
    return outcomes, segments


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    report = {"ready": READY}
    if mode in ("setup", "pass"):
        # the host's speed right after set-up, to rescale set-up and pass by
        report["setup_kernel_s"] = calibration.median_seconds()
    if mode != "setup":
        invocations = workloads.invocations(workload, seed)
        if mode == "warmup":
            invocations = invocations[:1]
        tracer = None
        if mode == "trace":
            tracer = layers.Tracer()
            report["missing"] = tracer.install()
        outcomes, report["segments"] = run_pass(invocations, report.get("setup_kernel_s"))
        problems = []
        for invocation, (code, text, err, _) in zip(invocations, outcomes):
            problem = "uncaught exception" if code is None else invocation.check(code, text)
            if problem is not None:
                problems.append(f"{' '.join(invocation.argv)}: {problem}; stderr: {err[-500:]}")
        report.update(
            invocation_s=[seconds for *_, seconds in outcomes],
            attempted=len(invocations),
            problems=problems,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        )
        if tracer is not None:
            report["layers"] = tracer.metrics()
            report["layers"]["cli.output_bytes"] = sum(len(o[1].encode()) for o in outcomes)
            if len(sys.argv) > 4:
                with open(sys.argv[4], "w") as handle:
                    for span in tracer.spans:
                        handle.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
