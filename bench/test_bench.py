"""Tests of the benchmark's own code: span arithmetic, wrapping, output checks,
calibration.

Run with: python3 -m pytest bench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import calibration
import layers
import run
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_nested_trace():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; a second a [20, 22]
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 2],
        ["a", 20.0, 22.0, -1],
    ]
    assert layers.self_times(spans) == {"a": (5.0, 2), "b": (3.0, 1), "c": (3.0, 1), "d": (1.0, 1)}


def test_tracer_records_parents_bytes_and_refusals():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    class Refused(Exception):
        pass

    Refused.__name__ = "NumericalError"

    def inner(size):
        clock.now += 1.0
        return np.zeros(size)

    def kinds(pair, kind):
        clock.now += 2.0
        if kind == "renyi":
            raise Refused("no")
        return kind

    inner_w = tracer.wrap(layers.Target("x.inner", "m", "inner", count_bytes=True), inner)
    g_target = layers.Target("x.g", "m", "g", split_kind=True, refusal="NumericalError")
    kinds_w = tracer.wrap(g_target, kinds)

    def outer():
        clock.now += 0.5
        inner_w(4)
        kinds_w(None, "tv")
        return np.zeros(1)

    outer_w = tracer.wrap(layers.Target("x.outer", "m", "outer"), outer)
    outer_w()
    with pytest.raises(Refused):
        kinds_w(None, kind="renyi")

    assert [span[3] for span in tracer.spans] == [-1, 0, 0, -1]
    targets = (
        layers.Target("x.outer", "m", "outer"),
        layers.Target("x.inner", "m", "inner", count_bytes=True),
        g_target,
    )
    metrics = tracer.metrics(targets)
    assert metrics["x.outer.self_s"] == 0.5
    assert metrics["x.inner.self_s"] == 1.0
    assert metrics["x.inner.bytes"] == 32
    assert metrics["x.g.tv.calls"] == 1 and metrics["x.g.renyi.calls"] == 1
    assert metrics["x.g.renyi.self_s"] == 2.0
    assert metrics["x.g.refusals"] == 1
    assert metrics["x.g.kl.calls"] == 0 and metrics["x.g.kl.self_s"] == 0.0


def test_install_wraps_every_lookup_and_uncalled_reports_zero(monkeypatch):
    mod = types.ModuleType("fakepkg.mod")

    def used():
        return 1

    def unused():
        return 2

    class Model:
        def method(self):
            return 3

    mod.used, mod.unused, mod.Model = used, unused, Model
    caller = types.ModuleType("fakepkg.caller")
    caller.used_alias = used
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    monkeypatch.setitem(sys.modules, "fakepkg.caller", caller)

    targets = (
        layers.Target("mod.used", "fakepkg.mod", "used"),
        layers.Target("mod.unused", "fakepkg.mod", "unused"),
        layers.Target("mod.method", "fakepkg.mod", "Model.method"),
        layers.Target("mod.gone", "fakepkg.mod", "removed_in_a_later_version"),
    )
    tracer = layers.Tracer()
    assert tracer.install(targets) == ["fakepkg.mod.removed_in_a_later_version"]
    assert caller.used_alias() == 1 and mod.used() == 1
    assert Model().method() == 3
    metrics = tracer.metrics(targets)
    assert metrics["mod.used.calls"] == 2
    assert metrics["mod.method.calls"] == 1
    assert metrics["mod.unused.calls"] == 0 and metrics["mod.unused.self_s"] == 0.0
    assert metrics["mod.gone.calls"] == 0


def test_import_seconds_charges_nested_modules_to_nearest_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     encodings",
            "import time:        50 |         50 |       pickle",
            "import time:        20 |         20 |       numpy.core",
            "import time:      1000 |       1070 |     numpy",
            "import time:        10 |         10 |         zcp_paclab.errors",
            "import time:       300 |        300 |         scipy.special",
            "import time:       200 |        510 |       zcp_paclab.bounds",
            "import time:         5 |        515 |     zcp_paclab",
        ]
    )
    seconds = layers.import_seconds(text)
    assert seconds == pytest.approx({"numpy": 1070e-6, "scipy": 300e-6, "zcp_paclab": 215e-6})


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _coverage_csv(names=workloads.BOUND_NAMES, trials=100, passed="true"):
    lines = ["bound,failures,trials,failure_rate,wilson_upper_99,budget,passed"]
    lines += [f"{name},0,{trials},0,0.05,0.1,{passed}" for name in names]
    lines += ["# summary", "# n=1000", f"# trials={trials}", "# all_passed=true"]
    return "\n".join(lines) + "\n"


def test_coverage_check_accepts_good_output_and_rejects_defects():
    assert workloads.check_coverage(0, _coverage_csv(), trials=100) is None
    assert "exit code 2" in workloads.check_coverage(2, _coverage_csv(), trials=100)
    missing = _coverage_csv(names=workloads.BOUND_NAMES[:3])
    assert "bound rows" in workloads.check_coverage(0, missing, trials=100)
    assert "trials" in workloads.check_coverage(0, _coverage_csv(trials=99), trials=100)
    assert "passed=false" in workloads.check_coverage(0, _coverage_csv(passed="false"), trials=100)
    assert "unparsable" in workloads.check_coverage(0, "Traceback ...\n", trials=100)


def _divergence_csv(value, err=1e-12):
    return f"kind,alpha,c,value,abs_error_estimate\nzcp,,1,{value!r},{err!r}\n# summary\n# seed=0\n"


def test_quadrature_check_rejects_perturbed_value_and_large_error():
    key = "divergence --mixture-p 0.2 --exponent 1 --kind zcp --c 1"
    reference = workloads.load_reference()[key]
    value = reference[0]["value"]
    assert workloads.check_quadrature(0, _divergence_csv(value), reference=reference) is None
    perturbed = _divergence_csv(value * (1 + 3e-6))
    assert "reference" in workloads.check_quadrature(0, perturbed, reference=reference)
    loose = _divergence_csv(value, err=1e-5 * value)
    assert "abs_error_estimate" in workloads.check_quadrature(0, loose, reference=reference)
    failed = workloads.check_quadrature(1, _divergence_csv(value), reference=reference)
    assert "exit code 1" in failed


def test_betting_trace_check():
    rows = "\n".join(f"{t},0.5,0,0" for t in range(1, 4))
    text = f"t,c_t,beta_t,ln_w_t\n{rows}\n# summary\n# ln_w_star=0.25\n# quadratic_lower=0.1\n"
    assert workloads.check_betting_trace(0, text, n=3) is None
    assert "trace rows" in workloads.check_betting_trace(0, text, n=4)
    inverted = text.replace("quadratic_lower=0.1", "quadratic_lower=0.3")
    assert "quadratic_lower" in workloads.check_betting_trace(0, inverted, n=3)


def test_every_quadrature_argv_has_a_reference_and_seed_only_reorders():
    reference = workloads.load_reference()
    argvs = workloads.quadrature_argvs()
    assert len(argvs) == 26 and all(" ".join(argv) in reference for argv in argvs)
    shuffled = [inv.argv for inv in workloads.invocations("quadrature", 7)]
    assert sorted(shuffled) == sorted(argvs)


def test_seed_reaches_every_seeded_argv():
    for name in ("coverage-small", "coverage-wide", "betting"):
        for invocation in workloads.invocations(name, 12345):
            assert invocation.argv[-2:] == ("--seed", "12345")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_focus_layers_are_traced_spans():
    spans = set(layers.span_names())
    assert set(workloads.FOCUS) == set(workloads.WORKLOADS)
    assert all(span in spans for focus in workloads.FOCUS.values() for span in focus)


def test_calibration_median_and_rescale(monkeypatch):
    clock = FakeClock()
    durations = iter([9.0, 0.02, 0.01, 0.03, 0.02])  # the first run is untimed

    def fake_kernel():
        clock.now += next(durations)

    monkeypatch.setattr(calibration, "kernel", fake_kernel)
    # runs until at least three runs and 0.05 s of kernel time
    assert calibration.median_seconds(0.05, clock) == pytest.approx(0.02)
    # a pass on a host where the kernel takes twice REFERENCE_S is halved
    assert calibration.at_reference_speed(3.0, 2 * calibration.REFERENCE_S) == pytest.approx(1.5)
    ref = calibration.REFERENCE_S
    # 1 s at the reference speed, then 2 s with the kernel at 2x, then 2x -> 3x
    segments = [[1.0, ref, ref], [2.0, 2 * ref, 2 * ref], [2.5, 2 * ref, 3 * ref]]
    assert calibration.segments_at_reference_speed(segments) == pytest.approx(1.0 + 1.0 + 1.0)
    assert calibration.mean_kernel_s(segments) == pytest.approx((1 + 1 + 2 + 3) * ref / 4)
