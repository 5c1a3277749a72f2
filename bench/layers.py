"""Per-layer tracing for the traced benchmark run.

The tracer wraps the package's public functions where their callers look
them up (every ``zcp_paclab`` module attribute bound to the function, or
the class attribute for methods), so nothing under ``src/`` changes.  Each
call records a span ``[name, start, end, parent]`` in memory; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``span`` names the layer metric; ``owner`` and ``attr`` locate the
    function (``attr`` may be ``Class.method``).  ``split_kind`` appends the
    call's divergence kind to the span name, ``count_bytes`` sums the
    returned array's ``nbytes``, and ``refusal`` names an exception class
    whose raises are counted.
    """

    span: str
    owner: str
    attr: str
    split_kind: bool = False
    count_bytes: bool = False
    refusal: str | None = None


_PKG = "zcp_paclab"
GAUSSIAN_KINDS = ("kl", "tv", "zcp", "renyi")

TARGETS = (
    Target(
        "harness.draw_losses", f"{_PKG}.harness", "LearningInstance.draw_losses", count_bytes=True
    ),
    Target("bounds.expected_sample_variance", f"{_PKG}.bounds", "expected_sample_variance"),
    Target("harness.run_coverage", f"{_PKG}.harness", "run_coverage"),
    Target("harness.posterior", f"{_PKG}.harness", "LearningInstance.posterior"),
    Target("distributions.from_log_weights", f"{_PKG}.distributions", "from_log_weights"),
    Target("divergences.kl_discrete", f"{_PKG}.divergences", "kl_discrete"),
    Target("divergences.tv_discrete", f"{_PKG}.divergences", "tv_discrete"),
    Target("divergences.renyi_discrete", f"{_PKG}.divergences", "renyi_discrete"),
    Target("divergences.zcp_discrete", f"{_PKG}.divergences", "zcp_discrete"),
    Target("divergences.little_kl_inverse_upper", f"{_PKG}.divergences", "little_kl_inverse_upper"),
    Target("bounds.little_kl_mean_bound", f"{_PKG}.bounds", "little_kl_mean_bound"),
    Target("bounds.closed_form", f"{_PKG}.bounds", "complexity_term"),
    Target("bounds.closed_form", f"{_PKG}.bounds", "hoeffding_zcp_bound"),
    Target("bounds.closed_form", f"{_PKG}.bounds", "mcallester_baseline"),
    Target("bounds.closed_form", f"{_PKG}.bounds", "empirical_bernstein_bound"),
    Target(
        "divergences.divergence_gaussian",
        f"{_PKG}.divergences",
        "divergence_gaussian",
        split_kind=True,
        refusal="NumericalError",
    ),
    Target("harness.gaussian_instance_check", f"{_PKG}.harness", "gaussian_instance_check"),
    Target("harness.ville_experiment", f"{_PKG}.harness", "ville_experiment"),
    Target("betting.kt_log_wealth", f"{_PKG}.betting", "kt_log_wealth"),
    Target("betting.max_log_wealth", f"{_PKG}.betting", "max_log_wealth"),
    Target("betting.kt_bettor", f"{_PKG}.betting", "kt_bettor"),
    Target("bounds.asymptotics_inequality_check", f"{_PKG}.bounds", "asymptotics_inequality_check"),
    Target("bounds.analytic_inequality_suite", f"{_PKG}.bounds", "analytic_inequality_suite"),
    Target("cli.run", f"{_PKG}.cli", "run"),
)

IMPORT_PACKAGES = ("numpy", "scipy", _PKG)


def span_names(targets=TARGETS) -> list[str]:
    """Every span name the targets can record, in first-seen order."""
    names: list[str] = []
    for target in targets:
        spans = [target.span]
        if target.split_kind:
            spans = [f"{target.span}.{kind}" for kind in GAUSSIAN_KINDS]
        names += [name for name in spans if name not in names]
    return names


def per_layer_units(targets=TARGETS) -> dict[str, str]:
    """Name -> unit of every metric a traced child reports."""
    units: dict[str, str] = {}
    for name in span_names(targets):
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for target in targets:
        if target.count_bytes:
            units[f"{target.span}.bytes"] = "bytes"
        if target.refusal:
            units[f"{target.span}.refusals"] = "count"
    units["cli.output_bytes"] = "bytes"
    for package in IMPORT_PACKAGES:
        units[f"setup.import.{package}_s"] = "s"
    return units


class Tracer:
    """Records nested call spans and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            name = target.span
            if target.split_kind:
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                name = f"{name}.{getattr(kind, 'value', kind)}"
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == target.refusal:
                    self.counts[f"{target.span}.refusals"] += 1
                raise
            finally:
                self._open.pop()
                self.spans[index][2] = self.clock()
            if target.count_bytes:
                self.counts[f"{target.span}.bytes"] += result.nbytes
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; returns the targets that could not be found.

        A missing target is not an error: a later version may drop the
        function, and its metrics then read 0.
        """
        missing = []
        for target in targets:
            owner_name, _, attr = target.attr.rpartition(".")
            try:
                owner = importlib.import_module(target.owner)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapper = self.wrap(target, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            package = target.owner.split(".")[0]
            for module_name, module in list(sys.modules.items()):
                if module_name != package and not module_name.startswith(package + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    def metrics(self, targets=TARGETS) -> dict[str, float]:
        """Self time and call count per span name, plus the counters.

        Every span name of ``targets`` is present, with 0 for layers that
        were never called.
        """
        out: dict[str, float] = {}
        for name in span_names(targets):
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for name, (self_s, calls) in self_times(self.spans).items():
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        for target in targets:
            if target.count_bytes:
                out[f"{target.span}.bytes"] = self.counts[f"{target.span}.bytes"]
            if target.refusal:
                out[f"{target.span}.refusals"] = self.counts[f"{target.span}.refusals"]
        return out


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Name -> (summed self time, call count) over closed spans.

    A span's self time is its duration minus its direct children's
    durations; calls in one thread nest, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for (name, start, end, _), child_s in zip(spans, covered):
        self_s, calls = out.get(name, (0.0, 0))
        out[name] = (self_s + max(end - start - child_s, 0.0), calls + 1)
    return out


def import_seconds(importtime_text: str, packages=IMPORT_PACKAGES) -> dict[str, float]:
    """Seconds spent importing each package, from ``-X importtime`` output.

    Each module's self time goes to the nearest tracked package among the
    module and the modules that imported it, so a package's figure
    includes the standard-library modules it pulled in, and the numbers
    for nested tracked packages are not counted twice.
    """
    entries = []
    for line in importtime_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(fields[0])))
    totals = dict.fromkeys(packages, 0.0)
    stack: list[tuple[int, str | None]] = []
    # the listing is post-order; reversed, parents precede their imports
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = next((p for p in packages if name == p or name.startswith(p + ".")), None)
        if owner is None and stack:
            owner = stack[-1][1]
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] += self_us * 1e-6
    return totals
