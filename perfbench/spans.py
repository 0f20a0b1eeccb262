"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public functions of each ``qht`` layer from the
outside: it rebinds every name in every ``qht.*`` module namespace that
holds the original function, because ``finite_n``, ``checks`` and ``cli``
import by name.  Spans (id, parent, op id, name, start, end) stay in memory
and are written out once the traced pass ends.  A layer's self time is its
span's duration minus the time covered by its wrapped children.

While ``tracemalloc`` is tracing, each span also records the peak traced
allocation above its starting level, children included.
"""

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

CHECKS = (
    "check_pinching_commutation",
    "check_pinching_trace_identity",
    "check_key_inequality",
    "check_type_counting",
    "check_operator_monotonicity",
    "check_spectral_roundtrip",
    "check_operator_convexity",
    "check_exponent_order",
    "check_phi_bar_shape",
    "check_derivatives",
    "check_rate_consistency",
    "check_commuting_reduction",
    "check_unitary_invariance",
    "check_finite_n_bounds",
    "check_test_structure",
    "check_commuting_tests_coincide",
    "check_error_monotonicity",
)

# Functions timed with calls and self time, by layer.
TIMED = {
    "operators": (
        "eigendecompose",
        "pinch",
        "tensor_power",
        "key_inequality_residual",
        "positive_projection",
        "matrix_power",
        "check_hermitian",
    ),
    "exponents": (
        "psi_bar_values",
        "psi_values",
        "psi_bar",
        "psi",
        "phi_bar",
        "phi",
        "solve_rate_parameter",
        "hoeffding_rate",
        "classical_hoeffding",
        "psi_derivatives",
    ),
    "finite_n": (
        "build_pinched_test",
        "build_plain_test",
        "error_probabilities",
        "verify_bounds",
        "conjecture_probe",
    ),
}

ALLOC_LAYERS = ("operators", "exponents", "finite_n")

MIB = float(1 << 20)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in TIMED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["operators.eigendecompose.max_dim"] = "count"
    units["operators.eigendecompose.projector_mb_max"] = "MiB"
    units["exponents.psi_bar_values.points"] = "count"
    units["exponents.solve_rate_parameter.phi_bar_per_call"] = "calls/call"
    units["finite_n.max_D"] = "count"
    units["finite_n.max_v_sigma_n"] = "count"
    units["finite_n.test_operator_mb_max"] = "MiB"
    for name in CHECKS:
        units[f"checks.{name}.self_s"] = "s"
    units["serialization.load_pair.self_s"] = "s"
    units["serialization.write.self_s"] = "s"
    units["serialization.bytes_out"] = "B"
    units["pairs.random_pair.calls"] = "count"
    units["pairs.random_pair.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    for layer in ALLOC_LAYERS:
        units[f"{layer}.peak_alloc_mb"] = "MiB"
    units["process.cpu_s"] = "s"
    units["process.tracing_overhead_s"] = "s"
    return units


def _observe_eigendecompose(stats, result):
    stats["operators.eigendecompose.max_dim"] = max(
        stats["operators.eigendecompose.max_dim"], result.projections.shape[1]
    )
    stats["operators.eigendecompose.projector_mb_max"] = max(
        stats["operators.eigendecompose.projector_mb_max"], result.projections.nbytes / MIB
    )


def _observe_psi_bar_values(stats, result):
    stats["exponents.psi_bar_values.points"] += len(result)


def _observe_test(stats, result):
    stats["finite_n.max_D"] = max(stats["finite_n.max_D"], result.dim)
    stats["finite_n.test_operator_mb_max"] = max(
        stats["finite_n.test_operator_mb_max"], result.operator.nbytes / MIB
    )


def _observe_reports(stats, result):
    for report in result:
        stats["finite_n.max_v_sigma_n"] = max(stats["finite_n.max_v_sigma_n"], report.v_sigma_n)


def _observe_writer(stats, result):
    stats["serialization.bytes_out"] += len(result.encode("utf-8"))


OBSERVERS = {
    "operators.eigendecompose": _observe_eigendecompose,
    "exponents.psi_bar_values": _observe_psi_bar_values,
    "finite_n.build_pinched_test": _observe_test,
    "finite_n.build_plain_test": _observe_test,
    "finite_n.verify_bounds": _observe_reports,
    "serialization.write": _observe_writer,
}


class SpanRecorder:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end, alloc_bytes)
        self.stats = defaultdict(float)
        self.op = -1
        self.missing = []
        self._next_id = 0
        self._open = []  # [span id, traced bytes at entry, peak traced bytes]
        self._restore = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = tracemalloc.is_tracing()
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            if alloc:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent[2] = max(parent[2], peak)
                tracemalloc.reset_peak()
            else:
                current = 0
            frame = [span_id, current, current]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                grown = 0
                if alloc:
                    frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                    grown = frame[2] - frame[1]
                    tracemalloc.reset_peak()
                    if parent is not None:
                        parent[2] = max(parent[2], frame[2])
                self.spans.append(
                    (span_id, None if parent is None else parent[0], self.op, name, start, end, grown)
                )
            if observe is not None:
                observe(self.stats, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function in every qht module that holds it."""
        import qht.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "qht" or n.startswith("qht.")]
        targets = [(layer, name, name) for layer, names in TIMED.items() for name in names]
        targets += [("checks", name, name) for name in CHECKS]
        targets += [("serialization", "load_pair", "load_pair"), ("pairs", "random_pair", "random_pair")]
        targets += [("cli", "main", "main")]
        serialization = sys.modules["qht.serialization"]
        writers = [name for name in vars(serialization) if name.endswith(("_to_csv", "_to_json"))]
        targets += [("serialization", name, "write") for name in writers]
        for layer, attr, label in targets:
            original = getattr(sys.modules[f"qht.{layer}"], attr, None)
            if not callable(original):
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}.{label}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,op,name,start_s,end_s,alloc_bytes\n")
            for span_id, parent, op, name, start, end, grown in self.spans:
                parent = "" if parent is None else parent
                fh.write(f"{span_id},{parent},{op},{name},{start!r},{end!r},{grown}\n")

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {s[0]: (s[5] - s[4]) - child[s[0]] for s in self.spans}

    def metrics(self, cpu_s: float, overhead_s: float) -> dict[str, float]:
        values = {name: 0.0 for name in metric_units()}
        values.update(self.stats)
        own = self.self_times()
        for span_id, _, _, name, _, _, grown in self.spans:
            values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + own[span_id]
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0.0) + 1
        # phi_bar calls made on behalf of the rate solver, per solver call
        by_id = {s[0]: (s[1], s[3]) for s in self.spans}
        solver = "exponents.solve_rate_parameter"
        nested = 0
        for parent, name in by_id.values():
            if name != "exponents.phi_bar":
                continue
            while parent is not None and by_id[parent][1] != solver:
                parent = by_id[parent][0]
            nested += parent is not None
        solves = values[f"{solver}.calls"]
        values[f"{solver}.phi_bar_per_call"] = nested / solves if solves else 0.0
        values["process.cpu_s"] = cpu_s
        values["process.tracing_overhead_s"] = overhead_s
        return {name: values[name] for name in metric_units()}

    def peak_allocs(self) -> dict[str, float]:
        """Largest allocation peak of any span of each layer, in MiB."""
        peaks = {f"{layer}.peak_alloc_mb": 0.0 for layer in ALLOC_LAYERS}
        for _, _, _, name, _, _, grown in self.spans:
            key = f"{name.split('.')[0]}.peak_alloc_mb"
            if key in peaks:
                peaks[key] = max(peaks[key], grown / MIB)
        return peaks

    def layer_shares(self, wall_s: float) -> dict[str, float]:
        """Self time per layer as a share of the traced pass's wall time."""
        own = self.self_times()
        shares = defaultdict(float)
        for span_id, _, _, name, _, _, _ in self.spans:
            shares[name.split(".")[0]] += own[span_id] / wall_s
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
