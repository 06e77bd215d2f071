"""The benchmark's metric tables and the per-layer metrics computed from traces.

End-to-end metrics come from untraced passes. Per-layer metrics come from
traced commands; a ``<layer>.<function>_ms`` metric is the mean inclusive
time per call of that traced function, ``*_calls_per_sweep`` divides call
counts by the sampler sweeps traced, and per-pass counts divide by the
traced passes. A layer that does no work on a workload reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from spans import NameTotals, Span, layer_of, median, totals_by_name

LAYERS = ("cli", "simulate", "io", "model", "mult", "gp", "kernels", "genomics")

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better
PER_LAYER = (
    ("gp.sweep_ms", "ms", "lower"),
    ("gp.score_columns_ms", "ms", "lower"),
    ("gp.score_columns_accept_rate", "ratio", "higher"),
    ("gp.effect_rows_ms", "ms", "lower"),
    ("gp.active_rows", "count", "lower"),
    ("kernels.se_kernel_calls_per_sweep", "count", "lower"),
    ("kernels.se_kernel_ms", "ms", "lower"),
    ("kernels.logdens_calls_per_sweep", "count", "lower"),
    ("kernels.logdens_ms", "ms", "lower"),
    ("kernels.eigensystem_ms", "ms", "lower"),
    ("kernels.marginal_ratio_rows_ms", "ms", "lower"),
    ("kernels.jitter_escalated_frac", "ratio", "lower"),
    ("kernels.cholesky_failures", "count", "lower"),
    ("mult.update_loadings_ms", "ms", "lower"),
    ("mult.update_noise_ms", "ms", "lower"),
    ("mult.inclusion_probs_ms", "ms", "lower"),
    ("mult.residual_matrix_calls_per_sweep", "count", "lower"),
    ("mult.residual_matrix_ms", "ms", "lower"),
    ("model.state_copy_ms", "ms", "lower"),
    ("model.draws_stack_calls", "count", "lower"),
    ("model.draws_stack_ms", "ms", "lower"),
    ("io.write_data_csv_ms", "ms", "lower"),
    ("io.read_data_csv_ms", "ms", "lower"),
    ("io.persist_draws_ms", "ms", "lower"),
    ("io.load_draws_ms", "ms", "lower"),
    ("io.draws_bytes", "B", "lower"),
    ("io.write_manifest_ms", "ms", "lower"),
    ("genomics.posterior_summary_ms", "ms", "lower"),
    ("genomics.summary_rows", "count", "higher"),
    ("genomics.detect_interactions_ms", "ms", "lower"),
    ("genomics.overlap_test_ms", "ms", "lower"),
    ("genomics.overlap_replicates_per_s", "1/s", "higher"),
    ("simulate.generate_saddle_dataset_ms", "ms", "lower"),
    ("simulate.posterior_mean_effects_ms", "ms", "lower"),
    ("simulate.export_surface_ms", "ms", "lower"),
    ("cli.startup_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.main_named_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# (metric, traced span) for the mean-time-per-call metrics
MEAN_MS = (
    ("gp.sweep_ms", "gp.GpChain.sweep"),
    ("gp.score_columns_ms", "gp.GpChain.update_score_columns"),
    ("gp.effect_rows_ms", "gp.update_effect_rows"),
    ("kernels.se_kernel_ms", "kernels.se_kernel"),
    ("kernels.logdens_ms", "kernels.KernelMatrix.logdens"),
    ("kernels.eigensystem_ms", "kernels.KernelMatrix.eigensystem"),
    ("kernels.marginal_ratio_rows_ms", "kernels.marginal_ratio_rows"),
    ("mult.update_loadings_ms", "mult.update_loadings"),
    ("mult.update_noise_ms", "mult.update_noise"),
    ("mult.inclusion_probs_ms", "mult.sample_inclusion_probs"),
    ("mult.residual_matrix_ms", "mult.residual_matrix"),
    ("model.state_copy_ms", "model.McmcState.copy"),
    ("model.draws_stack_ms", "model.PosteriorDraws.stack"),
    ("io.write_data_csv_ms", "io.write_data_csv"),
    ("io.read_data_csv_ms", "io.read_data_csv"),
    ("io.persist_draws_ms", "io.persist_draws"),
    ("io.load_draws_ms", "io.load_draws"),
    ("io.write_manifest_ms", "io.write_manifest"),
    ("genomics.posterior_summary_ms", "genomics.posterior_summary"),
    ("genomics.detect_interactions_ms", "genomics.detect_interactions"),
    ("genomics.overlap_test_ms", "genomics.overlap_permutation_test"),
    ("simulate.generate_saddle_dataset_ms", "simulate.generate_saddle_dataset"),
    ("simulate.posterior_mean_effects_ms", "simulate.posterior_mean_effects"),
    ("simulate.export_surface_ms", "simulate.export_surface"),
)


@dataclass
class TracedCommand:
    """One command run under the tracer, with a ``cli.startup`` root span
    from process launch until ``import factorint.cli`` returned."""

    role: str                  # "setup", "main" or "post"
    wall_s: float
    spans: list[Span]
    counters: dict[str, float] = field(default_factory=dict)
    span_cost_s: float = 0.0   # what one traced call adds, timed on a no-op

    @classmethod
    def from_dump(cls, role: str, wall_s: float, launched: float, dump: dict) -> "TracedCommand":
        names = dump["names"]
        spans = [Span("cli.startup", launched, dump["t_imported"], None)]
        spans += [Span(names[n], start, end, None if parent < 0 else parent + 1)
                  for n, start, end, parent in dump["spans"]]
        return cls(role, wall_s, spans, dump["counters"], dump.get("span_cost_s", 0.0))

    @property
    def startup_s(self) -> float:
        return self.spans[0].end - self.spans[0].start


def _merge(totals: list[dict[str, NameTotals]]) -> dict[str, NameTotals]:
    out: dict[str, NameTotals] = {}
    for part in totals:
        for name, t in part.items():
            acc = out.setdefault(name, NameTotals())
            acc.calls += t.calls
            acc.total_s += t.total_s
            acc.self_s += t.self_s
    return out


def layer_self_s(cmd: TracedCommand) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in totals_by_name(cmd.spans).items():
        out[layer_of(name)] += t.self_s
    return out


def estimated_overhead(commands: list[TracedCommand]) -> float:
    """Traced wall time of the pass commands against the same time less what
    their spans cost (span count times the timed cost of one traced call)."""
    in_pass = [c for c in commands if c.role != "setup"]
    wall = sum(c.wall_s for c in in_pass)
    cost = sum((len(c.spans) - 1) * c.span_cost_s for c in in_pass)
    return wall / (wall - cost) if 0.0 < cost < wall else 1.0


def per_layer(commands: list[TracedCommand], n_passes: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from the traced commands of ``n_passes`` passes
    (plus any traced set-up command)."""
    totals = _merge([totals_by_name(c.spans) for c in commands])
    counters: dict[str, float] = {}
    for c in commands:
        for key, value in c.counters.items():
            counters[key] = counters.get(key, 0) + value

    def calls(span: str) -> int:
        return totals[span].calls if span in totals else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sweeps = calls("gp.GpChain.sweep") + calls("mult.MultChain.sweep")
    out = {metric: ratio(1000.0 * totals[span].total_s, totals[span].calls)
           if span in totals else 0.0 for metric, span in MEAN_MS}
    out.update({
        "gp.score_columns_accept_rate": ratio(counters.get("gp.score_columns.accepted", 0),
                                              counters.get("gp.score_columns.proposed", 0)),
        "gp.active_rows": ratio(counters.get("gp.active_rows", 0),
                                calls("gp.update_effect_rows") + calls("gp.update_shared_effect")),
        "kernels.se_kernel_calls_per_sweep": ratio(calls("kernels.se_kernel"), sweeps),
        "kernels.logdens_calls_per_sweep": ratio(calls("kernels.KernelMatrix.logdens"), sweeps),
        "kernels.jitter_escalated_frac": ratio(counters.get("kernels.jitter_escalated", 0),
                                               counters.get("kernels.se_kernel.returned", 0)),
        "kernels.cholesky_failures": ratio(
            counters.get("kernels.se_kernel.raised.CholeskyFailure", 0), n_passes),
        "mult.residual_matrix_calls_per_sweep": ratio(calls("mult.residual_matrix"), sweeps),
        "model.draws_stack_calls": ratio(calls("model.PosteriorDraws.stack"), n_passes),
        "io.draws_bytes": ratio(counters.get("io.draws_bytes", 0), n_passes),
        "genomics.summary_rows": ratio(counters.get("genomics.summary_rows", 0), n_passes),
        "genomics.overlap_replicates_per_s": ratio(
            counters.get("genomics.overlap_replicates", 0),
            totals["genomics.overlap_permutation_test"].total_s
            if "genomics.overlap_permutation_test" in totals else 0.0),
        "cli.startup_s": median([c.startup_s for c in commands]) if commands else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    })

    in_pass = [c for c in commands if c.role != "setup"]
    own = dict.fromkeys(LAYERS, 0.0)
    named = main_wall = 0.0
    for c in in_pass:
        parts = layer_self_s(c)
        for layer, seconds in parts.items():
            own[layer] += seconds
        if c.role == "main":
            named += sum(s for layer, s in parts.items() if layer != "cli")
            main_wall += c.wall_s
    out.update({f"{layer}.self_s": ratio(own[layer], n_passes) for layer in LAYERS})
    out["trace.main_named_share"] = ratio(named, main_wall)
    return out


def main_shares(commands: list[TracedCommand]) -> dict[str, float]:
    """Share of the main commands' wall time spent in each layer's own code."""
    own = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    for c in commands:
        if c.role == "main":
            wall += c.wall_s
            for layer, seconds in layer_self_s(c).items():
                own[layer] += seconds
    return {layer: (s / wall if wall else 0.0) for layer, s in own.items()}
