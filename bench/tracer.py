"""Run one factorint CLI command with spans around the package's public calls.

    python tracer.py SPANS_JSON [factorint arguments ...]

The command goes through ``factorint.cli.main`` in this interpreter. Nothing
numeric is imported before ``factorint.cli``, so any start-up settings the
CLI makes still apply. Each wrapped function is replaced under every name a
package module holds it by (``gp`` imports ``se_kernel`` and the shared
``mult`` blocks by name); methods are wrapped on their class. Spans stay in
memory and are written to SPANS_JSON when the command returns.
"""

import functools
import json
import os
import sys
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, so comparable across processes

FUNCTIONS = {
    "simulate": ("generate_saddle_dataset", "posterior_mean_effects", "export_surface",
                 "fit_spec"),
    "io": ("write_data_csv", "read_data_csv", "write_bundle", "read_bundle",
           "persist_draws", "load_draws", "write_manifest"),
    "model": ("standardize_rows",),
    "mult": ("run_mult_chain", "update_loadings", "update_scores", "update_inter_loadings",
             "update_noise", "sample_inclusion_probs", "residual_matrix"),
    "gp": ("run_gp_chain", "update_effect_rows", "update_shared_effect",
           "column_delta_log_joint"),
    "kernels": ("se_kernel", "marginal_ratio_rows"),
    "genomics": ("posterior_summary", "detect_interactions", "overlap_permutation_test"),
}
METHODS = {
    "model": ("McmcState.copy", "PosteriorDraws.stack"),
    "mult": ("MultChain.sweep",),
    "gp": ("GpChain.sweep", "GpChain.update_score_columns"),
    "kernels": ("KernelMatrix.logdens", "KernelMatrix.eigensystem"),
}


class Recorder:
    """Spans as [name id, start, end, parent index or -1], plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def traced(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, **extra}, fh)


def _observers(kernels_module) -> dict:
    jitter_start = kernels_module.JITTER_START

    def kernel_built(rec, args, kernel):
        rec.count("kernels.se_kernel.returned")
        if kernel.jitter > jitter_start * float(kernel.K.trace()) / kernel.K.shape[0]:
            rec.count("kernels.jitter_escalated")

    def columns_moved(rec, args, accepted):
        rec.count("gp.score_columns.accepted", accepted)
        rec.count("gp.score_columns.proposed", args[0].data.n_samples)

    def rows_active(rec, args, _):
        rec.count("gp.active_rows", int(args[0].inter_mask.sum()))

    def draws_written(rec, args, _):
        rec.count("io.draws_bytes", os.path.getsize(args[1]))

    def summarized(rec, args, summary):
        rec.count("genomics.summary_rows", len(summary.rows))

    def overlap_tested(rec, args, _):
        rec.count("genomics.overlap_replicates", args[0].n_replicates)

    return {
        "kernels.se_kernel": kernel_built,
        "gp.GpChain.update_score_columns": columns_moved,
        "gp.update_effect_rows": rows_active,
        "gp.update_shared_effect": rows_active,
        "io.persist_draws": draws_written,
        "genomics.posterior_summary": summarized,
        "genomics.overlap_permutation_test": overlap_tested,
    }


def install(rec: Recorder) -> None:
    """Wrap every target in the already imported factorint modules."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "factorint" or name.startswith("factorint.")}
    observe = _observers(modules["factorint.kernels"])
    for layer, names in FUNCTIONS.items():
        home = modules[f"factorint.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = rec.traced(f"{layer}.{fname}", original, observe.get(f"{layer}.{fname}"))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    for layer, names in METHODS.items():
        home = modules[f"factorint.{layer}"]
        for qualname in names:
            cls_name, method = qualname.split(".")
            cls = getattr(home, cls_name)
            span = f"{layer}.{qualname}"
            setattr(cls, method, rec.traced(span, getattr(cls, method), observe.get(span)))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call of a no-op function."""
    def noop():
        return None

    traced = Recorder().traced("noop", noop)
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[1], argv[2:]
    import factorint.cli as cli

    imported = clock()
    rec = Recorder()
    install(rec)
    try:
        return rec.traced("cli.main", cli.main)(cli_args)
    finally:
        rec.dump(spans_path, t_imported=imported, t_done=clock(), span_cost_s=span_cost())


if __name__ == "__main__":
    sys.exit(main(sys.argv))
