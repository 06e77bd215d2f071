"""Command-line entry point.

Commands: simulate, fit, summarize, detect, compare, test-overlap,
export-surface. ``_COMMANDS`` states the keys each command requires and
reads; ``main`` rejects any other key before it reads an input file or makes
the output directory. ``fit`` summarises the draws its ``io.DrawsWriter``s
return; the other commands read draws through ``io.open_draws``, which reads
a field only when asked (detect reads only the indicators). Every run writes
its artifacts plus a ``manifest.json`` recording the configuration it read,
the seed, a checksum per artifact and per input file read, and the run's wall
time and peak resident memory. A bundle's checksum (draws or truth) is the
one its writer or reader took with its digest, so no command reads a bundle
twice to hash it. Every CSV goes through ``io.write_table``.
Failures exit nonzero with a single line ``ERROR <Code>: <message>`` on
stderr. The FACTORINT_OUTPUT_DIR environment variable sets the default
output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from . import io as fio
from .errors import ConfigError
from .genomics import (
    OverlapTestInput,
    detect_interactions,
    feature_labels,
    overlap_permutation_test,
    posterior_mean_scores,
    posterior_summary,
    require_states,
)
from .model import Family, PosteriorDraws, standardize_rows
from .simulate import (
    compare_models,
    export_surface,
    fit_spec,
    generate_saddle_dataset,
    posterior_mean_effects,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorint",
        description="Sparse latent factor models with interaction effects.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="configuration file (key = value lines)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override mcmc.seed")
    return parser


def _load_config(args) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        cfg.update(fio.read_config(_input_file("--config", args.config)))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    if args.seed is not None:
        cfg["mcmc.seed"] = str(args.seed)
    return cfg


# Files the running command has read, in the order read, for its manifest,
# and the sha256 it already took of whole files it read or wrote.
_inputs: list[Path] = []
_digests: dict[str, str] = {}


def _input_file(key: str, name: str) -> Path:
    """The file ``name``, given as ``key``, which must exist; recorded as
    one of the command's inputs."""
    path = Path(name)
    if not path.is_file():
        raise ConfigError(f"{key}: no such file {str(path)!r}")
    _inputs.append(path)
    return path


def _output_dir(args) -> Path:
    out = args.output_dir or os.environ.get("FACTORINT_OUTPUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    settings = fio.settings_from_config(cfg)
    data, truth = generate_saddle_dataset(
        m=fio.config_int(cfg, "simulate.features", 100),
        n=fio.config_int(cfg, "simulate.samples", 100),
        frac_affected=fio.config_float(cfg, "simulate.frac_affected", 0.1),
        noise_scale=fio.config_positive(cfg, "simulate.noise_scale", 1.0),
        seed=settings.seed)
    # truth.bin is moved into place whole, so it goes first: a failure leaves
    # the earlier pair, or a data.csv that does not read or match truth.bin
    _digests[str(out / "truth.bin")] = fio.write_truth(out / "truth.bin", truth, settings.seed)
    fio.write_data_csv(out / "data.csv", data)
    return settings.seed, ["data.csv", "truth.bin"]


def cmd_fit(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    data = standardize_rows(fio.read_data_csv(_input_file("paths.data", cfg["paths.data"])))
    spec = fio.spec_from_config(cfg, data)
    settings = fio.settings_from_config(cfg)
    require_states(settings.n_chains * settings.retained(spec.family))
    artifacts = (["draws.bin"] if settings.n_chains == 1 else
                 [f"draws_{c:03d}.bin" for c in range(settings.n_chains)])
    # every chain's file is moved into place only once the last chain is done
    with ExitStack() as files:
        writers = [files.enter_context(fio.DrawsWriter(out / name)) for name in artifacts]
        all_draws = [fit_spec(spec, data, settings, chain, writer)
                     for chain, writer in enumerate(writers)]

    _digests.update((str(out / name), draws.sha256) for name, draws in zip(artifacts, all_draws))
    posterior_summary(*all_draws).write_csv(out / "summary.csv")
    artifacts.append("summary.csv")

    if spec.family is Family.GP:
        fio.write_table(out / "acceptance.csv",
                        ["chain", "column", "accepted", "proposed", "rate", "rw_step_final"],
                        ([draws.chain, j, acc, prop, f"{acc / prop if prop else 0.0:.6g}",
                          f"{draws.rw_step_final:.6g}"]
                         for draws in all_draws
                         for j, (acc, prop) in enumerate(draws.mh_accept_counts.tolist())))
        artifacts.append("acceptance.csv")
    return settings.seed, artifacts


def _open_draws(cfg: dict[str, str]) -> PosteriorDraws:
    """The draws at ``paths.draws``, whose checked digest the manifest reuses."""
    path = _input_file("paths.draws", cfg["paths.draws"])
    draws = fio.open_draws(path)
    _digests[str(path)] = draws.sha256
    return draws


def cmd_summarize(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    draws = _open_draws(cfg)
    posterior_summary(draws).write_csv(out / "summary.csv")
    return draws.seed, ["summary.csv"]


def cmd_detect(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    draws = _open_draws(cfg)
    detected = detect_interactions(draws, fio.config_float(cfg, "detect.threshold", 0.5))
    fids = feature_labels(draws)
    fio.write_table(out / "detected.csv", ["feature_id", "probability"],
                    ([fids[i], f"{prob:.10g}"] for i, prob in sorted(detected.items())))
    return draws.seed, ["detected.csv"]


def cmd_compare(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    settings = fio.settings_from_config(cfg)
    # every spec file is read and key-checked before the data is read
    subs, labels = [], {}  # labels: the file stem of each spec path, which names its rows
    for p in (p.strip() for p in cfg["compare.specs"].split(",") if p.strip()):
        label = Path(p).stem
        if label in labels:
            raise ConfigError(f"compare.specs: {labels[label]!r} and {p!r} share the file stem "
                              f"{label!r}, which labels a model's row and surface file")
        labels[label] = p
        subs.append(fio.read_config(_input_file("compare.specs", p)))
        fio.check_config_keys(subs[-1], p, (), ("model",))
    if not subs:
        raise ConfigError("compare.specs: names no spec file")
    truth_path = _input_file("paths.truth", cfg["paths.truth"])
    data = standardize_rows(fio.read_data_csv(_input_file("paths.data", cfg["paths.data"])))
    specs = [fio.spec_from_config(sub, data) for sub in subs]
    truth, _digests[str(truth_path)] = fio.read_truth(truth_path, *data.values.shape)
    report = compare_models(data, truth, specs, settings, labels=list(labels))
    report.write_csv(out / "comparison.csv")
    artifacts = ["comparison.csv"]
    for row in report.rows:
        name = f"surface_{row.label}.csv"
        row.surface.write_csv(out / name)
        artifacts.append(name)
    return settings.seed, artifacts


def cmd_test_overlap(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    settings = fio.settings_from_config(cfg)
    inp = OverlapTestInput(
        population_size=fio.config_int(cfg, "overlap.population"),
        per_dataset_counts=fio.config_ints(cfg, "overlap.counts"),
        observed_overlap=fio.config_int(cfg, "overlap.observed"),
        n_replicates=fio.config_int(cfg, "overlap.replicates", 100_000))
    p_value, reps = overlap_permutation_test(inp, seed=settings.seed)
    fio.write_table(out / "overlap.csv",
                    ["p_value", "observed", "replicates", "mean_overlap", "sd_overlap"],
                    [[f"{p_value:.10g}", inp.observed_overlap, inp.n_replicates,
                      f"{reps.mean:.10g}", f"{reps.sd:.10g}"]])
    print(f"p_value={p_value:.10g}")
    return settings.seed, ["overlap.csv"]


def cmd_export_surface(cfg: dict[str, str], out: Path) -> tuple[int, list[str]]:
    draws = _open_draws(cfg)
    feature = fio.feature_index(cfg["surface.feature"], feature_labels(draws), "surface.feature")
    effect = posterior_mean_effects(draws, slice(feature, feature + 1))[0]
    export_surface(effect, posterior_mean_scores(draws)[:2]).write_csv(out / "surface.csv")
    return draws.seed, ["surface.csv"]


# command: (function, keys it requires, other keys it reads), each entry a key or
# a section with no dot (such as "model"); compare fits one chain per spec
_COMMANDS = {
    "simulate": (cmd_simulate, (), ("simulate", "mcmc.seed")),
    "fit": (cmd_fit, ("paths.data",), ("model", "mcmc")),
    "summarize": (cmd_summarize, ("paths.draws",), ()),
    "detect": (cmd_detect, ("paths.draws",), ("detect.threshold",)),
    "compare": (cmd_compare, ("paths.data", "paths.truth", "compare.specs"),
                ("mcmc.iters", "mcmc.burn_in", "mcmc.thin", "mcmc.seed", "mcmc.rw_step",
                 "mcmc.adapt_rw")),
    "test-overlap": (cmd_test_overlap, ("overlap.population", "overlap.counts",
                                        "overlap.observed"), ("overlap.replicates", "mcmc.seed")),
    "export-surface": (cmd_export_surface, ("surface.feature", "paths.draws"), ()),
}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    _inputs.clear()
    _digests.clear()
    try:
        cfg = _load_config(args)
        command, required, reads = _COMMANDS[args.command]
        fio.check_config_keys(cfg, args.command, required, reads)
        out = _output_dir(args)
        seed, artifacts = command(cfg, out)
        fio.write_manifest(out, args.command, cfg, seed, artifacts,
                           wall_s=time.perf_counter() - started, inputs=_inputs,
                           digests=_digests)
        for name in artifacts:
            print(f"wrote {out / name}")
    except Exception as exc:  # noqa: BLE001 - contract: one parsable line per failure
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
