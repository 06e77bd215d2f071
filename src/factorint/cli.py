"""Command-line entry point.

Commands: simulate, fit, summarize, detect, compare, test-overlap,
export-surface. ``_COMMANDS`` states the keys each command requires and
reads; ``main`` rejects any other key before it reads an input file or makes
the output directory. A command reads each key's value through
``io.value``, which parses it, or gives its default, by the key's row of
``io.KEYS``; ``--help`` ends with every key (``io.CONFIG_KEYS``). ``fit``
summarises the chains its ``io.DrawsWriter``s return, pooled by
``model.join_draws``. ``summarize``, ``detect`` and ``export-surface`` read
the draws files ``paths.draws`` names, one or more chains of one fit,
through ``io.open_draws``, which reads a field only when asked (detect reads
only the indicators), and pool them by the same join. ``main`` runs
each command inside ``io.landing``: the command writes its artifacts, and
``io.write_manifest`` a ``manifest.json`` of every one of them, into a
staging directory, and they are moved into the output directory together,
the manifest last, only once the command has succeeded. A failed command
leaves the output directory as it was; a killed one can leave its staging
directory ``.factorint.<pid>.tmp`` behind. The manifest records the
configuration the command read, the seed, a checksum per artifact and per
input file read, and the run's wall time and peak resident memory; ``fit``
adds each chain's sweeps, time per sweep block and counts. A
bundle's checksum (draws or truth) is the one its writer or reader took with
its digest, so no command reads a bundle twice to hash it. Every CSV goes
through ``io.write_table``. Failures, argument errors among them, exit 1
with a single line ``ERROR <Code>: <message>`` on stderr. The
FACTORINT_OUTPUT_DIR environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
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
from .model import PosteriorDraws, join_draws, standardize_rows
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
        description="Sparse latent factor models with interaction effects.",
        epilog="configuration keys:" + fio.CONFIG_KEYS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="configuration file (key = value lines)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override mcmc.seed")

    # in place of argparse's usage text and exit 2, so that an argument error
    # is one ERROR line from main, as every other failure is
    def error(message: str):
        raise ConfigError(message)

    parser.error = error
    return parser


def _load_config(args) -> dict[str, str]:
    cfg = fio.read_config(_input_file("--config", args.config)) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    if args.seed is not None:
        cfg["mcmc.seed"] = str(args.seed)
    return cfg


# Files the running command has read, in the order read, for its manifest,
# the sha256 it already took of whole files it read or wrote, and the
# profile of each chain it ran.
_inputs: list[Path] = []
_digests: dict[str, str] = {}
_chains: list[dict] = []


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
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--output-dir: {out!r} is not a directory") from None
    return path


def cmd_simulate(cfg: dict[str, str], out: Path) -> int:
    settings = fio.settings_from_config(cfg)
    data, truth = generate_saddle_dataset(
        m=fio.value(cfg, "simulate.features"),
        n=fio.value(cfg, "simulate.samples"),
        frac_affected=fio.value(cfg, "simulate.frac_affected"),
        noise_scale=fio.value(cfg, "simulate.noise_scale"),
        seed=settings.seed)
    _digests[str(out / "truth.bin")] = fio.write_truth(out / "truth.bin", truth, settings.seed)
    fio.write_data_csv(out / "data.csv", data)
    return settings.seed


def cmd_fit(cfg: dict[str, str], out: Path) -> int:
    path = _input_file("paths.data", fio.value(cfg, "paths.data"))
    data = standardize_rows(fio.read_data_csv(path))
    spec = fio.spec_from_config(cfg, data)
    settings = fio.settings_from_config(cfg)
    require_states(settings.n_chains * settings.retained(spec.family))
    all_draws = []
    for chain in range(settings.n_chains):
        name = "draws.bin" if settings.n_chains == 1 else f"draws_{chain:03d}.bin"
        with fio.DrawsWriter(out / name) as writer:
            all_draws.append(fit_spec(spec, data, settings, chain, writer))
        _digests[str(writer.path)] = all_draws[-1].sha256
        _chains.append(all_draws[-1].profile)
    posterior_summary(*all_draws).write_csv(out / "summary.csv")

    if all_draws[0].mh_accept_counts is not None:
        fio.write_table(out / "acceptance.csv",
                        ["chain", "column", "accepted", "proposed", "rate", "rw_step_final"],
                        ([draws.chain, j, acc, prop, f"{acc / prop if prop else 0.0:.6g}",
                          f"{draws.rw_step_final:.6g}"]
                         for draws in all_draws
                         for j, (acc, prop) in enumerate(draws.mh_accept_counts.tolist())))
    return settings.seed


def _read_draws(cfg: dict[str, str]) -> PosteriorDraws:
    """The chains at ``paths.draws``, joined in the order named; the manifest
    reuses each file's checked digest."""
    chains = []
    for name in fio.value(cfg, "paths.draws"):
        path = _input_file("paths.draws", name)
        chains.append(fio.open_draws(path))
        _digests[str(path)] = chains[-1].sha256
    if not chains:
        raise ConfigError("paths.draws: names no draws file")
    return join_draws(*chains)


def cmd_summarize(cfg: dict[str, str], out: Path) -> int:
    draws = _read_draws(cfg)
    posterior_summary(draws).write_csv(out / "summary.csv")
    return draws.seed


def cmd_detect(cfg: dict[str, str], out: Path) -> int:
    draws = _read_draws(cfg)
    detected = detect_interactions(draws, fio.value(cfg, "detect.threshold"))
    fids = feature_labels(draws)
    fio.write_table(out / "detected.csv", ["feature_id", "probability"],
                    ([fids[i], f"{prob:.10g}"] for i, prob in sorted(detected.items())))
    return draws.seed


def cmd_compare(cfg: dict[str, str], out: Path) -> int:
    settings = fio.settings_from_config(cfg)
    # every spec file is read and key-checked before the data is read
    subs, labels = [], {}  # labels: the file stem of each spec path, which names its rows
    for p in fio.value(cfg, "compare.specs"):
        label = Path(p).stem
        if label in labels:
            raise ConfigError(f"compare.specs: {labels[label]!r} and {p!r} share the file stem "
                              f"{label!r}, which labels a model's row and surface file")
        labels[label] = p
        subs.append(fio.read_config(_input_file("compare.specs", p)))
        fio.check_config_keys(subs[-1], p, (), ("model",))
    if not subs:
        raise ConfigError("compare.specs: names no spec file")
    truth_path = _input_file("paths.truth", fio.value(cfg, "paths.truth"))
    path = _input_file("paths.data", fio.value(cfg, "paths.data"))
    data = standardize_rows(fio.read_data_csv(path))
    specs = [fio.spec_from_config(sub, data) for sub in subs]
    truth, _digests[str(truth_path)] = fio.read_truth(truth_path, *data.values.shape)
    report = compare_models(data, truth, specs, settings, labels=list(labels))
    report.write_csv(out / "comparison.csv")
    for row in report.rows:
        row.surface.write_csv(out / f"surface_{row.label}.csv")
    return settings.seed


def cmd_test_overlap(cfg: dict[str, str], out: Path) -> int:
    settings = fio.settings_from_config(cfg)
    inp = OverlapTestInput(
        population_size=fio.value(cfg, "overlap.population"),
        per_dataset_counts=fio.value(cfg, "overlap.counts"),
        observed_overlap=fio.value(cfg, "overlap.observed"),
        n_replicates=fio.value(cfg, "overlap.replicates"))
    p_value, reps = overlap_permutation_test(inp, seed=settings.seed)
    fio.write_table(out / "overlap.csv",
                    ["p_value", "observed", "replicates", "mean_overlap", "sd_overlap"],
                    [[f"{p_value:.10g}", inp.observed_overlap, inp.n_replicates,
                      f"{reps.mean:.10g}", f"{reps.sd:.10g}"]])
    print(f"p_value={p_value:.10g}")
    return settings.seed


def cmd_export_surface(cfg: dict[str, str], out: Path) -> int:
    draws = _read_draws(cfg)
    feature = fio.feature_index(fio.value(cfg, "surface.feature"), feature_labels(draws),
                                "surface.feature")
    effect = posterior_mean_effects(draws, slice(feature, feature + 1))[0]
    export_surface(effect, posterior_mean_scores(draws)[:2]).write_csv(out / "surface.csv")
    return draws.seed


# command: (function, keys it requires, other keys it reads), each entry a key or
# a section with no dot (such as "model"); compare fits one chain per spec
_COMMANDS = {
    "simulate": (cmd_simulate, (), ("simulate", "mcmc.seed")),
    "fit": (cmd_fit, ("paths.data",), ("model", "mcmc")),
    "summarize": (cmd_summarize, ("paths.draws",), ()),
    "detect": (cmd_detect, ("paths.draws",), ("detect.threshold",)),
    "compare": (cmd_compare, ("paths.data", "paths.truth", "compare.specs"),
                ("mcmc.iters", "mcmc.burn_in", "mcmc.thin", "mcmc.seed", "mcmc.rw_step")),
    "test-overlap": (cmd_test_overlap, ("overlap.population", "overlap.counts",
                                        "overlap.observed"), ("overlap.replicates", "mcmc.seed")),
    "export-surface": (cmd_export_surface, ("surface.feature", "paths.draws"), ()),
}


def main(argv=None) -> int:
    started = time.perf_counter()
    _inputs.clear()
    _digests.clear()
    _chains.clear()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        command, required, reads = _COMMANDS[args.command]
        fio.check_config_keys(cfg, args.command, required, reads)
        out = _output_dir(args)
        with fio.landing(out) as stage:
            seed = command(cfg, stage)
            manifest = fio.write_manifest(stage, args.command, cfg, seed,
                                          wall_s=time.perf_counter() - started,
                                          inputs=_inputs, digests=_digests,
                                          chains=_chains or None)
        for entry in manifest["artifacts"]:
            print(f"wrote {out / entry['path']}")
    except Exception as exc:  # noqa: BLE001 - contract: one parsable line per failure
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
