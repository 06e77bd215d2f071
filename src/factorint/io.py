"""Persistence and configuration.

File formats
------------
CSV tables: ``write_table`` writes every one, in the package's one dialect:
UTF-8, comma-delimited, ``\r\n`` line ends, quotes only where a cell needs them.

Data CSV: first row sample ids (the top-left cell is a label), first column
feature ids, remaining cells real numbers.

Annotation CSV: header ``probe_id,chromosome,position``.

Bundle: the binary container used for draws and synthetic truth. Layout:
8-byte magic ``FIBUNDLE``, little-endian uint32 format version, uint64 header
length, UTF-8 JSON header describing metadata and every array (name, dtype,
shape, byte offset and length relative to the payload), the raw C-order array
payload, and a trailing SHA-256 digest of everything before it. Every bundle,
whether ``write_bundle`` or a ``DrawsWriter`` writes it, goes through the one
writer ``_BundleFile``: it writes under ``.<name>.<pid>.tmp`` beside the
target and moves the file onto the target only once the digest is appended,
so a failed write leaves the earlier file as it was.

Truth bundle: meta ``{"kind": "truth", "seed": <simulate seed>}`` and the
arrays of a ``SyntheticTruth`` on m x n data, in this order: ``loadings``
(m, 2), ``scores`` (2, n), ``effects`` (m, n), ``noise_var`` (m,), and the
feature indices ``affected``, ``seed_group_1`` and ``seed_group_2``.

Configuration: ``key = value`` lines with dotted section prefixes; ``#``
starts a comment. Recognized keys are listed in CONFIG_KEYS; what each reader
reads is checked by ``check_config_keys``. ``feature_index`` reads each
feature a value names: by its id, else by its 0-based index.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import struct
import sys
from enum import Enum
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy

from . import BLAS_THREAD_VARS
from .errors import ConfigError, CorruptFile, FactorIntError, FormatVersionMismatch
from .model import (
    Annotation,
    DataMatrix,
    Family,
    McmcSettings,
    ModelSpec,
    PosteriorDraws,
    STATE_FIELDS,
    SyntheticTruth,
    chain_draws,
    gp_spec,
    mult_spec,
    state_shapes,
)
from .prior import BetaTable, InterProbModel, LoadProbModel

MAGIC = b"FIBUNDLE"
FORMAT_VERSION = 1

# Every key a configuration may set; ``cli._COMMANDS`` says which command reads it.
CONFIG_KEYS = """
model.family              mult_approach1 | mult_approach2 | gp
model.factors             integer factor count (default 2)
model.gp_variant          1..5 (gp family)
model.length_scale        positive real (gp family, default 0.2)
model.product_var         positive real (mult approach 1, default 1e-5)
model.slab_var_loading    slab variance of the loadings (default 10)
model.slab_var_inter      slab variance of the interaction loadings (default 10)
model.noise_shape         inverse-gamma shape (default 2.1)
model.noise_scale         inverse-gamma scale (default 1.1)
model.load_prob_model     per_entry | grouped (one probability per entry | per group label)
model.inter_prob_model    per_feature | global | grouped (global: one for all features)
model.gamma               default Beta pair for the loading probabilities, "a, b"
model.gamma.<group>       pair for one label (expected | excluded | unknown), else the default
model.beta                default Beta pair for the interaction probabilities; global uses it alone
model.beta.<group>        pair for one label (seed | unknown), else the default; not for global
model.seed_group.<k>      features of seed group k (1-based factor): each an id, else an index
model.seed_constraints    true | false (default true)
model.include_interactions true | false (default true)
mcmc.iters                total iterations (default 600)
mcmc.burn_in              burn-in (default 400 mult / 300 gp)
mcmc.thin                 retention stride (default 1)
mcmc.seed                 integer seed (default 0)
mcmc.chains               number of chains (default 1)
mcmc.rw_step              initial MH step (gp, default 0.1)
mcmc.adapt_rw             true | false (default true)
paths.data                data CSV
paths.truth               truth bundle (compare)
paths.draws               draws bundle (summarize / detect / export-surface)
simulate.features         m (default 100)
simulate.samples          n (default 100)
simulate.frac_affected    fraction of candidates with effects (default 0.1)
simulate.noise_scale      noise standard deviation (default 1.0)
detect.threshold          posterior probability threshold (default 0.5)
surface.feature           feature id, else 0-based index
compare.specs             comma-separated model config paths
overlap.population        population size
overlap.counts            per-dataset counts, comma-separated
overlap.observed          observed summed pairwise overlap
overlap.replicates        replicates (default 100000)
"""


# ---------------------------------------------------------------- CSV data

def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the CSV table ``header`` + ``rows`` to ``path`` in the package's
    one dialect; ``rows`` may be a generator, consumed as it is written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_data_csv(path, data: DataMatrix) -> None:
    write_table(path, ["feature_id", *data.sample_ids],
                ([fid, *(f"{v:.17g}" for v in row)]
                 for fid, row in zip(data.feature_ids, data.values)))


def _read_text(path) -> str:
    """The whole file, which must be UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_data_csv(path) -> DataMatrix:
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty data file") from None
    sample_ids = header[1:]
    feature_ids = []
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(sample_ids) + 1:
            raise ConfigError(f"{path}:{lineno}: expected {len(sample_ids) + 1} cells")
        feature_ids.append(row[0])
        try:
            rows.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return DataMatrix(np.asarray(rows, dtype=float), tuple(feature_ids), tuple(sample_ids))


def read_annotation(path) -> Annotation:
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["probe_id", "chromosome", "position"]:
        raise ConfigError(f"{path}: expected header probe_id,chromosome,position")
    probes, chroms, positions = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 cells")
        probes.append(row[0])
        chroms.append(row[1])
        try:
            positions.append(int(row[2]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return Annotation(tuple(probes), tuple(chroms), np.asarray(positions, dtype=np.int64))


def write_annotation(path, annotation: Annotation) -> None:
    write_table(path, ["probe_id", "chromosome", "position"],
                zip(annotation.probe_ids, annotation.chromosomes, annotation.positions.tolist()))


# ---------------------------------------------------------------- bundles

class _BundleFile:
    """The one writer of bundle files, used as a context manager. The bundle
    is written under the name ``.<name>.<pid>.tmp`` beside its ``path``:
    ``_start`` writes the header and gives each array's offset, ``_write``
    puts bytes at an offset, and ``_seal`` appends the digest of one
    read-back of the file. The file is moved onto ``path`` when the block is
    left without an exception after ``_seal``; otherwise it is removed and
    ``path`` is left as it was."""

    def __init__(self, path):
        self.path = Path(path)
        self.tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")

    def __enter__(self):
        self.fh = open(self.tmp, "w+b", buffering=0)
        self.sha256 = None     # set by _seal
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.fh.close()
        if exc_type is None and self.sha256:
            os.replace(self.tmp, self.path)
        else:
            self.tmp.unlink(missing_ok=True)

    def _start(self, meta: dict, arrays: dict[str, np.ndarray]) -> dict[str, int]:
        """Write the bytes before the payload (magic, version, header length
        and the header of ``meta`` and ``arrays``, in payload order); returns
        each array's offset in the file. Only each array's dtype and shape are
        read, so a broadcast view can stand for an array that is not yet filled."""
        entries, offset = [], 0
        for name, arr in arrays.items():
            entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                            "offset": offset, "nbytes": arr.nbytes})
            offset += arr.nbytes
        header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True).encode("utf-8")
        head = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(header)) + header
        self._write(head, 0)
        self.size = len(head) + offset
        return {e["name"]: len(head) + e["offset"] for e in entries}

    def _write(self, data, offset: int) -> None:
        """Write ``data`` (bytes, or an array in C order) at ``offset``; a
        zero-size array writes nothing."""
        view = memoryview(np.ascontiguousarray(data).reshape(-1).view(np.uint8))
        while view:
            done = os.pwrite(self.fh.fileno(), view, offset)
            view, offset = view[done:], offset + done

    def _seal(self) -> str:
        """Append the digest of the file, read back once; returns the whole
        file's sha256."""
        self.fh.seek(0)
        digest = _sha256(self.fh, self.size)
        trailer = digest.digest()
        self._write(trailer, self.size)
        digest.update(trailer)     # now the whole file's
        self.sha256 = digest.hexdigest()
        return self.sha256


def write_bundle(path, meta: dict, arrays: dict[str, np.ndarray]) -> str:
    """Write ``arrays`` with ``meta`` as one versioned, checksummed bundle;
    returns the whole file's sha256. Each array's buffer goes to the file as
    it is, with no copy of the payload."""
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    with _BundleFile(path) as out:
        offsets = out._start(meta, arrays)
        for name, arr in arrays.items():
            out._write(arr, offsets[name])
        return out._seal()


_HASH_CHUNK = 1 << 20


def _sha256(fh, nbytes: int | None = None):
    """sha256 of the next ``nbytes`` bytes of ``fh`` (the rest of the file
    when None), read in chunks of ``_HASH_CHUNK`` bytes into one buffer,
    left uninitialised so that a small file touches only its own pages."""
    digest = hashlib.sha256()
    buffer = memoryview(np.empty(_HASH_CHUNK, dtype=np.uint8))
    left = math.inf if nbytes is None else nbytes
    while left > 0 and (got := fh.readinto(buffer[:min(left, _HASH_CHUNK)])):
        digest.update(buffer[:got])
        left -= got
    return digest


class BundleField:
    """One array of a bundle file, described by its header entry and read
    from the file on demand: whole, or a run of its trailing parameters for
    every index of its leading axis."""

    def __init__(self, path, offset: int, dtype: np.dtype, shape: tuple[int, ...]):
        self.path, self.offset, self.dtype, self.shape = path, offset, dtype, shape
        self.ndim = len(shape)
        # bytes per index of the leading axis
        self.stride = math.prod(shape[1:]) * dtype.itemsize

    def _pread(self, fd: int, nbytes: int, offset: int) -> bytes:
        raw = os.pread(fd, nbytes, self.offset + offset)
        if len(raw) != nbytes:
            raise CorruptFile(f"{self.path}: payload shorter than declared")
        return raw

    def read(self) -> np.ndarray:
        """The whole array, read-only."""
        with open(self.path, "rb") as fh:
            raw = self._pread(fh.fileno(), self.shape[0] * self.stride, 0)
        return np.frombuffer(raw, self.dtype).reshape(self.shape)

    def read_rows(self, rows: slice) -> np.ndarray:
        """Parameters ``rows`` (a slice with step 1 over the trailing axes
        in C order) of every index of the leading axis, as an (S, rows)
        array: one read per index of the leading axis."""
        start, stop, _ = rows.indices(self.stride // self.dtype.itemsize)
        out = np.empty((self.shape[0], stop - start), self.dtype)
        nbytes, skip = out[0].nbytes, start * self.dtype.itemsize
        with open(self.path, "rb") as fh:
            for k in range(self.shape[0]):
                out[k] = np.frombuffer(self._pread(fh.fileno(), nbytes, k * self.stride + skip),
                                       self.dtype)
        return out


def _open_bundle(path) -> tuple[dict, dict[str, BundleField], str]:
    """The meta, a ``BundleField`` per array of the bundle at ``path`` and
    the sha256 of the whole file, after checking the file against its digest
    in one sequential read. CorruptFile or FormatVersionMismatch when it is
    not a bundle this version wrote."""
    with open(path, "rb") as fh:
        prefix = fh.read(len(MAGIC) + 12)
        if len(prefix) < len(MAGIC) + 12 or prefix[: len(MAGIC)] != MAGIC:
            raise CorruptFile(f"{path}: not a bundle file (bad magic)")
        version = struct.unpack_from("<I", prefix, len(MAGIC))[0]
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(version, FORMAT_VERSION)
        size = os.fstat(fh.fileno()).st_size
        if size < 32:
            raise CorruptFile(f"{path}: truncated")
        fh.seek(0)
        digest = _sha256(fh, size - 32)
        trailer = fh.read(32)
        if trailer != digest.digest():
            raise CorruptFile(f"{path}: checksum mismatch")
        digest.update(trailer)     # now the whole file's
        header_len = struct.unpack_from("<Q", prefix, len(MAGIC) + 4)[0]
        start = len(prefix)
        fh.seek(start)
        raw = fh.read(min(header_len, size - 32 - start))
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: unreadable header ({exc})") from None
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise CorruptFile(f"{path}: header lacks 'meta' or 'arrays'")
    payload = start + header_len
    fields = dict(_bundle_field(entry, payload, max(0, size - 32 - payload), path)
                  for entry in header["arrays"])
    return header["meta"], fields, digest.hexdigest()


def read_bundle(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the arrays of the bundle at ``path``, each read-only."""
    meta, fields, _ = _open_bundle(path)
    return meta, {name: field.read() for name, field in fields.items()}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _bundle_field(entry, payload: int, payload_len: int, path) -> tuple[str, BundleField]:
    """One array of a bundle whose payload starts at byte ``payload`` and
    holds ``payload_len`` bytes, from its header entry; CorruptFile when the
    entry is malformed or disagrees with the payload."""
    try:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        offset, nbytes = entry["offset"], entry["nbytes"]
    except (KeyError, TypeError):
        raise CorruptFile(f"{path}: malformed array entry {entry!r:.80}") from None
    if not (isinstance(name, str) and isinstance(dtype, str) and isinstance(shape, list)
            and all(map(_is_count, (offset, nbytes, *shape)))):
        raise CorruptFile(f"{path}: malformed array entry {entry!r:.80}")
    try:
        dtype = np.dtype(dtype)
    except (TypeError, ValueError, SyntaxError):  # numpy parses "a,b" strings as Python
        raise CorruptFile(f"{path}: array {name!r} has unknown dtype {dtype!r:.40}") from None
    if dtype.hasobject or dtype.shape or not dtype.itemsize \
            or math.prod(shape) * dtype.itemsize != nbytes:
        raise CorruptFile(f"{path}: array {name!r}: dtype {dtype.str} and shape {shape} "
                          f"do not make {nbytes} bytes")
    if offset + nbytes > payload_len:
        raise CorruptFile(f"{path}: payload shorter than declared")
    return name, BundleField(path, payload + offset, dtype, tuple(shape))


# ------------------------------------------------------------ truth bundle

def write_truth(path, truth: SyntheticTruth, seed: int) -> str:
    """Write the truth bundle of ``truth``, simulated with ``seed``; returns its sha256."""
    return write_bundle(path, {"kind": "truth", "seed": seed}, {
        "loadings": truth.loadings, "scores": truth.scores, "effects": truth.effects,
        "noise_var": truth.noise_var, "affected": truth.affected,
        "seed_group_1": truth.seed_groups[0], "seed_group_2": truth.seed_groups[1]})


def read_truth(path, m: int, n: int) -> tuple[SyntheticTruth, str]:
    """The planted truth in the bundle at ``path``, checked against m x n
    data, and the file's sha256, taken as its digest is checked."""
    meta, fields, sha256 = _open_bundle(path)
    if meta.get("kind") != "truth":
        raise ConfigError(f"paths.truth: {path}: not a truth bundle")
    arrays = {name: field.read() for name, field in fields.items()}
    # the shape of each array; None for a list of feature indices
    shapes = {"loadings": (m, 2), "scores": (2, n), "effects": (m, n), "noise_var": (m,),
              "affected": None, "seed_group_1": None, "seed_group_2": None}
    for name, shape in shapes.items():
        if name not in arrays:
            raise CorruptFile(f"paths.truth: {path}: truth bundle lacks {name!r}")
        arr = arrays[name]
        if not (arr.shape == shape if shape else (
                arr.ndim == 1 and arr.dtype.kind in "iu" and ((0 <= arr) & (arr < m)).all())):
            raise ConfigError(f"paths.truth: {path}: {name} {arr.dtype}{list(arr.shape)} does "
                              f"not fit the {m}x{n} data")
    return SyntheticTruth(
        loadings=arrays["loadings"], scores=arrays["scores"], effects=arrays["effects"],
        noise_var=arrays["noise_var"], affected=arrays["affected"],
        seed_groups={0: arrays["seed_group_1"], 1: arrays["seed_group_2"]}), sha256


# ------------------------------------------------------ spec serialization

def spec_to_dict(value):
    """The JSON data of a spec, or of any of its fields: a dataclass as a dict
    of its fields, an enum by its value, a tuple as a list, a frozenset as its
    sorted ints, and a mapping with string keys, a tuple key comma-joined."""
    if dataclasses.is_dataclass(value):
        return {f.name: spec_to_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [spec_to_dict(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(int(i) for i in value)
    if isinstance(value, Mapping):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): spec_to_dict(v)
                for k, v in sorted(value.items())}
    return value


def spec_from_dict(d: dict) -> ModelSpec:
    def beta_table(sub: dict) -> BetaTable:
        return BetaTable(
            default=tuple(sub["default"]),
            groups={k: tuple(v) for k, v in sub.get("groups", {}).items()},
            entries={tuple(int(x) for x in k.split(",")): tuple(v)
                     for k, v in sub.get("entries", {}).items()},
        )

    return ModelSpec(
        family=Family(d["family"]),
        n_factors=int(d["n_factors"]),
        slab_var_loading=float(d["slab_var_loading"]),
        slab_var_inter=float(d["slab_var_inter"]),
        noise_prior=tuple(d["noise_prior"]),
        product_var=None if d.get("product_var") is None else float(d["product_var"]),
        gp_variant=None if d.get("gp_variant") is None else int(d["gp_variant"]),
        length_scale=None if d.get("length_scale") is None else float(d["length_scale"]),
        load_prob_model=LoadProbModel(d["load_prob_model"]),
        inter_prob_model=InterProbModel(d["inter_prob_model"]),
        load_prob_prior=beta_table(d["load_prob_prior"]),
        inter_prob_prior=beta_table(d["inter_prob_prior"]),
        seed_groups=None if d.get("seed_groups") is None else
            {int(k): frozenset(int(i) for i in v) for k, v in d["seed_groups"].items()},
        fixed_load_prob=None if d.get("fixed_load_prob") is None else
            {tuple(int(x) for x in k.split(",")): float(v)
             for k, v in d["fixed_load_prob"].items()},
        fixed_inter_prob=None if d.get("fixed_inter_prob") is None else
            {int(k): float(v) for k, v in d["fixed_inter_prob"].items()},
        seed_constraints=bool(d.get("seed_constraints", True)),
        include_interactions=bool(d.get("include_interactions", True)),
    )


# -------------------------------------------------------- draws persistence

def _draws_layout(draws: PosteriorDraws) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the arrays, in payload order, of the bundle of ``draws``."""
    arrays = dict(draws.values)
    if draws.mh_accept_counts is not None:
        arrays["mh_accept_counts"] = draws.mh_accept_counts
    meta = {
        "kind": "draws",
        "spec": spec_to_dict(draws.spec),
        "burn_in": draws.burn_in,
        "thin": draws.thin,
        "n_iters": draws.n_iters,
        "seed": draws.seed,
        "chain": draws.chain,
        "state_fields": list(draws.values),
        "feature_ids": list(draws.feature_ids) if draws.feature_ids else None,
        "sample_ids": list(draws.sample_ids) if draws.sample_ids else None,
        "rw_step_final": draws.rw_step_final,
    }
    return meta, arrays


def persist_draws(draws: PosteriorDraws, path) -> None:
    """Lossless, versioned, checksummed dump of the retained states."""
    write_bundle(path, *_draws_layout(draws))


class DrawsWriter(_BundleFile):
    """A ``run_chain`` sink that writes each retained state straight into its
    slot of a draws bundle, so the chain's states are never all in memory.
    ``close`` returns the chain's ``PosteriorDraws`` with every state field
    left in that file, as ``open_draws`` gives them, without reading it back.

    Use it as a context manager around the chain (around all of a run's
    chains, so that no file moves before the last is done); the file is
    written and moved as every bundle is (``_BundleFile``), and its bytes are
    those ``persist_draws`` writes for the same chain. The header, which
    holds the final MH step, is written at the first retained state, as
    adaptation has stopped by then; ``close`` checks that the step has not
    moved since, then writes the acceptance ledger and seals the file.
    """

    def put(self, k: int, sampler) -> None:
        if k == 0:
            n_states = sampler.settings.retained(sampler.spec.family)
            # views of the right dtype and shape: the layout reads no values
            shell = chain_draws(sampler, {
                name: np.broadcast_to(v, (n_states, *v.shape)) for name in STATE_FIELDS
                if (v := getattr(sampler.state, name)) is not None})
            self.rw_step = shell.rw_step_final
            offsets = self._start(*_draws_layout(shell))
            self.fields = {name: BundleField(self.path, offsets[name], arr.dtype, arr.shape)
                           for name, arr in shell.values.items()}
            self.ledger = offsets.get("mh_accept_counts")
        for name, field in self.fields.items():
            self._write(np.ascontiguousarray(getattr(sampler.state, name), field.dtype),
                        field.offset + k * field.stride)

    def close(self, sampler) -> PosteriorDraws:
        """Complete the bundle and return its draws (at ``path`` from the block's end)."""
        if sampler.rw_step != self.rw_step:
            raise RuntimeError(f"MH step moved after the first retained state "
                               f"({self.rw_step} -> {sampler.rw_step})")
        if self.ledger is not None:
            self._write(sampler.accept_counts, self.ledger)
        draws = chain_draws(sampler, self.fields)
        draws.sha256 = self._seal()
        return draws


_DRAWS_COUNTS = ("burn_in", "thin", "n_iters", "seed", "chain")


def _draws_ids(meta: dict, key: str, count: int, path) -> tuple[str, ...] | None:
    ids = meta.get(key)
    if ids is None:
        return None
    if not (isinstance(ids, list) and len(ids) == count and all(isinstance(i, str) for i in ids)
            and len(set(ids)) == count):
        raise CorruptFile(f"{path}: {key} is not a list of {count} distinct strings")
    return tuple(ids)


def load_draws(path) -> PosteriorDraws:
    """The draws bundle at ``path``, its state fields read into memory."""
    return _draws_from(*read_bundle(path), path)


def open_draws(path) -> PosteriorDraws:
    """The draws bundle at ``path`` with each state field left in the file as
    a ``BundleField``, read only when a reader asks ``PosteriorDraws`` for it.
    The file is checked against its digest here, and its sha256 is kept
    as the draws' ``sha256``."""
    meta, fields, sha256 = _open_bundle(path)
    if "mh_accept_counts" in fields:
        fields["mh_accept_counts"] = fields["mh_accept_counts"].read()
    draws = _draws_from(meta, fields, path)
    draws.sha256 = sha256
    return draws


def _draws_from(meta: dict, arrays: dict, path) -> PosteriorDraws:
    """The draws of a bundle's meta and arrays (arrays or ``BundleField``s);
    CorruptFile when they do not describe the draws of a model."""
    if meta.get("kind") != "draws":
        raise CorruptFile(f"{path}: bundle does not contain draws")
    fields = meta.get("state_fields")
    if not (isinstance(fields, list) and "loadings" in fields and "scores" in fields
            and all(name in STATE_FIELDS and name in arrays for name in fields)):
        raise CorruptFile(f"{path}: draws bundle lacks its state fields, loadings or scores")
    values = {name: arrays[name] for name in STATE_FIELDS if name in fields}
    leading = {arr.shape[:1] for arr in values.values()}
    if len(leading) != 1 or () in leading or (0,) in leading:
        raise CorruptFile(f"{path}: state fields hold no or different numbers of states")
    bad = [key for key in _DRAWS_COUNTS if not isinstance(meta.get(key), int)
           or isinstance(meta[key], bool)]
    if bad:
        raise CorruptFile(f"{path}: draws entries {bad} are not integers")
    rw_step = meta.get("rw_step_final")
    if not (rw_step is None or (isinstance(rw_step, (int, float))
                                and not isinstance(rw_step, bool))):
        raise CorruptFile(f"{path}: rw_step_final is not a number")
    try:
        spec = spec_from_dict(meta["spec"])
    except (FactorIntError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise CorruptFile(f"{path}: unreadable model spec ({type(exc).__name__}: {exc})") from None
    if values["loadings"].ndim != 3 or values["scores"].ndim != 3:
        raise CorruptFile(f"{path}: loadings or scores are not one matrix per state")
    m, n = values["loadings"].shape[1], values["scores"].shape[2]
    shapes = state_shapes(spec, m, n)
    if shapes.keys() != values.keys() or any(
            arr.shape[1:] != shapes[name] for name, arr in values.items()):
        raise CorruptFile(f"{path}: state fields do not match a {spec.family.value} model "
                          f"with {spec.n_factors} factors on {m} features x {n} samples")
    return PosteriorDraws(
        spec=spec,
        values=values,
        **{key: meta[key] for key in _DRAWS_COUNTS},
        feature_ids=_draws_ids(meta, "feature_ids", m, path),
        sample_ids=_draws_ids(meta, "sample_ids", n, path),
        mh_accept_counts=arrays.get("mh_accept_counts"),
        rw_step_final=rw_step,
    )


# ------------------------------------------------------------ configuration

def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def read_config(path) -> dict[str, str]:
    """The ``key = value`` lines of a UTF-8 configuration file."""
    return parse_config_text(_read_text(path), origin=str(path))


def _parse(kind, value: str, key: str, expected: str):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None


def _config_bool(cfg: dict[str, str], key: str) -> bool:
    low = cfg[key].lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {cfg[key]!r}")


def _as_pair(value: str, key: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'a, b', got {value!r}")
    return tuple(_parse(float, part, key, "'a, b'") for part in parts)


def config_int(cfg: dict[str, str], key: str, default: int | None = None) -> int | None:
    """``cfg[key]`` as an integer, or ``default`` when the key is absent."""
    return _parse(int, cfg[key], key, "an integer") if key in cfg else default


def config_float(cfg: dict[str, str], key: str, default: float | None = None) -> float | None:
    """``cfg[key]`` as a real number, or ``default`` when the key is absent."""
    return _parse(float, cfg[key], key, "a number") if key in cfg else default


def config_positive(cfg: dict[str, str], key: str, default: float) -> float:
    """``cfg[key]`` as a finite real number above 0, or ``default`` when the
    key is absent."""
    value = config_float(cfg, key, default)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{key}: expected a positive finite number, got {cfg[key]!r}")
    return value


def config_ints(cfg: dict[str, str], key: str) -> tuple[int, ...]:
    """Comma-separated integers under ``key``."""
    return tuple(_parse(int, v, key, "comma-separated integers") for v in cfg[key].split(","))


def _config_choice(kind):
    """A parser of the ``kind`` member whose value a key holds."""
    return lambda cfg, key: _parse(kind, cfg[key], key, " | ".join(m.value for m in kind))


def feature_index(token: str, labels: Sequence[str] | None, key: str) -> int:
    """The feature that ``token``, from the value of config key ``key``,
    names among features with ids ``labels``: the one whose id it is, else
    the 0-based index it spells, which must lie inside ``labels``. With no
    ``labels`` (no data to look ids up in) the token must be an index."""
    if labels is not None and token in labels:
        return labels.index(token)
    index = _parse(int, token, key, "a feature index") if token.isdecimal() else None
    if index is not None and (labels is None or index < len(labels)):
        return index
    if labels is None:
        raise ConfigError(f"{key}: {token!r} is not a 0-based feature index, and no data file "
                          "gives feature ids to look it up in")
    raise ConfigError(f"{key}: {token!r} is neither a feature id nor an index in "
                      f"0..{len(labels) - 1}")


# config key, ModelSpec field, parser; every family reads the first table
_SPEC_KEYS = (
    ("model.factors", "n_factors", config_int),
    ("model.slab_var_loading", "slab_var_loading", config_float),
    ("model.slab_var_inter", "slab_var_inter", config_float),
    ("model.load_prob_model", "load_prob_model", _config_choice(LoadProbModel)),
    ("model.inter_prob_model", "inter_prob_model", _config_choice(InterProbModel)),
    ("model.seed_constraints", "seed_constraints", _config_bool),
    ("model.include_interactions", "include_interactions", _config_bool),
)
_FAMILY_SPEC_KEYS = {
    Family.GP: (("model.length_scale", "length_scale", config_float),),
    Family.MULT_APPROACH1: (("model.product_var", "product_var", config_float),),
}


def spec_from_config(cfg: dict[str, str], data: DataMatrix | None = None) -> ModelSpec:
    """The model ``cfg`` describes. Only the keys it sets are read, and
    ``mult_spec``, ``gp_spec`` and ``ModelSpec`` supply every other value.
    ``model.product_var`` is read for approach 1 only, and
    ``model.gp_variant`` and ``model.length_scale`` for the gp family only."""
    family = (_config_choice(Family)(cfg, "model.family") if "model.family" in cfg
              else Family.MULT_APPROACH2)
    kwargs = {name: parse(cfg, key)
              for key, name, parse in _SPEC_KEYS + _FAMILY_SPEC_KEYS.get(family, ())
              if key in cfg}
    for key, name in (("model.gamma", "load_prob_prior"), ("model.beta", "inter_prob_prior")):
        default = {"default": _as_pair(cfg[key], key)} if key in cfg else {}
        groups = {k[len(key) + 1:]: _as_pair(v, k) for k, v in cfg.items()
                  if k.startswith(key + ".")}
        if default or groups:
            kwargs[name] = BetaTable(**default, groups=groups)
    if family is Family.GP:
        spec = gp_spec(config_int(cfg, "model.gp_variant", 1), **kwargs)
    else:
        spec = mult_spec(1 if family is Family.MULT_APPROACH1 else 2, **kwargs)

    # the seed groups need the factor count, and each noise key sets half a pair
    seed_groups, group_keys = {}, {}  # group_keys: the key that names each group
    labels = None if data is None else data.feature_ids
    for key, value in cfg.items():
        if key.startswith("model.seed_group."):
            group = _parse(int, key.rsplit(".", 1)[1], key, "a 1-based factor number")
            if not 1 <= group <= spec.n_factors:
                raise ConfigError(f"{key}: seed group {group} outside 1..{spec.n_factors} "
                                  f"(model.factors = {spec.n_factors})")
            if group in group_keys:
                raise ConfigError(f"{group_keys[group]} and {key} both name seed group {group}")
            group_keys[group] = key
            seed_groups[group - 1] = frozenset(feature_index(t.strip(), labels, key)
                                               for t in value.split(",") if t.strip())
    noise_prior = (config_float(cfg, "model.noise_shape", spec.noise_prior[0]),
                   config_float(cfg, "model.noise_scale", spec.noise_prior[1]))
    return dataclasses.replace(spec, noise_prior=noise_prior, seed_groups=seed_groups or None)


_SETTINGS_KEYS = (("mcmc.iters", "n_iters", config_int), ("mcmc.burn_in", "burn_in", config_int),
                  ("mcmc.thin", "thin", config_int), ("mcmc.seed", "seed", config_int),
                  ("mcmc.chains", "n_chains", config_int), ("mcmc.rw_step", "rw_step", config_float),
                  ("mcmc.adapt_rw", "adapt_rw", _config_bool))


def settings_from_config(cfg: dict[str, str]) -> McmcSettings:
    return McmcSettings(**{name: parse(cfg, key) for key, name, parse in _SETTINGS_KEYS
                           if key in cfg})


def check_config_keys(cfg: dict[str, str], reader: str, required: Sequence[str],
                      reads: Sequence[str]) -> None:
    """ConfigError for the first fault of ``cfg`` given to ``reader`` (a
    command, or a spec file's path), which needs ``required`` and reads those
    and ``reads``, each a key or a section with no dot such as ``model``: a
    key CONFIG_KEYS does not list (where ``<group>`` stands for any one
    segment), then a key ``reader`` does not read, then a missing required key."""
    keys = {line.split()[0] for line in CONFIG_KEYS.strip().splitlines()}
    open_heads = {key.rpartition(".")[0] for key in keys if key.endswith(">")}
    for key in cfg:
        head, _, last = key.rpartition(".")
        if key not in keys and not (last and head in open_heads):
            raise ConfigError(f"{key}: unknown key")
    entries = (*required, *reads)
    for key in cfg:
        if key not in entries and key.partition(".")[0] not in entries:
            raise ConfigError(f"{key}: {reader} does not read this key")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{reader} requires {key}")


# --------------------------------------------------------------- manifest

def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh).hexdigest()


def _run_environment() -> dict:
    """Interpreter and library versions, and the BLAS thread variables as this
    process sees them (None where unset)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS}}


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (``ru_maxrss`` is
    in kilobytes on Linux and in bytes on macOS)."""
    # imported once a command's work is done, so that its pages (about
    # 0.3 MB) load below the peak rather than into every command's baseline
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _file_entry(path, name: str, sha256: str | None) -> dict:
    path = Path(path)
    return {"path": name, "sha256": sha256 or sha256_file(path), "bytes": path.stat().st_size}


def write_manifest(output_dir, command: str, config: dict, seed: int,
                   artifacts: list[str], wall_s: float, inputs=(), digests=None) -> Path:
    """Record the resolved configuration, the run environment, the run's
    footprint (its wall time ``wall_s`` and the peak RSS so far), a checksum
    for every artifact and one for every file in ``inputs`` the run read,
    each listed once under the path it was given by. ``digests`` maps paths
    (as ``str``) to a sha256 the run already took of the whole file, as a
    ``DrawsWriter`` or ``open_draws`` does; those files are not read again."""
    output_dir = Path(output_dir)
    digests = digests or {}
    entries = [_file_entry(output_dir / name, name, digests.get(str(output_dir / name)))
               for name in sorted(artifacts)]
    manifest = {"command": command, "config": config, "seed": seed, "artifacts": entries,
                "inputs": [_file_entry(name, name, digests.get(name))
                           for name in dict.fromkeys(map(str, inputs))],
                "environment": _run_environment(),
                "run": {"wall_s": wall_s, "peak_rss_mb": _peak_rss_mb()}}
    path = output_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def verify_manifest(output_dir) -> bool:
    output_dir = Path(output_dir)
    manifest = json.loads((output_dir / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["artifacts"]:
        if sha256_file(output_dir / entry["path"]) != entry["sha256"]:
            return False
    return True
