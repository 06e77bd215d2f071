"""Persistence and configuration.

File formats
------------
CSV tables: ``write_table`` writes every one, in the package's one dialect:
UTF-8, comma-delimited, ``\r\n`` line ends, quotes only where a cell needs them.
Every text file is read as UTF-8, one leading byte-order mark dropped.

Data CSV: first row sample ids (the top-left cell is a label), first column
feature ids, remaining cells finite real numbers; read a row at a time.

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

Draws bundle: meta ``kind`` ``draws``, the chain's counts and ids, its final
MH step, and under ``spec`` the model spec as ``spec_to_dict`` writes it;
the arrays are the state fields, then the acceptance ledger if the chain
kept one. Each part is read back by the rule that wrote it, and a file that
breaks one is CorruptFile:
- the meta's entries are exactly ``_DRAWS_KEYS``, the keys ``_draws_layout``
  writes;
- ``spec_from_dict`` reads the spec through ``_SPEC_FIELDS``, one reader per
  ``ModelSpec`` field, so a spec that lacks a field or holds a key that is not
  one fails rather than resets a field to its default or ignores the key, and
  a count or index that is not an integer fails rather than is truncated;
- the counts are ints that make an ``McmcSettings`` whose ``streams(chain)``
  and ``retained(family)`` hold, with the final step as its ``rw_step`` for
  gp draws; the step is None exactly for the multiplicative families;
- each state field is (S, *shape) of ``model.state_shapes`` with its
  ``model.STATE_DTYPES`` dtype, for one S > 0 across the fields, on the
  m >= 2 features and n >= 2 samples a ``DataMatrix`` holds;
- the ledger, if any, is an (n, 2) integer array.

Run directory: ``landing`` is the one way a command's files reach its output
directory. They are written into a staging directory ``.factorint.<pid>.tmp``
inside it and moved into place, ``manifest.json`` last, only once the command
has succeeded. A failed command leaves the output directory as it was; a
killed one can leave its staging directory behind.

Manifest: ``manifest.json``, written by ``write_manifest``, records a
checksum for every other file of the run, and ``verify_manifest`` checks them.

Configuration: ``key = value`` lines with dotted section prefixes; ``#``
starts a comment, and a key set twice in one file is an error. ``KEYS`` has
one row per key: the parser of its value, its help line, the ``ModelSpec`` or
``McmcSettings`` field it sets, and, for the eight keys whose defaults the
CLI owns, that default. ``CONFIG_KEYS``, the help text that ``factorint
--help`` ends with, is rendered from it. ``value(cfg, key)`` is the one
reader of a key, also for ``spec_from_config`` and ``settings_from_config``;
a model or run key that is not set takes the default of ``ModelSpec``,
``mult_spec``/``gp_spec`` or ``McmcSettings``. The parsers read a value's
text only, and no parser checks a number: the rules for the number a value
holds (an integer, a positive finite number, a bound, a key of the family)
belong to the code that uses it, the spec, the settings, the simulator, the
overlap test or ``detect_interactions``, run through ``prior.check_integer``
and ``prior.check_positive``. So ``model.slab_var_inter`` for the gp family
parses here and raises SpecConflict when the spec is built, and
``simulate.noise_scale = 0`` parses here and raises ConfigError in
``generate_saddle_dataset``. What each reader reads is checked by
``check_config_keys``. ``feature_index`` reads each feature a
value names: by its id, else by its 0-based index.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import struct
import sys
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    STATE_DTYPES,
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
MANIFEST = "manifest.json"

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
    """The whole file, which must be UTF-8, less one leading byte-order mark;
    a byte that is not UTF-8 is named by its offset in the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removeprefix("\ufeff")


@contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over the file at ``path``, decoded as UTF-8 a block
    at a time, less one leading byte-order mark; ConfigError, naming the
    first byte that is not UTF-8, when the file is not, and naming the line
    for a row the reader cannot parse."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError:
            _read_text(path)     # raises the ConfigError with the file's byte offset
            raise
        except csv.Error as exc:  # such as a cell beyond the field size limit
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None


def read_data_csv(path) -> DataMatrix:
    """The data CSV at ``path``; ConfigError, naming the file, when it is
    not one, or its matrix is not a ``DataMatrix`` (a repeated id, fewer
    than 2 features or samples). The cells are parsed a row at a time into
    float64, so the read holds little more than the matrix."""
    with _csv_reader(path) as reader:
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
                rows.append(np.fromiter(map(float, row[1:]), dtype=float, count=len(sample_ids)))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(rows[-1]).all():
                cell = int(np.argmin(np.isfinite(rows[-1])))
                raise ConfigError(f"{path}:{lineno}: non-finite value {row[cell + 1]!r} "
                                  f"for sample {sample_ids[cell]!r}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        return DataMatrix(np.stack(rows), tuple(feature_ids), tuple(sample_ids))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_annotation(path) -> Annotation:
    with _csv_reader(path) as reader:
        header = [h.strip() for h in next(reader, [])[:3]]
        if header != ["probe_id", "chromosome", "position"]:
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
    return Annotation(tuple(probes), tuple(chroms), positions)


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
        """Parameters ``rows`` (a slice over the trailing axes in C order,
        step 1 and stop >= start, as ``PosteriorDraws.traces`` hands it on)
        of every index of the leading axis, as an (S, rows) array: one read
        per index of the leading axis."""
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
            and all(type(v) is int and v >= 0 for v in (offset, nbytes, *shape))):
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
    sorted members, a mapping with string keys, a tuple key comma-joined, and
    a numpy number as the Python number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return {f.name: spec_to_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [spec_to_dict(v) for v in value]
    if isinstance(value, frozenset):
        return [spec_to_dict(i) for i in sorted(value)]
    if isinstance(value, Mapping):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): spec_to_dict(v)
                for k, v in sorted(value.items())}
    return value


def _index(key: str) -> tuple[int, ...]:
    """A comma-joined mapping key of ``spec_to_dict`` as its tuple of ints."""
    return tuple(map(int, key.split(",")))


def _beta_table(d: dict) -> BetaTable:
    """The ``BetaTable`` ``spec_to_dict`` made ``d`` of; KeyError when ``d``
    lacks a field or has another key."""
    names = {f.name for f in dataclasses.fields(BetaTable)}
    if d.keys() != names:
        raise KeyError(f"Beta table fields missing or unknown: {sorted(d.keys() ^ names)}")
    return BetaTable(default=tuple(d["default"]),
                     groups={k: tuple(v) for k, v in d["groups"].items()},
                     entries={_index(k): tuple(v) for k, v in d["entries"].items()})


def _same(v):
    return v


# The reader of each ModelSpec field, in field order: it turns the field's
# non-null ``spec_to_dict`` value back into the field's value. A count or an
# index is taken as written, so the spec's rules refuse one that is not an
# integer rather than a reader truncating it.
_SPEC_FIELDS = {
    "family": Family, "n_factors": _same, "slab_var_loading": float, "slab_var_inter": float,
    "noise_prior": tuple, "product_var": float, "gp_variant": _same, "length_scale": float,
    "load_prob_model": LoadProbModel, "inter_prob_model": InterProbModel,
    "load_prob_prior": _beta_table, "inter_prob_prior": _beta_table,
    "seed_groups": lambda d: {int(k): frozenset(v) for k, v in d.items()},
    "fixed_load_prob": lambda d: {_index(k): float(v) for k, v in d.items()},
    "fixed_inter_prob": lambda d: {int(k): float(v) for k, v in d.items()},
    "seed_constraints": bool, "include_interactions": bool,
}


def spec_from_dict(d: dict) -> ModelSpec:
    """The spec ``spec_to_dict`` made ``d`` of, each field read by its row
    of ``_SPEC_FIELDS``; KeyError when ``d`` lacks a field or has another key."""
    if d.keys() != _SPEC_FIELDS.keys():
        raise KeyError(f"spec fields missing or unknown: {sorted(d.keys() ^ _SPEC_FIELDS.keys())}")
    return ModelSpec(**{name: None if d[name] is None else read(d[name])
                        for name, read in _SPEC_FIELDS.items()})


# -------------------------------------------------------- draws persistence

# the integer entries of a draws bundle's meta, each a field of PosteriorDraws
_DRAWS_COUNTS = ("burn_in", "thin", "n_iters", "seed", "chain")
# every entry of a draws bundle's meta: the keys ``_draws_layout`` writes
_DRAWS_KEYS = {"kind", "spec", *_DRAWS_COUNTS, "state_fields", "feature_ids", "sample_ids",
               "rw_step_final"}


def _draws_layout(draws: PosteriorDraws) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the arrays, in payload order, of the bundle of ``draws``."""
    arrays = dict(draws.values)
    if draws.mh_accept_counts is not None:
        arrays["mh_accept_counts"] = draws.mh_accept_counts
    meta = {
        "kind": "draws",
        "spec": spec_to_dict(draws.spec),
        **{key: getattr(draws, key) for key in _DRAWS_COUNTS},
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

    Use it as a context manager around the chain; the file is written and
    moved as every bundle is (``_BundleFile``), and its bytes are those
    ``persist_draws`` writes for the same chain. The header, which
    holds the final MH step, is written at the first retained state, as
    adaptation has stopped by then; ``close`` checks that the step has not
    moved since, then writes the acceptance ledger and seals the file.
    """

    def put(self, k: int, sampler) -> None:
        if k == 0:
            # views of the right dtype and shape: the layout reads no values
            shell = chain_draws(sampler, {
                name: np.broadcast_to(v, (sampler.n_retained, *v.shape)) for name in STATE_FIELDS
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


def _draws_ids(meta: dict, key: str, count: int, path) -> tuple[str, ...] | None:
    ids = meta[key]
    if not (ids is None or isinstance(ids, list) and len(ids) == count
            and all(isinstance(i, str) for i in ids) and len(set(ids)) == count):
        raise CorruptFile(f"{path}: {key} is not a list of {count} distinct strings")
    return None if ids is None else tuple(ids)


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
    CorruptFile when they are not what ``_draws_layout`` writes for the draws
    of a model: the header entries ``_DRAWS_KEYS``, run settings that make an
    ``McmcSettings`` of the spec's family, each state field of ``state_shapes``
    with its ``STATE_DTYPES`` dtype, and an (n, 2) integer ledger if any."""
    if meta.get("kind") != "draws" or meta.keys() != _DRAWS_KEYS:
        raise CorruptFile(f"{path}: not a draws bundle: entries "
                          f"{sorted(meta.keys() ^ _DRAWS_KEYS)} missing or unknown")
    bad = [key for key in _DRAWS_COUNTS if type(meta[key]) is not int]
    if bad:
        raise CorruptFile(f"{path}: draws entries {bad} are not integers")
    rw_step = meta["rw_step_final"]
    try:
        spec = spec_from_dict(meta["spec"])
        # the chain's final MH step: a float for gp draws, None for multiplicative ones
        if not isinstance(rw_step, type(None) if spec.is_mult else float):
            raise ConfigError(f"rw_step_final {rw_step!r:.40} is not the MH step of a "
                              f"{spec.family.value} chain")
        settings = McmcSettings(*(meta[key] for key in ("n_iters", "burn_in", "thin", "seed")),
                                **({} if rw_step is None else {"rw_step": rw_step}))
        settings.streams(meta["chain"])
        settings.retained(spec.family)
    except (FactorIntError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise CorruptFile(f"{path}: unreadable model spec or run settings "
                          f"({type(exc).__name__}: {exc})") from None
    try:
        (n_states, m, _), (_, _, n) = arrays["loadings"].shape, arrays["scores"].shape
    except (KeyError, ValueError):
        raise CorruptFile(f"{path}: loadings or scores are not one matrix per state") from None
    shapes = state_shapes(spec, m, n)
    values = {name: arrays.get(name) for name in shapes}
    wrong = [name for name, arr in values.items() if arr is None
             or (arr.shape, arr.dtype) != ((n_states, *shapes[name]), STATE_DTYPES[name])]
    if wrong or not n_states or min(m, n) < 2 or meta["state_fields"] != list(shapes):
        raise CorruptFile(f"{path}: state fields {wrong or meta['state_fields']!r:.80} do not "
                          f"have the shapes and dtypes of {n_states} states of a "
                          f"{spec.family.value} model with {spec.n_factors} factors on "
                          f"{m} features x {n} samples")
    ledger = arrays.get("mh_accept_counts")
    if ledger is not None and (ledger.shape != (n, 2) or ledger.dtype.kind not in "iu"):
        raise CorruptFile(f"{path}: mh_accept_counts is not an ({n}, 2) integer array")
    return PosteriorDraws(spec, values, **{key: meta[key] for key in _DRAWS_COUNTS},
                          feature_ids=_draws_ids(meta, "feature_ids", m, path),
                          sample_ids=_draws_ids(meta, "sample_ids", n, path),
                          mh_accept_counts=ledger, rw_step_final=rw_step)


# ------------------------------------------------------------ configuration

def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """The ``key = value`` lines of ``text``; ConfigError, naming ``origin``
    and the line, for a line that is not one or a key set twice."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # the line that set each key
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
        if key in first:
            raise ConfigError(f"{origin}:{lineno}: {key} is set again (first at line {first[key]})")
        first[key] = lineno
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


# The parsers of the rows of KEYS: each reads the text of one value of ``key``.

def _kind(kind, expected: str):
    """The parser of a ``kind`` value, which its error calls ``expected``."""
    return lambda text, key: _parse(kind, text, key, expected)


def _choice(kind):
    """The parser of the ``kind`` member whose value a key holds."""
    return _kind(kind, " | ".join(m.value for m in kind))


# ``_text`` keeps the text as it is
_int, _float, _text = _kind(int, "an integer"), _kind(float, "a number"), _kind(str, "text")


def _items(text: str, key: str) -> tuple[str, ...]:
    """The comma-separated entries of ``text``, stripped, empty ones left out."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _ints(text: str, key: str) -> tuple[int, ...]:
    return tuple(_parse(int, v, key, "comma-separated integers") for v in text.split(","))


def _bool(text: str, key: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _pair(text: str, key: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'a, b', got {text!r}")
    return tuple(_parse(float, part, key, "'a, b'") for part in parts)


class Key(NamedTuple):
    """One row of KEYS: ``parse`` reads a value's text, ``(text, key) ->
    value``, and raises ConfigError when it cannot; ``help`` describes the
    key, with ``{}`` where it states ``default``. ``field`` is the
    ``ModelSpec`` or ``McmcSettings`` field the key sets, when it sets one
    by itself. ``default`` is the value, written as in a configuration, that
    the CLI uses when the key is not set; the model and run keys have none,
    as ``ModelSpec``, ``mult_spec``/``gp_spec`` and ``McmcSettings`` own theirs."""

    parse: Callable[[str, str], object]
    help: str
    field: str | None = None
    default: str | None = None


# Every key a configuration may set, in the order ``--help`` lists them; a
# last segment ``<group>`` or ``<k>`` stands for any one segment.
# ``cli._COMMANDS`` says which command reads each key.
KEYS = {
    "model.family": Key(_choice(Family), "mult_approach1 | mult_approach2 | gp (default {})",
                        default="mult_approach2"),
    "model.factors": Key(_int, "integer factor count (default 2)", "n_factors"),
    "model.gp_variant": Key(_int, "1..5 (gp family, default {})", "gp_variant", default="1"),
    "model.length_scale": Key(_float, "positive real (gp family, default 0.2)", "length_scale"),
    "model.product_var": Key(_float, "positive real (mult approach 1, default 1e-5)",
                             "product_var"),
    "model.slab_var_loading": Key(_float, "slab variance of the loadings (default 10)",
                                  "slab_var_loading"),
    "model.slab_var_inter": Key(_float, "slab variance of the interaction loadings (mult "
                                "families, default 10)", "slab_var_inter"),
    "model.noise_shape": Key(_float, "inverse-gamma shape (default 2.1)"),
    "model.noise_scale": Key(_float, "inverse-gamma scale (default 1.1)"),
    "model.load_prob_model": Key(_choice(LoadProbModel), "per_entry | grouped (one probability "
                                 "per entry | per group label)", "load_prob_model"),
    "model.inter_prob_model": Key(_choice(InterProbModel), "per_feature | global | grouped "
                                  "(global: one for all features)", "inter_prob_model"),
    "model.gamma": Key(_pair, 'default Beta pair for the loading probabilities, "a, b"'),
    "model.gamma.<group>": Key(_pair, "pair for one label (expected | excluded | unknown), else "
                               "the default"),
    "model.beta": Key(_pair, "default Beta pair for the interaction probabilities; global uses "
                      "it alone"),
    "model.beta.<group>": Key(_pair, "pair for one label (seed | unknown), else the default; not "
                              "for global"),
    "model.seed_group.<k>": Key(_items, "features of seed group k (1-based factor): each an id, "
                                "else an index"),
    "model.seed_constraints": Key(_bool, "true | false (default true)", "seed_constraints"),
    "model.include_interactions": Key(_bool, "true | false (default true)", "include_interactions"),
    "mcmc.iters": Key(_int, "total iterations (default 600)", "n_iters"),
    "mcmc.burn_in": Key(_int, "burn-in (default 400 mult / 300 gp)", "burn_in"),
    "mcmc.thin": Key(_int, "retention stride (default 1)", "thin"),
    "mcmc.seed": Key(_int, "integer seed (default 0)", "seed"),
    "mcmc.chains": Key(_int, "number of chains (default 1)", "n_chains"),
    "mcmc.rw_step": Key(_float, "initial MH step (gp, default 0.1)", "rw_step"),
    "paths.data": Key(_text, "data CSV"),
    "paths.truth": Key(_text, "truth bundle (compare)"),
    "paths.draws": Key(_items, "comma-separated draws bundles of one fit (summarize / detect / "
                       "export-surface)"),
    "simulate.features": Key(_int, "m (default {})", default="100"),
    "simulate.samples": Key(_int, "n (default {})", default="100"),
    "simulate.frac_affected": Key(_float, "fraction of candidates with effects (default {})",
                                  default="0.1"),
    "simulate.noise_scale": Key(_float, "noise standard deviation (default {})", default="1.0"),
    "detect.threshold": Key(_float, "posterior probability threshold (default {})", default="0.5"),
    "surface.feature": Key(_text, "feature id, else 0-based index"),
    "compare.specs": Key(_items, "comma-separated model config paths"),
    "overlap.population": Key(_int, "population size"),
    "overlap.counts": Key(_ints, "per-dataset counts, comma-separated"),
    "overlap.observed": Key(_int, "observed summed pairwise overlap"),
    "overlap.replicates": Key(_int, "replicates (default {})", default="100000"),
}
# the help text of every key, one line each
CONFIG_KEYS = "".join(f"\n{key:<25} {row.help.format(row.default)}"
                      for key, row in KEYS.items()) + "\n"
# the placeholder row of each head a placeholder segment follows
_OPEN = {key.rpartition(".")[0]: row for key, row in KEYS.items() if key.endswith(">")}


def _row(key: str) -> Key | None:
    """The row of ``key``: its own, else the placeholder row of its head;
    None for a key KEYS does not list."""
    head, _, last = key.rpartition(".")
    return KEYS.get(key) or (_OPEN.get(head) if last else None)


def value(cfg: Mapping[str, str], key: str):
    """The value of ``key`` in ``cfg``, parsed by its row of KEYS, else the
    row's default (None where it has none): the one reader of a key."""
    row = _row(key)
    text = cfg.get(key, row.default)
    return None if text is None else row.parse(text, key)


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


def spec_from_config(cfg: dict[str, str], data: DataMatrix | None = None) -> ModelSpec:
    """The model ``cfg`` describes, built once. Every model key it sets is
    read, and ``mult_spec``, ``gp_spec`` and ``ModelSpec`` supply every other
    value, so the spec's rules judge each key: a key of another family, such
    as ``model.product_var`` for the gp family, raises SpecConflict. Only the
    text of the seed-group keys is checked here (a group number outside
    1..``model.factors``, two keys of one group, a key that names no
    feature); the groups themselves are the spec's to judge."""
    family = value(cfg, "model.family")
    kwargs = {row.field: value(cfg, key) for key, row in KEYS.items()
              if row.field and key in cfg and key.partition(".")[0] == "model"}
    for key, name in (("model.gamma", "load_prob_prior"), ("model.beta", "inter_prob_prior")):
        default = {"default": value(cfg, key)} if key in cfg else {}
        groups = {k[len(key) + 1:]: value(cfg, k) for k in cfg if k.startswith(key + ".")}
        if default or groups:
            kwargs[name] = BetaTable(**default, groups=groups)
    # each noise key sets half of the pair
    noise = zip(("model.noise_shape", "model.noise_scale"), ModelSpec.noise_prior)
    kwargs["noise_prior"] = tuple(value(cfg, key) if key in cfg else half for key, half in noise)
    n_factors = kwargs.get("n_factors", ModelSpec.n_factors)
    seed_groups, group_keys = {}, {}  # group_keys: the key that names each group
    labels = None if data is None else data.feature_ids
    for key in cfg:
        if key.startswith("model.seed_group."):
            group = _parse(int, key.rsplit(".", 1)[1], key, "a 1-based factor number")
            if not 1 <= group <= n_factors:
                raise ConfigError(f"{key}: seed group {group} outside 1..{n_factors} "
                                  f"(model.factors = {n_factors})")
            if group in group_keys:
                raise ConfigError(f"{group_keys[group]} and {key} both name seed group {group}")
            group_keys[group] = key
            seed_groups[group - 1] = frozenset(feature_index(token, labels, key)
                                               for token in value(cfg, key))
            if not seed_groups[group - 1]:
                raise ConfigError(f"{key}: names no feature")
    kwargs["seed_groups"] = seed_groups or None
    if family is Family.GP:
        return gp_spec(kwargs.pop("gp_variant", value(cfg, "model.gp_variant")), **kwargs)
    return mult_spec(1 if family is Family.MULT_APPROACH1 else 2, **kwargs)


def settings_from_config(cfg: dict[str, str]) -> McmcSettings:
    return McmcSettings(**{row.field: value(cfg, key) for key, row in KEYS.items()
                           if key in cfg and key.partition(".")[0] == "mcmc"})


def check_config_keys(cfg: dict[str, str], reader: str, required: Sequence[str],
                      reads: Sequence[str]) -> None:
    """ConfigError for the first fault of ``cfg`` given to ``reader`` (a
    command, or a spec file's path), which needs ``required`` and reads those
    and ``reads``, each a key or a section with no dot such as ``model``: a
    key KEYS does not list (where ``<group>`` stands for any one segment),
    then a key ``reader`` does not read, then a missing required key."""
    for key in cfg:
        if _row(key) is None:
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


def write_manifest(output_dir, command: str, config: dict, seed: int, wall_s: float,
                   inputs=(), digests=None, chains=None) -> dict:
    """Write ``manifest.json`` into ``output_dir`` and return what it holds:
    the resolved configuration, the run environment, the run's footprint
    (its wall time ``wall_s``, the peak RSS so far and, when ``chains`` is
    given, the ``Chain.profile`` of each chain it ran), a checksum for every
    other file in ``output_dir`` (the run's artifacts, in name order) and one
    for every file in ``inputs`` the run read, each listed once under the
    path it was given by. ``digests`` maps paths (as ``str``) to a sha256 the
    run already took of the whole file, as a ``DrawsWriter`` or
    ``open_draws`` does; those files are not read again."""
    output_dir = Path(output_dir)
    digests = digests or {}
    entries = [_file_entry(output_dir / name, name, digests.get(str(output_dir / name)))
               for name in sorted(p.name for p in output_dir.iterdir()) if name != MANIFEST]
    manifest = {"command": command, "config": config, "seed": seed, "artifacts": entries,
                "inputs": [_file_entry(name, name, digests.get(name))
                           for name in dict.fromkeys(map(str, inputs))],
                "environment": _run_environment(),
                "run": {"wall_s": wall_s, "peak_rss_mb": _peak_rss_mb()}}
    if chains is not None:
        manifest["run"]["chains"] = chains
    (output_dir / MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    return manifest


def verify_manifest(output_dir) -> bool:
    """Whether every artifact the manifest in ``output_dir`` lists is there
    with the checksum it records."""
    output_dir = Path(output_dir)
    manifest = json.loads((output_dir / MANIFEST).read_text(encoding="utf-8"))
    return all((output_dir / entry["path"]).is_file()
               and sha256_file(output_dir / entry["path"]) == entry["sha256"]
               for entry in manifest["artifacts"])


@contextmanager
def landing(output_dir):
    """The one way a run's files reach ``output_dir``: the block writes them
    into the staging directory it is given, ``.factorint.<pid>.tmp`` inside
    ``output_dir``. When the block ends without an exception, each file is
    moved into ``output_dir`` with ``os.replace``, in name order and
    ``manifest.json`` last; either way the staging directory is then
    removed, so a failed run leaves ``output_dir`` as it was."""
    output_dir = Path(output_dir)
    stage = output_dir / f".factorint.{os.getpid()}.tmp"
    shutil.rmtree(stage, ignore_errors=True)  # left by a killed process of this pid
    stage.mkdir()
    try:
        yield stage
        for path in sorted(stage.iterdir(), key=lambda p: (p.name == MANIFEST, p.name)):
            os.replace(path, output_dir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
