"""Per-layer LoRA adapter data model and bit-exact container storage.

An adapter holds factor matrices B (d x r) and A (m x r); its weight update
is scale * B @ A.T with scale = lora_alpha / rank, the standard training
convention. Collections group one base weight plus N task adapters per layer,
with a consistent task order across layers.

Storage is the LMK1 container: magic "LMK1", u32-LE header length, a UTF-8
JSON header describing tensors, then concatenated row-major little-endian
payloads of dtype f32, f64 or i64. Collection tensors are stored as f32, and
their round trips are bit-exact on the 32-bit payload; extra keyed tensors
written beside a collection keep their f64 or i64 values exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .checks import CodedError, is_integer, is_real

MAGIC = b"LMK1"
FORMAT_VERSION = 1
BASE_TASK_KEY = "__base__"
DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "i64": np.dtype("<i8")}
_DTYPE_CODES = {dt.name: code for code, dt in DTYPES.items()}


@dataclass(frozen=True)
class LoraAdapter:
    """One task's LoRA factors at one layer: update scale * b @ a.T, scale = lora_alpha / rank."""
    task_id: str
    layer_id: str
    b: np.ndarray          # (d, r)
    a: np.ndarray          # (m, r)
    rank: int
    lora_alpha: float = 16.0
    dropout_meta: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        where = f"{self.task_id}/{self.layer_id}"
        if b.ndim != 2 or a.ndim != 2:
            raise CodedError(f"{where}: adapter factors must be 2-D", code="bad_adapter")
        if b.shape[1] != self.rank or a.shape[1] != self.rank:
            raise CodedError(f"{where}: factor columns must equal rank {self.rank}: "
                             f"B {b.shape}, A {a.shape}", code="bad_adapter")
        if self.rank < 1 or self.rank > min(b.shape[0], a.shape[0]):
            raise CodedError(f"{where}: rank {self.rank} outside [1, min(d, m)]",
                             code="bad_adapter")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
            raise CodedError(f"{where}: adapter factors contain non-finite entries",
                             code="bad_adapter")

    @property
    def scale(self) -> float:
        return self.lora_alpha / self.rank


@dataclass(frozen=True)
class Rank1Direction:
    """One rank-1 component sigma * left @ right^T of an update."""

    owner_task: int
    owner_rank: int
    left: np.ndarray    # (d,)
    right: np.ndarray   # (m,)
    sigma: float = 1.0

    def matrix(self) -> np.ndarray:
        return self.sigma * np.outer(self.left, self.right)


def delta_weight(ad: LoraAdapter) -> np.ndarray:
    """Scaled low-rank update scale * B @ A.T, shape (d, m)."""
    return ad.scale * (ad.b @ ad.a.T)


@dataclass(frozen=True)
class FactorStack:
    """Rank-1 columns sigma_k * left[:, k] @ right[:, k]^T of one layer, grouped
    by owning task in ascending order."""

    left: np.ndarray    # (d, K)
    right: np.ndarray   # (m, K)
    sigma: np.ndarray   # (K,)
    owner: np.ndarray   # (K,) owning task of each column

    @property
    def directions(self) -> list[Rank1Direction]:
        """Read-only per-column view of the stack; owner_rank is a column's index
        within its owner's columns."""
        owner_rank = np.arange(self.owner.size) - np.searchsorted(self.owner, self.owner)
        return [
            Rank1Direction(int(o), int(j), self.left[:, k], self.right[:, k], float(s))
            for k, (o, j, s) in enumerate(zip(self.owner, owner_rank, self.sigma))
        ]

    def project(self, g: np.ndarray) -> np.ndarray:
        """<G, sigma_k left_k right_k^T>_F = sigma_k * left_k^T G right_k per column,
        (..., d, m) -> (..., K); each (d, m) slice gets its own GEMM, so its bits
        do not depend on the leading axes."""
        return self.sigma * np.sum(self.left * (g @ self.right), axis=-2)


def rank1_stack(adapters: list[LoraAdapter], scaled: bool = False) -> FactorStack:
    """Columns b_j a_j^T of every adapter, task-major. With scaled=True each
    column carries its adapter's scale, so the columns sum to the updates."""
    return FactorStack(
        left=np.hstack([ad.b for ad in adapters]),
        right=np.hstack([ad.a for ad in adapters]),
        sigma=np.concatenate(
            [np.full(ad.rank, ad.scale if scaled else 1.0) for ad in adapters]
        ),
        owner=np.repeat(np.arange(len(adapters)), [ad.rank for ad in adapters]),
    )


@dataclass
class AdapterCollection:
    """Base weights plus one adapter per (task, layer); immutable after load."""

    layer_ids: list[str]
    task_ids: list[str]
    base: dict[str, np.ndarray] = field(default_factory=dict)
    adapters: dict[str, list[LoraAdapter]] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(set(self.layer_ids)) != len(self.layer_ids):
            raise CodedError("duplicate layer ids", code="bad_collection")
        if len(set(self.task_ids)) != len(self.task_ids):
            raise CodedError("duplicate task ids", code="bad_collection")
        for layer in self.layer_ids:
            if layer not in self.base:
                raise CodedError(f"missing base weight for layer {layer!r}", code="bad_collection")
            w0 = np.asarray(self.base[layer], dtype=np.float64)
            if w0.ndim != 2:
                raise CodedError(f"base weight of layer {layer!r} has shape {w0.shape}",
                                 code="bad_collection")
            self.base[layer] = w0
            ads = self.adapters.get(layer, [])
            if [ad.task_id for ad in ads] != self.task_ids:
                raise CodedError(f"layer {layer!r} task order differs from collection task "
                                 "order", code="bad_collection")
            d, m = w0.shape
            for ad in ads:
                if ad.b.shape[0] != d or ad.a.shape[0] != m:
                    raise CodedError(f"adapter {ad.task_id}/{layer} shape mismatch with base "
                                     f"{w0.shape}", code="bad_collection")

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)


def _tensor_entries(coll: AdapterCollection):
    """Deterministic tensor order: base weights first, then adapters by (layer, task)."""
    for layer in coll.layer_ids:
        yield f"{BASE_TASK_KEY}/{layer}/W", "f32", coll.base[layer], None
    for layer in coll.layer_ids:
        for ad in coll.adapters[layer]:
            yield f"{ad.task_id}/{layer}/B", "f32", ad.b, ad
            yield f"{ad.task_id}/{layer}/A", "f32", ad.a, ad


def save_collection(coll: AdapterCollection, path, extra: dict | None = None):
    """Write coll as f32 tensors, then each extra keyed tensor in sorted key
    order with its own dtype (float32, float64 or int64)."""
    entries = list(_tensor_entries(coll))
    extra = extra or {}
    clash = sorted(set(extra) & {key for key, *_ in entries})
    if clash:
        raise CodedError(f"extra tensors clash with collection keys {clash}",
                         code="duplicate_key")
    for key in sorted(extra):
        arr = np.asarray(extra[key])
        if arr.dtype.name not in _DTYPE_CODES:
            raise CodedError(f"{key}: cannot store dtype {arr.dtype}", code="bad_dtype")
        entries.append((key, _DTYPE_CODES[arr.dtype.name], arr, None))
    tensors, meta, offset = [], {}, 0
    for key, code, arr, ad in entries:
        length = DTYPES[code].itemsize * arr.size
        tensors.append({"key": key, "dtype": code, "shape": list(arr.shape),
                        "offset": offset, "length": length})
        offset += length
        if ad is not None:
            meta.setdefault(ad.task_id, {})[ad.layer_id] = {
                "rank": ad.rank,
                "lora_alpha": ad.lora_alpha,
                "dropout": ad.dropout_meta,
            }
    header = {
        "version": FORMAT_VERSION,
        "layer_order": coll.layer_ids,
        "task_order": coll.task_ids,
        "tensors": tensors,
        "adapters": meta,
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(hdr)))
        fh.write(hdr)
        for _, code, arr, _ in entries:  # one converted tensor at a time
            fh.write(np.ascontiguousarray(arr, dtype=DTYPES[code]).data)


def _check_header(header, payload_len: int) -> None:
    """Validate the whole LMK1 header before any tensor is read."""
    if not isinstance(header, dict):
        raise CodedError("header must be a JSON object", code="bad_header")
    for name, kind in (("version", int), ("layer_order", list), ("task_order", list),
                       ("tensors", list), ("adapters", dict)):
        if name not in header:
            raise CodedError(f"header has no {name!r}", code="missing_field")
        if type(header[name]) is not kind:
            raise CodedError(f"{name!r} must be {kind.__name__}", code="bad_header")
    if header["version"] != FORMAT_VERSION:
        raise CodedError(f"unsupported version {header['version']}", code="bad_version")
    if not all(isinstance(i, str) for i in header["layer_order"] + header["task_order"]):
        raise CodedError("layer and task ids must be strings", code="bad_header")
    spans: dict[str, tuple[int, int]] = {}
    for rec in header["tensors"]:
        if not (isinstance(rec, dict) and isinstance(rec.get("key"), str)
                and isinstance(rec.get("shape"), list)
                and all(is_integer(n) and n >= 0
                        for n in [*rec["shape"], rec.get("offset"), rec.get("length")])):
            raise CodedError(f"malformed tensor record {rec!r}", code="bad_tensor")
        key = rec["key"]
        if key in spans:
            raise CodedError(key, code="duplicate_key")
        if not (isinstance(rec.get("dtype"), str) and rec["dtype"] in DTYPES):
            raise CodedError(f"{key}: unsupported dtype {rec.get('dtype')!r}", code="bad_dtype")
        size = DTYPES[rec["dtype"]].itemsize
        if rec["length"] != size * math.prod(rec["shape"]):
            raise CodedError(f"{key}: header declares shape {rec['shape']} but payload "
                             f"holds {rec['length'] // size} values", code="size_mismatch")
        if rec["offset"] + rec["length"] > payload_len:
            raise CodedError(f"{key}: payload extends past end of file", code="truncated")
        spans[key] = (rec["offset"], rec["offset"] + rec["length"])
    ordered = sorted((start, end, key) for key, (start, end) in spans.items())
    for (_, end, prev), (start, _, key) in zip(ordered, ordered[1:]):
        if start < end:
            raise CodedError(f"{key} overlaps {prev}", code="overlap")
    meta = header["adapters"]
    for task in header["task_order"]:
        for layer in header["layer_order"]:
            m = meta[task].get(layer) if isinstance(meta.get(task), dict) else None
            if not (isinstance(m, dict) and {"rank", "lora_alpha", "dropout"} <= m.keys()):
                raise CodedError(f"no adapter metadata for {task}/{layer}",
                                 code="missing_field")
            if not (is_integer(m["rank"]) and is_real(m["lora_alpha"])
                    and is_real(m["dropout"])):
                raise CodedError(f"{task}/{layer}: rank must be an integer, lora_alpha and "
                                 f"dropout finite numbers, got {m!r}", code="bad_metadata")


def read_container(path) -> tuple[AdapterCollection, dict[str, np.ndarray]]:
    """Validate and read an LMK1 file: its collection, and every other tensor
    by key with its stored dtype."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CodedError(f"expected {MAGIC!r}, got {blob[:4]!r}", code="bad_magic")
    if len(blob) < 8:
        raise CodedError("file shorter than header length field", code="truncated")
    (hdr_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hdr_len:
        raise CodedError("header extends past end of file", code="truncated")
    try:
        header = json.loads(blob[8 : 8 + hdr_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodedError(str(exc), code="bad_header") from exc
    payload = memoryview(blob)[8 + hdr_len :]
    _check_header(header, len(payload))

    arrays: dict[str, np.ndarray] = {}
    for rec in header["tensors"]:
        raw = payload[rec["offset"] : rec["offset"] + rec["length"]]
        arr = np.frombuffer(raw, dtype=DTYPES[rec["dtype"]]).reshape(rec["shape"])
        if not np.all(np.isfinite(arr)):
            raise CodedError(f"{rec['key']} holds NaN or infinite values", code="non_finite")
        arrays[rec["key"]] = arr

    layer_ids = header["layer_order"]
    task_ids = header["task_order"]
    own = set()
    base = {}
    adapters: dict[str, list[LoraAdapter]] = {l: [] for l in layer_ids}
    for layer in layer_ids:
        bkey = f"{BASE_TASK_KEY}/{layer}/W"
        if bkey not in arrays:
            raise CodedError(f"missing base tensor {bkey}", code="size_mismatch")
        own.add(bkey)
        base[layer] = arrays[bkey].astype(np.float64)
        for task in task_ids:
            keys = (f"{task}/{layer}/B", f"{task}/{layer}/A")
            try:
                b, a = (arrays[key].astype(np.float64) for key in keys)
            except KeyError as exc:
                raise CodedError(f"missing tensor {exc}", code="size_mismatch") from exc
            own.update(keys)
            m = header["adapters"][task][layer]
            adapters[layer].append(
                LoraAdapter(
                    task_id=task,
                    layer_id=layer,
                    b=b,
                    a=a,
                    rank=m["rank"],
                    lora_alpha=float(m["lora_alpha"]),
                    dropout_meta=float(m["dropout"]),
                )
            )
    coll = AdapterCollection(
        layer_ids=layer_ids, task_ids=task_ids, base=base, adapters=adapters
    )
    return coll, {k: arr.copy() for k, arr in arrays.items() if k not in own}


def load_collection(path) -> AdapterCollection:
    """The collection of an LMK1 file; any other tensors are read and dropped."""
    return read_container(path)[0]
