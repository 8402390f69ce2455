import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_collection
from loramerge.adapters import (
    LoraAdapter,
    delta_weight,
    load_collection,
    read_container,
    save_collection,
)
from loramerge.checks import CodedError
from loramerge.rng import substream


def _meta(header, **fields):
    """The header with fields replaced in task0/l0's adapter metadata."""
    header["adapters"]["task0"]["l0"].update(fields)
    return header


class TestLoraAdapter:
    def test_scale(self):
        ad = LoraAdapter("t", "l", np.zeros((4, 2)), np.zeros((3, 2)), rank=2,
                         lora_alpha=16.0)
        assert ad.scale == 8.0

    def test_delta_weight(self):
        gen = substream(0, "ad")
        b, a = gen.standard_normal((5, 2)), gen.standard_normal((4, 2))
        ad = LoraAdapter("t", "l", b, a, rank=2, lora_alpha=4.0)
        assert np.allclose(delta_weight(ad), 2.0 * b @ a.T)

    @pytest.mark.parametrize(
        "b_shape,a_shape,rank",
        [((4, 2), (3, 3), 2), ((4, 2), (3, 2), 5), ((4, 2), (3, 2), 0)],
    )
    def test_rejects_bad_shapes(self, b_shape, a_shape, rank):
        with pytest.raises(ValueError):
            LoraAdapter("t", "l", np.zeros(b_shape), np.zeros(a_shape), rank=rank)

    def test_rejects_nonfinite(self):
        b = np.zeros((4, 2))
        b[0, 0] = np.inf
        with pytest.raises(ValueError):
            LoraAdapter("t", "l", b, np.zeros((3, 2)), rank=2)


class TestCollection:
    def test_validates_task_order(self):
        coll = random_collection(seed=5)
        coll.adapters["l0"] = coll.adapters["l0"][::-1]
        with pytest.raises(ValueError):
            coll.validate()


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        coll = random_collection(seed=8, n_tasks=2, d=6, m=5, rank=3)
        path = tmp_path / "c.lmk"
        save_collection(coll, path)
        loaded = load_collection(path)
        assert loaded.layer_ids == coll.layer_ids
        assert loaded.task_ids == coll.task_ids
        # float32 payload: loading what was saved must match the f32 cast exactly
        for layer in coll.layer_ids:
            assert np.array_equal(
                loaded.base[layer], coll.base[layer].astype("<f4").astype(np.float64)
            )
            for got, want in zip(loaded.adapters[layer], coll.adapters[layer]):
                assert np.array_equal(got.b, want.b.astype("<f4").astype(np.float64))
                assert got.rank == want.rank
                assert got.lora_alpha == want.lora_alpha

    def test_second_save_identical_bytes(self, tmp_path):
        coll = random_collection(seed=9)
        p1, p2 = tmp_path / "a.lmk", tmp_path / "b.lmk"
        save_collection(coll, p1)
        save_collection(load_collection(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_tensors_round_trip_with_dtype(self, tmp_path):
        coll = random_collection(seed=10, n_tasks=2, layers=("l0",), d=6, m=5)
        gen = substream(10, "extra")
        extra = {
            "x/f64": gen.standard_normal((3, 4)),
            "x/i64": gen.integers(-2**40, 2**40, 7),
            "x/f32": gen.standard_normal(5).astype(np.float32),
        }
        p = tmp_path / "c.lmk"
        save_collection(coll, p, extra)
        loaded, got = read_container(p)
        assert loaded.task_ids == coll.task_ids
        assert got.keys() == extra.keys()
        for key, want in extra.items():
            assert got[key].dtype == want.dtype and got[key].tobytes() == want.tobytes()
            assert got[key].flags.writeable
        (hdr_len,) = struct.unpack("<I", p.read_bytes()[4:8])
        header = json.loads(p.read_bytes()[8 : 8 + hdr_len])
        keys = [rec["key"] for rec in header["tensors"]]
        assert keys[-3:] == sorted(extra)  # after the collection's own tensors
        assert [rec["dtype"] for rec in header["tensors"][-3:]] == ["f32", "f64", "i64"]
        assert {rec["dtype"] for rec in header["tensors"][:-3]} == {"f32"}
        assert load_collection(p).task_ids == coll.task_ids

    @pytest.mark.parametrize(
        "extra,code",
        [({"__base__/l0/W": np.zeros((6, 5))}, "duplicate_key"),
         ({"task1/l0/A": np.zeros((5, 2))}, "duplicate_key"),
         ({"x": np.zeros(3, dtype=np.int32)}, "bad_dtype"),
         ({"x": np.zeros(3, dtype=bool)}, "bad_dtype")],
        ids=["base", "adapter", "int32", "bool"],
    )
    def test_extra_tensors_refused(self, tmp_path, extra, code):
        coll = random_collection(seed=10, n_tasks=2, layers=("l0",), d=6, m=5)
        with pytest.raises(CodedError) as exc:
            save_collection(coll, tmp_path / "c.lmk", extra)
        assert exc.value.code == code

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.lmk"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == "bad_magic"

    def test_truncated(self, tmp_path):
        coll = random_collection(seed=10)
        p = tmp_path / "x.lmk"
        save_collection(coll, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == "truncated"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.lmk"
        hdr = b"{not json"
        p.write_bytes(b"LMK1" + struct.pack("<I", len(hdr)) + hdr)
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == "bad_header"

    def test_size_mismatch(self, tmp_path):
        coll = random_collection(seed=11)
        p = tmp_path / "x.lmk"
        save_collection(coll, p)
        blob = bytearray(p.read_bytes())
        (hdr_len,) = struct.unpack("<I", blob[4:8])
        header = blob[8 : 8 + hdr_len].decode()
        # corrupt a declared shape
        header = header.replace('"shape":[8,6]', '"shape":[8,7]', 1)
        p.write_bytes(b"LMK1" + struct.pack("<I", len(header)) + header.encode()
                      + bytes(blob[8 + hdr_len:]))
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == "size_mismatch"

    @pytest.mark.parametrize(
        "mutate,code",
        [
            (lambda h: {k: v for k, v in h.items() if k != "tensors"}, "missing_field"),
            (lambda h: [h], "bad_header"),
            (lambda h: {**h, "version": 99}, "bad_version"),
            (lambda h: {**h, "tensors": [{**h["tensors"][0], "offset": -4}]
                        + h["tensors"][1:]}, "bad_tensor"),
            (lambda h: {**h, "tensors": [{**h["tensors"][0], "dtype": "f16"}]
                        + h["tensors"][1:]}, "bad_dtype"),
            (lambda h: {**h, "tensors": h["tensors"][:1] + [{**h["tensors"][1], "offset": 0}]
                        + h["tensors"][2:]}, "overlap"),
            (lambda h: {**h, "adapters": {}}, "missing_field"),
            (lambda h: _meta(h, rank=3), "bad_adapter"),
            (lambda h: _meta(h, rank="2"), "bad_metadata"),
            (lambda h: _meta(h, lora_alpha="16"), "bad_metadata"),
            (lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [6, 8]}]
                        + h["tensors"][1:]}, "bad_collection"),
            (lambda h: {**h, "task_order": ["task0", "task0", "task2"]}, "bad_collection"),
        ],
        ids=["no_tensors", "list", "version", "negative_offset", "dtype", "overlap",
             "no_adapter_meta", "rank", "rank_string", "alpha_string", "base_shape",
             "duplicate_task"],
    )
    def test_header_errors_are_coded(self, tmp_path, mutate, code):
        p = tmp_path / "x.lmk"
        save_collection(random_collection(seed=12), p)
        blob = p.read_bytes()
        (hdr_len,) = struct.unpack("<I", blob[4:8])
        header = json.dumps(mutate(json.loads(blob[8 : 8 + hdr_len]))).encode()
        p.write_bytes(b"LMK1" + struct.pack("<I", len(header)) + header
                      + blob[8 + hdr_len:])
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == code

    @pytest.mark.parametrize("key", ["__base__/l0/W", "task1/l1/A"], ids=["base", "adapter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_payload_is_coded(self, tmp_path, key, value):
        p = tmp_path / "x.lmk"
        save_collection(random_collection(seed=12), p)
        blob = bytearray(p.read_bytes())
        (hdr_len,) = struct.unpack("<I", blob[4:8])
        (rec,) = [r for r in json.loads(blob[8 : 8 + hdr_len])["tensors"] if r["key"] == key]
        at = 8 + hdr_len + rec["offset"] + 4
        blob[at : at + 4] = struct.pack("<f", value)
        p.write_bytes(bytes(blob))
        with pytest.raises(CodedError) as exc:
            load_collection(p)
        assert exc.value.code == "non_finite"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_mutation_loads_or_raises_container_error(self, data):
        """Any one-byte replacement, insertion or deletion of a valid container
        either loads or raises a coded CodedError, and nothing else."""
        import tempfile
        from pathlib import Path

        coll = random_collection(seed=13, n_tasks=2, layers=("l0",), d=6, m=5, rank=2)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "c.lmk"
            save_collection(coll, p)
            blob = p.read_bytes()
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="kind")
            byte = b"" if kind == "delete" else bytes([data.draw(st.integers(0, 255))])
            p.write_bytes(blob[:pos] + byte + blob[pos + (kind != "insert"):])
            try:
                load_collection(p)
            except CodedError as exc:
                assert exc.code is not None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_any_seed(self, seed):
        import tempfile
        from pathlib import Path

        coll = random_collection(seed=seed, n_tasks=2, layers=("l0",), d=4, m=3,
                                 rank=2)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "c.lmk"
            save_collection(coll, p)
            loaded = load_collection(p)
            save_collection(loaded, p)
            assert np.array_equal(load_collection(p).base["l0"], loaded.base["l0"])
