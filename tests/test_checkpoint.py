import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfmr import RunConfig, emit_config, load_checkpoint, parse_config, save_checkpoint
from xfmr.checkpoint import MAGIC, CheckpointError, read_checkpoint


def sample_entries():
    rng = np.random.default_rng(0)
    return {
        "stage1.cel.kernel": rng.standard_normal((4, 4, 3, 8)).astype(np.float32),
        "stage1.block.norm.gamma": rng.standard_normal(16).astype(np.float64),
        "scalar": np.float32(3.25).reshape(()),
    }


def test_roundtrip_bitwise(tmp_path):
    path = tmp_path / "model.xfmr"
    entries = sample_entries()
    save_checkpoint(path, entries)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(entries)
    for name in entries:
        assert loaded[name].dtype == entries[name].dtype
        assert loaded[name].shape == entries[name].shape
        assert (loaded[name] == entries[name]).all()


def test_header_layout(tmp_path):
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"XFMR"
    version, count = struct.unpack_from("<II", raw, 4)
    assert (version, count) == (1, 1)
    name_len = struct.unpack_from("<I", raw, 12)[0]
    assert name_len == 1 and raw[16:17] == b"a"
    dtype_code, rank = struct.unpack_from("<BB", raw, 17)
    assert (dtype_code, rank) == (0, 1)
    (extent,) = struct.unpack_from("<Q", raw, 19)
    assert extent == 2
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    assert crc == zlib.crc32(raw[:-4])


def test_every_corrupted_byte_detected(tmp_path):
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    raw = bytearray(path.read_bytes())
    for pos in range(len(raw)):
        mutated = bytearray(raw)
        mutated[pos] ^= 0xFF
        path.write_bytes(bytes(mutated))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_flipped_header_byte_reports_crc_mismatch(tmp_path):
    """Corruption that also breaks the parse is still named as a CRC mismatch."""
    path = tmp_path / "m.xfmr"
    w = np.zeros((2, 3), dtype=np.float32)
    save_checkpoint(path, {"w": w}, config=RunConfig(classes=4))
    raw = path.read_bytes()
    payload_start = len(raw) - 4 - w.nbytes
    for pos in [*range(4, payload_start), len(raw) - 1]:
        mutated = bytearray(raw)
        mutated[pos] ^= 0xFF
        path.write_bytes(bytes(mutated))
        with pytest.raises(CheckpointError, match="^CRC mismatch"):
            load_checkpoint(path)
    path.write_bytes(b"XFMS" + raw[4:])
    with pytest.raises(CheckpointError, match="^bad magic"):
        load_checkpoint(path)


def test_huge_extent_refused_before_allocation(tmp_path):
    body = MAGIC + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w" + struct.pack("<BBQ", 0, 1, 2**60)
    body += b"\0" * 64
    path = tmp_path / "huge.xfmr"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="w: payload: truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_peak_memory_is_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(1)
    entries = {f"w{i}": rng.standard_normal((256, 1024)).astype(np.float32) for i in range(8)}
    entries["d"] = rng.standard_normal((64, 64))
    payload = sum(a.nbytes for a in entries.values())
    assert payload >= 8 << 20
    path = tmp_path / "big.xfmr"
    save_checkpoint(path, entries)
    del entries
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload
    assert sum(a.nbytes for a in loaded.values()) == payload


def test_loaded_arrays_own_aligned_writable_memory(tmp_path):
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, sample_entries())
    for name, arr in load_checkpoint(path).items():
        assert arr.flags.owndata and arr.flags.c_contiguous, name
        assert arr.flags.aligned and arr.flags.writeable, name
        assert arr.ctypes.data % arr.dtype.itemsize == 0, name


def test_rejected_save_writes_no_file(tmp_path):
    path = tmp_path / "m.xfmr"
    entries = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(3, dtype=np.int32)}
    with pytest.raises(CheckpointError):
        save_checkpoint(path, entries)
    assert not path.exists()


def test_duplicate_names_rejected(tmp_path):
    class Sneaky(dict):
        def __iter__(self):
            return iter(["x", "x"])

    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "m.xfmr", Sneaky(x=np.zeros(1, dtype=np.float32)))


@pytest.mark.parametrize("code", ["f4", "f8"])
def test_big_endian_array_saved_as_little_endian(tmp_path, code):
    values = np.arange(-3.0, 4.5, 0.75)
    big, little = tmp_path / "big.xfmr", tmp_path / "little.xfmr"
    save_checkpoint(big, {"w": values.astype(">" + code)})
    save_checkpoint(little, {"w": values.astype("<" + code)})
    assert big.read_bytes() == little.read_bytes()
    loaded = load_checkpoint(big)["w"]
    assert loaded.dtype == np.dtype("<" + code)
    assert (loaded == values).all()


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "m.xfmr", {"x": np.zeros(3, dtype=np.int32)})


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, sample_entries())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_model_weights_roundtrip(tmp_path):
    from xfmr import build_model, toy_spec

    model = build_model(replace(toy_spec(), classes=4), seed=3)
    entries = {name: p.data for name, p in model.named_parameters()}
    path = tmp_path / "toy.xfmr"
    save_checkpoint(path, entries)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(entries)
    assert all((loaded[k] == entries[k]).all() for k in entries)


def test_stored_config_roundtrip(tmp_path):
    cfg = RunConfig(variant="toy", classes=4, lr=1e-2, warmup=20, drop_path=0.0, seed=7)
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, sample_entries(), config=cfg)
    raw = path.read_bytes()
    assert struct.unpack_from("<III", raw, 4) == (2, 3, len(emit_config(cfg)))
    entries, text = read_checkpoint(path)
    assert parse_config(text) == cfg
    loaded = load_checkpoint(path)
    for name, arr in sample_entries().items():
        assert entries[name].dtype == loaded[name].dtype == arr.dtype
        assert (entries[name] == arr).all() and (loaded[name] == arr).all()


def test_v1_has_no_stored_config(tmp_path):
    path = tmp_path / "m.xfmr"
    save_checkpoint(path, sample_entries())
    assert read_checkpoint(path)[1] is None


def save_built(path, cfg, dtype=np.float32):
    """Save the seed model of ``cfg`` at ``dtype`` with ``cfg`` stored; returns its entries."""
    from xfmr import build_model, to_model_spec

    model = build_model(to_model_spec(cfg), seed=cfg.seed, dtype=dtype)
    entries = {name: p.data for name, p in model.named_parameters()}
    save_checkpoint(path, entries, config=cfg)
    return entries


@pytest.mark.parametrize("variant", ["toy", "tiny"])
def test_load_model_draws_nothing(tmp_path, monkeypatch, variant):
    import xfmr
    from xfmr import load_model
    from xfmr.layers import trunc_normal

    cfg = RunConfig(variant=variant)
    path = tmp_path / "m.xfmr"
    entries = save_built(path, cfg)

    def undrawn(rng, *args, **kwargs):
        assert rng is None, "load_model drew weights"
        return trunc_normal(rng, *args, **kwargs)

    for module in (xfmr.layers, xfmr.bias, xfmr.embed):
        monkeypatch.setattr(module, "trunc_normal", undrawn)
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("load_model made a generator"))
    model, loaded_cfg = load_model(path)
    monkeypatch.undo()
    assert loaded_cfg == cfg
    params = list(model.named_parameters())
    assert [name for name, _ in params] == list(entries)
    for name, p in params:
        assert p.data.dtype == entries[name].dtype and p.data.tobytes() == entries[name].tobytes(), name
    del model, params, entries


def test_load_model_refuses_other_dtype(tmp_path):
    from xfmr import load_model

    path = tmp_path / "m.xfmr"
    save_built(path, RunConfig(variant="toy"), dtype=np.float64)  # stores dtype = f32
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert str(exc.value) == ("checkpoint tensor cels.0.kernels.0 has dtype float64, the model built from "
                              "the checkpoint's stored config expects float32")


U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)


@st.composite
def raw_entry(draw):
    name = draw(st.binary(max_size=6))
    extents = draw(st.lists(st.one_of(st.integers(0, 3), U64), max_size=4))
    head = struct.pack("<I", draw(st.one_of(st.just(len(name)), U32))) + name
    head += struct.pack("<BB", draw(st.integers(0, 2)), draw(st.one_of(st.just(len(extents)), st.integers(0, 255))))
    head += struct.pack(f"<{len(extents)}Q", *extents)
    return head + draw(st.binary(max_size=48))


@st.composite
def crc_valid_file(draw):
    entries = draw(st.lists(raw_entry(), max_size=3))
    version = draw(st.one_of(st.sampled_from([1, 2]), U32))
    body = MAGIC + struct.pack("<II", version, draw(st.one_of(st.just(len(entries)), U32)))
    if version == 2:
        config = draw(st.binary(max_size=12))
        body += struct.pack("<I", draw(st.one_of(st.just(len(config)), U32))) + config
    body += b"".join(entries)
    cut = draw(st.integers(0, len(body)))
    body = draw(st.sampled_from([body, body[:cut]]))
    return body + struct.pack("<I", zlib.crc32(body))


def _load_or_reject(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=400, deadline=None)
@given(crc_valid_file())
def test_malformed_headers_raise_only_checkpoint_error(tmp_path_factory, raw):
    _load_or_reject(tmp_path_factory.getbasetemp() / "fuzz.xfmr", raw)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.binary(min_size=1, max_size=8)), min_size=1, max_size=4))
def test_mutated_files_raise_only_checkpoint_error(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "mutated.xfmr"
    save_checkpoint(path, sample_entries(), config=RunConfig(classes=4))
    body = bytearray(path.read_bytes()[:-4])
    for pos, data in edits:
        pos %= len(body)
        body[pos : pos + len(data)] = data
    _load_or_reject(path, bytes(body) + struct.pack("<I", zlib.crc32(body)))
