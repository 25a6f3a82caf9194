"""Binary named-tensor container.

Layout (all integers little-endian):
    magic          4 bytes  "XFMR"
    version        u32      1 = tensors only, 2 = tensors plus run config
    entry count    u32
    v2 only:       config_len u32, config utf-8 (`emit_config` text of the
                   RunConfig that built the tensors)
    per entry:     name_len u32, name utf-8, dtype u8 (0=f32, 1=f64),
                   rank u8 (at most 32), extents u64 * rank, row-major payload
    trailer        u32 CRC32 of every preceding byte

`save_checkpoint` writes version 2 only when given a config, so weight-only
files stay byte-identical to version 1. It checks every entry before it
opens the file, so a refused save writes nothing, and then streams each
header piece and payload straight to the file with a running CRC.

`read_checkpoint` streams too: it reads the header fields with small reads
and each payload straight into its own freshly allocated array, so no second
copy of the weights exists. Before allocating a payload it checks that the
file still holds that many bytes. The CRC is checked before anything is
returned. Errors come in this order: a file shorter than 16 bytes, bad
magic, a CRC mismatch, then the first malformed field, so a parse error
that corruption caused is reported as a CRC mismatch. Any malformed file
raises `CheckpointError`.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .config import RunConfig, emit_config

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "read_checkpoint", "MAGIC",
           "FORMAT_VERSION"]

MAGIC = b"XFMR"
FORMAT_VERSION = 2
MAX_RANK = 32

_DTYPE_CODES = {"f": 0, "d": 1}  # by dtype.char, which is the same in either byte order
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_BYTES = np.iinfo(np.intp).max


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path: str | Path, entries: dict[str, np.ndarray],
                    config: RunConfig | None = None) -> None:
    """Write ``entries``; with ``config``, also record the run config (version 2)."""
    names = list(entries)
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate tensor names")
    arrays = {}
    for name in names:
        arr = np.asarray(entries[name])
        if arr.dtype.char not in _DTYPE_CODES:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
        if arr.ndim > MAX_RANK:
            raise CheckpointError(f"{name}: rank {arr.ndim} exceeds {MAX_RANK}")
        arrays[name] = arr
    header = MAGIC + struct.pack("<II", 1 if config is None else FORMAT_VERSION, len(names))
    if config is not None:
        text = emit_config(config).encode("utf-8")
        header += struct.pack("<I", len(text)) + text
    with open(path, "wb") as f:
        crc = 0

        def write(data) -> None:
            nonlocal crc
            f.write(data)
            crc = zlib.crc32(data, crc)

        write(header)
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            write(struct.pack("<I", len(encoded)) + encoded
                  + struct.pack(f"<BB{arr.ndim}Q", _DTYPE_CODES[arr.dtype.char], arr.ndim, *arr.shape))
            write(_bytes_of(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))))
        f.write(struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    return read_checkpoint(path)[0]


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str | None]:
    """Return the tensors and the stored config text (None for version 1)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 16:
            raise CheckpointError("file too short to be a checkpoint")
        body = _Body(f, size - 4)
        magic = body.read(4, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        try:
            result, error = _parse(body), None
        except CheckpointError as exc:
            result, error = None, exc
        body.check_crc()
    if error is not None:
        raise error
    return result


def _parse(body: _Body) -> tuple[dict[str, np.ndarray], str | None]:
    version, count = body.unpack("<II", "header")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"unsupported format version {version}")
    config = None
    if version == FORMAT_VERSION:
        (config_len,) = body.unpack("<I", "config length")
        config = body.text(config_len, "config")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = body.unpack("<I", "name length")
        name = body.text(name_len, "tensor name")
        code, rank = body.unpack("<BB", f"{name}: dtype and rank")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{name}: unknown dtype code {code}")
        if rank > MAX_RANK:
            raise CheckpointError(f"{name}: rank {rank} exceeds {MAX_RANK}")
        shape = body.unpack(f"<{rank}Q", f"{name}: extents")
        dtype = _CODE_DTYPES[code]
        if math.prod(e for e in shape if e) * dtype.itemsize > _MAX_BYTES:
            raise CheckpointError(f"{name}: extents {shape} are too large")
        arr = body.array(shape, dtype, f"{name}: payload")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        out[name] = arr
    if body.left:
        raise CheckpointError("trailing bytes after last entry")
    return out, config


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a C-contiguous array."""
    return arr.reshape(-1).view(np.uint8)


class _Body:
    """Reads the body (every byte before the CRC trailer) in order, never past
    its end, and keeps the CRC of the bytes read so far."""

    def __init__(self, f, size: int):
        self.f, self.left, self.crc = f, size, 0

    def _claim(self, n: int, what: str) -> None:
        """Check that ``n`` more bytes remain, before reading or allocating them."""
        if n > self.left:
            raise CheckpointError(f"{what}: truncated")

    def _took(self, data, n: int, what: str) -> None:
        if len(data) != n:
            raise CheckpointError(f"{what}: truncated")
        self.left -= n
        self.crc = zlib.crc32(data, self.crc)

    def read(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        data = self.f.read(n)
        self._took(data, n, what)
        return data

    def array(self, shape: tuple[int, ...], dtype: np.dtype, what: str) -> np.ndarray:
        """Read the next payload straight into a new array of its own."""
        self._claim(math.prod(shape) * dtype.itemsize, what)
        arr = np.empty(shape, dtype)
        view = _bytes_of(arr)
        self._took(view[: self.f.readinto(view)], view.size, what)
        return arr

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.read(n, what), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{what}: invalid utf-8") from None

    def check_crc(self) -> None:
        """Read what the parse left and compare the CRC with the trailer."""
        while self.left:
            self.read(min(self.left, 1 << 20), "body")
        trailer = self.f.read(4)
        if len(trailer) != 4 or struct.unpack("<I", trailer)[0] != self.crc:
            raise CheckpointError("CRC mismatch: checkpoint is corrupted")
