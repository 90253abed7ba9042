"""Binary portable graymap (P5) files: 8- and 16-bit reading, 8-bit writing."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("expected a 2-d uint8 image")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header fields
    while pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """The image of a P5 file as uint8, its samples scaled from 0..maxval to
    0..255 with rounding; maxval above 255 means 16-bit big-endian samples."""
    data = Path(path).read_bytes()
    magic, pos = _read_header_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos)
        if not token.isdigit():
            raise ValueError(f"{path}: bad header field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if not 0 < maxval <= 65535:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval <= 255 else ">u2")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < width * height * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
    if pixels.size and pixels.max() > maxval:
        raise ValueError(f"{path}: sample {pixels.max()} above maxval {maxval}")
    if maxval != 255:
        pixels = (pixels.astype(np.uint32) * 255 + maxval // 2) // maxval
    return pixels.reshape(height, width).astype(np.uint8)
