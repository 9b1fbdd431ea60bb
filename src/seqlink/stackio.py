"""File formats: binary image stacks, truth and phase-raster CSVs, and run
manifests.

Stack container layout (little-endian, 28-byte header):
  magic "SLKSTACK" | version u16 | l u16 | height u32 | width u32 |
  dtype u8 (0 = complex64, 1 = complex128) | 7 reserved zero bytes
followed by l*height*width complex entries, interleaved (re, im), image-major
then row-major. Writing and re-reading reproduces entries bit-exactly.
"""
from __future__ import annotations

import struct
from array import array
from datetime import datetime, timezone

import numpy as np

from .raster import ImageStack, PhaseRaster

MAGIC = b"SLKSTACK"
STACK_VERSION = 1
_HEADER = struct.Struct("<8sHHIIB7s")
_DTYPE_CODES = {"complex64": 0, "complex128": 1}
_CODE_DTYPES = {0: np.complex64, 1: np.complex128}


def write_stack(path, stack: ImageStack, dtype: str = "complex128") -> None:
    if dtype not in _DTYPE_CODES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPE_CODES)}")
    code = _DTYPE_CODES[dtype]
    data = np.ascontiguousarray(stack.data.astype(_CODE_DTYPES[code]))
    header = _HEADER.pack(MAGIC, STACK_VERSION, stack.count, stack.height,
                          stack.width, code, b"\x00" * 7)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes(order="C"))


def read_stack(path) -> ImageStack:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated stack header")
    magic, version, l, height, width, code, reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: not a stack file (bad magic {magic!r})")
    if version != STACK_VERSION:
        raise ValueError(f"{path}: unsupported stack version {version}")
    if code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    if reserved != b"\x00" * 7:
        raise ValueError(f"{path}: nonzero reserved header bytes")
    dtype = np.dtype(_CODE_DTYPES[code]).newbyteorder("<")
    expected = l * height * width * dtype.itemsize
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype=dtype).reshape(l, height, width)
    return ImageStack(data)


def stack_file_dtype(path) -> str:
    """The stored element type name, without reading the payload."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size or not raw.startswith(MAGIC):
        raise ValueError(f"{path}: not a stack file")
    code = _HEADER.unpack(raw)[5]
    if code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    return np.dtype(_CODE_DTYPES[code]).name


# ---------------------------------------------------------------------------
# truth CSV


def write_truth_csv(path, angles: np.ndarray) -> None:
    """Per-date true phase angles (radians, wrapped on write)."""
    from .raster import wrap_angle

    lines = ["date,angle"]
    for date, angle in enumerate(np.asarray(angles, dtype=float)):
        lines.append(f"{date},{float(wrap_angle(angle))!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_truth_csv(path) -> np.ndarray:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "date,angle":
        raise ValueError(f"{path}: expected 'date,angle' header")
    angles = []
    for line in lines[1:]:
        date, angle = line.split(",")
        if int(date) != len(angles):
            raise ValueError(f"{path}: dates must be consecutive from 0")
        angles.append(float(angle))
    return np.array(angles)


# ---------------------------------------------------------------------------
# phase rasters (CSV and binary)


def write_phase_raster_csv(path, raster: PhaseRaster) -> None:
    """One line per pixel: row, col, then the per-date angles (nan = failed).

    Angles are written with repr, so they read back bit-exactly.
    """
    header = "row,col," + ",".join(f"angle_{i}" for i in range(raster.count))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in range(raster.height):
            angles = raster.data[:, row].T.tolist()
            fh.write("".join(f"{row},{col},{','.join(map(repr, values))}\n"
                             for col, values in enumerate(angles)))


def write_phase_raster_binary(path, raster: PhaseRaster) -> None:
    """Phase raster in the stack container, as unit phasors e^{i angle}.

    Failed pixels (NaN angles) stay NaN entries; angles survive a round trip
    exactly up to the phasor representation (< 1e-12 wrapped error).
    """
    write_stack(path, ImageStack(np.exp(1j * raster.data)))


def read_phase_raster(path) -> PhaseRaster:
    """Read a phase raster written by either writer (format auto-detected)."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        stack = read_stack(path)
        data = np.angle(stack.data)
        return PhaseRaster(data, failed=np.isnan(data).any(axis=0))
    cells = array("d")
    with open(path) as fh:
        header = next((line.strip() for line in fh if line.strip()), "")
        if not header.startswith("row,col,angle_0"):
            raise ValueError(f"{path}: not a phase raster file")
        width = header.count(",") + 1
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != width:
                if parts == [""]:
                    continue
                raise ValueError(f"{path}: malformed raster line {line.strip()!r}")
            cells.extend((int(parts[0]), int(parts[1])))
            cells.extend(map(float, parts[2:]))
    if not cells:
        raise ValueError(f"{path}: raster has no pixels")
    cells = np.frombuffer(cells).reshape(-1, width)
    rows, cols = cells[:, 0].astype(int), cells[:, 1].astype(int)
    height, width = rows.max() + 1, cols.max() + 1
    if (min(rows.min(), cols.min()) < 0
            or np.unique(rows * width + cols).size != height * width):
        raise ValueError(f"{path}: raster grid has missing pixels")
    data = np.empty((cells.shape[1] - 2, height, width))
    data[:, rows, cols] = cells[:, 2:].T
    return PhaseRaster(data, failed=np.isnan(data).any(axis=0))


# ---------------------------------------------------------------------------
# run manifests


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_manifest(path, command: str, entries: dict,
                   config_echo: dict | None = None) -> None:
    """Key=value run record, written before any result file.

    entries covers seeds and output paths; config_echo reproduces the parsed
    configuration under config.* keys so the job can be re-run verbatim.
    """
    from . import __version__

    lines = [
        "manifest_version=1",
        f"code_version={__version__}",
        f"command={command}",
        f"created_utc={utc_now()}",
    ]
    for key, value in entries.items():
        lines.append(f"{key}={value}")
    if config_echo:
        for key, value in config_echo.items():
            lines.append(f"config.{key}={value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def append_manifest(path, entries: dict) -> None:
    """Add completion metrics to an existing manifest."""
    with open(path, "a") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out


def manifest_path_for(out_path) -> str:
    return f"{out_path}.manifest.txt"
