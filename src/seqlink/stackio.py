"""File formats: binary image stacks, truth and phase-raster CSVs, and run
manifests.

Stack container layout (little-endian, 28-byte header):
  magic "SLKSTACK" | version u16 | l u16 | height u32 | width u32 |
  dtype u8 (0 = complex64, 1 = complex128) | 7 reserved zero bytes
followed by l*height*width complex entries, interleaved (re, im), image-major
then row-major. write_stack writes complex128 only, so writing and re-reading
reproduces entries bit-exactly. read_stack also reads complex64 (as other
programs may write it), widened exactly; it reads a complex128 payload
straight into the array it returns, holding no second copy of the entries.

A phase raster is stored either as CSV or in the stack container as unit
phasors; read_phase_raster tells the two apart by the magic bytes. Both keep
a failed pixel as NaN angles, which is all that marks it failed (see
raster.PhaseRaster.failed); the other per-pixel grids are not stored.
"""
from __future__ import annotations

import os
import struct
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .raster import ImageStack, PhaseRaster, wrap_angle

MAGIC = b"SLKSTACK"
STACK_VERSION = 1
_HEADER = struct.Struct("<8sHHIIB7s")
_CODE_DTYPES = {0: np.complex64, 1: np.complex128}


def write_stack(path, stack: ImageStack) -> None:
    # one copy at most (none for a C-ordered stack), written straight from
    # the array's buffer
    data = np.ascontiguousarray(stack.data, dtype=np.complex128)
    header = _HEADER.pack(MAGIC, STACK_VERSION, stack.count, stack.height,
                          stack.width, 1, b"\x00" * 7)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)


def read_stack(path) -> ImageStack:
    """The stack in a stack file, read straight into a new array that the
    caller owns and may write to (complex64 entries are widened).

    The header is checked, and the payload size against the file size,
    before the array is allocated.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated stack header")
        magic, version, l, height, width, code, reserved = _HEADER.unpack(head)
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
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise ValueError(
                f"{path}: payload holds {size} bytes, expected {expected}")
        data = np.empty((l, height, width), dtype=dtype)
        size = fh.readinto(data)
        if size != expected:  # the file shrank after fstat
            raise ValueError(
                f"{path}: payload holds {size} bytes, expected {expected}")
    return ImageStack(data)


# ---------------------------------------------------------------------------
# truth CSV


def write_truth_csv(path, angles: np.ndarray) -> None:
    """Per-date true phase angles (radians, wrapped on write)."""
    lines = ["date,angle"]
    for date, angle in enumerate(np.asarray(angles, dtype=float)):
        lines.append(f"{date},{float(wrap_angle(angle))!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_truth_csv(path) -> np.ndarray:
    """The angles of a truth CSV; a parse error names the file and the line
    (blank lines are skipped but counted)."""
    with open(path) as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, 1)
                 if line.strip()]
    n, header = lines[0] if lines else (1, "")
    if header != "date,angle":
        raise ValueError(f"{path}: line {n}: expected 'date,angle' header")
    angles = []
    for n, line in lines[1:]:
        try:
            date, angle = line.split(",")
            date, angle = int(date), float(angle)
        except ValueError as err:
            raise ValueError(f"{path}: line {n}: {err}") from None
        if date != len(angles):
            raise ValueError(
                f"{path}: line {n}: dates must be consecutive from 0")
        angles.append(angle)
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
        return PhaseRaster(np.angle(read_stack(path).data))
    with open(path) as fh:
        lines = (line for line in fh if line.strip())
        header = next(lines, "").strip()
        if not header.startswith("row,col,angle_0"):
            raise ValueError(f"{path}: not a phase raster file")
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: raster has no pixels")
        try:
            cells = np.loadtxt(chain([first], lines), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: malformed raster line: {err}") from None
    index = cells[:, :2]
    if (cells.shape[1] != header.count(",") + 1
            or not np.isfinite(index).all()
            or (index != np.round(index)).any()):
        raise ValueError(f"{path}: malformed raster lines (column count or "
                         "pixel index)")
    rows, cols = index.astype(int).T
    height, width = rows.max() + 1, cols.max() + 1
    if (min(rows.min(), cols.min()) < 0 or len(rows) != height * width
            or np.unique(rows * width + cols).size != height * width):
        raise ValueError(f"{path}: raster grid has missing or repeated pixels")
    data = np.empty((cells.shape[1] - 2, height, width))
    data[:, rows, cols] = cells[:, 2:].T
    return PhaseRaster(data)


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
