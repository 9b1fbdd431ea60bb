"""File-format tests: stack container, truth/raster CSVs, manifests."""
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from seqlink import (
    MAGIC,
    STACK_VERSION,
    ImageStack,
    PhaseRaster,
    append_manifest,
    manifest_path_for,
    read_manifest,
    read_phase_raster,
    read_stack,
    read_truth_csv,
    wrap_angle,
    write_manifest,
    write_phase_raster_binary,
    write_phase_raster_csv,
    write_stack,
    write_truth_csv,
)
from seqlink.stackio import _HEADER


def random_stack(l=5, height=4, width=3, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(l, height, width)) + 1j * rng.normal(
        size=(l, height, width))
    return ImageStack(data)


# ---------------------------------------------------------------------------
# binary stack container


def test_stack_round_trip_is_bit_exact(tmp_path):
    stack = random_stack()
    path = tmp_path / "stack.slk"
    write_stack(path, stack)
    back = read_stack(path)
    assert back.data.dtype == np.complex128
    assert np.array_equal(back.data, stack.data)
    # byte-for-byte: rewriting what was read reproduces the file
    second = tmp_path / "again.slk"
    write_stack(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_stack_round_trip_complex64(tmp_path):
    """write_stack writes complex128 only; a complex64 (code 0) file, as
    another program may write it, reads back widened exactly."""
    stack = random_stack(seed=1)
    path = tmp_path / "stack32.slk"
    path.write_bytes(_HEADER.pack(MAGIC, STACK_VERSION, stack.count,
                                  stack.height, stack.width, 0, b"\x00" * 7)
                     + stack.data.astype(np.complex64).tobytes())
    back = read_stack(path)
    assert path.read_bytes()[20] == 0  # dtype code: complex64
    assert back.data.dtype == np.complex128
    assert np.array_equal(back.data,
                          stack.data.astype(np.complex64).astype(complex))


def test_stack_header_records_geometry(tmp_path):
    stack = random_stack(l=7, height=2, width=9)
    path = tmp_path / "geom.slk"
    write_stack(path, stack)
    back = read_stack(path)
    assert (back.count, back.height, back.width) == (7, 2, 9)
    assert path.read_bytes()[20] == 1  # dtype code: complex128
    with pytest.raises(TypeError):  # the only dtype written
        write_stack(path, stack, dtype="complex64")


def test_stack_file_starts_with_magic(tmp_path):
    path = tmp_path / "magic.slk"
    write_stack(path, random_stack())
    assert path.read_bytes().startswith(MAGIC)


def test_read_stack_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.slk"
    path.write_bytes(b"SLK")
    with pytest.raises(ValueError, match="truncated"):
        read_stack(path)


def test_read_stack_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.slk"
    write_stack(path, random_stack())
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTSTACK"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_stack(path)


def test_read_stack_rejects_unknown_version(tmp_path):
    path = tmp_path / "vers.slk"
    write_stack(path, random_stack())
    raw = bytearray(path.read_bytes())
    raw[8:10] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_stack(path)


def test_read_stack_rejects_unknown_dtype_code(tmp_path):
    path = tmp_path / "dtype.slk"
    write_stack(path, random_stack())
    raw = bytearray(path.read_bytes())
    raw[20] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unknown dtype code 7"):
        read_stack(path)


def test_read_stack_rejects_nonzero_reserved_bytes(tmp_path):
    path = tmp_path / "resv.slk"
    write_stack(path, random_stack())
    raw = bytearray(path.read_bytes())
    raw[21] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="reserved"):
        read_stack(path)


def test_read_stack_rejects_short_payload(tmp_path):
    path = tmp_path / "pay.slk"
    write_stack(path, random_stack())
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    expected = len(raw) - 28
    with pytest.raises(ValueError, match=f"payload holds {expected - 16} "
                                         f"bytes, expected {expected}$"):
        read_stack(path)


def test_read_stack_rejects_long_payload(tmp_path):
    path = tmp_path / "pay.slk"
    write_stack(path, random_stack())
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(16))
    expected = len(raw) - 28
    with pytest.raises(ValueError, match=f"payload holds {expected + 16} "
                                         f"bytes, expected {expected}$"):
        read_stack(path)


def test_read_stack_holds_one_copy_of_the_payload_and_hands_it_over(tmp_path):
    stack = random_stack(l=40, height=64, width=60)  # 2.46 MB
    path = tmp_path / "big.slk"
    write_stack(path, stack)
    payload = stack.data.nbytes
    tracemalloc.start()
    try:
        back = read_stack(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload
    assert np.array_equal(back.data, stack.data)
    back.data[0, 0, 0] = 0  # writable, and no other reader sees the write
    assert np.array_equal(read_stack(path).data, stack.data)


# ---------------------------------------------------------------------------
# truth CSV


def test_truth_csv_round_trip(tmp_path):
    angles = np.array([0.0, 0.5, -1.25, 3.0])
    path = tmp_path / "truth.csv"
    write_truth_csv(path, angles)
    assert np.array_equal(read_truth_csv(path), angles)
    assert path.read_text().splitlines()[0] == "date,angle"


def test_truth_csv_wraps_on_write(tmp_path):
    path = tmp_path / "wrap.csv"
    write_truth_csv(path, [0.0, 4.0])
    back = read_truth_csv(path)
    assert back[1] == pytest.approx(4.0 - 2.0 * np.pi, abs=1e-15)


def test_truth_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,angle\n0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        read_truth_csv(path)


def test_truth_csv_rejects_gapped_dates(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("date,angle\n0,0.0\n2,0.5\n")
    with pytest.raises(ValueError, match="line 3: dates must be consecutive"):
        read_truth_csv(path)


@pytest.mark.parametrize("line", ["1,0.5,7", "1,abc"])
def test_truth_csv_parse_errors_name_the_file_and_line(tmp_path, line):
    """A line with three fields or a bad angle raises ValueError naming the
    path and the line number, which counts blank lines."""
    path = tmp_path / "bad.csv"
    path.write_text(f"date,angle\n0,0.0\n\n{line}\n")
    with pytest.raises(ValueError) as err:
        read_truth_csv(path)
    assert str(err.value).startswith(f"{path}: line 4: ")


# ---------------------------------------------------------------------------
# phase rasters


def example_raster(seed=0):
    rng = np.random.default_rng(seed)
    data = wrap_angle(rng.uniform(-np.pi, np.pi, size=(4, 3, 5)))
    data[:, 1, 2] = np.nan  # one failed pixel
    return PhaseRaster(data)


def test_raster_csv_round_trip_with_failed_pixel(tmp_path):
    raster = example_raster()
    path = tmp_path / "phases.csv"
    write_phase_raster_csv(path, raster)
    back = read_phase_raster(path)
    assert np.array_equal(back.data, raster.data, equal_nan=True)
    assert np.array_equal(back.failed, raster.failed)


def test_raster_csv_bytes_match_per_value_repr_formatting(tmp_path):
    """The writer's bytes equal those of formatting each angle on its own
    with repr(float(a)), special values included."""
    rng = np.random.default_rng(6)
    data = rng.uniform(-np.pi, np.pi, size=(5, 4, 3))
    data[:, 0, 0] = [np.nan, -0.0, 0.0, np.pi, -np.pi]
    data[:, 2, 1] = [5e-324, -2.2250738585072014e-309, 1e-300,
                     np.nextafter(np.pi, 0), np.nan]
    data[:, 3, 2] = np.nan
    raster = PhaseRaster(data)
    path = tmp_path / "phases.csv"
    write_phase_raster_csv(path, raster)
    lines = ["row,col," + ",".join(f"angle_{i}" for i in range(5))]
    for row in range(4):
        for col in range(3):
            angles = ",".join(repr(float(a)) for a in data[:, row, col])
            lines.append(f"{row},{col},{angles}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    back = read_phase_raster(path)
    assert np.array_equal(back.data, data, equal_nan=True)
    assert np.array_equal(np.signbit(back.data), np.signbit(data))


def test_read_phase_raster_skips_blank_lines_and_rejects_ragged_ones(tmp_path):
    raster = example_raster()
    path = tmp_path / "phases.csv"
    write_phase_raster_csv(path, raster)
    text = path.read_text()
    path.write_text("\n" + text.replace("\n", "\n\n", 3))
    assert np.array_equal(read_phase_raster(path).data, raster.data,
                          equal_nan=True)
    lines = text.splitlines()
    path.write_text("\n".join(lines[:2] + [lines[2] + ",0.5"] + lines[3:]))
    with pytest.raises(ValueError, match="malformed"):
        read_phase_raster(path)


def test_read_phase_raster_rejects_empty_and_malformed_bodies(tmp_path):
    raster = example_raster()
    path = tmp_path / "phases.csv"
    write_phase_raster_csv(path, raster)
    header, *body = path.read_text().splitlines()
    path.write_text("\n".join([header, "  ", *body[:3], " \t", *body[3:]]))
    assert np.array_equal(read_phase_raster(path).data, raster.data,
                          equal_nan=True)
    path.write_text(header + "\n\n   \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no pixels"):
            read_phase_raster(path)
    short = [line.rsplit(",", 1)[0] for line in body]  # every line one short
    bad_cell = [body[0].replace(",", ",x", 1)] + body[1:]
    bad_index = ["0.5" + body[0][1:]] + body[1:]
    nan_index = ["nan" + body[0][1:]] + body[1:]
    for lines in (short, bad_cell, bad_index, nan_index):
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_phase_raster(path)


def test_raster_csv_header_names_every_date(tmp_path):
    path = tmp_path / "phases.csv"
    write_phase_raster_csv(path, example_raster())
    header = path.read_text().splitlines()[0]
    assert header == "row,col,angle_0,angle_1,angle_2,angle_3"


def test_raster_binary_round_trip(tmp_path):
    raster = example_raster(seed=3)
    path = tmp_path / "phases.slk"
    write_phase_raster_binary(path, raster)
    back = read_phase_raster(path)
    ok = ~raster.failed
    gap = np.abs(wrap_angle(back.data[:, ok] - raster.data[:, ok]))
    assert gap.max() < 1e-12
    assert np.isnan(back.data[:, raster.failed]).all()
    assert np.array_equal(back.failed, raster.failed)


def test_read_phase_raster_autodetects_format(tmp_path):
    raster = example_raster(seed=5)
    csv_path, bin_path = tmp_path / "a.csv", tmp_path / "b.slk"
    write_phase_raster_csv(csv_path, raster)
    write_phase_raster_binary(bin_path, raster)
    assert read_phase_raster(csv_path).data.shape == raster.data.shape
    assert read_phase_raster(bin_path).data.shape == raster.data.shape


def test_read_phase_raster_rejects_foreign_text(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("hello,world\n1,2\n")
    with pytest.raises(ValueError, match="raster"):
        read_phase_raster(path)


def test_read_phase_raster_rejects_missing_pixels(tmp_path):
    raster = example_raster()
    path = tmp_path / "holes.csv"
    write_phase_raster_csv(path, raster)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last pixel
    with pytest.raises(ValueError, match="missing"):
        read_phase_raster(path)
    # a 2 x 2 raster whose pixel (1, 1) appears twice: every pixel is there,
    # but the line count gives the repeat away
    write_phase_raster_csv(path, PhaseRaster(np.zeros((2, 2, 2))))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["1,1,0.5,0.5"]) + "\n")
    with pytest.raises(ValueError, match="repeated"):
        read_phase_raster(path)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "run.manifest.txt"
    write_manifest(path, "bench", {"output.csv": "bench.csv"},
                   {"l": "8", "rho": "0.9"})
    record = read_manifest(path)
    assert record["manifest_version"] == "1"
    assert record["command"] == "bench"
    assert record["output.csv"] == "bench.csv"
    assert record["config.l"] == "8"
    assert record["config.rho"] == "0.9"
    assert "code_version" in record and "created_utc" in record


def test_manifest_append_adds_completion_keys(tmp_path):
    path = tmp_path / "run.manifest.txt"
    write_manifest(path, "solve", {"output.raster": "out.csv"})
    append_manifest(path, {"error.max_interior": "1e-06", "status": "ok"})
    record = read_manifest(path)
    assert record["status"] == "ok"
    assert record["error.max_interior"] == "1e-06"
    # the original keys are still present (append, not rewrite)
    assert record["output.raster"] == "out.csv"


def test_manifest_written_before_results_by_convention(tmp_path):
    out = tmp_path / "result.csv"
    manifest = manifest_path_for(out)
    assert str(manifest) == f"{out}.manifest.txt"
