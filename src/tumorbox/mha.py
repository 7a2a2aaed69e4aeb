"""Uncompressed MetaImage (.mha/.mhd) reading and writing.

Covers exactly the subset BraTS 2015 ships: NDims=3, binary uncompressed
payload, stored inline (``ElementDataFile = LOCAL``) or in a sibling raw
file. Anything else is rejected rather than guessed at.
"""

import io
import logging
import math
import os
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import FormatError, TruncatedDataError, UnsupportedFeatureError
from .volume import KIND_INTENSITY, KIND_LABEL, Volume

log = logging.getLogger(__name__)

ELEMENT_DTYPES = {
    "MET_SHORT": np.int16,
    "MET_USHORT": np.uint16,
    "MET_FLOAT": np.float32,
}

# Keys we act on. BinaryData/CompressedData are parsed to reject what we
# cannot handle; everything else is ignored with a warning.
_KNOWN_KEYS = {
    "ObjectType",
    "NDims",
    "DimSize",
    "ElementType",
    "ElementByteOrderMSB",
    "BinaryDataByteOrderMSB",
    "ElementSpacing",
    "ElementDataFile",
    "BinaryData",
    "CompressedData",
}


def _parse_bool(key: str, text: str) -> bool:
    if text == "True":
        return True
    if text == "False":
        return False
    raise FormatError(f"unparseable header key {key}: expected True/False, got {text!r}")


def _read_header(fh) -> dict:
    """Parse 'Key = Value' lines up to and including ElementDataFile."""
    header = {}
    while True:
        raw = fh.readline()
        if not raw:
            raise FormatError("missing header key ElementDataFile: header ended early")
        try:
            line = raw.decode("ascii").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise FormatError(f"header is not ASCII text: {exc}") from exc
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"unparseable header line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            log.warning("ignoring MetaImage header key %s", key)
            continue
        header[key] = value
        if key == "ElementDataFile":
            return header


def read_mha(path, kind: str = KIND_INTENSITY) -> Volume:
    """Read an uncompressed 3-D MetaImage file into a Volume.

    The volume keeps the payload's stored element type, in native byte
    order; ``kind`` ("intensity" or "label") only picks the checks that
    :class:`Volume` runs on it. A label payload is thus checked as stored,
    so a fractional, NaN or out-of-range value raises ValidationError
    naming that value.

    The payload is read once, exactly as many bytes as DimSize and
    ElementType call for, from after the header (``LOCAL``) or from the
    sibling raw file. A shorter payload raises TruncatedDataError; extra
    bytes are ignored with a warning.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(fh)

        if header.get("ObjectType", "Image") != "Image":
            raise UnsupportedFeatureError(
                f"ObjectType {header['ObjectType']!r} not supported (only Image)"
            )
        if "NDims" in header:
            try:
                ndims = int(header["NDims"])
            except ValueError as exc:
                raise FormatError(f"unparseable header key NDims: {header['NDims']!r}") from exc
            if ndims != 3:
                raise UnsupportedFeatureError(f"NDims={ndims} not supported (only 3)")
        else:
            raise FormatError("missing header key NDims")

        if header.get("BinaryData", "True") != "True":
            raise UnsupportedFeatureError("ASCII MetaImage payload not supported")
        if "CompressedData" in header and _parse_bool("CompressedData", header["CompressedData"]):
            raise UnsupportedFeatureError("compressed MetaImage data not supported")

        if "DimSize" not in header:
            raise FormatError("missing header key DimSize")
        try:
            dims = tuple(int(tok) for tok in header["DimSize"].split())
        except ValueError as exc:
            raise FormatError(f"unparseable header key DimSize: {header['DimSize']!r}") from exc
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise FormatError(f"DimSize must be three positive integers, got {header['DimSize']!r}")
        width, height, depth = dims

        if "ElementType" not in header:
            raise FormatError("missing header key ElementType")
        element_type = header["ElementType"]
        if element_type not in ELEMENT_DTYPES:
            raise UnsupportedFeatureError(
                f"ElementType {element_type} not supported "
                f"(one of {sorted(ELEMENT_DTYPES)})"
            )

        msb = False
        for key in ("BinaryDataByteOrderMSB", "ElementByteOrderMSB"):
            if key in header:
                msb = _parse_bool(key, header[key])

        # Checked, not kept: no stage reads the voxel spacing.
        if "ElementSpacing" in header:
            text = header["ElementSpacing"]
            try:
                spacing = [float(tok) for tok in text.split()]
            except ValueError as exc:
                raise FormatError(f"unparseable header key ElementSpacing: {text!r}") from exc
            if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
                raise FormatError(f"ElementSpacing must be three finite numbers > 0, got {text!r}")

        data_file = header["ElementDataFile"]
        if data_file in ("LIST",) or "%" in data_file:
            raise UnsupportedFeatureError(
                f"ElementDataFile {data_file!r} not supported (only LOCAL or a raw file)"
            )
        dtype = np.dtype(ELEMENT_DTYPES[element_type]).newbyteorder(">" if msb else "<")
        shape = (depth, height, width)
        if data_file == "LOCAL":
            grid, available = _read_payload(fh, dtype, shape)
        else:
            with open(path.parent / data_file, "rb") as raw:
                grid, available = _read_payload(raw, dtype, shape)

    expected = width * height * depth * dtype.itemsize
    if grid is None:
        raise TruncatedDataError(
            f"payload has {available} bytes, {expected} expected for "
            f"{width}x{height}x{depth} {element_type}"
        )
    if available > expected:
        log.warning("ignoring %d trailing payload bytes in %s", available - expected, path)

    return Volume(
        data=grid.astype(grid.dtype.newbyteorder("="), copy=False),
        kind=kind,
        element_type=element_type,
    )


def _read_payload(fh, dtype: np.dtype, shape: tuple) -> tuple:
    """Read one ``shape`` grid of ``dtype`` from ``fh``'s current position.

    Returns ``(grid, available)``: the grid (None when the payload is short)
    and the number of payload bytes the file holds. The file is sized before
    anything is allocated, so a header that overstates DimSize fails as
    truncated, and the payload is then read once, straight into the array.
    A pipe has no size to ask for, so it is read to its end first.
    """
    if not fh.seekable():
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    available = fh.seek(0, os.SEEK_END) - start
    expected = math.prod(shape) * dtype.itemsize
    if available < expected:
        return None, available
    fh.seek(start)
    grid = np.empty(shape, dtype=dtype)
    got = fh.readinto(grid)
    if got < expected:  # the file shrank after it was sized
        return None, got
    return grid, available


def _element_type_for(volume: Volume) -> str:
    if volume.element_type is not None:
        return volume.element_type
    return "MET_SHORT" if volume.kind == KIND_LABEL else "MET_FLOAT"


def write_mha(volume: Volume, path) -> None:
    """Write ``volume`` as an uncompressed MetaImage with inline payload,
    little-endian with unit spacing.

    The write is atomic (temp file + rename). Reading the result back with
    :func:`read_mha` reproduces dims and data; intensity values must be
    float32-representable for the round trip to be exact, which everything
    this package produces is.
    """
    path = Path(path)
    element_type = _element_type_for(volume)
    if element_type not in ELEMENT_DTYPES:
        raise UnsupportedFeatureError(f"cannot write ElementType {element_type}")
    dtype = np.dtype(ELEMENT_DTYPES[element_type]).newbyteorder("<")
    width, height, depth = volume.dims
    header = (
        "ObjectType = Image\n"
        "NDims = 3\n"
        "BinaryData = True\n"
        "BinaryDataByteOrderMSB = False\n"
        "CompressedData = False\n"
        "ElementSpacing = 1 1 1\n"
        f"DimSize = {width} {height} {depth}\n"
        f"ElementType = {element_type}\n"
        "ElementDataFile = LOCAL\n"
    )
    # Written through the buffer protocol: no bytes copy of the payload.
    payload = np.ascontiguousarray(volume.data, dtype=dtype)

    with atomic_open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)
