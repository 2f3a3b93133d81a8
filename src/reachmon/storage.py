"""Versioned binary container shared by datasets, checkpoints and bundles.

A container is a directory holding ``meta.json`` plus one raw little-endian
array file per named array.  The meta records dtype, shape and a sha256
digest for every array, so a load detects truncation and bit flips; the same
format is used for every persisted artifact, which keeps round-trips
bit-exact and language-neutral.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import IntegrityError, MissingArtifact

FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8", "uint8": "|u1", "int32": "<i4",
           "int64": "<i8"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_json(path) -> dict:
    """The JSON object in file ``path``; a file that cannot be read, is not
    UTF-8 JSON or holds no object raises :class:`IntegrityError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise IntegrityError(f"malformed {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise IntegrityError(f"malformed {path}: not a JSON object")
    return doc


def require_keys(doc: dict, keys, where):
    """Raise :class:`IntegrityError` naming ``where`` and the first of
    ``keys`` that ``doc`` lacks."""
    for key in keys:
        if key not in doc:
            raise IntegrityError(f"{where}: missing key {key!r}")


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]):
    """Write ``meta`` and ``arrays`` under directory ``path`` (created)."""
    os.makedirs(path, exist_ok=True)
    index = {}
    for name, arr in arrays.items():
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported array dtype {dtype} for {name!r}")
        data = np.ascontiguousarray(arr).astype(_DTYPES[dtype]).tobytes()
        fname = f"{name}.bin"
        with open(os.path.join(path, fname), "wb") as fh:
            fh.write(data)
        index[name] = {
            "file": fname,
            "dtype": dtype,
            "shape": list(arr.shape),
            "sha256": _sha256(data),
        }
    doc = {"format_version": FORMAT_VERSION, "meta": meta, "arrays": index}
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_container(path):
    """Load a container; returns ``(meta, arrays)``.

    Raises :class:`MissingArtifact` when the directory or meta file is
    absent and :class:`IntegrityError` on version or checksum mismatch, on a
    missing meta key or a ``meta`` or array entry that is not an object, or
    when an array's dtype is unknown or its shape does not fit its bytes
    (the checksum covers the data, not the meta).
    """
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        raise MissingArtifact(f"no container at {path}")
    doc = read_json(meta_path)
    if doc.get("format_version") != FORMAT_VERSION:
        raise IntegrityError(
            f"{path}: format version {doc.get('format_version')} != {FORMAT_VERSION}")
    require_keys(doc, ("meta", "arrays"), meta_path)
    if not isinstance(doc["meta"], dict) or not isinstance(doc["arrays"], dict) \
            or not all(isinstance(e, dict) for e in doc["arrays"].values()):
        raise IntegrityError(f"{meta_path}: meta and arrays must be objects")
    arrays = {}
    for name, entry in doc["arrays"].items():
        require_keys(entry, ("file", "sha256", "dtype", "shape"),
                     f"{meta_path}: array {name!r}")
        fpath = os.path.join(path, entry["file"])
        try:
            with open(fpath, "rb") as fh:
                data = fh.read()
        except OSError:
            raise MissingArtifact(f"{path}: array file {entry['file']} missing") from None
        if _sha256(data) != entry["sha256"]:
            raise IntegrityError(f"{path}: checksum failure for array {name!r}")
        dtype, shape = _DTYPES.get(entry["dtype"]), entry["shape"]
        if dtype is None or not all(type(d) is int and d >= 0 for d in shape) \
                or math.prod(shape) * np.dtype(dtype).itemsize != len(data):
            raise IntegrityError(f"{path}: array {name!r} ({entry['dtype']}, "
                                 f"shape {shape}) does not fit {len(data)} bytes")
        arr = np.frombuffer(data, dtype=dtype)
        arrays[name] = arr.reshape(shape).astype(entry["dtype"], copy=False)
    return doc["meta"], arrays
