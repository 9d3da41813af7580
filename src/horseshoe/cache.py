"""Versioned binary container for cached arrays.

Layout: magic, format version, header length, JSON header, raw array bytes.
The header records dtype/shape/offset per array plus a sha256 of the whole
payload; loading re-hashes and refuses on any mismatch, so a truncated or
edited file never half-loads.  Writing is deterministic: header keys are
sorted, arrays are stored C-contiguous in name order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CacheError

MAGIC = b"HSC\x01"
FORMAT_VERSION = 1


def write_blob(path, kind, meta, arrays):
    """Write named arrays plus JSON-serializable metadata; returns file sha256."""
    descriptors = []
    chunks = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        descriptors.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = json.dumps(
        {
            "kind": kind,
            "meta": meta,
            "arrays": descriptors,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    blob = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + payload
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def read_blob(path, expect_kind=None):
    """Load a container as (meta, arrays).  Magic, version, header, payload
    digest and kind tag are checked, and any failing check raises
    CacheError."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CacheError(f"{path}: not a cache file")
    version, hlen = struct.unpack_from("<IQ", raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CacheError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}; "
            "regenerate the cache")
    start = len(MAGIC) + 12
    payload = raw[start + hlen:]
    try:  # bad UTF-8 or JSON is a ValueError, a non-object header a TypeError
        header = json.loads(raw[start: start + hlen].decode())
        digest, kind, meta = (header["payload_sha256"], header["kind"],
                              dict(header["meta"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheError(f"{path}: unreadable header ({exc!r})") from exc
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CacheError(f"{path}: payload digest mismatch (truncated or edited)")
    if expect_kind is not None and kind != expect_kind:
        raise CacheError(f"{path}: holds {kind!r}, expected {expect_kind!r}")
    try:
        arrays = {desc["name"]: np.frombuffer(
            payload[desc["offset"]: desc["offset"] + desc["nbytes"]],
            dtype=np.dtype(desc["dtype"])).reshape(desc["shape"]).copy()
            for desc in header["arrays"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}: arrays do not fit the payload ({exc!r})") from exc
    return meta, arrays


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
