"""On-disk formats: binary time tags, histogram CSV, JSON sidecars.

Time tags go into a little-endian binary file: a 16-byte header (magic
"TTAG", u16 version, 10 reserved zero bytes) followed by 16-byte records
(u64 timestamp in ps, u8 channel with 0 = A and 1 = B, 7 zero pad bytes),
sorted by timestamp with channel breaking ties.  The header has no room
for metadata, so the acquisition duration and provenance travel in a JSON
sidecar next to the file ("<file>.json").  Records are merged and written
in blocks of a fixed number of tags per channel, so writing holds a few MB
whatever the file's size; the bytes do not depend on the block size.

Histograms are CSV with columns lag_ps, counts, g2, sigma (full float
precision) plus a JSON sidecar holding the normalisation.  The reader parses
lag_ps and counts only and derives g2 and sigma from the sidecar's rates.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .correlator import CorrelationHistogram, TimeTagStream

__all__ = [
    "TTAG_MAGIC",
    "TTAG_VERSION",
    "write_time_tags",
    "read_time_tags",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_json",
    "read_json",
    "json_section",
    "sha256_file",
]

TTAG_MAGIC = b"TTAG"
TTAG_VERSION = 1
_HEADER = struct.Struct("<4sH10x")
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1"), ("pad", "V7")])
_BLOCK = 1 << 16  # tags per channel and block that write_time_tags merges at once


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_time_tags(path, a: TimeTagStream, b: TimeTagStream, metadata: dict | None = None) -> Path:
    """Write both channels into one TTAG file plus its JSON sidecar."""
    path = Path(path)
    # cut both channels at the same times, each tie on one side of every cut,
    # so that no block holds more than about _BLOCK tags of either channel
    cuts = np.sort(np.concatenate([a.tags[_BLOCK::_BLOCK], b.tags[_BLOCK::_BLOCK]]))
    ends_a = np.append(np.searchsorted(a.tags, cuts), len(a)).tolist()
    ends_b = np.append(np.searchsorted(b.tags, cuts), len(b)).tolist()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TTAG_MAGIC, TTAG_VERSION))
        for start_a, end_a, start_b, end_b in zip([0, *ends_a], ends_a, [0, *ends_b], ends_b):
            fh.write(_merged_records(a.tags[start_a:end_a], b.tags[start_b:end_b]).data)
    sidecar = {
        "format": "ttag",
        "version": TTAG_VERSION,
        "duration_ps": int(min(a.duration, b.duration)),
        "n_a": len(a),
        "n_b": len(b),
    }
    if metadata:
        sidecar["metadata"] = metadata
    write_json(_sidecar_path(path), sidecar)
    return path


def _merged_records(tags_a: np.ndarray, tags_b: np.ndarray) -> np.ndarray:
    """TTAG records of one block's tags of channels A and B."""
    times = np.concatenate([tags_a, tags_b])
    # a stable sort merges the two sorted runs and keeps A before B at equal times
    order = np.argsort(times, kind="stable")
    records = np.zeros(times.size, dtype=_RECORD_DTYPE)
    np.take(times.view(np.uint64), order, out=records["t"])
    records["ch"] = order >= tags_a.size
    return records


def read_time_tags(path) -> tuple[TimeTagStream, TimeTagStream, dict]:
    """Read a TTAG file; returns (channel A, channel B, sidecar metadata)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version = _HEADER.unpack_from(raw)
    if magic != TTAG_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {TTAG_MAGIC!r}")
    if version != TTAG_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if (len(raw) - _HEADER.size) % _RECORD_DTYPE.itemsize:
        raise ValueError(f"{path}: truncated record block")
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    channel = records["ch"].copy()
    top = int(channel.max(initial=0))
    if top > 1:
        raise ValueError(f"{path}: invalid channel byte {top}")
    sidecar = _sidecar_path(path)
    meta = read_json(sidecar) if sidecar.exists() else {}
    json_section(meta, "metadata", sidecar)
    tags = records["t"].astype(np.int64)
    del records, raw  # the tags and channels are copies; free the file image
    duration = meta.get("duration_ps")
    if duration is None:  # absent or null: up to the last tag
        duration = tags[-1] if tags.size else 1
    try:
        duration = int(duration)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar}: bad duration_ps {duration!r} ({exc})") from exc
    # split into arrays of the final sizes; the mask flips in place for A
    on_b = channel.view(bool)
    n_b = int(np.count_nonzero(on_b))
    tags_b = np.compress(on_b, tags, out=np.empty(n_b, dtype=np.int64))
    tags_a = np.compress(np.logical_not(on_b, out=on_b), tags,
                         out=np.empty(tags.size - n_b, dtype=np.int64))
    return TimeTagStream(tags_a, "A", duration), TimeTagStream(tags_b, "B", duration), meta


def write_histogram_csv(path, hist: CorrelationHistogram, metadata: dict | None = None) -> Path:
    """CSV of (lag_ps, counts, g2, sigma) plus a normalisation sidecar."""
    path = Path(path)
    # the bytes csv.writer gives for these rows: no field needs quoting
    rows = map("{},{},{!r},{!r}".format, hist.lag_edges.tolist(), hist.counts.tolist(),
               hist.g2.tolist(), hist.sigma.tolist())
    path.write_text("\r\n".join(["lag_ps,counts,g2,sigma", *rows, ""]), newline="")
    sidecar = {
        "format": "g2-histogram",
        "bin_width_ps": hist.bin_width,
        "lag_min_ps": hist.lag_min,
        "lag_max_ps": hist.lag_max,
        "duration_ps": hist.duration,
        "rate_a_hz": hist.rate_a,
        "rate_b_hz": hist.rate_b,
    }
    if metadata:
        sidecar["metadata"] = metadata
    write_json(_sidecar_path(path), sidecar)
    return path


def read_histogram_csv(path) -> tuple[CorrelationHistogram, dict]:
    """Rebuild a histogram from the CSV and its sidecar."""
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"{sidecar}: histogram sidecar is required for normalisation")
    meta = read_json(sidecar)
    edges, counts = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                               usecols=(0, 1), ndmin=2).T
    try:
        hist = CorrelationHistogram(
            counts=counts,
            bin_width=int(meta["bin_width_ps"]),
            lag_min=int(meta["lag_min_ps"]),
            lag_max=int(meta["lag_max_ps"]),
            duration=int(meta["duration_ps"]),
            rate_a=float(meta["rate_a_hz"]),
            rate_b=float(meta["rate_b_hz"]),
        )
    except KeyError as exc:
        raise ValueError(f"{sidecar}: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc
    if edges.size and (edges[0] != hist.lag_min or edges.size != hist.n_bins):
        raise ValueError(f"{path}: lag column does not match the sidecar window")
    return hist, json_section(meta, "metadata", sidecar)


def write_json(path, payload: dict) -> Path:
    """Deterministic JSON: sorted keys, newline-terminated."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_json(path) -> dict:
    """A JSON object from a file; ValueError naming the file for anything else."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def json_section(payload: dict, key: str, path) -> dict:
    """The object stored under key, {} if absent or null; ValueError naming the file otherwise."""
    section = payload.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {key} must be a JSON object, got {type(section).__name__}")
    return section


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
