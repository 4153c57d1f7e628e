"""On-disk formats: binary time tags, histogram CSV, JSON sidecars.

Time tags go into a little-endian binary file: a 16-byte header (magic
"TTAG", u16 version, 10 reserved zero bytes) followed by 16-byte records
(u64 timestamp in ps, u8 channel with 0 = A and 1 = B, 7 zero pad bytes),
sorted by timestamp with A's first at equal timestamps, the order of
`correlator._a_first_at_ties`.  The header has no room for metadata, so the
acquisition duration, the tag count of each channel and the provenance
travel in a JSON sidecar next to the file ("<file>.json"); the reader
checks the records against those counts.
Writer and reader both hold the tags as one `ChannelTags`: the pooled,
time-ordered tags of both channels as the run's one stream type,
`TimeTagStream`, which are the records' time column, and a mask of the
records on channel B.  The writer builds records straight from them, a
block of a fixed number of tags at a time, so writing holds a few MB
whatever the file's size and the bytes do not depend on the block size; it
can hash each block as it writes it, so the file need not be read back to
be hashed.  The reader refuses records out of time order, or with a B
record before an A record at an equal timestamp; a channel is split off
only when it is asked for.

Histograms are CSV with columns lag_ps, counts, g2, sigma (full float
precision) plus a JSON sidecar of the window and normalisation; the reader
checks that lag_ps spans its window and derives g2 and sigma from its rates.
Both readers need the sidecar and hold each field to its rule (`stored_setting`),
and both return the `metadata` their writer was given ({} without one).
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from pathlib import Path

import numpy as np

from .correlator import ChannelTags, CorrelationHistogram, TimeTagStream
from .errors import UnsortedInput
from .scenarios import stored_setting

__all__ = [
    "TTAG_MAGIC",
    "TTAG_VERSION",
    "write_time_tags",
    "read_time_tags",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_json",
    "json_section",
    "sidecar_path",
    "sha256_file",
]

TTAG_MAGIC = b"TTAG"
TTAG_VERSION = 1
_HEADER = struct.Struct("<4sH10x")
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1"), ("pad", "V7")])
_BLOCK = 1 << 16  # tags per block of records that write_time_tags builds at once


def sidecar_path(path) -> Path:
    """The JSON sidecar of a tag or histogram file: its name plus ".json"."""
    return Path(f"{path}.json")


def _read_sidecar(path: Path) -> tuple[Path, dict]:
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"{sidecar}: the sidecar of {path.name} is required")
    return sidecar, _read_json(sidecar)


def write_time_tags(path, *channels, digest=None) -> Path:
    """Write both channels into one TTAG file plus its JSON sidecar.

    `channels` is one ChannelTags, whose metadata is written, or the
    TimeTagStreams of channels A and B.  A hashlib object passed as `digest`
    is fed the file's bytes as they are written.
    """
    path = Path(path)
    tags = channels[0] if len(channels) == 1 else ChannelTags.pool(*channels)
    with open(path, "wb") as fh:
        for data in _ttag_bytes(tags):
            fh.write(data)
            if digest is not None:
                digest.update(data)
    n_a, n_b = tags.counts
    sidecar = {
        "format": "ttag",
        "version": TTAG_VERSION,
        "duration_ps": tags.duration,
        "n_a": n_a,
        "n_b": n_b,
    }
    if tags.metadata:
        sidecar["metadata"] = tags.metadata
    write_json(sidecar_path(path), sidecar)
    return path


def _ttag_bytes(tags: ChannelTags):
    """The header, then the records a block at a time, each valid until the next is asked for."""
    yield _HEADER.pack(TTAG_MAGIC, TTAG_VERSION)
    times, on_b = tags.pooled.tags.view(np.uint64), tags.on_b
    records = np.zeros(min(_BLOCK, times.size), dtype=_RECORD_DTYPE)  # the pad bytes stay 0
    for first in range(0, times.size, _BLOCK):
        block = records[:min(_BLOCK, times.size - first)]
        block["t"] = times[first:first + _BLOCK]
        block["ch"] = on_b[first:first + _BLOCK]
        yield block.data


def read_time_tags(path) -> ChannelTags:
    """Read a TTAG file and its sidecar; the result unpacks as (channel A, channel B, metadata)."""
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
    sidecar, meta = _read_sidecar(path)
    metadata = json_section(meta, "metadata", sidecar)
    duration = stored_setting(meta, "duration_ps", sidecar)
    tags = records["t"].astype(np.int64)
    del records, raw  # the tags and channels are copies; free the file image
    on_b = channel.view(bool)
    n_b = int(np.count_nonzero(on_b))
    for key, count in (("n_a", tags.size - n_b), ("n_b", n_b)):
        if stored_setting(meta, key, sidecar) != count:
            raise ValueError(f"{path}: {key} is {count}, but {sidecar} says {meta[key]!r}")
    try:
        # the time column is sorted across both channels, so each channel is too
        pooled = TimeTagStream(tags, "A+B", duration)
    except UnsortedInput as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except ValueError as exc:  # tags beyond the duration
        raise ValueError(f"{sidecar}: {exc}") from exc
    ties = np.flatnonzero(tags[1:] == tags[:-1])
    if np.any(on_b[ties] & ~on_b[ties + 1]):
        raise ValueError(f"{path}: a channel B record comes before a channel A record "
                         "at an equal timestamp")
    return ChannelTags(pooled, on_b, metadata)


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
    write_json(sidecar_path(path), sidecar)
    return path


def read_histogram_csv(path) -> tuple[CorrelationHistogram, dict]:
    """Rebuild a histogram from the CSV and its sidecar; returns (histogram, metadata)."""
    path = Path(path)
    sidecar, meta = _read_sidecar(path)
    bin_width = stored_setting(meta, "bin_width_ps", sidecar)
    lag_max = stored_setting(meta, "lag_max_ps", sidecar, "window_ps")
    if stored_setting(meta, "lag_min_ps", sidecar) != -lag_max:
        raise ValueError(f"{sidecar}: lag_min_ps must be -lag_max_ps, got {meta['lag_min_ps']!r}")
    duration, rate_a, rate_b = (stored_setting(meta, key, sidecar)
                                for key in ("duration_ps", "rate_a_hz", "rate_b_hz"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a table without rows fails below
        try:
            edges, counts = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                                       usecols=(0, 1), ndmin=2).T
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    # the row count first, so that a vast sidecar window allocates nothing
    if edges.size != 2 * lag_max // bin_width \
            or not np.array_equal(edges, np.arange(-lag_max, lag_max, bin_width)):
        raise ValueError(f"{path}: lag column does not match the sidecar window")
    if np.any(counts < 0):
        raise ValueError(f"{path}: counts must be non-negative")
    try:
        hist = CorrelationHistogram(counts, bin_width, lag_max, duration, rate_a, rate_b)
    except ValueError as exc:  # the rates or the duration
        raise ValueError(f"{sidecar}: {exc}") from exc
    return hist, json_section(meta, "metadata", sidecar)


def write_json(path, payload: dict) -> Path:
    """Deterministic JSON: sorted keys, newline-terminated."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _read_json(path) -> dict:
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
