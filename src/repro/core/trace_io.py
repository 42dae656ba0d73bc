"""Trace serialization: save/load traces for sharing and offline replay.

Format: a single ``.npz`` file holding the event columns as compact
numpy arrays plus the trace header/metadata as a JSON string.  A
50k-time-unit trace (~300k events) round-trips in well under a second
and compresses to a few hundred KiB, so recorded workloads can ship
with papers or bug reports and be replayed bit-identically elsewhere.

Every file carries a SHA-256 digest over the event columns and header,
so a truncated or bit-flipped file is detected at load time
(:class:`TraceIntegrityError`) instead of silently replaying garbage --
the trace cache relies on this to treat corrupt entries as misses.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.compiled import (
    FLOAT_DTYPE,
    INT_DTYPE,
    ArrayColumns,
    CompiledTrace,
    event_argv,
)
from repro.core.trace import EventType, Trace, TraceEvent

#: Format version written into every file.  v2 stores the *compiled*
#: columns (pinned ``int64``/``float64`` dtypes, plus the dense message
#: ``slot`` column and the send/receive counts in the header) so a load
#: feeds the vectorized engine natively -- no list round-trip, no
#: re-matching of sends to receives.  v1 files are still read.
FORMAT_VERSION = 2


class TraceIntegrityError(ValueError):
    """A stored trace failed its checksum or structural decode.

    Raised by :func:`load_trace` when the file is truncated, bit-flipped
    or otherwise not the bytes :func:`save_trace` wrote.  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` handlers keep
    working.
    """


class TraceDigestMissing(TraceIntegrityError):
    """A stored trace carries no column digest (pre-digest legacy file).

    Raised by ``load_trace(verify=True)`` when the file has no
    ``digest`` array at all -- distinct from a checksum *mismatch* so
    callers (the trace cache) can fall back to a structural validation
    instead of condemning every legacy file as corrupt.
    """


def _column_digest(header_json: str, columns) -> str:
    """Hex SHA-256 over the header JSON and the raw column bytes."""
    h = hashlib.sha256()
    h.update(header_json.encode("utf-8"))
    for arr in columns:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write *trace* to ``path`` (npz; '.npz' appended if missing).

    Columns come from the compiled view -- one lowering shared with
    replay (cached on the trace), dtypes pinned to ``int64`` /
    ``float64`` so the stored bytes are platform-independent and the
    digest is stable.
    """
    from repro.core.compiled import array_columns

    cols = array_columns(trace)
    header = {
        "format_version": FORMAT_VERSION,
        "n_hosts": trace.n_hosts,
        "n_mss": trace.n_mss,
        "sim_time": trace.sim_time,
        "n_sends": cols.n_sends,
        "n_receives": cols.n_receives,
        "meta": trace.meta,
    }
    header_json = json.dumps(header)
    columns = (
        cols.time,
        cols.etype,
        cols.host,
        cols.msg_id,
        cols.peer,
        cols.cell,
        cols.slot,
    )
    digest = _column_digest(header_json, columns)
    np.savez_compressed(
        str(path),
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        digest=np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        time=cols.time,
        etype=cols.etype,
        host=cols.host,
        msg_id=cols.msg_id,
        peer=cols.peer,
        cell=cols.cell,
        slot=cols.slot,
    )


def load_trace(
    path: Union[str, Path], validate: bool = True, verify: bool = False
) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises ``ValueError`` on unknown format versions; validates the
    trace structurally unless ``validate=False``.  ``verify=True``
    additionally recomputes the stored SHA-256 column digest and raises
    :class:`TraceIntegrityError` on mismatch (a file written before the
    digest existed raises the :class:`TraceDigestMissing` subclass so
    callers can tell "legacy" from "damaged"); any undecodable file --
    truncated zip, garbage bytes, missing arrays -- is reported as a
    :class:`TraceIntegrityError` as well.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        trace = _load_trace_inner(path, verify=verify)
    except TraceIntegrityError:
        raise
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        struct.error,
    ) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise TraceIntegrityError(
            f"cannot decode trace file {path}: {exc!r}"
        ) from exc
    return trace.validate() if validate else trace


#: Column names per format version (digest order).
_V1_COLUMNS = ("time", "etype", "host", "msg_id", "peer", "cell")
_V2_COLUMNS = ("time", "etype", "host", "msg_id", "peer", "cell", "slot")


def _load_trace_inner(path: Path, verify: bool) -> Trace:
    with np.load(path) as data:
        header_json = bytes(data["header"]).decode("utf-8")
        header = json.loads(header_json)
        version = header.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(expected 1..{FORMAT_VERSION})"
            )
        names = _V2_COLUMNS if version >= 2 else _V1_COLUMNS
        # Each npz member decompresses on every access: read each once.
        arrays = {name: data[name] for name in names}
        if verify:
            if "digest" not in data.files:
                raise TraceDigestMissing(
                    f"trace file {path} has no stored digest (written "
                    f"before checksums existed) and cannot be verified"
                )
            stored = bytes(data["digest"]).decode("ascii")
            computed = _column_digest(
                header_json, tuple(arrays[name] for name in names)
            )
            if stored != computed:
                raise TraceIntegrityError(
                    f"trace file {path} failed checksum verification "
                    f"(stored {stored!r}, computed {computed[:16]}...)"
                )
    n_hosts = int(header["n_hosts"])
    n_mss = int(header["n_mss"])
    sim_time = float(header["sim_time"])
    meta = dict(header["meta"])
    if version < 2:
        events = [
            TraceEvent(
                time=float(t),
                etype=EventType(int(e)),
                host=int(h),
                msg_id=int(m),
                peer=int(p),
                cell=int(c),
            )
            for t, e, h, m, p, c in zip(*(arrays[name] for name in names))
        ]
        return Trace(n_hosts, n_mss, events, sim_time, meta)
    # The stored columns *are* the compiled trace: rebuild its list
    # columns (slot included, so sends are not re-matched) and seed the
    # array-column cache so the vectorized engine starts from the
    # arrays without re-lowering.
    cols = ArrayColumns(
        n_hosts=n_hosts,
        n_mss=n_mss,
        sim_time=sim_time,
        n_events=int(arrays["etype"].shape[0]),
        n_sends=int(header["n_sends"]),
        n_receives=int(header["n_receives"]),
        **{
            name: np.asarray(
                arrays[name], dtype=FLOAT_DTYPE if name == "time" else INT_DTYPE
            )
            for name in names
        },
    )
    etype = cols.etype
    if cols.n_events and not 0 <= etype.min() <= etype.max() < len(EventType):
        raise ValueError(f"trace file {path} holds an unknown event type")
    lists = {name: getattr(cols, name).tolist() for name in names}
    compiled = CompiledTrace(
        n_hosts=n_hosts,
        n_mss=n_mss,
        sim_time=sim_time,
        n_events=cols.n_events,
        n_sends=cols.n_sends,
        n_receives=cols.n_receives,
        argv=event_argv(
            lists["etype"], lists["time"], lists["host"], lists["peer"],
            lists["cell"],
        ),
        **lists,
    )
    trace = Trace.from_compiled(compiled, meta)
    trace._array_columns_cache = (cols.n_events, cols)
    return trace
