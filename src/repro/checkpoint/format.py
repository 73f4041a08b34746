"""The ``repro.ckpt/v3`` on-disk snapshot format.

A checkpoint file is a single JSON document::

    {
      "format":   "repro.ckpt/v3",
      "checksum": "sha256:<hex of the canonical payload encoding>",
      "payload":  { ... }
    }

``v3`` is the only tag this build writes or reads: its payload carries
the protection-subsystem state (envelope guards, estimator councils,
per-battery protection derating, the gauge drift-fault flag) and the
virtual-battery DAG state (per-tenant reserve/credit accounting, the
``installed`` flag on recorded ratio decisions) that ``v1`` and ``v2``
files lack, so :func:`read_checkpoint` refuses any other tag.

Two properties matter more than the schema itself:

* **Atomicity.** :func:`write_checkpoint` writes to a temporary file in
  the same directory, flushes and fsyncs it, then ``os.replace``\\ s it
  over the target and fsyncs the parent directory so the rename itself
  is durable. A SIGKILL (or power loss) at any instant leaves either
  the previous complete checkpoint or the new complete checkpoint on
  disk — never a torn file, and never a completed write whose directory
  entry evaporates with the page cache.

* **Verifiability.** The checksum is a SHA-256 over the *canonical*
  encoding of the payload (sorted keys, compact separators), so
  :func:`read_checkpoint` detects corruption, truncation, and hand-edits
  before any state is restored. All failures raise
  :class:`~repro.errors.CheckpointError`. The file holds the payload in
  that same canonical encoding, so a write encodes it once. The reader
  re-encodes the payload it parses, so a file whose payload keys are in
  any order, such as one written by an older build, still verifies.

Floats survive the round-trip bit-exactly: ``json`` serializes them with
``repr`` (shortest string that parses back to the same IEEE-754 double)
and parses ``NaN``/``Infinity`` tokens, so checkpoint/restore never
perturbs emulation state.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

from repro.errors import CheckpointError

__all__ = [
    "CKPT_FORMAT",
    "payload_checksum",
    "write_checkpoint",
    "read_checkpoint",
]

#: Format tag written into every checkpoint file, and the only one read.
CKPT_FORMAT = "repro.ckpt/v3"


def _canonical(payload: Dict[str, Any]) -> bytes:
    """The canonical encoding the checksum is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(canonical: bytes) -> str:
    return f"sha256:{hashlib.sha256(canonical).hexdigest()}"


def payload_checksum(payload: Dict[str, Any]) -> str:
    """``sha256:<hex>`` digest of the payload's canonical encoding."""
    return _checksum(_canonical(payload))


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk (POSIX; no-op elsewhere).

    ``os.replace`` makes the rename atomic in the *namespace*, but the
    new directory entry only becomes durable once the directory itself
    is synced — without this, a power loss shortly after a checkpoint
    can roll the directory back to the old (possibly absent) entry even
    though the file's data blocks were fsynced. Platforms that cannot
    open a directory for reading (e.g. Windows) skip the sync: their
    rename durability semantics differ and the data fsync still holds.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory or os.curdir, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_checkpoint(path: str, payload: Dict[str, Any]) -> str:
    """Atomically persist ``payload`` as a ``repro.ckpt/v3`` file at ``path``.

    Returns ``path``. Raises :class:`CheckpointError` if the payload is not
    JSON-serializable or the filesystem rejects the write.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        canonical = _canonical(payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload is not JSON-serializable: {exc}") from exc
    # The file holds the payload in the very encoding the checksum covers,
    # so the payload is encoded once; the envelope is written around it.
    head = f'{{"format":"{CKPT_FORMAT}","checksum":"{_checksum(canonical)}","payload":'
    try:
        with open(tmp, "wb") as handle:
            handle.write(head.encode("utf-8"))
            handle.write(canonical)
            handle.write(b"}")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc
    return path


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load, validate, and return the payload of a checkpoint file.

    Raises :class:`CheckpointError` on a missing/unreadable file, malformed
    JSON, an unknown format tag, or a checksum mismatch.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CheckpointError(f"checkpoint {path!r} is missing its envelope")
    fmt = envelope.get("format")
    if fmt != CKPT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {fmt!r}; this build reads only {CKPT_FORMAT!r}"
        )
    payload = envelope["payload"]
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path!r} payload must be an object")
    expected = envelope.get("checksum")
    actual = payload_checksum(payload)
    if expected != actual:
        raise CheckpointError(
            f"checkpoint {path!r} failed checksum validation "
            f"(recorded {expected!r}, recomputed {actual!r}) — the file is corrupt"
        )
    return payload
