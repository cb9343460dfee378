"""Canonical JSON encoding and content hashing for artifact identity.

Artifact IDs must be stable across platforms and processes: the same
logical content must hash to the same ID on Linux and Windows, under any
dict insertion order, for any spelling of the same float.  This module is
the single place that defines "the same logical content":

* dict keys are sorted (insertion order never matters);
* floats serialize through :func:`repr`-faithful ``json.dumps`` (the
  shortest round-trip representation, identical for identical IEEE-754
  doubles on every supported platform);
* :class:`~pathlib.PurePath` values normalize to POSIX separators, so a
  manifest written on Windows hashes like one written on Linux;
* tuples flatten to lists (a tuple and a list of the same values are the
  same content);
* NaN and infinities are **rejected** (`ValueError`) — they do not
  round-trip through JSON and silently coerce to ``null``-like tokens
  otherwise, which would let two different payloads collide;
* non-string dict keys are **rejected** with their JSON path (``json``
  would coerce ``1`` and ``"1"`` to the same key).

``json.dumps`` does the encoding; the only Python-level walk is the key check.

Everything downstream — cell fingerprints, artifact IDs, the REPORT.md
input fingerprint — reduces to :func:`content_hash` over a document built
from these rules.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path, PurePath
from typing import Any

__all__ = ["canonical_json", "content_hash", "hash_bytes", "hash_file"]

_CONTAINERS = (dict, list, tuple)
#: Exact types that hold no dict; a list of only these is not walked.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _default(obj: Any) -> str:
    """``json`` hook for the one non-JSON type the rules admit: paths."""
    if isinstance(obj, PurePath):
        return obj.as_posix()
    raise TypeError(f"type {type(obj).__name__} cannot be canonicalized")


def _non_string_key(obj: Any) -> tuple[Any, str] | None:
    """The first non-string dict key in ``obj`` and its JSON path, or ``None``.

    ``json`` would coerce such keys silently, so this walk is the one
    check the encoder cannot do.  It descends containers only (skipping,
    in C, lists of plain scalars), and spells a path out only for the
    offending key, on the way back up.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                return key, "$"
            if isinstance(value, _CONTAINERS) and (found := _non_string_key(value)):
                return found[0], f"$.{key}{found[1][1:]}"
    elif isinstance(obj, (list, tuple)) and not _SCALARS.issuperset(map(type, obj)):
        for i, value in enumerate(obj):
            if isinstance(value, _CONTAINERS) and (found := _non_string_key(value)):
                return found[0], f"$[{i}]{found[1][1:]}"
    return None


def canonical_json(obj: Any) -> str:
    """The one true JSON spelling of ``obj`` (sorted keys, compact, ASCII)."""
    bad = _non_string_key(obj)
    if bad is not None:
        raise ValueError(f"non-string key {bad[0]!r} at {bad[1]}")
    try:
        return json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
            check_circular=False,
            default=_default,
        )
    except TypeError as exc:
        raise ValueError(str(exc)) from None
    except ValueError:
        # Without the circular check, allow_nan is json's only ValueError.
        raise ValueError("non-finite float cannot be canonicalized") from None


def content_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def hash_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes (blob identity)."""
    return hashlib.sha256(data).hexdigest()


def hash_file(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
