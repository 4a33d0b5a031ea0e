"""The gateway's one JSON encoder: envelopes with results spliced in.

Every gateway response body is ``json.dumps(envelope, sort_keys=True)``
with the default separators. The bulky part of a job envelope is its
``result``, and a cached result's wire text (see
:class:`~repro.service.cache.CacheEntry`) is already exactly the bytes
that dump emits for it at any nesting depth. So an envelope carries the
result as :class:`RawJSON`, and :func:`encode` serializes only the small
outer structure, then splices each raw text in at its key's sorted
position. The bytes are identical to dumping the fully materialized
envelope, and a hit costs no per-request ``to_dict`` or re-encode of
the result.

How the splice finds its places: the stdlib encoder writes each
:class:`RawJSON` as one marker string, a NUL and a per-process random
nonce, so the raw texts belong, in order, between the pieces that the
encoded marker splits the output into. A string in the envelope can
only imitate the encoded marker by holding the nonce; it then adds a
piece, the count disagrees, and the encode is redone under a fresh
nonce that no existing content can hold. No content, however crafted,
can move or replace a splice.
"""

from __future__ import annotations

import json
import secrets
from typing import Optional


class RawJSON:
    """Pre-encoded JSON text that :func:`encode` emits verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_NONCE = secrets.token_hex(16)


def encode(obj) -> bytes:
    """``json.dumps(obj, sort_keys=True)`` as UTF-8, with the text of
    every :class:`RawJSON` in ``obj`` spliced in verbatim."""
    nonce = _NONCE
    while (text := _splice(obj, "\x00" + nonce)) is None:
        nonce = secrets.token_hex(16)
    return text.encode("utf-8")


def _splice(obj, marker: str) -> Optional[str]:
    """Encode ``obj`` with ``marker`` standing in for each RawJSON,
    then splice; ``None`` if a string in ``obj`` holds the marker."""
    raws: list[str] = []

    def mark(value) -> str:
        if type(value) is not RawJSON:
            raise TypeError(
                f"Object of type {type(value).__name__} is not "
                "JSON serializable"
            )
        raws.append(value.text)
        return marker

    text = json.JSONEncoder(sort_keys=True, default=mark).encode(obj)
    # The encoder emits markers in the order it called ``mark``.
    parts = text.split(json.dumps(marker))
    if len(parts) != len(raws) + 1:
        return None
    spliced = [parts[0]]
    for raw, part in zip(raws, parts[1:]):
        spliced += (raw, part)
    return "".join(spliced)
