"""The sketch file layout, version 2 (README "File format").

One header (magic, version, mode, epsilon, r, k, seed, ordinal base, element
count, descriptor length, body length and a CRC32 of every other byte), the
ASCII statistic descriptor, then the body: the mode's sections, each a byte
length and bare little-endian records. Anything else raises
:class:`ParseError`; files of other versions are not read.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .core import MIN_EPSILON, ParseError

__all__ = ["SketchFileHeader", "OUTKEY", "ENTRY", "pack", "unpack", "records"]

MAGIC = b"FSK1"
VERSION = 2
# mode name -> number of body sections, in mode-byte order
MODES = {"point": 2, "combination": 3, "fullrange": 2, "signed": 4}
_HEAD = struct.Struct("<4sHBdIIQQQHQ")  # the header up to its CRC32
_START = _HEAD.size + 4  # offset of the descriptor

OUTKEY = np.dtype("<u8")
ENTRY = np.dtype([("outkey", "<u8"), ("value", "<f8")])


@dataclass(frozen=True)
class SketchFileHeader:
    mode: str
    statistic: str
    epsilon: float
    r: int
    k: int
    seed: int
    ordinal_base: int
    count: int


def pack(h: SketchFileHeader, sections: list[bytes]) -> bytes:
    """The file holding ``sections`` under the header ``h``."""
    desc = h.statistic.encode("ascii")
    body = b"".join(len(s).to_bytes(8, "little") + s for s in sections)
    head = _HEAD.pack(
        MAGIC, VERSION, list(MODES).index(h.mode), h.epsilon, h.r, h.k, h.seed, h.ordinal_base, h.count, len(desc), len(body)
    )
    crc = zlib.crc32(body, zlib.crc32(desc, zlib.crc32(head)))
    return head + crc.to_bytes(4, "little") + desc + body


def unpack(data: bytes) -> tuple[SketchFileHeader, list[bytes]]:
    """Header and sections of a file written by :func:`pack`."""
    if len(data) < _START or data[:4] != MAGIC:
        raise ParseError("not a sketch file")
    _, version, tag, epsilon, r, k, seed, base, count, dlen, blen = _HEAD.unpack_from(data)
    if version != VERSION:
        raise ParseError(f"unsupported sketch file version {version}; this build reads version {VERSION}")
    if len(data) != _START + dlen + blen:
        raise ParseError(f"file holds {len(data)} bytes, its header declares {_START + dlen + blen}")
    if zlib.crc32(data[_START:], zlib.crc32(data[: _HEAD.size])) != int.from_bytes(data[_HEAD.size : _START], "little"):
        raise ParseError("checksum mismatch")
    desc = data[_START : _START + dlen]
    if tag >= len(MODES) or not MIN_EPSILON <= epsilon < 1.0 or r < 1 or k < 2 or not desc.isascii():
        raise ParseError(f"invalid header (mode {tag}, epsilon {epsilon}, r {r}, k {k}, statistic {desc!r})")
    header = SketchFileHeader(list(MODES)[tag], desc.decode("ascii"), epsilon, r, k, seed, base, count)
    sections, off = [], _START + dlen
    for _ in range(MODES[header.mode]):  # a section overrunning the body leaves off past its end
        n = int.from_bytes(data[off : off + 8], "little")
        sections.append(data[off + 8 : off + 8 + n])
        off += 8 + n
    if off != len(data):
        raise ParseError(f"a {header.mode} body holds {MODES[header.mode]} sections and nothing else")
    return header, sections


def records(data: bytes, record: np.dtype) -> np.ndarray:
    """The records of one section."""
    if len(data) % record.itemsize:
        raise ParseError(f"a section of {len(data)} bytes is not a whole number of {record.itemsize}-byte records")
    return np.frombuffer(data, dtype=record)
