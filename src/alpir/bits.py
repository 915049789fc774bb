"""Fixed-width bit strings.

Bit index 0 is the most significant bit; to_bytes()/from_bytes() pack
MSB-first with zero padding at the tail of the last byte. XOR against a
zero-width string is the identity, which lets empty answer parts combine
with real ones without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BitString:
    value: int
    nbits: int

    def __post_init__(self) -> None:
        if self.nbits < 0:
            raise ValueError("nbits must be >= 0")
        if self.value < 0 or self.value >> self.nbits:
            raise ValueError("value out of range for nbits")

    @classmethod
    def zeros(cls, nbits: int) -> "BitString":
        return cls(0, nbits)

    @classmethod
    def random(cls, nbits: int, rng) -> "BitString":
        return cls(rng.getrandbits(nbits) if nbits else 0, nbits)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitString":
        """Unpack nbits from MSB-first packed bytes; pad bits must be zero."""
        if len(data) != (nbits + 7) // 8:
            raise ValueError("byte length does not match nbits")
        if nbits == 0:
            return cls(0, 0)
        raw = int.from_bytes(data, "big")
        pad = -nbits % 8
        if raw & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        return cls(raw >> pad, nbits)

    def to_bytes(self) -> bytes:
        pad = -self.nbits % 8
        return (self.value << pad).to_bytes((self.nbits + 7) // 8, "big")

    def __len__(self) -> int:
        return self.nbits

    def __xor__(self, other: "BitString") -> "BitString":
        if self.nbits == 0:
            return other
        if other.nbits == 0:
            return self
        if self.nbits != other.nbits:
            raise ValueError("width mismatch in xor")
        return BitString(self.value ^ other.value, self.nbits)

    def slice(self, start: int, n: int) -> "BitString":
        """Bits [start, start + n), counted from the MSB end."""
        if start < 0 or n < 0 or start + n > self.nbits:
            raise ValueError("slice out of range")
        # A slice that reaches the LSB end needs no shift, and one that
        # starts at the MSB end needs no mask: both cost a full copy of a
        # big int.
        shift = self.nbits - start - n
        value = self.value >> shift if shift else self.value
        return BitString(value & ((1 << n) - 1) if start else value, n)

    @classmethod
    def join(cls, parts: Iterable["BitString"]) -> "BitString":
        value, nbits = 0, 0
        for p in parts:
            value = (value << p.nbits) | p.value
            nbits += p.nbits
        return cls(value, nbits)

    def to01(self) -> str:
        return format(self.value, f"0{self.nbits}b") if self.nbits else ""
