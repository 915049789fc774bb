"""Fixed-width bit strings.

Bit index 0 is the most significant bit; to_bytes()/from_bytes() pack
MSB-first with zero padding at the tail of the last byte. XOR against a
zero-width string is the identity, which lets empty answer parts combine
with real ones without special cases.

A BitString holds its bits as an int, as packed bytes, or both; each
form is made from the other on first use and kept. Strings of at least
_PACKED_MIN_BYTES bytes are XORed, sliced and joined packed, with numpy,
and from_bytes() keeps their bytes: at 512 KiB an int/bytes conversion
costs about 0.6 ms each way, against 20 us for a numpy XOR. Narrower
strings work on ints, where numpy's fixed cost of about 1.5 us per call
is larger than the whole int operation. numpy is imported by the first
operation on a wide string, so a program whose strings are all narrow
never loads it. The form never shows in results: equality, hashing and
every method agree across the two.
"""

from __future__ import annotations

from typing import Iterable

# Byte width from which strings are worked on packed: the measured
# crossover of a whole N=2 session (answer, encode_answer, decode_answer,
# decode and the equality check, in one process). Against ints, packed
# parts took 1.11x the CPU time at 512 bytes, 1.08x at 768, 0.97x at
# 1 KiB and 0.72x at 4 KiB. The width test
# `(nbits + 7) >> 3 >= _PACKED_MIN_BYTES` is written out where it is
# used: a function call would cost about a tenth of a narrow XOR.
_PACKED_MIN_BYTES = 1024


def _new_packed(nbytes: int) -> tuple:
    """A zeroed bytearray for a result, and a uint8 array over it.

    Results live in bytearrays because comparing one with bytes is a
    plain memcmp. Copying a 512 KiB array out to bytes for the compare
    instead cost about 112 fresh page faults per call under glibc.
    """
    import numpy as np
    buf = bytearray(nbytes)
    return buf, np.frombuffer(buf, np.uint8)


class BitString:
    """An immutable string of `nbits` bits with integer value `value`."""

    # Strings made from packed bytes are _Packed, whose `value` fills
    # this slot on first read; everywhere else `value` is a plain slot read.
    __slots__ = ("nbits", "value", "_packed")

    def __init__(self, value: int, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if value < 0 or value >> nbits:
            raise ValueError("value out of range for nbits")
        _set_nbits(self, nbits)
        _set_value(self, value)
        _set_packed(self, None)

    @classmethod
    def _of_packed(cls, packed, nbits: int) -> "BitString":
        """Wrap packed bytes with clean padding, uncopied: bytes, a
        read-only memoryview, or a bytearray or uint8 array that nobody
        else writes."""
        self = object.__new__(_Packed)
        _set_nbits(self, nbits)
        _set_packed(self, packed)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    def __delattr__(self, name):
        raise AttributeError("BitString is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__ and the int form; the
        # default would set each slot and hit __setattr__.
        return (BitString, (self.value, self.nbits))

    @classmethod
    def zeros(cls, nbits: int) -> "BitString":
        return cls(0, nbits)

    @classmethod
    def random(cls, nbits: int, rng) -> "BitString":
        out = cls(rng.getrandbits(nbits) if nbits else 0, nbits)
        if (nbits + 7) >> 3 >= _PACKED_MIN_BYTES:
            # Keep only the packed form. With the int kept and the bytes
            # made on first use, glibc trimmed and re-faulted the client's
            # heap top every session at L=2^22: 372 page faults per
            # session instead of 11.
            return cls._of_packed(out.to_bytes(), nbits)
        return out

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitString":
        """Unpack nbits from MSB-first packed bytes; pad bits must be zero.

        Wide strings keep `data` itself when it is read-only (bytes, or a
        memoryview of them), so only the last byte is read here.
        """
        if len(data) != (nbits + 7) // 8:
            raise ValueError("byte length does not match nbits")
        if nbits == 0:
            return cls(0, 0)
        pad = -nbits % 8
        if data[-1] & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        if (nbits + 7) >> 3 < _PACKED_MIN_BYTES:
            return cls(int.from_bytes(data, "big") >> pad, nbits)
        if not memoryview(data).readonly:
            data = bytes(data)
        return cls._of_packed(data, nbits)

    def to_bytes(self) -> bytes:
        packed = self._packed
        if type(packed) is not bytes:
            if packed is None:
                pad = -self.nbits % 8
                packed = (self.value << pad).to_bytes((self.nbits + 7) // 8,
                                                     "big")
            else:
                packed = bytes(packed)
            _set_packed(self, packed)
        return packed

    def _buffer(self):
        """The packed bytes in whatever buffer holds them, uncopied, for
        numpy and for writing into a frame. Callers must not write to it."""
        packed = self._packed
        return self.to_bytes() if packed is None else packed

    def _array(self):
        import numpy as np
        return np.frombuffer(self._buffer(), np.uint8)

    def _operand(self):
        """What `scheme.answer` XOR-folds for this string: its int when
        narrow, a read-only uint8 array of its packed bytes when wide, so
        that no fold writes into it."""
        if (self.nbits + 7) >> 3 < _PACKED_MIN_BYTES:
            return self.value
        arr = self._array()
        arr.flags.writeable = False
        return arr

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        if self.nbits != other.nbits:
            return False
        if (self.nbits + 7) >> 3 < _PACKED_MIN_BYTES:
            return self.value == other.value
        x, y = self._buffer(), other._buffer()
        if not (isinstance(x, (bytes, bytearray))
                and isinstance(y, (bytes, bytearray))):
            x, y = self.to_bytes(), other.to_bytes()
        return x == y

    def __hash__(self) -> int:
        return hash((self.value, self.nbits))

    def __repr__(self) -> str:
        return f"BitString(value={self.value!r}, nbits={self.nbits!r})"

    def __xor__(self, other: "BitString") -> "BitString":
        if self.nbits == 0:
            return other
        if other.nbits == 0:
            return self
        nbits = self.nbits
        if nbits != other.nbits:
            raise ValueError("width mismatch in xor")
        if (nbits + 7) >> 3 < _PACKED_MIN_BYTES:
            return BitString(self.value ^ other.value, nbits)
        import numpy as np
        buf, out = _new_packed((nbits + 7) >> 3)
        np.bitwise_xor(self._array(), other._array(), out=out)
        return BitString._of_packed(buf, nbits)

    def slice(self, start: int, n: int) -> "BitString":
        """Bits [start, start + n), counted from the MSB end."""
        if start < 0 or n < 0 or start + n > self.nbits:
            raise ValueError("slice out of range")
        if (n + 7) >> 3 >= _PACKED_MIN_BYTES:
            return self._packed_slice(start, n)
        # A slice that reaches the LSB end needs no shift, and one that
        # starts at the MSB end needs no mask: both cost a full copy of a
        # big int.
        shift = self.nbits - start - n
        value = self.value >> shift if shift else self.value
        return BitString(value & ((1 << n) - 1) if start else value, n)

    def _packed_slice(self, start: int, n: int) -> "BitString":
        import numpy as np
        first, r, nbytes = start >> 3, start & 7, (n + 7) >> 3
        src = self._array()[first:first + nbytes + 1]
        buf, out = _new_packed(nbytes)
        if r:
            np.left_shift(src[:nbytes], r, out=out)
            out[:len(src) - 1] |= src[1:nbytes + 1] >> (8 - r)
        else:
            out[:] = src[:nbytes]
        out[-1] &= (0xFF << (-n % 8)) & 0xFF
        return BitString._of_packed(buf, n)

    @classmethod
    def join(cls, parts: Iterable["BitString"]) -> "BitString":
        parts = list(parts)
        value, nbits = 0, 0
        for p in parts:
            if (p.nbits + 7) >> 3 >= _PACKED_MIN_BYTES:
                return cls._packed_join([q for q in parts if q.nbits])
            value = (value << p.nbits) | p.value
            nbits += p.nbits
        return cls(value, nbits)

    @classmethod
    def _packed_join(cls, parts: list) -> "BitString":
        """Join with at least one wide part; narrow ones cost a few numpy
        calls each, far less than turning the wide ones into ints."""
        if len(parts) == 1:
            return parts[0]
        nbits = sum(p.nbits for p in parts)
        buf, out = _new_packed((nbits + 7) >> 3)
        at = 0
        for p in parts:
            arr, first, r = p._array(), at >> 3, at & 7
            if r:
                # Bytes pushed past the end of `out` hold only padding.
                out[first:first + len(arr)] |= arr >> r
                tail = min(len(arr), len(out) - first - 1)
                out[first + 1:first + 1 + tail] |= arr[:tail] << (8 - r)
            else:
                out[first:first + len(arr)] = arr
            at += p.nbits
        return cls._of_packed(buf, nbits)

    def to01(self) -> str:
        return format(self.value, f"0{self.nbits}b") if self.nbits else ""


class _Packed(BitString):
    """A BitString made from packed bytes. Its int is computed on first
    read of `value` and kept in the inherited slot."""

    __slots__ = ()

    @property
    def value(self) -> int:
        try:
            return _VALUE_SLOT.__get__(self)
        except AttributeError:
            value = int.from_bytes(self._packed, "big") >> (-self.nbits % 8)
            _set_value(self, value)
            return value


# Slots are set through their descriptors, since __setattr__ refuses:
# about 0.2 us for three, against 0.35 us through object.__setattr__.
_VALUE_SLOT = BitString.__dict__["value"]
_set_nbits = BitString.__dict__["nbits"].__set__
_set_value = _VALUE_SLOT.__set__
_set_packed = BitString.__dict__["_packed"].__set__
