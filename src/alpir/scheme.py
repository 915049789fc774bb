"""The retrieval scheme: message layout, path sampling, queries, answers.

Each message of L bits is split into a masked part and an open part, each
cut into N-1 subpackets. Masked subpackets are s bits wide and are always
one-time-padded with the shared key S that only the databases hold; open
subpackets are L/(N-1) - s bits wide and travel in the clear inside XOR
combinations. The layout of message k is

    bits [0, (N-1)s)              masked subpackets 1..N-1, s bits each
    bits [(N-1)s, L)              open subpackets 1..N-1, w bits each

with w = L/(N-1) - s, so subpacket index 0 means "nothing".

A retrieval draws a base vector x in [0, N-1]^K. Database d (0-based)
receives the query vector v with v_k = x_k for k != i and
v_i = (x_i + d + 1) mod N, so the desired coordinate sweeps all N residues
across the databases while every other coordinate is common. Low-cost
bases (x_k = 0 for all k != i) carry weight p each; all other bases carry
weight q, with p/q = e^eps. The database answers with the XOR of the
selected masked subpackets plus the key, and the XOR of the selected open
subpackets (empty when every v_k is 0).
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import bits
from .bits import BitString
from .bounds import bounds_report, scaled_terms
from .params import SystemParams

# Guard subtracted inside the ceiling that quantizes the key size, so that
# float noise of a few ulp above an exact integer cannot cost a whole
# extra key bit. Matches the package-wide 1e-9 comparison tolerance.
CEIL_GUARD = 1e-9


class PathClass(Enum):
    LOW = "Low"
    HIGH = "High"


class PartitionLayout(NamedTuple):
    """How messages are cut up and how large the shared key is."""

    key_bits: int
    masked_subpacket_bits: int
    open_subpacket_bits: int
    subpackets_per_part: int
    effective_alpha: float
    effective_delta: float

    @property
    def message_bits(self) -> int:
        return self.subpackets_per_part * (
            self.masked_subpacket_bits + self.open_subpacket_bits
        )

    def subpacket(self, message: BitString, part: int, index: int) -> BitString:
        """Subpacket `index` (1-based) of part 1 (masked) or part 2 (open)."""
        if message.nbits != self.message_bits:
            raise ValueError("message width does not match layout")
        if not 1 <= index <= self.subpackets_per_part:
            raise ValueError("subpacket index out of range")
        if part == 1:
            return message.slice((index - 1) * self.masked_subpacket_bits,
                                 self.masked_subpacket_bits)
        if part == 2:
            base = self.subpackets_per_part * self.masked_subpacket_bits
            return message.slice(base + (index - 1) * self.open_subpacket_bits,
                                 self.open_subpacket_bits)
        raise ValueError("part must be 1 or 2")


def layout_for_key_bits(params: SystemParams, key_bits: int) -> PartitionLayout:
    """Build the layout for an explicit key size (key_bits in [0, L/(N-1)])."""
    per_sub = params.subpacket_total_bits()
    if not 0 <= key_bits <= per_sub:
        raise ValueError("key_bits must lie in [0, message_bits/(n_databases-1)]")
    open_bits = per_sub - key_bits
    eff_delta = (path_distribution(params).high_total * open_bits
                 / params.message_bits)
    return PartitionLayout(
        key_bits=key_bits,
        masked_subpacket_bits=key_bits,
        open_subpacket_bits=open_bits,
        subpackets_per_part=params.subpacket_count(),
        effective_alpha=key_bits / params.message_bits,
        effective_delta=eff_delta,
    )


def plan_partition(params: SystemParams) -> PartitionLayout:
    """Choose the key size from the privacy budgets and lay the messages out.

    The key rate alpha1 is quantized to whole bits by rounding up, so the
    realized leakage never exceeds the delta budget (up to the ceiling
    guard). The realized download cost is d_upper at the layout's
    effective_delta, which can exceed d_upper at delta by up to
    low_total / L.
    """
    alpha = bounds_report(params).alpha1
    key_bits = math.ceil(alpha * params.message_bits - CEIL_GUARD)
    key_bits = max(0, min(key_bits, params.subpacket_total_bits()))
    return layout_for_key_bits(params, key_bits)


class PathDistribution(NamedTuple):
    """Per-base-vector probabilities of the retrieval path draw."""

    n_databases: int
    n_messages: int
    p: float
    q: float
    # p / q = e^eps, kept for where p and q fall below the normal doubles.
    ratio: float = math.inf
    # 1 - N p from the law's own terms: the difference cancels to 0 as N p
    # nears 1. path_distribution always sets it.
    high_total: float = math.nan

    @property
    def low_total(self) -> float:
        return self.p * self.n_databases


def path_distribution(params: SystemParams) -> PathDistribution:
    """p = e^eps/(N e^eps + N^K - N) per low-cost base, q = 1/(...) otherwise,
    and high_total = (N^K - N)/(...), the weight of all high-cost bases.

    In the eps -> infinity limit this degenerates to p = 1/N, q = 0.
    """
    n, k = params.n_databases, params.n_messages
    if n < 2:
        raise ValueError("path distribution needs n_databases >= 2")
    high = n ** k - n
    s, e, one = scaled_terms(params.eps, high)
    scaled_high = high / (1 << s)
    denom = n * e + scaled_high
    _, ratio, one_r = scaled_terms(params.eps, 1)
    return PathDistribution(n, k, e / denom, one / denom, ratio / one_r,
                            scaled_high / denom)


class PathChoice(NamedTuple):
    base: tuple[int, ...]
    desired: int
    path_class: PathClass


def classify_base(base: Sequence[int], desired: int) -> PathClass:
    if any(base[j] for j in range(len(base)) if j != desired):
        return PathClass.HIGH
    return PathClass.LOW


# Draw count from which `sample_bases` reads words in batches. A batch
# round costs a getrandbits, a to_bytes and a translate, and where words
# are rejected a batch takes several rounds, so few draws are faster one
# by one. Against the loop of getrandbits reads, on a 2-vCPU x86 host
# under CPython 3.11, the batch took 1.04x the loop's time at 64 draws
# and 0.94x at 80 at N = 2, 0.86x and 0.81x at N = 3, and 1.12x and
# 1.02x at N = 128; 0.90-0.97x at 96 draws and below that at 128.
_BATCH_MIN_DRAWS = 80


@lru_cache(maxsize=256)
def _top_byte_tables(n: int) -> tuple[bytes, bytes]:
    """`bytes.translate` arguments for randrange(n), n <= 255: the table
    maps a word's top byte to the value it draws, and the delete set holds
    the top bytes that randrange rejects."""
    shift = 8 - n.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= n))


def _draw_below(n: int, m: int, rng: random.Random) -> bytes:
    """The values of m calls rng.randrange(n), n <= 255, leaving the exact
    `random.Random` rng in the same state.

    randrange(n) keeps a 32-bit word w iff w >> (32 - k) < n, with
    k = n.bit_length(), and getrandbits(32 j) returns j consecutive words,
    lowest first. For n <= 255 only the top byte of w matters, so each
    round reads one word per value still missing and keeps the accepted
    top bytes; no round reads past the word that completes the last value.
    """
    table, reject = _top_byte_tables(n)
    out = b""
    while len(out) < m:
        missing = m - len(out)
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        out += words[3::4].translate(table, reject)
    return out


def sample_bases(dist: PathDistribution, desired: Iterable[int],
                 rng) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Draw one path per desired index, in order, all from rng, and yield
    (base, is_low) for each, without enumerating the N^K-point support.

    The draws of a path are, in order: randrange(N) for the desired
    coordinate, rng.random() for the class, and on a high-cost path K-1
    more randrange(N) for the other coordinates, all drawn again while all
    are zero. On an exact `random.Random` a randrange(N) is read as
    CPython 3.10-3.13 read it: getrandbits(N.bit_length()), again while
    the value is N or more. The K-1 other coordinates are read in batches
    by `_draw_below` when N <= 255 and K-1 >= _BATCH_MIN_DRAWS. So the
    paths and the state left in rng are exactly those of the randrange
    calls. A subclass may draw differently, so it gets one randrange call
    per coordinate.
    """
    n, k = dist.n_databases, dist.n_messages
    low_total = dist.low_total
    uniform = rng.random
    exact = type(rng) is random.Random
    if exact:
        draw, width = rng.getrandbits, n.bit_length()
    else:
        # randrange(n) is below n, so the loops below never draw again.
        draw, width = rng.randrange, n
    batched = exact and n <= 255 and k > _BATCH_MIN_DRAWS
    for i in desired:
        if not 0 <= i < k:
            raise ValueError("desired message index out of range")
        first = draw(width)
        while first >= n:
            first = draw(width)
        if uniform() < low_total:
            base = [0] * k
            base[i] = first
            yield tuple(base), True
            continue
        while True:
            if batched:
                others = _draw_below(n, k - 1, rng)
            else:
                others = []
                for _ in range(k - 1):
                    r = draw(width)
                    while r >= n:
                        r = draw(width)
                    others.append(r)
            if any(others):
                break
        yield (*others[:i], first, *others[i:]), False


# PathClass by is_low. Reading an Enum member off its class takes about
# 0.14 us on CPython 3.11; indexing this takes 0.03 us.
_CLASS_OF = (PathClass.HIGH, PathClass.LOW)


def sample_path(dist: PathDistribution, desired: int, rng) -> PathChoice:
    """One path of `sample_bases`, drawn the same way."""
    (base, low), = sample_bases(dist, (desired,), rng)
    return PathChoice(base, desired, _CLASS_OF[low])


class QueryVector(NamedTuple):
    indices: tuple[int, ...]


class MessageStore:
    """Replicated database contents: K messages plus the shared key.

    Immutable, and equal and hashed by (messages, key). _tables maps a
    layout to its subpacket table, filled on first use by
    subpacket_table, and _last is the last (layout, table) it returned.
    """

    __slots__ = ("messages", "key", "_tables", "_last")

    def __init__(self, messages: tuple[BitString, ...], key: BitString):
        _set_messages(self, messages)
        _set_key(self, key)
        _set_tables(self, {})
        _set_last(self, (None, None))

    def __setattr__(self, name, value):
        raise AttributeError("MessageStore is immutable")

    def __delattr__(self, name):
        raise AttributeError("MessageStore is immutable")

    def __reduce__(self):
        return (MessageStore, (self.messages, self.key))

    def __eq__(self, other) -> bool:
        if type(other) is not MessageStore:
            return NotImplemented
        return (self.messages, self.key) == (other.messages, other.key)

    def __hash__(self) -> int:
        return hash((self.messages, self.key))

    @classmethod
    def random(cls, params: SystemParams, layout: PartitionLayout,
               rng) -> "MessageStore":
        msgs = tuple(BitString.random(params.message_bits, rng)
                     for _ in range(params.n_messages))
        return cls(msgs, BitString.random(layout.key_bits, rng))

    def subpacket_table(self, layout: PartitionLayout) -> tuple:
        """(key, rows, narrow): the fold operands `answer` XORs.

        Entry v of row k stands for subpacket v of message k's masked
        part m and open part o; entry 0 for index 0, which selects
        nothing. On a narrow layout, whose parts are both under
        bits._PACKED_MIN_BYTES, entry v is the int m << w | o and entry 0
        is 0, and key is the key's int shifted left by w, so an answer is
        one XOR per row. On other layouts entry v is the pair (m, o), each
        an int or a read-only uint8 array of packed bytes for a wide part
        (see `bits`), and key is the key's operand. The table is built on
        first use and lives as long as the store; it holds one more copy
        of the messages. Servers share a store across threads, and a race
        only builds the same table twice. The last layout asked for is
        found again by identity, without hashing it.
        """
        last = self._last
        if last[0] is layout:
            return last[1]
        table = self._tables.get(layout)
        if table is None:
            if self.key.nbits != layout.masked_subpacket_bits:
                raise ValueError("key width does not match layout")
            w = layout.open_subpacket_bits
            narrow = (max(layout.masked_subpacket_bits, w) + 7
                      >> 3 < bits._PACKED_MIN_BYTES)
            rows = []
            for m in self.messages:
                pairs = [(layout.subpacket(m, 1, v)._operand(),
                          layout.subpacket(m, 2, v)._operand())
                         for v in range(1, layout.subpackets_per_part + 1)]
                rows.append((0, *(a << w | b for a, b in pairs)) if narrow
                            else (None, *pairs))
            key = self.key.value << w if narrow else self.key._operand()
            table = self._tables.setdefault(layout,
                                            (key, tuple(rows), narrow))
        _set_last(self, (layout, table))
        return table


# Slots are set through their descriptors, since __setattr__ refuses.
_set_messages, _set_key, _set_tables, _set_last = (
    MessageStore.__dict__[name].__set__ for name in MessageStore.__slots__)


def make_queries(choice: PathChoice, params: SystemParams) -> tuple[QueryVector, ...]:
    """Query vectors for databases 0..N-1; only the desired coordinate varies."""
    n = params.n_databases
    out = []
    for d in range(n):
        v = list(choice.base)
        v[choice.desired] = (choice.base[choice.desired] + d + 1) % n
        out.append(QueryVector(tuple(v)))
    return tuple(out)


class Answer(NamedTuple):
    """One database's reply: keyed XOR part and clear XOR part."""

    masked: BitString
    open: BitString


def narrow_fold(store: MessageStore, layout: PartitionLayout,
                query: QueryVector) -> Optional[tuple[int, int]]:
    """Check the query as `answer` does. On a narrow layout (see
    MessageStore.subpacket_table), return its answer as one int, masked
    << w | open with w the layout's open width, and the open part's width:
    w, or 0 for the all-zero query. Return None on other layouts.
    """
    indices = query.indices
    if len(indices) != len(store.messages):
        raise ValueError("query length does not match message count")
    top = max(indices, default=0)
    if min(indices, default=0) < 0 or top > layout.subpackets_per_part:
        raise ValueError("query index out of range")
    c, rows, narrow = store.subpacket_table(layout)
    if not narrow:
        return None
    for row, v in zip(rows, indices):
        c ^= row[v]
    return c, layout.open_subpacket_bits if top else 0


def answer(store: MessageStore, layout: PartitionLayout,
           query: QueryVector, into=None) -> Answer:
    """Evaluate one query against the store.

    The masked part always carries the key, so it is s bits even for the
    all-zero query; the open part is empty exactly when every index is 0
    (for layouts with a nonzero open width).

    `into` lets the caller choose where the parts land. Once the query is
    validated, `into(masked_bits, open_bits)` returns two writable uint8
    arrays of the parts' packed byte lengths, and each part is written
    into its array and returned as a view of it. A wide part is folded
    there by numpy: the first XOR writes every byte, so the arrays need
    not be zeroed. A narrow part is folded as an int, then copied in.
    """
    folded = narrow_fold(store, layout, query)
    if folded is not None:
        c, open_bits = folded
        w = layout.open_subpacket_bits
        parts = (BitString(c >> w, store.key.nbits),
                 BitString(c & ((1 << w) - 1), open_bits))
        if into is not None:
            for part, out in zip(parts, into(store.key.nbits, open_bits)):
                out[:] = part._array()
        return Answer(*parts)
    import numpy as np
    key, rows, _ = store.subpacket_table(layout)
    indices = query.indices
    widths = (store.key.nbits, layout.open_subpacket_bits
              if any(indices) else 0)
    if into is None:
        into = _new_parts
    picked = [row[v] for row, v in zip(rows, indices) if v]
    parts = []
    for operands, out, nbits in zip(
            ([key] + [m for m, _ in picked], [o for _, o in picked]),
            into(*widths), widths):
        if not nbits:
            part = BitString(0, 0)
        elif type(operands[0]) is int:
            value = 0
            for x in operands:
                value ^= x
            part = BitString(value, nbits)
            out[:] = part._array()
        else:
            if len(operands) == 1:
                out[:] = operands[0]
            else:
                np.bitwise_xor(operands[0], operands[1], out=out)
                for x in operands[2:]:
                    out ^= x
            part = BitString._of_packed(out, nbits)
        parts.append(part)
    return Answer(*parts)


def _new_parts(*widths: int) -> list:
    """`answer`'s arrays when its caller passes none: fresh ones."""
    import numpy as np
    return [np.empty((nbits + 7) >> 3, np.uint8) for nbits in widths]


def _desired_zero_index(queries: Sequence[QueryVector], desired: int) -> dict:
    """Map desired-coordinate value -> database position; must be a bijection."""
    seen = {}
    for d, qv in enumerate(queries):
        v = qv.indices[desired]
        if v in seen:
            raise ValueError("duplicate desired-coordinate value across queries")
        seen[v] = d
    if 0 not in seen:
        raise ValueError("no query has 0 at the desired coordinate")
    return seen


def decode(answers: Sequence[Answer], queries: Sequence[QueryVector],
           desired: int) -> BitString:
    """Recover the desired message from the N aligned (answer, query) pairs.

    With a0 the answer whose desired coordinate is 0, the message is the
    masked parts a0 ^ a_ell for ell = 1 .. N-1, then the open parts.
    When every part is under bits._PACKED_MIN_BYTES and the widths are
    the ones `answer` gives (masked s everywhere, open w, or 0 on a0),
    the XORs are taken on the parts' ints and shifted into one int, for
    one BitString. Other answers XOR and join part by part, which raises
    on a width mismatch.
    """
    if len(answers) != len(queries):
        raise ValueError("answers and queries must align")
    where = _desired_zero_index(queries, desired)
    a0 = answers[where[0]]
    rest = []
    for ell in range(1, len(queries)):
        if ell not in where:
            raise ValueError("desired coordinate does not cover all residues")
        rest.append(answers[where[ell]])
    s, w = a0.masked.nbits, rest[0].open.nbits if rest else 0
    if ((max(s, w) + 7) >> 3 < bits._PACKED_MIN_BYTES
            and a0.open.nbits in (0, w)):
        m0, o0 = a0.masked.value, a0.open.value
        masked = opened = 0
        for a in rest:
            if a.masked.nbits != s or a.open.nbits != w:
                break
            masked = masked << s | m0 ^ a.masked.value
            opened = opened << w | o0 ^ a.open.value
        else:
            return BitString(masked << len(rest) * w | opened,
                             len(rest) * (s + w))
    return BitString.join([a0.masked ^ a.masked for a in rest]
                          + [a0.open ^ a.open for a in rest])


class ResidualView(NamedTuple):
    """What the answers still describe after the desired message is removed.

    coefficients lists (message index, subpacket index) pairs of the one
    surviving open-part XOR combination; empty on low-cost paths, where
    nothing about the other messages survives.
    """

    coefficients: tuple[tuple[int, int], ...]
    bits: Optional[BitString]

    @property
    def leaked_bits(self) -> int:
        return self.bits.nbits if self.bits is not None else 0


def residual_view(answers: Sequence[Answer], queries: Sequence[QueryVector],
                  decoded: BitString, layout: PartitionLayout) -> ResidualView:
    """XOR the recovered message back out of every open part.

    Masked parts are never touched: the key pads them once and the user
    cannot strip it. On a high-cost path every database's open part
    collapses to the same single XOR of undesired open subpackets, which
    is exactly the leaked material.
    """
    if len(answers) != len(queries):
        raise ValueError("answers and queries must align")
    n = len(queries)
    varying = [j for j, col in enumerate(zip(*(qv.indices for qv in queries)))
               if col.count(col[0]) != n]
    if len(varying) != 1:
        raise ValueError("queries must vary in exactly one coordinate")
    desired = varying[0]
    base = queries[0].indices
    coeffs = tuple((j, v) for j, v in enumerate(base) if v and j != desired)
    if not coeffs:
        for d, qv in enumerate(queries):
            v = qv.indices[desired]
            expect = (layout.subpacket(decoded, 2, v) if v
                      else BitString.zeros(0))
            if answers[d].open != expect:
                raise ValueError("answers inconsistent with decoded message")
        return ResidualView((), None)
    residual = None
    for d, qv in enumerate(queries):
        v = qv.indices[desired]
        part = answers[d].open
        if v:
            part = part ^ layout.subpacket(decoded, 2, v)
        if residual is None:
            residual = part
        elif part != residual:
            raise ValueError("answers inconsistent with decoded message")
    return ResidualView(coeffs, residual)


def session_download_bits(layout: PartitionLayout, path_class: PathClass) -> int:
    """Total answer bits of one session: L + s on low, N L/(N-1) on high."""
    n = layout.subpackets_per_part + 1
    per_answer = layout.masked_subpacket_bits + layout.open_subpacket_bits
    if path_class is PathClass.HIGH:
        return n * per_answer
    return layout.message_bits + layout.key_bits


def expected_cost(params: SystemParams, layout: PartitionLayout) -> float:
    """Mean download per message bit under the realized (quantized) layout."""
    n = params.n_databases
    dist = path_distribution(params)
    return (1.0 + 1.0 / (n - 1)
            - dist.low_total * layout.open_subpacket_bits / params.message_bits)
