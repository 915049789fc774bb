"""References for the rank oracle, per desired index.

`brute_mi_oracle` sums the joint law of (undesired messages, view) over
every message assignment, key value and base vector, running the real
scheme to produce each view. Its cost is N^K * 2^(K L + s) views per
desired index, so it only serves tiny shapes, where it checks
`alpir.exact_mi_oracle` by a route that shares nothing with it but
`answer`.

`unreduced_mi_oracle` is the rank oracle without its reduction to one
desired index, one value of its coordinate and one base per count of
nonzero undesired coordinates: it visits every desired index, every
value of the desired coordinate and every multiset of the undesired
values, at C(K+N-2, N-1) N^2 K `answer` calls against the oracle's K N.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from alpir import (BitString, MessageStore, PathChoice, PathClass, answer,
                   classify_base, make_queries, path_distribution)
from alpir.leakage import _probe_store, _rank, message_space


@dataclass(frozen=True)
class BruteResult:
    """Mutual information per desired index, and its maximum."""

    max_bits: float
    per_message: tuple[float, ...]


def brute_states(params, layout, message_support=None) -> int:
    """Views `brute_mi_oracle` builds per desired index."""
    msgs = (len(message_support) if message_support is not None
            else 1 << (params.n_messages * params.message_bits))
    return params.n_databases ** params.n_messages * msgs << layout.key_bits


def brute_mi_oracle(params, layout, message_support=None) -> BruteResult:
    """I(undesired messages; queries, answers) by full enumeration.

    The messages are uniform, or uniform over message_support, a list of
    K-tuples of message values.
    """
    n, k, l = params.n_databases, params.n_messages, params.message_bits
    s = layout.key_bits
    if message_support is not None and not message_support:
        raise ValueError("message_support must be nonempty")
    n_keys = 1 << s
    n_msgs = len(message_support) if message_support else 1 << (k * l)

    dist = path_distribution(params)
    bases = list(itertools.product(range(n), repeat=k))

    def message_tuples():
        if message_support is not None:
            for combo in message_support:
                if len(combo) != k:
                    raise ValueError("support entries must list K messages")
                yield tuple(BitString(m, l) for m in combo)
        else:
            yield from message_space(k, l)

    per_message = []
    for desired in range(k):
        joint = defaultdict(float)
        view_marg = defaultdict(float)
        rest_marg = defaultdict(float)
        for msgs in message_tuples():
            rest = tuple(msgs[j].value for j in range(k) if j != desired)
            for key in range(n_keys):
                store = MessageStore(msgs, BitString(key, s))
                w = 1.0 / (n_msgs * n_keys)
                for base in bases:
                    path_class = classify_base(base, desired)
                    px = dist.p if path_class is PathClass.LOW else dist.q
                    if px == 0.0:
                        continue
                    choice = PathChoice(base, desired, path_class)
                    view = tuple(
                        (qv.indices,) + _answer_key(answer(store, layout, qv))
                        for qv in make_queries(choice, params))
                    pr = px * w
                    joint[(rest, view)] += pr
                    view_marg[view] += pr
                    rest_marg[rest] += pr
        mi = 0.0
        for (rest, view), pr in joint.items():
            mi += pr * math.log2(pr / (rest_marg[rest] * view_marg[view]))
        per_message.append(max(0.0, mi))
    return BruteResult(max(per_message), tuple(per_message))


def unreduced_mi_oracle(params, layout) -> tuple[float, ...]:
    """The rank oracle's bits for each desired index, from every base.

    The known columns for desired j are the key and W_j's slots of the
    probe store, whose subpacket v of message j sits at bit j(N-1) + v of
    an open part and one bit higher in a masked part. The undesired
    values are visited as multisets with their multinomial counts, not by
    the oracle's count of nonzero coordinates. The integer sums over the
    N low-cost and N^K - N high-cost bases are weighted by their masses
    as the oracle weights its own.
    """
    n, k = params.n_databases, params.n_messages
    dist = path_distribution(params)
    store, probe, _ = _probe_store(n, k)
    per_message = []
    for desired in range(k):
        own = sum(1 << (desired * (n - 1) + v) for v in range(n - 1))
        known_masked, known_open = 1 | own << 1, own
        low_bits = high_bits = 0
        for others in itertools.combinations_with_replacement(range(n),
                                                               k - 1):
            weight = math.factorial(k - 1)
            for v in range(n):
                weight //= math.factorial(others.count(v))
            for first in range(n):
                base = (*others[:desired], first, *others[desired:])
                path_class = classify_base(base, desired)
                answers = [answer(store, probe, qv) for qv in make_queries(
                    PathChoice(base, desired, path_class), params)]
                masked = [a.masked.value for a in answers]
                open_ = [a.open.value for a in answers]
                bits = (layout.key_bits * (
                    _rank(masked) - _rank(m & known_masked for m in masked))
                    + layout.open_subpacket_bits * (
                    _rank(open_) - _rank(o & known_open for o in open_)))
                if path_class is PathClass.LOW:
                    low_bits += bits
                else:
                    high_bits += weight * bits
        per_message.append(dist.low_total * (low_bits / n)
                           + dist.high_total * (high_bits / (n ** k - n)))
    return tuple(per_message)


def _answer_key(a) -> tuple:
    return (a.masked.value, a.masked.nbits, a.open.value, a.open.nbits)
