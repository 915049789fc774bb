"""Brute-force mutual information: the reference for the rank oracle.

`brute_mi_oracle` sums the joint law of (undesired messages, view) over
every message assignment, key value and base vector, running the real
scheme to produce each view. Its cost is N^K * 2^(K L + s) views per
desired index, so it only serves tiny shapes, where it checks
`alpir.exact_mi_oracle` by a route that shares nothing with it but
`answer`.
"""

import itertools
import math
from collections import defaultdict

from alpir import (BitString, MessageStore, OracleResult, PathChoice,
                   PathClass, answer, classify_base, make_queries,
                   path_distribution)
from alpir.leakage import message_space


def brute_states(params, layout, message_support=None) -> int:
    """Views `brute_mi_oracle` builds per desired index."""
    msgs = (len(message_support) if message_support is not None
            else 1 << (params.n_messages * params.message_bits))
    return params.n_databases ** params.n_messages * msgs << layout.key_bits


def brute_mi_oracle(params, layout, message_support=None) -> OracleResult:
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
    return OracleResult(max(per_message), tuple(per_message))


def _answer_key(a) -> tuple:
    return (a.masked.value, a.masked.nbits, a.open.value, a.open.nbits)
