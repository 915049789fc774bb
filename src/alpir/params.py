"""System parameters shared by every layer of the package.

A configuration is N replicated non-colluding databases holding K
independent messages of L bits each, a user-privacy budget eps (likelihood
ratio bound e^eps, in nats) and a database-privacy budget delta (leakage
about the undesired messages, in bits per message bit).
"""

from __future__ import annotations

import math
from collections import namedtuple

MAX_DATABASES = 1 << 500  # the N bounds.scaled_terms leaves room for


class SystemParams(namedtuple(
        "_Fields", "n_databases n_messages message_bits eps delta")):
    """Immutable system configuration, checked whenever one is built.

    Attributes:
        n_databases: N, number of replicated servers, 1 to 2^500.
        n_messages: K, number of stored messages (>= 2).
        message_bits: L, bits per message; (N-1) must divide L when N >= 2.
        eps: user-privacy budget in nats, >= 0, may be math.inf.
        delta: database-privacy budget in bits leaked per message bit, >= 0.
    """

    __slots__ = ()

    def __new__(cls, n_databases: int, n_messages: int, message_bits: int,
                eps: float, delta: float) -> "SystemParams":
        if (not isinstance(n_databases, int)
                or not 1 <= n_databases <= MAX_DATABASES):
            raise ValueError("n_databases must be an integer from 1 to 2^500")
        if not isinstance(n_messages, int) or n_messages < 2:
            raise ValueError("n_messages must be an integer >= 2")
        if not isinstance(message_bits, int) or message_bits < 1:
            raise ValueError("message_bits must be an integer >= 1")
        if n_databases >= 2 and message_bits % (n_databases - 1):
            raise ValueError(
                "message_bits must be divisible by n_databases - 1 "
                "(subpacketization requirement)"
            )
        if math.isnan(eps) or eps < 0:
            raise ValueError("eps must be >= 0")
        if math.isnan(delta) or delta < 0 or math.isinf(delta):
            raise ValueError("delta must be finite and >= 0")
        return super().__new__(cls, n_databases, n_messages, message_bits,
                               eps, delta)

    def _replace(self, **changes) -> "SystemParams":
        # The namedtuple _replace builds through tuple.__new__, unchecked.
        return SystemParams(**{**self._asdict(), **changes})

    def subpacket_count(self) -> int:
        """Subpackets per message part (N - 1). Requires N >= 2."""
        if self.n_databases < 2:
            raise ValueError("subpacketization needs at least 2 databases")
        return self.n_databases - 1

    def subpacket_total_bits(self) -> int:
        """L / (N - 1), the bits one subpacket slot spans across both parts."""
        return self.message_bits // self.subpacket_count()


def default_message_bits(n: int) -> int:
    """L when none is given: four bits per subpacket, 4 for one server."""
    return 4 * (n - 1) if n > 1 else 4
