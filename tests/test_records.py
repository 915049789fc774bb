"""The package's records: immutable NamedTuples, SystemParams checked on
every build, and MessageStore equal by contents alone."""

import copy
import math
import pickle

import pytest

from alpir import (BitString, MessageStore, SystemParams, answer,
                   bounds_report, exact_mi_oracle, make_queries,
                   path_distribution, plan_partition, residual_view,
                   sample_path, single_server_cost)
from alpir.leakage import (cost_audit_from_mean, db_leak_audit,
                           ratio_audit_from_counts)
from alpir.netsim import encode_frame, parse_frame, run_trials
from alpir.seeding import derived_rng

WORKED = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
LAYOUT = plan_partition(WORKED)


def store(values=(0b101, 0b011), key=1):
    return MessageStore(tuple(BitString(v, 3) for v in values),
                        BitString(key, 1))


def every_record():
    """One real instance of each public record type, by its name."""
    choice = sample_path(path_distribution(WORKED), 0, derived_rng(1, "t"))
    queries = make_queries(choice, WORKED)
    answers = [answer(store(), LAYOUT, q) for q in queries]
    decoded = BitString(0b101, 3)
    stats = run_trials(4, WORKED, seed=1)
    return {
        "SystemParams": WORKED,
        "Bounds": bounds_report(WORKED),
        "SingleServerOutcome": single_server_cost(2, 1.0),
        "PartitionLayout": LAYOUT,
        "PathDistribution": path_distribution(WORKED),
        "PathChoice": choice,
        "QueryVector": queries[0],
        "Answer": answers[0],
        "ResidualView": residual_view(answers, queries, decoded, LAYOUT),
        "MessageStore": store(),
        "OracleResult": exact_mi_oracle(WORKED, LAYOUT),
        "QueryAuditResult": ratio_audit_from_counts({}, {0: 1, 1: 1}, 1.5),
        "CostAuditResult": cost_audit_from_mean(WORKED, LAYOUT, 1.6, 1000),
        "DbLeakAudit": db_leak_audit(WORKED, LAYOUT),
        "SessionRecord": stats.records[0],
        "TrialStats": stats,
        "WireFrame": parse_frame(encode_frame(1, b"x")),
    }


class TestImmutable:
    def test_every_record_refuses_assignment(self):
        records = every_record()
        assert len(records) == 17
        for name, record in records.items():
            assert type(record).__name__ == name
            field = (record._fields[0] if hasattr(record, "_fields")
                     else "messages")
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_a_record_is_a_tuple_of_its_fields(self):
        choice = sample_path(path_distribution(WORKED), 1,
                             derived_rng(1, "t"))
        assert choice == (choice.base, 1, choice.path_class)
        base, desired, _ = choice
        assert (base, desired) == (choice.base, choice.desired)


class TestSystemParamsChecks:
    GOOD = dict(n_databases=3, n_messages=2, message_bits=4, eps=0.5,
                delta=0.1)

    @pytest.mark.parametrize("field, bad", [
        ("n_databases", 0), ("n_databases", 2.0), ("n_messages", 1),
        ("message_bits", 0), ("message_bits", 5), ("eps", -1.0),
        ("eps", math.nan), ("delta", -0.5), ("delta", math.inf),
    ])
    def test_bad_value_raises_on_every_build(self, field, bad):
        good = SystemParams(**self.GOOD)
        with pytest.raises(ValueError):
            SystemParams(**{**self.GOOD, field: bad})
        with pytest.raises(ValueError):
            good._replace(**{field: bad})

    def test_replace_keeps_the_type(self):
        got = SystemParams(**self.GOOD)._replace(delta=0.2)
        assert type(got) is SystemParams
        assert got == SystemParams(**{**self.GOOD, "delta": 0.2})

    def test_copy_and_pickle_round_trip(self):
        params = SystemParams(**self.GOOD)
        for got in (copy.copy(params), copy.deepcopy(params),
                    pickle.loads(pickle.dumps(params))):
            assert got == params and type(got) is SystemParams


class TestMessageStoreEquality:
    def test_table_stays_out_of_equality_and_hash(self):
        a, b = store(), store()
        assert a is not b and a == b and hash(a) == hash(b)
        query = make_queries(
            sample_path(path_distribution(WORKED), 0, derived_rng(1, "t")),
            WORKED)[0]
        answer(a, LAYOUT, query)
        assert a._tables and not b._tables
        assert a == b and hash(a) == hash(b)
        assert a != store(key=0) and a != store((0b101, 0b010))

    def test_copy_and_pickle_round_trip(self):
        a = store()
        for got in (copy.copy(a), copy.deepcopy(a),
                    pickle.loads(pickle.dumps(a))):
            assert got == a and type(got) is MessageStore
