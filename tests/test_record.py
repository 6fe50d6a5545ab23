"""``core._Record``, the call-time base of the frozen records, against ``@dataclass(frozen=True)``.

Each probe is built twice from one class body: once on ``_Record`` and once
as a frozen dataclass, both named ``Point``, so every check compares the
record with the dataclass it stands in for.
"""

import copy
import dataclasses
import pickle
import sys

import numpy as np
import pytest

from walkforget.core import _Record


def _point_body():
    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be >= 0")
        object.__setattr__(self, "c", tuple(self.c))

    return {
        "__annotations__": {"a": "int", "b": "str", "c": "tuple"},
        "b": "x",
        "c": (),
        "unit": "m",  # unannotated: a class constant, not a field
        "__post_init__": __post_init__,
        "__module__": __name__,
        "__qualname__": "Point",
    }


def _pair():
    record = type("Point", (_Record,), _point_body())
    twin = dataclasses.dataclass(frozen=True)(type("Point", (), _point_body()))
    return record, twin


def _values(obj):
    return tuple(getattr(obj, f) for f in type(obj)._fields)


def _twin_values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


CALLS = [
    ((1,), {}),
    ((1, "y"), {}),
    ((1,), {"c": [2, 3]}),
    ((), {"a": 2, "b": "z", "c": (4,)}),
    ((3, "w", [5]), {}),
]


class TestBinding:
    def test_fields_and_class_constants(self):
        record, twin = _pair()
        assert record._fields == tuple(f.name for f in dataclasses.fields(twin)) == ("a", "b", "c")
        assert record.unit == twin.unit == "m"

    @pytest.mark.parametrize("args,kwargs", CALLS)
    def test_positional_keyword_and_defaults(self, args, kwargs):
        record, twin = _pair()
        assert _values(record(*args, **kwargs)) == _twin_values(twin(*args, **kwargs))

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}),  # a missing
        ((1,), {"d": 2}),  # unknown
        ((1,), {"a": 2}),  # repeated
        ((1, "y", (), 4), {}),  # too many
        ((), {"b": "y"}),  # missing, with a default given
    ])
    def test_bad_calls_raise_type_error(self, args, kwargs):
        record, twin = _pair()
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            record(*args, **kwargs)

    def test_post_init_runs(self):
        record, twin = _pair()
        assert record(1, c=[7]).c == twin(1, c=[7]).c == (7,)
        for cls in (record, twin):
            with pytest.raises(ValueError, match="a must be >= 0"):
                cls(-1)

    def test_field_without_default_after_one_with_is_refused(self):
        body = {"__annotations__": {"a": "int", "b": "int"}, "a": 0}
        with pytest.raises(TypeError):
            dataclasses.dataclass(frozen=True)(type("Bad", (), dict(body)))
        with pytest.raises(TypeError):
            type("Bad", (_Record,), dict(body))


class TestFrozen:
    @pytest.mark.parametrize("name", ["a", "c", "other"])
    def test_assignment_and_deletion_raise(self, name):
        for cls in _pair():
            obj = cls(1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
            assert obj.a == 1


class TestValueSemantics:
    @pytest.mark.parametrize("args,kwargs", CALLS)
    def test_eq_hash_and_repr_match_the_twin(self, args, kwargs):
        record, twin = _pair()
        r, t = record(*args, **kwargs), twin(*args, **kwargs)
        assert r == record(*args, **kwargs) and not r != record(*args, **kwargs)
        assert hash(r) == hash(t)
        assert repr(r) == repr(t)

    def test_eq_holds_only_within_one_class(self):
        record, twin = _pair()
        other, _ = _pair()
        assert record(1) != record(2)
        assert record(1) != other(1) and record(1) != twin(1)
        assert twin(1) != record(1)
        assert record(1) != (1, "x", ())

    def test_replace(self):
        record, twin = _pair()
        r, t = record(1, "y"), twin(1, "y")
        assert _values(r.replace(c=[9])) == _twin_values(dataclasses.replace(t, c=[9]))
        assert _values(r.replace()) == _values(r) and r.replace() is not r
        for bad in (lambda: r.replace(d=1), lambda: dataclasses.replace(t, d=1)):
            with pytest.raises(TypeError):
                bad()
        with pytest.raises(ValueError):
            r.replace(a=-1)  # __post_init__ checks the new record

    def test_copy(self):
        record, _ = _pair()
        r = record(1, c=[2])
        for dup in (copy.copy(r), copy.deepcopy(r)):
            assert dup == r and dup is not r
            with pytest.raises(dataclasses.FrozenInstanceError):
                dup.a = 2

    def test_pickle_round_trip_of_walkforget_records(self):
        from walkforget import CapacityInputs, DpGuarantee, Graph, ModelState, RunConfig
        from walkforget.objectives import LogisticObjective, QuadraticObjective

        for obj in (RunConfig(seed=3, sigma=None), CapacityInputs(gamma=0.3), Graph(4),
                    DpGuarantee(0.5, 1e-5), LogisticObjective(), QuadraticObjective(2.0)):
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and type(back) is type(obj) and hash(back) == hash(obj)
        state = pickle.loads(pickle.dumps(ModelState(np.arange(3.0))))
        assert type(state) is ModelState and np.array_equal(state.params, np.arange(3.0))

    def test_experiment_spec_default_sweep_is_immutable(self):
        from walkforget import ExperimentSpec, RunConfig

        spec = ExperimentSpec(RunConfig())
        assert dict(spec.sweep) == {} and spec.seeds == (0,)
        with pytest.raises(TypeError):
            spec.sweep["p"] = (0.1,)


def test_only_client_dataset_and_message_stay_dataclasses():
    import walkforget
    import walkforget.cli  # noqa: F401

    found = set()
    for name, module in list(sys.modules.items()):
        if name != "walkforget" and not name.startswith("walkforget."):
            continue
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name and dataclasses.is_dataclass(value):
                found.add(f"{name}.{value.__qualname__}")
    assert found == {"walkforget.core.ClientDataset", "walkforget.network.Message"}
    assert walkforget.RunConfig._fields and not dataclasses.is_dataclass(walkforget.RunConfig)
