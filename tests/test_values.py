"""The library's value classes behave as frozen records, and importing the library builds them without generated code.

A fresh import of ``topolab`` and ``topolab.cli`` loads no code generator
and no numpy, and builds no lookup table at module level.

Each value class writes its constructor by hand and names its fields on
the base ``topolab.frozen.Frozen``, which alone writes the equality, the
hash and the ``__reduce__`` over them; the report records are named tuples.
The tests pin what a frozen record gives: the positional and keyword
constructors, equality and hashing over the fields, a repr that names them,
AttributeError on assignment, and a pickle round trip, which re-runs the
constructor.  The hash is that of the field tuple, as a frozen record's is,
so sets of spaces iterate in the same order as ever.  No value class
writes its own copy of the protocol.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import topolab
from topolab.choice import PropertyAClassification, PropertyAReport
from topolab.filters import Carrier, FilterOnCarrier
from topolab.finality import FinalitySetup, InclusionReport, SquareFinalityReport, StoneCechReport
from topolab.frozen import Frozen
from topolab.funcspaces import FunctionSpace, MuEmbeddingReport
from topolab.hyperspaces import HyperSpace
from topolab.maps import FiniteMap
from topolab.spaces import FiniteSpace, ProductCodec, SpaceReport
from topolab.suites import RunReport

S = FiniteSpace(2, (0b11, 0b10))  # the Sierpiński space

# (class, field names, field values)
VALUES = [
    (FiniteSpace, ("n", "nbhds"), (2, (0b11, 0b10))),
    (FiniteMap, ("dom_n", "cod_n", "image"), (2, 3, (0, 2))),
    (Carrier, ("elements",), ((0, 1, 2),)),
    (FilterOnCarrier, ("carrier", "kernel"), (Carrier((0, 1)), 0b10)),
    (HyperSpace, ("base", "family", "topology", "variant"), (S, (1, 2, 3), FiniteSpace(3, (7, 2, 6)), "vietoris")),
    (ProductCodec, ("sizes",), ((2, 3),)),
    (FunctionSpace, ("dom", "cod", "rows", "family"), (S, S, ((0, 1),), (1, 2, 3))),
]

RECORDS = [
    SpaceReport,
    PropertyAReport,
    PropertyAClassification,
    MuEmbeddingReport,
    FinalitySetup,
    InclusionReport,
    SquareFinalityReport,
    StoneCechReport,
]


def test_import_loads_no_code_generators():
    # numpy is no dependency, and a module-level lookup table (such as 256
    # translate tables) would be built on every import, in each benchmark set-up
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import topolab, topolab.cli\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted({'dataclasses', 'inspect', 'multiprocessing', 'numpy'} & loaded))\n"
        "containers = (bytes, bytearray, tuple, list, dict, set, frozenset)\n"
        "print(sorted(\n"
        "    f'{name}.{key}'\n"
        "    for name in loaded if name.startswith('topolab')\n"
        "    for key, value in vars(sys.modules[name]).items()\n"
        "    if not key.startswith('__') and isinstance(value, containers) and len(value) > 16\n"
        "))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(topolab.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n")[:2] == ["[]", "[]"], done.stdout


@pytest.mark.parametrize("cls, fields, args", VALUES, ids=[row[0].__name__ for row in VALUES])
class TestValueClasses:
    def test_constructors_and_equality(self, cls, fields, args):
        value = cls(*args)
        twin = cls(**dict(zip(fields, args)))
        assert value == twin and value is not twin
        assert hash(value) == hash(twin) == hash(args)
        assert tuple(getattr(value, name) for name in fields) == args
        assert value != object() and value != args
        assert pickle.loads(pickle.dumps(value)) == value

    def test_repr_names_the_fields(self, cls, fields, args):
        shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(fields, args))
        assert repr(cls(*args)) == f"{cls.__name__}({shown})"

    def test_fields_cannot_be_assigned(self, cls, fields, args):
        value = cls(*args)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*args)


def test_only_the_base_writes_the_record_protocol():
    classes, found = [], [Frozen]
    while found:
        cls = found.pop()
        classes.append(cls)
        found.extend(cls.__subclasses__())
    assert {cls for cls, _, _ in VALUES} <= set(classes)
    assert [
        (cls.__name__, name)
        for cls in classes[1:]
        for name in ("__eq__", "__hash__", "__reduce__")
        if name in vars(cls)
    ] == []
    assert {"__eq__", "__hash__", "__reduce__"} <= set(vars(Frozen))


def test_maps_are_slotted():
    assert not hasattr(FiniteMap(2, 3, (0, 2)), "__dict__")


def test_run_reports_compare_by_their_fields():
    report = RunReport("embedding", {"max_n": 2})
    twin = RunReport(suite="embedding", parameters={"max_n": 2})
    assert report == twin and report.witnesses is not twin.witnesses
    report.record(False, {"kind": "x"})
    assert report != twin and (report.checked, report.failed, report.witnesses) == (1, 1, [{"kind": "x"}])
    assert repr(twin).startswith("RunReport(suite='embedding', parameters={'max_n': 2}, checked=0,")
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_report_records_are_frozen(cls):
    args = tuple(range(len(cls._fields)))
    record = cls(*args)
    assert record == cls(**dict(zip(cls._fields, args))) and hash(record) == hash(args)
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=0")
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
