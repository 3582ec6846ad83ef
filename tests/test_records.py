"""The package's records are immutable tuples on one base, errors._Record.

Each keeps its field names and repr, equals only a record of its own class,
hashes consistently with that, survives copy and pickle, refuses assignment,
and makes a changed copy by `_replace` through its checked constructor.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from hyplam import DegenerateInputError, DomainError, geometry, lambert, qcbounds, specfun
from hyplam.errors import _Record
from hyplam.geometry import MoebiusMap, Point

#: (record, its field names, a field to change and the new value)
RECORDS = [
    (MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7), ("a", "b", "c", "d"), "d", 2.0),
    (geometry.geodesic_through(0.3, 0.5j), ("endpoints",), "endpoints", (Point(1.0), Point(-1.0))),
    (lambert.lambert_from(0.6, 0.5), ("L", "theta", "t", "vertices", "d1", "d2", "phi"), "d1", 1.0),
    (
        lambert.sum_bounds(0.85, 0.7),
        ("quantity", "L", "theta", "case_label", "lower", "upper", "observed", "equality_witness", "satisfied"),
        "upper",
        3.0,
    ),
    (specfun.g_range(0.9), ("case", "lower", "upper", "r0"), "r0", None),
    (qcbounds.QcBoundInput(2.0, 0.9), ("K", "L"), "K", 3.0),
    (qcbounds.qc_product_bound(qcbounds.QcBoundInput(5.0, 0.9)), ("r_L", "M_L", "regime", "r_LK", "bound"), "bound", 1.0),
]
CLASSES = [type(record) for record, *_ in RECORDS]


@pytest.mark.parametrize("record,fields,name,value", RECORDS, ids=[c.__name__ for c in CLASSES])
def test_the_record_contract(record, fields, name, value):
    cls = type(record)
    assert isinstance(record, _Record) and cls.__slots__ == ()
    assert cls._fields == fields
    values = [getattr(record, f) for f in fields]
    assert tuple(record[: len(fields)]) == tuple(values)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    same = cls(*values)
    assert same == record and not same != record
    assert record != tuple(record) and not record == tuple(record)
    other = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    assert record != tuple.__new__(other, tuple(record))
    assert hash(same) == hash(record) and {record: 1}[same] == 1

    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    for f in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, f, 0.5)

    changed = record._replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert [getattr(changed, f) for f in fields if f != name] == [v for f, v in zip(fields, values) if f != name]
    with pytest.raises(TypeError):
        record._replace(nonexistent=1.0)


def test_the_closed_form_modules_import_no_dataclasses():
    for module in (geometry, lambert, qcbounds, specfun):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in imported, module.__name__


def test_the_constructors_keep_their_checks():
    with pytest.raises(DomainError):
        qcbounds.QcBoundInput(0.5, 0.9)
    with pytest.raises(DegenerateInputError):
        MoebiusMap(1, 2, 2, 4)
    with pytest.raises(DomainError):
        qcbounds.QcBoundInput(2.0, 0.9)._replace(L=1.5)


def test_a_moebius_map_keeps_only_its_coefficients_as_fields():
    # the scaled coefficients it computes with follow the four fields, and
    # a copy rebuilds them from a, b, c and d
    m = MoebiusMap(0.0, 2.0**300, 2.0**300, 0.0)
    assert len(m) == 8 and m[4:] == (0.0, 1.0, 1.0, 0.0)
    assert m.__getnewargs__() == (0.0, 2.0**300, 2.0**300, 0.0)
    assert pickle.loads(pickle.dumps(m))[4:] == m[4:]
    assert geometry.MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7) == MoebiusMap(*RECORDS[0][0][:4])


def test_a_bound_report_builds_its_params_on_access():
    report = lambert.product_report(0.5, 0.3)
    assert report.params == {"L": 0.5, "theta": 0.3} and report.params is not report.params
    assert lambert.product_report(0.5).params == {"L": 0.5}
    assert list(report.to_dict()) == [
        "quantity", "params", "case_label", "lower", "upper", "observed", "equality_witness", "satisfied"
    ]
