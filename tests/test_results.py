from fractions import Fraction

import pytest

from radolab.linalg import ColumnsCertificate, QMatrix
from radolab.results import FilterResult, OrderedPartition, Status, Verdict


def test_exact_rationals_canonical():
    # rational arithmetic throughout the package: canonical form, no rounding
    q = Fraction(-2, -4)
    assert q.denominator > 0 and (q.numerator, q.denominator) == (1, 2)
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_qmatrix_shape_checked():
    with pytest.raises(ValueError):
        QMatrix(2, 2, (Fraction(1),) * 3)
    with pytest.raises(ValueError):
        QMatrix(0, 1, ())


def test_certificate_blocks_checked():
    with pytest.raises(ValueError):
        ColumnsCertificate(((0, 1), (1,)))
    with pytest.raises(ValueError):
        ColumnsCertificate(((),))


def test_ordered_partition_invariants():
    with pytest.raises(ValueError):
        OrderedPartition.of({0, 1}, {1})
    with pytest.raises(ValueError):
        OrderedPartition.of(set())
    p = OrderedPartition.of({0, 2}, {1})
    assert p.size() == 3 and [sorted(c) for c in p.classes] == [[0, 2], [1]]
    assert p.named(("x", "y", "z")) == [["x", "z"], ["y"]]


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(Status.PR)  # PR needs a certificate
    with pytest.raises(ValueError):
        Verdict(Status.NOT_PR)  # NOT_PR needs a reason
    fired = FilterResult("demo", fired=True, applicable=True,
                         evidence={"k": 1})
    assert Verdict(Status.NOT_PR, reasons=[fired]).reasons


def test_filter_result_requires_evidence_when_fired():
    with pytest.raises(ValueError):
        FilterResult("demo", fired=True, applicable=True)
