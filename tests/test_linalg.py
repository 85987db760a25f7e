import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from radolab.errors import CapExceededError
from radolab.linalg import (
    ColumnsCertificate,
    QMatrix,
    _zero_sum_masks,
    columns_condition,
    first_zero_sum_subset,
    in_span,
    parse_matrix_text,
    verify_certificate,
    zero_sum_subsets,
)


class TestInSpan:
    def test_standard_basis(self):
        assert in_span([(1, 0), (0, 1)], (3, -7))

    def test_empty_generators_span_zero(self):
        assert in_span([], (0, 0))
        assert not in_span([], (1, 0))

    def test_not_in_line(self):
        assert not in_span([(1, 1)], (1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_span([(1, 0, 0)], (1, 0))


class TestZeroSumSubsets:
    def test_schur(self):
        assert zero_sum_subsets([1, 1, -1]) == [(0, 2), (1, 2)]

    def test_one_two_minus_one(self):
        assert zero_sum_subsets([1, 2, -1]) == [(0, 2)]

    def test_all_positive(self):
        assert zero_sum_subsets([1, 1, 1]) == []

    def test_rationals(self):
        assert zero_sum_subsets([Fraction(1, 2), Fraction(-1, 2)]) == [(0, 1)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            zero_sum_subsets([1] * 23)

    def test_cap_first_subset(self):
        with pytest.raises(CapExceededError):
            first_zero_sum_subset([1] * 23)

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            zero_sum_subsets([1, 0, -1])

    def test_exact_count(self):
        # every balanced choice of +1s and -1s, except the empty one
        assert len(zero_sum_subsets([1] * 11 + [-1] * 11)) == comb(22, 11) - 1

    def test_first_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 10)
            vals = [rng.choice([c for c in range(-4, 5) if c]) for _ in range(n)]
            all_subs = zero_sum_subsets(vals)
            first = first_zero_sum_subset(vals)
            assert first == (all_subs[0] if all_subs else None)


class TestZeroSumMasks:
    @staticmethod
    def oracle(vectors):
        n = len(vectors)
        masks = []
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                if all(sum(vectors[i][d] for i in combo) == 0
                       for d in range(len(vectors[0]))):
                    masks.append(sum(1 << i for i in combo))
        return sorted(masks)

    def test_scalars_against_oracle(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 12)
            vectors = [(rng.randint(-4, 4),) for _ in range(n)]
            assert list(_zero_sum_masks(vectors)) == self.oracle(vectors)

    def test_vectors_against_oracle(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 12)
            dim = rng.randint(2, 3)
            vectors = [tuple(rng.randint(-2, 2) for _ in range(dim))
                       for _ in range(n)]
            assert list(_zero_sum_masks(vectors)) == self.oracle(vectors)


class TestColumnsCondition:
    def test_schur_row(self):
        cert = columns_condition(QMatrix.from_rows([[1, 1, -1]]))
        assert cert.blocks == ((0, 2), (1,))

    def test_all_positive_row(self):
        assert columns_condition(QMatrix.from_rows([[1, 1, 1]])) is None

    def test_identity(self):
        assert columns_condition(QMatrix.from_rows([[1, 0], [0, 1]])) is None

    def test_cap(self):
        with pytest.raises(CapExceededError):
            columns_condition(QMatrix.from_rows([[1] * 23]))

    def test_certificates_verify(self):
        rng = random.Random(2)
        found = 0
        for _ in range(250):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 5)
            m = QMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            cert = columns_condition(m)
            if cert is not None:
                found += 1
                assert verify_certificate(m, cert)
        assert found > 20

    def test_single_row_equivalence(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 12)
            vals = [rng.choice([c for c in range(-5, 6) if c]) for _ in range(n)]
            cert = columns_condition(QMatrix.from_rows([vals]))
            assert (cert is not None) == bool(zero_sum_subsets(vals))

    def test_scaling_invariance(self):
        rng = random.Random(4)
        for _ in range(60):
            cols = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)]
            q = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            scaled = QMatrix.from_rows([[q * x for x in row] for row in rows])
            assert (columns_condition(QMatrix.from_rows(rows)) is None) == (
                columns_condition(scaled) is None
            )

    def test_column_permutation_equivariance(self):
        rng = random.Random(5)
        for _ in range(60):
            cols = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)]
            m = QMatrix.from_rows(rows)
            perm = list(range(cols))
            rng.shuffle(perm)
            permuted = QMatrix.from_rows(
                [[row[perm[j]] for j in range(cols)] for row in rows]
            )
            cert = columns_condition(m)
            cert_p = columns_condition(permuted)
            assert (cert is None) == (cert_p is None)
            if cert is not None:
                # the original certificate, permuted, stays valid
                inverse = {perm[j]: j for j in range(cols)}
                mapped = ColumnsCertificate(tuple(
                    tuple(sorted(inverse[c] for c in block))
                    for block in cert.blocks
                ))
                assert verify_certificate(permuted, mapped)

    def test_bad_certificates_rejected(self):
        m = QMatrix.from_rows([[1, 1, -1]])
        assert not verify_certificate(m, ColumnsCertificate(((0, 1), (2,))))
        assert not verify_certificate(m, ColumnsCertificate(((0, 2),)))

    def test_against_naive_ordered_partition_search(self):
        # memoization-free reference: try every ordered partition outright
        def naive(matrix):
            cols = matrix.columns()
            n = matrix.cols

            def block_sum(block):
                return [sum(col[r] for col in (cols[c] for c in block))
                        for r in range(matrix.rows)]

            def search(remaining, consumed_cols):
                if not remaining:
                    return True
                rem = sorted(remaining)
                for mask in range(1, 1 << len(rem)):
                    block = [rem[i] for i in range(len(rem)) if mask >> i & 1]
                    total = block_sum(block)
                    if consumed_cols:
                        ok = in_span([cols[c] for c in consumed_cols], total)
                    else:
                        ok = all(x == 0 for x in total)
                    if ok and search(remaining - set(block),
                                     consumed_cols + block):
                        return True
                return False

            return search(set(range(n)), [])

        rng = random.Random(6)
        for _ in range(120):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 5)
            m = QMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            )
            assert (columns_condition(m) is not None) == naive(m)


class TestMatrixText:
    def test_integers(self):
        m = parse_matrix_text("1 1 -1")
        assert (m.rows, m.cols) == (1, 3)

    def test_fractions(self):
        # each row is scaled by the lcm of its denominators
        m = parse_matrix_text("1/2 -3/4\n5 6")
        assert m.row(0) == (2, -3) and m.row(1) == (5, 6)

    def test_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix_text("1 2\n3")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_matrix_text("   \n  ")

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            parse_matrix_text("1 x")
        with pytest.raises(ValueError):
            parse_matrix_text("1/0")
