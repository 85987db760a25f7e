import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from _oracles import oracle_columns_condition, oracle_pick
from radolab.errors import CapExceededError
from radolab.linalg import (
    ColumnsCertificate,
    QMatrix,
    _picker,
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


class TestPicker:
    @staticmethod
    def edge_masks(n):
        # around the split at h = n // 2: the low half full or alone, the
        # high half's first bit, the last low bit, the top bit
        h = n // 2
        full = (1 << n) - 1
        low = (1 << h) - 1
        edges = {0, 1, full, full ^ 1, low, full ^ low, 1 << h,
                 low | 1 << h, full ^ 1 << h, 1 << (n - 1)}
        if h:
            edges |= {1 << (h - 1), 1 << (h - 1) | 1 << h}
        return sorted(edges)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 22])
    def test_matches_bit_by_bit_pick(self, n):
        rng = random.Random(n)
        labels = [f"v{i}" for i in range(n)]
        pick = _picker(labels)
        masks = (range(1 << n) if n <= 9
                 else self.edge_masks(n) + [rng.getrandbits(n) for _ in range(2000)])
        for mask in masks:
            assert pick(mask) == oracle_pick(mask, labels), (n, mask)

    def test_index_labels_and_order(self):
        # the picked items keep the order of the items, not of their values
        pick = _picker([5, 3, 9, 1, 7])
        assert pick(0b11111) == (5, 3, 9, 1, 7)
        assert pick(0b10010) == (3, 7)
        assert _picker(range(3))(0b101) == (0, 2)

    def test_subset_list_matches_bit_by_bit_pick(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 14)
            vals = [rng.choice([c for c in range(-4, 5) if c]) for _ in range(n)]
            masks = _zero_sum_masks([(c,) for c in vals])
            assert zero_sum_subsets(vals) == [oracle_pick(m, range(n)) for m in masks]


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

    def test_certificates_equal_backtracking_search(self):
        # the greedy decision returns the certificate the depth-first
        # search used to return, not just the same existence
        rng = random.Random(11)
        found = 0
        for _ in range(4000):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 10)
            m = QMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            )
            cert = columns_condition(m)
            assert cert == oracle_columns_condition(m), m
            found += cert is not None
        assert found > 1000

    def test_row_reduction_keeps_certificates(self):
        # more rows than columns, spanned by fewer rows, so that certificates
        # exist; the oracle searches the rows as given
        rng = random.Random(12)
        reduced = found = 0
        for _ in range(1500):
            cols = rng.randint(1, 6)
            base = [[rng.randint(-3, 3) for _ in range(cols)]
                    for _ in range(rng.randint(1, cols))]
            rows = [[sum(c * x for c, x in zip(coeffs, col))
                     for col in zip(*base)]
                    for coeffs in ([rng.randint(-2, 2) for _ in base]
                                   for _ in range(rng.randint(1, 8)))]
            m = QMatrix.from_rows(rows)
            cert = columns_condition(m)
            assert cert == oracle_columns_condition(m), m
            reduced += m.rows > m.cols
            found += cert is not None and m.rows > m.cols
        assert reduced > 300 and found > 100

    def test_all_zero_rows(self):
        m = QMatrix.from_rows([[0, 0]] * 3)
        assert columns_condition(m).blocks == ((0,), (1,))

    def test_unsatisfiable_22_columns_fast(self):
        # no certificate; the backtracking search took most of a minute
        rng = random.Random(2)
        m = QMatrix.from_rows(
            [[rng.choice([-1, 1]) for _ in range(22)] for _ in range(3)]
        )
        start = time.perf_counter()
        assert columns_condition(m) is None
        assert time.perf_counter() - start < 0.1

    def test_many_rows_reduced(self):
        # 3000 combinations of 3 independent rows: the enumerator's vectors
        # stay 3 long, and the certificate is the 3-row matrix's
        rng = random.Random(13)
        half = [[rng.randint(-3, 3) for _ in range(11)] for _ in range(3)]
        base = [row + [-x for x in row] for row in half]
        rows = [[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*base)]
                for coeffs in ([rng.randint(-3, 3) for _ in base]
                               for _ in range(3000))]
        m = QMatrix.from_rows(rows)
        start = time.perf_counter()
        cert = columns_condition(m)
        assert time.perf_counter() - start < 1.0
        assert cert is not None
        assert cert == columns_condition(QMatrix.from_rows(base))
        assert verify_certificate(m, cert)


BAD_ENTRIES = ["x", "1/0", "1.5", "1_000", "\u0661", "\uff11", "1e3",
               "1e10000000", "1/-2", "+-1", "1/", "/2", "0x10", "inf", "nan"]


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

    def test_signs(self):
        m = parse_matrix_text("+1 -2/3 007")
        assert m.row(0) == (3, -2, 21)

    def test_bad_entry(self):
        # only ASCII [+-]digits[/digits]: no decimals, underscores,
        # exponents or other scripts' digits
        for tok in BAD_ENTRIES:
            with pytest.raises(ValueError, match="bad matrix entry on line 2"):
                parse_matrix_text(f"1 1\n1 {tok}")

    def test_exponent_rejected_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_matrix_text("1e10000000 -1")
        assert time.perf_counter() - start < 0.1


class TestQMatrix:
    def test_no_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            QMatrix.from_rows([])
