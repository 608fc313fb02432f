"""Ranking-metric unit tests against hand values and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oerrec.metrics import (
    RankingKernel,
    average_precision_at_k,
    dcg_at_k,
    list_metrics,
    mrr,
    ndcg_at_k,
    sign_test,
)
from oracles import oracle_ap, oracle_mrr, oracle_ndcg, oracle_sign_test

grade_lists = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=10)


class TestNdcg:
    def test_perfectly_ordered_grades(self):
        assert ndcg_at_k([2, 2, 1, 0], 4) == 1.0

    def test_hand_case_0_2_1(self):
        # DCG = 2/log2(3) + 1/2 and IDCG = 2 + 1/log2(3); the quotient is
        # 0.66967181649423 (the rounded figure 0.66975 circulates but does
        # not match its own components — see the worked components below).
        dcg = 2 / math.log2(3) + 0.5
        idcg = 2 + 1 / math.log2(3)
        assert dcg == pytest.approx(1.76186, abs=5e-6)
        assert idcg == pytest.approx(2.63093, abs=5e-6)
        assert dcg_at_k([0, 2, 1], 3) == pytest.approx(dcg, abs=1e-12)
        value = ndcg_at_k([0, 2, 1], 3)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)
        assert value == pytest.approx(0.66967181649423, abs=1e-12)
        assert value == pytest.approx(0.66975, abs=1e-3)

    def test_all_zero_grades_skipped(self):
        assert ndcg_at_k([0, 0, 0], 3) is None

    def test_k_truncation(self):
        assert ndcg_at_k([2, 0, 0, 2], 1) == 1.0
        assert ndcg_at_k([0, 0, 0, 2], 1) == 0.0

    @given(grade_lists, st.integers(min_value=1, max_value=10))
    def test_matches_oracle(self, grades, k):
        expected = oracle_ndcg(grades, k)
        actual = ndcg_at_k(grades, k)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= actual <= 1.0


class TestAveragePrecision:
    def test_hand_case_r_n_r(self):
        # [relevant, not, relevant], k=3 -> (1/1 + 2/3)/2
        assert average_precision_at_k([2, 0, 1], 3) == pytest.approx(
            0.8333333333333333, abs=1e-12
        )

    def test_no_relevant_items(self):
        assert average_precision_at_k([0, 0, 0], 3) == 0.0

    def test_denominator_capped_at_k(self):
        # Three relevant items but k=2: denominator is min(3, 2) = 2.
        assert average_precision_at_k([1, 1, 1], 2) == pytest.approx(1.0, abs=1e-12)

    @given(grade_lists, st.integers(min_value=1, max_value=10))
    def test_matches_oracle(self, grades, k):
        assert average_precision_at_k(grades, k) == pytest.approx(
            oracle_ap(grades, k), abs=1e-12
        )


class TestMrr:
    def test_first_relevant_at_rank_two(self):
        assert mrr([0, 1, 2]) == 0.5

    def test_no_relevant(self):
        assert mrr([0, 0, 0]) == 0.0

    @given(grade_lists)
    def test_matches_oracle(self, grades):
        assert mrr(grades) == pytest.approx(oracle_mrr(grades), abs=1e-12)


# Per query: (gain, score) candidates; scores from a small set, so ties are common.
padded_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=10),
    min_size=1, max_size=6,
)
KERNEL_SPECS = ("ndcg@1", "ndcg@3", "ndcg@5", "ndcg@all",
                "map@1", "map@3", "map@5", "map@all", "mrr")


class TestRankingKernel:
    @given(padded_batches)
    def test_padded_batch_matches_oracles(self, rows):
        gain_lists = [[g for g, _ in row] for row in rows]
        # ids out of position order, so the oer_id tie-break is exercised
        id_lists = [[f"oer{7 * j % 11:02d}" for j in range(len(row))] for row in rows]
        kernel = RankingKernel(gain_lists, id_lists)
        scores = kernel.layout([[s for _, s in row] for row in rows])
        scores[kernel.pad_inf > 0] = 99.0  # padding must sort last anyway
        values = kernel(scores, KERNEL_SPECS)
        for qi, row in enumerate(rows):
            order = sorted(range(len(row)), key=lambda j: (-row[j][1], id_lists[qi][j]))
            ranked = [row[j][0] for j in order]
            one_row = list_metrics(ranked, KERNEL_SPECS)
            for spec in KERNEL_SPECS:
                kind, _, at = spec.partition("@")
                k = len(ranked) if at == "all" else int(at or 0)
                want = {"ndcg": lambda: oracle_ndcg(ranked, k),
                        "map": lambda: oracle_ap(ranked, k),
                        "mrr": lambda: oracle_mrr(ranked)}[kind]()
                have = values[spec][qi]
                if want is None:
                    assert math.isnan(have) and math.isnan(one_row[spec])
                    continue
                assert have == pytest.approx(want, abs=1e-12)
                assert have == one_row[spec]  # batch width does not move a bit


def per_row_layout(id_lists, rows, C, trailing=()):
    """The per-row loop that `RankingKernel.layout` replaced: each row in
    ascending id order, zero-padded to width C."""
    out = np.zeros((len(rows), C) + trailing)
    for qi, row in enumerate(rows):
        cols = sorted(range(len(row)), key=id_lists[qi].__getitem__)
        out[qi, :len(row)] = np.asarray(row, dtype=np.float64)[cols]
    return out


@st.composite
def ragged_layouts(draw):
    """Ragged rows (Q may be 0) of 1-D or 2-D values with distinct ids in
    random order, and their gains."""
    d = draw(st.sampled_from([None, 1, 3]))
    lengths = draw(st.lists(st.integers(0, 8), max_size=5))
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)
    id_lists, rows, gain_lists = [], [], []
    for n in lengths:
        ids = draw(st.permutations([f"oer{j:02d}" for j in range(n)]))
        shape = (n,) if d is None else (n, d)
        values = draw(st.lists(floats, min_size=n * (d or 1), max_size=n * (d or 1)))
        id_lists.append(ids)
        rows.append(np.array(values, dtype=np.float64).reshape(shape))
        gain_lists.append(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return id_lists, rows, gain_lists, () if d is None else (d,)


class TestLayout:
    @given(ragged_layouts())
    def test_equals_the_per_row_loop_bit_for_bit(self, case):
        id_lists, rows, gain_lists, trailing = case
        kernel = RankingKernel(gain_lists, id_lists)
        C = max([len(r) for r in rows] + [1])
        trailing = trailing if rows else ()  # no row to take a width from
        want = per_row_layout(id_lists, rows, C, trailing)
        have = kernel.layout(rows)
        assert have.shape == want.shape == (len(rows), C) + trailing
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()
        # the kernel lays its own gains and padding out the same way
        gains = per_row_layout(id_lists, gain_lists, C)
        assert kernel.gains.tobytes() == gains.tobytes()
        pad = np.full((len(rows), C), np.inf)
        for qi, row in enumerate(rows):
            pad[qi, :len(row)] = 0.0
        assert kernel.pad_inf.tobytes() == pad.tobytes()

    def test_no_queries(self):
        kernel = RankingKernel([], [])
        assert kernel.layout([]).shape == (0, 1)
        assert kernel(np.zeros((2, 0, 1)), ["ndcg@3"])["ndcg@3"].shape == (2, 0)

    def test_rows_go_to_ascending_id_columns(self):
        kernel = RankingKernel([[0, 1, 2], [2]], [["c", "a", "b"], ["z"]])
        assert kernel.layout([[10.0, 20.0, 30.0], [5.0]]).tolist() == [
            [20.0, 30.0, 10.0], [5.0, 0.0, 0.0]]
        assert kernel.gains.tolist() == [[1.0, 2.0, 0.0], [2.0, 0.0, 0.0]]


class TestSignTest:
    def test_all_positive_is_small(self):
        assert sign_test([1.0] * 10) == pytest.approx(2.0**-10, abs=1e-15)

    def test_zeros_are_dropped(self):
        assert sign_test([0.0, 0.0, 1.0]) == 0.5

    def test_empty_after_dropping(self):
        assert sign_test([0.0, 0.0]) == 1.0

    @given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=12))
    def test_matches_oracle_and_is_probability(self, diffs):
        p = sign_test(diffs)
        assert p == pytest.approx(oracle_sign_test(diffs), abs=1e-12)
        assert 0.0 <= p <= 1.0
