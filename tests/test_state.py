import numpy as np
import pytest

from qcalab.state import (
    Alphabet,
    Configuration,
    RingSpace,
    SparseState,
    densify,
    dump_state,
)

QUBIT = Alphabet(2)


class TestConfiguration:
    def test_rejects_stored_empty_symbol(self):
        with pytest.raises(ValueError, match="empty symbol"):
            Configuration(1, {(0,): 0})

    def test_canonical_ordering_and_equality(self):
        a = Configuration(2, {(1, 0): 1, (0, 1): 1})
        b = Configuration(2, {(0, 1): 1, (1, 0): 1})
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("symbols", [(1, 1), (1, 2)])
    def test_rejects_repeated_point(self, symbols):
        with pytest.raises(ValueError, match=r"point \(3,\)"):
            Configuration(1, (((3,), symbols[0]), ((3,), symbols[1])))


class TestDensify:
    def test_empty_state_is_basis_zero(self):
        vec = densify(SparseState.basis(QUBIT, 1), RingSpace(2, 2))
        assert np.array_equal(vec, [1, 0, 0, 0])

    def test_cell_zero_is_most_significant(self):
        vec = densify(SparseState.basis(QUBIT, 1, {(1,): 1}), RingSpace(2, 2))
        assert np.array_equal(vec, [0, 1, 0, 0])

    def test_two_term_superposition(self):
        s = SparseState(
            QUBIT,
            1,
            {
                Configuration(1, ()): 1 / np.sqrt(2),
                Configuration(1, {(0,): 1, (1,): 1}): 1 / np.sqrt(2),
            },
        )
        vec = densify(s, RingSpace(2, 2))
        assert np.allclose(vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_out_of_window_names_cell(self):
        s = SparseState.basis(QUBIT, 1, {(7,): 1})
        with pytest.raises(ValueError, match="cell 7"):
            densify(s, RingSpace(4, 2))


class TestPruning:
    def test_tiny_amplitudes_dropped(self):
        cfg = Configuration(1, {(0,): 1})
        s = SparseState(QUBIT, 1, {cfg: 1e-15, Configuration(1, ()): 1.0})
        assert cfg not in s.terms

    def test_norm_change_bounded_by_term_count_times_threshold(self):
        rng = np.random.default_rng(6)
        terms = {}
        for i in range(50):
            terms[Configuration(1, {(i,): 1})] = 1e-15 * rng.normal() + 0.1
        raw_norm = np.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        s = SparseState(QUBIT, 1, terms)
        assert abs(s.norm() - raw_norm) <= len(terms) * 1e-14


class TestRingSpace:
    def test_dense_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            RingSpace(13, 2)

    def test_index_roundtrip(self):
        ring = RingSpace(3, 3)
        for idx in range(ring.dim):
            assert ring.index_of(ring.symbols_of(idx)) == idx


def test_dump_format_golden():
    s = SparseState(
        QUBIT,
        1,
        {
            Configuration(1, {(-1,): 1, (2,): 1}): 0.5,
            Configuration(1, ()): complex(0.25, -0.75),
        },
    )
    expected = "\t0.25\t-0.75\n(-1):1;(2):1\t0.5\t0\n"
    assert dump_state(s) == expected


def test_dump_sorted_lexicographically():
    s = SparseState(
        QUBIT,
        1,
        {
            Configuration(1, {(3,): 1}): 1.0,
            Configuration(1, {(0,): 1}): 1.0,
            Configuration(1, {(0,): 1, (3,): 1}): 1.0,
        },
    )
    lines = dump_state(s).splitlines()
    assert [ln.split("\t")[0] for ln in lines] == ["(0):1", "(0):1;(3):1", "(3):1"]
