import numpy as np
import pytest

from qcalab.state import (
    Alphabet,
    Configuration,
    RingSpace,
    SparseState,
    densify,
    dump_state,
    embed_double,
    extract_right_subcells,
    inner_product,
    shift,
    sparsify,
)

QUBIT = Alphabet(2)


def random_state(rng, n_terms=3, dim=1, alphabet=QUBIT, span=5):
    terms = {}
    while len(terms) < n_terms:
        pts = rng.integers(-span, span, size=(rng.integers(0, 3), dim))
        cells = {tuple(p): int(rng.integers(1, alphabet.size)) for p in pts}
        cfg = Configuration(dim, cells)
        terms[cfg] = complex(rng.normal(), rng.normal())
    return SparseState(alphabet, dim, terms).normalized()


class TestConfiguration:
    def test_rejects_stored_empty_symbol(self):
        with pytest.raises(ValueError, match="empty symbol"):
            Configuration(1, {(0,): 0})

    def test_canonical_ordering_and_equality(self):
        a = Configuration(2, {(1, 0): 1, (0, 1): 1})
        b = Configuration(2, {(0, 1): 1, (1, 0): 1})
        assert a == b and hash(a) == hash(b)

    def test_symbol_at_defaults_to_empty(self):
        c = Configuration(1, {(3,): 1})
        assert c.symbol_at((3,)) == 1
        assert c.symbol_at((4,)) == 0

    @pytest.mark.parametrize("symbols", [(1, 1), (1, 2)])
    def test_rejects_repeated_point(self, symbols):
        with pytest.raises(ValueError, match=r"point \(3,\)"):
            Configuration(1, (((3,), symbols[0]), ((3,), symbols[1])))


class TestShift:
    def test_empty_is_translation_invariant(self):
        s = SparseState.basis(QUBIT, 1)
        assert shift(s, 0, 1).terms == s.terms

    def test_shift_then_unshift_is_identity(self):
        rng = np.random.default_rng(1)
        s = random_state(rng)
        back = shift(shift(s, 0, 1), 0, -1)
        assert back.terms == s.terms

    def test_content_moves_against_the_index(self):
        # one translation step sends occupancy at 0 to -1
        s = SparseState.basis(QUBIT, 1, {(0,): 1})
        moved = shift(s, 0, 1)
        assert list(moved.terms) == [Configuration(1, {(-1,): 1})]

    @pytest.mark.parametrize("axis,amount", [(0, 3), (1, -2)])
    def test_norm_preserved(self, axis, amount):
        rng = np.random.default_rng(2)
        s = random_state(rng, dim=2)
        assert shift(s, axis, amount).norm() == pytest.approx(1.0, abs=1e-12)


class TestInnerProduct:
    def test_basis_orthonormality(self):
        a = SparseState.basis(QUBIT, 1, {(0,): 1})
        b = SparseState.basis(QUBIT, 1, {(1,): 1})
        assert inner_product(a, a) == pytest.approx(1.0)
        assert inner_product(a, b) == 0.0

    def test_linearity(self):
        a = SparseState.basis(QUBIT, 1, {(0,): 1})
        b = SparseState.basis(QUBIT, 1, {(1,): 1})
        plus = a.add(b).scaled(1 / np.sqrt(2))
        assert inner_product(plus, a) == pytest.approx(1 / np.sqrt(2))

    def test_alphabet_mismatch_rejected(self):
        a = SparseState.basis(QUBIT, 1)
        b = SparseState.basis(Alphabet(3), 1)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            inner_product(a, b)


class TestEmbedDouble:
    def test_empty_maps_to_empty(self):
        s = SparseState.basis(QUBIT, 1)
        out = embed_double(s)
        assert out.alphabet.size == 4
        assert list(out.terms) == [Configuration(1, ())]

    def test_occupied_cell_gets_empty_left_subcell(self):
        s = SparseState.basis(QUBIT, 1, {(2,): 1})
        out = embed_double(s)
        # pair (0, 1) encodes to 0*2 + 1 = 1
        assert list(out.terms) == [Configuration(1, {(2,): 1})]

    def test_isometry_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_state(rng), random_state(rng)
            assert inner_product(embed_double(a), embed_double(b)) == pytest.approx(
                inner_product(a, b), abs=1e-12
            )

    def test_discarding_left_subcells_recovers_exactly(self):
        rng = np.random.default_rng(4)
        s = random_state(rng)
        assert extract_right_subcells(embed_double(s), QUBIT).terms == s.terms

    def test_extract_rejects_occupied_left_subcell(self):
        bad = SparseState.basis(Alphabet(4), 1, {(0,): 2})  # pair (1, 0)
        with pytest.raises(ValueError, match="left subcell"):
            extract_right_subcells(bad, QUBIT)


class TestDensify:
    def test_empty_state_is_basis_zero(self):
        vec = densify(SparseState.basis(QUBIT, 1), RingSpace(2, 2))
        assert np.array_equal(vec, [1, 0, 0, 0])

    def test_cell_zero_is_most_significant(self):
        vec = densify(SparseState.basis(QUBIT, 1, {(1,): 1}), RingSpace(2, 2))
        assert np.array_equal(vec, [0, 1, 0, 0])

    def test_two_term_superposition(self):
        s = SparseState.basis(QUBIT, 1).add(
            SparseState.basis(QUBIT, 1, {(0,): 1, (1,): 1})
        ).scaled(1 / np.sqrt(2))
        vec = densify(s, RingSpace(2, 2))
        assert np.allclose(vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_out_of_window_names_cell(self):
        s = SparseState.basis(QUBIT, 1, {(7,): 1})
        with pytest.raises(ValueError, match="cell 7"):
            densify(s, RingSpace(4, 2))

    def test_densify_sparsify_roundtrip(self):
        ring = RingSpace(3, 2)
        rng = np.random.default_rng(5)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        assert np.allclose(densify(sparsify(vec, ring), ring), vec, atol=1e-14)


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
