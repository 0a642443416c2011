import numpy as np
import pytest

from susygate.fock import (
    MAX_CUTOFF,
    GradedSpace,
    annihilation_op,
    creation_op,
    even_part,
    is_hermitian,
    is_psd,
    is_unitary,
    momentum_op,
    odd_part,
    position_op,
    tau,
)


def test_annihilation_smallest_cases():
    assert np.array_equal(annihilation_op(1), np.zeros((1, 1)))
    assert np.array_equal(annihilation_op(2), np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = annihilation_op(3)
    assert a3[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(a3) == 2


def test_annihilation_requires_positive_cutoff():
    with pytest.raises(ValueError):
        annihilation_op(0)


@pytest.mark.parametrize("op", [annihilation_op, creation_op, position_op, momentum_op])
def test_cutoff_above_limit_rejected_before_allocating(op):
    with pytest.raises(ValueError, match="exceeds the limit"):
        op(MAX_CUTOFF + 1)


def test_position_momentum_entries():
    q = position_op(2)
    assert np.allclose(q, np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    p = momentum_op(5)
    n = np.arange(4)
    assert np.allclose(np.diagonal(p, 1), -1j * np.sqrt((n + 1) / 2.0))
    assert is_hermitian(q) and is_hermitian(p)


@pytest.mark.parametrize("m", [2, 5, 16, 64])
def test_canonical_commutator_on_trusted_block(m):
    q, p = position_op(m), momentum_op(m)
    comm = (q @ p - p @ q)[: m - 1, : m - 1]
    assert np.max(np.abs(comm - 1j * np.eye(m - 1))) < 1e-13


def test_number_operator_on_trusted_block():
    m = 16
    q, p = position_op(m), momentum_op(m)
    h = 0.5 * (q @ q + p @ p)
    block = h[: m - 1, : m - 1]
    assert np.allclose(block, np.diag(np.arange(m - 1) + 0.5), atol=1e-13)


def test_creation_is_adjoint():
    assert np.array_equal(creation_op(7), annihilation_op(7).conj().T)


def test_predicates(rng):
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-8 * 1j * np.eye(5))
    assert not is_unitary(h)
    assert is_psd(h @ h.conj().T)
    assert not is_psd(-np.eye(3))
    assert not is_hermitian(np.zeros((2, 3)))


def test_is_unitary_accepts_hermitian_exponentials(rng):
    # exp(-itH) built through the spectrum module stays unitary to 1e-10
    # at dim 64
    from susygate.dyson import u0
    from susygate.spectrum import diagonalize

    h = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = (h + h.conj().T) / 2
    spec = diagonalize(h, kept=64)
    assert is_unitary(u0(spec, 0.37, basis="fock"), tol=1e-10)


class TestGradedAlgebra:
    def test_projector_identities(self):
        g = GradedSpace(3, 2)
        p0, p1 = g.projectors()
        assert np.array_equal(p0 + p1, np.eye(5))
        assert np.max(np.abs(p0 @ p1)) == 0.0
        assert np.array_equal(g.theta() @ g.theta(), np.eye(5))

    def test_identity_is_even(self):
        g = GradedSpace(2, 2)
        assert np.array_equal(even_part(np.eye(4), g), np.eye(4))
        assert np.max(np.abs(odd_part(np.eye(4), g))) == 0.0

    def test_two_by_two_blocks(self):
        g = GradedSpace(1, 1)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(even_part(x, g), np.array([[1, 0], [0, 4]]))
        assert np.array_equal(odd_part(x, g), np.array([[0, 2], [3, 0]]))
        assert np.array_equal(tau(x, g), np.array([[1, -2], [-3, 4]]))

    def test_decomposition_reconstructs(self, rng):
        g = GradedSpace(2, 2)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.max(np.abs(even_part(x, g) + odd_part(x, g) - x)) < 1e-15

    def test_tau_involutive_multiplicative(self, rng):
        g = GradedSpace(3, 4)
        x = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        y = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        assert np.allclose(tau(tau(x, g), g), x, atol=1e-14)
        assert np.allclose(tau(x @ y, g), tau(x, g) @ tau(y, g), atol=1e-13)

    def test_tau_equals_even_minus_odd(self, rng):
        g = GradedSpace(2, 3)
        x = rng.normal(size=(5, 5))
        assert np.allclose(tau(x, g), even_part(x, g) - odd_part(x, g), atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            even_part(np.eye(3), GradedSpace(1, 1))
        with pytest.raises(ValueError):
            tau(np.zeros((2, 3)), GradedSpace(1, 1))
