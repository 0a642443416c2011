import numpy as np
import pytest

from susygate.errors import NonFiniteError
from susygate.filter_fit import LindbladModel
from susygate.fock import (
    MAX_CUTOFF,
    GradedSpace,
    annihilation_op,
    even_part,
    is_unitary,
    momentum_op,
    odd_part,
    position_op,
    require_hermitian,
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


@pytest.mark.parametrize("op", [annihilation_op, position_op, momentum_op])
def test_cutoff_above_limit_rejected_before_allocating(op):
    with pytest.raises(ValueError, match="exceeds the limit"):
        op(MAX_CUTOFF + 1)


def test_position_momentum_entries():
    q = position_op(2)
    assert np.allclose(q, np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    p = momentum_op(5)
    n = np.arange(4)
    assert np.allclose(np.diagonal(p, 1), -1j * np.sqrt((n + 1) / 2.0))
    assert np.array_equal(q, q.conj().T) and np.array_equal(p, p.conj().T)


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


def test_predicates(rng):
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    assert np.array_equal(require_hermitian(h, "H"), h)
    with pytest.raises(ValueError, match=r"^H must be Hermitian$"):
        require_hermitian(h + 1e-8 * 1j * np.eye(5), "H")
    # one unitarity rule, max|a†a − I| ≤ 1e-8, that a NaN entry fails
    q, _ = np.linalg.qr(h)
    assert is_unitary(q)
    assert is_unitary(q * (1 + 4e-9)) and not is_unitary(q * (1 + 6e-9))
    assert not is_unitary(h)
    assert not is_unitary(np.where(np.eye(5) == 1, np.nan, q))
    assert not is_unitary(np.zeros((2, 3)))
    assert is_unitary(np.zeros((0, 0)))  # vacuously, and without an empty-reduction error


def test_require_hermitian_scales_its_tolerance_with_the_entries():
    # one rule for every Hamiltonian: max|a − a†| ≤ 1e-10·max(1, max|a|)
    h = np.diag([1e6, -1e6]).astype(complex)
    h[0, 1] = 5e-5
    assert np.array_equal(require_hermitian(h, "H"), h)
    h[0, 1] = 2e-4
    with pytest.raises(ValueError, match=r"^H must be Hermitian$"):
        require_hermitian(h, "H")
    with pytest.raises(ValueError, match=r"^H must be square, got shape \(2, 3\)$"):
        require_hermitian(np.zeros((2, 3)), "H")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_hermitian_refuses_non_finite_entries(bad):
    # |a − a†| is NaN there, which no tolerance test rejects; overflow of a
    # finite input gets there, so it is a numerical failure, not a bad input
    from susygate.spectrum import diagonalize

    h = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(NonFiniteError, match=r"^Hamiltonian has a non-finite entry$"):
        diagonalize(h, 1)
    with pytest.raises(NonFiniteError, match=r"^Hamiltonian has a non-finite entry$"):
        LindbladModel(h, ())
    with pytest.raises(ValueError, match=r"^H must be Hermitian$"):
        require_hermitian(np.array([[0, 1], [2, 0]]), "H")


def test_is_unitary_accepts_hermitian_exponentials(rng):
    # exp(-itH) built from the spectrum module's eigenpairs stays unitary to
    # 1e-10 at dim 64
    from susygate.spectrum import diagonalize

    h = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = (h + h.conj().T) / 2
    spec = diagonalize(h, kept=64)
    phases = np.exp(-1j * spec.energies * 0.37)
    u = (spec.modes * phases) @ spec.modes.conj().T
    assert is_unitary(u)
    assert np.max(np.abs(u.conj().T @ u - np.eye(64))) <= 1e-10


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
