import numpy as np
import pytest

from susygate import fock, susy_toy
from susygate.errors import CutoffError
from susygate.fock import position_op
from susygate.spectrum import build_h0
from susygate.susy_toy import (
    VevControl,
    susy_pair,
    vev_control,
    witten_index,
)


# --- vev contraction ---------------------------------------------------------

def test_zero_vevs_give_zero_control(rng):
    v = VevControl(d2=rng.normal(size=(2, 3, 2)), p_vev=np.zeros(2), q_vev=np.zeros(2))
    assert np.max(np.abs(vev_control(v))) == 0.0


def test_single_product():
    v = VevControl(d2=np.ones((1, 1, 1)), p_vev=[2.0], q_vev=[3.0])
    assert vev_control(v)[0] == pytest.approx(6.0)


def test_multilinearity(rng):
    d2 = rng.normal(size=(3, 2, 4))
    p = rng.normal(size=3)
    q = rng.normal(size=4)
    base = vev_control(VevControl(d2, p, q))
    assert np.allclose(vev_control(VevControl(d2, 2.5 * p, q)), 2.5 * base)
    assert np.allclose(vev_control(VevControl(d2, p, -3.0 * q)), -3.0 * base)
    assert np.allclose(vev_control(VevControl(4.0 * d2, p, q)), 4.0 * base)


def test_extent_mismatch_rejected(rng):
    with pytest.raises(ValueError, match="extents"):
        VevControl(d2=rng.normal(size=(2, 2, 2)), p_vev=np.zeros(3), q_vev=np.zeros(2))


# --- linear drive on the anharmonic builder ------------------------------------

def test_linear_term_shifts_ground_energy():
    # completed square: (P^2 + Q^2)/2 + aQ has ground energy 1/2 - a^2/2
    a = 0.2
    h = build_h0(0.0, 0.0, 48) + a * position_op(48)
    e0 = np.linalg.eigvalsh(h)[0]
    assert e0 == pytest.approx(0.5 - a**2 / 2, abs=1e-10)


# --- partner pair ----------------------------------------------------------------

def test_harmonic_superpotential_partner_spectra():
    # W = q^2/2: the minus sector has spectrum {0,1,2,...}, plus {1,2,3,...}
    pair = susy_pair([0.0, 0.0, 0.5], cutoff=32)
    e_minus = np.linalg.eigvalsh(pair.h_minus)[:6]
    e_plus = np.linalg.eigvalsh(pair.h_plus)[:6]
    assert np.allclose(e_minus, np.arange(6), atol=1e-10)
    assert np.allclose(e_plus, np.arange(6) + 1, atol=1e-10)


def test_cubic_superpotential_strictly_positive():
    pair = susy_pair([0.0, 0.0, 0.0, 1.0 / 3.0], cutoff=64)
    assert np.linalg.eigvalsh(pair.h_minus)[0] > 1e-3
    assert np.linalg.eigvalsh(pair.h_plus)[0] > 1e-3


@pytest.mark.parametrize(
    "coeffs,cutoff",
    [([0.0, 0.0, 0.5], 32), ([0.0, 0.0, 0.0, 1 / 3], 64), ([0.0, 0.1, 0.4, 0.05], 64)],
)
def test_positive_spectra_pair(coeffs, cutoff):
    pair = susy_pair(coeffs, cutoff)
    e_minus = np.linalg.eigvalsh(pair.h_minus)
    e_plus = np.linalg.eigvalsh(pair.h_plus)
    pos_minus = e_minus[e_minus > 1e-6][:5]
    pos_plus = e_plus[e_plus > 1e-6][:5]
    assert np.max(np.abs(pos_minus - pos_plus)) < 1e-6


def test_pair_hamiltonians_hermitian():
    # Q and P² are real, so the pair is built real symmetric
    pair = susy_pair([0.0, 0.2, 0.5, 0.1], cutoff=48)
    assert pair.h_plus.dtype == pair.h_minus.dtype == np.float64
    assert np.max(np.abs(pair.h_plus - pair.h_plus.conj().T)) < 1e-12
    assert np.max(np.abs(pair.h_minus - pair.h_minus.conj().T)) < 1e-12


def test_cutoff_error_when_unconverged():
    with pytest.raises(CutoffError, match="cutoff"):
        susy_pair([0.0, 0.0, 0.0, 0.0, 0.0, 1.0], cutoff=8)


def test_cutoff_whose_check_exceeds_the_limit_is_refused_up_front(monkeypatch):
    # the convergence check builds ⌈1.5·cutoff⌉ levels, so the largest
    # cutoff is 2730 at the default limit of 4096, and 26 at a limit of 40
    assert 2 * fock.MAX_CUTOFF // 3 == 2730
    built = []
    monkeypatch.setattr(fock, "MAX_CUTOFF", 40)
    monkeypatch.setattr(susy_toy, "_pair_at", lambda w, cutoff: built.append(cutoff))
    with pytest.raises(ValueError, match=r"^cutoff 27 exceeds the limit of 26$"):
        susy_pair([0.0, 0.0, 0.5], cutoff=27)
    assert built == []
    with pytest.raises(TypeError):  # 26 passes the bound and reaches the stub
        susy_pair([0.0, 0.0, 0.5], cutoff=26)
    assert built == [26]


def test_degree_guard():
    with pytest.raises(ValueError, match="degree"):
        susy_pair([0.0, 1.0], cutoff=16)
    with pytest.raises(ValueError, match="^superpotential coefficients must be finite$"):
        susy_pair([0.0, 0.0, np.nan], cutoff=16)


# --- index and classification ------------------------------------------------------

def test_harmonic_index_unbroken():
    report = witten_index(susy_pair([0.0, 0.0, 0.5], cutoff=32))
    assert report.index == 1
    assert report.unbroken
    assert report.label == "unbroken"
    assert report.min_energy == pytest.approx(0.0, abs=1e-10)


def test_cubic_index_broken():
    report = witten_index(susy_pair([0.0, 0.0, 0.0, 1 / 3], cutoff=64))
    assert report.index == 0
    assert not report.unbroken
    assert report.min_energy > 1e-3


def test_quartic_superpotential_unbroken():
    # W = q^4/4 has the normalizable zero mode e^{-W} in the minus sector
    report = witten_index(susy_pair([0.0, 0.0, 0.0, 0.0, 0.25], cutoff=96))
    assert report.index == 1
    assert report.unbroken


def test_index_sensitivity_scan_recorded():
    report = witten_index(susy_pair([0.0, 0.0, 0.5], cutoff=32))
    assert report.index_tol_down == report.index == report.index_tol_up == 1


def test_ambiguity_warning_on_coarse_tolerance():
    pair = susy_pair([0.0, 0.0, 0.5], cutoff=32)
    with pytest.warns(UserWarning, match="threshold"):
        report = witten_index(pair, zero_tol=0.5)
    assert report.ambiguous


def test_report_json_fields():
    obj = witten_index(susy_pair([0.0, 0.0, 0.5], cutoff=32)).to_json()
    assert obj["susy"] == "unbroken" and obj["index"] == 1
