import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from zenon.dilation import (
    DilationResult,
    RoundTripReport,
    bohr_frequencies,
    choose_tau,
    dilation_step,
    decay_generator,
    dilate,
    roundtrip_check,
    validate_stroboscopic,
)
from zenon.dynamics import DensityMatrix
from zenon.effective import AncillaSpec, derive_effective
from zenon.errors import (
    NotHermitianError,
    RoundTripFailureError,
    StroboscopicRegimeWarning,
    ValidationError,
    ZeroAntiHermitianPartError,
)
from zenon.linalg import frobenius_norm, hermitian_eig, matrix_from_json, trace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "roundtrip"

PT_2X2 = np.array([[0.5j, 1.0], [1.0, -0.5j]])
DECAYING = np.array([[0.0, 0.0], [0.0, -0.4j]])


def test_bohr_frequencies_examples():
    assert np.allclose(bohr_frequencies(np.diag([1.0, -1.0])), [2.0])
    assert np.allclose(bohr_frequencies(np.diag([0.0, 1.0, 3.0])), [1.0, 2.0, 3.0])
    assert bohr_frequencies(np.array([[2.0]])).size == 0


def test_decay_generator_examples():
    g = decay_generator(DECAYING)
    assert np.allclose(g, np.diag([0.0, 0.8]))
    assert np.allclose(decay_generator(PT_2X2), np.diag([-1.0, 1.0]))
    assert np.allclose(decay_generator(np.array([[0.3, 1.0], [1.0, -0.3]])), 0.0)


def test_choose_tau():
    assert choose_tau(2.0) == 0.005
    assert choose_tau(0.5) == 0.02
    with pytest.raises(ZeroAntiHermitianPartError):
        choose_tau(0.0)
    with pytest.raises(ZeroAntiHermitianPartError):
        choose_tau(-1.0)


def test_dilate_balanced_gain_loss_reference_values():
    # anti-Hermitian part -(i/2) diag(1,-1): the lift constant must exactly
    # cancel the most negative decay eigenvalue
    h_eff = -0.5j * np.diag([1.0, -1.0]).astype(complex)
    with pytest.warns(StroboscopicRegimeWarning):
        res = dilate(h_eff, 0.01)
    assert res.f == 2.0
    assert res.m == -100.0
    assert res.c == 100.0
    coupling = res.h[0::2, 1::2]
    assert np.allclose(coupling @ coupling, np.diag([200.0, 0.0]), atol=1e-10)
    assert np.allclose(res.h[0::2, 0::2], 0.0)


def test_dilate_decaying_level_coupling():
    tau = 0.01
    res = dilate(DECAYING, tau)
    assert res.c == 0.0 and abs(res.f - 0.8) < 1e-14
    coupling = res.h[0::2, 1::2]
    expected = np.diag([0.0, np.sqrt(0.8 / tau)])
    assert np.allclose(coupling, expected, atol=1e-12)


def test_dilate_coupling_scales_as_inverse_sqrt_tau():
    big = dilate(DECAYING, 0.012)
    small = dilate(DECAYING, 0.003)
    r_big = frobenius_norm(big.h[0::2, 1::2])
    r_small = frobenius_norm(small.h[0::2, 1::2])
    assert abs(r_small / r_big - 2.0) < 1e-10


def test_dilate_hermitian_input_needs_no_ancilla_coupling():
    h = np.array([[0.3, 1.0], [1.0, -0.3]])
    res = dilate(h, 0.1)
    assert res.c == 0.0 and res.f == 0.0 and res.m == 0.0
    assert np.allclose(res.h[0::2, 1::2], 0.0)
    assert np.allclose(res.h[0::2, 0::2], h)


def test_lift_constant_vanishes_iff_decay_generator_psd():
    # purely decaying generator: i(H - H^dag) >= 0, no lift needed
    assert dilate(DECAYING, 0.01).c == 0.0
    assert dilate(np.diag([0.0, -1.5j, -0.2j]), 0.003).c == 0.0
    # balanced gain-loss generator: a negative decay eigenvalue forces c > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StroboscopicRegimeWarning)
        res = dilate(PT_2X2, 0.02)
    assert res.c == pytest.approx(1.0 / 0.02)
    assert res.c > 0


def test_dilation_result_validation_and_warning():
    with pytest.raises(ValidationError):
        DilationResult(h=np.eye(2), tau=0.1, c=5.0, f=1.0, m=2.0)  # c != max(0,-m)
    with pytest.raises(NotHermitianError):
        DilationResult(h=np.array([[0, 1], [0, 0]]), tau=0.1, c=0.0, f=0.0, m=0.0)
    with pytest.warns(StroboscopicRegimeWarning):
        DilationResult(h=np.eye(2), tau=0.1, c=0.0, f=1.0, m=0.0)


def test_dilation_result_json_roundtrip():
    res = dilate(DECAYING, 0.01)
    obj = json.loads(json.dumps(res.to_json()))
    again = DilationResult.from_json(obj)
    assert np.array_equal(again.h, res.h)
    assert (again.tau, again.c, again.f, again.m) == (res.tau, res.c, res.f, res.m)
    with pytest.raises(ValidationError):
        DilationResult.from_json({"tau": 0.1})


def test_roundtrip_recovers_generator_up_to_identity_shift():
    tau = choose_tau(2.0)
    report = roundtrip_check(PT_2X2, tau)
    assert report.hermitian_residual < 1e-10
    assert report.gamma_residual < 1e-10 * max(1.0, 2.0 / tau)
    assert report.traceless_residual < 1e-10
    res = dilate(PT_2X2, tau)
    eff = derive_effective(res.h, AncillaSpec(), tau)
    shift = trace(eff.matrix() - PT_2X2) / 2.0
    assert abs(shift.real) < 1e-10
    assert abs(shift.imag - report.recovered_shift) < 1e-10
    assert report.recovered_shift == -tau * res.c / 2.0


def test_roundtrip_all_fixtures():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        m = matrix_from_json(json.loads(path.read_text()))
        f = float(np.ptp(hermitian_eig(decay_generator(m)).eigenvalues))
        tau = choose_tau(f) if f > 0 else 0.01
        report = roundtrip_check(m, tau)
        assert report.hermitian_residual >= 0
        assert report.traceless_residual < 1e-10 * max(
            1.0, frobenius_norm(m)
        ), path.name


def test_roundtrip_failure_surfaces_as_error(monkeypatch):
    import zenon.dilation as dilation_module

    rng = np.random.Generator(np.random.PCG64(99))
    m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    f = float(np.ptp(hermitian_eig(decay_generator(m)).eigenvalues))
    monkeypatch.setattr(dilation_module, "ROUNDTRIP_TOL", 1e-18)
    with pytest.raises(RoundTripFailureError):
        roundtrip_check(m, choose_tau(f))


def test_dilation_step_from_decay_spread_or_fallback():
    # DECAYING has decay generator diag(0, 0.8): spread 0.8
    assert dilation_step(DECAYING) == choose_tau(0.8)
    assert dilation_step(DECAYING, fallback=0.3) == choose_tau(0.8)
    hermitian = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    assert dilation_step(hermitian, fallback=0.3) == 0.3
    with pytest.raises(ZeroAntiHermitianPartError):
        dilation_step(hermitian)


def test_validate_stroboscopic_small_error_in_regime():
    tau = choose_tau(0.8)
    rho0 = DensityMatrix.from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
    err = validate_stroboscopic(DECAYING, tau, 1.0 / 0.8, rho0)
    assert err < 5e-3


def test_validate_stroboscopic_rejects_strong_coupling():
    h_eff = -0.5j * np.diag([1.0, -1.0]).astype(complex)
    rho0 = DensityMatrix.maximally_mixed(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StroboscopicRegimeWarning)
        with pytest.raises(ValidationError):
            validate_stroboscopic(h_eff, 0.02, 1.0, rho0)


def test_report_is_plain_data():
    report = RoundTripReport(1e-12, 1e-12, 1e-12, -0.5)
    assert report.recovered_shift == -0.5
