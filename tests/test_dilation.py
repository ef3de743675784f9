import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import ancilla_blocks
from zenon.dilation import (
    DilationResult,
    RoundTripReport,
    choose_tau,
    decay_generator,
    dilate,
    roundtrip_check,
    validate_stroboscopic,
)
from zenon.dynamics import DensityMatrix
from zenon.effective import AncillaSpec, derive_effective
from zenon.errors import (
    NotHermitianError,
    NumericalError,
    RoundTripFailureError,
    StroboscopicRegimeWarning,
    ValidationError,
    ZeroAntiHermitianPartError,
)
from zenon.linalg import frobenius_norm, hermitian_eig, matrix_from_json, trace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "roundtrip"

PT_2X2 = np.array([[0.5j, 1.0], [1.0, -0.5j]])
DECAYING = np.array([[0.0, 0.0], [0.0, -0.4j]])


def test_decay_generator_examples():
    g = decay_generator(DECAYING)
    assert np.allclose(g, np.diag([0.0, 0.8]))
    assert np.allclose(decay_generator(PT_2X2), np.diag([-1.0, 1.0]))
    assert np.allclose(decay_generator(np.array([[0.3, 1.0], [1.0, -0.3]])), 0.0)


def test_decay_generator_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows the double range"):
            decay_generator(np.array([[1e308 - 1e308j, 1e308], [1e308, 0.0]]))
        # entries past 1e154 with a finite norm still give the operator
        assert np.array_equal(decay_generator(np.array([[-1e160j, 0.0], [0.0, 0.0]])), np.diag([2e160, 0.0]))
        # and so does an operator whose Hermitian sum alone passes the double range
        assert np.array_equal(decay_generator(np.diag([-0.75e308j, -0.75e308j])), np.diag([1.5e308, 1.5e308]))


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
    with pytest.raises(NotHermitianError):
        DilationResult(h=np.array([[0, 1], [0, 0]]), tau=0.1, f=0.0, m=0.0)
    with pytest.raises(NotHermitianError):  # a NaN residual fails the gate too
        DilationResult(h=np.full((2, 2), np.nan), tau=0.1, f=0.0, m=0.0)
    with pytest.raises(ValidationError, match="tau must be positive"):
        DilationResult(h=np.eye(2), tau=0.0, f=0.0, m=0.0)
    with pytest.warns(StroboscopicRegimeWarning):
        DilationResult(h=np.eye(2), tau=0.1, f=1.0, m=0.0)


def test_dilation_result_reads_the_lift_from_m():
    # c is no field that could disagree with M: it is max(0, -M), read from M
    assert "c" not in {f.name for f in fields(DilationResult)}
    assert DilationResult(h=np.eye(2), tau=0.1, f=0.0, m=2.0).c == 0.0
    assert DilationResult(h=np.eye(2), tau=0.1, f=0.0, m=-2.0).c == 2.0
    for path in sorted(FIXTURES.glob("*.json")):
        res = dilate(matrix_from_json(json.loads(path.read_text())), fallback=0.01)
        assert res.c == max(0.0, -res.m) and res.to_json()["c"] == res.c, path.name


def test_dilation_result_regime_warning_names_the_caller():
    with pytest.warns(StroboscopicRegimeWarning) as record:
        DilationResult(h=np.eye(2), tau=0.1, f=1.0, m=0.0)
    assert [w.filename for w in record] == [__file__]
    # f * tau in four significant digits, however large
    with pytest.warns(StroboscopicRegimeWarning, match=r"f \* tau = 1e\+300 > 0\.011"):
        DilationResult(h=np.eye(2), tau=1e150, f=1e150, m=0.0)


def test_coupling_null_direction_is_exact_on_every_fixture():
    """R = sqrt(cI + G/tau) against its definition: R^2 = T, and when the lift
    c is active, T is singular and so is R, to rounding."""
    for path in sorted(FIXTURES.glob("*.json")):
        m = matrix_from_json(json.loads(path.read_text()))
        res = dilate(m, fallback=0.01)
        tau = res.tau
        r = ancilla_blocks(res.h)[1]
        t = res.c * np.eye(m.shape[0]) + decay_generator(m) / tau
        assert frobenius_norm(r @ r - t) <= 1e-14 * max(1.0, frobenius_norm(t)), path.name
        if res.c > 0:
            sv = np.linalg.svd(r, compute_uv=False)
            assert sv[-1] <= 1e-12 * sv[0], path.name


def test_dilation_result_json_roundtrip():
    res = dilate(DECAYING, 0.01)
    obj = json.loads(json.dumps(res.to_json()))
    assert np.array_equal(matrix_from_json(obj["H"]), res.h)
    assert (obj["tau"], obj["c"], obj["f"], obj["M"]) == (res.tau, res.c, res.f, res.m)


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
    assert dilate(DECAYING).tau == choose_tau(0.8)
    assert dilate(DECAYING, fallback=0.3).tau == choose_tau(0.8)
    hermitian = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    assert dilate(hermitian, fallback=0.3).tau == 0.3
    with pytest.raises(ZeroAntiHermitianPartError):
        dilate(hermitian)


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
    report = RoundTripReport(0.01, 1e-12, 1e-12, 1e-12, -0.5)
    assert report.recovered_shift == -0.5
