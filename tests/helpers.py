"""Shared test utilities: random draws, independent closed-form oracles (among
them the odd-parity block's populations and coherence), the
two hand-written nine-term spin Hamiltonians that the bond builder must
match, the Kronecker-chain bond builder that the index-assembled one must
match bit for bit, the per-cell CSV writer that the row fast path must
match byte for byte, the stepwise Monte Carlo sampler that the waiting-time one is checked
against, the sorting survivor counter on the exact survival curve that its
search must match bit for bit, the per-eigenket sorting counter whose law
it must share, the density-matrix chain that the factor chain must match, the
stepwise factor chain that the block-batched one must match, the
density-matrix RK4 that the factor RK4 must match, the eager (n, d, d)
state stack that the factor-stored trajectory must match bit for bit, the
row-by-row time-series writer that the vectorised one must match, the bit-by-bit
ancilla permutation that the axis-transposing one must match, the
expression forms of the Hermitian part, the Hermiticity test and the PSD
eigendecomposition that the one-pass linalg helpers must match bit for bit,
the Horner-form expm and the 40-digit mpmath exponential that the
Paterson-Stockmeyer one is measured against, and the eigenvalue-only PSD and
step-norm gates whose verdicts and messages the Cholesky-certified ones
must keep.  Also the test-only views of the model: single-site Pauli
operators as Kronecker chains, the four ancilla blocks of a composite, the
Kraus step of a Hermitian composite from its own eigh, a parity block's
2x2 generator, and the three Fig. 5 regimes.

The closed-form matrix builders here are written from the algebra directly
(Pauli coefficients entered by hand), never by calling the code under test,
so they can confront derive_effective and friends as independent routes.
"""

import math
from functools import reduce

import numpy as np

from zenon.chain import renormalized_blocks
from zenon.dynamics import STEP_NORM_LIMIT, basis_labels, state_factor
from zenon.effective import AncillaSpec, ancilla_order, ancilla_rows, kraus_from_eig
from zenon.entanglement import TwoLevelBlockParams
from zenon.errors import (
    NotHermitianError,
    NotPSDError,
    NumericalError,
    ProbabilityUnderflowError,
    StepTooLargeError,
    ValidationError,
)
from zenon.linalg import (
    EXPM_SCALE_LIMIT,
    EXPM_SERIES_ORDER,
    HERMITICITY_RTOL,
    EigenDecomposition,
    _eigvals,
    as_cmatrix,
    as_hermitian,
    dagger,
    expm,
    frobenius_norm,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
)
from zenon.spin_models import SIGMA, AnisotropicParams, SymmetricParams

EYE2 = np.eye(2, dtype=complex)


def _chain(axis: str, sites: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """sigma_axis at each of the 1-based sites and the identity elsewhere, as
    one Kronecker chain with site 1 the most significant factor."""
    factors = [SIGMA[axis] if k in sites else EYE2 for k in range(1, n_qubits + 1)]
    return reduce(np.kron, factors[1:], factors[0].copy())  # never the shared SIGMA array


def pauli(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """Single-site Pauli operator at the 1-based site of an n-qubit register."""
    return _chain(axis, (site,), n_qubits)


def two_qubit(axis: str, site: int) -> np.ndarray:
    op = SIGMA[axis]
    return np.kron(op, EYE2) if site == 1 else np.kron(EYE2, op)


XX = two_qubit("x", 1) @ two_qubit("x", 2)
YY = two_qubit("y", 1) @ two_qubit("y", 2)
ZZ = two_qubit("z", 1) @ two_qubit("z", 2)
Z1 = two_qubit("z", 1)
Z2 = two_qubit("z", 2)


def _two_body(axis: str, i: int, j: int) -> np.ndarray:
    return pauli(axis, i, 3) @ pauli(axis, j, 3)


def nine_term_symmetric(p: SymmetricParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with equal couplings of both system qubits
    to the ancilla."""
    h = p.gamma_xy * (_two_body("x", 1, 2) + _two_body("y", 1, 2))
    h = h + p.gamma_z * _two_body("z", 1, 2)
    h = h + p.g_xy * (_two_body("x", 1, 3) + _two_body("y", 1, 3))
    h = h + p.g_xy * (_two_body("x", 2, 3) + _two_body("y", 2, 3))
    h = h + p.g_z * (_two_body("z", 1, 3) + _two_body("z", 2, 3))
    return h


def nine_term_anisotropic(p: AnisotropicParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with one coupling per axis per bond."""
    h = p.gamma_x * _two_body("x", 1, 2)
    h = h + p.gamma_y * _two_body("y", 1, 2)
    h = h + p.gamma_z * _two_body("z", 1, 2)
    h = h + p.alpha_x * _two_body("x", 1, 3)
    h = h + p.alpha_y * _two_body("y", 1, 3)
    h = h + p.alpha_z * _two_body("z", 1, 3)
    h = h + p.beta_x * _two_body("x", 2, 3)
    h = h + p.beta_y * _two_body("y", 2, 3)
    h = h + p.beta_z * _two_body("z", 2, 3)
    return h


def kron_xyz_hamiltonian(n_qubits: int, bonds) -> np.ndarray:
    """Reference bond builder: J sigma_a^i sigma_a^j as a full Kronecker chain
    (site 1 the most significant factor), added to the whole matrix bond by
    bond in the order given."""
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for (i, j), axis, coupling in bonds:
        h = h + coupling * _chain(axis, (i, j), n_qubits)
    return h


def symmetric_effective_matrix(p: SymmetricParams, tau: float) -> np.ndarray:
    """Closed-form effective generator of the symmetric model, written out
    entry by entry in the |00>,|01>,|10>,|11> basis."""
    g2 = p.g_xy**2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = p.gamma_z + 2 * p.g_z + 2j * tau * g2
    m[1, 1] = m[2, 2] = -p.gamma_z
    m[1, 2] = m[2, 1] = 2 * p.gamma_xy - 2j * tau * g2
    m[3, 3] = p.gamma_z - 2 * p.g_z - 2j * tau * g2
    return m - 2j * tau * g2 * np.eye(4)


def symmetric_odd_block(p: SymmetricParams, tau: float) -> tuple[float, float]:
    """(gamma, g) of the symmetric model's odd-parity block by hand: the
    coherent rate 2 gamma_xy and the damping rate 2 tau g_xy^2."""
    return 2.0 * p.gamma_xy, 2.0 * tau * p.g_xy**2


# Closed forms of the odd-parity block omega sx with omega = gamma - i g
# (Omega = 0) started in |01>: the independent route the block evolution
# of the figures is checked against.


def _sech(x: float) -> float:
    """2 e^{-|x|} / (1 + e^{-2|x|}); exact and overflow-free for any x."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _nonnegative(t: float) -> None:
    if t < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")


def transition_probability(gamma: float, g: float, t: float) -> float:
    """Normalized population moved to |10>, 1/2 - cos(2 gamma t) sech(2 g t) / 2."""
    _nonnegative(t)
    return min(max(0.5 - 0.5 * math.cos(2.0 * gamma * t) * _sech(2.0 * g * t), 0.0), 1.0)


def survival_probability(gamma: float, g: float, t: float) -> float:
    """Normalized population left in |01>, the complement in its own stable form."""
    _nonnegative(t)
    return min(max(0.5 + 0.5 * math.cos(2.0 * gamma * t) * _sech(2.0 * g * t), 0.0), 1.0)


def coherence(gamma: float, g: float, t: float) -> complex:
    """<01| rho |10> normalized, -(tanh(2 g t) - i sin(2 gamma t) sech(2 g t)) / 2;
    it tends to -1/2, the singlet's."""
    _nonnegative(t)
    return complex(-0.5 * math.tanh(2.0 * g * t), 0.5 * math.sin(2.0 * gamma * t) * _sech(2.0 * g * t))


def anisotropic_effective_matrix(p: AnisotropicParams, tau: float) -> np.ndarray:
    """Closed-form effective generator of the anisotropic model as a Pauli
    expansion (the sigma1z sigma2z coefficient is exactly gamma_z)."""
    const = p.alpha_x**2 + p.alpha_y**2 + p.beta_x**2 + p.beta_y**2
    return (
        -0.5j * tau * const * np.eye(4, dtype=complex)
        + (p.gamma_x - 1j * tau * p.alpha_x * p.beta_x) * XX
        + (p.gamma_y - 1j * tau * p.alpha_y * p.beta_y) * YY
        + p.gamma_z * ZZ
        + (p.alpha_z + 1j * tau * p.alpha_x * p.alpha_y) * Z1
        + (p.beta_z + 1j * tau * p.beta_x * p.beta_y) * Z2
    )


def anisotropic_block_coefficients(p: AnisotropicParams, tau: float):
    """(Omega_plus, omega_plus, Omega_minus, omega_minus) from the published
    block formulas."""
    omega_big_plus = (p.alpha_z + p.beta_z) + 1j * tau * (
        p.alpha_x * p.alpha_y + p.beta_x * p.beta_y
    )
    omega_small_plus = (p.gamma_x - p.gamma_y) - 1j * tau * (
        p.alpha_x * p.beta_x - p.alpha_y * p.beta_y
    )
    omega_big_minus = (p.alpha_z - p.beta_z) + 1j * tau * (
        p.alpha_x * p.alpha_y - p.beta_x * p.beta_y
    )
    omega_small_minus = (p.gamma_x + p.gamma_y) - 1j * tau * (
        p.alpha_x * p.beta_x + p.alpha_y * p.beta_y
    )
    return omega_big_plus, omega_small_plus, omega_big_minus, omega_small_minus


def random_complex(rng, dim: int) -> np.ndarray:
    return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = random_complex(rng, dim)
    return (m + m.conj().T) / 2


def random_psd(rng, dim: int) -> np.ndarray:
    b = random_complex(rng, dim)
    return b @ b.conj().T


def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_symmetric_params(rng) -> SymmetricParams:
    return SymmetricParams(*(float(x) for x in rng.uniform(-2, 2, 4)))


def random_anisotropic_params(rng) -> AnisotropicParams:
    return AnisotropicParams(*(float(x) for x in rng.uniform(-2, 2, 9)))


def taylor_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain truncated exponential series; accurate for ||a|| < 1."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def block_matrix(block: TwoLevelBlockParams) -> np.ndarray:
    """The block generator Omega sz + omega sx as a 2x2 matrix."""
    return block.omega_z * SIGMA["z"] + block.omega_x * SIGMA["x"]


FIG5_REGIMES = {
    "a": TwoLevelBlockParams(mu_z=0.1, nu_z=0.1, mu_x=1.0, nu_x=1.0, sector="plus"),
    "b": TwoLevelBlockParams(mu_z=0.01, nu_z=0.01, mu_x=1.0, nu_x=0.1, sector="plus"),
    "c": TwoLevelBlockParams(mu_z=0.1, nu_z=0.1, mu_x=1.0, nu_x=10.0, sector="plus"),
}


FIG5_REALIZATIONS = {
    "a": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 1.0, 0.05, 0.1, 1.0, 0.05),
    "b": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 0.1, 0.005, 0.01, 1.0, 0.005),
    "c": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 1.0, 0.05, 0.01, 10.0, 0.05),
}


def horner_expm(a) -> np.ndarray:
    """Reference expm: linalg.expm's scaling and squaring with its order-18
    Taylor polynomial in Horner form, 18 products where expm's
    Paterson-Stockmeyer evaluation takes 7."""
    m = as_cmatrix(a)
    n = m.shape[0]
    nrm = float(np.linalg.norm(m))
    squarings = 0
    if nrm > EXPM_SCALE_LIMIT:
        squarings = int(np.ceil(np.log2(nrm / EXPM_SCALE_LIMIT)))
    b = m / (2.0**squarings)
    eye = np.eye(n, dtype=complex)
    out = eye.copy()
    for k in range(EXPM_SERIES_ORDER, 0, -1):
        out = eye + (b / k) @ out
    for _ in range(squarings):
        out = out @ out
    return out


def mp_expm(a: np.ndarray, dps: int = 40):
    """exp(a) in mpmath at dps digits, for a whose entries are exact doubles."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.expm(mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a]))


def mp_relative_error(approx: np.ndarray, exact) -> float:
    """||approx - exact||_F / ||exact||_F, formed in mpmath at exact's precision."""
    import mpmath

    n = approx.shape[0]
    diff = mpmath.matrix([[mpmath.mpc(complex(approx[i, j])) - exact[i, j] for j in range(n)] for i in range(n)])
    return float(mpmath.mnorm(diff, "f") / mpmath.mnorm(exact, "f"))


def _trajectory_uniforms(seed: int, index: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, index))))
    return rng.random(n)


def stepwise_trajectories(cfg, rho0, n_traj: int, seed: int) -> np.ndarray:
    """Reference Monte Carlo that plays every measurement: each survivor is
    pushed through the composite unitary and kept with its one-step
    probability, with all uniforms of a trajectory drawn from its own
    Philox stream seeded by (seed, index).  Returns survivor counts per step."""
    order = ancilla_order(cfg.h.shape[0], cfg.spec)
    ut = expm(-1j * cfg.tau * cfg.h[np.ix_(order, order)]).T.copy()
    w, vectors = np.linalg.eigh(rho0.rho)
    w = np.clip(w, 0.0, None)
    cum_weights = np.cumsum(w / w.sum())
    dim = vectors.shape[0]
    uniforms = np.empty((n_traj, cfg.n_steps + 1))
    for i in range(n_traj):
        uniforms[i] = _trajectory_uniforms(seed, i, cfg.n_steps + 1)
    picks = np.searchsorted(cum_weights, uniforms[:, 0], side="right")
    states = vectors[:, np.minimum(picks, dim - 1)].T.copy()
    alive = np.arange(n_traj)
    counts = np.zeros(cfg.n_steps, dtype=np.int64)
    for step in range(cfg.n_steps):
        composite = np.zeros((alive.size, 2 * dim), dtype=complex)
        composite[:, 0::2] = states
        amp = (composite @ ut)[:, 0::2]
        p_keep = np.clip(np.einsum("ij,ij->i", amp, amp.conj()).real, 0.0, 1.0)
        kept = uniforms[alive, step + 1] < p_keep
        alive = alive[kept]
        states = amp[kept] / np.sqrt(p_keep[kept])[:, None]
        counts[step] = alive.size
    return counts


def sorting_trajectories(cfg, rho0, n_traj: int, seed: int) -> np.ndarray:
    """Reference waiting-time Monte Carlo by start eigenket, counting
    survivors by sorting: all n_traj (pick, u) rows in one draw of the
    Philox stream, each trajectory started in eigenket j picked with weight
    w_j = ||F e_j||^2, the uniforms sorted within each start eigenket, and
    the survivors of step n read as searchsorted(sort(u_j), curve_j[n],
    "left") on that eigenket's own curve p_n ||F_n e_j||^2 / w_j.  The same
    law as curve_sorting_trajectories, other draws.  Returns survivor counts
    per step."""
    f = state_factor(rho0)
    weights = np.linalg.norm(f, axis=0) ** 2
    pick_u, u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random((n_traj, 2)).T
    picks = np.minimum(np.searchsorted(np.cumsum(weights), pick_u, side="right"), weights.size - 1)
    curves = np.zeros((cfg.n_steps, weights.size))
    step = 0
    for p, fs in renormalized_blocks(cfg.kraus, f, cfg.n_steps):
        curves[step : step + len(p)] = p[:, None] * np.linalg.norm(fs, axis=1) ** 2 / weights
        step += len(p)
    curves = np.minimum.accumulate(curves, axis=0)

    counts = np.zeros(cfg.n_steps, dtype=np.int64)
    by_pick = np.split(u[np.lexsort((u, picks))], np.cumsum(np.bincount(picks, minlength=weights.size))[:-1])
    for j, u_j in enumerate(by_pick):
        counts += np.searchsorted(u_j, curves[:, j], side="left")
    return counts


def curve_sorting_trajectories(cfg, rho0, n_traj: int, seed: int) -> np.ndarray:
    """Reference waiting-time Monte Carlo on the exact survival curve alone,
    counting survivors by sorting: all n_traj (pick, u) rows in one draw of
    the Philox stream, the uniforms u sorted once, and the survivors of step
    n read as searchsorted(sort(u), curve[n], "left").  Returns survivor
    counts per step."""
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random((n_traj, 2))[:, 1]
    curve = np.zeros(cfg.n_steps)
    step = 0
    for p, _ in renormalized_blocks(cfg.kraus, state_factor(rho0), cfg.n_steps):
        curve[step : step + len(p)] = p
        step += len(p)
    return np.searchsorted(np.sort(u), np.minimum.accumulate(curve), side="left")


def rho_chain(a: np.ndarray, rho: np.ndarray, n_steps: int):
    """Reference conditional chain on the density matrix itself.

    Yield (p, rho) after each of n_steps applications of rho <- A rho A^dag.

    rho is renormalized to unit trace every step and the survival
    probability p accumulated in log space, so long strongly-damped chains
    neither underflow nor overflow: p is exp(log p), or exactly 0.0 once
    log p <= -745, below the smallest subnormal double.  A trace that
    reaches 0 ends the chain early, since no state is left to normalize; a
    non-finite trace raises ProbabilityUnderflowError.
    """
    ad = dagger(a)
    log_p = 0.0
    for _ in range(n_steps):
        rho = a @ rho @ ad
        tr = np.trace(rho).real
        if not math.isfinite(tr):
            raise ProbabilityUnderflowError(f"conditional trace is {tr}")
        if not tr > 0:
            return
        rho = hermitian_part(rho / tr)
        log_p += math.log(tr)
        yield (math.exp(log_p) if log_p > -745 else 0.0), rho


def stepwise_chain(a: np.ndarray, f: np.ndarray, n_steps: int):
    """Reference conditional chain, one step at a time.

    Yield (p, F) after each of n_steps applications of F <- A F, that is
    rho <- A rho A^dag on the state rho = F F^dag (see state_factor).

    F is renormalized to unit Frobenius norm (unit trace of rho) every step
    and the survival probability p accumulated in log space, so long
    strongly-damped chains neither underflow nor overflow: p is exp(log p),
    or exactly 0.0 once log p <= -745, below the smallest subnormal double.
    A trace that reaches 0 ends the chain early, since no state is left to
    normalize; a non-finite trace raises ProbabilityUnderflowError.
    """
    log_p = 0.0
    for _ in range(n_steps):
        f = a @ f
        tr = np.vdot(f, f).real
        if not math.isfinite(tr):
            raise ProbabilityUnderflowError(f"conditional trace is {tr}")
        if not tr > 0:
            return
        f = f / math.sqrt(tr)
        log_p += math.log(tr)
        yield (math.exp(log_p) if log_p > -745 else 0.0), f


def renormalized_chain(a: np.ndarray, f: np.ndarray, n_steps: int):
    """renormalized_blocks one step at a time: yield (p, F) after each of
    n_steps applications of F <- A F; it ends and raises where they do."""
    for p, fs in renormalized_blocks(a, f, n_steps):
        yield from zip(p.tolist(), fs)


def eager_conditional_trajectory(h_eff, rho0, t_max: float, n_samples: int):
    """Reference conditional_trajectory that keeps every sampled state:
    (times, survival, states), states the dense (n_samples, dim, dim) stack
    of F F^dag filled one stacked product per chain block."""
    m = as_cmatrix(h_eff)
    dt = t_max / (n_samples - 1)
    a, f = expm(-1j * dt * m), state_factor(rho0)
    times = np.arange(n_samples) * dt
    survival = np.empty(n_samples)
    states = np.empty((n_samples, rho0.dim, rho0.dim), dtype=complex)
    survival[0] = 1.0
    states[0] = rho0.rho
    k = 1
    for p, fs in renormalized_blocks(a, f, n_samples - 1):
        survival[k : k + len(p)] = p
        np.matmul(fs, dagger(fs), out=states[k : k + len(p)])
        k += len(p)
    if k < n_samples:
        raise ProbabilityUnderflowError(f"conditional probability hit 0.0 at step {k}")
    return times, survival, states


def ancilla_blocks(h, spec: AncillaSpec = AncillaSpec()):
    """System-space blocks (<0|A|0>, <0|A|1>, <1|A|0>, <1|A|1>) of a composite
    operator, |0> the measured ancilla state."""
    a = as_cmatrix(h)
    r0, r1 = ancilla_rows(a.shape[0], spec)
    return (a[np.ix_(r0, r0)], a[np.ix_(r0, r1)], a[np.ix_(r1, r0)], a[np.ix_(r1, r1)])


def kraus_step(h, spec: AncillaSpec, tau: float) -> np.ndarray:
    """Exact conditional step <0| exp(-i H tau) |0> of a Hermitian H."""
    return kraus_from_eig(hermitian_eig(h), spec, tau)


def taylor_kraus_step(h, spec: AncillaSpec, tau: float) -> np.ndarray:
    """Reference conditional step <0| exp(-i H tau) |0>: the order-18 Taylor
    expm (scaling and squaring) of the whole canonical composite, then its
    measured block, with the same norm check as kraus_step."""
    hm = as_cmatrix(h)
    if not is_hermitian(hm):
        raise NotHermitianError("composite Hamiltonian must be Hermitian")
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    order = ancilla_order(hm.shape[0], spec)
    u = expm(-1j * tau * hm[np.ix_(order, order)])
    k = u[0::2, 0::2]
    sv_sq = hermitian_eig(dagger(k) @ k).eigenvalues[-1]
    if sv_sq > 1.0 + 1e-10:
        raise NumericalError(f"conditional step has operator norm {np.sqrt(sv_sq):.12f} > 1")
    return k


def rho_rk4(eff, rho0: np.ndarray, t: float, dt: float | None = None) -> np.ndarray:
    """Reference RK4 on the density matrix itself for the trace-preserving
    nonlinear equation

        d rho / dt = -i [h0, rho] - (tau/2) {gamma, rho} + tau tr(gamma rho) rho

    from rho0 over [0, t], by default at 1e-3 over the larger of ||h0||_F and
    tau ||gamma||_F, with a shorter last step for the remainder.  rho is
    divided by its trace after each step; a drift of the trace from 1 above
    1e-12 in one step raises NumericalError.  Returns hermitian_part(rho),
    not validated as a state: on a pure start a coarse step can leave a
    slightly negative eigenvalue.
    """
    if dt is None:
        scale = max(frobenius_norm(eff.h0), eff.tau * frobenius_norm(eff.gamma))
        dt = min(1e-3 / scale if scale > 0 else 1e-3, t)
    if not 0 < dt <= t or dt * frobenius_norm(eff.matrix()) > STEP_NORM_LIMIT:
        raise StepTooLargeError(f"dt {dt:g} outside (0, min(t, {STEP_NORM_LIMIT} / ||H_eff||)]")
    h0 = eff.h0
    gamma = eff.gamma
    tau = eff.tau

    def rhs(rho):
        hr = h0 @ rho
        gr = gamma @ rho
        feed = tau * np.trace(gr).real
        return (
            -1j * (hr - dagger(hr))
            - 0.5 * tau * (gr + dagger(gr))
            + feed * rho
        )

    rho = np.array(rho0, dtype=complex)
    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    for step_dt in [dt] * n_full + ([remainder] if remainder > 1e-15 * t else []):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step_dt * k1)
        k3 = rhs(rho + 0.5 * step_dt * k2)
        k4 = rhs(rho + step_dt * k3)
        rho = rho + (step_dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s = np.trace(rho).real
        if abs(s - 1.0) > 1e-12:
            raise NumericalError(f"trace drift {s - 1.0:.3e} exceeds 1e-12 per step")
        rho = rho / s
    return hermitian_part(rho)


def rowwise_timeseries_csv(path, times, survival, states, coherence_pair) -> None:
    """Reference time-series writer: one state at a time, every value through
    repr(float(v))."""
    dim = states[0].shape[0]
    i, j = coherence_pair
    labels = basis_labels(dim)
    header = ["t", "p"] + [f"pop_{s}" for s in labels] + ["re_coh", "im_coh", "purity"]
    lines = [",".join(header)]
    for t, p, rho in zip(times, survival, states):
        pops = [rho[k, k].real for k in range(dim)]
        coh = rho[i, j]
        purity = (rho @ rho).trace().real
        row = [t, p, *pops, coh.real, coh.imag, purity]
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def percell_csv(path, header: list[str], rows) -> None:
    """Reference CSV writer: every cell on its own, an integer (Python or
    numpy, bools too) as str(v) and anything else as repr(float(v))."""
    def cell(v) -> str:
        return str(v) if isinstance(v, (int, np.integer)) else repr(float(v))

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cell(v) for v in row) + "\n" for row in rows)


def bitloop_ancilla_order(dim: int, site: int) -> np.ndarray:
    """Reference ancilla permutation, one index at a time: canonical position
    j = 2*s + a takes the register index whose bit at 1-based qubit `site`
    (most significant first) is a and whose other bits spell s."""
    n = dim.bit_length() - 1
    order = np.empty(dim, dtype=int)
    for j in range(dim):
        a = j & 1
        s = j >> 1
        bits = [(s >> (n - 2 - k)) & 1 for k in range(n - 1)]
        bits.insert(site - 1, a)
        order[j] = sum(b << (n - 1 - i) for i, b in enumerate(bits))
    return order


def expression_hermitian_part(a: np.ndarray) -> np.ndarray:
    """Reference (A + A^dag) / 2, written as the expression: the conjugate,
    the sum and the quotient each a fresh array."""
    return (a + dagger(a)) / 2


def expression_is_hermitian(a: np.ndarray, tol: float = HERMITICITY_RTOL) -> bool:
    """Reference relative Frobenius test of A == A^dag, the difference formed
    from a fresh conjugate."""
    return frobenius_norm(a - dagger(a)) <= tol * frobenius_norm(a)


def expression_psd_eig(a) -> EigenDecomposition:
    """Reference PSD eigendecomposition: the expression-form Hermiticity check
    and symmetrization, eigh, then an eigenvalue below -1e-10 ||A||_F raises
    NotPSDError."""
    m = as_cmatrix(a)
    if not expression_is_hermitian(m):
        raise NotHermitianError(f"matrix is not Hermitian within relative tolerance {HERMITICITY_RTOL:g}")
    w, v = np.linalg.eigh(expression_hermitian_part(m))
    tol = 1e-10 * frobenius_norm(a)
    if w[0] < -tol:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.6e} is below the PSD tolerance -{tol:.6e}")
    return EigenDecomposition(w, v)


def hermitian_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix: as_hermitian, then
    linalg._eigvals, the eigenvalue rule of both gates."""
    return _eigvals(as_hermitian(a))


def eigenvalue_as_psd(a) -> np.ndarray:
    """Reference PSD gate: as_hermitian, then the PSD rule (the smallest
    eigenvalue at least -1e-10 ||A||_F, else NotPSDError) on the eigenvalues
    alone at every dimension, as linalg.as_psd decides where its Cholesky
    certificate proves nothing."""
    h = as_hermitian(a)
    w, tol = _eigvals(h), 1e-10 * frobenius_norm(a)
    if w[0] < -tol:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.6e} is below the PSD tolerance -{tol:.6e}")
    return h


def eig_sqrt(eig: EigenDecomposition) -> np.ndarray:
    """Reference matrix square root V sqrt(w) V^dag of an eigendecomposition
    (w, V), negative w clamped to 0: the form dilation.dilate builds its
    ancilla coupling R in."""
    v = eig.eigenvectors
    return hermitian_part((v * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))) @ dagger(v))


def eigenvalue_step_norm(k: np.ndarray) -> None:
    """Reference ||K||_2 <= 1 + 1e-10 gate on the largest eigenvalue of
    K^dag K at every dimension, as effective._check_step_norm decides where
    its Cholesky certificate proves nothing."""
    sv_sq = hermitian_eigvals(dagger(k) @ k)[-1]
    if sv_sq > 1.0 + 1e-10:
        raise NumericalError(f"conditional step has operator norm {np.sqrt(sv_sq):.12f} > 1")


def verdict(check, *args):
    """None when check(*args) passes, else the type and message of what it raised."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the verdict is the exception itself
        return type(exc), str(exc)
    return None


def counting_kernels(monkeypatch, names) -> list:
    """Wrap each np.linalg kernel named in names so that a call appends
    (name, its argument's shape) to the returned list."""
    calls = []
    for name in names:
        kernel = getattr(np.linalg, name)

        def call(a, *args, _kernel=kernel, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)
    return calls
