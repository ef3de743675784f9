"""Shared test utilities: random draws, independent closed-form oracles, the
stepwise Monte Carlo sampler that the waiting-time one is checked against,
the row-by-row time-series writer that the vectorised one must match, and
the bit-by-bit ancilla permutation that the axis-transposing one must match.

The closed-form matrix builders here are written from the algebra directly
(Pauli coefficients entered by hand), never by calling the code under test,
so they can confront derive_effective and friends as independent routes.
"""

import numpy as np

from zenon.dynamics import basis_labels
from zenon.effective import ancilla_order
from zenon.linalg import expm
from zenon.spin_models import SIGMA, AnisotropicParams, SymmetricParams

EYE2 = np.eye(2, dtype=complex)


def two_qubit(axis: str, site: int) -> np.ndarray:
    op = SIGMA[axis]
    return np.kron(op, EYE2) if site == 1 else np.kron(EYE2, op)


XX = two_qubit("x", 1) @ two_qubit("x", 2)
YY = two_qubit("y", 1) @ two_qubit("y", 2)
ZZ = two_qubit("z", 1) @ two_qubit("z", 2)
Z1 = two_qubit("z", 1)
Z2 = two_qubit("z", 2)


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


FIG5_REALIZATIONS = {
    "a": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 1.0, 0.05, 0.1, 1.0, 0.05),
    "b": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 0.1, 0.005, 0.01, 1.0, 0.005),
    "c": AnisotropicParams(1.0, 0.0, 0.3, 0.0, 1.0, 0.05, 0.01, 10.0, 0.05),
}


def _trajectory_uniforms(seed: int, index: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, index))))
    return rng.random(n)


def _run_chunk(args):
    u, measured, cum_weights, vectors, seed, start, stop, n_steps, keep_states = args
    dim = vectors.shape[0]
    n_local = stop - start
    uniforms = np.empty((n_local, n_steps + 1))
    for i in range(n_local):
        uniforms[i] = _trajectory_uniforms(seed, start + i, n_steps + 1)
    picks = np.searchsorted(cum_weights, uniforms[:, 0], side="right")
    picks = np.minimum(picks, dim - 1)
    states = vectors[:, picks].T.copy()
    alive = np.arange(n_local)
    counts = np.zeros(n_steps, dtype=np.int64)
    ut = u.T.copy()
    for step in range(n_steps):
        composite = np.zeros((alive.size, 2 * dim), dtype=complex)
        composite[:, measured::2] = states
        composite = composite @ ut
        amp = composite[:, measured::2]
        p_keep = np.einsum("ij,ij->i", amp, amp.conj()).real
        p_keep = np.clip(p_keep, 0.0, 1.0)
        kept = uniforms[alive, step + 1] < p_keep
        alive = alive[kept]
        states = amp[kept] / np.sqrt(p_keep[kept])[:, None]
        counts[step] = alive.size
    return counts, (states if keep_states else None)


def stepwise_trajectories(cfg, rho0, n_traj: int, seed: int) -> np.ndarray:
    """Reference Monte Carlo that plays every measurement: each survivor is
    pushed through the composite unitary and kept with its one-step
    probability, with all uniforms of a trajectory drawn from its own
    Philox stream seeded by (seed, index).  Returns survivor counts per step."""
    order = ancilla_order(cfg.h.shape[0], cfg.spec)
    u = expm(-1j * cfg.tau * cfg.h[np.ix_(order, order)])
    w, vectors = np.linalg.eigh(rho0.rho)
    w = np.clip(w, 0.0, None)
    cum_weights = np.cumsum(w / w.sum())
    return _run_chunk(
        (u, cfg.spec.measured_state, cum_weights, vectors, seed, 0, n_traj, cfg.n_steps, False)
    )[0]


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
