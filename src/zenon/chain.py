"""The conditional chain F <- A F on a factor F of the state rho = F F^dag,
that is rho <- A rho A^dag, renormalized every step with the survival
probability accumulated in log space.

renormalized_blocks is the one chain: the time series, the sweep's final
states and the stroboscopic check (through dynamics) and the exact survival
curve, the filtered protocol state and the Monte Carlo (through protocol)
all read it.  It advances up to 64 steps per stacked product of the
precomputed powers A^1 .. A^B; chain_block_size picks B.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ProbabilityUnderflowError
from .linalg import dagger, frobenius_norm, hermitian_eig

MAX_BLOCK_STEPS = 64
MAX_BLOCK_ENTRIES = 4096


def chain_block_size(a: np.ndarray, n_steps: int) -> int:
    """Steps renormalized_blocks advances per block:
    min(64, 4096 // d^2, floor(1 / max|ln sigma_i(A)|), n_steps), at least 1.

    With B * max|ln sigma_i| <= 1 no power A^j, j <= B, grows or shrinks a
    vector by more than a factor e, so a block can neither underflow nor
    overflow, and the B powers hold at most 4096 entries.  B is 1 when A is
    singular (an annihilated state must leave an exact zero), when its Gram
    matrix A^dag A is not finite (the chain itself must raise) and for
    d >= 64, where a step is one BLAS-bound product anyway.
    """
    cap = min(MAX_BLOCK_STEPS, MAX_BLOCK_ENTRIES // a.shape[0] ** 2, n_steps)
    if cap <= 1:
        return 1
    gram = dagger(a) @ a
    if not math.isfinite(frobenius_norm(gram)):
        return 1
    w = hermitian_eig(gram).eigenvalues  # sigma_i^2, ascending
    if not w[0] > 0:
        return 1
    spread = max(-math.log(w[0]), math.log(w[-1])) / 2  # max |ln sigma_i|
    if spread * cap <= 1:
        return cap
    b = int(1 / spread)
    return max(1, b - 1 if b * spread > 1 else b)


def renormalized_blocks(a: np.ndarray, f: np.ndarray, n_steps: int):
    """The conditional chain F <- A F, that is rho <- A rho A^dag on the state
    rho = F F^dag, run n_steps times a block at a time from a factor F of unit
    Frobenius norm (see dynamics.state_factor).

    Yields (p, F) per block: p[j] is the survival probability and F[j] the
    factor, renormalized to unit Frobenius norm (unit trace of rho), after
    each step of the block.  The powers A^1 .. A^B (B = chain_block_size)
    are computed once; a block of m <= B steps is the one stacked product
    G = A^(1..m) F of its starting factor, with G_j / ||G_j||_F the factor
    after step j and log p_j = log p_start + log ||G_j||_F^2.  Accumulated in
    log space, long strongly-damped chains neither underflow nor overflow:
    p is exp(log p), or exactly 0.0 once log p <= -745, below the smallest
    subnormal double.  A trace that reaches 0 ends the chain early, since no
    state is left to normalize; a non-finite trace raises
    ProbabilityUnderflowError.  Both can happen only at B = 1, where each
    step is the stepwise chain's own np.vdot trace and division, bit for bit
    (the division as an in-place product with 1 / sqrt(trace)).
    """
    b = chain_block_size(a, n_steps)
    if b > 1:
        powers = np.empty((b,) + a.shape, dtype=complex)
        powers[0] = a
        for j in range(1, b):
            np.matmul(a, powers[j - 1], out=powers[j])
    log_p = 0.0
    for start in range(0, n_steps, b):
        m = min(b, n_steps - start)
        if m > 1:
            fs = powers[:m] @ f
            # every trace lies in [e^-2, e^2] (chain_block_size): none is 0 or non-finite
            norms = np.linalg.norm(fs, axis=(1, 2))
            logs = (log_p + 2 * np.log(norms)).tolist()
            fs /= norms[:, None, None]
        else:
            # the stepwise chain's own step and arrays: bit for bit, and A is not copied
            f = a @ f
            tr = np.vdot(f, f).real
            if not math.isfinite(tr):
                raise ProbabilityUnderflowError(f"conditional trace is {tr}")
            if not tr > 0:
                return
            logs = [log_p + math.log(tr)]
            # numpy's complex f / s is (x + 0) * (1 / s) (Smith's algorithm at a zero
            # imaginary part); the fresh product scaled in place by 1 / s differs
            # from it only in the sign of an exact zero, which a matmul (its sums
            # start at +0) does not leave
            f *= 1 / math.sqrt(tr)
            fs = f[None]
        f, log_p = fs[-1], logs[-1]
        yield np.array([math.exp(x) if x > -745 else 0.0 for x in logs]), fs

