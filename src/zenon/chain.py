"""The conditional chain F <- A F on a factor F of the state rho = F F^dag,
that is rho <- A rho A^dag, renormalized every step with the survival
probability accumulated in log space.

Two entry points share one block renormalization and one single step.
renormalized_blocks yields every step, up to 64 per stacked product of the
powers A^1 .. A^B (chain_block_size picks B): the time series and the
exact survival curve (the Monte Carlo's input) read it.  renormalized_end
returns only the end, for the filtered protocol state (and so the
stroboscopic check) and the sweep's final states: one product A^B F per
block (end_block_size picks B), bit for bit the stacked chain's last slice
where both pick the same B; a trace of 0 leaves it no end, so it raises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ProbabilityUnderflowError
from .linalg import _eigvals, dagger, frobenius_norm, hermitian_part

MAX_BLOCK_STEPS = 64
MAX_BLOCK_ENTRIES = 4096


def _spread_block_size(a: np.ndarray, cap: int) -> int:
    """The largest B <= cap with B * max|ln sigma_i(A)| <= 1, at least 1: no
    power A^j, j <= B, scales a vector by more than e, so a block neither
    underflows nor overflows.  B is 1 when A is singular (an annihilated
    state must leave an exact zero) and when A^dag A is not finite (the
    chain itself must raise)."""
    if cap <= 1:
        return 1
    gram = dagger(a) @ a
    if not math.isfinite(frobenius_norm(gram)):
        return 1
    w = _eigvals(hermitian_part(gram))  # sigma_i^2, ascending; eigh's below dimension 32
    if not w[0] > 0:
        return 1
    spread = max(-math.log(w[0]), math.log(w[-1])) / 2  # max |ln sigma_i|
    if spread * cap <= 1:
        return cap
    b = int(1 / spread)
    return max(1, b - 1 if b * spread > 1 else b)


def chain_block_size(a: np.ndarray, n_steps: int) -> int:
    """Steps renormalized_blocks advances per block: the spread rule under
    min(64, 4096 // d^2, n_steps).  The B stacked powers hold at most 4096
    entries, so from d >= 64 on the stacked chain takes one step per product."""
    return _spread_block_size(a, min(MAX_BLOCK_STEPS, MAX_BLOCK_ENTRIES // a.shape[0] ** 2, n_steps))


def end_block_size(a: np.ndarray, rank: int, n_steps: int) -> int:
    """Steps renormalized_end advances per product: the spread rule under
    min(64, n_steps, max(4096 // d^2, B_flop)), where B_flop minimizes the
    work (B - 1) d^3 + ceil(n_steps / B) d^2 rank of the powers and block
    products.  Up to d = 8 that is chain_block_size; at d = rank = 256 and
    100 steps B is 10 (19 products, not 100); a pure start at large d keeps
    B = 1."""
    d = a.shape[0]
    top = min(MAX_BLOCK_STEPS, n_steps)
    b_flop = min(range(1, top + 1), key=lambda b: (b - 1) * d + -(-n_steps // b) * rank, default=1)
    return _spread_block_size(a, min(top, max(MAX_BLOCK_ENTRIES // d**2, b_flop)))


def _renormalize(fs: np.ndarray, log_p: float, scratch: np.ndarray | None = None) -> list[float]:
    """Scale each factor of the stack fs to unit Frobenius norm in place and
    return log p after each; the traces lie in [e^-2, e^2] (spread rule)."""
    # np.linalg.norm(fs, axis=(1, 2)) bit for bit, its one temporary
    # fs.conj() * fs formed in scratch when given
    sq = np.conjugate(fs, out=scratch)
    sq *= fs
    norms = np.sqrt(np.add.reduce(sq.real, axis=(1, 2)))
    logs = (log_p + 2 * np.log(norms)).tolist()
    fs /= norms[:, None, None]
    return logs


def _single_step(a: np.ndarray, f: np.ndarray, log_p: float):
    """The stepwise chain's step bit for bit: (F, log p), or None when the
    trace reaches 0; a non-finite trace raises ProbabilityUnderflowError."""
    f = a @ f
    tr = np.vdot(f, f).real
    if not math.isfinite(tr):
        raise ProbabilityUnderflowError(f"conditional trace is {tr}")
    if not tr > 0:
        return None
    # numpy's complex f / s is (x + 0) * (1 / s) (Smith's algorithm at a zero
    # imaginary part); the fresh product scaled in place by 1 / s differs
    # from it only in the sign of an exact zero, which a matmul (its sums
    # start at +0) does not leave
    f *= 1 / math.sqrt(tr)
    return f, log_p + math.log(tr)


def _probability(log_p: float) -> float:
    # exactly 0.0 below the smallest subnormal double
    return math.exp(log_p) if log_p > -745 else 0.0


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
            logs = _renormalize(fs, log_p)
        else:
            # A is not copied
            step = _single_step(a, f, log_p)
            if step is None:
                return
            fs, logs = step[0][None], [step[1]]
        f, log_p = fs[-1], logs[-1]
        # _probability inlined, bit for bit: one call per block, not per step
        yield np.array([math.exp(x) if x > -745 else 0.0 for x in logs]), fs


def _end_powers(a: np.ndarray, b: int, tail: int):
    # (A^b, A^tail or None below tail 2), each A^j = A A^(j-1) as in
    # renormalized_blocks, in two buffers
    bufs = (np.empty_like(a), np.empty_like(a))
    power, tail_power = a, None
    for j in range(2, b + 1):
        np.matmul(a, power, out=bufs[j % 2])
        power = bufs[j % 2]
        if j == tail:
            tail_power = power.copy()
    return power, tail_power


def renormalized_end(a: np.ndarray, f: np.ndarray, n_steps: int):
    """(p, F): the end of renormalized_blocks' chain after n_steps steps; f
    is not modified.

    Each whole block of B = end_block_size steps is one product A^B F, the
    n_steps % B left one product with A^tail after them (a single step at
    1), renormalized as a stacked block's last slice; only A^B, A^tail and
    two factor buffers are held.  At B = 1 every step is the single step,
    which alone can raise ProbabilityUnderflowError: at a non-finite trace
    or a trace of 0 ("hit 0.0 at step n"), which leaves no state."""
    b = end_block_size(a, f.shape[1], n_steps)
    log_p = 0.0
    if b == 1:
        for n in range(1, n_steps + 1):
            step = _single_step(a, f, log_p)
            if step is None:
                raise ProbabilityUnderflowError(f"conditional probability hit 0.0 at step {n}")
            f, log_p = step
        return _probability(log_p), f
    n_blocks, tail = divmod(n_steps, b)
    power, tail_power = _end_powers(a, b, tail)
    bufs = np.empty((2, 1) + f.shape, dtype=complex)
    for k, pw in enumerate([power] * n_blocks + ([tail_power] if tail > 1 else [])):
        # the other buffer's factor is consumed: it takes the norms' temporary
        g, scratch = bufs[k % 2], bufs[1 - k % 2]
        np.matmul(pw, f, out=g[0])
        f, log_p = g[0], _renormalize(g, log_p, scratch)[-1]
    if tail == 1:
        f, log_p = _single_step(a, f, log_p)
    return _probability(log_p), f
