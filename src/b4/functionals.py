"""Quadratic-form machinery controlling solution growth.

The degree-n form hn_fields is a weighted multinomial in (u, v, w, z)
whose weights come from three geometric-ratio coefficient sequences,
passed around as one plain (theta, sigma, rho) triple of arrays.
Its second-derivative structure produces, for each index triple
(r, q, p), a symmetric 4x4 matrix whose positive definiteness makes the
diffusive part of d/dt eval_Ln nonpositive.  Each is D N D, D diagonal,
for one unit-diagonal N of the coupling constants and the generators
(theta2, sigma2, rho2), whose leading minors are the margins of three
scalar inequalities on the generators in closed form:
d2 = margin1/theta2, d3 = margin2/(theta2 sigma2) and
d4 = margin3/(margin1 theta2 sigma2^2 rho2).  Those are checked here,
with no determinant, together with a feasible generator triple in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CouplingConstants:
    """The six pairwise diffusivity couplings (x+y)/(2*sqrt(x*y)).

    Each entry is at least 1, with equality exactly when the two
    diffusivities coincide.
    """

    A12: float
    A13: float
    A14: float
    A23: float
    A24: float
    A34: float


@dataclass(frozen=True)
class ConditionReport:
    """Truth values and margins for the three definiteness conditions.

    Margins are the left-hand side minus the right-hand side of each
    strict inequality, so a condition holds iff its margin is positive:
      margin1 = theta2 - A12^2
      margin2 = lam   (first 2x2 block combination)
      margin3 = lam * vee - gam^2
    """

    cond1: bool
    cond2: bool
    cond3: bool
    margin1: float
    margin2: float
    margin3: float

    @property
    def all_pass(self):
        return self.cond1 and self.cond2 and self.cond3


def coupling_constants(a, b, c, d):
    """Pairwise coupling constants of four positive diffusivities."""
    if min(a, b, c, d) <= 0:
        raise ValueError("diffusivities must be positive")

    def pair(x, y):
        # AM-GM guarantees >= 1; clamp shields against a final rounding dip.
        return max((x + y) / (2.0 * math.sqrt(x * y)), 1.0)

    return CouplingConstants(
        A12=pair(a, b),
        A13=pair(a, c),
        A14=pair(a, d),
        A23=pair(b, c),
        A24=pair(b, d),
        A34=pair(c, d),
    )


def _condition_terms(A, theta2, sigma2, rho2):
    """The three combinations (lam, vee, gam) entering condition 3."""
    t = theta2 - A.A12**2
    e13 = A.A13 - A.A12 * A.A23
    e14 = A.A14 - A.A12 * A.A24
    lam = t * (sigma2 - A.A23**2) - e13**2
    vee = t * (sigma2 * rho2 - A.A24**2) - e14**2
    gam = t * (A.A34 * sigma2 - A.A23 * A.A24) - e13 * e14
    return lam, vee, gam


def check_conditions(A, theta2, sigma2, rho2):
    """Evaluate the three definiteness conditions with their margins."""
    if min(theta2, sigma2, rho2) <= 0:
        raise ValueError("generator triple must be positive")
    margin1 = theta2 - A.A12**2
    lam, vee, gam = _condition_terms(A, theta2, sigma2, rho2)
    margin3 = lam * vee - gam**2
    return ConditionReport(
        cond1=margin1 > 0,
        cond2=lam > 0,
        cond3=margin3 > 0,
        margin1=margin1,
        margin2=lam,
        margin3=margin3,
    )


def feasible_triple(A):
    """The generator triple that meets each condition with a margin.

    theta2 is fixed at A12^2 + 1.  sigma2 is the smallest value with
    lam >= e13^2 + 1, a margin over condition 2 (lam > 0), and rho2 the
    smallest value of at least one with lam*vee >= 2*gam^2 + 1, a margin
    over condition 3.  lam is linear in sigma2, and gam does not depend
    on rho2 while vee is linear in it, so both have a closed form.
    Raises ValueError if A12 is so large that A12^2 + 1 rounds to A12^2.
    """
    theta2 = A.A12**2 + 1.0
    t = theta2 - A.A12**2
    if not t > 0:
        ratio = (A.A12 + math.sqrt(A.A12**2 - 1.0)) ** 2
        raise ValueError(
            f"A12 = {A.A12:.6g}: a and b differ by a factor of about {ratio:.3g}, "
            "too far for float64 to tell A12^2 + 1 from A12^2 (condition 1)"
        )
    e13 = A.A13 - A.A12 * A.A23
    e14 = A.A14 - A.A12 * A.A24
    sigma2 = A.A23**2 + (2.0 * e13**2 + 1.0) / t
    lam, _, gam = _condition_terms(A, theta2, sigma2, 1.0)
    rho2 = max(1.0, (A.A24**2 + ((2.0 * gam**2 + 1.0) / lam + e14**2) / t) / sigma2)
    return theta2, sigma2, rho2


def build_sequences(x0, C, x2, n):
    """Sequence of length n+1 with ratios x[r+1]/x[r] = C * x2**r.

    Entries must stay within floating-point range; overflow (or a
    vanished entry) raises.
    """
    if x0 <= 0 or C <= 0 or x2 <= 0:
        raise ValueError("seed, ratio constant and generator must be positive")
    seq = np.empty(n + 1)
    seq[0] = x0
    with np.errstate(over="ignore"):
        for r in range(n):
            seq[r + 1] = seq[r] * C * x2**r
    if not np.all(np.isfinite(seq)) or np.any(seq <= 0):
        raise OverflowError("sequence left floating-point range; rescale x0/C")
    return seq


def default_sequence_generators(x2, n):
    """A seed and ratio constant giving every consecutive ratio < 1.

    The seed centers the sequence so its middle entry is one.  Without
    centering, products of several entries (as in the 4x4 minors)
    underflow for moderate generators already at n around 8.
    """
    C = 0.5 / max(x2, 1.0) ** (n - 1)
    m = n // 2
    x0 = 1.0 / (C**m * x2 ** (m * (m - 1) / 2.0))
    return x0, C


def sequences_for_triple(triple, n):
    """The (theta, sigma, rho) sequences of length n+1 of a generator triple.

    Each sequence x obeys x[r] * x[r+2] / x[r+1]^2 == x2 for its
    generator x2, with every consecutive ratio below one.
    """
    return tuple(build_sequences(*default_sequence_generators(x2, n), x2, n) for x2 in triple)


def shifted_sequences(seqs, dr, dq, dp):
    """The same sequences viewed from shifted start indices.

    Evaluating the degree-(n-1) or degree-(n-2) form on shifted
    sequences is how the derivative identities of the form are stated.
    """
    theta, sigma, rho = seqs
    return theta[dr:], sigma[dq:], rho[dp:]


def brqp_matrix(r, q, p, seqs, a, b, c, d):
    """Symmetric 4x4 coefficient matrix at index triple (r, q, p).

    Diagonal entries pair one diffusivity with a product of sequence
    entries; off-diagonal entries carry the averaged diffusivities
    (x+y)/2.  Requires p+2 (and hence q+2, r+2) within sequence length.
    Congruent to the module docstring's N, which has no such products.
    """
    theta, sigma, rho = seqs
    if not 0 <= r <= q <= p:
        raise IndexError(f"indices must satisfy 0 <= r <= q <= p, got {(r, q, p)}")
    if p + 2 >= len(rho) or q + 2 >= len(sigma) or r + 2 >= len(theta):
        raise IndexError(f"index triple {(r, q, p)} exceeds sequence length")
    B = np.empty((4, 4))
    B[0, 0] = a * rho[p + 2] * sigma[q + 2] * theta[r + 2]
    B[1, 1] = b * rho[p + 2] * sigma[q + 2] * theta[r]
    B[2, 2] = c * rho[p + 2] * sigma[q] * theta[r]
    B[3, 3] = d * rho[p] * sigma[q] * theta[r]
    B[0, 1] = B[1, 0] = 0.5 * (a + b) * rho[p + 2] * sigma[q + 2] * theta[r + 1]
    B[0, 2] = B[2, 0] = 0.5 * (a + c) * rho[p + 2] * sigma[q + 1] * theta[r + 1]
    B[0, 3] = B[3, 0] = 0.5 * (a + d) * rho[p + 1] * sigma[q + 1] * theta[r + 1]
    B[1, 2] = B[2, 1] = 0.5 * (b + c) * rho[p + 2] * sigma[q + 1] * theta[r]
    B[1, 3] = B[3, 1] = 0.5 * (b + d) * rho[p + 1] * sigma[q + 1] * theta[r]
    B[2, 3] = B[3, 2] = 0.5 * (c + d) * rho[p + 1] * sigma[q] * theta[r]
    return B


def sylvester_minors(M):
    """Leading principal minors (d1, d2, d3, d4) of a symmetric 4x4 matrix.

    All four positive is equivalent to positive definiteness
    (Sylvester).  Rejects inputs whose asymmetry exceeds 1e-10 relative
    to the largest entry; definiteness via minors only makes sense for
    symmetric matrices.
    """
    M = np.asarray(M, float)
    if M.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return (
        float(M[0, 0]),
        float(np.linalg.det(M[:2, :2])),
        float(np.linalg.det(M[:3, :3])),
        float(np.linalg.det(M)),
    )


def hn_fields(u, v, w, z, seqs, n):
    """Degree-n weighted multinomial form at each field sample.

    Triple sum over 0 <= r <= q <= p <= n of trinomial-product binomial
    coefficients times theta[r]*sigma[q]*rho[p] times
    u^r v^(q-r) w^(p-q) z^(n-p).  With all-ones sequences this is
    exactly (u+v+w+z)^n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    theta, sigma, rho = seqs
    if min(len(theta), len(sigma), len(rho)) < n + 1:
        raise ValueError(f"sequences too short for n={n}")
    u, v, w, z = (np.asarray(x, float) for x in (u, v, w, z))
    upow = [np.ones_like(u)]
    vpow = [np.ones_like(v)]
    wpow = [np.ones_like(w)]
    zpow = [np.ones_like(z)]
    for _ in range(n):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
        wpow.append(wpow[-1] * w)
        zpow.append(zpow[-1] * z)
    total = np.zeros_like(u)
    for p in range(n + 1):
        cp = math.comb(n, p)
        for q in range(p + 1):
            cq = cp * math.comb(p, q)
            for r in range(q + 1):
                coef = cq * math.comb(q, r) * theta[r] * sigma[q] * rho[p]
                total += coef * upow[r] * vpow[q - r] * wpow[p - q] * zpow[n - p]
    return total


def eval_Ln(state, seqs, n):
    """Grid integral of the degree-n form with uniform node weights.

    Every node weighs dx*dy, the wall nodes too: nodes sit on the walls,
    so this is not a midpoint rule.
    """
    values = hn_fields(state.u, state.v, state.w, state.z, seqs, n)
    return float(values.sum() * state.dx * state.dy)


DECAY_TOLERANCE = 0.05  # relative excess over the plateau that still counts as settled


@dataclass(frozen=True)
class DecayReport:
    """Plateau detection for a monitored functional."""

    absorbed: bool
    plateau: float
    tail_max: float


def decay_monitor(t, values):
    """Decide whether a functional trace has settled onto a plateau.

    The trace is first reduced to its sup-envelope (block maxima), so a
    trajectory that keeps oscillating inside a bounded band still reads
    as settled.  The final quarter of the envelope is then compared
    against its own median: staying within DECAY_TOLERANCE of it means the
    trace is absorbed, and the median is reported as the plateau.
    """
    t = np.asarray(t, float)
    values = np.asarray(values, float)
    if len(values) < 2 or len(t) != len(values):
        raise ValueError("need at least two (t, value) samples")
    blocks = min(32, max(1, values.size // 8))
    starts = (np.arange(blocks) * values.size) // blocks
    envelope = np.maximum.reduceat(values, starts)
    tail = envelope[3 * envelope.size // 4 :]
    plateau = float(np.median(tail))
    tail_max = float(np.max(tail))
    absorbed = bool(np.isfinite(tail_max) and tail_max <= (1.0 + DECAY_TOLERANCE) * plateau)
    return DecayReport(absorbed=absorbed, plateau=plateau, tail_max=tail_max)
