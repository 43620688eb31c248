"""Closed-form oracles shared by the test modules.

Each oracle is independent of the code path it checks: convolution integrals
come from elementary antiderivatives, the sinusoidal fixed points from small
linear systems solved here, and the memory-equation propagator from a partial
fraction inversion done symbolically in its test.
"""

import numpy as np


def psi(t):
    """Classical recurrent-but-not-periodic scalar signal."""
    t = np.asarray(t, dtype=float)
    return np.sin(1.0 / (2.0 + np.cos(t) + np.cos(np.sqrt(2.0) * t)))


def exp_delayed_sin(t, rate):
    """int_{-inf}^t e^{-rate(t-s)} sin s ds = (rate sin t - cos t)/(rate^2+1)."""
    t = np.asarray(t, dtype=float)
    return (rate * np.sin(t) - np.cos(t)) / (rate ** 2 + 1.0)


def exp_delayed_cos(t, rate):
    """int_{-inf}^t e^{-rate(t-s)} cos s ds = (rate cos t + sin t)/(rate^2+1)."""
    t = np.asarray(t, dtype=float)
    return (rate * np.cos(t) + np.sin(t)) / (rate ** 2 + 1.0)


def exp_advanced_sin(t, rate):
    """int_t^inf e^{-rate(s-t)} sin s ds = (rate sin t + cos t)/(rate^2+1)."""
    t = np.asarray(t, dtype=float)
    return (rate * np.sin(t) + np.cos(t)) / (rate ** 2 + 1.0)


def exp_advanced_cos(t, rate):
    """int_t^inf e^{-rate(s-t)} cos s ds = (rate cos t - sin t)/(rate^2+1)."""
    t = np.asarray(t, dtype=float)
    return (rate * np.cos(t) - np.sin(t)) / (rate ** 2 + 1.0)


def half_line_delayed_sin(t, rate):
    """int_0^t e^{-rate(t-s)} sin s ds, elementary antiderivative."""
    t = np.asarray(t, dtype=float)
    return (rate * np.sin(t) - np.cos(t) + np.exp(-rate * t)) / (rate ** 2 + 1.0)


def delayed_fixed_point_coeffs(kernel_coeff=0.25, rate=2.0):
    """Sinusoidal fixed point of y = sin t + c int_{-inf}^t e^{-r(t-s)} y(s) ds.

    Substituting y = A sin + B cos and matching coefficients gives a 2x2
    system; for c = 1/4, r = 2 it is 18A - B = 20, A + 18B = 0.
    """
    r, c = rate, kernel_coeff
    denom = r * r + 1.0
    # A = 1 + c (rA + B)/denom ;  B = c (rB - A)/denom
    M = np.array([[1.0 - c * r / denom, -c / denom],
                  [c / denom, 1.0 - c * r / denom]])
    rhs = np.array([1.0, 0.0])
    A, B = np.linalg.solve(M, rhs)
    return float(A), float(B)


def advanced_fixed_point_coeffs(kernel_coeff=0.25, rate=2.0):
    """Sinusoidal fixed point of y = cos t + c int_t^inf e^{-r(s-t)} y(s) ds."""
    r, c = rate, kernel_coeff
    denom = r * r + 1.0
    # int e^{-r(s-t)} sin s = (r sin t + cos t)/denom ; cos -> (r cos t - sin t)/denom
    # A = c (rA - B)/denom ;  B = 1 + c (A + rB)/denom
    M = np.array([[1.0 - c * r / denom, c / denom],
                  [-c / denom, 1.0 - c * r / denom]])
    rhs = np.array([0.0, 1.0])
    A, B = np.linalg.solve(M, rhs)
    return float(A), float(B)


def delay_coupled_coeffs(kappa, delay=np.pi):
    """Sinusoidal mild solution of x(t) = int_{-inf}^t e^{-(t-s)}(sin s + k x(s - pi)) ds.

    With the half-period delay, x(s - pi) = -A sin s - B cos s, so matching
    coefficients yields (2 + k) A + k B = 1 and -k A + (2 + k) B = -1.
    """
    if delay != np.pi:
        raise ValueError("closed form derived for the half-period delay")
    k = kappa
    M = np.array([[2.0 + k, k], [-k, 2.0 + k]])
    A, B = np.linalg.solve(M, np.array([1.0, -1.0]))
    return float(A), float(B)


def collocation_delayed_solution(t_query, kernel_coeff=0.25, rate=2.0,
                                 window=30.0, h=0.02):
    """Long-window trapezoid collocation for the delayed sinusoid problem.

    Discretises y = sin t + c int e^{-r(t-s)} y(s) ds on [-window, window]
    and solves the dense linear system; second-order accurate, used as a
    cross-check of the closed form, not as a high-precision oracle.
    """
    n = int(round(2 * window / h)) + 1
    t = -window + h * np.arange(n)
    w = np.full(n, h)
    w[0] = h / 2.0
    K = kernel_coeff * np.exp(-rate * (t[:, None] - t[None, :])) * w[None, :]
    K[t[:, None] < t[None, :]] = 0.0
    # the diagonal node is the right endpoint of each row's integral
    K[np.diag_indices(n)] *= 0.5
    y = np.linalg.solve(np.eye(n) - K, np.sin(t))
    return np.interp(np.asarray(t_query, dtype=float), t, y)


def forced_decay_solution(t, rate, amp, u0):
    """Solution of u' = -rate u + amp sin t with u(0) = u0: the sinusoid
    (amp (rate sin t - cos t))/(rate^2 + 1) plus the decaying mode that
    meets u0."""
    t = np.asarray(t, dtype=float)
    denom = rate ** 2 + 1.0
    steady = amp * (rate * np.sin(t) - np.cos(t)) / denom
    return steady + (u0 + amp / denom) * np.exp(-rate * t)
