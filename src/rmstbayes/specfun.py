"""Special functions used by the likelihood and the closed-form
restricted-mean formulas.

The incomplete gamma and the normal tails apply elementwise over numpy arrays
and to scalars (a float for scalar input); the stdlib functions under them
(``math.erfc``, ``math.lgamma``, and the scalar incomplete beta for its
callers) meet arrays through one helper, ``_elementwise``.  The code depends
on nothing beyond numpy.  All functions are pure and thread-safe.

Conventions: the incomplete gamma and incomplete beta integrals are
*non-regularized*, i.e. the raw integrals

    lower_incomplete_gamma(z, a)             = int_0^z t^(a-1) e^(-t) dt
    incomplete_beta_compl(one_minus_z, a, b) = int_0^z t^(a-1) (1-t)^(b-1) dt

The beta integral takes its upper limit as the complement 1 - z, which the
log-logistic RMST knows to full precision as a survival value.  It supports
b <= 0 as long as z < 1 (the singularity at t=1 is then excluded from the
integration range).
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-16
_MAX_ITER = 1000
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _elementwise(fn, *args) -> np.ndarray:
    """The scalar ``fn`` at each element of the broadcast ``args``, as a
    float array of their shape."""
    args = np.broadcast_arrays(*args)
    values = map(fn, *[x.ravel().tolist() for x in args])
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)


def _float_if_scalar(x):
    return x if np.ndim(x) else float(x)


def std_normal_sf(x):
    """Upper tail 1 - Phi(x), computed without cancellation, elementwise."""
    return _float_if_scalar(0.5 * _elementwise(math.erfc, np.asarray(x, dtype=float) / _SQRT2))


def log_std_normal_sf(x):
    """log(1 - Phi(x)), elementwise: with q = erfc(|x|/sqrt 2)/2, log1p(-q)
    for x <= 0 and log q for 0 < x < 25.  erfc underflows near x ~ 37, so from
    x = 25 on an asymptotic Mills-ratio series is used (relative error < 1e-9
    at the switch); log 0 is never taken."""
    x = np.asarray(x, dtype=float)
    q = 0.5 * _elementwise(math.erfc, np.abs(x) / _SQRT2)
    out = np.log1p(-q, out=np.empty_like(q))
    np.log(q, out=out, where=(x > 0.0) & (x < 25.0))
    tail = x >= 25.0
    if tail.any():
        xt = x[tail]
        inv2 = 1.0 / (xt * xt)
        series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * -15.0))
        out[tail] = -0.5 * xt * xt - np.log(xt) - _LOG_SQRT_2PI + np.log(series)
    return _float_if_scalar(out)


def _reg_gamma_series(z: np.ndarray, a: np.ndarray, log_gamma_a: np.ndarray) -> np.ndarray:
    # P(a, z) by power series, reliable for z < a + 1.  Elementwise over 1-D
    # arrays; each entry stops at its own convergence, as a scalar loop would.
    total_at = np.empty_like(z)
    left = np.arange(len(z))
    x, ap = z, a.copy()
    term = 1.0 / a
    total = term.copy()
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * _EPS
        total_at[left[done]] = total[done]
        keep = ~done
        left, x, ap, term, total = left[keep], x[keep], ap[keep], term[keep], total[keep]
        if not len(left):
            return total_at * np.exp(-z + a * np.log(z) - log_gamma_a)
    raise RuntimeError("incomplete gamma series failed to converge")


def _reg_gamma_cf(z: np.ndarray, a: np.ndarray, log_gamma_a: np.ndarray) -> np.ndarray:
    # Q(a, z) by modified-Lentz continued fraction, reliable for z >= a + 1.
    # Elementwise over 1-D arrays, like the series.
    tiny = 1e-300
    h_at = np.empty_like(z)
    left = np.arange(len(z))
    ap = a
    b = z + 1.0 - a
    c = np.full_like(z, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER):
        an = -i * (i - ap)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        h_at[left[done]] = h[done]
        keep = ~done
        left, ap, b, c, d, h = left[keep], ap[keep], b[keep], c[keep], d[keep], h[keep]
        if not len(left):
            return h_at * np.exp(-z + a * np.log(z) - log_gamma_a)
    raise RuntimeError("incomplete gamma continued fraction failed to converge")


def lower_incomplete_gamma(z, a):
    """Non-regularized lower incomplete gamma integral over [0, z],
    elementwise over numpy arrays or scalars (a float for scalar input).

    The power series serves z < a + 1 and the continued fraction the rest,
    each on its own part of the array.
    """
    z, a = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(a, dtype=float))
    shape = z.shape
    z, a = z.ravel(), a.ravel()
    if not np.all(a > 0.0):
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got a={a[~(a > 0.0)][0]}")
    if not np.all(z >= 0.0):
        raise ValueError(f"lower_incomplete_gamma requires z >= 0, got z={z[~(z >= 0.0)][0]}")
    log_gamma_a = _elementwise(math.lgamma, a)
    out = np.exp(log_gamma_a)  # the value at z = inf
    out[z == 0.0] = 0.0
    lower = (z > 0.0) & (z < a + 1.0)
    upper = (z >= a + 1.0) & (z < np.inf)
    out[lower] *= _reg_gamma_series(z[lower], a[lower], log_gamma_a[lower])
    out[upper] *= 1.0 - _reg_gamma_cf(z[upper], a[upper], log_gamma_a[upper])
    return out.reshape(shape) if shape else float(out[0])


def _beta_head(z: float, a: float, b: float) -> float:
    # int_0^z t^(a-1)(1-t)^(b-1) dt with z <= 0.5, via the binomial series
    # (1-t)^(b-1) = sum c_n t^n, c_n = c_{n-1} (n-b)/n.
    if z == 0.0:
        return 0.0
    coef = 1.0
    power = math.exp(a * math.log(z))  # z^(a+n), updated in the loop
    total = power / a
    for n in range(1, _MAX_ITER):
        coef *= (n - b) / n
        power *= z
        term = coef * power / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise RuntimeError("incomplete beta head series failed to converge")


def _beta_tail(s0: float, a: float, b: float) -> float:
    # int_{s0}^{1/2} s^(b-1)(1-s)^(a-1) ds, i.e. the t in (1/2, 1-s0] part of
    # the beta integral after the substitution s = 1-t.  s0 = 0 requires b > 0.
    log_c = math.log(0.5)
    log_s0 = math.log(s0) if s0 > 0.0 else None
    coef = 1.0
    total = 0.0
    for n in range(_MAX_ITER):
        if n > 0:
            coef *= (n - a) / n
        eps = b + n
        if log_s0 is None:
            piece = math.exp(eps * log_c) / eps
        elif eps == 0.0:
            piece = log_c - log_s0
        else:
            piece = (math.expm1(eps * log_c) - math.expm1(eps * log_s0)) / eps
        term = coef * piece
        total += term
        if n > 4 and abs(term) < abs(total) * _EPS:
            return total
    raise RuntimeError("incomplete beta tail series failed to converge")


def _betacf(x: float, a: float, b: float) -> float:
    # Continued fraction for the regularized incomplete beta (NR-style
    # modified Lentz).  Requires a, b > 0 and x < (a+1)/(a+b+2).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        # the even and the odd coefficient of step m, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def _reg_beta_pos(x: float, one_minus_x: float, a: float, b: float) -> float:
    # Regularized I_x(a, b) for a, b > 0, given both x and 1-x to full
    # precision.  Uses the standard symmetry to keep the CF convergent.
    if x == 0.0:
        return 0.0
    if one_minus_x == 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(one_minus_x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(one_minus_x, b, a) / b


def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def incomplete_beta_compl(one_minus_z: float, a: float, b: float) -> float:
    """Non-regularized incomplete beta integral over [0, z], given
    one_minus_z = 1 - z; accurate for z near 1.

    Requires 0 <= one_minus_z <= 1 and a > 0.  z = 1 is allowed only when
    b > 0 (the integral diverges at t = 1 otherwise).  Callers that know 1-z
    to full precision (e.g. from a logistic survival value) avoid the
    cancellation in forming z = 1 - (1-z).
    """
    if not a > 0.0:
        raise ValueError(f"incomplete beta requires a > 0, got a={a}")
    s0 = one_minus_z
    if s0 < 0.0 or s0 > 1.0:
        raise ValueError(f"complement must lie in [0, 1], got {s0}")
    if s0 == 0.0 and b <= 0.0:
        raise ValueError("incomplete beta diverges at z=1 when b <= 0")
    z = 1.0 - s0
    if z == 0.0:
        return 0.0
    # The continued fraction needs b > 0 and cancels catastrophically as b
    # nears 0; for b <= 1e-4 the power series, split at t = 1/2 with the tail
    # in expm1 form, serves instead.
    if b > 1e-4:
        return math.exp(_ln_beta(a, b)) * _reg_beta_pos(z, s0, a, b)
    if s0 == 0.0:
        return math.exp(_ln_beta(a, b))  # full integral, 0 < b <= 1e-4
    if s0 >= 0.5:
        return _beta_head(z, a, b)
    return _beta_head(0.5, a, b) + _beta_tail(s0, a, b)
