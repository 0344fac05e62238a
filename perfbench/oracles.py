"""Reference computations made apart from the program.

Nothing in this module imports ``uodual``: every value the checkers
compare against comes from a closed form, from plain numpy/math written
here, or from a property the mathematics requires.
"""

from __future__ import annotations

import math

import numpy as np

# -- risk measures on a finite space with weights w ---------------------------


def rho_value(name: str, params: dict, f: np.ndarray, w: np.ndarray) -> float:
    """The zoo functionals, by their textbook formulas."""
    if name == "expectation":
        return math.fsum(f * w)
    if name == "neg-expectation":
        return -math.fsum(f * w)
    if name == "entropic":
        beta = params["beta"]
        x = beta * f
        m = float(np.max(x))
        return (m + math.log(math.fsum(w * np.exp(x - m)))) / beta
    if name == "avar":
        # (1/alpha) * integral of the upper alpha-quantile mass, by sorting
        alpha = params["alpha"]
        order = np.argsort(-f, kind="stable")
        taken = np.minimum(w[order], np.maximum(alpha - (np.cumsum(w[order]) - w[order]), 0.0))
        return math.fsum(taken * f[order]) / alpha
    if name == "worst-case":
        return float(np.max(f))
    if name == "supnorm-ball":
        return 0.0 if float(np.max(np.abs(f))) <= params["radius"] else math.inf
    raise ValueError(name)


def is_density(g: np.ndarray, w: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.all(g >= -tol)) and abs(math.fsum(g * w) - 1.0) <= tol


def conjugate_value(name: str, params: dict, g: np.ndarray, w: np.ndarray) -> float:
    """Closed-form Fenchel conjugates of the zoo (math.inf off the domain)."""
    if name == "entropic":
        if not is_density(g, w):
            return math.inf
        pos = g > 0.0
        return math.fsum(w[pos] * g[pos] * np.log(g[pos])) / params["beta"]
    if name == "avar":
        ok = is_density(g, w) and bool(np.all(g <= 1.0 / params["alpha"] + 1e-9))
        return 0.0 if ok else math.inf
    if name == "worst-case":
        return 0.0 if is_density(g, w) else math.inf
    if name == "supnorm-ball":
        return params["radius"] * math.fsum(w * np.abs(g))
    raise ValueError(name)


def dual_witness(name: str, params: dict, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A dual point attaining rho(f) = <f,g> - rho*(g) (subgradient of rho at f)."""
    if name == "entropic":
        x = params["beta"] * f
        e = np.exp(x - np.max(x))
        return e / float(np.dot(w, e))
    if name == "avar":
        alpha = params["alpha"]
        order = np.argsort(-f, kind="stable")
        taken = np.minimum(w[order], np.maximum(alpha - (np.cumsum(w[order]) - w[order]), 0.0))
        g = np.zeros_like(f)
        g[order] = taken / (alpha * w[order])
        return g
    if name == "worst-case":
        g = np.zeros_like(f)
        i = int(np.argmax(f))
        g[i] = 1.0 / w[i]
        return g
    if name == "supnorm-ball":
        return np.zeros_like(f)
    raise ValueError(name)


# -- Orlicz functions -----------------------------------------------------------


def power_conjugate(p: float, c: float, t: np.ndarray) -> np.ndarray:
    """Young conjugate of c*s^p: (p-1) c (t/(c p))^(p/(p-1))."""
    return (p - 1.0) * c * (t / (c * p)) ** (p / (p - 1.0))


def exp_conjugate(a: float, t: np.ndarray) -> np.ndarray:
    """Young conjugate of exp(a s) - 1: (t/a) log(t/a) - t/a + 1 for t >= a, else 0."""
    u = np.asarray(t, dtype=float) / a
    safe = np.maximum(u, 1.0)
    return np.where(u >= 1.0, safe * np.log(safe) - safe + 1.0, 0.0)


def phi_value(kind: str, p: float, c: float, a: float, s: np.ndarray) -> np.ndarray:
    if kind == "power":
        return c * s**p
    return np.expm1(a * s)


def modular(kind: str, p: float, c: float, a: float, f: np.ndarray, w: np.ndarray, lam: float) -> float:
    with np.errstate(over="ignore"):
        return math.fsum(w * phi_value(kind, p, c, a, np.abs(f) / lam))


def luxemburg_true(kind: str, p: float, c: float, a: float, f: np.ndarray, w: np.ndarray) -> float:
    """inf { lam : E phi(|f|/lam) <= 1 }: closed form for powers, bisection otherwise."""
    if kind == "power":
        return (c * math.fsum(w * np.abs(f) ** p)) ** (1.0 / p)
    lo, hi = 1e-300, float(np.max(np.abs(f)))
    while modular(kind, p, c, a, f, w, hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if modular(kind, p, c, a, f, w, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


# -- Fatou sequences ----------------------------------------------------------------


def spike(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n * 1_[0,1/n] on 2^ceil(log2 n) equal cells, with the exact unit mass."""
    level = (n - 1).bit_length()
    cells = 2**level
    values = np.zeros(cells)
    full = cells // n
    values[:full] = float(n)
    rest = 1.0 - full * n / cells
    if rest > 0.0 and full < cells:
        values[full] = rest * cells
    return values, np.full(cells, 1.0 / cells)


def typewriter_certificate(n: int) -> float:
    """Integral of the n-th typewriter block: 2^-k on stage k = floor(log2 n)."""
    return 2.0 ** -(n.bit_length() - 1)


def greedy_typewriter_indices(n_max: int) -> list[int]:
    """Smallest index after the previous one whose certificate is <= 2^-k."""
    out, prev, k = [], 0, 1
    while prev < n_max:
        n = prev + 1
        while typewriter_certificate(n) > 2.0**-k:
            n += 1
        out.append(n)
        prev, k = n, k + 1
    return out


# -- sequence vectors given as (prefix, tail const, ((a, r), ...)) -----------------


def coord(spec, k: int) -> float:
    """Coordinate k (1-indexed) of a vector spec."""
    prefix, const, terms = spec
    if k <= len(prefix):
        return float(prefix[k - 1])
    j = k - len(prefix) - 1
    return const + math.fsum(a * r**j for a, r in terms)


def support(spec) -> tuple[frozenset, int | None]:
    """Nonzero prefix coordinates, and the first tail coordinate if the tail is nonzero.

    A single geometric term or a nonzero constant never vanishes, so a
    nonzero tail covers every coordinate from its start on.
    """
    prefix, const, terms = spec
    head = frozenset(k for k, v in enumerate(prefix, start=1) if v != 0.0)
    return head, (len(prefix) + 1 if (const != 0.0 or terms) else None)


def supports_meet(s1, s2) -> int | None:
    """A coordinate where both supports are nonzero, or None."""
    (h1, t1), (h2, t2) = s1, s2
    common = h1 & h2
    if t1 is not None:
        common |= frozenset(k for k in h2 if k >= t1)
    if t2 is not None:
        common |= frozenset(k for k in h1 if k >= t2)
    if common:
        return min(common)
    if t1 is not None and t2 is not None:
        return max(t1, t2)
    return None


def first_overlap(specs) -> tuple[int, int] | None:
    """First pair (i, j), i < j, 1-indexed, in row order, whose supports meet."""
    sups = [support(s) for s in specs]
    for i in range(len(sups)):
        for j in range(i + 1, len(sups)):
            if supports_meet(sups[i], sups[j]) is not None:
                return i + 1, j + 1
    return None


def ell1_norm(spec) -> float:
    """sum |prefix| + |a|/(1-r) for one geometric term; infinite for a constant tail."""
    prefix, const, terms = spec
    if const != 0.0:
        return math.inf
    return math.fsum([abs(v) for v in prefix] + [abs(a) / (1.0 - r) for a, r in terms])


def sup_norm(spec) -> float:
    """max of |prefix| and the largest tail coordinate in modulus (the first, or the constant)."""
    prefix, const, terms = spec
    tail = abs(const) if not terms else abs(const + math.fsum(a for a, _ in terms))
    return max([abs(v) for v in prefix] + [tail])

