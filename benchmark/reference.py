"""Reference values for benchmark requests, computed outside any timed span.

Two engines, both independent of reachvol's code:

* eigenvalue-route requests (expansion, sweep, recursion workloads) use the
  construction data of each model (spectrum, eigenbasis, input) at
  ``DPS`` significant digits: the subset expansion for single volumes and
  one deletion-recursion pass for all rows of a sweep.  A spectrum with an
  exact factor singularity (eigenvalue 1) is nudged by 1e-40, far below
  the 1e-9 tolerance, since the volume is a polynomial in the eigenvalues.
* direct-route requests (oracle workload) use the sum of |det| over the
  generator matrix's column subsets, in double precision, within
  ``DIRECT_BUDGET`` determinants, by an algorithm of its own (projection
  down to an angle-sorted 2-D sum, see ``det_sum``).  Float determinant
  sums are not used for the eigenvalue workloads: their power-matrix minors
  at n >= 7 are too ill-conditioned for a 1e-9 reference.
"""

import math

import numpy as np
from mpmath import mp, mpf

DPS = 120
NUDGE = mpf("1e-40")
DIRECT_BUDGET = 20_000_000


def _sign(mask, n):
    s = bin(mask).count("1")
    idx = sum(i + 1 for i in range(n) if mask >> i & 1)
    return -1 if ((n + 1) * s - idx) % 2 else 1


def _subset_terms(lam, power, pair, self_factor):
    """Terms sign(S) prod_{j in S} power_j phi(S) phi(S^c) over all subsets S,
    by subset DP: phi(S) = prod_{i<j in S} pair(i, j) * prod_{j in S} self_factor(j).
    The terms come out in the number type of the factors (mpf or float).
    """
    n = len(lam)
    full = (1 << n) - 1
    phi = [1] * (full + 1)
    pw = [1] * (full + 1)
    for mask in range(1, full + 1):
        j = mask.bit_length() - 1
        rest = mask ^ (1 << j)
        p = phi[rest] * self_factor[j]
        for i in range(j):
            if rest >> i & 1:
                p *= pair[i][j]
        phi[mask] = p
        pw[mask] = pw[rest] * power[j]
    return [_sign(m, n) * pw[m] * phi[m] * phi[full ^ m] for m in range(full + 1)]


def _nudged(lam):
    """Break exact factor singularities (lambda = 1, lambda_i lambda_j = 1)."""
    out = list(lam)
    for k, x in enumerate(out):
        if x == 1 or any(x * y == 1 for y in out[:k]):
            out[k] = x + NUDGE * (k + 1)
    return out


def _discrete_terms(lam, N):
    n = len(lam)
    pair = [[(lam[j] - lam[i]) / (1 - lam[i] * lam[j]) if i < j else None
             for j in range(n)] for i in range(n)]
    return _subset_terms(lam, [x ** N for x in lam], pair, [1 / (1 - x) for x in lam])


def _sum_cond(terms):
    """Sum of the terms and their cancellation sum|t| / |sum t|."""
    total = mp.fsum(terms)
    return total, float(mp.fsum(abs(t) for t in terms) / abs(total))


def discrete_sum(mu, N):
    """V_N for a positive distinct spectrum mu (any order), at DPS digits,
    and the cancellation of its expansion."""
    with mp.workdps(DPS):
        return _sum_cond(_discrete_terms(_nudged(sorted(mpf(x) for x in mu)), N))


def narrow_cond(lam, N):
    """Cancellation of the narrow region's expansion, in inverse powers lambda**-N."""
    with mp.workdps(DPS):
        return _sum_cond(_discrete_terms(sorted(mpf(x) for x in lam), -N))[1]


def _continuous_terms(lam, T, exp):
    lam = sorted(lam)
    n = len(lam)
    pair = [[abs((lam[j] - lam[i]) / (lam[i] + lam[j])) if i < j else None
             for j in range(n)] for i in range(n)]
    return _subset_terms(lam, [exp(x * T) for x in lam], pair, [1 / x for x in lam])


def continuous_sum(lam, T):
    """Normalized continuous-time volume over [0, T] for a real distinct
    spectrum, and the cancellation of its expansion."""
    with mp.workdps(DPS):
        return _sum_cond(_continuous_terms([mpf(x) for x in lam], mpf(T), mp.exp))


def continuous_cond(lam, T):
    """Cancellation of the continuous-time expansion at horizon T, from float
    terms summed exactly: within a few percent below ~1e14, which is enough
    to place a horizon (all the generator needs)."""
    terms = _continuous_terms([float(x) for x in lam], float(T), math.exp)
    return math.fsum(abs(t) for t in terms) / abs(math.fsum(terms))


def recursion_sums(mu, N_max):
    """V_N for N = n .. N_max in one deletion-recursion pass, at DPS digits."""
    with mp.workdps(DPS):
        lam = sorted(mpf(x) for x in mu)
        n = len(lam)
        full = (1 << n) - 1
        members = [[i for i in range(n) if m >> i & 1] for m in range(full + 1)]
        seed = []
        for mem in members:
            p = mpf(1)
            for a in range(len(mem)):
                for c in range(a + 1, len(mem)):
                    p *= lam[mem[c]] - lam[mem[a]]
            seed.append(p)
        prev = [mpf(1)] + [None] * full
        pows = [mpf(1)] * n
        out = {}
        for k in range(1, N_max + 1):
            cur = [mpf(1)] + [None] * full
            for m in range(1, full + 1):
                mem = members[m]
                sz = len(mem)
                if sz > k:
                    continue
                if sz == k:
                    cur[m] = seed[m]
                    continue
                acc = prev[m]
                for pos, i in enumerate(mem, start=1):
                    term = pows[i] * prev[m & ~(1 << i)]
                    acc += term if (sz + pos) % 2 == 0 else -term
                cur[m] = acc
            pows = [p * x for p, x in zip(pows, lam)]
            prev = cur
            if k >= n:
                out[k] = prev[full]
        return out


def prefactor(spec):
    """2^n |det V| prod |(V^-1 b)_i|: region volume per unit normalized sum."""
    with mp.workdps(DPS):
        V = mp.matrix(spec["V"])
        g = mp.lu_solve(V, mp.matrix([row[0] for row in spec["B"]]))
        out = mpf(2) ** V.rows * abs(mp.det(V))
        for x in g:
            out *= abs(x)
        return out


def _volume_for(spec, mode, N=None, T=None):
    """Exact region volume from construction data, as a float, and the
    cancellation of the expansion the program evaluates for it."""
    lam = [mpf(x) for x in spec["lam"]]
    with mp.workdps(DPS):
        pre = prefactor(spec)
        if mode == "continuous":
            total, cond = continuous_sum(spec["lam"], T)
            return float(pre * abs(total)), cond
        if mode == "narrow":
            total, _ = discrete_sum([1 / x for x in lam], N)
            return float(pre / abs(mp.fprod(lam)) * abs(total)), narrow_cond(lam, N)
        # discrete or negative: the modulus spectrum spans the same volume
        total, cond = discrete_sum([abs(x) for x in lam], N)
        return float(pre * abs(total)), cond


def _sweep_volumes(spec, mode, N_max):
    """Exact region volumes for N = n .. N_max, from one recursion pass."""
    lam = [mpf(x) for x in spec["lam"]]
    with mp.workdps(DPS):
        if mode == "narrow":
            scale, mu = prefactor(spec) / abs(mp.fprod(lam)), [1 / x for x in lam]
        else:
            scale, mu = prefactor(spec), [abs(x) for x in lam]
        sums = recursion_sums(mu, N_max)
        return [float(scale * abs(sums[k])) for k in sorted(sums)]


def factor_reference(spec, mode, N):
    """F1, F2, F3 of the factor report for a spectrum inside (0, 1)."""
    lam = np.asarray(spec["lam"])
    W = np.linalg.inv(np.asarray(spec["V"]))
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    gains = np.abs(W @ np.asarray(spec["B"])).ravel()
    F1 = math.prod(abs((lam[b] - lam[a]) / (1 - lam[a] * lam[b]))
                   for a in range(lam.size) for b in range(a + 1, lam.size))
    if mode == "infinite":
        F2 = gains / (1 - np.abs(lam))
    elif mode == "narrow":
        F2 = gains * np.abs(1 - lam ** (-float(N))) / np.abs(1 - lam)
    else:
        F2 = gains * np.abs(1 - lam ** float(N)) / np.abs(1 - lam)
    return {"F1": F1, "F2": F2.tolist(), "F3": gains.tolist()}


# --- exact determinant sum ----------------------------------------------------

def generator_matrix(model, N):
    """[B, AB, ..., A^(N-1) B] of a matrix-form model."""
    A = np.asarray(model["A"])
    cols = [np.asarray(model["B"])]
    for _ in range(N - 1):
        cols.append(A @ cols[-1])
    return np.hstack(cols)


def riemann_generators(spec, T, dt):
    """exp(A k dt) B dt for k < K, the left-Riemann cover of a CT region."""
    q = T / dt
    K = round(q) if abs(q - round(q)) <= 1e-9 * max(1.0, q) else math.ceil(q)
    V = np.asarray(spec["V"])
    Vinv = np.linalg.inv(V)
    b = Vinv @ np.asarray(spec["B"])[:, 0] * dt
    t = np.arange(K) * dt
    return V @ (np.exp(np.outer(spec["lam"], t)) * b[:, None])


def _det_sum_2d(x, y):
    """Sum of |x_i y_j - x_j y_i| over i < j along the last axis, in O(m log m).

    Each generator is folded into the upper half-plane (which keeps every
    |det|) and sorted by angle; then det(g_i, g_j) >= 0 for i < j, and the
    dets against g_j add up to det(g_1 + ... + g_(j-1), g_j).
    """
    flip = (y < 0) | ((y == 0) & (x < 0))
    x, y = np.where(flip, -x, x), np.where(flip, -y, y)
    order = np.argsort(np.arctan2(y, x), axis=-1, kind="stable")
    x, y = np.take_along_axis(x, order, -1), np.take_along_axis(y, order, -1)
    return np.sum((np.cumsum(x, -1) - x) * y - (np.cumsum(y, -1) - y) * x, axis=-1)


def _det_sum_3d(G):
    """|det[g_i, g_j, g_k]| = |g_i| |det2(P_i g_j, P_i g_k)|, with P_i the
    projection onto the plane normal to g_i (where g_i itself lands on 0).
    Summing the 2-D sums for every i counts each triple three times."""
    norm = np.linalg.norm(G, axis=0)
    u = G / np.where(norm > 0, norm, 1.0)
    axis = np.eye(3)[np.argmin(np.abs(u), axis=0)].T   # least parallel coordinate axis
    e1 = np.cross(u, axis, axis=0)
    e1 /= np.maximum(np.linalg.norm(e1, axis=0), 1e-300)   # a zero column stays 0
    e2 = np.cross(u, e1, axis=0)
    return math.fsum(norm * _det_sum_2d(e1.T @ G, e2.T @ G)) / 3


def _det_sum(G):
    n, m = G.shape
    if m < n:
        return 0.0
    if n == 2:
        return float(_det_sum_2d(*G))
    if n == 3:
        return _det_sum_3d(G)
    # |det[g_i, G_S]| = |g_i| |det(P G_S)|, with P projecting onto g_i's complement
    parts = []
    for i in range(m - n + 1):
        norm = np.linalg.norm(G[:, i])
        if norm > 0:
            Q = np.linalg.qr(G[:, i:i + 1], mode="complete")[0]
            parts.append(norm * _det_sum(Q[:, 1:].T @ G[:, i + 1:]))
    return math.fsum(parts)


def det_sum(G):
    """Sum of |det| over all n-column subsets of G (unit-cube zonotope volume),
    by projection down to a sorted 2-D sum: an algorithm the program does not use."""
    n, m = G.shape
    if math.comb(m, n) > DIRECT_BUDGET:
        raise ValueError(f"C({m},{n}) exceeds the reference budget {DIRECT_BUDGET}")
    return _det_sum(np.asarray(G, dtype=float))


def expected(req, plan):
    """Reference for one request: {"values": the numbers its output must
    reproduce, in output order; "cond": the cancellation of the subset
    expansion behind a single analytic volume, else None}."""
    model = plan["models"][req["model"]]
    spec = plan["specs"][req["model"]]
    mode = req["mode"]
    if req["kind"] == "factors":
        f = factor_reference(spec, mode, req.get("N"))
        return {"values": [f["F1"]] + f["F2"] + f["F3"], "cond": None}
    if req["kind"] == "sweep":
        return {"values": _sweep_volumes(spec, mode, req["N"]), "cond": None}
    if req["route"] == "direct":
        if mode == "continuous":
            G = riemann_generators(spec, req["T"], req["dt"])
        else:
            G = generator_matrix(model, req["N"])
        return {"values": [2.0 ** G.shape[0] * det_sum(G)], "cond": None}
    vol, cond = _volume_for(spec, mode, N=req.get("N"), T=req.get("T"))
    return {"values": [vol], "cond": cond if req["route"] == "analytic" else None}
