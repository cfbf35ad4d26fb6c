"""Seeded request generator for the reachvol benchmark.

A plan is everything one run sends to reachvol: the model files (matrix
form, so every request pays for diagonalization the way a user's model
would) and the requests, grouped into blocks.  Every block holds each
request class of its workload exactly once, in a seeded order, so any whole
number of blocks has the workload's stated mix.  Alongside each model the
plan keeps the data it was built from (spectrum, eigenbasis, input), from
which the references are computed at high precision.

A run never sends a request twice: the pool is sized from the run length
with room for a program three times faster than the one the benchmark was
written against, and a run that uses it up stops early and says so.  A
cache kept across requests therefore only pays off where one request
reuses its own work, as a real ``reachvol`` process would.

The same seed gives a byte-identical plan (see selftest.py).
"""

import json
import math

import numpy as np

from reference import continuous_cond

WORKLOADS = ("expansion", "sweep", "recursion", "oracle")

# Correct requests per second of the reachvol release the benchmark was
# written against, at the calibration reference speed; the pool holds
# HEADROOM times what that release answers in a run.
BASE_RATE = {"expansion": 10.4, "sweep": 15.8, "recursion": 20.5, "oracle": 69.8}
HEADROOM = 3
MIN_REQUESTS = 100      # so that >= 10 samples lie beyond the 90th percentile
MIN_GAIN = 0.2          # smallest modal gain of a single input column
WARMUP = 4              # untimed requests, from a block of their own, before the clock starts


def _spaced(rng, n, lo, hi, gap):
    """n ascending values in [lo, hi] whose neighbours differ by >= gap."""
    slack = (hi - lo) - (n - 1) * gap
    if slack <= 0:
        raise ValueError("spacing is infeasible")
    u = np.sort(rng.uniform(0.0, slack, n))
    return lo + u + gap * np.arange(n)


def _basis(rng, n):
    """Well-conditioned eigenbasis: random orthogonal times a mild scaling."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return Q @ np.diag(rng.uniform(0.7, 1.3, n))


def _input(rng, V, r=1):
    """Input matrix whose every mode couples with modal gain >= MIN_GAIN."""
    Vinv = np.linalg.inv(V)
    while True:
        B = rng.uniform(-1.0, 1.0, (V.shape[0], r))
        if r > 1 or np.min(np.abs(Vinv @ B)) >= MIN_GAIN:
            return B


def _rotation_block(rng):
    rho = rng.uniform(0.9, 0.99)
    th = rng.uniform(0.2, 2.6)
    return rho * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])


class _Generator:
    def __init__(self, workload, seed):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.models = {}
        self.specs = {}

    def real_model(self, lam):
        """Model A = V diag(lam) V^-1 with a single input column."""
        lam = np.asarray(lam, dtype=float)
        V = _basis(self.rng, lam.size)
        B = _input(self.rng, V)
        A = V @ np.diag(lam) @ np.linalg.inv(V)
        return self._add(A, B, {"lam": lam.tolist(), "V": V.tolist(), "B": B.tolist()})

    def oscillatory_model(self, n, r):
        """Lightly damped complex pairs (plus one real mode for odd n)."""
        M = np.zeros((n, n))
        for k in range(n // 2):
            M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _rotation_block(self.rng)
        if n % 2:
            M[-1, -1] = self.rng.uniform(-0.9, 0.9)
        V = _basis(self.rng, n)
        B = _input(self.rng, V, r)
        return self._add(V @ M @ np.linalg.inv(V), B, {})

    def _add(self, A, B, spec):
        name = f"m{len(self.models):04d}.json"
        self.models[name] = {"A": A.tolist(), "B": B.tolist()}
        self.specs[name] = spec
        return name


def _narrow_case(rng, n, regime):
    """Spectrum and N for a narrow request with a finite volume."""
    while True:
        N = int(rng.integers(n, 2 * n + 1) if regime == "anchor"
                else rng.integers(8 * n, 10 * n + 1))
        lam = _spaced(rng, n, 0.45, 0.97, 0.025)
        # inverse powers grow like prod(1/lambda)^N: keep the volume finite
        if N * float(np.sum(np.log10(1.0 / lam))) < 240.0:
            return lam, N


def _ct_anchor(lam, log10_cond):
    """Horizon T at which the continuous-time expansion cancels by ~10**log10_cond.

    The cancellation of a continuous-time spectrum depends on its slowest
    modes as much as on T, so T is found by bisection on the measured
    cancellation.
    """
    lo, hi = 0.05, 50.0
    for _ in range(60):
        T = math.sqrt(lo * hi)
        c = math.log10(continuous_cond(lam, T))
        if abs(c - log10_cond) < 0.25:
            break
        lo, hi = (T, hi) if c > log10_cond else (lo, T)
    return T


def _req(model, kind, tail, **desc):
    return dict(model=model, kind=kind, argv=[str(a) for a in tail], **desc)


# --- workload classes --------------------------------------------------------
# Each function returns one block, before shuffling.  The classes in a block
# are chosen so that the 50th and 90th latency percentiles fall inside a
# run of similar-cost classes, not on a gap between two, where the
# percentile would jump from run to run.

def _expansion_block(b):
    """Single volume requests on the subset expansion, n = 7..10.

    Modes: auto on a positive and on a negative spectrum, negative, narrow
    and continuous.  Half of the requests sit near the N = n anchor
    (N <= 2n), where the terms cancel by up to ~1e20 (narrow: ~1e36); half
    far out (N >= 8n), where they barely cancel.  In continuous time the
    horizon plays the role of N: anchors get the T at which the terms cancel
    by 1e3..1e14, far requests T = 2n.  The anchors that cancel past the
    program's working precision form the precision-edge class (run.py).
    """
    rng = b.rng
    out = []
    for n in (7, 8, 9, 10):
        for regime in ("anchor", "far"):
            N = int(rng.integers(n, 2 * n + 1)) if regime == "anchor" \
                else int(rng.integers(8 * n, 10 * n + 1))
            for sign in (1, -1):  # auto on a positive, then a negative spectrum
                lam = sign * _spaced(rng, n, 0.05, 0.95, 0.03)[::sign]
                out.append(_req(b.real_model(lam), "volume", ["--N", N], mode="discrete",
                                n=n, N=N, regime=regime, route="analytic"))
            lam = -_spaced(rng, n, 0.05, 0.95, 0.03)[::-1]
            out.append(_req(b.real_model(lam), "volume", ["--N", N, "--mode", "negative"],
                            mode="negative", n=n, N=N, regime=regime, route="analytic"))
            lam, Nn = _narrow_case(rng, n, regime)
            out.append(_req(b.real_model(lam), "volume", ["--N", Nn, "--mode", "narrow"],
                            mode="narrow", n=n, N=Nn, regime=regime, route="analytic"))
            lam = -_spaced(rng, n, 0.2, 3.0, 0.1)[::-1]
            T = _ct_anchor(lam, rng.uniform(3.0, 14.0)) if regime == "anchor" else 2.0 * n
            out.append(_req(b.real_model(lam), "volume",
                            ["--T", repr(T), "--mode", "continuous"],
                            mode="continuous", n=n, T=T, regime=regime, route="analytic"))
    return out


# sweep upper ends, chosen so each sweep costs a similar 0.1-0.2 s today
SWEEP_TOP = {4: 40, 5: 28, 6: 18, 7: 12}


def _sweep_block(b):
    """Horizon sweeps (discrete, narrow, negative) and factor reports, n = 4..7.

    A sweep evaluates one spectrum at every N from n to its upper end, so it
    is the workload where work could be shared across calls.
    """
    rng = b.rng
    out = []
    factor_modes = (("finite", ["--N", 12]), ("narrow", ["--N", 12, "--mode", "narrow"]),
                    ("infinite", []), ("finite", ["--N", 30]))
    for n, (fmode, ftail) in zip(sorted(SWEEP_TOP), factor_modes):
        top = SWEEP_TOP[n]
        for tail, mode in (([], "discrete"), (["--mode", "narrow"], "narrow")):
            out.append(_req(b.real_model(_spaced(rng, n, 0.3, 0.95, 0.04)), "sweep",
                            ["--N", top] + tail, mode=mode, n=n, N=top, regime="sweep",
                            route="analytic"))
        neg = b.real_model(-_spaced(rng, n, 0.05, 0.95, 0.04)[::-1])
        out.append(_req(neg, "sweep", ["--N", top, "--mode", "negative"], mode="negative",
                        n=n, N=top, regime="sweep", route="analytic"))
        N = int(ftail[1]) if ftail else None
        out.append(_req(b.real_model(_spaced(rng, n, 0.05, 0.95, 0.04)), "factors", ftail,
                        mode=fmode, n=n, N=N, regime="factors", route="factors"))
    return out


def _recursion_block(b):
    """Near-singular positive spectra that the auto route sends to the recursion.

    Each spectrum has an integrator (lambda = 1) or a reciprocal pair
    (a, 1/a) next to well-separated stable modes, so the expansion refuses
    it on a vanishing factor denominator.  The stable modes are >= 0.06
    apart, except in the "close" class (n = 7..9, N = 256), where they are
    0.025 apart: the program's double-precision recursion loses accuracy as
    modes close in, so that class is part of the precision-edge class.
    """
    rng = b.rng
    out = []
    for n in (5, 6, 7, 8, 9):
        for N in (64, 128, 256, 512)[n < 7:]:
            kinds = ("integrator", "reciprocal") + (("close",) if n >= 7 and N == 256 else ())
            for kind in kinds:
                if kind == "reciprocal":
                    a = float(rng.uniform(0.8, 0.92))
                    lam = np.r_[_spaced(rng, n - 2, 0.05, 0.75, 0.06), a, 1.0 / a]
                else:
                    gap = 0.025 if kind == "close" else 0.06
                    lam = np.r_[_spaced(rng, n - 1, 0.05, 0.75, gap), 1.0]
                out.append(_req(b.real_model(lam), "volume", ["--N", N], mode="discrete",
                                n=n, N=N, regime=kind, route="recursive"))
    return out


def _oracle_block(b):
    """Systems with no eigenvalue route, sent to the exact determinant sum.

    Lightly damped oscillatory (complex) spectra, single- and two-input,
    n = 2..4, and continuous-time Riemann covers (--route direct --dt).
    n = 2 and continuous time, where a 2-D base case would act, are 14 of
    the 20 requests.
    """
    out = []
    # relative costs today: 6 cheap, 8 copies of one mid class (around the
    # median), 2 single steps, 4 costliest (around the 90th percentile)
    for n, r, N in ((3, 1, 150), (3, 1, 150), (3, 2, 80), (3, 2, 80), (2, 1, 800), (4, 1, 24))\
            + ((2, 2, 500),) * 8 + ((2, 1, 1200), (4, 1, 30)):
        out.append(_req(b.oscillatory_model(n, r), "volume", ["--N", N], mode="discrete",
                        n=n, N=N, r=r, regime="complex" if r == 1 else "multi-input",
                        route="direct"))
    for n, T, dt in ((3, 2.0, 0.005), (2, 2.0, 0.001), (2, 1.0, 0.0005), (2, 4.0, 0.002)):
        lam = -_spaced(b.rng, n, 0.3, 3.0, 0.2)[::-1]
        out.append(_req(b.real_model(lam), "volume",
                        ["--T", T, "--mode", "continuous", "--route", "direct", "--dt", dt],
                        mode="continuous", n=n, T=T, dt=dt, r=1, regime="ct-direct",
                        route="direct"))
    return out


_BLOCKS = {"expansion": _expansion_block, "sweep": _sweep_block,
           "recursion": _recursion_block, "oracle": _oracle_block}


def pool_requests(workload, seconds):
    """Requests a run of `seconds` needs so that it never repeats one."""
    return max(MIN_REQUESTS, math.ceil(HEADROOM * BASE_RATE[workload] * seconds))


def generate(workload, seed, requests):
    """Plan for one run: models, their construction data, a warm-up request
    list, and whole request blocks holding at least `requests` requests.
    Block k is the same whatever the number of blocks."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    b = _Generator(workload, seed)
    warmup, blocks, total = None, [], 0
    while total < requests:
        reqs = _BLOCKS[workload](b)
        order = b.rng.permutation(len(reqs))
        block = [reqs[i] for i in order]
        if warmup is None:  # the first block only warms up
            warmup = block[:WARMUP]
            for j, req in enumerate(warmup):
                req["id"] = f"w{j}"
            continue
        for j, req in enumerate(block):
            req["id"] = f"b{len(blocks)}r{j}"
        blocks.append(block)
        total += len(block)
    return {"workload": workload, "seed": seed, "models": b.models, "specs": b.specs,
            "warmup": warmup, "blocks": blocks}


def dumps(plan):
    """Canonical bytes of a plan (the determinism self-test compares these)."""
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()
