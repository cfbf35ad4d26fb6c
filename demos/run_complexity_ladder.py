"""Cost separation of the three routes.

The exact route sums C(N, n) determinants (the ``dets`` column counts
them) but, on the Krylov generators [b, Ab, ..., A^(N-1) b], evaluates
them as the C(N, n - 3) prefixes that start at b, each finished by a
weighted 2-D sum in O(N^2) vector work; the recursion costs O(2^n N),
and the expansion evaluates the same 2^n terms no matter the horizon.  The
ladder below times each route as ``full_volume`` runs it, and makes the
asymptotics visible in wall-clock time.
"""

import time

from reachvol import (
    EigenStructure,
    analytic_volume_sum,
    determinant_count,
    full_volume,
    recursive_volume_sum,
)

lam = [0.2, 0.5, 0.8]
eig = EigenStructure.from_spectrum(lam, [1.0, 1.0, 1.0])
model = eig.to_model()


def clock(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


print(f"{'N':>8} {'dets':>12} {'direct ms':>12} {'recursive ms':>14} {'analytic ms':>13}")
for N in (8, 16, 32, 64, 128, 256):
    t_dir = clock(lambda: full_volume(model, N, "direct"))
    t_rec = clock(lambda: recursive_volume_sum(lam, N))
    t_ana = clock(lambda: analytic_volume_sum(lam, N))
    print(f"{N:>8} {determinant_count(N, 3):>12} {t_dir:>12.3f} "
          f"{t_rec:>14.3f} {t_ana:>13.3f}")

print()
print("the expansion at extreme horizons (no determinants, no recursion):")
for N in (10 ** 3, 10 ** 6):
    t_ana = clock(lambda: analytic_volume_sum(lam, N))
    print(f"   N = {N:>9}: {t_ana:.3f} ms, value {analytic_volume_sum(lam, N):.12f}")
