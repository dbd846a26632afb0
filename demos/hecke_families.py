"""
Commuting families from congruence conditions
=============================================

The propagator only depends on the matrix through its residue modulo
4N, up to a controlled sign modulo 2N.  Residue classes commuting with a
fixed map modulo 4N therefore lift to unitaries commuting with its
propagator, giving a large commuting family for every cat map.
"""

import numpy as np

from qcatmap import (Mat2, build, commutant_mod, lift_theta, mod2N_factor,
                     verify_hecke, verify_mod4N)

A = Mat2(2, 1, 3, 2)
N = 3

# --------------------------------------------------------------------------
# Dependence on the residue: two matrices congruent mod 4N share a
# propagator.
# --------------------------------------------------------------------------

shift = Mat2(1, 4 * N, 0, 1)
B = A @ shift
report = verify_mod4N(A, B, N)
print("A =", A, " B =", B)
print("congruent mod %d, max entry diff %.2e" % (4 * N, report.max_error))

# mod 2N only, the propagators can differ by a sign
C = Mat2(7, 6, 36, 31)          # congruent to the identity mod 6
factor, sign = mod2N_factor(C, Mat2(1, 0, 0, 1), N)
print("C =", C, "vs identity: factor %+d, error %.2e"
      % (factor, sign.max_error))

# --------------------------------------------------------------------------
# The commutant of A modulo 4N.
# --------------------------------------------------------------------------

members = commutant_mod(A, N)
print("commutant mod %d has %d members" % (4 * N, len(members)))
print("first few:", [str((m.a, m.b, m.c, m.d)) for m in members[:4]])

# --------------------------------------------------------------------------
# Lifting residue classes to honest group elements and checking that the
# lifted propagators commute with U(A) and with each other.
# --------------------------------------------------------------------------

U = build(A, N)
worst = 0.0
for bm in members[:10]:
    lifted = lift_theta(bm)
    V = build(lifted, N)
    worst = max(worst, np.abs(U @ V - V @ U).max())
print("first 10 lifts: max commutator with U(A) = %.2e" % worst)

summary = verify_hecke(A, N)
print("full family (%s): %d members lifted, max commutator %.2e, "
      "passed = %s"
      % (summary.note, summary.samples, summary.max_error, summary.passed))

# --------------------------------------------------------------------------
# Family sizes across dimensions.
# --------------------------------------------------------------------------

for n_dim in range(1, 9):
    print("  N = %d  commutant size %d" % (n_dim, len(commutant_mod(A, n_dim))))
