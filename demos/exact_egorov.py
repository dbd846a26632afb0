"""
Exact conjugation of phase-space translations
=============================================

On the N-dimensional torus Hilbert space the Weyl translations T_N(n)
quantize plane waves.  Conjugating by a cat map propagator transports
the mode index by the transposed matrix -- exactly, with no error term
in 1/N.
"""

import numpy as np

from qcatmap import (Mat2, build, compose_classical, egorov_mode_errors,
                     quantize, verify_egorov, weyl_op)

N = 12
A = Mat2(2, 1, 3, 2)

# --------------------------------------------------------------------------
# A single mode pushed through the propagator.
# --------------------------------------------------------------------------

n = (1, 2)
U = build(A, N)
left = np.conj(U.T) @ weyl_op(n, N) @ U
right = weyl_op((A.a * n[0] + A.c * n[1], A.b * n[0] + A.d * n[1]), N)
print("mode", n, "transported to", (A.a * n[0] + A.c * n[1],
                                    A.b * n[0] + A.d * n[1]))
print("max entry diff:", np.abs(left - right).max())

# all N^2 modes at once
errors = egorov_mode_errors(A, N)
print("all %d modes, max error %.2e" % (errors.size, errors.max()))

# --------------------------------------------------------------------------
# General observables: a trigonometric polynomial transported classically
# matches the conjugated quantization.
# --------------------------------------------------------------------------

f = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): -0.25j, (0, -1): 0.25j}
print("observable modes:", sorted(f))
print("transported modes:", sorted(compose_classical(f, A)))

report = verify_egorov(A, N, f)
# report.tol is the base rate; the check holds the error to tol * N
print("conjugation error %.2e (tol %.1e), passed = %s"
      % (report.max_error, report.tol * N, report.passed))

# the quantization of a real observable is Hermitian
Op = quantize(f, N)
print("hermiticity defect:", np.abs(Op - np.conj(Op.T)).max())
