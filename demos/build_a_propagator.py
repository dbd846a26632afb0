"""
Building quantum propagators for torus cat maps
===============================================

A 2x2 integer matrix with determinant one and even off-diagonal products
acts on the N-dimensional Hilbert space of the quantized torus.  This
script builds a few of these unitaries and checks their basic behavior.
"""

import numpy as np

from qcatmap import Mat2, build, classify, unitarity_defect, verify_mult

# --------------------------------------------------------------------------
# A hyperbolic map with nonzero entries everywhere: the generic case.
# --------------------------------------------------------------------------

A = Mat2(2, 1, 3, 2)
N = 5

print("matrix A =", A)
print("case:", classify(A))

U = build(A, N)
print("U_%d(A) =" % N)
with np.printoptions(precision=3, suppress=True):
    print(U)

# the propagator is unitary up to rounding
print("unitarity defect:", unitarity_defect(U))

# --------------------------------------------------------------------------
# The four structural cases.  b = 0 gives a diagonal shear, a = 0 gives a
# quadratic twist of the Fourier transform, and the two special matrices
# S (rotation by a quarter turn) and P (inversion) sit underneath.
# --------------------------------------------------------------------------

for m in [Mat2(1, 0, 2, 1),      # shear
          Mat2(0, 1, -1, 2),     # twisted Fourier
          Mat2(0, -1, 1, 0),     # S
          Mat2(-1, 0, 0, -1)]:   # P
    print(m, "->", classify(m))

# S at N = 4 is the inverse discrete Fourier transform up to normalization
S = Mat2(0, -1, 1, 0)
F = build(S, 4)
dft = np.fft.fft(np.eye(4)) / 2.0
print("S vs conjugate DFT, max diff:", np.abs(F - dft.conj()).max())

# --------------------------------------------------------------------------
# Multiplicativity: the construction is a genuine representation, so the
# propagator of a product equals the product of the propagators with no
# phase left over.
# --------------------------------------------------------------------------

B = Mat2(1, 0, 2, 1)
report = verify_mult(A, B, N)
print("U(AB) vs U(A) U(B): max entry error", report.max_error,
      "passed =", report.passed)

# the same check across several dimensions
for n in (1, 2, 3, 7, 12, 25):
    r = verify_mult(A, B, n)
    print("  N = %2d  error = %.2e" % (n, r.max_error))
