"""Verification sweeps shared by the command-line interface and the tests.

Each sweep draws reproducible pseudorandom samples, exercises one exact
identity of the propagator construction, and reports the worst numerical
error found.  Tolerances that scale with the dimension are applied per
sample; the reported `tol` field is the base rate before scaling.
`CHECKS` maps each command-line check name to its sweep and to the options
it reads; `run_check` runs one entry.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import replace

import numpy as np

from . import gauss, hecke, weyl
from .phases import TWO_PI
# build is bound here for the benchmark's tracer, which wraps suites.build
from .propagator import (MULT_TOL, UNITARITY_TOL, Report, _drive, _gram_defects,
                         build, build_many, h_phase)
from .sl2 import (IDENTITY, TOKEN_MATRIX, TOKENS, Mat2, decompose, evaluate,
                  random_word, random_theta_general)

RELATION_TOL = 1e-10          # times N
SCALAR_TOL = 1e-10
GAUSS_ORACLE_TOL = 1e-9
GAUSS_VANISH_TOL = 1e-12

# operator identities among the generator propagators; each side is a word
# whose propagators are multiplied left to right (empty word = identity)
GENERATOR_RELATIONS = [
    (("P", "P"), ()),
    (("S", "S"), ("P",)),
    (("S", "S-"), ()),
    (("S-", "S"), ()),
    (("T2", "T2-"), ()),
    (("T2-", "T2"), ()),
    (("S", "S", "S", "S"), ()),
    (("P", "S"), ("S", "P")),
    (("P", "T2"), ("T2", "P")),
]


def _product(word, generators: dict, n: int) -> np.ndarray:
    """Product of generators[tok] over the word, left to right (empty:
    identity)."""
    if not word:
        return np.eye(n, dtype=complex)
    return functools.reduce(np.matmul, [generators[tok] for tok in word])


def _generators(n: int) -> dict:
    """Propagator of each generator token at N, built once in one stack."""
    return dict(zip(TOKENS, build_many([TOKEN_MATRIX[tok] for tok in TOKENS], n,
                                       check=False)))


def relations_sweep(dims=None, tol_scale: float = 1.0) -> Report:
    """Generator relations as operator identities at every dimension.

    The five generator propagators are built once per N, and both sides of
    every relation are multiplied from that table.
    """
    if dims is None:
        dims = range(1, 65)
    dims = list(dims)

    def trials():
        for n in dims:
            gens = _generators(n)
            for lhs, rhs in GENERATOR_RELATIONS:
                diff = _product(lhs, gens, n) - _product(rhs, gens, n)
                yield float(np.abs(diff).max()), n

    rep = _drive("relations", trials(), RELATION_TOL, tol_scale=tol_scale)
    # a..b only for a contiguous ascending run; any other list as written
    if dims == list(range(dims[0], dims[-1] + 1)):
        return replace(rep, note=f"dims {dims[0]}..{dims[-1]}")
    return replace(rep, note="dims " + ",".join(map(str, dims)))


# entries of one build_many stack in the sweeps that draw first: 2^18 complex
# entries are 4 MiB, which the default sweeps (N <= 32) never reach
_STACK = 1 << 18


def _trials_by_n(draws, per_draw: int, errors) -> list[tuple[float, int]]:
    """(error, N) of each draw (N, ...) in draw order, for _drive; errors(batch,
    N) returns the errors of a batch of draws at N, each batch a stack of at
    most _STACK entries when a draw builds per_draw matrices."""
    by_n = {}
    for i, draw in enumerate(draws):
        by_n.setdefault(draw[0], []).append(i)
    out = [0.0] * len(draws)
    for n, idx in by_n.items():
        per_stack = max(1, _STACK // (per_draw * n * n))
        for lo in range(0, len(idx), per_stack):
            part = idx[lo:lo + per_stack]
            for i, err in zip(part, errors([draws[i] for i in part], n)):
                out[i] = float(err)
    return [(err, draw[0]) for err, draw in zip(out, draws)]


def multiplicativity_sweep(pairs: int = 500, max_dim: int = 32,
                           max_word_len: int = 10, seed: int = 0,
                           tol_scale: float = 1.0) -> Report:
    """build(AB) against build(A) @ build(B) for random words and dims.

    All pairs are drawn first; then the pairs of each N are built as one
    stack [AB, A, B, AB, A, B, ...], and their errors are reported in the
    order the pairs were drawn.
    """
    rng = random.Random(seed)
    draws = [(rng.randint(1, max_dim), evaluate(random_word(rng, max_word_len)),
              evaluate(random_word(rng, max_word_len))) for _ in range(pairs)]

    def errors(batch, n):
        u = build_many([m for _, a, b in batch for m in (a @ b, a, b)], n)
        return np.abs(u[0::3] - u[1::3] @ u[2::3]).max(axis=(1, 2))

    return _drive("multiplicativity", _trials_by_n(draws, 3, errors), MULT_TOL,
                  tol_scale=tol_scale)


def unitarity_sweep(samples: int = 64, max_dim: int = 64, seed: int = 0,
                    tol_scale: float = 1.0) -> Report:
    """Unitarity defect of unchecked builds for random words and dims,
    each held to a tolerance that grows like sqrt(N).  All samples are
    drawn first, and the matrices of each N are built as one stack."""
    rng = random.Random(seed)
    draws = [(rng.randint(1, max_dim), evaluate(random_word(rng, 10)))
             for _ in range(samples)]
    trials = _trials_by_n(draws, 1, lambda batch, n: _gram_defects(
        build_many([m for _, m in batch], n, check=False)))
    return _drive("unitarity", trials, UNITARITY_TOL, law=math.sqrt,
                  tol_scale=tol_scale)


# terms of one (k, rho, g) gather while filling a direct-sum table; keeps
# the gauss-oracle sweep's temporaries near 1 MiB at every beta
_CHUNK = 1 << 15


def _direct_table(beta: int) -> np.ndarray:
    """Direct averages at every residue pair mod the period P = 2|beta|.

    Entry (rho, g) is sum_k e(sgn(beta) (rho k^2 + g k) / P) / (2 sqrt|beta|)
    over k = 0..P-1, summed in k order from the P roots of unity, so the
    exact zeros stay zero to roundoff.  Both terms of the numerator are
    reduced mod P before they are added, so their sum indexes the roots
    listed twice.  The rows are filled in chunks of at most _CHUNK terms.
    """
    period = 2 * abs(beta)
    sgn = 1 if beta > 0 else -1
    k = np.arange(period, dtype=np.int64)
    roots = np.exp((TWO_PI * 1j / period) * k)
    roots = np.concatenate([roots, roots])  # e(j/P) for j < 2P
    k_rho = ((sgn * np.outer(k * k, k)) % period)[:, :, None]
    k_g = ((sgn * np.outer(k, k)) % period)[:, None, :]
    table = np.empty((period, period), dtype=np.complex128)
    rows = max(1, _CHUNK // (period * period))
    for lo in range(0, period, rows):
        table[lo:lo + rows] = roots[k_rho[:, lo:lo + rows] + k_g].sum(axis=0)
    table /= 2.0 * math.sqrt(abs(beta))
    return table


def gauss_oracle_sweep(max_abs: int = 40, tol_scale: float = 1.0) -> Report:
    """Closed-form sums against the defining average over a parameter box.

    For coprime (alpha, beta) the closed form must match the direct average
    at every gamma in the box (including the exact zeros at odd parity).
    For every (alpha, beta) the direct average must vanish to roundoff
    whenever alpha*beta + gamma is odd.

    The summand index sgn(beta) (alpha k^2 + gamma k) mod 2|beta| depends on
    alpha and gamma only mod P = 2|beta|, so each |beta| sums one P x P
    table of residue pairs and gathers the box from it.  The table of -beta
    is that of |beta| read at (-rho mod P, -g mod P), which sums the same
    roots in the same order, so the gather of -beta reads the |beta| table
    at the negated residues, bit for bit.  The closed forms of all coprime
    alpha at one beta come from one stacked gauss_closed_many call.
    A NaN in either maximum is the reported error and fails the check.
    """
    if max_abs < 1:
        raise ValueError(f"the parameter box needs max_abs >= 1, got {max_abs}")
    values = np.arange(-max_abs, max_abs + 1)
    oracle, vanish = [], []
    compared = 0
    for beta_abs in range(1, max_abs + 1):
        period = 2 * beta_abs
        table = _direct_table(beta_abs)
        for beta in (-beta_abs, beta_abs):
            # rows alpha, columns gamma
            at = (values if beta > 0 else -values) % period
            direct = table[np.ix_(at, at)]
            odd = ((values[:, None] * beta + values) % 2).astype(bool)
            vanish.append(np.abs(direct[odd]).max())
            # alpha = 1 is always coprime
            coprime = np.gcd(values, beta) == 1
            closed = gauss.gauss_closed_many(values[coprime], beta, values)
            oracle.append(np.abs(closed - direct[coprime]).max())
            compared += int(coprime.sum()) * values.size
    max_oracle, max_vanish = float(np.max(oracle)), float(np.max(vanish))
    passed = (max_oracle < GAUSS_ORACLE_TOL * tol_scale
              and max_vanish < GAUSS_VANISH_TOL * tol_scale)
    error = max_vanish if math.isnan(max_vanish) else max_oracle
    note = f"vanish max {max_vanish:.2e} (tol {GAUSS_VANISH_TOL:.0e})"
    return Report("gauss-oracle", compared, error, GAUSS_ORACLE_TOL,
                  passed, note=note)


def _admissible_pair(rng: random.Random, a: int, n: int, g: int) -> tuple[int, int]:
    """(Q, Q') uniform over [0, N)^2 given g | 2(aQ' - Q), that is
    Q = aQ' mod step with step = g / gcd(g, 2), a divisor of N."""
    step = g // math.gcd(g, 2)
    qp = rng.randrange(n)
    return (a * qp) % step + step * rng.randrange(n // step), qp


def substitution_sweep(samples: int = 500, max_dim: int = 32, seed: int = 0,
                       tol_scale: float = 1.0) -> Report:
    """Endpoint substitution in the general-case kernel.

    For b != 0 the kernel entry can be completed from either endpoint:
    h(a,b) G(N_b a, b', 2(aQ'-Q)/g) = h(d,b) G(N_b d, b', 2(dQ-Q')/g)
    with g = (b, N), whenever the left gamma is an integer (the right one
    then is too).  Each sample draws a matrix, N and such a pair (Q, Q').
    """
    rng = random.Random(seed)

    def draw():
        m = random_theta_general(rng, 8)
        n = rng.randint(1, max_dim)
        g = math.gcd(abs(m.b), n)
        q, qp = _admissible_pair(rng, m.a, n, g)
        nb = n // g
        p1 = gauss.GaussParams(nb * m.a, m.b // g, 2 * (m.a * qp - q) // g)
        p2 = gauss.GaussParams(nb * m.d, m.b // g, 2 * (m.d * q - qp) // g)
        return abs(h_phase(m.a, m.b) * gauss.gauss_closed(p1)
                   - h_phase(m.d, m.b) * gauss.gauss_closed(p2)), n

    return _drive("substitution", (draw() for _ in range(samples)),
                  SCALAR_TOL, law=lambda n: 1, tol_scale=tol_scale)


def h_identity_sweep(samples: int = 500, seed: int = 0,
                     tol_scale: float = 1.0) -> Report:
    """h(a, b) = h(d, b) across random general-case theta matrices."""
    rng = random.Random(seed)
    trials = ((abs(h_phase(m.a, m.b) - h_phase(m.d, m.b)), None)
              for m in (random_theta_general(rng, 8) for _ in range(samples)))
    return _drive("h-identity", trials, SCALAR_TOL, law=lambda n: 1,
                  tol_scale=tol_scale)


def egorov_sweep(samples: int = 100, max_dim: int = 16, seed: int = 0,
                 tol_scale: float = 1.0) -> Report:
    """Exact conjugation of every Weyl mode for random matrices and dims,
    all drawn first; the matrices of each N share each block of modes."""
    rng = random.Random(seed)
    draws = [(rng.randint(1, max_dim), evaluate(random_word(rng, 8)))
             for _ in range(samples)]
    trials = _trials_by_n(draws, 1, lambda batch, n: weyl._mode_errors(
        [m for _, m in batch], n).max(axis=1))
    return _drive("egorov", trials, weyl.EGOROV_TOL, tol_scale=tol_scale)


def _congruence_sweep(name: str, factor: int, cases: list, pairs: int,
                      max_dim: int, seed: int, tol_scale: float) -> tuple[Report, set]:
    """Pairs (N, A, B) with B = A mod factor * N: the cases, then random
    draws up to `pairs`, all drawn first and built per N.  Returns the
    report and the set of signs that hecke._pair_errors applied."""
    rng = random.Random(seed)
    while len(cases) < pairs:
        n = rng.randint(1, max_dim)
        a = evaluate(random_word(rng, 6))
        cases.append((n, a, hecke.congruent_companion(a, factor * n, rng)))
    signs = set()

    def errors(batch, n):
        errs, found = hecke._pair_errors([p[1:] for p in batch], n, factor * n)
        signs.update(found)
        return errs

    trials = _trials_by_n(cases, 2, errors)
    return _drive(name, trials, MULT_TOL, tol_scale=tol_scale), signs


def mod4n_sweep(pairs: int = 100, max_dim: int = 16, seed: int = 0,
                tol_scale: float = 1.0) -> Report:
    """Equal propagators for random pairs congruent mod 4N, built per N."""
    return _congruence_sweep("mod4N", 4, [], pairs, max_dim, seed, tol_scale)[0]


def mod2n_sweep(pairs: int = 100, max_dim: int = 16, seed: int = 0,
                tol_scale: float = 1.0) -> Report:
    """Jacobi-sign relation for pairs congruent mod 2N; both signs occur.

    The first two pairs are fixed, one for each sign, so pairs must be at
    least 2; the rest are drawn from the seed, and all are built per N.
    """
    if pairs < 2:
        raise ValueError("mod2n needs at least 2 pairs, one for each sign")
    # deterministic pairs at N = 3 with factors -1 (congruent only mod 6)
    # and +1 (congruent mod 12)
    cases = [(3, Mat2(7, 6, 36, 31), IDENTITY),
             (3, Mat2(13, 12, 144, 133), IDENTITY)]
    rep, factors = _congruence_sweep("mod2N", 2, cases, pairs, max_dim, seed, tol_scale)
    return replace(rep, passed=rep.passed and factors >= {1, -1},
                   note=f"factors seen {sorted(factors)}")


def decomposition_sweep(words: int = 1000, max_word_len: int = 12,
                        build_checks: int = 60, max_dim: int = 16,
                        seed: int = 0, tol_scale: float = 1.0) -> Report:
    """Round-trip through generator words, plus operator-level spot checks.

    Every random product of generators must decompose back to a word with
    the same matrix value; for the first build_checks samples the product
    of generator propagators is compared with the directly built one.  All
    samples are drawn first; each N builds its checked matrices in one stack
    and one table of generators.
    """
    rng = random.Random(seed)
    failures = longest = 0
    checks = []
    for i in range(words):
        m = evaluate(random_word(rng, max_word_len))
        d = decompose(m)
        longest = max(longest, len(d))
        if evaluate(d) != m:
            failures += 1
        if i < build_checks:
            checks.append((rng.randint(1, max_dim), m, d))

    def errors(batch, n):
        gens = _generators(n)
        u = build_many([m for _, m, _ in batch], n)
        return [np.abs(u_m - _product(d, gens, n)).max()
                for (_, _, d), u_m in zip(batch, u)]

    trials = _trials_by_n(checks, 1, errors)
    trials += [None] * (words - len(checks))
    rep = _drive("decomposition", trials, MULT_TOL, tol_scale=tol_scale)
    return replace(rep, samples=words, passed=rep.passed and failures == 0,
                   note=f"{failures} round-trip failures, longest word {longest}")


def hecke_sweep(max_dim: int = 8, seed: int = 0,
                tol_scale: float = 1.0) -> Report:
    """Commuting lifted families for a random matrix at each dimension.

    N runs up to min(max_dim, 8), which fixes the output; the commutant
    costs (4N)^3 steps plus its members, about 2.5 ms for a general A at
    N = 16.
    """
    rng = random.Random(seed)
    sizes = []

    def trials():
        for n in range(1, min(max_dim, 8) + 1):
            a = random_theta_general(rng, 5)
            # samples=None lifts every member, so samples is the family size
            rep = hecke.verify_hecke(a, n, samples=None)
            sizes.append(rep.samples)
            yield rep.max_error, n

    rep = _drive("hecke", trials(), MULT_TOL, tol_scale=tol_scale)
    return replace(rep, samples=sum(sizes), note=f"commutant sizes {sizes}")


_SAMPLED = {"seed": "seed", "samples": "samples", "dims": "max_dim"}
_PAIRED = {**_SAMPLED, "samples": "pairs"}

# The verify checks by command-line name, in the order `verify all` runs
# them: the name of each check's sweep in this module, and the `verify`
# options the check reads, each mapped to the sweep parameter it sets.
# Every other option is rejected by `verify <check>`.
CHECKS = {
    "mult": ("multiplicativity_sweep", _PAIRED),
    "relations": ("relations_sweep", {"dims": "dims"}),
    "gauss-oracle": ("gauss_oracle_sweep", {"max_beta": "max_abs"}),
    "substitution": ("substitution_sweep", _SAMPLED),
    "h-identity": ("h_identity_sweep", {"seed": "seed", "samples": "samples"}),
    "egorov": ("egorov_sweep", _SAMPLED),
    "mod4n": ("mod4n_sweep", _PAIRED),
    "mod2n": ("mod2n_sweep", _PAIRED),
    "decompose": ("decomposition_sweep", {**_SAMPLED, "samples": "words"}),
    "hecke": ("hecke_sweep", {"seed": "seed", "dims": "max_dim"}),
    "unitarity": ("unitarity_sweep", _SAMPLED),
}


def run_check(name: str, options: dict, tol_scale: float = 1.0) -> Report:
    """Run the check `name` of CHECKS on the given `verify` options.

    options maps option names to values (dims as a list); the sweep gets
    only those that the check reads, so its own defaults fill the rest.
    """
    sweep, params = CHECKS[name]
    kwargs = {param: options[option] for option, param in params.items()
              if option in options}
    if "max_dim" in kwargs:
        kwargs["max_dim"] = max(kwargs["max_dim"])
    # looked up at call time, so a wrapper set on this module's attribute
    # is the one that runs
    return globals()[sweep](**kwargs, tol_scale=tol_scale)
