"""One table of the entry points that take integers, against the classes of
input a caller may pass: each cell gives the value of the Python-int call
or a ValueError, never another exception.

A row is an entry point with the kinds of its slots.  An integer slot ("i")
takes integers; a bool and a numpy integer are integers, so they must give
the value of the call on int(x) (or a ValueError).  A number slot ("n")
takes any number, and must give the value of the call on complex(x).  The float and
Fraction columns hold an even x as it is and an odd x as x + 1/2, and the
str column str(x); in an int slot none of them has a counterpart, so each
must be a ValueError, and a str is no number either.  Values compare bit
for bit: arrays by dtype, shape and bytes, the rest by repr, so a float
residue or a numpy scalar shows.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qcatmap import gauss, hecke, numtheory, propagator, sl2, weyl
from qcatmap.sl2 import Mat2, evaluate, random_word

COLUMNS = {
    "int": lambda x: x,
    "numpy-int": np.int64,
    "bool": bool,
    "float": lambda x: x + x % 2 / 2,
    "Fraction": lambda x: x + Fraction(x % 2, 2),
    "str": str,
}


def _theta(rng):
    return evaluate(random_word(rng, 10))


def _gauss_params(rng):
    while True:
        a, b = rng.randint(-12, 12), rng.choice([x for x in range(-12, 13) if x])
        if math.gcd(a, b) == 1:
            return a, b, rng.randint(-12, 12)


def _residues(rng):
    m = 2 * rng.randint(1, 8)
    bm = sl2.reduce_mod(_theta(rng), m)
    return bm.a, bm.b, bm.c, bm.d, m


# name: (call, slot kinds, draw of Python-int arguments)
ROWS = {
    "gauss_closed": (lambda a, b, g: gauss.gauss_closed(gauss.GaussParams(a, b, g)),
                     "iii", _gauss_params),
    "gauss_closed_many": (lambda a, b, g: gauss.gauss_closed_many(a, b, [g]),
                          "iii", _gauss_params),
    "gauss_closed_many-row": (lambda a, b, g: gauss.gauss_closed_many([a], b, [g]),
                              "iii", _gauss_params),
    "GaussParams": (gauss.GaussParams, "iii", _gauss_params),
    "h_phase": (propagator.h_phase, "ii", lambda rng: _theta(rng).entries()[:2]),
    "jacobi": (numtheory.jacobi, "ii",
               lambda rng: (rng.randint(-30, 30), rng.randrange(1, 60, 2))),
    "ModMatrix": (sl2.ModMatrix, "iiiii",
                  lambda rng: (*(rng.randint(-30, 30) for _ in range(4)), rng.randint(1, 12))),
    "reduce_mod": (lambda a, b, c, d, m: sl2.reduce_mod(Mat2(a, b, c, d), m), "iiiii",
                   lambda rng: (*_theta(rng).entries(), rng.randint(1, 12))),
    "lift_theta": (lambda *x: sl2.lift_theta(sl2.ModMatrix(*x)), "iiiii", _residues),
    "verify_hecke-cap": (lambda cap: hecke.verify_hecke(Mat2(2, 1, 3, 2), 2, cap=cap),
                         "i", lambda rng: (rng.choice([4, 8, 12, 64]),)),
    "congruent_companion": (lambda m: hecke.congruent_companion(Mat2(2, 1, 3, 2), m,
                                                                random.Random(5)),
                            "i", lambda rng: (2 * rng.randint(1, 6),)),
    "commutant_mod": (lambda *a: hecke.commutant_mod(Mat2(*a), 1), "iiii",
                      lambda rng: _theta(rng).entries()),
    "congruent_companion-A": (lambda *a: hecke.congruent_companion(Mat2(*a), 8,
                                                                   random.Random(5)),
                              "iiii", lambda rng: _theta(rng).entries()),
    "compose_classical": (lambda *a: weyl.compose_classical({(1, 2): 1.0}, Mat2(*a)),
                          "iiii", lambda rng: _theta(rng).entries()),
    "quantize": (lambda n1, n2, c, n: weyl.quantize({(n1, n2): c}, n), "iini",
                 lambda rng: (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-5, 5),
                              rng.randint(1, 6))),
    "unitarity_defect": (lambda x: propagator.unitarity_defect(np.array([[x, 0], [0, 1]])),
                         "n", lambda rng: (rng.randint(-5, 5),)),
}


def _outcome(call, args):
    """ValueError, or the value of call(*args) as bytes or repr."""
    try:
        value = call(*args)
    except ValueError:
        return ValueError
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def _counterpart(value, kind):
    """The Python int or complex a value stands for in a slot, or None."""
    if isinstance(value, str):
        return None
    if kind == "n":
        return complex(value)
    return int(value) if hasattr(value, "__index__") else None


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("row", ROWS)
def test_each_input_gives_the_int_value_or_a_value_error(row, column):
    call, kinds, draw = ROWS[row]
    rng = random.Random(row)
    for _ in range(5):
        args = tuple(draw(rng))
        for i, kind in enumerate(kinds):
            value = COLUMNS[column](args[i])
            got = _outcome(call, args[:i] + (value,) + args[i + 1:])
            if got is ValueError:
                continue
            same = _counterpart(value, kind)
            assert same is not None, (args, i, value, got)
            assert got == _outcome(call, args[:i] + (same,) + args[i + 1:]), (args, i, value)


# The dimension edges of build_many, each with its outcome: a value, or a
# ValueError raised before anything is allocated.  N = _MAX_N itself is not
# built, as its one matrix takes about 5 GB.
EDGES = {
    "N = 1": (lambda: propagator.build_many([Mat2(2, 1, 3, 2), Mat2(1, 2, 2, 5),
                                             Mat2(1, 0, 6, 1)], 1),
              np.ones((3, 1, 1), dtype=complex)),
    "N = _MAX_N + 1, b != 0": (lambda: propagator.build(Mat2(2, 3, 1, 2),
                                                        propagator._MAX_N + 1),
                               ValueError),
    "empty stack": (lambda: propagator.build_many([], 4), ValueError),
}


@pytest.mark.parametrize("edge", EDGES)
def test_each_dimension_edge_gives_its_outcome(edge):
    call, want = EDGES[edge]
    tracemalloc.start()
    try:
        got = _outcome(call, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if want is ValueError:
        assert got is ValueError
        assert peak < 2**20
    else:
        assert got == _outcome(lambda: want, ())
