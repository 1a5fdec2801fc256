"""How the integer and float readers treat every kind of scalar and shape.

``scalars.as_fraction`` and ``scalars.finite_float`` read single values;
``lattice.char_poly``, ``is_unimodular_matrix`` and ``discreteness_probe``
read matrices and lists of them. Each case pins the answer, or the
exception type and its exact message, that numpy's object-array reading
gives, so the readers that run without numpy keep those answers.
"""
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lcplab.errors import InputError
from lcplab.lattice import char_poly, discreteness_probe, is_unimodular_matrix
from lcplab.scalars import as_fraction, finite_float

BIG = 10**400  # beyond float range

SCALARS = {
    "bool": True,
    "np.bool_": np.bool_(True),
    "np.int64": np.int64(3),
    "np.int8": np.int8(-4),
    "np.float64": np.float64(3.0),
    "np.float32": np.float32(0.1),
    "Fraction(3)": Fraction(3),
    "Fraction(1, 2)": Fraction(1, 2),
    "'3'": "3",
    "'1/2'": "1/2",
    "'x'": "x",
    "1.0": 1.0,
    "nan": float("nan"),
    "Decimal('3')": Decimal("3"),
    "Decimal('1.5')": Decimal("1.5"),
    "0-d int array": np.array(3),
    "0-d float array": np.array(2.5),
    "0-d bool array": np.array(True),
    "int beyond float range": BIG,
    "None": None,
    "complex": 1 + 0j,
}


def _outcome(fn, *args):
    """('ok', value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is part of what is pinned
        return type(exc), str(exc)


def _not_exact(v):
    return InputError, f"not an exact scalar: {v!r}"


def _float_scalar(v):
    return InputError, f"float scalar {v!r} not allowed in exact mode"


AS_FRACTION = {
    "bool": _float_scalar(True),
    "np.bool_": _not_exact(np.bool_(True)),
    "np.int64": ("ok", Fraction(3)),
    "np.int8": ("ok", Fraction(-4)),
    "np.float64": _float_scalar(np.float64(3.0)),
    "np.float32": _float_scalar(np.float32(0.1)),
    "Fraction(3)": ("ok", Fraction(3)),
    "Fraction(1, 2)": ("ok", Fraction(1, 2)),
    "'3'": ("ok", Fraction(3)),
    "'1/2'": ("ok", Fraction(1, 2)),
    "'x'": (InputError, "cannot parse exact scalar 'x': Invalid literal for Fraction: 'x'"),
    "1.0": _float_scalar(1.0),
    "nan": _float_scalar(float("nan")),
    "Decimal('3')": _not_exact(Decimal("3")),
    "Decimal('1.5')": _not_exact(Decimal("1.5")),
    "0-d int array": _not_exact(np.array(3)),
    "0-d float array": _not_exact(np.array(2.5)),
    "0-d bool array": _not_exact(np.array(True)),
    "int beyond float range": ("ok", Fraction(BIG)),
    "None": _not_exact(None),
    "complex": _not_exact(1 + 0j),
}


@pytest.mark.parametrize("name", SCALARS)
def test_as_fraction(name):
    got = _outcome(as_fraction, SCALARS[name])
    assert got == AS_FRACTION[name]
    if got[0] == "ok":
        assert type(got[1]) is Fraction


def _not_finite(where, v):
    return InputError, f"{where} = {v!r} is not a finite number"


FINITE_FLOAT = {
    "np.int64": 3.0, "np.int8": -4.0, "np.float64": 3.0,
    "np.float32": float(np.float32(0.1)), "Fraction(3)": 3.0, "Fraction(1, 2)": 0.5,
    "1.0": 1.0, "Decimal('3')": 3.0, "Decimal('1.5')": 1.5,
    "0-d int array": 3.0, "0-d float array": 2.5, "0-d bool array": 1.0,
}


@pytest.mark.parametrize("name", SCALARS)
def test_finite_float(name):
    v = SCALARS[name]
    got = _outcome(finite_float, v, "w")
    if name in FINITE_FLOAT:
        assert got == ("ok", FINITE_FLOAT[name]) and type(got[1]) is float
    else:  # strings, bools, nan, None, complex and an int beyond float range
        assert got == _not_finite("w", v)


@pytest.mark.parametrize("name", SCALARS)
def test_discreteness_probe_reads_values_as_finite_float(name):
    v = SCALARS[name]
    got = _outcome(discreteness_probe, [v, 1])
    if name in FINITE_FLOAT:
        want = discreteness_probe([FINITE_FLOAT[name], 1.0])
        assert got == ("ok", want)
    else:
        assert got == _not_finite("value 0", v)


# char_poly of [[v]] and [[v, 0], [0, 1]] for the entries it accepts
CHAR_POLY = {
    "bool": ((-1, 1), (1, -2, 1)),
    "np.bool_": ((-1, 1), (1, -2, 1)),
    "np.int64": ((-3, 1), (3, -4, 1)),
    "np.int8": ((4, 1), (-4, 3, 1)),
    "Fraction(3)": ((-3, 1), (3, -4, 1)),
    "'3'": ((-3, 1), (3, -4, 1)),
    "int beyond float range": ((-BIG, 1), (BIG, -BIG - 1, 1)),
}
# the rest name the entry as str() shows it
NOT_AN_INTEGER = {
    "np.float64": "3.0", "np.float32": "0.10000000149011612", "Fraction(1, 2)": "1/2",
    "'1/2'": "1/2", "'x'": "x", "1.0": "1.0", "nan": "nan", "Decimal('3')": "3",
    "Decimal('1.5')": "1.5", "0-d int array": "3", "0-d float array": "2.5",
    "0-d bool array": "True", "None": "None", "complex": "(1+0j)",
}


def test_every_scalar_has_a_char_poly_case():
    assert set(CHAR_POLY) | set(NOT_AN_INTEGER) == set(SCALARS)


@pytest.mark.parametrize("name", SCALARS)
def test_char_poly_entries(name):
    v = SCALARS[name]
    one, two = _outcome(char_poly, [[v]]), _outcome(char_poly, [[v, 0], [0, 1]])
    if name in CHAR_POLY:
        assert (one, two) == (("ok", CHAR_POLY[name][0]), ("ok", CHAR_POLY[name][1]))
        assert all(type(c) is int for c in one[1] + two[1])
    else:
        want = (InputError, f"entry (0, 0) = {NOT_AN_INTEGER[name]} is not an integer")
        assert one == two == want
        assert _outcome(is_unimodular_matrix, [[v]]) == want


SQUARE = (InputError, "expected a square matrix")
SHAPES = {
    "ragged": ([[1, 2], [3]], SQUARE),
    "ragged, short row first": ([[1], [2, 3]], SQUARE),
    "empty": ([], SQUARE),
    "one empty row": ([[]], SQUARE),
    "3-D": ([[[1]]], SQUARE),
    "3-D array": (np.zeros((1, 1, 1), dtype=int), SQUARE),
    "not square": ([[1, 2]], SQUARE),
    "0-d array": (np.array(3), SQUARE),
    "int": (5, SQUARE),
    "string": ("[[1]]", SQUARE),
    "rows of strings": (["ab", "cd"], SQUARE),
    "generator": ((x for x in [[1]]), SQUARE),
    "a list inside a 2 x 2 matrix": ([[1, [2]], [3, 4]],
                                     (InputError, "entry (0, 1) = [2] is not an integer")),
    "ragged third level": ([[[1], [2, 3]]], SQUARE),
    "0-d array entry": ([[np.array(3)]], (InputError, "entry (0, 0) = 3 is not an integer")),
    "int array": (np.array([[1, 2], [3, 4]]), ("ok", (-2, -5, 1))),
    "bool array": (np.array([[True, False], [False, True]]), ("ok", (1, -2, 1))),
    "float array": (np.array([[1.0, 2], [3, 4]]),
                    (InputError, "entry (0, 0) = 1.0 is not an integer")),
    "float32 array": (np.array([[0.1]], dtype=np.float32),
                      (InputError, "entry (0, 0) = 0.10000000149011612 is not an integer")),
    "object array of int64": (np.array([[np.int64(2)]], dtype=object), ("ok", (-2, 1))),
    "0 x 0 array": (np.zeros((0, 0), dtype=int), ("ok", (1,))),
    "tuples": (((1, 2), (3, 4)), ("ok", (-2, -5, 1))),
    "list of array rows": ([np.array([1, 2]), np.array([3, 4])], ("ok", (-2, -5, 1))),
    "ranges": ([range(2), range(2)], ("ok", (0, -1, 1))),
}


@pytest.mark.parametrize("name", SHAPES)
def test_char_poly_shapes(name):
    m, want = SHAPES[name]
    assert _outcome(char_poly, m) == want


@pytest.mark.parametrize("name", [n for n in SHAPES if n != "generator"])
def test_is_unimodular_matrix_reads_shapes_as_char_poly_does(name):
    m, want = SHAPES[name]
    got = _outcome(is_unimodular_matrix, m)
    if want[0] == "ok":
        assert got == ("ok", abs(want[1][0]) == 1)
    else:
        assert got == want


def test_discreteness_probe_sequences():
    assert _outcome(discreteness_probe, []) == ("ok", discreteness_probe([0.0]))
    assert _outcome(discreteness_probe, np.array([1.0, 2.0])) == ("ok", discreteness_probe([1, 2]))
    assert _outcome(discreteness_probe, "12") == _not_finite("value 0", "1")
