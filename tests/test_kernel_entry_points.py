"""Every entry point of the compiled kernel is declared to ctypes as its C
prototype reads.

ctypes calls a function whose `argtypes` are unset by guessing each
argument's C type from its Python value, and reads an undeclared result
as an int: an entry point that `kernel.load` does not declare gets wrong
values, not an error.  The check reads the non-static function definitions
of `_simkernel.c` and compares each prototype with the declaration.
"""

import ctypes
import re
from types import SimpleNamespace

import numpy as np

from riskplan import kernel

# a definition starting a line: type, name, parameters, then its body
DEFINITION = re.compile(r"^(?!static\b)([A-Za-z_][\w\s*]*?)\b(\w+)\(([^)]*)\)\s*\{", re.M)
SCALARS = {"void": None, "int": ctypes.c_int, "long": ctypes.c_long, "double": ctypes.c_double}
ARRAYS = {"double*": np.float64, "long*": np.intp, "unsignedchar*": np.uint8,
          "signedchar*": np.int8, "bitgen_t**": np.uintp}


def c_type(text: str) -> str:
    """A C type without `const` and spaces: ``const double *`` is ``double*``."""
    return re.sub(r"\bconst\b|\s", "", text)


def entry_points(source: str) -> dict[str, tuple[str, list[str]]]:
    """``name: (return type, parameter types)`` of each non-static function
    that ``source`` defines."""
    found = {}
    for ret, name, params in DEFINITION.findall(source):
        types = [c_type(re.fullmatch(r"(.*?)\w+", p.strip()).group(1))
                 for p in params.split(",") if p.strip()]
        found[name] = (c_type(ret), types)
    return found


def ctypes_type(text: str):
    """The declaration a C type needs: a ctypes scalar, None for void, or
    `kernel.load`'s C-ordered ndpointer of the array's dtype."""
    if text in ARRAYS:
        return np.ctypeslib.ndpointer(ARRAYS[text], flags="C_CONTIGUOUS")
    return SCALARS[text]


def undeclared(lib, source: str) -> list[str]:
    """``name: argtypes`` or ``name: restype`` for each entry point of
    ``source`` whose declaration in ``lib`` does not match its prototype."""
    problems = []
    for name, (ret, params) in entry_points(source).items():
        entry = getattr(lib, name)
        if entry.argtypes is None or list(entry.argtypes) != list(map(ctypes_type, params)):
            problems.append(f"{name}: argtypes")
        if entry.restype is not ctypes_type(ret):
            problems.append(f"{name}: restype")
    return problems


def test_every_entry_point_is_declared():
    source = kernel._SOURCE.read_text(encoding="utf-8")
    assert {"refine_path", "simulate_ticks", "integrate_beams"} <= entry_points(source).keys()
    assert undeclared(kernel.load(), source) == []


def test_undeclared_entry_points_are_found():
    source = ("static double helper(double x)\n{\n    return x;\n}\n"
              "double random_standard_normal(bitgen_t *bitgen_state);\n"
              "long count(long n,\n           const double *x)\n{\n    return n;\n}\n"
              "void fill(double v, unsigned char *out) { }\n"
              "double scale(bitgen_t *const *gens)\n{\n    return 0.0;\n}\n")
    assert entry_points(source) == {"count": ("long", ["long", "double*"]),
                                    "fill": ("void", ["double", "unsignedchar*"]),
                                    "scale": ("double", ["bitgen_t**"])}
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    lib = SimpleNamespace(
        count=SimpleNamespace(argtypes=[ctypes.c_long, f64], restype=ctypes.c_long),
        fill=SimpleNamespace(argtypes=None, restype=ctypes.c_int),  # ctypes' defaults
        scale=SimpleNamespace(argtypes=[u8], restype=ctypes.c_double))
    assert undeclared(lib, source) == ["fill: argtypes", "fill: restype", "scale: argtypes"]
