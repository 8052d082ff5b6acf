"""The OpenBLAS kernel that numpy picked at run time, for example ``SkylakeX``
or ``Haswell``; ``OPENBLAS_CORETYPE`` overrides the pick.

``numpy.show_config`` names a DYNAMIC_ARCH wheel's build target, not the kernel
it runs, and float bits depend on the kernel. The name is read from the wheel's
bundled library: the symbol is ``scipy_openblas_get_corename64_`` in numpy 2
wheels and ``openblas_get_corename64_`` in older ones, and the name is
``unknown`` if neither is found.

Run as a script it prints ``OpenBLAS run-time core: <name>``.
"""

import ctypes
import glob
import os

import numpy

SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core() -> str:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return "unknown"


if __name__ == "__main__":
    print("OpenBLAS run-time core:", openblas_core())
