"""ctypes binding of the compiled search kernel, ``_search.c``.

``load(path)`` returns a kernel with the interface of ``vcew._search_py``:
each function takes an ``oracle.SearchInstance`` and returns ``(value,
nodes visited)``.  Only ``solve_ones(inst, maxc, fewest)``, the one function
vcew.oracle calls, runs in C.  ``count_all`` and ``exists_proper`` are
``_search_py``'s own counting walks on both backends; they stay only
because the benchmark's tracer (perfbench/spans.py) wraps them.
The Search record carries the instance's settle table, twin table, free
positions, start colors and popcount floor, and the ``fewest`` flag that
says whether the popcount passes pick the witness; the kernel takes no
per-vertex color ceiling.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

from vcew import _search_py

_INTS = ctypes.POINTER(ctypes.c_int)
_LONGS = ctypes.POINTER(ctypes.c_longlong)


class _Search(ctypes.Structure):
    # Field for field the Search record of _search.c.
    _fields_ = [
        ("m", ctypes.c_int), ("f", ctypes.c_int), ("lo", ctypes.c_int),
        ("pu", _INTS), ("pv", _INTS), ("fu", _INTS), ("fv", _INTS), ("end", _INTS),
        ("tu", _INTS), ("tv", _INTS), ("tend", _INTS),
        ("colors", _LONGS), ("nodes", ctypes.c_longlong), ("fewest", ctypes.c_int),
    ]


def _ints(values):
    return (ctypes.c_int * len(values))(*values)


def _longs(values):
    return (ctypes.c_longlong * len(values))(*values)


def _record(inst, fewest) -> _Search:
    """A Search record over fresh C copies of the instance arrays.

    The record holds references to the arrays, so they live as long as it does.
    """
    pairs, twins = inst.pairs, inst.twins
    return _Search(
        len(pairs), len(inst.fu), inst.lo,
        _ints([u for u, _ in pairs]), _ints([v for _, v in pairs]), _ints(inst.fu), _ints(inst.fv),
        _ints(inst.end), _ints([a for a, _ in twins]), _ints([b for _, b in twins]), _ints(inst.tend),
        _longs(inst.colors), 0, fewest,
    )


def load(path) -> SimpleNamespace:
    """The kernel in the shared library at `path`.

    Raises ImportError when the library's Search record is not the one
    mirrored here, as with a library built from an older ``_search.c``.
    """
    lib = ctypes.CDLL(str(path))
    size = getattr(lib, "search_record_size", None)
    if size is None or size() != ctypes.sizeof(_Search):
        raise ImportError(
            f"{path} was built from another version of _search.c; "
            "rebuild it with: python setup.py build_ext --inplace"
        )
    record = ctypes.POINTER(_Search)
    lib.solve_ones.argtypes = [record, ctypes.c_int, _INTS]
    lib.solve_ones.restype = ctypes.c_int

    def solve_ones(inst, maxc, fewest=True):
        s = _record(inst, fewest)
        chosen = (ctypes.c_int * (s.f + 1))()
        c = lib.solve_ones(ctypes.byref(s), min(maxc, s.f), chosen)
        return (list(chosen[:c]) if c >= 0 else None), s.nodes

    return SimpleNamespace(
        solve_ones=solve_ones, count_all=_search_py.count_all, exists_proper=_search_py.exists_proper
    )
