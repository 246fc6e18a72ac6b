"""Which submodules each public name loads, each in a fresh interpreter.

Importing the package loads params, montecarlo and scheduler, and no scipy.
A name of __all__ that import leaves unbound loads its defining submodule
on first access, with the submodules that one imports and no other: a
specfun name loads specfun alone, an analytic name analytic and specfun,
an optimizer name all three.
"""

import json
import os
import subprocess
import sys

import covertcomm

_EAGER = {"covertcomm", "covertcomm.montecarlo", "covertcomm.params", "covertcomm.scheduler"}
_LOADS = {
    "covertcomm.specfun": {"covertcomm.specfun"},
    "covertcomm.analytic": {"covertcomm.specfun", "covertcomm.analytic"},
    "covertcomm.optimizer": {
        "covertcomm.specfun", "covertcomm.analytic", "covertcomm.optimizer",
    },
}


def _fresh(code):
    """json.loads of what code prints in a fresh interpreter that imports covertcomm."""
    src = os.path.dirname(os.path.dirname(covertcomm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = f"import json, sys, covertcomm\n{code}\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _loaded(prefix):
    return (f"[m for m in sys.modules if m == {prefix!r} "
            f"or m.startswith({prefix + '.'!r})]")


def test_each_lazy_name_loads_only_its_defining_submodules():
    start = _fresh(
        "print(json.dumps({'lazy': [n for n in covertcomm.__all__ if n not in vars(covertcomm)],"
        f" 'covertcomm': {_loaded('covertcomm')}, 'scipy': {_loaded('scipy')}}}))"
    )
    assert set(start["covertcomm"]) == _EAGER
    assert start["scipy"] == []
    assert len(start["lazy"]) == 17
    for name in start["lazy"]:
        got = _fresh(f"v = covertcomm.{name}\n"
                     f"print(json.dumps([v.__module__, {_loaded('covertcomm')}]))")
        defining, loaded = got
        assert defining == getattr(covertcomm, name).__module__
        assert set(loaded) == _EAGER | _LOADS[defining], name
