"""The package namespace: every public name, loaded from its home module on
first use, checked in a fresh interpreter so no earlier import hides a gap."""

import os
import subprocess
import sys

import horocenter

# the public API by home module, as pinned before the namespace became lazy
HOMES = {
    "barycenter": [
        "BarycenterResult", "Configuration", "ConvergenceError", "WeightedPoint",
        "center_of_mass", "config_diameter", "hull_sample", "leave_one_out_step",
        "two_point_center", "unit_configuration",
    ],
    "horosphere": [
        "ConvexBody", "NON_SHRINKING", "SHRINKING", "SelectOptions", "ShrinkClass",
        "classify_body", "first_horosphere", "limit_separation", "project_to_level",
        "select", "snap_singular",
    ],
    "lipschitz": [
        "LipschitzReport", "ScanParams", "ScanRecord", "branch_straddle_probe",
        "hausdorff", "mass_shift_scan", "point_shift_scan", "selector_scan",
    ],
    "spaces": [
        "EUCLIDEAN", "HYPERBOLIC", "TREE", "GeometryError", "IdealPoint", "Space",
        "basepoint", "busemann", "distance", "geodesic_point", "random_point",
        "ray_point",
    ],
    "trees": ["Tree", "TreeError", "TreePoint"],
}
SUBMODULES = [*HOMES, "cli", "errors", "jsonio", "stream", "values"]

SCRIPT = f"""
import importlib, sys
import horocenter as h

def loaded():
    return sorted(m for m in sys.modules if m.startswith("horocenter."))

assert loaded() == [], loaded()
homes = {HOMES!r}
names = sorted(n for ns in homes.values() for n in ns)
assert len(names) == 44 and h.__all__ == names, h.__all__

# each submodule resolves on first touch, with none of the library loaded
for sub in {SUBMODULES!r}:
    for key in loaded():
        del sys.modules[key]
        vars(h).pop(key.partition(".")[2], None)
    assert getattr(h, sub) is sys.modules["horocenter." + sub], sub

for home, ns in homes.items():
    module = importlib.import_module("horocenter." + home)
    for name in ns:
        assert getattr(h, name) is getattr(module, name), name
        # uncached, so a name swapped in its home module reads the swap
        assert name not in vars(h), name

star = {{}}
exec("from horocenter import *", star)
assert sorted(set(star) - {{"__builtins__"}}) == names

for bad in ("nope", "__main__", "_HOMES"):
    try:
        getattr(h, bad)
    except AttributeError as exc:
        assert str(exc) == f"module 'horocenter' has no attribute {{bad!r}}", exc
    else:
        raise AssertionError(bad)
print("ok")
"""


def test_the_namespace_loads_each_name_from_its_home_module():
    src = os.path.dirname(os.path.dirname(horocenter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
