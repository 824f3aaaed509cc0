"""Weighted centers, horosphere projections and Lipschitz selector scans
in three model Hadamard spaces (euclidean, hyperbolic hyperboloid, metric
tree with marked ends).  A public name loads its home module on first use
(PEP 562), so a command loads only the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # home module -> its public names
    "barycenter": "BarycenterResult Configuration ConvergenceError WeightedPoint "
    "center_of_mass config_diameter leave_one_out_step "
    "two_point_center unit_configuration",
    "horosphere": "ConvexBody NON_SHRINKING SHRINKING SelectOptions ShrinkClass "
    "classify_body first_horosphere limit_separation project_to_level select "
    "snap_singular",
    "lipschitz": "LipschitzReport ScanParams ScanRecord branch_straddle_probe "
    "hausdorff mass_shift_scan point_shift_scan selector_scan",
    "spaces": "EUCLIDEAN HYPERBOLIC TREE GeometryError IdealPoint Space basepoint "
    "busemann distance geodesic_point ray_point",
    "trees": "Tree TreeError TreePoint",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "jsonio", "stream"}
__all__ = sorted(_HOME)


def __getattr__(name):
    # uncached: a name reads its home module's binding now, which a tracer may swap
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
