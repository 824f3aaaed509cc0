"""The benchmark's traced run wraps library functions by name.

`bench/layers.py` lists every (owner, attribute) it replaces with a traced
wrapper; a rename in the library would otherwise only surface as a crash
of `bench/run.py --trace 1`.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports its sibling `geometry`
    import layers

    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span, _keep in layers.targets()
        if attr not in owner.__dict__
    ]
    assert not missing, missing
