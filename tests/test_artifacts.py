"""Pinned sha256 digests of deterministic CLI artifacts.

Each case runs one subcommand in-process on fixed documents and hashes
the artifact it writes.  Only tree and E^2 runs are pinned: their answers
come from sums, products, quotients and square roots, which IEEE doubles
round the same way on every platform.  Hyperbolic runs go through libm's
cosh, sinh and log, whose last bits may differ between platforms, so they
are left out.  The seeded scans hash draws of the library's own stream
(``horocenter.stream``, numpy's PCG64 stream reproduced without numpy),
so a numpy upgrade cannot move any digest.  An E^n draw normalises its
normal deviates by the FMA chain of their squares, computed exactly, so
no BLAS kernel enters it either.  The ziggurat's rare wedge and tail
paths read libm's exp and log1p: the E^2 scan's 200 normal draws call
them six times, each correctly rounded here and over 0.13 ulp from a
rounding boundary.

A digest that moves is a change of output.  Update it here only on
purpose, and list the artifact in CHANGES.md.
"""

import hashlib
import json

import pytest

from horocenter.cli import main

DOCUMENTS = {
    # non-dyadic lengths, so a reordered sum shows in the last bits
    "tree": {
        "space": "tree",
        "edges": [
            ["A", "B", 2.1],
            ["B", "C", 2.9],
            ["B", "D", 2.7],
            ["A", "E", 0.7],
            ["A", "F", 1.1],
        ],
        "ideal_leaves": ["C", "E"],
        "basepoint": ["A-B", 0.3],
    },
    "tree_config": {
        "points": [
            {"edge": "A-B", "offset": 0.4, "mass": 1.0},
            {"edge": "B-C", "offset": 1.7, "mass": 2.5},
            {"edge": "B-D", "offset": 0.9, "mass": 0.8},
            {"edge": "A-E", "offset": 0.3, "mass": 1.3},
        ]
    },
    # all three tie for first contact with the horoballs about C, and
    # their center lies inside edge A-B, not on a vertex
    "tree_body": {
        "generators": [
            {"edge": "A-E", "offset": 0.4},
            {"edge": "A-F", "offset": 0.4},
            {"edge": "B-D", "offset": 2.5},
        ],
        "ideal": {"end_leaf": "C"},
    },
    # the contact sits within the snap tolerance of branch vertex B
    "tree_near_branch": {
        "generators": [
            {"edge": "B-D", "offset": 1.45e-5},
            {"edge": "A-B", "offset": 2.09997},
        ],
        "ideal": {"end_leaf": "C"},
    },
    "euclid_config": {
        "points": [
            {"coords": [0.0, 0.0], "mass": 1.0},
            {"coords": [1.3, 0.2], "mass": 2.5},
            {"coords": [0.1, 1.7], "mass": 0.8},
            {"coords": [-0.9, 0.6], "mass": 1.3},
        ]
    },
    "euclid_body": {
        "generators": [
            {"coords": [0.0, 0.0]},
            {"coords": [1.3, 0.2]},
            {"coords": [0.1, 1.7]},
            {"coords": [-0.9, 0.6]},
        ],
        "ideal": {"direction": [0.6, -0.8]},
    },
}

TREE = ["--space-json", "{tree}"]
EUCLID2 = ["--space", "euclidean", "--dim", "2"]
SCAN = ["--samples", "20", "--seed", "7"]

# name -> (argv with {document} placeholders, sha256 of the artifact)
CASES = {
    "tree-barycenter": (
        ["barycenter", *TREE, "--input", "{tree_config}"],
        "2411e8611796b6f1744e4622a1770ba82bedb79e6aa81df38b6cf38c4003f91f",
    ),
    "tree-select": (
        ["select", *TREE, "--input", "{tree_body}"],
        "114187a4877da30b6780dc9269a208d32e607f48b415a471955206a54f7e5eaf",
    ),
    "tree-select-near-branch": (
        ["select", *TREE, "--input", "{tree_near_branch}"],
        "ddf5e3e4a0990a82c4748ad2489a15ed87b205db4238280a73d54617ececad4c",
    ),
    "tree-select-near-branch-no-smoothing": (
        ["select", *TREE, "--input", "{tree_near_branch}", "--no-smoothing"],
        "3a765cbae7b6821ca9368a8099bf77ce19878f0e337827010bf4d2facde407f4",
    ),
    "tree-classify": (
        ["classify", *TREE, "--input", "{tree_body}"],
        "291234477619208068d078f148e6c3c26c6ee843c304fc304d51b60f45c912a4",
    ),
    "tree-scan-shift": (
        ["scan-shift", *TREE, *SCAN],
        "6f7df8c2b4d4d46ab6c6848cc7ed19fe7b1c22630ac00b5f7cec6b204b8963ec",
    ),
    "tree-scan-mass-csv": (
        ["scan-mass", *TREE, *SCAN, "--format", "csv"],
        "4ad16bde1704d29e4794485b826aad413ee62b1d41ff05474b2f1c5865ccef45",
    ),
    "tree-scan-selector": (
        ["scan-selector", *TREE, *SCAN],
        "033a5e3176c08b5575519ca853d4ae1f3a3d37a1284f1f33a96dabaa3d919c79",
    ),
    "tree-scan-selector-no-smoothing": (
        ["scan-selector", *TREE, *SCAN, "--no-smoothing"],
        "73e934eb910ae792b5f9859b54fda7506d6e78d7a6ddc54ae0b9ece9d76c3a40",
    ),
    "euclid2-barycenter": (
        ["barycenter", *EUCLID2, "--input", "{euclid_config}"],
        "6115d01dbed6494e8c2b47a64f35093570761c19ab83de676839aa8ce3133fae",
    ),
    "euclid2-select": (
        ["select", *EUCLID2, "--input", "{euclid_body}"],
        "bfd6fc3d05830fe36944dc1e717fda3b3b96b9ee3caec97e556c72c4a8a7d9d4",
    ),
    "euclid2-classify": (
        ["classify", *EUCLID2, "--input", "{euclid_body}"],
        "3f0a585154f5c050b0a57f1ef296d38a679548980b5c829662e96c5d6b8eba5f",
    ),
    "euclid2-scan-shift": (
        ["scan-shift", *EUCLID2, *SCAN],
        "81118a8839a3d1fa21991f71ca198699619a2dd20515f1cc879a3c02685b680d",
    ),
}


def artifact(argv, directory) -> bytes:
    """Run one case with its documents written to directory; the artifact's bytes."""
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out = directory / "artifact"
    code = main([arg.format(**paths) for arg in argv] + ["--output", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_are_pinned(name, tmp_path):
    argv, digest = CASES[name]
    assert hashlib.sha256(artifact(argv, tmp_path)).hexdigest() == digest
