import json
import os
import subprocess
import sys

import pytest

import horocenter
from horocenter.cli import main

TRI = {
    "points": [
        {"coords": [0.0, 0.0], "mass": 1.0},
        {"coords": [1.0, 0.0], "mass": 1.0},
        {"coords": [0.0, 1.0], "mass": 1.0},
    ]
}

TREE_DOC = {
    "space": "tree",
    "edges": [["A", "B", 2.0], ["B", "C", 3.0], ["B", "D", 1.5]],
    "ideal_leaves": ["C"],
    "basepoint": ["A-B", 0.0],
}


@pytest.fixture()
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(TRI))
    return str(path)


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE_DOC))
    return str(path)


def test_barycenter_json_output(tri_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(
        [
            "barycenter",
            "--space",
            "euclidean",
            "--dim",
            "2",
            "--input",
            tri_file,
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["center"]["coords"] == pytest.approx([1 / 3, 1 / 3], abs=1e-9)


def test_barycenter_csv_trace(tri_file, capsys):
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", tri_file,
         "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "iter,diameter"
    assert float(lines[-1].split(",")[1]) < 1e-8


def test_select_singleton_echo(tmp_path, capsys):
    body = tmp_path / "single.json"
    body.write_text(json.dumps({"generators": [{"coords": [7.0, -2.0]}]}))
    code = main(
        ["select", "--space", "euclidean", "--dim", "2", "--input", str(body)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"]["coords"] == [7.0, -2.0]


def test_select_tree_with_document_ideal(tree_file, tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(
        json.dumps(
            {
                "generators": [
                    {"edge": "A-B", "offset": 0.5},
                    {"edge": "B-D", "offset": 1.0},
                ],
                "ideal": {"end_leaf": "C"},
            }
        )
    )
    code = main(["select", "--space-json", tree_file, "--input", str(body)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"] == {"edge": "B-D", "offset": 1.0}


def test_classify_output(tree_file, tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(
        json.dumps(
            {
                "generators": [
                    {"edge": "A-B", "offset": 0.5},
                    {"edge": "B-D", "offset": 1.0},
                ]
            }
        )
    )
    code = main(["classify", "--space-json", tree_file, "--input", str(body)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "non-shrinking"
    assert doc["max_limit_separation"] == pytest.approx(0.5)


def test_scan_deterministic_bytes(tmp_path):
    args = [
        "scan-shift", "--space", "hyperbolic", "--dim", "2",
        "--samples", "40", "--seed", "7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_csv_format(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan-mass", "--space", "euclidean", "--dim", "2", "--samples", "15",
         "--seed", "3", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,in_disp,out_disp,ratio"
    assert len(lines) == 16


def test_scan_selector_tree(tree_file, tmp_path):
    out = tmp_path / "sel.json"
    code = main(
        ["scan-selector", "--space-json", tree_file, "--samples", "10",
         "--seed", "2", "--no-smoothing", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert "straddle_ratios" in doc
    assert len(doc["straddle_ratios"]) == 5


def test_exit_1_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [{"coords": [0.0], "mass": -1}]}')
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "1", "--input", str(bad)]
    )
    assert code == 1
    assert "mass" in capsys.readouterr().err


def test_exit_1_on_nan_coordinate(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"points": [{"coords": [0.0, 0.0], "mass": 1.0},'
        ' {"coords": [1.0, NaN], "mass": 1.0}]}'
    )
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(bad)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "points[1].coords[1]: must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["barycenter", "--tol", "nan", "--max-iters", "0"], "tol must be"),
        (["select", "--classify-tol", "nan"], "classify_tol must be"),
        (["select", "--snap-tol", "nan"], "snap_tol must be"),
        (["scan-shift", "--epsilon", "nan"], "epsilon must be"),
        (["scan-shift", "--scale", "nan"], "scale must be"),
    ],
)
def test_exit_1_on_nan_tolerance(argv, message, tri_file, tree_file, tmp_path, capsys):
    body = tmp_path / "body.json"
    gens = [{"edge": "A-B", "offset": 0.5}, {"edge": "B-D", "offset": 1.0}]
    body.write_text(json.dumps({"generators": gens}))
    inputs = {
        "barycenter": ["--space", "euclidean", "--dim", "2", "--input", tri_file],
        "select": ["--space-json", tree_file, "--input", str(body)],
        "scan-shift": ["--space", "euclidean", "--dim", "2", "--samples", "2"],
    }
    code = main(argv[:1] + inputs[argv[0]] + argv[1:])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"{message} positive and finite, got nan" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["barycenter", "select", "scan-shift"])
def test_negative_max_iters_exits_1(command, tri_file, tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"generators": [p["coords"] for p in TRI["points"]]}))
    inputs = {
        "barycenter": ["--space", "euclidean", "--dim", "2", "--input", tri_file],
        "select": ["--space", "euclidean", "--dim", "2", "--input", str(body)],
        "scan-shift": ["--space", "hyperbolic", "--dim", "2", "--samples", "5"],
    }
    code = main([command, *inputs[command], "--max-iters", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "max_iters must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_exit_1_on_non_null_ideal(tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(
        json.dumps(
            {
                "generators": [{"coords": [1.0, 0.0, 0.0]}],
                "ideal": {"null_vector": [1.0, 0.5, 0.0]},
            }
        )
    )
    code = main(["select", "--space", "hyperbolic", "--dim", "2", "--input", str(body)])
    assert code == 1
    assert "error: ideal: ideal vector must be null" in capsys.readouterr().err


def test_exit_1_on_missing_file(capsys):
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", "/no/such.json"]
    )
    assert code == 1


def test_exit_1_on_bad_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(bad)]
    )
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def _usage_exit(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_usage_errors_exit_1(tri_file, capsys):
    # exit 2 is reserved for non-convergence
    args = ["--space", "euclidean", "--dim", "2"]
    assert _usage_exit(["select", *args, "--input", tri_file, "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert _usage_exit(["select", *args]) == 1
    assert "--input" in capsys.readouterr().err
    assert _usage_exit(["barycenter", *args, "--input", tri_file, "--tol", "x"]) == 1
    assert _usage_exit(["frobnicate"]) == 1
    assert _usage_exit(["select", "--help"]) == 0


def test_horizon_flag_is_a_usage_error(tmp_path, capsys):
    body = tmp_path / "pair.json"
    body.write_text(
        json.dumps(
            {
                "generators": [{"coords": [1.0, 0.0, 0.0]}],
                "ideal": {"null_vector": [1.0, 0.0, 1.0]},
            }
        )
    )
    args = ["--space", "hyperbolic", "--dim", "2", "--input", str(body)]
    for command in ("classify", "select"):
        assert main([command, *args]) == 0
        capsys.readouterr()
        assert _usage_exit([command, *args, "--horizon", "2"]) == 1
        assert "--horizon" in capsys.readouterr().err


def test_huge_dim_exits_1(tmp_path, capsys):
    huge = "1" + "0" * 39
    code = main(["scan-shift", "--space", "euclidean", "--dim", huge, "--samples", "1"])
    assert code == 1
    assert "dim" in capsys.readouterr().err
    space = tmp_path / "space.json"
    space.write_text('{"space": "hyperbolic", "dim": ' + huge + "}")
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"generators": [{"coords": [1.0, 0.0]}]}))
    assert main(["classify", "--space-json", str(space), "--input", str(body)]) == 1
    assert "dim" in capsys.readouterr().err


def test_far_hyperbolic_scan_accepts_its_draws(tmp_path, capsys):
    # radius-9 draws used to fail an absolute hyperboloid check
    out = tmp_path / "scan.json"
    code = main(
        ["scan-shift", "--space", "hyperbolic", "--dim", "2", "--scale", "9",
         "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["summary"]["failures"] == 0


def test_barycenter_select_and_classify_never_load_numpy(tmp_path, tree_file):
    # numpy serves only seeded draws; one document is both a configuration
    # and a body
    docs = {
        "euclid.json": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "hyp.json": [[1.0, 0.0, 0.0], [1.5430806348152437, 1.1752011936438014, 0.0]],
        "tree_doc.json": [("A-B", 0.5), ("B-D", 1.0)],
    }
    for name, points in docs.items():
        pts = [
            {"edge": p[0], "offset": p[1]} if name == "tree_doc.json" else {"coords": p}
            for p in points
        ]
        doc = {"points": [dict(p, mass=1.0) for p in pts], "generators": pts}
        (tmp_path / name).write_text(json.dumps(doc))
    runs = [
        [*space, "--input", str(tmp_path / name), "--output", str(tmp_path / "out")]
        for space, name in (
            (["--space", "euclidean", "--dim", "2"], "euclid.json"),
            (["--space", "hyperbolic", "--dim", "2"], "hyp.json"),
            (["--space-json", tree_file], "tree_doc.json"),
        )
    ]
    script = (
        "import sys, horocenter\n"
        "from horocenter.cli import main\n"
        f"for args in {runs!r}:\n"
        "    for command in ('barycenter', 'select', 'classify'):\n"
        "        assert main([command, *args]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    src = os.path.dirname(os.path.dirname(horocenter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_exit_1_on_overflowing_configuration(tmp_path, capsys):
    # finite input whose center or diameter overflows double precision
    for points in (
        [[1e308, 0.0], [-1e308, 0.0]],
        [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]],
    ):
        conf = tmp_path / "huge.json"
        conf.write_text(
            json.dumps({"points": [{"coords": c, "mass": 1.0} for c in points]})
        )
        code = main(
            ["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(conf)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "configuration" in captured.err


@pytest.mark.parametrize(
    "command, message",
    [
        ("classify", "error: body overflows: its limit spread is inf"),
        ("select", "error: ray parameter overflows: s = inf"),
    ],
)
def test_exit_1_on_overflowing_body(command, message, tmp_path, capsys):
    # finite generators whose limit spread, or whose ray parameter down to
    # the first horosphere, overflows double precision
    body = tmp_path / "huge.json"
    body.write_text(json.dumps({"generators": [[1e308, 0.0], [-1e308, 0.0]]}))
    code = main([command, "--space", "euclidean", "--dim", "2", "--input", str(body)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_a_dominant_mass_exits_0(tmp_path, capsys):
    masses = [1.0, 1.0, 1.0, 1e17]
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    conf = tmp_path / "heavy.json"
    conf.write_text(
        json.dumps({"points": [{"coords": c, "mass": m} for c, m in zip(corners, masses)]})
    )
    code = main(["barycenter", "--space", "euclidean", "--dim", "2", "--input", str(conf)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["center"] == {"coords": [1.0, 1.0]}


def test_exit_2_on_non_convergence_with_partial_trace(tri_file, tmp_path, capsys):
    out = tmp_path / "partial.json"
    code = main(
        ["barycenter", "--space", "euclidean", "--dim", "2", "--input", tri_file,
         "--max-iters", "0", "--output", str(out)]
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["diameter_trace"]


def test_env_seed_override(tri_file, tmp_path, monkeypatch):
    """HOROCENTER_SEED is no seed source: only --seed (default 0) is."""
    args = [
        "scan-shift", "--space", "euclidean", "--dim", "2", "--samples", "10",
    ]
    a, b, c, d = (tmp_path / name for name in ("a.json", "b.json", "c.json", "d.json"))
    monkeypatch.delenv("HOROCENTER_SEED", raising=False)
    assert main(args + ["--output", str(a)]) == 0
    monkeypatch.setenv("HOROCENTER_SEED", "123")
    assert main(args + ["--output", str(b)]) == 0
    monkeypatch.setenv("HOROCENTER_SEED", "not a number")
    assert main(args + ["--output", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    assert main(args + ["--seed", "0", "--output", str(d)]) == 0
    assert a.read_bytes() == d.read_bytes()


@pytest.mark.parametrize("command", ["select", "classify"])
def test_format_is_a_usage_error_without_csv(command, tree_file, tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"generators": [{"edge": "A-B", "offset": 0.5}]}))
    args = [command, "--space-json", tree_file, "--input", str(body)]
    for fmt in ("csv", "json"):
        assert _usage_exit([*args, "--format", fmt]) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize("generators", [1, 2])
def test_select_checks_the_ideal_of_any_body(generators, tree_file, tmp_path, capsys):
    cases = [
        (["--space-json", tree_file], [{"edge": "A-B", "offset": 0.5},
                                       {"edge": "B-D", "offset": 1.0}],
         '{"end_leaf": "A"}', "ideal: 'A' is not a marked ideal leaf"),
        (["--space", "euclidean", "--dim", "2"], [[1.0, 2.0], [0.0, 1.0]],
         '{"direction": [1, 0, 0]}', "ideal: expected 2 components, got 3"),
    ]
    for space, gens, ideal, message in cases:
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"generators": gens[:generators]}))
        code = main(["select", *space, "--input", str(body), "--ideal", ideal])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


TWO_BY_THREE = {"points": [{"coords": [0.0, 0.0], "mass": 1.0},
                           {"coords": [0.0, 0.0, 1.0], "mass": 1.0}]}


@pytest.mark.parametrize(
    "argv, documents, message",
    [
        (["barycenter", "--space", "euclidean", "--dim", "2", "--input", "{doc}"],
         {"doc": TWO_BY_THREE},
         "configuration.points[1]: expected 2 coordinates, got 3"),
        (["select", "--space", "hyperbolic", "--dim", "2", "--input", "{doc}"],
         {"doc": {"generators": [{"coords": [2.0, 0.0, 0.0]}]}},
         "body.generators[0]: point is off the hyperboloid: <x,x> = -4.0"),
        (["barycenter", "--space-json", "{space}", "--input", "{doc}"],
         {"space": TREE_DOC,
          "doc": {"points": [{"edge": "A-B", "offset": 0.0, "mass": 1.0},
                             {"edge": "X-Y", "offset": 0.0, "mass": 1.0}]}},
         "configuration.points[1]: unknown edge 'X-Y'"),
        (["barycenter", "--space-json", "{space}", "--input", "{doc}"],
         {"space": {"space": "euclidean", "dim": 5000}, "doc": TWO_BY_THREE},
         "space.dim: dim must lie in [1, 1024], got 5000"),
    ],
    ids=["coordinates", "hyperboloid", "edge", "dim"],
)
def test_point_errors_name_the_entry(argv, documents, message, tmp_path, capsys):
    paths = {}
    for name, doc in documents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_flag_and_document_dim_fail_alike(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"space": "euclidean", "dim": 5000}))
    errors = []
    for source in (["--space", "euclidean", "--dim", "5000"], ["--space-json", str(space)]):
        assert main(["scan-shift", *source, "--samples", "1"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: space.dim: dim must lie in [1, 1024], got 5000\n"] * 2


@pytest.mark.parametrize(
    "space, gens, ideal, message",
    [
        (["--space", "euclidean", "--dim", "2"], [[1.0, 0.0]], {"direction": [1, 0, 0]},
         "expected 2 components, got 3"),
        (None, [{"edge": "A-B", "offset": 0.5}], {"end_leaf": "D"},
         "'D' is not a marked ideal leaf"),
        (["--space", "hyperbolic", "--dim", "2"], [[1.0, 0.0, 0.0]], {"end_leaf": "C"},
         "hyperbolic ideal point needs a vector"),
    ],
    ids=["direction", "leaf", "kind"],
)
def test_every_ideal_error_names_the_field(
    space, gens, ideal, message, tree_file, tmp_path, capsys
):
    space = space or ["--space-json", tree_file]
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"generators": gens, "ideal": ideal}))
    flag = ["--ideal", json.dumps(ideal)]
    runs = [
        ["select", "--input", str(body)],
        ["classify", "--input", str(body)],
        ["classify", "--input", str(body), *flag],
        ["scan-selector", "--samples", "1", *flag],
    ]
    for run in runs:
        assert main([run[0], *space, *run[1:]]) == 1
        assert capsys.readouterr().err == f"error: ideal: {message}\n", run


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--scale", "1e3", "--samples", "2"], "scale = 1000.0 overflows"),
        (["--epsilon", "1e308"], "step = 1e+308 overflows"),
    ],
    ids=["scale", "step"],
)
def test_overflowing_hyperbolic_scan_exits_1(flag, message, capsys):
    assert main(["scan-shift", "--space", "hyperbolic", "--dim", "2", *flag]) == 1
    assert capsys.readouterr().err.startswith(f"error: scan: {message}: cosh(")
