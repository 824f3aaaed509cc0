import json
import math
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "command, scale", [("scan-shift", "15"), ("scan-mass", "15"), ("scan-selector", "19")]
)
def test_far_hyperbolic_scans_run_clean(command, scale, seed, capsys):
    # near radius 19, x0 ~ 1e8 and <v,v> of a float point near the sheet
    # cancels to noise, so no step may divide by it
    args = ["--space", "hyperbolic", "--dim", "2", "--scale", scale, "--samples", "20"]
    assert main([command, *args, "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failures"] == 0


def test_no_command_loads_numpy(tmp_path, tree_file):
    # the scans draw from the library's own stream, so no command loads
    # numpy, and none needs dataclasses or inspect, whose import cost every
    # start-up about 10 ms; each command loads only the library modules it
    # runs, so barycenter loads neither horosphere nor lipschitz, and select
    # and classify skip lipschitz; one document is both a configuration and
    # a body
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
    spaces = (
        (["--space", "euclidean", "--dim", "2"], "euclid.json"),
        (["--space", "hyperbolic", "--dim", "2"], "hyp.json"),
        (["--space-json", tree_file], "tree_doc.json"),
    )
    out = ["--output", str(tmp_path / "out")]
    runs = [[*space, "--input", str(tmp_path / name), *out] for space, name in spaces]
    scans = [[*space, "--samples", "2", *out] for space, _ in spaces]
    script = (
        "import sys, horocenter\n"
        "from horocenter.cli import main\n"
        "unused = ('horocenter.horosphere', 'horocenter.lipschitz')\n"
        "heavy = {'numpy', 'dataclasses', 'inspect'}\n"
        "for command in ('barycenter', 'select', 'classify', "
        "'scan-shift', 'scan-mass', 'scan-selector'):\n"
        f"    for args in ({runs!r} if 'scan' not in command else {scans!r}):\n"
        "        assert main([command, *args]) == 0\n"
        "    print(command, sorted(m for m in sys.modules if m in unused),\n"
        "          sorted(m for m in sys.modules if m.partition('.')[0] in heavy))\n"
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
    both = "['horocenter.horosphere', 'horocenter.lipschitz'] []"
    lines = [line for line in done.stdout.splitlines() if not line.startswith("max_ratio=")]
    assert lines == [
        "barycenter [] []",
        "select ['horocenter.horosphere'] []",
        "classify ['horocenter.horosphere'] []",
        f"scan-shift {both}",
        f"scan-mass {both}",
        f"scan-selector {both}",
    ]


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


def test_exit_1_when_a_far_near_flat_close_cancels(tmp_path, capsys):
    # three H^2 points 16 to 21 out on one geodesic, whose pair quadrances
    # cancel below 0 once the recursion brings them near each other
    s = (17.813755066950186, 20.532592832171645, 15.896214210190928)
    points = [{"coords": [math.cosh(a), math.sinh(a), 0.0], "mass": 1.0} for a in s]
    conf = tmp_path / "far.json"
    conf.write_text(json.dumps({"points": points}))
    code = main(["barycenter", "--space", "hyperbolic", "--dim", "2", "--input", str(conf)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: configuration too far out for its near-flat close")
    assert "pair quadrances cancel" in captured.err and "Traceback" not in captured.err


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


def test_a_mass_scaled_below_the_subnormals_exits_0(tmp_path, capsys):
    """Masses (1e308, 1e308, 5e-324) overflow their sum, and the smallest
    one stays positive after the scaling: the center is that of a tiny
    unscaled mass."""
    coords = [
        [math.cosh(1.0), math.sinh(1.0), 0.0],
        [math.cosh(1.0), 0.0, math.sinh(1.0)],
        [math.sqrt(1.5), -0.5, -0.5],
    ]
    args = ["barycenter", "--space", "hyperbolic", "--dim", "2", "--input"]
    centers = []
    for masses in ([1e308, 1e308, 5e-324], [1.0, 1.0, 1e-300]):
        conf = tmp_path / "masses.json"
        conf.write_text(
            json.dumps({"points": [{"coords": c, "mass": m} for c, m in zip(coords, masses)]})
        )
        assert main([*args, str(conf)]) == 0
        centers.append(json.loads(capsys.readouterr().out)["center"])
    assert centers[0] == centers[1]


@pytest.mark.parametrize("command", ["select", "classify", "scan-shift"])
def test_unset_flags_take_the_library_defaults(command, tree_file, tmp_path):
    """A flag left unset is not passed on, so the library's signature
    supplies its default; spelling that default out changes no byte."""
    from horocenter.horosphere import SelectOptions
    from horocenter.lipschitz import ScanParams

    if command == "scan-shift":
        args = [command, "--space", "euclidean", "--dim", "2"]
        record, names = ScanParams(space=None), ["n_points", "samples", "epsilon", "seed", "scale"]
    else:
        body = tmp_path / "body.json"
        points = [{"edge": "A-B", "offset": 0.5}, {"edge": "B-D", "offset": 1.0}]
        body.write_text(json.dumps({"generators": points}))
        args = [command, "--space-json", tree_file, "--input", str(body)]
        names = ["classify_tol", "snap_tol"] if command == "select" else ["classify_tol"]
        record = SelectOptions()
    spelled = []
    for name in names:
        spelled += ["--" + name.replace("_", "-"), repr(getattr(record, name))]
    outputs = []
    for extra in ([], spelled):
        out = tmp_path / f"out{len(outputs)}.json"
        assert main([*args, *extra, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


def test_a_near_flat_hyperbolic_configuration_keeps_exit_2(tmp_path, capsys):
    """Its one projected step is still a step: --max-iters 0 exits 2 with
    trace [d0], and --max-iters 1 converges in one iteration."""
    spatial = [(0.75, -0.5), (0.7506, -0.4998), (0.7499, -0.4993)]
    doc = {"points": [{"coords": [math.hypot(1.0, *y), *y], "mass": 1.0} for y in spatial]}
    conf = tmp_path / "near.json"
    conf.write_text(json.dumps(doc))
    args = ["barycenter", "--space", "hyperbolic", "--dim", "2", "--input", str(conf)]
    assert main([*args, "--max-iters", "0"]) == 2
    partial = json.loads(capsys.readouterr().out)
    assert (partial["converged"], partial["iterations"]) == (False, 0)
    assert len(partial["diameter_trace"]) == 1
    assert main([*args, "--max-iters", "1"]) == 0
    done = json.loads(capsys.readouterr().out)
    assert (done["converged"], done["iterations"]) == (True, 1)
    assert done["diameter_trace"][1:] == [0.0]


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
    "command, flag, message",
    [
        ("scan-shift", ["--scale", "1e3", "--samples", "2"], "scale = 1000.0 overflows"),
        ("scan-shift", ["--epsilon", "1e308"], "epsilon = 1e+308 overflows"),
        # the selector shifts by epsilon * U(0, 1) and still names epsilon
        ("scan-selector", ["--epsilon", "1e308"], "epsilon = 1e+308 overflows"),
    ],
    ids=["scale", "step", "selector-step"],
)
def test_overflowing_hyperbolic_scan_exits_1(command, flag, message, capsys):
    assert main([command, "--space", "hyperbolic", "--dim", "2", *flag]) == 1
    assert capsys.readouterr().err.startswith(f"error: scan: {message}: cosh(")


@pytest.mark.parametrize(
    "command, space, flag, message",
    [
        # a mass change past the float range, in a flat and a curved space
        ("scan-mass", "euclidean", ["--epsilon", "1e308"], "epsilon = 1e+308 overflows: mass "),
        ("scan-mass", "hyperbolic", ["--epsilon", "1e308"], "epsilon = 1e+308 overflows: mass "),
        # cosh(step) is finite, but the shifted point's x0^2 is not
        (
            "scan-selector",
            "hyperbolic",
            ["--epsilon", "709", "--samples", "3"],
            "epsilon = 709.0 overflows: the point's x0^2 = inf",
        ),
    ],
    ids=["mass-euclidean", "mass-hyperbolic", "selector-lift"],
)
def test_an_overflowing_perturbation_names_epsilon(command, space, flag, message, capsys):
    assert main([command, "--space", space, "--dim", "2", *flag]) == 1
    assert capsys.readouterr().err.startswith(f"error: scan: {message}")


@pytest.mark.parametrize("seed", ["-1", "9223372036854775808"])
@pytest.mark.parametrize("command", ["scan-shift", "scan-mass", "scan-selector"])
def test_a_seed_outside_the_stream_range_exits_1(command, seed, capsys):
    """--seed -1 would draw the samples of 2**63 - 1, and 2**63 those of 0."""
    assert main([command, "--space", "euclidean", "--dim", "2", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: scan: seed must lie in [0, 2**63), got {seed}\n"
    assert captured.out == ""


UNTESTED_PATHS = {  # documents the runs below read, by file name
    "cycle.json": {
        "space": "tree",
        "edges": [["A", "B", 1.0], ["B", "C", 1.0], ["C", "A", 1.0], ["D", "E", 1.0]],
    },
    "dash.json": {"space": "tree", "edges": [["A-1", "B", 1.0]]},
    "numbered.json": {"space": "tree", "edges": [[1, "B", 1.0]]},
    "leaves.json": {"space": "tree", "edges": [["A", "B", 1.0]], "ideal_leaves": "B"},
    "unmarked.json": {"space": "tree", "edges": [["A", "B", 1.0], ["B", "C", 1.0]]},
    "tree-body.json": {"generators": [{"edge": "A-B", "offset": 0.5}]},
    "body.json": {"generators": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]]},
    "basepoint.json": {**TREE_DOC, "basepoint": "A-B"},
}


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["--space-json", "cycle.json"], 1, "error: space: tree is not connected"),
        (
            ["--space-json", "dash.json"],
            1,
            "error: space: vertex names must not contain '-': 'A-1', 'B'",
        ),
        (
            ["--space-json", "numbered.json"],
            1,
            "error: space.edges[0]: vertex names must be strings",
        ),
        (["--space-json", "leaves.json"], 1, "error: space.ideal_leaves: expected a list"),
        (
            ["--space-json", "unmarked.json", "--input", "tree-body.json"],
            1,
            "error: ideal: tree has no marked leaves; pass --ideal",
        ),
        ([], 1, "error: space: pass --space or --space-json"),
        (["--space", "tree"], 1, "error: space: tree spaces need --space-json"),
        (["--space", "euclidean"], 1, "error: space.dim: pass --dim for euclidean/hyperbolic"),
        (
            ["--space", "euclidean", "--dim", "2", "--max-iters", "0"],
            2,
            "select: diameter 1.000e+00 still above tol 1.000e-08 after 0 iterations",
        ),
    ],
    ids=[
        "disconnected", "dashed-name", "numbered-name", "leaves-not-list", "no-marked-leaf",
        "no-space", "tree-flag", "no-dim", "select-no-iterations",
    ],
)
def test_each_exit_prints_its_one_line(argv, code, line, tmp_path, monkeypatch, capsys):
    """The space, ideal and select exits that no other test reaches: the
    exit code, the one stderr line and an empty stdout."""
    for name, doc in UNTESTED_PATHS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    if "--input" not in argv:
        argv = [*argv, "--input", "body.json"]
    assert main(["select", *argv]) == code
    assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("command", ["scan-shift", "scan-mass"])
def test_a_scan_past_the_default_recursion_cap_exits_0(command, capsys):
    """Eight hyperbolic points exceed the cap of 7, and the scan has no
    --max-points flag: it caps at --n-points, as select caps at the body."""
    argv = [command, "--space", "hyperbolic", "--dim", "2", "--n-points", "8", "--samples", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["records"]) == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--space", "euclidean", "--dim", "2", "--output", "missing/out.json"],
         "error: missing/out.json: No such file or directory"),
        (["--space-json", "basepoint.json", "--input", "tree-body.json"],
         "error: space.basepoint: expected [edge-id, offset]"),
        (["--space", "euclidean", "--dim", "2", "--ideal", "[1,0]"],
         "error: ideal: expected an object"),
    ],
    ids=["output-directory", "basepoint-string", "ideal-not-object"],
)
def test_output_and_document_shape_errors_exit_1(argv, line, tmp_path, monkeypatch, capsys):
    """A missing output directory, a tree basepoint given as a string and
    an ideal that is not an object each exit 1 with one stderr line."""
    for name, doc in UNTESTED_PATHS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    if "--input" not in argv:
        argv = [*argv, "--input", "body.json"]
    assert main(["select", *argv]) == 1
    assert capsys.readouterr() == ("", line + "\n")
