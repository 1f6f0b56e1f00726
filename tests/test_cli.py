import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from rbu import parse_csv, parse_keel
from rbu.cli import main
from rbu.grids import preset_grids

KEEL_IMBALANCED_HEADER = (
    "@relation toy\n"
    "@attribute x real\n"
    "@attribute y real\n"
    "@attribute class {negative, positive}\n"
    "@data\n"
)


def keel_blob_file(tmp_path, name="toy.dat", n_majority=30, n_minority=10, seed=5):
    rng = np.random.default_rng(seed)
    lines = [KEEL_IMBALANCED_HEADER.rstrip("\n")]
    for _ in range(n_majority):
        x, y = rng.normal(0.0, 1.0, 2)
        lines.append(f"{x:.6f}, {y:.6f}, negative")
    for _ in range(n_minority):
        x, y = rng.normal(3.0, 1.0, 2)
        lines.append(f"{x:.6f}, {y:.6f}, positive")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def keel_mixed_file(tmp_path, n_majority=36, n_minority=12, seed=11):
    """Three real columns and a categorical one, so synthetic rows need
    their category decoded."""
    rng = np.random.default_rng(seed)
    colours = ("red", "green", "blue")
    lines = [
        "@relation mixed",
        "@attribute x0 real",
        "@attribute x1 real",
        "@attribute x2 real",
        "@attribute colour {red, green, blue}",
        "@attribute class {neg, pos}",
        "@data",
    ]
    for label, n, shift in (("neg", n_majority, 0.0), ("pos", n_minority, 1.0)):
        for _ in range(n):
            cells = ["%.4f" % v for v in rng.normal(shift, 1.0, 3)]
            lines.append(", ".join(cells + [colours[int(rng.integers(3))], label]))
    path = tmp_path / "mixed.dat"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def runner():
    return CliRunner()


class TestResample:
    def test_rbu_ratio_one_balances(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "out.dat"
        result = runner.invoke(
            main,
            ["resample", str(data), "--method", "rbu", "--gamma", "0.1",
             "--ratio", "1.0", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "majority: 30 -> 10" in result.output
        ds = parse_keel(out.read_text())
        labels = list(ds.labels)
        assert labels.count("negative") == 10 and labels.count("positive") == 10

    def test_unknown_method_exits_2_with_usage(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        result = runner.invoke(main, ["resample", str(data), "--method", "bogus"])
        assert result.exit_code == 2
        assert "Usage" in result.output or "Usage" in (result.stderr or "")

    def test_same_seed_byte_identical(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out1, out2 = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["resample", str(data), "--method", "rus", "--ratio", "1.0",
                 "--seed", "7", "-o", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_surviving_rows_keep_exact_values(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "out.dat"
        runner.invoke(
            main,
            ["resample", str(data), "--method", "tomek", "-o", str(out)],
        )
        source = parse_keel(data.read_text())
        emitted = parse_keel(out.read_text())
        original_rows = {
            (tuple(source.features[i].astype(float)), source.labels[i])
            for i in range(source.n)
        }
        for i in range(emitted.n):
            row = (tuple(emitted.features[i].astype(float)), emitted.labels[i])
            assert row in original_rows  # exact float round trip, no synthesis

    def test_smote_appends_synthetic_minority(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "out.dat"
        result = runner.invoke(
            main,
            ["resample", str(data), "--method", "smote", "--ratio", "1.0",
             "--k", "3", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        ds = parse_keel(out.read_text())
        labels = list(ds.labels)
        assert labels.count("positive") == 30 and labels.count("negative") == 30

    def test_csv_format_autodetected(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        rows = ["x,y,class"]
        rows += [f"{rng.normal():.4f},{rng.normal():.4f},neg" for _ in range(20)]
        rows += [f"{rng.normal(3):.4f},{rng.normal(3):.4f},pos" for _ in range(8)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["resample", str(path), "--method", "rus", "--ratio", "1.0", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        ds = parse_csv(out.read_text())
        assert list(ds.labels).count("neg") == 8

    def test_unknown_extension_needs_format_flag(self, runner, tmp_path):
        path = tmp_path / "d.binary"
        path.write_text("x,y,class\n1,2,a\n3,4,b\n")
        result = runner.invoke(main, ["resample", str(path), "--method", "none"])
        assert result.exit_code == 2

    def test_parse_error_exits_1(self, runner, tmp_path):
        path = tmp_path / "broken.dat"
        path.write_text("@relation x\n@attribute a real\n@attribute c {p, n}\n@data\n1\n")
        result = runner.invoke(main, ["resample", str(path), "--method", "none"])
        assert result.exit_code == 1

    def test_io_error_exits_3(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        result = runner.invoke(
            main,
            ["resample", str(data), "--method", "none", "-o", "/nonexistent/dir/out.dat"],
        )
        assert result.exit_code == 3

    def test_env_seed_respected_and_flag_wins(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out_env = tmp_path / "env.dat"
        out_flag = tmp_path / "flag.dat"
        out_pinned = tmp_path / "pin.dat"
        runner.invoke(
            main, ["resample", str(data), "--method", "rus", "--ratio", "1.0", "-o", str(out_env)],
            env={"RR_SEED": "1234"},
        )
        runner.invoke(
            main,
            ["resample", str(data), "--method", "rus", "--ratio", "1.0",
             "--seed", "1234", "-o", str(out_pinned)],
        )
        runner.invoke(
            main,
            ["resample", str(data), "--method", "rus", "--ratio", "1.0",
             "--seed", "9", "-o", str(out_flag)],
            env={"RR_SEED": "1234"},
        )
        assert out_env.read_bytes() == out_pinned.read_bytes()
        flag_vs_pinned_differ = out_flag.read_bytes() != out_pinned.read_bytes()
        assert flag_vs_pinned_differ  # the explicit flag overrode the env seed


# sha256 of `rbu resample mixed.dat --method <m> --seed 7` with every other
# flag at its default: the output contract of each method choice.
RESAMPLE_DIGESTS = {
    "none": "ebe16367c614dec81c2d8f26e293c5cb8213b34f0c875c98f4c2e14d33678cce",
    "rus": "3d5e1f0f33ba76e0e63226798d55e2bde681e8dd6ab87b42aa9a3cab177dfb23",
    "ros": "dfcdda55b7824cdf3c7863cf476247d644e82d9bd8c22d1bc10acdc8a9d97d79",
    "smote": "2bf027b363b1cbc176d862f61db986784198950efd07a956e0584c036ae02c3b",
    "enn": "3ee1af105219c5bb4b09ee15cabcc397bb7c5d504fbc4b2313ed7de4cdccbe84",
    "renn": "2b53c757fc4dc64d30a64daac3b7a7631a4166bc23914699f9cc765cdf8891dd",
    "tomek": "c51353d29e2c8add6b8d9e1dc3a4a3be42aea876d56e9caa919f7124d976b997",
    "nm": "01c2e5d48584095edca02ef13bf2806ba56456cb2b330da62ae1f976735fa04b",
    "rbu": "792e6c518ba49735d6a168585f61a903e185b661f7f268c144fa35501d7cac42",
    "stl": "9b2031d4cba5cd0dba479d4e957a745de6959eda8dee7a2a180b908d88ce4f85",
    "senn": "20048d4d9a374a3e94edbad4a65f9167f612bd06fc226f0b67c0ce286f4c2f89",
}


@pytest.mark.parametrize("method", sorted(RESAMPLE_DIGESTS))
def test_resample_output_digest(runner, tmp_path, method):
    data = keel_mixed_file(tmp_path)
    out = tmp_path / "out.dat"
    result = runner.invoke(
        main, ["resample", str(data), "--method", method, "--seed", "7", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESAMPLE_DIGESTS[method]


@pytest.mark.parametrize("method", ["smote", "enn", "renn", "nm", "stl", "senn"])
def test_resample_k_zero_exits_2(runner, tmp_path, method):
    data = keel_blob_file(tmp_path)
    result = runner.invoke(main, ["resample", str(data), "--method", method, "--k", "0"])
    assert result.exit_code == 2, result.output


class TestTypify:
    def test_lonely_minority_point_is_outlier(self, runner, tmp_path):
        lines = [KEEL_IMBALANCED_HEADER.rstrip("\n")]
        for i in range(8):
            lines.append(f"{i / 10:.2f}, 0.0, negative")
        lines.append("0.35, 0.01, positive")
        path = tmp_path / "t.dat"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["typify", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.strip().splitlines()[-1] == "0.00 0.00 0.00 100.00"

    def test_tight_minority_cluster_is_safe(self, runner, tmp_path):
        lines = [KEEL_IMBALANCED_HEADER.rstrip("\n")]
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.normal(50.0, 0.5, 2)
            lines.append(f"{x:.3f}, {y:.3f}, negative")
        for a in np.linspace(0, 2 * np.pi, 6, endpoint=False):
            lines.append(f"{0.01 * np.cos(a):.6f}, {0.01 * np.sin(a):.6f}, positive")
        path = tmp_path / "t.dat"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["typify", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.strip().splitlines()[-1] == "100.00 0.00 0.00 0.00"

    @pytest.mark.parametrize("p", ["0", "-1", "nan"])
    def test_p_not_positive_exits_2(self, runner, tmp_path, p):
        data = keel_blob_file(tmp_path)
        result = runner.invoke(main, ["typify", str(data), "--p", p])
        assert result.exit_code == 2
        assert "p must be > 0" in result.output

    @pytest.mark.parametrize("p", ["0.5", "inf"])
    def test_fractional_and_chebyshev_p_accepted(self, runner, tmp_path, p):
        data = keel_blob_file(tmp_path)
        result = runner.invoke(main, ["typify", str(data), "--p", p])
        assert result.exit_code == 0, result.output

    def test_per_object_csv(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        per = tmp_path / "types.csv"
        result = runner.invoke(main, ["typify", str(data), "--per-object", str(per)])
        assert result.exit_code == 0
        lines = per.read_text().strip().splitlines()
        assert lines[0] == "row,category"
        assert len(lines) == 1 + 10


class TestStats:
    def test_summary_line(self, runner, tmp_path):
        data = keel_blob_file(tmp_path, n_majority=30, n_minority=10)
        result = runner.invoke(main, ["stats", str(data)])
        assert result.exit_code == 0
        line = result.output.strip()
        assert line.startswith("ir=3.00 samples=40 features=2 safe=")

    def test_malformed_numeric_range_exits_1(self, runner, tmp_path):
        path = keel_blob_file(tmp_path)
        path.write_text(path.read_text().replace("@attribute x real", "@attribute x real [a, b]"))
        result = runner.invoke(main, ["stats", str(path)])
        assert result.exit_code == 1
        assert "parse error: line 2: malformed numeric range" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("bounds", ["[10.0, 0.0]", "[nan, 1]", "[inf, -inf]"])
    def test_reversed_or_non_finite_range_exits_1(self, runner, tmp_path, bounds):
        path = keel_blob_file(tmp_path)
        path.write_text(
            path.read_text().replace("@attribute x real", f"@attribute x real {bounds}")
        )
        result = runner.invoke(main, ["stats", str(path)])
        assert result.exit_code == 1
        assert "parse error: line 2: numeric range" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestPotentialGrid:
    def test_grid_cell_count(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            ["potential-grid", str(data), "--gamma", "1.0", "--resolution", "50",
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 1 + 2500

    def test_resolution_one_exits_2(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        result = runner.invoke(
            main, ["potential-grid", str(data), "--gamma", "1.0", "--resolution", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ("a,b,c,d", "bounds must be numbers"),
            ("0,1,0", "bounds must be 'auto'"),
            ("0,inf,0,1", "bounds and their cell widths must be finite"),
            ("-1e308,1e308,0,1", "bounds and their cell widths must be finite"),
        ],
    )
    def test_bad_bounds_exit_2(self, runner, tmp_path, bounds, message):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "grid.csv"
        result = runner.invoke(
            main, ["potential-grid", str(data), "--gamma", "1.0", "--bounds", bounds,
                   "-o", str(out)]
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_auto_bounds_past_float_range_exit_2_quietly(self, runner, tmp_path):
        # The x span -1e308..1e308 overflows; it is refused before any padding
        # arithmetic can warn.
        path = tmp_path / "huge.dat"
        path.write_text(
            KEEL_IMBALANCED_HEADER
            + "-1e308, 0.0, negative\n1e308, 1.0, negative\n0.0, 0.5, positive\n"
        )
        out = tmp_path / "grid.csv"
        result = runner.invoke(
            main, ["potential-grid", str(path), "--gamma", "1.0", "-o", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr == "parameter error: bounds and their cell widths must be finite\n"
        assert not out.exists()

    def test_non_2d_exits_2(self, runner, tmp_path):
        path = tmp_path / "d3.csv"
        path.write_text("a,b,c,class\n1,2,3,x\n4,5,6,y\n7,8,9,x\n")
        result = runner.invoke(main, ["potential-grid", str(path), "--gamma", "1.0"])
        assert result.exit_code == 2

    def test_class_swap_negates_cells(self, runner, tmp_path):
        data = keel_blob_file(tmp_path, n_majority=10, n_minority=10, seed=9)
        args = ["potential-grid", str(data), "--gamma", "2.0", "--resolution", "6",
                "--bounds", "-2,5,-2,5"]
        one = runner.invoke(main, args + ["--minority-label", "positive"])
        other = runner.invoke(main, args + ["--minority-label", "negative"])
        assert one.exit_code == 0 and other.exit_code == 0
        a = np.array([[float(v) for v in line.split(",")]
                      for line in one.output.strip().splitlines()[1:]])
        b = np.array([[float(v) for v in line.split(",")]
                      for line in other.output.strip().splitlines()[1:]])
        np.testing.assert_allclose(a[:, 2], -b[:, 2], atol=1e-12)

    def test_json_output(self, runner, tmp_path):
        data = keel_blob_file(tmp_path)
        out = tmp_path / "grid.json"
        result = runner.invoke(
            main,
            ["potential-grid", str(data), "--gamma", "1.0", "--resolution", "4",
             "-o", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["resolution"] == 4
        assert len(doc["values"]) == 4


class TestEvaluateAndSweep:
    def test_evaluate_none_and_rus_knn(self, runner, tmp_path):
        data = keel_blob_file(tmp_path, n_majority=36, n_minority=12)
        out = tmp_path / "rep"
        result = runner.invoke(
            main,
            ["evaluate", str(data), "--method", "none", "--method", "rus",
             "--classifier", "knn", "--seed", "3", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert len(doc["runs"]) == 20
        assert (tmp_path / "rep.csv").exists()

    def test_sweep_with_grid_file(self, runner, tmp_path):
        data = keel_blob_file(tmp_path, n_majority=36, n_minority=12)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "methods": [
                {"name": "none", "method": "none"},
                {"name": "rbu", "method": "rbu",
                 "grid": {"gamma": [0.1, 1.0], "ratio": [1.0]}},
            ]
        }))
        out = tmp_path / "rep"
        result = runner.invoke(
            main,
            ["sweep", str(data), "--grid-file", str(grid_file),
             "--classifier", "gnb", "--seed", "3", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["methods"] == ["none", "rbu"]
        specs = {r["spec"] for r in doc["runs"] if r["method"] == "rbu"}
        assert specs <= {"rbu(gamma=0.1, ratio=1.0)", "rbu(gamma=1.0, ratio=1.0)"}

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "rus", "method": "rus", "grid": {"ratoi": [1.0]}},
            {"name": "smote", "method": "smote", "grid": {"k": [2.7], "ratio": [1.0]}},
            {"name": "stl", "method": "pipeline",
             "stages": [{"method": "smote", "grid": {"k": [3], "ratio": [1.0]}},
                        {"method": "tomek", "grid": {"k": [3]}}]},
            {"name": "rus", "method": "rus", "grid": [1.0]},
            {"name": "rus", "method": "rus", "grid": {"ratio": 1.0}},
            {"name": "rus", "method": "rus", "grid": {"ratio": []}},
            1,
            {"name": "stl", "method": "pipeline", "stages": [1]},
        ],
        ids=["misspelled", "fractional-k", "stage-extra", "grid-list", "axis-scalar",
             "axis-empty", "entry-not-object", "stage-not-object"],
    )
    def test_invalid_grid_file_refused_before_any_report(self, runner, tmp_path, entry):
        data = keel_blob_file(tmp_path, n_majority=36, n_minority=12)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"methods": [{"name": "none", "method": "none"}, entry]}))
        result = runner.invoke(
            main,
            ["sweep", str(data), "--grid-file", str(grid_file), "--classifier", "gnb",
             "--seed", "3", "-o", str(tmp_path / "rep")],
        )
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_refused_before_any_report(self, runner, tmp_path, repeats):
        data = keel_blob_file(tmp_path, n_majority=36, n_minority=12)
        result = runner.invoke(
            main,
            ["sweep", str(data), "--method", "rus", "--repeats", repeats, "--seed", "3",
             "-o", str(tmp_path / "rep")],
        )
        assert result.exit_code == 2, result.output
        assert "repeats" in result.output
        assert not (tmp_path / "rep.json").exists()
        assert not (tmp_path / "rep.csv").exists()

    def test_sweep_unknown_filter_method(self, runner, tmp_path):
        data = keel_blob_file(tmp_path, n_majority=36, n_minority=12)
        result = runner.invoke(
            main, ["sweep", str(data), "--method", "madeup", "--seed", "3"]
        )
        assert result.exit_code == 2

    def test_directory_input(self, runner, tmp_path):
        folder = tmp_path / "data"
        folder.mkdir()
        keel_blob_file(folder, "a.dat", 30, 10, seed=1)
        keel_blob_file(folder, "b.dat", 30, 10, seed=2)
        out = tmp_path / "rep"
        result = runner.invoke(
            main,
            ["evaluate", str(folder), "--method", "none", "--classifier", "knn",
             "--seed", "3", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["datasets"] == ["a", "b"]


class TestPresetGrids:
    def test_final_preset_matches_published_grids(self):
        grids = preset_grids("paper-final")
        rbu_grid = grids["rbu"]
        assert len(rbu_grid) == 12
        gammas = sorted({s.params["gamma"] for s in rbu_grid})
        ratios = sorted({s.params["ratio"] for s in rbu_grid})
        assert gammas == [0.01, 0.1, 1.0, 10.0]
        assert ratios == [0.5, 0.75, 1.0]
        assert {s.params["k"] for s in grids["smote"]} == {1, 3, 5, 7, 9}
        assert {s.params["k"] for s in grids["enn"]} == {1, 3, 5, 7}
        assert len(grids["stl"]) == 15 and len(grids["senn"]) == 15
        assert set(grids) == {
            "none", "rbu", "rus", "ros", "smote", "enn", "renn", "tomek", "nm",
            "stl", "senn",
        }

    def test_prelim_preset_matches_published_grids(self):
        grids = preset_grids("paper-prelim")
        rbu_grid = grids["rbu"]
        assert len(rbu_grid) == 36
        assert sorted({s.params["gamma"] for s in rbu_grid}) == [
            0.001, 0.01, 0.1, 1.0, 10.0, 100.0,
        ]
        assert sorted({s.params["ratio"] for s in rbu_grid}) == [
            0.0, 0.2, 0.4, 0.6, 0.8, 1.0,
        ]
