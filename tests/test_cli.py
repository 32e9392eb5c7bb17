"""Command-line behavior: outputs, determinism, exit codes."""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import chebheat._rows
import chebheat.cli
import chebheat.oracle
from chebheat.bounds import energy_ratio, min_order, true_min_order
from chebheat.cli import _TABLE_KINDS, bound_table_data, main
from chebheat.diffusion import expm_multiscale
from chebheat.errors import NumericalError
from chebheat.graphs import build_laplacian, erdos_renyi, load_graph, load_signal
from chebheat.oracle import _dense_lambda

from helpers import order_cap, same_operator

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# each golden diffuse file and the argv that writes it; TestGoldenFiles
# holds every .csv under tests/data to this list or to the two tables below
GOLDEN_DIFFUSE = [
    # the first four were written by auto before it ran the tail kinds or
    # summed each scale to its own order; they name the kind it took then
    ("diffuse_combinatorial.csv",
     ["--graph", os.path.join(DATA, "weighted.txt"), "--signal", "normal:5",
      "--scales", "log:1e-2:10:6", "--tol", "1e-8", "--bound", "new-specific"]),
    ("diffuse_normalized.csv",
     ["--graph", "er:50:0.2:3", "--laplacian", "normalized", "--lambda-max", "2",
      "--signal", "dirac:0", "--scales", "lin:0:4:5", "--tol", "1e-10",
      "--bound", "new-specific"]),
    # past the crossover (tau_eff 212), where the baseline beats the new bound
    ("diffuse_baseline.csv",
     ["--graph", "er:50:0.15:4", "--signal", "normal:2", "--scales", "0,1,5,30",
      "--tol", "1e-8", "--bound", "base-specific"]),
    # tail-specific at K 55, where new-specific needs 67 and base-specific 81
    ("diffuse_tail.csv",
     ["--graph", "er:50:0.2:3", "--laplacian", "normalized", "--signal", "normal:3",
      "--scales", "0,1,10,100", "--tol", "1e-10", "--bound", "tail-specific"]),
    # auto on the same run: tail-specific, each scale summed to its own order,
    # so the columns at tau 1 and 10 move; K is still the recurrence's 55
    ("diffuse_per_scale.csv",
     ["--graph", "er:50:0.2:3", "--laplacian", "normalized", "--signal", "normal:3",
      "--scales", "0,1,10,100", "--tol", "1e-10"]),
]
# the bound-table argv of both golden tables. bound_table_true.csv was written
# when --true rescaled by the power estimate: it keeps passing through a
# --no-true run and true_min_order, which still take that estimate. --true
# now rescales by the dense spectrum's top eigenvalue and writes
# bound_table_dense.csv
TABLE_ARGV = ["--n", "60", "--p", "0.1", "--trials", "2", "--scales", "log:1e-2:1e2:9",
              "--tol", "1e-5", "--seed", "3"]
TRUE_TABLE, DENSE_TABLE = "bound_table_true.csv", "bound_table_dense.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def count_graph_work(monkeypatch):
    """Count the command line's ER draws and Laplacian builds, in a dict that stays live."""
    calls = {"erdos_renyi": 0, "build_laplacian": 0}
    for name in calls:
        def counted(*args, inner=getattr(chebheat.cli, name), name=name, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(chebheat.cli, name, counted)
    return calls


# a diffuse and a bound-table argv that take --scales; stderr must hold the one error line
GRID_TAKERS = [["diffuse", "--graph", "er:20:0.3:1", "--signal", "dirac:0"],
               ["bound-table", "--n", "20", "--p", "0.3", "--trials", "1"]]


@pytest.mark.parametrize("argv", GRID_TAKERS, ids=["diffuse", "bound-table"])
@pytest.mark.parametrize("grid, bad", [("lin:1:inf:2", "inf"), ("lin:-1e308:1e308:3", "-1e+308"),
                                       ("log:1:inf:3", "inf")])
def test_grid_endpoints_refused_before_numpy_spans_them(capsys, argv, grid, bad):
    # numpy's spans once turned these into NaN, with a RuntimeWarning on
    # stderr, and the refusal said "got nan"
    code, out, err = run(capsys, *argv, "--scales", grid)
    assert (code, out) == (2, "")
    assert err == f"error: scales must be finite and non-negative, got {bad}\n"


@pytest.mark.parametrize("launch", [["-m", "chebheat.cli"],
                                    ["-c", "from chebheat.cli import entry; entry()"]],
                         ids=["python -m", "entry"])
def test_process_exit_code_is_mains(launch):
    # the installed script and python -m both exit with main's code
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *launch, "diffuse", "--graph", "er:10:0.5:1",
                           "--signal", "dirac:0", "--scales", "1", "--tol", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: tol must be positive, got 0.0\n"


class TestGenGraph:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["gen-graph", "--n", "200", "--p", "0.05", "--seed", "1", "--out", str(a)]) == 0
        assert main(["gen-graph", "--n", "200", "--p", "0.05", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_records_parameters(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["gen-graph", "--n", "10", "--p", "0.3", "--seed", "4", "--out", str(out)])
        text = out.read_text()
        assert "n=10" in text and "p=" in text and "seed=4" in text

    def test_round_trip_matrix(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["gen-graph", "--n", "40", "--p", "0.1", "--seed", "2", "--out", str(out)])
        edges, n = load_graph(out)
        from chebheat.graphs import erdos_renyi
        direct = build_laplacian(erdos_renyi(40, 0.1, seed=2), 40)
        assert same_operator(build_laplacian(edges, n), direct)


class TestDiffuse:
    def test_scale_zero_returns_input(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        main(["gen-graph", "--n", "12", "--p", "0.4", "--seed", "1", "--out", str(g)])
        code, out, _ = run(capsys, "diffuse", "--graph", str(g), "--signal", "dirac:3",
                           "--scales", "0", "--tol", "1e-6")
        assert code == 0
        rows = data_lines(out)[1:]  # drop the column header
        values = [float(r.split(",")[1]) for r in rows]
        assert values[3] == 1.0 and sum(values) == 1.0

    def test_header_carries_run_facts(self, capsys):
        code, out, _ = run(capsys, "diffuse", "--graph", "er:30:0.2:1",
                           "--signal", "normal:3", "--scales", "0.5,1.0")
        assert code == 0
        header = "\n".join(ln for ln in out.splitlines() if ln.startswith("#"))
        for key in ("K=", "lambda_max=", "kind=", "bound=", "matvecs="):
            assert key in header

    def test_lambda_override_in_header(self, capsys):
        code, out, _ = run(capsys, "diffuse", "--graph", "er:20:0.3:2",
                           "--signal", "dirac:0", "--scales", "1.0",
                           "--laplacian", "normalized", "--lambda-max", "2.0")
        assert code == 0
        assert "lambda_max=2" in out
        assert "setup_matvecs=0" in out

    def test_column_count_matches_grid(self, capsys):
        code, out, _ = run(capsys, "diffuse", "--graph", "er:25:0.2:3",
                           "--signal", "const:1", "--scales", "log:1e-2:1e0:7")
        assert code == 0
        header_cols = data_lines(out)[0].split(",")
        assert len(header_cols) == 8  # node + 7 scales

    def test_deterministic(self, capsys):
        # power iteration runs here, for one of the paper's kinds, from a fixed start vector
        args = ("diffuse", "--graph", "er:30:0.2:5", "--signal", "normal:8",
                "--scales", "0.2,2.0", "--bound", "new-specific")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2 and "setup_matvecs=0" not in out1
        # --seed seeds graphs only: gen-graph and bound-table take it, diffuse does not
        with pytest.raises(SystemExit):
            main([*args, "--seed", "3"])

    @pytest.mark.parametrize("form", ["er", "file"])
    def test_bad_signal_exit_2_before_the_graph_is_drawn_or_built(self, capsys, monkeypatch,
                                                                  tmp_path, form):
        # the signal was once checked after the draw and the build: 0.39 s on
        # er:20000:0.001:1 before this refusal
        graph = "er:200:0.05:1"
        if form == "file":
            graph = str(tmp_path / "g.txt")
            assert main(["gen-graph", "--n", "200", "--p", "0.05", "--seed", "1",
                         "--out", graph]) == 0
        calls = count_graph_work(monkeypatch)
        argv = ("diffuse", "--graph", graph, "--scales", "1")
        code, out, err = run(capsys, *argv, "--signal", "dirac:200")
        assert (code, out, err) == (2, "", "error: dirac node 200 out of range for n=200\n")
        assert calls == {"erdos_renyi": 0, "build_laplacian": 0}
        assert run(capsys, *argv, "--signal", "dirac:199")[0] == 0
        assert calls == {"erdos_renyi": int(form == "er"), "build_laplacian": 1}

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_lambda_max_exit_2_before_the_graph_is_drawn(self, capsys, monkeypatch, lam):
        # refused by its value rule beside --scales and --tol: -1 once came
        # after er:20000:0.001:1 was drawn and built, 0.68 s
        calls = count_graph_work(monkeypatch)
        code, out, err = run(capsys, "diffuse", "--graph", "er:20000:0.001:1", "--signal",
                             "dirac:0", "--scales", "1", "--lambda-max", lam)
        assert (code, out, err) == (2, "", "error: lambda_max must be finite and non-negative\n")
        assert calls == {"erdos_renyi": 0, "build_laplacian": 0}

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "diffuse", "--graph", "nope.txt",
                           "--signal", "dirac:0", "--scales", "1")
        assert code == 2 and err

    def test_zero_sum_signal_with_specific_bound_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("# n=2\n0 1 1\n")
        code, _, err = run(capsys, "diffuse", "--graph", str(g), "--signal", "const:0",
                           "--scales", "1", "--bound", "new-specific")
        assert code == 2 and "sum to zero" in err

    @pytest.mark.parametrize("bound", ["auto", "new-generic"])
    def test_overflowing_degree_exit_2(self, capsys, tmp_path, bound):
        # once "tau_eff must be non-negative" (auto) or 10000 power iterations
        g = tmp_path / "g.txt"
        g.write_text("0 1 1e308\n0 2 1e308\n")
        code, _, err = run(capsys, "diffuse", "--graph", str(g), "--signal", "dirac:1",
                           "--scales", "1", "--bound", bound)
        assert code == 2 and "degree of node 0 overflows" in err

    def test_cancelled_sum_signal_with_specific_bound_exit_2(self, capsys, tmp_path):
        # the sum is 1e-170, whose square underflows: the same rule as an exact
        # zero sum, not "no order up to 20000 certifies" and exit 3
        g, x = tmp_path / "g.txt", tmp_path / "x.txt"
        g.write_text("0 1\n1 2\n")
        x.write_text("1\n-1\n1e-170\n")
        argv = ("diffuse", "--graph", str(g), "--signal", str(x), "--scales", "1")
        code, _, err = run(capsys, *argv, "--bound", "new-specific")
        assert code == 2 and "sum to zero" in err
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "kind=tail-generic" in out

    def test_tiny_signal_certifies_like_unit_signal(self, capsys, tmp_path):
        # (sum x)^2 of a 1e-200 signal underflows in plain floats
        x = np.random.default_rng(0).standard_normal(50)
        outs = []
        for name, factor in (("unit.txt", 1.0), ("tiny.txt", 1e-200)):
            path = tmp_path / name
            path.write_text("".join(f"{v:.17g}\n" for v in factor * x))
            code, out, _ = run(capsys, "diffuse", "--graph", "er:50:0.2:3", "--signal",
                               str(path), "--scales", "1,3", "--tol", "1e-8")
            assert code == 0
            outs.append(out.splitlines()[2])
        assert outs[0].split()[:4] == outs[1].split()[:4]  # same K, lambda and kind

    def test_order_cap_exit_3(self, capsys):
        # effective scale so large that no order under the cap can certify
        code, _, err = run(capsys, "diffuse", "--graph", "er:20:0.3:1",
                           "--signal", "dirac:0", "--scales", "100000",
                           "--bound", "new-generic")
        assert code == 3 and err

    def test_new_family_past_the_cap_runs_on_the_baseline(self, capsys):
        # at the certified ceiling 44.43, tau_eff is 88857: new-specific needs
        # K >= 44428, past the cap of 20000, and so does the tail's cutoff, so
        # tail-specific is the baseline's order
        code, out, _ = run(capsys, "diffuse", "--graph", "er:300:0.05:1", "--signal", "normal:1",
                           "--scales", "4000", "--tol", "1e-8")
        assert code == 0
        head = dict(field.split("=") for field in out.splitlines()[2][2:].split())
        assert (head["K"], head["kind"]) == ("2292", "tail-specific")
        assert float(head["bound"]) <= 1e-8

    def test_every_family_past_the_cap_exits_3_with_the_tail_message(self, capsys):
        code, _, err = run(capsys, "diffuse", "--graph", "er:20:0.3:1",
                           "--signal", "dirac:0", "--scales", "1e7")
        assert code == 3 and "no order up to 20000 certifies tol=1e-05 for tail-specific" in err

    def test_overflowing_scale_exit_3(self, capsys):
        # lambda_hat * 1e308 / 2 overflows to inf, where neither family certifies any order
        code, out, err = run(capsys, "diffuse", "--graph", "er:30:0.2:1",
                             "--signal", "normal:1", "--scales", "1e308")
        assert (code, out) == (3, "")
        assert "no order up to 20000 certifies" in err and "tau_eff=inf" in err

    def test_bad_scales_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "diffuse", "--graph", "er:20:0.3:1",
                           "--signal", "dirac:0", "--scales", "lin:1:2")
        assert code == 2 and "--scales" in err

    @pytest.mark.parametrize("flag, spec, message", [
        ("--scales", "lin:a:1:3", "--scales 'lin:a:1:3': start 'a' is not a valid float"),
        ("--scales", "log:1:10:x", "--scales 'log:1:10:x': count 'x' is not a valid int"),
        ("--signal", "normal:1.5", "signal spec 'normal:1.5': seed '1.5' is not a valid int"),
        ("--signal", "dirac:x", "signal spec 'dirac:x': node k 'x' is not a valid int"),
        ("--signal", "const:abc", "signal spec 'const:abc': value v 'abc' is not a valid float"),
        ("--graph", "er:10:x:1", "--graph 'er:10:x:1': p 'x' is not a valid float"),
        # numpy seeds no generator with a negative int
        ("--graph", "er:10:0.5:-1", "--graph 'er:10:0.5:-1': seed '-1' is negative"),
        ("--signal", "normal:-1", "signal spec 'normal:-1': seed '-1' is negative"),
        ("bound-table --seed", "-1", "--seed '-1': seed '-1' is negative"),
        ("gen-graph --seed", "-1", "--seed '-1': seed '-1' is negative"),
    ])
    def test_bad_spec_field_names_the_spec_and_field(self, capsys, tmp_path, flag, spec, message):
        command, _, flag = flag.rpartition(" ")  # a flag alone is one of diffuse
        command = command or "diffuse"
        argv = {"diffuse": {"--graph": "er:20:0.3:1", "--signal": "dirac:0", "--scales": "1"},
                "bound-table": {"--trials": "1", "--scales": "1"},
                "gen-graph": {"--n": "5", "--p": "0.5", "--out": str(tmp_path / "g.txt")}}[command]
        argv[flag] = spec
        code, out, err = run(capsys, command, *(a for item in argv.items() for a in item))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_normalized_skips_power_iteration(self, capsys):
        code, out, _ = run(capsys, "diffuse", "--graph", "er:20:0.3:2",
                           "--signal", "dirac:0", "--scales", "1.0", "--laplacian", "normalized")
        assert code == 0
        assert "lambda_max=2 " in out and "setup_matvecs=0" in out

    @pytest.mark.parametrize("lam", ["18.742", "0"])
    def test_too_small_lambda_exit_2(self, capsys, lam):
        # er:200:0.05:7 has lambda_max 20.824; 18.742 is 0.9 times that
        code, _, err = run(capsys, "diffuse", "--graph", "er:200:0.05:7", "--signal", "normal:1",
                           "--scales", "5", "--tol", "1e-8", "--lambda-max", lam)
        assert code == 2 and "lambda_max" in err

    @pytest.mark.parametrize("golden, argv", GOLDEN_DIFFUSE)
    def test_bytes_match_golden_file(self, tmp_path, golden, argv):
        # the first two golden files were written by the per-value writer that
        # the block writer replaced
        out = tmp_path / "out.csv"
        assert main(["diffuse", *argv, "--out", str(out)]) == 0
        with open(os.path.join(DATA, golden), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_rows_match_per_value_format_across_blocks(self, tmp_path):
        n, scales = 9000, [0.01, 0.3, 4.0]
        out = tmp_path / "out.csv"
        assert main(["diffuse", "--graph", "er:9000:0.001:1", "--signal", "normal:2",
                     "--scales", "0.01,0.3,4.0", "--tol", "1e-6", "--out", str(out)]) == 0
        op = build_laplacian(erdos_renyi(n, 0.001, seed=1), n)
        cols = [y for y, _ in expm_multiscale(op, load_signal("normal:2", n), scales, tol=1e-6)]
        expected = [str(i) + "," + ",".join(format(float(c[i]), ".17g") for c in cols)
                    for i in range(n)]
        assert data_lines(out.read_text())[1:] == expected

    def test_negative_zero_prints_as_percent_does(self, tmp_path, capsys):
        # scale 0 returns the signal, whose -0.0 entries print as -0; the
        # rows span more than one block of the writer
        n = 12000
        x = np.random.default_rng(5).standard_normal(n)
        x[::7] = -0.0
        sig = tmp_path / "x.txt"
        sig.write_text("".join(f"{v!r}\n" for v in x.tolist()), encoding="utf-8")
        code, out, _ = run(capsys, "diffuse", "--graph", f"er:{n}:0.0005:1", "--signal", str(sig),
                           "--scales", "0,1")
        assert code == 0
        rows = data_lines(out)[1:]
        assert len(rows) > chebheat._rows._BLOCK_VALUES // 3
        op = build_laplacian(erdos_renyi(n, 0.0005, seed=1), n)
        (y0, _), (y1, _) = expm_multiscale(op, load_signal(str(sig), n), [0.0, 1.0], tol=1e-5)
        assert rows == ["%d,%.17g,%.17g" % r for r in zip(range(n), y0.tolist(), y1.tolist())]
        assert [r.split(",")[1] for r in rows[::7]] == ["-0"] * len(x[::7])


class TestBoundTable:
    def test_tau_zero_row_all_zero(self, capsys):
        code, out, _ = run(capsys, "bound-table", "--n", "20", "--p", "0.3",
                           "--trials", "2", "--scales", "0")
        assert code == 0
        row = data_lines(out)[1].split(",")
        assert float(row[0]) == 0.0
        assert all(float(v) == 0.0 for v in row[1:])

    def test_true_column_lower_bounds_rest(self, capsys):
        code, out, _ = run(capsys, "bound-table", "--n", "40", "--p", "0.15",
                           "--trials", "3", "--scales", "0.05,0.5,2.0")
        assert code == 0
        head = data_lines(out)[0].split(",")
        rows = [ln.split(",") for ln in data_lines(out)[1:]]
        med = {name: i for i, name in enumerate(head)}
        for row in rows:
            k_true = float(row[med["k_true_median"]])
            for name in ("k_new_generic_median", "k_new_specific_median",
                         "k_base_generic_median", "k_base_specific_median"):
                assert k_true <= float(row[med[name]])

    @pytest.mark.parametrize("true", ["--true", "--no-true"])
    def test_columns_are_the_papers_four_kinds(self, capsys, true):
        # the tail kinds are auto's, not the paper's table: bound-table leaves them out
        code, out, _ = run(capsys, "bound-table", "--n", "20", "--p", "0.3", "--trials", "1",
                           "--scales", "1.0", true)
        assert code == 0
        names = ["true"] * (true == "--true") + ["new_generic", "new_specific",
                                                 "base_generic", "base_specific"]
        assert data_lines(out)[0].split(",") == ["tau", "tau_eff_median"] + [
            f"k_{name}_{q}" for name in names for q in ("q25", "median", "q75")]
        data = bound_table_data(20, 0.3, 1, [1.0], 1e-5, 0, with_true=False)
        assert [kind.value for kind in data["orders"]] == [
            "new-generic", "new-specific", "base-generic", "base-specific"]

    def test_no_true_skips_oracle(self, capsys):
        code, out, _ = run(capsys, "bound-table", "--n", "30", "--p", "0.2",
                           "--trials", "2", "--scales", "1.0", "--no-true")
        assert code == 0
        assert "k_true" not in out

    def test_true_table_bytes_match_golden_file(self, tmp_path):
        # the golden file was written by --true when it rescaled by the power
        # estimate, when the oracle diagonalized by cyclic Jacobi and min_order
        # scanned every order. Its certified columns are --no-true's, byte for
        # byte, and its k_true columns the quartiles of true_min_order at the
        # power estimate, as the command writes them
        out = tmp_path / "table.csv"
        assert main(["bound-table", *TABLE_ARGV, "--no-true", "--out", str(out)]) == 0
        with open(os.path.join(DATA, TRUE_TABLE), encoding="utf-8") as fh:
            golden = fh.read().splitlines()
        ours = out.read_text(encoding="utf-8").splitlines()
        assert golden[:2] == ours[:2]  # the command and argv lines
        golden = [line.split(",") for line in golden[2:]]
        ours = [line.split(",") for line in ours[2:]]
        assert [row[:2] + row[5:] for row in golden] == ours
        assert golden[0][2:5] == ["k_true_q25", "k_true_median", "k_true_q75"]
        taus = [float(row[0]) for row in golden[1:]]
        measured = [[true_min_order(build_laplacian(erdos_renyi(60, 0.1, 3 + t), 60),
                                    load_signal(f"normal:{3 + t + 10000}", 60), tau, 1e-5)
                     for tau in taus] for t in range(2)]
        quartiles = np.percentile(measured, [25.0, 50.0, 75.0], axis=0)
        assert [row[2:5] for row in golden[1:]] == [
            [format(float(q), ".17g") for q in column] for column in quartiles.T]

    def test_dense_table_bytes_match_golden_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bound-table", *TABLE_ARGV, "--true", "--out", str(out)]) == 0
        with open(os.path.join(DATA, DENSE_TABLE), "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize("with_true", [True, False])
    def test_trial_computes_no_lambda_floor_and_one_power_iteration(self, monkeypatch,
                                                                   with_true):
        # with the true orders a trial takes lambda_hat from the dense spectrum
        # they diagonalize anyway: no power iteration, and no given value
        # checked against the floor (passing an estimate back as lambda_max
        # once checked it at every scale). Without them, one power iteration
        calls = {"_lambda_floor": 0, "_power_iteration": 0}
        for name in calls:
            def counted(op, inner=getattr(chebheat.oracle, name), name=name):
                calls[name] += 1
                return inner(op)
            monkeypatch.setattr(chebheat.oracle, name, counted)
        bound_table_data(30, 0.2, 2, [0.1, 1.0, 10.0], 1e-8, 0, with_true=with_true)
        assert calls == {"_lambda_floor": 0, "_power_iteration": 0 if with_true else 2}

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exit_2_before_output(self, capsys, trials):
        # 0 trials once wrote the header, then crashed in np.percentile (exit 1)
        code, out, err = run(capsys, "bound-table", "--n", "20", "--p", "0.3",
                             "--trials", trials, "--scales", "1.0")
        assert (code, out) == (2, "")
        assert f"trials must be an integer >= 1, got {trials}" in err

    def test_overflowing_scale_exit_3(self, capsys):
        code, out, err = run(capsys, "bound-table", "--n", "20", "--p", "0.3", "--trials", "1",
                             "--scales", "1e308", "--no-true")
        assert (code, out) == (3, "")
        assert "no order up to 20000 certifies" in err and "tau_eff=inf" in err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_bad_scale_exit_2_before_output(self, capsys, scale):
        # NaN and inf once exited 3 from the order search, -1 with a tau_eff message
        code, out, err = run(capsys, "bound-table", "--n", "20", "--p", "0.3", "--trials", "1",
                             "--scales", f"1.0,{scale}")
        assert (code, out) == (2, "")
        assert f"scales must be finite and non-negative, got {float(scale)}" in err

    def test_trial_draws_one_basis(self, monkeypatch):
        # the rows T_k(D) x_hat of a trial serve all its scales: it draws
        # them to its largest measured order, rounded up to that order's
        # coefficient stage, not once per scale
        drawn = []

        def counted(apply, x, inner=chebheat.oracle.cheb_terms):
            for t in inner(apply, x):
                drawn[-1] += 1
                yield t

        def trial_start(*args, inner=chebheat.cli.erdos_renyi):
            drawn.append(0)
            return inner(*args)

        monkeypatch.setattr(chebheat.oracle, "cheb_terms", counted)
        monkeypatch.setattr(chebheat.cli, "erdos_renyi", trial_start)
        taus = [0.0, 0.1, 1.0, 10.0, 30.0]
        data = bound_table_data(40, 0.5, 2, taus, 1e-12, 7, with_true=True)
        tops = data["true"].max(axis=1)
        assert 64 < tops.max() <= 256
        assert drawn == [next(end for end in (64, 128, 256) if end >= k) + 1 for k in tops]

    def test_power_estimate_below_the_spectrum_exit_3(self, capsys):
        # the inflated power estimate 21.858 lies 3.6% below the top eigenvalue
        # 22.679, so at that estimate no order reaches the measured tol and the
        # command exited 3; it now rescales by the top eigenvalue itself
        code, _, err = run(capsys, "bound-table", "--true", "--n", "100", "--p", "0.1",
                           "--trials", "1", "--seed", "1351")
        assert code == 0, err

    @pytest.mark.parametrize("n, p, trials, seed, scales, tol, cap, first", [
        # scale 1's new-generic order passes the cap, and so would scale 2's
        # measured one: the certified error comes first
        (30, 0.2, 2, 0, "0.1,2.0,50.0", 1e-5, 30, "certifies"),
        # tol 1e-32 lies below the measurement's rounding floor, so scale 0's
        # measured order never reaches it; scale 1's certified orders pass the cap
        (100, 0.1, 1, 1351, "0.021544346900318832,1e4", 1e-32, 128, "measured"),
    ])
    def test_first_error_is_the_loops(self, capsys, n, p, trials, seed, scales, tol, cap,
                                      first):
        taus = [float(t) for t in scales.split(",")]
        with order_cap(cap):
            # a loop over the trials and scales: the four kinds, then the
            # measured order, each at the dense spectrum's lambda_hat
            with pytest.raises((ValueError, NumericalError)) as want:
                for t in range(trials):
                    op = build_laplacian(erdos_renyi(n, p, seed + t), n)
                    sig = load_signal(f"normal:{seed + t + 10000}", n)
                    ratio, lam = energy_ratio(sig, op), _dense_lambda(op)
                    for tau in taus:
                        for kind in _TABLE_KINDS:
                            min_order(kind, lam * tau / 2.0, tol, ratio=ratio)
                        true_min_order(op, sig, tau, tol, lambda_max=lam)
            with pytest.raises(want.type) as got:
                bound_table_data(n, p, trials, taus, tol, seed, with_true=True)
            code, out, err = run(capsys, "bound-table", "--n", str(n), "--p", str(p),
                                 "--trials", str(trials), "--scales", scales,
                                 "--tol", str(tol), "--seed", str(seed))
        assert str(got.value) == str(want.value)
        assert first in str(got.value)
        assert (code, out, err) == (3, "", f"error: {want.value}\n")

    def test_oracle_cap_exit_2(self, capsys):
        code, _, err = run(capsys, "bound-table", "--n", "501", "--p", "0.01",
                           "--trials", "1", "--scales", "1.0")
        assert code == 2 and "dense oracle" in err



class TestGoldenFiles:
    def test_every_csv_is_byte_compared(self):
        # a golden case dropped from GOLDEN_DIFFUSE would leave its file unread
        found = {os.path.relpath(path, DATA)
                 for path in glob.glob(os.path.join(DATA, "**", "*.csv"), recursive=True)}
        assert found == {golden for golden, _ in GOLDEN_DIFFUSE} | {TRUE_TABLE, DENSE_TABLE}
