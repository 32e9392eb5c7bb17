"""Command-line behavior: outputs, determinism, exit codes."""

import os

import numpy as np
import pytest

from chebheat.cli import bound_table_data, main
from chebheat.diffusion import _lambda_floor, expm_multiscale
from chebheat.graphs import build_laplacian, erdos_renyi, load_graph, load_signal

from helpers import same_operator

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


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
        # power iteration runs here, from a fixed start vector
        args = ("diffuse", "--graph", "er:30:0.2:5", "--signal", "normal:8",
                "--scales", "0.2,2.0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2 and "setup_matvecs=0" not in out1
        # --seed seeds graphs only: gen-graph and bound-table take it, diffuse does not
        with pytest.raises(SystemExit):
            main([*args, "--seed", "3"])

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
        assert code == 0 and "kind=new-generic" in out

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

    def test_bad_scales_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "diffuse", "--graph", "er:20:0.3:1",
                           "--signal", "dirac:0", "--scales", "lin:1:2")
        assert code == 2 and "--scales" in err


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

    @pytest.mark.parametrize("golden, argv", [
        ("diffuse_combinatorial.csv",
         ["--graph", os.path.join(DATA, "weighted.txt"), "--signal", "normal:5",
          "--scales", "log:1e-2:10:6", "--tol", "1e-8"]),
        ("diffuse_normalized.csv",
         ["--graph", "er:50:0.2:3", "--laplacian", "normalized", "--lambda-max", "2",
          "--signal", "dirac:0", "--scales", "lin:0:4:5", "--tol", "1e-10"]),
    ])
    def test_bytes_match_golden_file(self, tmp_path, golden, argv):
        # the golden files were written by the per-value writer that the
        # block writer replaced
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

    def test_no_true_skips_oracle(self, capsys):
        code, out, _ = run(capsys, "bound-table", "--n", "30", "--p", "0.2",
                           "--trials", "2", "--scales", "1.0", "--no-true")
        assert code == 0
        assert "k_true" not in out

    def test_true_table_bytes_match_golden_file(self, tmp_path):
        # the golden file was written when the oracle diagonalized by cyclic
        # Jacobi and min_order scanned every order: LAPACK and the
        # bracketing search must give the same orders, byte for byte
        out = tmp_path / "table.csv"
        assert main(["bound-table", "--n", "60", "--p", "0.1", "--trials", "2",
                     "--scales", "log:1e-2:1e2:9", "--tol", "1e-5", "--seed", "3", "--true",
                     "--out", str(out)]) == 0
        with open(os.path.join(DATA, "bound_table_true.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_trial_computes_lambda_floor_once(self):
        # every scale's true order checks the trial's lambda against the
        # floor; it ran once per scale, 25 times a trial on the benchmark
        _lambda_floor.cache_clear()
        bound_table_data(30, 0.2, 1, [0.1, 1.0, 10.0], 1e-8, 0, with_true=True)
        info = _lambda_floor.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_oracle_cap_exit_2(self, capsys):
        code, _, err = run(capsys, "bound-table", "--n", "501", "--p", "0.01",
                           "--trials", "1", "--scales", "1.0")
        assert code == 2 and "dense oracle" in err

