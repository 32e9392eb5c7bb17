"""Sparse matrix layer: construction, validation, matvec, file formats."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebheat.graphs
from chebheat.cli import main
from chebheat.errors import ParseError
from chebheat.graphs import (GraphSignal, SparseSymMatrix, build_laplacian, erdos_renyi,
                             load_graph, load_signal, save_edge_list)

from helpers import (complete_edges, path_edges, reference_laplacian, reference_load_graph,
                     reference_load_signal, reference_save_edge_list, same_operator,
                     star_edges)


class TestBuildLaplacian:
    def test_path_two_nodes(self):
        L = build_laplacian([(0, 1)], 2)
        np.testing.assert_array_equal(L.to_dense(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_combinatorial(self):
        L = build_laplacian([(0, 1), (0, 2), (1, 2)], 3)
        dense = L.to_dense()
        np.testing.assert_array_equal(np.diag(dense), [2.0, 2.0, 2.0])
        assert dense[0, 1] == -1.0
        np.testing.assert_array_equal(dense, dense.T)

    def test_constant_vector_in_kernel(self):
        L = build_laplacian(star_edges(7), 7)
        ones = np.ones(7)
        assert np.max(np.abs(L.matvec(ones))) == 0.0

    def test_weighted_edges(self):
        L = build_laplacian([(0, 1, 2.5)], 2)
        np.testing.assert_array_equal(L.to_dense(), [[2.5, -2.5], [-2.5, 2.5]])

    def test_duplicate_edges_sum(self):
        L = build_laplacian([(0, 1, 1.0), (1, 0, 0.5)], 2)
        assert L.to_dense()[0, 1] == -1.5

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_laplacian([(2, 2)], 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build_laplacian([(0, 1, -1.0)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_laplacian([(0, 5)], 3)

    def test_normalized_triangle(self):
        # K_3 normalized Laplacian has eigenvalues {0, 3/2, 3/2}
        L = build_laplacian(complete_edges(3), 3, kind="normalized")
        eig = np.linalg.eigvalsh(L.to_dense())
        np.testing.assert_allclose(eig, [0.0, 1.5, 1.5], atol=1e-14)

    def test_normalized_isolated_node_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            build_laplacian([(0, 1)], 3, kind="normalized")

    def test_combinatorial_isolated_node_ok(self):
        L = build_laplacian([(0, 1)], 3)
        assert L.matvec(np.array([0.0, 0.0, 1.0]))[2] == 0.0

    def test_empty_graph(self):
        L = build_laplacian([], 4)
        assert L.nnz == 0
        np.testing.assert_array_equal(L.matvec(np.arange(4.0)), np.zeros(4))

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_matches_edge_by_edge_assembly(self, kind):
        # non-dyadic weights and duplicates in both orientations: the
        # degree and duplicate sums must add in the same order as before
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = 40
            base = [(i, (i + 1) % n) for i in range(n)]  # a cycle: nobody isolated
            pairs = rng.integers(0, n, size=(300, 2))
            extra = [(int(a), int(b)) for a, b in pairs if a != b]
            extra += [(j, i) for i, j in extra[:100]]
            edges = [(i, j, float(w)) for (i, j), w in
                     zip(base + extra, rng.uniform(0.01, 3.0, len(base) + len(extra)))]
            ref = reference_laplacian(edges, n, kind)
            assert same_operator(build_laplacian(edges, n, kind), ref)
            assert same_operator(build_laplacian(np.array(edges), n, kind), ref)

    def test_array_and_mixed_edges(self):
        ref = build_laplacian([(0, 1, 1.0), (1, 2, 0.5)], 3)
        for edges in ([(0, 1), (1, 2, 0.5)], np.array([[0, 1, 1.0], [1, 2, 0.5]])):
            assert same_operator(build_laplacian(edges, 3), ref)
        two = build_laplacian(np.array([[0, 1], [1, 2]]), 3)
        assert same_operator(two, build_laplacian([(0, 1), (1, 2)], 3))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (0, 1, 2.0, 3.0)], "edge #1: expected"),
        ([(0, 1), (0, 1, 1.0), (3, 0)], r"edge #2: endpoint out of range for n=3: \(3, 0\)"),
        ([(0, 1), (2, 2), (0, 5)], "edge #1: self-loop at node 2"),
        ([(0, 1), (1, 2, 0.0), (2, 2)], "edge #1: weight must be positive and finite, got 0.0"),
        ([(0, 1, float("inf"))], "edge #0: weight must be positive and finite, got inf"),
        ([(0, -1)], r"edge #0: endpoint out of range for n=3: \(0, -1\)"),
    ])
    def test_errors_name_first_bad_edge(self, edges, message):
        with pytest.raises(ValueError, match=message):
            build_laplacian(edges, 3)

    def test_normalized_carries_spectral_bound(self):
        L = build_laplacian(complete_edges(4), 4, kind="normalized")
        assert L.spectral_bound == 2.0
        assert L.scaled(0.5).spectral_bound == 1.0
        assert build_laplacian(complete_edges(4), 4).spectral_bound is None


class TestSparseSymMatrix:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(5)
        L = build_laplacian(erdos_renyi(40, 0.2, seed=1), 40)
        dense = L.to_dense()
        for _ in range(5):
            x = rng.standard_normal(40)
            np.testing.assert_allclose(L.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)

    def test_scaled(self):
        L = build_laplacian([(0, 1)], 2)
        S = L.scaled(0.5)
        np.testing.assert_array_equal(S.to_dense(), 0.5 * L.to_dense())
        with pytest.raises(ValueError):
            L.scaled(-1.0)

    def test_arrays_locked(self):
        L = build_laplacian([(0, 1)], 2)
        with pytest.raises(ValueError):
            L.values[0] = 9.0

    def test_attributes_read_only(self):
        # results are cached per operator object, so none may change after use
        L = build_laplacian([(0, 1)], 2)
        for name in ("n", "row_ptr", "col_idx", "values"):
            with pytest.raises(AttributeError):
                setattr(L, name, getattr(L, name))

    def test_asymmetric_rejected(self):
        # hand-built CSR with a one-sided entry
        with pytest.raises(ValueError):
            SparseSymMatrix(2, np.array([0, 1, 1]), np.array([1]), np.array([1.0]))


class TestGraphSignal:
    def test_stats(self):
        s = GraphSignal([3.0, 4.0])
        assert s.n == 2
        np.testing.assert_array_equal(s.values, [3.0, 4.0])
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GraphSignal([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GraphSignal([])


class TestErdosRenyi:
    def test_deterministic(self):
        assert erdos_renyi(50, 0.1, seed=3) == erdos_renyi(50, 0.1, seed=3)

    def test_seed_changes_graph(self):
        assert erdos_renyi(50, 0.1, seed=3) != erdos_renyi(50, 0.1, seed=4)

    def test_edge_count_near_expectation(self):
        # E = p * n(n-1)/2 = 995 for n=200, p=0.05; allow 5 sigma (~93)
        for seed in range(3):
            m = len(erdos_renyi(200, 0.05, seed=seed))
            assert abs(m - 995) < 95

    def test_dense_limit(self):
        # p ~ 1 must connect essentially every pair
        hits = sum(len(erdos_renyi(2, 0.999999, seed=s)) for s in range(1000))
        assert hits >= 999

    def test_p_outside_open_interval_rejected(self):
        for p in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                erdos_renyi(10, p, seed=0)


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        edges = erdos_renyi(30, 0.2, seed=2)
        save_edge_list(path, edges, 30)
        loaded, n = load_graph(path)
        assert n == 30
        a = build_laplacian(edges, 30)
        b = build_laplacian(loaded, n)
        assert same_operator(a, b)

    def test_declared_n_preserves_isolated_tail(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(path, [(0, 1)], 5)
        _, n = load_graph(path)
        assert n == 5

    def test_undeclared_n_from_max_index(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 3\n1 2\n")
        _, n = load_graph(path)
        assert n == 4

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nzap\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 2

    def test_matrix_market_round_trip(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.0\n"
            "3 2 2.0\n"
        )
        edges, n = load_graph(path)
        assert n == 3
        dense = build_laplacian(edges, n).to_dense()
        assert dense[0, 1] == -1.0 and dense[1, 2] == -2.0

    def test_matrix_market_pattern(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 1\n"
            "2 1\n"
        )
        edges, n = load_graph(path)
        assert edges.tolist() in ([[1, 0, 1.0]], [[0, 1, 1.0]])

    def test_edge_list_round_trip_weighted(self, tmp_path):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(3)
        edges = [(i, i + 1, float(w)) for i, w in enumerate(rng.uniform(0.1, 2.0, 50))]
        save_edge_list(path, edges, 60)
        loaded, n = load_graph(path)
        assert n == 60
        np.testing.assert_array_equal(loaded, np.array(edges))

    def test_committed_weighted_file(self):
        path = os.path.join(os.path.dirname(__file__), "data", "weighted.txt")
        edges, n = load_graph(path)
        ref_edges, ref_n = reference_load_graph(path)
        assert n == ref_n == 13
        np.testing.assert_array_equal(edges, np.array(ref_edges))

    def test_int_read_through_float_is_rejected(self, tmp_path, monkeypatch):
        # numpy from 1.23 reads the index 1.5 as 1 and only warns, a
        # DeprecationWarning hidden by default; the line-wise parser rejects it
        def warning_loadtxt(path, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            rows = np.zeros(1, dtype=dtype)
            rows["j"], rows["w"] = 1, 2.0
            return rows
        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "g.txt"
        path.write_text("0 1.5 2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ParseError, match="could not parse") as exc:
                load_graph(path)
        assert exc.value.line_no == 1

    def test_matrix_market_general_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
        with pytest.raises(ParseError):
            load_graph(path)


class TestLoadSignal:
    def test_dirac(self):
        s = load_signal("dirac:2", 4)
        np.testing.assert_array_equal(s.values, [0.0, 0.0, 1.0, 0.0])

    def test_dirac_out_of_range(self):
        with pytest.raises(ValueError):
            load_signal("dirac:4", 4)

    def test_normal_deterministic(self):
        a = load_signal("normal:9", 16)
        b = load_signal("normal:9", 16)
        np.testing.assert_array_equal(a.values, b.values)

    def test_const(self):
        np.testing.assert_array_equal(load_signal("const:2.5", 3).values, [2.5, 2.5, 2.5])

    def test_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# comment\n1.0\n\n-2.0\n")
        np.testing.assert_array_equal(load_signal(path, 2).values, [1.0, -2.0])

    def test_file_length_mismatch(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n")
        with pytest.raises(ValueError):
            load_signal(path, 3)


class TestSaveEdgeList:
    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (3, 0)],
        [(0, 1, 1.0), (2, 1, 0.5), (3, 2, 7.0)],
        [(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 1e-300), (0, 3, 2.0 ** 60 + 0.5)],
        [(0, 1), (1, 2, 0.30000000000000004)],
    ])
    @pytest.mark.parametrize("comment", [None, "p=0.1 seed=4"])
    def test_bytes_match_line_writer(self, tmp_path, edges, comment):
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        save_edge_list(ours, edges, 5, comment=comment)
        reference_save_edge_list(ref, edges, 5, comment=comment)
        assert ours.read_bytes() == ref.read_bytes()

    def test_array_input_and_many_blocks(self, tmp_path):
        edges = erdos_renyi(400, 0.1, seed=3)  # about 8000 edges: several blocks
        rng = np.random.default_rng(1)
        edges = [(i, j, float(w)) for (i, j, _), w in zip(edges, rng.uniform(0, 5, len(edges)))]
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        save_edge_list(ours, np.array(edges), 400)
        reference_save_edge_list(ref, edges, 400)
        assert ours.read_bytes() == ref.read_bytes()


# --------------------------------------------------- bulk reader equivalence

class TestBulkPath:
    """Files with comments only in their head are read by numpy in one call."""

    @pytest.fixture(autouse=True)
    def no_line_wise(self, monkeypatch):
        def refuse(path, line_no, line, *rest):
            raise AssertionError(f"line {line_no} was read line by line")
        for name in ("_edge_fields", "_mm_entry", "_signal_value"):
            monkeypatch.setattr(chebheat.graphs, name, refuse)

    def test_generated_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        assert main(["gen-graph", "--n", "300", "--p", "0.05", "--seed", "1",
                     "--out", str(path)]) == 0
        edges, n = load_graph(path)
        ref_edges, ref_n = reference_load_graph(path)
        assert n == ref_n == 300 and len(ref_edges) > 2000
        np.testing.assert_array_equal(edges, np.array(ref_edges))

    def test_lattice_matrix_market(self, tmp_path):
        path = tmp_path / "lattice.mtx"
        side = 20
        idx = np.arange(side * side).reshape(side, side)
        a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        f"% {side} x {side} lattice, 4-neighbour\n"
                        f"{side * side} {side * side} {a.size}\n"
                        + "".join(f"{hi + 1} {lo + 1}\n" for lo, hi in zip(a, b)))
        edges, n = load_graph(path)
        ref_edges, ref_n = reference_load_graph(path)
        assert n == ref_n == side * side
        np.testing.assert_array_equal(edges, np.array(ref_edges))

    def test_plain_signal(self, tmp_path):
        path = tmp_path / "s.txt"
        values = np.random.default_rng(4).standard_normal(500)
        path.write_text("# normal:4\n\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        np.testing.assert_array_equal(load_signal(path, 500).values, values)

    @pytest.mark.parametrize("text, n", [
        ("%%MatrixMarket matrix coordinate pattern symmetric\n14 14 3", 14),
        ("%%MatrixMarket matrix coordinate real symmetric\n% c\n5 5 0\n\n% end\n", 5),
        ("# n=4\n\n# no edges\n", 4),
    ])
    def test_empty_graph_body(self, tmp_path, text, n):
        # numpy warns on a body without lines; the head scan skips the call
        path = tmp_path / "g.txt"
        path.write_text(text)
        edges, got_n = load_graph(path)
        assert edges.shape == (0, 3) and got_n == n

    def test_empty_signal_body(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# nothing\n\n")
        with pytest.raises(ParseError, match="holds no values"):
            load_signal(path)


_ODD_INDEX = st.sampled_from([
    "+3", "1e0", "1.5", "3_0", "-1", "007", "0", "3", "\u0663", "", "x",
    "99999999999999999999", "1" * 18, "+-1", "--2", "."])
_ODD_WEIGHT = st.one_of(
    st.integers(0, 10 ** 20).map(str),
    st.sampled_from(["+2", ".5", "5.", "1e-1", "1E+2", "1e", "inf", "nan", "-1", "0",
                     "1_0", "0x1", "-", "e5", "1.5.2", "+.5e-3"]),
)
_PLAIN_WEIGHT = st.one_of(st.integers(1, 99).map(str),
                          st.floats(min_value=1e-9, max_value=1e9).map(repr))
_SEPS = st.sampled_from([" ", "\t", "  ", " \t "])
_ODD_SEPS = st.sampled_from(["\x0b", "\xa0", "\x0c"])
_PAD = st.sampled_from(["", "", " ", "\t", " \t"])


@st.composite
def _edge_line(draw, third, odd):
    """One ``i j [w]`` line; with ``odd``, any token or separator may be irregular."""
    i = draw(st.integers(0, 12))
    tokens = [str(i), str((i + draw(st.integers(1, 12))) % 13)]
    if third:
        tokens.append(draw(_PLAIN_WEIGHT))
    seps = _SEPS
    if odd:
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(_ODD_WEIGHT if k == 2 else _ODD_INDEX)
        if draw(st.integers(0, 4)) == 0:
            tokens.append(draw(_PLAIN_WEIGHT))
        seps = st.one_of(_SEPS, _ODD_SEPS)
    line = tokens[0]
    for tok in tokens[1:]:
        line += draw(seps) + tok
    return draw(_PAD) + line + draw(_PAD)


_OTHER_LINES = st.sampled_from([
    "", "  ", "\t", "# n=13", "#n=15", "# p=0.1 n=14", "# comment", "  # n=20", "# n=x",
])
_ODD_LINES = st.sampled_from(["% percent", "0 1 # trailing", "0\x0c1", "# n=3", "7", "4 4",
                             "4\t4 0.5"])


def _lines(draw, third, odd_rate, extra_lines):
    """Mostly regular lines; each is irregular with probability about ``odd_rate``."""
    def one(_):
        roll = draw(st.floats(0.0, 1.0))
        if roll < odd_rate / 2:
            return draw(_ODD_LINES | extra_lines)
        if roll < 0.15:
            return draw(_OTHER_LINES)
        line_third = third if draw(st.floats(0.0, 1.0)) >= odd_rate else not third
        return draw(_edge_line(line_third, roll < odd_rate))
    return [one(k) for k in range(draw(st.integers(0, 30)))]


def _comments_first(draw, lines, mark):
    """``lines``, or half the time with every comment moved to the head.

    A comment line starts with ``#`` or ``mark`` and is rewritten to start
    with ``mark``. Comments are the only lines the bulk reader leaves to
    the line-wise pass when they sit in a file's head.
    """
    if not draw(st.booleans()):
        return lines
    is_comment = [line.strip().startswith(("#", mark)) for line in lines]
    return ([mark + line.strip()[1:] for line, c in zip(lines, is_comment) if c]
            + [line for line, c in zip(lines, is_comment) if not c])


def _graph_text(draw, lines):
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@st.composite
def edge_list_texts(draw):
    odd_rate = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    lines = _lines(draw, draw(st.booleans()), odd_rate, _OTHER_LINES)
    return _graph_text(draw, _comments_first(draw, lines, "#"))


@st.composite
def matrix_market_texts(draw):
    kind = draw(st.sampled_from(["pattern", "real", "integer"]))
    header = f"%%MatrixMarket matrix coordinate {kind} symmetric"
    odd_rate = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    if draw(st.floats(0.0, 1.0)) < odd_rate:
        header = draw(st.sampled_from([
            "", "%%MatrixMarket matrix array real symmetric",
            "%%MatrixMarket matrix coordinate complex symmetric",
            "%%MatrixMarket matrix coordinate real general"]))
    size = "14 14 3"
    if draw(st.floats(0.0, 1.0)) < odd_rate:
        size = draw(st.sampled_from(["14 13 3", "14 14", "% size next", "", "+14 14 0"]))
    extra = st.sampled_from(["% c", "15 1 1", "0 1 1", "1 1 1", "14 14", "14 1"])
    # Matrix Market indices are 1-based: add one to every short number
    lines = [" ".join(str(int(t) + 1) if t.isdigit() and len(t) < 3 else t
                      for t in line.split(" "))
             for line in _lines(draw, kind != "pattern", odd_rate, extra)]
    return _graph_text(draw, [header, size] + _comments_first(draw, lines, "%"))


def _outcome(load, path):
    try:
        edges, n = load(path)
    except (ParseError, ValueError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    return ("ok", np.asarray(edges, dtype=np.float64).reshape(-1, 3).tolist(), n)


def _same_as_line_wise(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        assert _outcome(load_graph, path) == _outcome(reference_load_graph, path)
    finally:
        os.remove(path)


@given(edge_list_texts())
@settings(max_examples=300, deadline=None)
def test_bulk_edge_list_reads_like_line_wise(text):
    _same_as_line_wise(text)


@given(matrix_market_texts())
@settings(max_examples=200, deadline=None)
def test_bulk_matrix_market_reads_like_line_wise(text):
    _same_as_line_wise(text)


# signal lines: plain numbers, tokens of the plain alphabet that float
# rejects, and lines the bulk reader must leave to the line-wise pass
_SIGNAL_VALUE = st.one_of(st.floats(min_value=-1e100, max_value=1e100).map(repr),
                          st.integers(-10 ** 20, 10 ** 20).map(str),
                          st.sampled_from(["1e5", "-0.5", "+.5", ".5e-3", "1.", "-0", "1E+3"]))
_SIGNAL_BAD = st.sampled_from(["1e", "--1", ".", "e5", "1.2.3", "+", "-", "1e+", "1-2"])
_SIGNAL_OTHER = st.sampled_from([
    "", "  ", "# c", "  # n=3", "#1.5", "inf", "-Infinity", "nan", "1_000", "0x10", "1 2",
    "1\t2", "1\x0c2", "2\x0b-3", "\xa01.5", "1.5\x0b", "\u0661\u0662", "abc", "1.5 # note",
    "\x0c",
])


@st.composite
def signal_texts(draw):
    odd_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))

    def one(_):
        roll = draw(st.floats(0.0, 1.0))
        if roll < odd_rate / 3:
            return draw(_SIGNAL_BAD)
        if roll < odd_rate:
            return draw(_SIGNAL_OTHER)
        return draw(_PAD) + draw(_SIGNAL_VALUE) + draw(_PAD)

    lines = _comments_first(draw, [one(k) for k in range(draw(st.integers(0, 30)))], "#")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _signal_outcome(load, path):
    try:
        return ("ok", GraphSignal(load(path)).values.tolist())
    except (ParseError, ValueError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))


@given(signal_texts())
@example("1.5\n1 2\n3\n")  # two numbers on one line
@example("1.5\n1\x0c2\n3\n")  # bytes.split would see two numbers here too
@example("0.25\n1_000\n-3\n")
@settings(max_examples=300, deadline=None)
def test_bulk_signal_reads_like_line_wise(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        got = _signal_outcome(lambda p: load_signal(p).values, path)
        assert got == _signal_outcome(reference_load_signal, path)
    finally:
        os.remove(path)
