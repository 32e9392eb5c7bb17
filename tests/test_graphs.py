"""Sparse matrix layer: construction, validation, matvec, file formats."""

import math
import os
import re
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebheat.graphs
from chebheat.cli import main
from chebheat.errors import ParseError
from chebheat.bounds import energy_ratio, true_min_order
from chebheat.diffusion import expm_multiply, expm_multiscale, make_plan, measure_errors
from chebheat.graphs import (SparseSymMatrix, build_laplacian, erdos_renyi, load_graph,
                             load_signal, save_edge_list)

from helpers import (complete_edges, lattice_edges, path_edges, reference_csr_check,
                     reference_erdos_renyi, reference_laplacian, reference_load_graph,
                     reference_load_signal, reference_save_edge_list, same_operator, star_edges)


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

    def test_edge_array_is_neither_copied_nor_modified(self, tmp_path):
        a = erdos_renyi(50, 0.2, seed=1)
        a[:, 2] = np.random.default_rng(2).uniform(0.5, 2.0, len(a))
        before = a.copy()
        a.flags.writeable = False  # a write anywhere downstream raises
        assert chebheat.graphs._edge_array(a) is a
        assert same_operator(build_laplacian(a, 50), build_laplacian(before, 50))
        save_edge_list(tmp_path / "g.txt", a, 50)
        assert np.array_equal(a, before)

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

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12),
           raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                  st.floats(1e-3, 1e3)), max_size=40),
           canonical=st.booleans(), kind=st.sampled_from(["combinatorial", "normalized"]),
           as_array=st.booleans())
    def test_matches_reference_assembly(self, n, raw, canonical, kind, as_array):
        # drawn edges come shuffled, in both orientations and with duplicates;
        # canonical ones in strictly increasing (lo, hi) order, each pair once
        edges = [(i % n, j % n, w) for i, j, w in raw if i % n != j % n]
        if canonical:
            edges = sorted({(min(i, j), max(i, j)): w for i, j, w in edges}.items())
            edges = [(i, j, w) for (i, j), w in edges]
        arg = np.array(edges, dtype=np.float64).reshape(-1, 3) if as_array else edges
        nodes = {v for i, j, _ in edges for v in (i, j)}
        if kind == "normalized" and len(nodes) < n:
            with pytest.raises(ValueError, match="is isolated"):
                build_laplacian(arg, n, kind)
            return
        op = build_laplacian(arg, n, kind)
        assert same_operator(op, reference_laplacian(edges, n, kind))
        assert same_operator(SparseSymMatrix(n, op.row_ptr, op.col_idx, op.values), op)

    def test_mirror_check_refuses_a_tampered_value_or_mirror(self):
        # the builder's route checks symmetry from mirror positions, not a sort:
        # a one-sided value, or any mirror but the transpose's, is refused
        edges = [(0, 1, 0.5), (1, 2, 3.0), (0, 3, 1.25), (2, 3), (3, 4, 0.1)]
        op = build_laplacian(edges, 5, kind="normalized")
        rows = np.repeat(np.arange(5), np.diff(op.row_ptr))
        mirror = np.argsort(op.col_idx * 5 + rows)

        def setup(values, mirror):
            m = object.__new__(SparseSymMatrix)
            m._setup(5, op.row_ptr.copy(), op.col_idx.copy(), values, mirror)
            return m

        assert same_operator(setup(op.values.copy(), mirror), op)
        for p in range(op.nnz):
            if rows[p] != op.col_idx[p]:  # a diagonal value is its own mirror
                values = op.values.copy()
                values[p] *= 1.5
                with pytest.raises(ValueError, match="matrix is not symmetric"):
                    setup(values, mirror)
            for q in {p, (mirror[p] + 1) % op.nnz} - {mirror[p]}:
                bad = mirror.copy()
                bad[p] = q
                with pytest.raises(ValueError, match="matrix is not symmetric"):
                    setup(op.values.copy(), bad)

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.tuples(st.floats(1.0, 2.0, exclude_max=True),
                                      st.integers(-60, 60)), min_size=12, max_size=12),
           extra=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
           k=st.integers(-950, 950))
    def test_normalized_is_unchanged_by_a_power_of_two_scale(self, weights, extra, k):
        # past the normal range of deg[lo] * deg[hi] the entries are rescaled,
        # so that scaling every weight by 2**k keeps the operator's bits
        pairs = [(i, (i + 1) % 8) for i in range(8)] + [(i, j) for i, j in extra if i != j]
        w = np.array([math.ldexp(f, e) for f, e in weights])[:len(pairs)]
        edges = np.column_stack([np.array(pairs, dtype=np.float64), w])
        scaled = edges.copy()
        scaled[:, 2] = np.ldexp(w, k)
        op = build_laplacian(edges, 8, kind="normalized")
        assert same_operator(build_laplacian(scaled, 8, kind="normalized"), op)
        assert same_operator(op, reference_laplacian(edges, 8, "normalized"))

    @pytest.mark.parametrize("w", [1e-200, 1e-160, 1e200])
    def test_normalized_path_at_extreme_weights(self, w):
        # deg[lo] * deg[hi] underflows to zero (-inf entries), is subnormal
        # (a wrong sixth digit) or overflows (entries of -0.0) without the rescaling
        edges = [(0, 1, w), (1, 2, w), (2, 3, w)]
        L = build_laplacian(edges, 4, kind="normalized")
        k = 600 if w > 1.0 else -600
        moved = [(i, j, math.ldexp(v, -k)) for i, j, v in edges]
        assert same_operator(L, reference_laplacian(moved, 4, "normalized"))
        unit = build_laplacian(path_edges(4), 4, kind="normalized")
        np.testing.assert_allclose(L.values, unit.values, rtol=1e-15)
        y = expm_multiply(L, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)[0]
        assert np.all(np.isfinite(y))

    def test_normalized_subnormal_and_underflowing_entries(self):
        # an entry below the normal range is rounded once, as the expression
        # would round it with an unbounded exponent; one that rounds to zero
        # raises, naming its edge
        edges = [(0, 2, 1e300), (1, 3, 1e300), (0, 1, 1e-20)]
        L = build_laplacian(edges, 4, kind="normalized")
        moved = [(i, j, math.ldexp(w, -600)) for i, j, w in edges]
        assert same_operator(L, reference_laplacian(moved, 4, "normalized"))
        assert 0.0 < -L.to_dense()[0, 1] < np.finfo(np.float64).smallest_normal
        for edges in ([(0, 2, 4.0), (1, 3, 4.0), (0, 1, 5e-324)],
                      [(0, 2, 1e300), (1, 3, 1e300), (0, 1, 1e-30)]):
            with pytest.raises(ValueError, match=r"entry of edge \(0, 1\) underflows to zero"):
                build_laplacian(edges, 4, kind="normalized")

    @pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
    def test_overflowing_degree_names_its_node(self, kind):
        with pytest.raises(ValueError, match="degree of node 1 overflows to inf"):
            build_laplacian([(0, 2, 1.0), (1, 2, 1e308), (1, 3, 1e308)], 4, kind)

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

    def test_kernel_vector_read_only_and_scaled_keeps_it(self):
        edges = [(0, 1, 2.0), (1, 2), (0, 2, 0.5), (2, 3, 3.0)]
        deg = np.array([2.5, 3.0, 4.5, 3.0])
        comb = build_laplacian(edges, 6)  # nodes 4 and 5 are isolated
        norm = build_laplacian(edges, 4, kind="normalized")
        np.testing.assert_array_equal(comb.kernel_vector, np.ones(6))
        np.testing.assert_array_equal(norm.kernel_vector, np.sqrt(deg))
        for L in (comb, norm):
            k = L.kernel_vector
            assert np.max(np.abs(L.matvec(k))) <= 1e-15 * np.max(np.abs(L.values)) * np.max(k)
            with pytest.raises(ValueError):
                k[0] = 2.0
            with pytest.raises(AttributeError):
                L.kernel_vector = np.zeros(L.n)
            assert L.scaled(0.3).kernel_vector is k
        assert SparseSymMatrix(2, [0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0]).kernel_vector is None


class TestSparseSymMatrix:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(5)
        L = build_laplacian(erdos_renyi(40, 0.2, seed=1), 40)
        dense = L.to_dense()
        for _ in range(5):
            x = rng.standard_normal(40)
            np.testing.assert_allclose(L.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)

    @staticmethod
    def _matvec_operator(case):
        """An ER Laplacian with ``case`` isolated nodes (wide rows), or a named narrow one."""
        if case in ("lattice-20x20", "lattice-20x20-nonfinite"):
            return build_laplacian(lattice_edges(20, 20), 400)
        if case == "lattice-20x20-normalized":
            return build_laplacian(lattice_edges(20, 20), 400, kind="normalized")
        if case == "lattice-20x20-relabelled":  # no plane has a dominant shift
            perm = np.random.default_rng(3).permutation(400)
            return build_laplacian(perm[np.array(lattice_edges(20, 20))], 400)
        if case == "path-300":
            return build_laplacian(path_edges(300), 300)
        if case == "grid-6x7x8":
            return build_laplacian(lattice_edges(6, 7, 8), 336)
        if case == "weighted.txt":  # node 12 is isolated: its row is empty
            return build_laplacian(*load_graph(os.path.join(os.path.dirname(__file__),
                                                            "data", "weighted.txt")))
        rng = np.random.default_rng(8)
        edges = np.array(erdos_renyi(60, 0.1, seed=8), dtype=np.float64)
        edges[:, 2] = rng.uniform(0.1, 3.0, len(edges))
        return build_laplacian(edges, 60 + case)

    @pytest.mark.parametrize("case", [0, 7, "lattice-20x20", "lattice-20x20-normalized",
                                      "lattice-20x20-relabelled", "path-300", "grid-6x7x8",
                                      "weighted.txt", "lattice-20x20-nonfinite"])
    def test_matvec_bits_match_masked_reduction(self, case):
        # an isolated node has no diagonal entry in the combinatorial
        # Laplacian, so its row is empty and sums to +0.0; every other row
        # sums as one reduceat over the row's entries, in either layout, and
        # the product with |A| likewise. NaN and +-inf entries of x (in the
        # nonfinite case) make rows of NaN and +-inf in the same places; a
        # NaN's payload and sign are not compared, since which one an
        # addition of two NaNs keeps depends on numpy's build and the CPU.
        finite = case != "lattice-20x20-nonfinite"
        L = self._matvec_operator(case)
        counts = np.diff(L.row_ptr)
        assert int(np.sum(counts == 0)) == (case if isinstance(case, int) else
                                            case == "weighted.txt")
        # rows of at most 8 entries take the padded planes, wider ones reduceat
        assert (L._cols is not None) == isinstance(case, str)
        rng = np.random.default_rng(8)
        sums = []
        for op in (L, L.scaled(0.37)):
            for _ in range(4):
                x = rng.choice([-1.0, 1.0], op.n) * np.exp(rng.uniform(-30.0, 30.0, op.n))
                special = rng.random(op.n) < 0.3
                x[special] = rng.choice([-0.0, 0.0] if finite else
                                        [-0.0, 0.0, math.nan, math.inf, -math.inf],
                                        int(special.sum()))
                for absolute in (False, True):
                    values = np.abs(op.values) if absolute else op.values
                    ref = np.zeros(op.n)
                    with np.errstate(invalid="ignore"):
                        ref[counts > 0] = np.add.reduceat(values * x[op.col_idx],
                                                          op.row_ptr[:-1][counts > 0])
                        got = op._product(x, absolute=absolute)
                    nan = np.isnan(ref)
                    assert np.array_equal(np.isnan(got), nan)
                    assert got[~nan].tobytes() == ref[~nan].tobytes()
                    sums.append(ref)
                    if not absolute:
                        with np.errstate(invalid="ignore"):
                            got = op.matvec(x)
                        assert np.array_equal(np.isnan(got), nan)
                        assert got[~nan].tobytes() == ref[~nan].tobytes()
        sums = np.concatenate(sums)
        assert np.isfinite(sums).all() == finite
        assert finite or (np.isnan(sums).any() and np.isinf(sums).any())

    def test_planes_read_shifted_slices(self):
        # a padded plane keeps its most common offset cols[j, i] - i and the
        # rows off it, and is gathered whole when those exceed a quarter of
        # its rows. On a lattice, whose planes sit on fixed diagonals, the
        # misses stay at 2% of the plane slots; a relabelled one, where no
        # offset holds for half the rows, gathers every plane.
        assert chebheat.graphs._SHIFT_MAX_MISSES == 0.25
        L = build_laplacian(lattice_edges(200, 200), 40000)
        assert L._shifts.tolist() == [-200, -1, 0, 1, 200]
        assert all(m is not None for m in L._misses)
        assert sum(m.shape[1] for m in L._misses) <= 0.02 * L._cols.size
        perm = np.random.default_rng(5).permutation(40000)
        R = build_laplacian(perm[np.array(lattice_edges(200, 200))], 40000)
        for cols, shift, misses in zip(R._cols, R._shifts, R._misses):
            off = int(np.sum(cols - np.arange(R.n) != shift))
            assert off > 0.5 * R.n and misses is None
        for op in (L, R, self._matvec_operator("grid-6x7x8"),
                   self._matvec_operator("weighted.txt")):
            for cols, shift, misses in zip(op._cols, op._shifts, op._misses):
                offsets = cols - np.arange(op.n)
                assert shift == np.argmax(np.bincount(offsets + op.n)) - op.n
                rows = np.flatnonzero(offsets != shift)
                if rows.size > 0.25 * op.n:
                    assert misses is None
                else:
                    assert misses.tolist() == [rows.tolist(), cols[rows].tolist()]
                    assert not misses.flags.writeable

    @pytest.mark.parametrize("length", range(1, 9))
    def test_reduceat_sums_short_rows_in_the_plane_order(self, length):
        # matvec's padded planes rest on numpy's order for a row of at most
        # 8 entries: (((a_1 + a_2) + a_3) + ...) + a_0, padded with -0.0. A
        # numpy that sums such rows in another order fails here.
        assert chebheat.graphs._PLANE_MAX_WIDTH == 8
        rng = np.random.default_rng(length)
        rows = 20000
        a = rng.choice([-1.0, 1.0], (rows, length)) * np.exp(rng.uniform(-20.0, 20.0,
                                                                        (rows, length)))
        zeros = rng.random((rows, length)) < 0.3
        a[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
        planes = np.full((8, rows), -0.0)
        planes[:length] = a.T
        for j in range(2, 8):
            planes[1] += planes[j]
        padded = planes[1] + planes[0]
        ref = np.add.reduceat(a.ravel(), np.arange(0, a.size, length))
        assert padded.tobytes() == ref.tobytes()

    def test_scaled_shares_reduction_layout(self):
        # a 9-leaf star, hub row of 10 entries, calls reduceat; node 10 is isolated
        W = build_laplacian(star_edges(10), 11)
        V = W.scaled(0.5)
        assert W._cols is None
        assert V._row_starts is W._row_starts and V._nonempty is W._nonempty
        assert W._nonempty.tolist() == [True] * 10 + [False]
        assert W._row_starts.tolist() == [0] + list(range(10, 28, 2))
        assert build_laplacian(star_edges(10), 10)._nonempty is None
        np.testing.assert_array_equal(V.matvec(np.arange(11.0)),
                                      [-22.5] + [0.5 * leaf for leaf in range(1, 10)] + [0.0])
        # the padded planes take no reduceat layout
        L = build_laplacian([(0, 1), (1, 2)], 4)  # node 3 is isolated
        S = L.scaled(0.5)
        assert L._row_starts is L._nonempty is S._row_starts is S._nonempty is None
        np.testing.assert_array_equal(S.matvec(np.arange(4.0)), [-0.5, 0.0, 0.5, 0.0])
        # rows of at most 8 entries keep their entries in padded planes only,
        # and the column planes are structure; the CSR arrays are gathered
        # from the planes, with the bits the constructor was given
        assert S._cols is L._cols and S._col_idx is None and S._values is None
        # and so are each plane's shift and misses: here two of four rows miss
        # every plane's shift, so each plane is gathered whole; a lattice's
        # planes read shifted slices
        assert S._shifts is L._shifts and S._misses is L._misses
        assert L._shifts.tolist() == [-1, 0, 1] and L._misses == (None, None, None)
        Q = build_laplacian(lattice_edges(20, 20), 400)
        R = Q.scaled(0.5)
        assert R._shifts is Q._shifts and R._misses is Q._misses
        assert all(m is not None for m in Q._misses) and not Q._shifts.flags.writeable
        assert S.row_ptr.tolist() == [0, 2, 5, 7, 7]
        assert S.col_idx.tolist() == [0, 1, 0, 1, 2, 1, 2]
        assert S.values.tolist() == [0.5, -0.5, -0.5, 1.0, -0.5, -0.5, 0.5]
        assert L.values.tolist() == [1.0, -1.0, -1.0, 2.0, -1.0, -1.0, 1.0]
        assert not S.col_idx.flags.writeable and not S.values.flags.writeable

    def test_scaled(self):
        L = build_laplacian([(0, 1)], 2)
        S = L.scaled(0.5)
        np.testing.assert_array_equal(S.to_dense(), 0.5 * L.to_dense())
        with pytest.raises(ValueError):
            L.scaled(-1.0)
        # an infinite factor once gave +-inf entries and an all-NaN matvec;
        # refused on a padded-plane operator and on a reduceat one alike
        plane, wide = build_laplacian([(0, 1), (1, 2)], 3), build_laplacian(star_edges(10), 10)
        assert plane._cols is not None and wide._cols is None
        for op in (plane, wide):
            for alpha in (0.0, -1.0, math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="positive and finite"):
                    op.scaled(alpha)

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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_rejected(self, value):
        # symmetric infinities once passed, and a NaN was called asymmetric
        with pytest.raises(ValueError, match="non-finite entries are not allowed"):
            SparseSymMatrix(2, [0, 1, 2], [1, 0], [value, value])

    def test_asymmetric_rejected(self):
        # hand-built CSR with a one-sided entry
        with pytest.raises(ValueError):
            SparseSymMatrix(2, np.array([0, 1, 1]), np.array([1]), np.array([1.0]))

    def test_column_descent_across_row_boundary_accepted(self):
        # row 0 ends at column 2, row 1 starts at column 0
        op = SparseSymMatrix(3, [0, 2, 4, 6], [1, 2, 0, 2, 0, 1], [1.0] * 6)
        assert op.nnz == 6

    def test_repeated_column_within_row_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing within a row"):
            SparseSymMatrix(2, [0, 2, 4], [1, 1, 0, 0], [1.0] * 4)

    def test_validation_matches_row_boundary_mask(self):
        # the entry-key check accepts and rejects exactly what the
        # row-boundary mask did, with the same message, on small CSR inputs
        # built from symmetric matrices and then perturbed
        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            dense = np.triu(rng.choice([0.0, 0.0, 1.0, -2.0], size=(n, n)))
            dense = dense + np.triu(dense, 1).T
            rows, cols = np.nonzero(dense)
            vals = dense[rows, cols]
            row_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
            cols = cols.astype(np.int64)
            mutation = int(rng.integers(0, 8)) if cols.size else 0
            at = int(rng.integers(0, cols.size)) if cols.size else 0
            if mutation == 1:  # swap two neighbouring columns
                k = min(at, cols.size - 2)
                if k >= 0:
                    cols[[k, k + 1]] = cols[[k + 1, k]]
            elif mutation == 2:  # repeat the previous column
                cols[at] = cols[at - 1] if at else cols[at]
            elif mutation == 3:  # move a row boundary
                r = int(rng.integers(1, n + 1))
                row_ptr[r] = max(0, row_ptr[r] + int(rng.choice([-1, 1])))
            elif mutation == 4:  # any column, in range or just outside it
                cols[at] = int(rng.integers(-1, n + 1))
            elif mutation == 5:  # an explicit zero
                vals[at] = 0.0
            elif mutation == 6:  # a one-sided value change
                vals[at] = 3.0
            elif mutation == 7:  # a non-finite value, on one side or on both
                vals[at] = rng.choice([np.inf, -np.inf, np.nan])
                if rng.integers(0, 2):
                    vals[np.flatnonzero((cols == rows[at]) & (rows == cols[at]))] = vals[at]
            try:
                reference_csr_check(n, row_ptr, cols, vals)
                expected = None
            except ValueError as exc:
                expected = str(exc)
            try:
                SparseSymMatrix(n, row_ptr, cols, vals)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (n, row_ptr, cols, vals)
            verdicts.add(expected)
        assert None in verdicts
        assert "column indices must be strictly increasing within a row" in verdicts
        assert "matrix is not symmetric" in verdicts
        assert "non-finite entries are not allowed" in verdicts


P2 = build_laplacian([(0, 1)], 2)
# every function that takes a signal, each checking it with chebheat.graphs._signal
SIGNAL_TAKERS = {
    "expm_multiply": lambda x: expm_multiply(P2, x, 1.0),
    "expm_multiscale": lambda x: expm_multiscale(P2, x, [1.0]),
    "make_plan": lambda x: make_plan(P2, x, [1.0], 1e-5),
    "measure_errors": lambda x: measure_errors(P2, x, 1.0, 5),
    "true_min_order": lambda x: true_min_order(P2, x, 1.0, 1e-5),
    "energy_ratio": lambda x: energy_ratio(x, P2),
}


class TestSignal:
    def test_read_only_copy(self):
        raw = np.array([3.0, 4.0])
        s = chebheat.graphs._signal(raw)
        np.testing.assert_array_equal(s, raw)
        assert s.dtype == np.float64 and not np.shares_memory(s, raw)
        with pytest.raises(ValueError):
            s[0] = 1.0
        with pytest.raises(ValueError):
            load_signal("const:2.5", 2)[0] = 1.0

    def test_rejects_non_finite(self, tmp_path):
        for bad in ([1.0, np.nan], [np.inf, 0.0]):
            for take in SIGNAL_TAKERS.values():
                with pytest.raises(ValueError, match="non-finite"):
                    take(bad)
        path = tmp_path / "s.txt"
        path.write_text("1.0\nnan\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_signal(path)

    def test_rejects_empty(self):
        for take in SIGNAL_TAKERS.values():
            with pytest.raises(ValueError, match="non-empty 1-d"):
                take([])

    def test_rejects_two_dimensional(self):
        for take in SIGNAL_TAKERS.values():
            with pytest.raises(ValueError, match="non-empty 1-d"):
                take([[1.0, 0.0], [0.0, 1.0]])


class TestErdosRenyi:
    def test_deterministic(self):
        assert np.array_equal(erdos_renyi(50, 0.1, seed=3), erdos_renyi(50, 0.1, seed=3))

    def test_seed_changes_graph(self):
        assert not np.array_equal(erdos_renyi(50, 0.1, seed=3), erdos_renyi(50, 0.1, seed=4))

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


def _reference_er(n, p, seed):
    return np.array(reference_erdos_renyi(n, p, seed), dtype=np.float64).reshape(-1, 3)


def _split_every_draw(monkeypatch):
    """Send every ``erdos_renyi`` call through its helper thread, on any machine."""
    monkeypatch.setattr(chebheat.graphs, "_ER_SPLIT_MIN", 1)
    monkeypatch.setattr(chebheat.graphs, "_helper_cpus", lambda: set())


class TestErdosRenyiEdges:
    """The blocked, split draw gives the per-row loop's edges bit for bit."""

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("n, p, seed", [(1, 0.5, 0), (3, 0.5, 2), (7, 0.3, 1),
                                            (50, 0.1, 3), (400, 0.02, 11), (3000, 0.001, 7)])
    def test_same_edges_as_per_row_loop(self, monkeypatch, split, n, p, seed):
        if split:
            _split_every_draw(monkeypatch)
        else:
            monkeypatch.setattr(chebheat.graphs, "_helper_cpus", lambda: None)
        got, expected = erdos_renyi(n, p, seed), _reference_er(n, p, seed)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_generator_seed_refused(self):
        # both halves would draw from the one shared generator
        with pytest.raises(TypeError):
            erdos_renyi(1100, 0.01, np.random.default_rng(5))

    def test_one_node_has_no_edges(self):
        assert erdos_renyi(1, 0.5, seed=0).shape == (0, 3)

    def test_dense_pair_matches_loop(self):
        for seed in range(50):
            got = erdos_renyi(2, 0.999999, seed)
            assert got.tobytes() == _reference_er(2, 0.999999, seed).tobytes()

    def test_gen_graph_bytes_above_split_threshold(self, tmp_path):
        n, p, seed = 3000, 0.001, 7
        assert n * (n - 1) // 2 >= chebheat.graphs._ER_SPLIT_MIN
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        assert main(["gen-graph", "--n", str(n), "--p", repr(p), "--seed", str(seed),
                     "--out", str(ours)]) == 0
        reference_save_edge_list(ref, reference_erdos_renyi(n, p, seed), n,
                                 comment=f"p={p!r} seed={seed}")
        assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    def test_any_cut_of_the_pairs_is_one_draw(self, seed):
        # the split rests on numpy's PCG64: random() takes one 64-bit output
        # per double and advance(k) skips exactly k of them
        block = chebheat.graphs._ER_BLOCK
        total = 3 * block + 12345
        whole = np.flatnonzero(np.random.default_rng(seed).random(total) < 0.3)
        rng = np.random.default_rng(seed + 1)
        for trial in range(6):
            cuts = rng.integers(0, total + 1, size=int(rng.integers(1, 5))).tolist()
            cuts += [block - 1, block, 2 * block + 1] if trial == 0 else []
            bounds = [0, *sorted(cuts), total]
            parts = [chebheat.graphs._er_hits(seed, 0.3, a, b) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(parts), whole)


class TestErdosRenyiHelper:
    """At most one helper thread, joined on every path."""

    def _spy_threads(self, monkeypatch):
        made, real = [], threading.Thread

        def spy(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(threading, "Thread", spy)
        return made

    def _slow_second_half(self, monkeypatch, error=None):
        """The helper's half ends 0.2 s after the caller's, with ``error`` if given."""
        draw = chebheat.graphs._er_hits

        def hits(seed, p, start, stop):
            if start > 0:
                time.sleep(0.2)
                if error is not None:
                    raise error
            return draw(seed, p, start, stop)

        monkeypatch.setattr(chebheat.graphs, "_er_hits", hits)

    def test_helper_error_reraises_after_join(self, monkeypatch):
        _split_every_draw(monkeypatch)
        made = self._spy_threads(monkeypatch)
        self._slow_second_half(monkeypatch, RuntimeError("second half failed"))
        with pytest.raises(RuntimeError, match="second half failed"):
            erdos_renyi(300, 0.05, seed=1)
        assert len(made) == 1 and not made[0].is_alive()

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        _split_every_draw(monkeypatch)
        monkeypatch.setattr(chebheat.graphs, "_helper_cpus", lambda: None)
        made = self._spy_threads(monkeypatch)
        assert erdos_renyi(300, 0.05, seed=1).tobytes() == _reference_er(300, 0.05, 1).tobytes()
        assert made == []

    def test_no_thread_left_behind(self, monkeypatch):
        _split_every_draw(monkeypatch)
        made = self._spy_threads(monkeypatch)
        self._slow_second_half(monkeypatch)
        before = threading.active_count()
        edges = erdos_renyi(300, 0.05, seed=1)
        assert len(made) == 1 and threading.active_count() == before
        assert edges.tobytes() == _reference_er(300, 0.05, 1).tobytes()


class TestHelperThread:
    """The one runner: it starts, places and joins a helper thread, and hands on its error."""

    def _placements(self, monkeypatch, error=None):
        """Record each ``sched_setaffinity`` call, raising ``error`` if given."""
        calls = []

        def place(pid, cpus):
            calls.append((threading.current_thread().name, pid, set(cpus)))
            if error is not None:
                raise error

        monkeypatch.setattr(os, "sched_setaffinity", place, raising=False)
        return calls

    def test_work_runs_on_a_placed_thread_joined_at_the_end(self, monkeypatch):
        calls = self._placements(monkeypatch)
        ran = []
        before = threading.enumerate()
        with chebheat.graphs._helper_thread(lambda: ran.append(threading.current_thread()),
                                            {1}, "probe-helper"):
            pass
        assert threading.enumerate() == before
        assert [t.name for t in ran] == ["probe-helper"] and ran[0].daemon
        assert not ran[0].is_alive()
        assert calls == [("probe-helper", 0, {1})]

    def test_empty_cpus_leave_the_placement_to_the_system(self, monkeypatch):
        calls = self._placements(monkeypatch)
        ran = []
        with chebheat.graphs._helper_thread(lambda: ran.append(1), set(), "probe-helper"):
            pass
        assert ran == [1] and calls == []

    def test_placement_error_is_ignored(self, monkeypatch):
        calls = self._placements(monkeypatch, OSError(22, "Invalid argument"))
        ran = []
        before = threading.enumerate()
        with chebheat.graphs._helper_thread(lambda: ran.append(1), {7}, "probe-helper"):
            pass
        assert ran == [1] and len(calls) == 1
        assert threading.enumerate() == before

    def test_work_error_raises_after_the_join(self, monkeypatch):
        self._placements(monkeypatch)
        boom = RuntimeError("work failed")
        ran = []

        def work():
            ran.append(threading.current_thread())
            time.sleep(0.2)  # still running when the body ends
            raise boom

        before = threading.enumerate()
        with pytest.raises(RuntimeError) as info:
            with chebheat.graphs._helper_thread(work, {1}, "probe-helper"):
                pass
        assert info.value is boom
        assert not ran[0].is_alive() and threading.enumerate() == before

    def test_body_error_wins_over_work_error(self, monkeypatch):
        self._placements(monkeypatch)
        finished = []

        def work():
            time.sleep(0.2)
            finished.append(1)
            raise RuntimeError("work failed")

        before = threading.enumerate()
        with pytest.raises(KeyError, match="body failed"):
            with chebheat.graphs._helper_thread(work, {1}, "probe-helper"):
                raise KeyError("body failed")
        assert finished == [1]  # joined before the body's error went on
        assert threading.enumerate() == before


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

    @pytest.mark.parametrize("head", ["", "# n=13\n"])
    @pytest.mark.parametrize("index", [2 ** 53 + 1, int("1" * 18), 10 ** 20 - 1])
    def test_index_past_float_precision_is_exact(self, tmp_path, head, index):
        # a float rounds these indices; n and the error carry the exact int
        path = tmp_path / "g.txt"
        path.write_text(f"{head}0 {index} 2.0\n3 1 0.5\n")
        assert _outcome(load_graph, path) == _outcome(reference_load_graph, path)
        if head:
            with pytest.raises(ParseError, match=f"node index {index} exceeds declared n=13"):
                load_graph(path)
        else:
            assert load_graph(path)[1] == index + 1

    def test_matrix_market_bad_entry_reports_position(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n2 1 1.0\n3 x 2.0\n")
        with pytest.raises(ParseError, match="could not parse entry fields in '3 x 2.0'") as exc:
            load_graph(path)
        assert exc.value.line_no == 4
        assert str(path) in str(exc.value)

    def test_matrix_market_bad_size_line_reports_position(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "% a comment\n3 y 2\n2 1 1.0\n")
        with pytest.raises(ParseError, match="could not parse size line '3 y 2'") as exc:
            load_graph(path)
        assert exc.value.line_no == 3
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("declared, held", [(3, 2), (1, 3)])
    @pytest.mark.parametrize("line_wise", [False, True])
    def test_matrix_market_entry_count_must_match(self, tmp_path, declared, held, line_wise):
        entries = ["2 1 1.0", "3 2 2.0", "3 1 0.5"][:held]
        if line_wise:  # a comment after the head: the body is read line by line
            entries.insert(1, "% between entries")
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n% c\n"
                        f"3 3 {declared}\n" + "".join(e + "\n" for e in entries))
        message = f"size line declares {declared} entries, file holds {held}"
        for load in (load_graph, reference_load_graph):
            with pytest.raises(ParseError, match=message) as exc:
                load(path)
            assert exc.value.line_no == 3

    def test_matrix_market_general_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
        with pytest.raises(ParseError):
            load_graph(path)


class TestLoadSignal:
    def test_dirac(self):
        s = load_signal("dirac:2", 4)
        np.testing.assert_array_equal(s, [0.0, 0.0, 1.0, 0.0])

    def test_dirac_out_of_range(self):
        with pytest.raises(ValueError):
            load_signal("dirac:4", 4)

    def test_normal_deterministic(self):
        a = load_signal("normal:9", 16)
        b = load_signal("normal:9", 16)
        np.testing.assert_array_equal(a, b)

    def test_const(self):
        np.testing.assert_array_equal(load_signal("const:2.5", 3), [2.5, 2.5, 2.5])

    def test_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# comment\n1.0\n\n-2.0\n")
        np.testing.assert_array_equal(load_signal(path, 2), [1.0, -2.0])

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

    def test_writes_only_what_load_graph_reads_back(self, tmp_path):
        # an edge build_laplacian refuses raises its error before the file is
        # opened; every file written loads back to the edges it was given
        path = tmp_path / "g.txt"
        for edges, n in [([(0, 5, 1.0), (1, 1, 2.0), (2, 3, -1.0)], 3),
                         ([(0, 1), (1, 1, 2.0)], 3),
                         ([(0, 1), (2, 1, -1.0)], 3),
                         ([(0, 1, np.nan)], 3),
                         ([(0, -1)], 3),
                         ([], 0)]:
            with pytest.raises(ValueError) as refused:
                build_laplacian(edges, n)
            with pytest.raises(ValueError, match=re.escape(str(refused.value))):
                save_edge_list(path, edges, n)
            assert not path.exists()
        edges = [(0.7, 2.9, 0.5), (4, 1), (3, 0, 1e-300), (1, 4, 2.0), (4, 1, 0.25)]
        save_edge_list(path, edges, 6)
        loaded, n = load_graph(path)
        assert n == 6
        assert loaded.tolist() == [[0, 2, 0.5], [4, 1, 1.0], [3, 0, 1e-300], [1, 4, 2.0],
                                   [4, 1, 0.25]]

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
        np.testing.assert_array_equal(load_signal(path, 500), values)

    @pytest.mark.parametrize("text, n", [
        ("%%MatrixMarket matrix coordinate pattern symmetric\n14 14 0", 14),
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
    extra = st.sampled_from(["% c", "15 1 1", "0 1 1", "1 1 1", "14 14", "14 1"])
    # Matrix Market indices are 1-based: add one to every short number
    lines = [" ".join(str(int(t) + 1) if t.isdigit() and len(t) < 3 else t
                      for t in line.split(" "))
             for line in _lines(draw, kind != "pattern", odd_rate, extra)]
    lines = _comments_first(draw, lines, "%")
    count = sum(1 for line in map(str.strip, lines) if line and not line.startswith("%"))
    size = f"14 14 {count}"
    if draw(st.floats(0.0, 1.0)) < odd_rate:
        # count ^ 1: a wrong count, one more or one fewer than the file holds
        size = draw(st.sampled_from(["14 13 3", "14 14", "% size next", "", "+14 14 0",
                                     f"14 14 {count ^ 1}"]))
    return _graph_text(draw, [header, size] + lines)


def _outcome(load, path):
    try:
        edges, n = load(path)
    except (ParseError, ValueError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3).tolist()
    # both readers take a "nan" weight (build_laplacian rejects it); nan != nan
    return ("ok", [["nan" if v != v else v for v in row] for row in rows], n)


def _same_as_line_wise(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        assert _outcome(load_graph, path) == _outcome(reference_load_graph, path)
    finally:
        os.remove(path)


@given(edge_list_texts())
@example("0 1 nan")
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
        return ("ok", chebheat.graphs._signal(load(path)).tolist())
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
        got = _signal_outcome(load_signal, path)
        assert got == _signal_outcome(reference_load_signal, path)
    finally:
        os.remove(path)
