import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import closed_form_ratio_matrix, gram_one_shot, sq_distances_one_shot
from permclass import kernels
from permclass.classify import _query_steps
from permclass.cyclic import per_alpha_cyclic, ratio_approx_matrix
from permclass.exact import cyp_exact, per_alpha_exact, ratio_exact_matrix
from permclass.kernels import (GramMatrix, Kernel, KernelFamily, gram, kernel_block,
                               kernel_column, kernel_eval, kernel_self, kernel_self_batch)


def test_gaussian_zero_distance_is_one():
    k = Kernel.gaussian(1.0)
    assert kernel_eval(k, [0.3, 0.7], [0.3, 0.7]) == 1.0


def test_exponential_unit_distance():
    k = Kernel.exponential(1.0)
    v = kernel_eval(k, [0.0], [1.0])
    assert v == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_dimension_mismatch_raises():
    k = Kernel.gaussian(1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_eval(k, [0.0, 1.0], [0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_column(k, [0.0], np.zeros((3, 2)))


def test_nonpositive_tau_raises():
    with pytest.raises(ValueError, match="tau"):
        Kernel.gaussian(0.0)
    with pytest.raises(ValueError, match="tau"):
        Kernel.exponential(-1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_kernel_parameters_raise(bad):
    with pytest.raises(ValueError, match="tau"):
        Kernel.gaussian(bad)
    with pytest.raises(ValueError, match="tau"):
        Kernel.exponential(bad)
    with pytest.raises(ValueError, match="constant kernel requires a finite c"):
        Kernel.constant(bad)
    with pytest.raises(ValueError, match="projection matrix entries"):
        Kernel.projection([[bad]], [(0.0,)])


def test_gram_constant_all_ones():
    g = gram(Kernel.constant(1.0), np.zeros((3, 1)))
    assert np.array_equal(g.entries, np.ones((3, 3)))


def test_gram_gaussian_two_points():
    g = gram(Kernel.gaussian(1.0), np.array([[0.0], [1.0]]))
    e = math.exp(-1.0)
    assert np.allclose(g.entries, [[1.0, e], [e, 1.0]], rtol=1e-15)
    assert g.entries[0, 0] == 1.0 and g.entries[1, 1] == 1.0


def test_gram_empty_point_list():
    g = gram(Kernel.gaussian(1.0), np.zeros((0, 2)))
    assert g.entries.shape == (0, 0)
    from permclass.exact import per_alpha_exact
    assert per_alpha_exact(g.entries, 1.0) == 1.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_gram_symmetric_nonneg(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)) * 2.0
    for k in (Kernel.gaussian(0.7), Kernel.exponential(1.3)):
        g = gram(k, pts)
        assert np.array_equal(g.entries, g.entries.T)
        assert (g.entries >= 0).all()
        assert np.array_equal(g.diagonal, np.ones(n))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 9, 50, 200])
def test_gram_blocks_match_one_shot_formula(d):
    rng = np.random.default_rng(d)
    b = math.isqrt(kernels._GRAM_BLOCK_ENTRIES // d)  # largest n in one block
    for n in (0, 1, b - 1, b, b + 1, 2 * b + 1):
        pts = rng.normal(size=(n, d))
        if n > 2:
            # repeated rows give exact zero distances off the diagonal
            pts[n // 2:n // 2 + 2] = pts[n // 3]
        for k in (Kernel.gaussian(0.9 * math.sqrt(d)),
                  Kernel.exponential(0.6 * math.sqrt(d))):
            assert np.array_equal(gram(k, pts).entries, gram_one_shot(k, pts))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_sq_distances_match_one_shot_formula(d, monkeypatch):
    # 7 is the last d summed one dimension at a time, 8 the first reduced
    # pairwise; the row counts cross the block boundaries of both shapes
    rng = np.random.default_rng(100 + d)
    sizes = (1, 4096, kernels._GRAM_BLOCK_ENTRIES)
    for m, n in ((0, 5), (5, 0), (1, 1), (70, 300), (301, 80)):
        a = rng.normal(size=(m, d)) * rng.lognormal(size=d)
        b = rng.normal(size=(n, d)) * rng.lognormal(size=d)
        for block_entries in sizes:
            monkeypatch.setattr(kernels, "_GRAM_BLOCK_ENTRIES", block_entries)
            assert np.array_equal(kernels._sq_distances(a, b),
                                  sq_distances_one_shot(a, b))


# below 8 dimensions numpy sums squared differences in sequence, from 8 on
# pairwise; 50 and 200 reach its blocked sums
DIMS = [*range(1, 10), 50, 200]


def test_gram_matches_eval_and_column(rng):
    # one squared distance behind every path: the same float for each pair
    for d in DIMS:
        pts = rng.normal(size=(5, d))
        for k in (Kernel.exponential(0.8 * math.sqrt(d)), Kernel.gaussian(1.1 * math.sqrt(d))):
            g = gram(k, pts)
            for i in range(5):
                assert np.array_equal(kernel_column(k, pts[i], pts), g.entries[:, i]), d
                assert np.array_equal(g.entries[i], [kernel_eval(k, pts[i], p) for p in pts]), d


def test_gram_non_distance_families_match_pairwise_eval(rng):
    # repeated points put equal keys off the diagonal
    ground = [tuple(p) for p in rng.normal(size=(5, 2))]
    pts = np.array(ground + ground[:2])
    m = rng.random((5, 5))
    for k in [
        Kernel.constant(1.7),
        Kernel.projection(m + m.T, ground),
    ]:
        g = gram(k, pts).entries
        assert np.array_equal(g, [[kernel_eval(k, s, t) for t in pts] for s in pts])
        assert np.array_equal(g, g.T)


@pytest.mark.parametrize("d", DIMS)
def test_shared_distances_equal_gram_and_kernel_block(d, monkeypatch):
    # every distance kernel over the kept squared distances is `gram` and
    # `kernel_block` bit for bit, the held-out block sliced at the query
    # blocks' row steps; 150 queries against 60 points span three query
    # blocks, and the distance row blocks are crossed at every d
    rng = np.random.default_rng(400 + d)
    pts = rng.normal(size=(60, d)) * rng.lognormal(size=d)
    pts[7] = pts[3]  # an exact zero distance off the diagonal
    qs = rng.normal(size=(150, d)) * rng.lognormal(size=d)
    qs[5] = pts[0]
    steps = _query_steps(150, 60)
    assert len(steps) == 3
    scales = (0.2, 0.6, 0.9, 2.5)
    kernels_ = [Kernel(fam, tau=s * math.sqrt(d))
                for s in scales for fam in ("gaussian", "exponential")]
    for block_entries in (1, 4096, kernels._GRAM_BLOCK_ENTRIES):
        monkeypatch.setattr(kernels, "_GRAM_BLOCK_ENTRIES", block_entries)
        shared = kernels._SharedDistances(pts, qs)
        grams = shared.grams(kernels_)
        assert grams.kernel is None and np.array_equal(grams.points, pts)
        blocks = shared.blocks(kernels_)
        for k, kernel in enumerate(kernels_):
            assert np.array_equal(grams.entries[k], gram(kernel, pts).entries)
            for rows in steps:
                assert np.array_equal(blocks[k][rows], kernel_block(kernel, qs[rows], pts))


def test_shared_distances_are_computed_once_and_only_for_distance_kernels(rng, sq_distance_calls):
    ground = [tuple(p) for p in rng.normal(size=(9, 2))]
    pts, qs = np.array(ground[:5]), np.array(ground[5:])
    m = rng.random((9, 9))
    shared = kernels._SharedDistances(pts, qs)
    others = [Kernel.constant(1.7), Kernel.projection(m + m.T, ground)]
    grams, blocks = shared.grams(others).entries, shared.blocks(others)
    for k, kernel in enumerate(others):
        assert np.array_equal(grams[k], gram(kernel, pts).entries)
        assert np.array_equal(blocks[k], kernel_block(kernel, qs, pts))
    assert not sq_distance_calls
    for run in ([Kernel.gaussian(0.5), Kernel.exponential(0.5)], [Kernel.gaussian(2.0)]):
        shared.grams(run)
        shared.blocks(run)
    assert len(sq_distance_calls) == 2


def test_shared_distances_stack_a_run_of_mixed_kernels(rng, sq_distance_calls):
    # a run's stacks hold each kernel's `gram` and `kernel_block` in run
    # order: the distance kernels of one family in one transform, adjacent
    # in the run or not, the others one at a time; a later run reuses the
    # squared distances
    ground = [tuple(p) for p in rng.normal(size=(11, 2))]
    pts, qs = np.array(ground[:7]), np.array(ground[7:])
    m = rng.random((11, 11))
    run = [Kernel.gaussian(0.4), Kernel.constant(1.7), Kernel.exponential(0.8),
           Kernel.projection(m + m.T, ground), Kernel.gaussian(2.0), Kernel.exponential(0.3),
           Kernel.exponential(1.1)]
    other = Kernel.gaussian(0.9)
    grams = [gram(kernel, pts).entries for kernel in run + [other]]
    blocks = [kernel_block(kernel, qs, pts) for kernel in run]
    sq_distance_calls.clear()
    shared = kernels._SharedDistances(pts, qs)
    assert np.array_equal(shared.grams(run).entries, grams[:-1])
    assert np.array_equal(shared.blocks(run), blocks)
    assert len(sq_distance_calls) == 2
    keep = [0, 2, 4, 6]
    assert np.array_equal(shared.grams([run[k] for k in keep]).entries,
                          [grams[k] for k in keep])
    assert np.array_equal(shared.blocks([run[k] for k in keep]), [blocks[k] for k in keep])
    one = shared.grams([other])
    assert one.entries.shape == (1, 7, 7) and np.array_equal(one.entries[0], grams[-1])
    assert len(sq_distance_calls) == 2


def test_stacked_distance_transform_equals_one_kernel_at_a_time(rng):
    for family in ("exponential", "gaussian"):
        members = [Kernel(family, tau=t) for t in (0.05, 0.3, 1.0 / 3.0, 2.5, 1e3)]
        sq = kernels._sq_distances(rng.normal(size=(30, 3)), rng.normal(size=(20, 3)))
        sq[0, :5] = 0.0
        out = kernels._distance_kernels(members, sq, np.empty((len(members), *sq.shape)))
        for kernel, got in zip(members, out):
            assert np.array_equal(got, kernels._distance_kernel(kernel, sq.copy()))


def test_shared_distances_refuse_a_negative_gram_entry(monkeypatch):
    monkeypatch.setattr(kernels, "kernel_block", lambda k, a, b: -np.ones((len(a), len(b))))
    shared = kernels._SharedDistances(np.zeros((2, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="negative Gram entry"):
        shared.grams([Kernel.gaussian(1.0), Kernel.constant(1.0)])


def test_projection_kernel_requires_nonneg():
    with pytest.raises(ValueError, match="nonnegative"):
        Kernel.projection([[0.5, -0.5], [-0.5, 0.5]], [(0.0,), (1.0,)])


def test_projection_kernel_lookup():
    m = [[0.5, 0.5], [0.5, 0.5]]
    k = Kernel.projection(m, [(0.0,), (1.0,)])
    assert kernel_eval(k, [0.0], [1.0]) == 0.5
    with pytest.raises(ValueError, match="ground set"):
        kernel_eval(k, [9.0], [1.0])


def test_kernel_self_matches_eval(rng):
    t = rng.normal(size=2)
    for k in (Kernel.gaussian(1.1), Kernel.exponential(0.4), Kernel.constant(2.5)):
        assert kernel_self(k, t) == kernel_eval(k, t, t)


def test_kernel_self_batch_matches_per_row(rng):
    pts = rng.normal(size=(7, 2))
    pts[3] = pts[1]
    keys = [tuple(p) for p in pts]
    kernels = [
        Kernel.gaussian(1.1),
        Kernel.exponential(0.4),
        Kernel.constant(2.5),
        Kernel.projection(np.diag(np.arange(1.0, 7.0)), list(dict.fromkeys(keys))),
    ]
    for k in kernels:
        want = np.array([kernel_self(k, t) for t in pts])
        got = kernel_self_batch(k, pts)
        assert got.dtype == np.float64 and got.shape == (7,)
        assert np.array_equal(got, want)
        assert kernel_self_batch(k, pts[:0]).shape == (0,)


def test_serialization_round_trip():
    kernels = [
        Kernel.gaussian(0.7),
        Kernel.exponential(2.0),
        Kernel.constant(1.5),
        Kernel.projection([[1.0, 0.0], [0.0, 1.0]], [(0.0,), (1.0,)]),
    ]
    import json
    for k in kernels:
        blob = json.dumps(k.to_dict())
        back = Kernel.from_dict(json.loads(blob))
        assert back.to_dict() == k.to_dict()
        assert back.family is k.family


def test_from_dict_names_a_missing_key():
    with pytest.raises(ValueError, match="kernel has no 'family' key"):
        Kernel.from_dict({"tau": 1.0})
    with pytest.raises(ValueError, match="projection kernel has no 'aux' key"):
        Kernel.from_dict({"family": "projection_matrix"})
    with pytest.raises(ValueError, match="projection kernel aux has no 'points' key"):
        Kernel.from_dict({"family": "projection_matrix", "aux": {"matrix": [[1.0]]}})


def test_kernel_block_rows_match_pairwise_eval(rng):
    for d in DIMS:
        pts = rng.normal(size=(5, d))
        queries = np.vstack([rng.normal(size=(3, d)), pts[1:2]])
        m = rng.random((8, 8))
        kernels = [
            Kernel.gaussian(0.7 * math.sqrt(d)),
            Kernel.exponential(1.3 * math.sqrt(d)),
            Kernel.constant(2.0),
            Kernel.projection(m + m.T, np.vstack([pts, queries[:3]])),
        ]
        for k in kernels:
            block = kernel_block(k, queries, pts)
            assert block.shape == (4, 5)
            for q, t in enumerate(queries):
                assert np.array_equal(block[q], kernel_column(k, t, pts)), d
                assert np.array_equal(block[q], [kernel_eval(k, t, p) for p in pts]), d
            if k.family in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
                assert np.array_equal(block[3], gram(k, pts).entries[1]), d


def test_kernel_block_empty_sides():
    k = Kernel.gaussian(1.0)
    assert kernel_block(k, np.zeros((3, 2)), np.zeros((0, 2))).shape == (3, 0)
    assert kernel_block(k, np.zeros((0, 2)), np.zeros((4, 2))).shape == (0, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_block(k, np.zeros((1, 3)), np.zeros((4, 2)))


def test_gram_from_matrix_names_non_finite_entries():
    # NaN != NaN, so the symmetry test alone would blame the wrong cause
    with pytest.raises(ValueError, match=r"matrix row 0, column 0 is not finite \(nan\)"):
        GramMatrix.from_matrix([[np.nan]])
    with pytest.raises(ValueError, match=r"matrix row 0, column 1 is not finite \(-inf\)"):
        GramMatrix.from_matrix([[1.0, -np.inf], [-np.inf, 1.0]])
    with pytest.raises(ValueError, match="exactly symmetric"):
        GramMatrix.from_matrix([[1.0, 0.5], [0.4, 1.0]])


# every function that takes a raw matrix, each at alpha 0.7
MATRIX_FUNCTIONS = {
    "per_alpha_exact": lambda m: per_alpha_exact(m, 0.7),
    "cyp_exact": cyp_exact,
    "ratio_exact_matrix": lambda m: ratio_exact_matrix(m, 0.7),
    "ratio_approx_matrix": lambda m: ratio_approx_matrix(m, 0.7),
    "per_alpha_cyclic": lambda m: per_alpha_cyclic(m, 0.7),
    "closed_form_ratio_matrix":
        lambda m: closed_form_ratio_matrix(m, np.ones(3), 1.0, 0.7, "diagonal"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(MATRIX_FUNCTIONS))
def test_raw_matrices_refuse_non_finite_entries(name, bad):
    # symmetric, and outside the leading block the cyclic ratios read,
    # so only a finiteness check over the whole matrix refuses it
    m = np.diag([1.0, 2.0, 1.5])
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match=rf"matrix row 1, column 2 is not finite \({bad}\)"):
        MATRIX_FUNCTIONS[name](m)


def test_cyclic_matrix_functions_refuse_asymmetric_matrices():
    # only the last row and column disagree: the leading blocks are symmetric
    m = [[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.4, 0.3, 1.5]]
    for f in (ratio_approx_matrix, per_alpha_cyclic):
        with pytest.raises(ValueError, match="exactly symmetric"):
            f(m, 0.7)
