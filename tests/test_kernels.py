import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import closed_form_ratio_matrix, gram_one_shot, sq_distances_one_shot
from permclass import kernels
from permclass.classify import ModelParams
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
    with pytest.raises(ValueError, match=rf"projection matrix row 0, column 0 is not finite "
                                         rf"\({bad}\)"):
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
    # the largest n in one block: n x n sums below 8 dimensions, n x n x d
    # differences from 8 on
    b = math.isqrt(kernels._BLOCK_ENTRIES // (d if d >= 8 else 1))
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
    # pairwise; the row counts cross the block boundaries of both shapes,
    # at the block size itself too (450 rows of 80 points below d = 8)
    rng = np.random.default_rng(100 + d)
    sizes = (1, 4096, kernels._BLOCK_ENTRIES)
    for m, n in ((0, 5), (5, 0), (1, 1), (70, 300), (450, 80)):
        a = rng.normal(size=(m, d)) * rng.lognormal(size=d)
        b = rng.normal(size=(n, d)) * rng.lognormal(size=d)
        for block_entries in sizes:
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
            assert np.array_equal(kernels._sq_distances(a, b),
                                  sq_distances_one_shot(a, b))
            # against itself: upper-triangle blocks, mirrored
            assert np.array_equal(kernels._sq_distances(b), sq_distances_one_shot(b, b))


# below 8 dimensions numpy sums squared differences in sequence, from 8 on
# pairwise; 50 and 200 reach its blocked sums
DIMS = [*range(1, 10), 50, 200]


@pytest.mark.parametrize("d", DIMS)
def test_gram_triangular_blocks_match_one_shot_formula(d, monkeypatch):
    # `gram` and the shared stack sum only upper-triangle row blocks and
    # mirror them: exactly the one-shot entries, exactly symmetric; 150
    # points span several triangular blocks at every d for the two smaller
    # block sizes, and 1,000 points at d = 2 have block heights that grow
    # across the matrix (16 rows at the top, 163 below row 900)
    rng = np.random.default_rng(500 + d)
    sets = [rng.normal(size=(150, d)) * rng.lognormal(size=d)]
    if d == 2:
        sets.append(rng.normal(size=(1000, d)))
    for pts in sets:
        pts[7] = pts[3]  # an exact zero distance off the diagonal
        kernels_ = [Kernel.gaussian(0.9 * math.sqrt(d)), Kernel.exponential(0.6 * math.sqrt(d))]
        expected = [gram_one_shot(k, pts) for k in kernels_]
        for block_entries in (1, 4096, kernels._BLOCK_ENTRIES):
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
            shared = kernels._kernel_stack(kernels_, pts, pts, kernels._sq_distances(pts))
            for k, kernel in enumerate(kernels_):
                for entries in (gram(kernel, pts).entries, shared[k]):
                    assert np.array_equal(entries, expected[k])
                    assert np.array_equal(entries, entries.T)


def test_gram_peak_is_one_matrix_and_its_blocks():
    # no n x n temporary beside the matrix itself: no full-width distance
    # block and no scan of the finished matrix
    n = 1000
    pts = np.random.default_rng(3).normal(size=(n, 2))
    tracemalloc.start()
    try:
        gram(Kernel.exponential(1.0), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.07 * 8 * n * n


PAIR = [(0.0,), (1.0,)]


@pytest.mark.parametrize("family, params, message", [
    ("projection_matrix", {"aux": {"matrix": [[1.0, -0.5], [-0.5, 1.0]], "points": PAIR}},
     "kernel matrices must be elementwise nonnegative"),
    ("projection_matrix", {"aux": {"matrix": [[-1.0, 2.0], [2.0, 1.0]], "points": PAIR}},
     "kernel matrices must be elementwise nonnegative"),
    ("projection_matrix", {"aux": {"matrix": [[1, .9, .1], [.2, 1, .3], [.1, .3, 1]],
                                   "points": PAIR + [(2.0,)]}},
     "projection matrix must be symmetric"),
    ("projection_matrix", {"aux": {"matrix": [[1.0, 0.5]], "points": PAIR[:1]}},
     r"projection matrix must be square, got shape \(1, 2\)"),
    ("projection_matrix", {"aux": {"matrix": [[1.0, np.nan], [np.nan, 1.0]], "points": PAIR}},
     r"projection matrix row 0, column 1 is not finite \(nan\)"),
    ("projection_matrix", {"aux": {"matrix": [[{}, 0.0], [0.0, 1.0]], "points": PAIR}},
     r"projection matrix must be rows of real numbers \(float\(\) argument"),
    ("projection_matrix", {"aux": {"matrix": [[1.0, 0.0], [0.0]], "points": PAIR}},
     r"projection matrix must be rows of real numbers \("),
    ("projection_matrix", {"aux": {"matrix": np.eye(2), "points": [(0.0,), (0.0,)]}},
     "ground set points must be distinct"),
    ("projection_matrix", {"aux": {"matrix": np.eye(2), "points": [(np.nan,), (1.0,)]}},
     r"ground set row 0, column 0 is not finite \(nan\)"),
    ("projection_matrix", {"aux": {"matrix": np.eye(2), "points": [({},), (1.0,)]}},
     r"ground set array must be rows of real numbers \(float\(\) argument"),
    ("projection_matrix", {}, "projection kernel has no 'aux' key"),
    ("gaussian", {"tau": "0.5"}, "gaussian kernel requires a finite tau > 0, got '0.5'"),
    ("exponential", {"tau": None}, "exponential kernel requires a finite tau > 0, got None"),
    ("constant", {"c": np.bool_(True)}, "constant kernel requires a finite c > 0, got "),
    ("constant", {"c": "1.0"}, "constant kernel requires a finite c > 0, got '1.0'"),
], ids=["negative", "negative-off-diagonal", "asymmetric", "non-square", "non-finite",
        "mapping-entry", "ragged", "repeated-point", "nan-point", "mapping-point", "no-aux",
        "str-tau", "no-tau", "numpy-bool-c", "str-c"])
def test_every_way_of_making_a_kernel_refuses_a_bad_one(family, params, message):
    # the one check in the constructor is the only one: a bad kernel made
    # directly used to reach `kernel_block`, `fit` and `predict`
    makers = [lambda: Kernel(family, **params),
              lambda: Kernel.from_dict({"family": family, **params}),
              lambda: ModelParams.from_dict({"kernel": {"family": family, **params},
                                             "alphas": 1.0})]
    if "aux" in params:
        makers.append(lambda: Kernel.projection(params["aux"]["matrix"], params["aux"]["points"]))
    for make in makers:
        with pytest.raises(ValueError, match=message):
            make()


def test_projection_is_the_checked_constructor(rng):
    m = rng.random((4, 4))
    m += m.T
    pts = rng.normal(size=(4, 2))
    k = Kernel.projection(m, pts)
    assert k == Kernel("projection_matrix", aux={"matrix": m, "points": pts})
    assert k == Kernel.from_dict(k.to_dict())
    assert k.aux == {"matrix": m.tolist(), "points": [tuple(p) for p in pts.tolist()]}


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
    # blocks' row steps, down to tau scales of 0.05 and up to 1e3;
    # 150 queries against 300 points span three query blocks, and the
    # distance row blocks are crossed at every d
    rng = np.random.default_rng(400 + d)
    pts = rng.normal(size=(300, d)) * rng.lognormal(size=d)
    pts[7] = pts[3]  # an exact zero distance off the diagonal
    qs = rng.normal(size=(150, d)) * rng.lognormal(size=d)
    qs[5] = pts[0]
    steps = kernels._query_steps(150, 300)
    assert len(steps) == 3
    scales = (0.05, 0.2, 0.6, 0.9, 2.5, 1e3)
    kernels_ = [Kernel(fam, tau=s * math.sqrt(d))
                for s in scales for fam in ("gaussian", "exponential")]
    for block_entries in (1, 4096, kernels._BLOCK_ENTRIES):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
        grams = GramMatrix(kernels._kernel_stack(kernels_, pts, pts, kernels._sq_distances(pts)),
                           pts)
        assert grams.kernel is None and np.array_equal(grams.points, pts)
        blocks = kernels._kernel_stack(kernels_, qs, pts, kernels._sq_distances(qs, pts))
        for k, kernel in enumerate(kernels_):
            assert np.array_equal(grams.entries[k], gram(kernel, pts).entries)
            for rows in steps:
                assert np.array_equal(blocks[k][rows], kernel_block(kernel, qs[rows], pts))


def test_shared_distances_are_computed_once_and_only_for_distance_kernels(rng, sq_distance_calls):
    # the other families read no squared distances, and the stack computes
    # none: runs of distance kernels all read the caller's two
    ground = [tuple(p) for p in rng.normal(size=(9, 2))]
    pts, qs = np.array(ground[:5]), np.array(ground[5:])
    m = rng.random((9, 9))
    others = [Kernel.constant(1.7), Kernel.projection(m + m.T, ground)]
    grams = kernels._kernel_stack(others, pts, pts, None)
    blocks = kernels._kernel_stack(others, qs, pts, None)
    for k, kernel in enumerate(others):
        assert np.array_equal(grams[k], gram(kernel, pts).entries)
        assert np.array_equal(blocks[k], kernel_block(kernel, qs, pts))
    assert not sq_distance_calls
    sq, held = kernels._sq_distances(pts), kernels._sq_distances(qs, pts)
    for run in ([Kernel.gaussian(0.5), Kernel.exponential(0.5)], [Kernel.gaussian(2.0)]):
        kernels._kernel_stack(run, pts, pts, sq)
        kernels._kernel_stack(run, qs, pts, held)
    assert len(sq_distance_calls) == 2


def test_shared_distances_stack_a_run_of_mixed_kernels(rng, sq_distance_calls):
    # a run's stacks hold each kernel's `gram` and `kernel_block` in run
    # order, whatever the families' order in the run: the distance kernels
    # each transform the kept squared distances into their own slot, the
    # others are built one at a time; a later run reuses the squared
    # distances
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
    sq, held = kernels._sq_distances(pts), kernels._sq_distances(qs, pts)
    assert np.array_equal(kernels._kernel_stack(run, pts, pts, sq), grams[:-1])
    assert np.array_equal(kernels._kernel_stack(run, qs, pts, held), blocks)
    assert len(sq_distance_calls) == 2
    keep = [0, 2, 4, 6]
    assert np.array_equal(kernels._kernel_stack([run[k] for k in keep], pts, pts, sq),
                          [grams[k] for k in keep])
    assert np.array_equal(kernels._kernel_stack([run[k] for k in keep], qs, pts, held),
                          [blocks[k] for k in keep])
    one = kernels._kernel_stack([other], pts, pts, sq)
    assert one.shape == (1, 7, 7) and np.array_equal(one[0], grams[-1])
    assert len(sq_distance_calls) == 2


def test_projection_lookups_match_per_pair_entries(rng):
    # one key-to-index map per call, the block read from its query rows,
    # against the entry of each pair found by its points' ground-set
    # positions, with repeated and reordered points on both sides
    ground = [tuple(p) for p in rng.normal(size=(7, 2))]
    m = rng.random((7, 7))
    m += m.T
    k = Kernel.projection(m, ground)
    pts = np.array([ground[i] for i in (4, 0, 4, 6, 2)])
    qs = np.array([ground[i] for i in (1, 6, 6, 3)])

    def entries(a, b):
        return np.array([[m[ground.index(tuple(s))][ground.index(tuple(t))] for t in b]
                         for s in a]).reshape(len(a), len(b))

    block = kernel_block(k, qs, pts)
    assert np.array_equal(block, entries(qs, pts)) and block.flags.c_contiguous
    assert np.array_equal(kernel_block(k, qs[:0], pts), entries(qs[:0], pts))
    assert np.array_equal(gram(k, pts).entries, entries(pts, pts))
    assert np.array_equal(kernel_self_batch(k, qs), np.diag(entries(qs, qs)))
    for s in qs:
        for t in pts:
            assert kernel_eval(k, s, t) == entries([s], [t])[0, 0]
    outside = np.vstack([pts, [[9.0, 9.0]]])
    for call in (lambda: kernel_block(k, qs, outside), lambda: kernel_block(k, outside, pts),
                 lambda: kernel_self_batch(k, outside), lambda: gram(k, outside),
                 lambda: kernel_eval(k, pts[0], outside[-1])):
        with pytest.raises(ValueError, match=r"point \(9.0, 9.0\) is not in the projection "
                                             "kernel ground set"):
            call()


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
    # a projection's K(t, t) is `kernel_self_batch`'s lookup, not
    # `kernel_eval`'s, so the two paths are checked against each other
    t = rng.normal(size=2)
    for k in (Kernel.gaussian(1.1), Kernel.exponential(0.4), Kernel.constant(2.5)):
        assert kernel_self(k, t) == kernel_eval(k, t, t)
    ground = [tuple(p) for p in rng.normal(size=(4, 2))]
    m = rng.uniform(0.0, 2.0, size=(4, 4))
    k = Kernel.projection(m + m.T, ground)
    for p in ground:
        assert kernel_self(k, p) == kernel_eval(k, p, p)
    with pytest.raises(ValueError, match="not in the projection kernel ground set"):
        kernel_self(k, t)


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


@pytest.mark.parametrize("spec, message", [
    ({"family": "constant", "c": 1.0, "tau": 0.1}, "constant kernel takes no tau, got 0.1"),
    ({"family": "gaussian", "tau": 0.5, "c": 1.0}, "gaussian kernel takes no c, got 1.0"),
    ({"family": "exponential", "tau": 0.5, "aux": {}}, "exponential kernel takes no aux"),
    ({"family": "constant", "c": 1.0, "aux": {}}, "constant kernel takes no aux"),
    ({"family": "projection_matrix", "tau": 0.1,
      "aux": {"matrix": [[1.0]], "points": [[0.0]]}}, "projection_matrix kernel takes no tau"),
    ({"family": "projection_matrix", "c": 1.0,
      "aux": {"matrix": [[1.0]], "points": [[0.0]]}}, "projection_matrix kernel takes no c"),
    ({"family": "gaussian", "tau": True}, r"gaussian kernel requires a finite tau > 0, got True"),
    ({"family": "constant", "c": True}, r"constant kernel requires a finite c > 0, got True"),
], ids=["constant-tau", "gaussian-c", "exponential-aux", "constant-aux", "projection-tau",
        "projection-c", "bool-tau", "bool-c"])
def test_a_kernel_refuses_parameters_its_family_does_not_read(spec, message):
    # a stray parameter would be kept and written back, and cross-validation
    # breaks its ties on tau: a constant kernel's stray tau sorted it
    # among the distance kernels
    with pytest.raises(ValueError, match=message):
        Kernel.from_dict(spec)
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    with pytest.raises(ValueError, match=message):
        Kernel(spec["family"], **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: kernel_eval(Kernel.gaussian(1.0), [[0.0, 1.0]], [0.0, 1.0]),
     r"feature vector must be one-dimensional, got shape \(1, 2\)"),
    (lambda: kernel_block(Kernel.gaussian(1.0), np.zeros((1, 1, 1)), np.zeros((2, 1))),
     r"point set must be a 2-d array, got shape \(1, 1, 1\)"),
    (lambda: Kernel.projection([[1.0, 0.0]], [(0.0,)]),
     r"projection matrix must be square, got shape \(1, 2\)"),
    (lambda: Kernel.projection(np.eye(2), [(0.0,)]),
     "ground set size must match the matrix dimension"),
    (lambda: Kernel.projection([[1.0, 0.5], [0.25, 1.0]], [(0.0,), (1.0,)]),
     "projection matrix must be symmetric"),
    (lambda: Kernel.projection(np.eye(2), [(0.0,), (0.0,)]),
     "ground set points must be distinct"),
    (lambda: GramMatrix(entries=np.zeros((2, 3)), points=np.zeros((2, 1))),
     r"gram matrix must be square, got shape \(2, 3\)"),
    (lambda: GramMatrix(entries=np.eye(2), points=np.zeros((3, 1))),
     "gram matrix size must match the point count"),
], ids=["point-shape", "point-set-shape", "projection-not-square", "ground-set-size",
        "projection-asymmetric", "ground-set-repeats", "gram-not-square", "gram-point-count"])
def test_kernel_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
