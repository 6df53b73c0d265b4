import math

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.tensor as T
from mmlm.errors import ConfigError, DataError, DimensionError, StateError
import tape_ops as O
from oracles import finite_diff_check, sigmoid_piecewise


def test_tensor_wraps_2d_and_promotes():
    t = T.const([[1, 2], [3, 4]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float64
    row = T.const([1.0, 2.0, 3.0])
    assert row.shape == (1, 3)
    scalar = T.const(5.0)
    assert scalar.shape == (1, 1)
    assert scalar.item() == 5.0


def test_tensor_rejects_higher_rank():
    with pytest.raises(DimensionError):
        T.const(np.zeros((2, 2, 2)))


def test_matmul_known_value():
    a = T.const([[1.0, 2.0]])
    b = T.const([[3.0], [4.0]])
    npt.assert_array_equal(O.matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    a = T.const(np.zeros((2, 3)))
    b = T.const(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as ei:
        O.matmul(a, b)
    assert "(2, 3)" in str(ei.value)


def test_mixed_precision_rejected():
    a = T.const(np.zeros((2, 2), dtype=np.float32))
    b = T.const(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ConfigError):
        O.add(a, b)
    with pytest.raises(ConfigError):
        O.matmul(a, b)


def test_matmul_backward_hand_computed():
    # c = a @ b, loss = sum(c):  da = ones @ b.T, db = a.T @ ones
    a = T.param([[1.0, 2.0], [3.0, 4.0]])
    b = T.param([[5.0, 6.0], [7.0, 8.0]])
    T.backward(O.sum_all(O.matmul(a, b)))
    npt.assert_array_equal(a.grad, [[11.0, 15.0], [11.0, 15.0]])
    npt.assert_array_equal(b.grad, [[4.0, 4.0], [6.0, 6.0]])


def test_add_and_hadamard_require_same_shape():
    a = T.const(np.zeros((2, 3)))
    b = T.const(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        O.add(a, b)
    with pytest.raises(DimensionError):
        O.hadamard(a, b)


def test_hadamard_backward():
    a = T.param([[2.0, 3.0]])
    b = T.param([[5.0, 7.0]])
    T.backward(O.sum_all(O.hadamard(a, b)))
    npt.assert_array_equal(a.grad, [[5.0, 7.0]])
    npt.assert_array_equal(b.grad, [[2.0, 3.0]])


def test_activations_known_values():
    x = T.const([[0.0, 0.5, -1.0]])
    npt.assert_allclose(O.sigmoid(x).data, [[0.5, 0.6224593312018546, 0.2689414213699951]], rtol=1e-12)
    npt.assert_allclose(O.tanh(x).data, [[0.0, 0.46211715726000974, -0.7615941559557649]], rtol=1e-12)
    npt.assert_array_equal(O.relu(x).data, [[0.0, 0.5, 0.0]])
    npt.assert_array_equal(O.identity(x).data, x.data)


def test_sigmoid_extreme_inputs_stay_finite():
    x = T.const([[-1000.0, 1000.0]])
    with np.errstate(over="raise"):
        y = O.sigmoid(x)
    npt.assert_allclose(y.data, [[0.0, 1.0]], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logistic_equals_the_piecewise_sigmoid(dtype):
    # exp over- and underflow edges of both dtypes, signed zeros, the
    # smallest subnormals, infinities and NaN, then a wide random sweep
    edges = [88.72, 88.73, 103.97, 103.98, 709.78, 709.79, 745.13, 745.14]
    special = [0.0, -0.0, 1e-45, -1e-45, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    special += edges + [-e for e in edges]
    rng = np.random.default_rng(5)
    sweep = np.concatenate([rng.uniform(-800.0, 800.0, 500_000),
                            rng.normal(0.0, 5.0, 500_000),
                            np.exp(rng.uniform(-100.0, 6.0, 200_000)) * rng.choice([-1, 1], 200_000)])
    with np.errstate(over="ignore", under="ignore"):
        x = np.concatenate([np.array(special), sweep]).astype(dtype)
        assert np.array_equal(T.logistic(x), sigmoid_piecewise(x), equal_nan=True)
        assert T.logistic(x).dtype == dtype


def test_relu_derivative_zero_at_zero():
    x = T.param([[-1.0, 0.0, 2.0]])
    T.backward(O.sum_all(O.relu(x)))
    npt.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_softmax_known_value():
    x = T.const([[math.log(1.0), math.log(3.0)]])
    npt.assert_allclose(O.softmax_rows(x).data, [[0.25, 0.75]], rtol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = T.const(rng.uniform(-50, 50, (4, 9)))
        y = O.softmax_rows(x).data
        assert y.min() >= 0.0
        npt.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.uniform(-5, 5, (3, 7))
    a = O.softmax_rows(T.const(x)).data
    b = O.softmax_rows(T.const(x + 123.0)).data
    npt.assert_allclose(a, b, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(2)
    x = rng.uniform(-10, 10, (5, 6))
    npt.assert_allclose(
        O.log_softmax_rows(T.const(x)).data,
        np.log(O.softmax_rows(T.const(x)).data),
        atol=1e-12,
    )


def test_transpose_backward():
    a = T.param([[1.0, 2.0, 3.0]])
    w = T.const([[1.0], [10.0], [100.0]])
    T.backward(O.sum_all(O.hadamard(O.transpose(a), w)))
    npt.assert_array_equal(a.grad, [[1.0, 10.0, 100.0]])


def test_add_row_and_mul_row():
    x = T.param([[1.0, 2.0], [3.0, 4.0]])
    v = T.param([[10.0, 20.0]])
    out = T.add_row(x, v)
    npt.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
    T.backward(O.sum_all(out))
    npt.assert_array_equal(x.grad, np.ones((2, 2)))
    npt.assert_array_equal(v.grad, [[2.0, 2.0]])  # bias grad sums over rows

    x2 = T.param([[1.0, 2.0], [3.0, 4.0]])
    v2 = T.param([[10.0, 20.0]])
    out2 = O.mul_row(x2, v2)
    npt.assert_array_equal(out2.data, [[10.0, 40.0], [30.0, 80.0]])
    T.backward(O.sum_all(out2))
    npt.assert_array_equal(x2.grad, [[10.0, 20.0], [10.0, 20.0]])
    npt.assert_array_equal(v2.grad, [[4.0, 6.0]])


def test_row_ops_reject_bad_vector_shape():
    x = T.const(np.zeros((2, 3)))
    v = T.const(np.zeros((1, 2)))
    with pytest.raises(DimensionError):
        T.add_row(x, v)
    with pytest.raises(DimensionError):
        O.mul_row(x, v)


def test_embed_columns_forward_and_backward():
    w = T.param([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # hidden=2, vocab=3
    out = O.embed_columns(w, np.array([2, 0, 2]))
    npt.assert_array_equal(out.data, [[3.0, 6.0], [1.0, 4.0], [3.0, 6.0]])
    T.backward(O.sum_all(out))
    # column 2 looked up twice, column 0 once, column 1 never
    npt.assert_array_equal(w.grad, [[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])


def test_embed_columns_backward_into_cleared_grad():
    # a leaf whose grad is None gets a fresh buffer; repeated ids accumulate
    w = T.param([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    w.grad = None
    out = O.embed_columns(w, np.array([3, 1, 3, 3]))
    T.backward(O.sum_all(O.hadamard(out, T.const([[1.0, 2.0], [3.0, 4.0],
                                                   [5.0, 6.0], [7.0, 8.0]]))))
    npt.assert_array_equal(w.grad, [[0.0, 3.0, 0.0, 13.0], [0.0, 4.0, 0.0, 16.0]])
    assert w.grad.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compact_column_gradient_equals_a_dense_scatter(dtype):
    # repeated and duplicate ids over several calls, some widening the
    # compact block and one (a reversed copy) inside it
    rng = np.random.default_rng(21)
    rows, vocab = 5, 40
    w = T.param(rng.uniform(-1, 1, (rows, vocab)).astype(dtype))
    want = np.zeros((rows, vocab), dtype)
    calls = [rng.integers(0, vocab // 2, 30), np.array([3, 3, 3]), rng.integers(0, vocab, 17)]
    calls.append(calls[0][::-1].copy())
    for k, idx in enumerate(calls):
        g = rng.standard_normal((idx.size, rows)).astype(dtype)
        T._accum_columns(w, idx, g)
        np.add.at(want.T, idx, g)
        npt.assert_array_equal(w.grad_cols, np.unique(np.concatenate(calls[:k + 1])))
        assert w.grad_block.shape == (rows, w.grad_cols.size)
    assert w.grad.dtype == dtype and w.grad.tobytes() == want.tobytes()
    assert w.grad_cols is None  # the read expanded it for good

    # a dense write onto a compact gradient expands it first; column writes
    # then land in the full-shape buffer
    w.grad = None
    for idx in calls[:2]:
        T._accum_columns(w, idx, np.ones((idx.size, rows), dtype))
    dense = rng.standard_normal((rows, vocab)).astype(dtype)
    T._accum(w, dense)
    assert w.grad_cols is None and w.grad_block.shape == (rows, vocab)
    T._accum_columns(w, calls[2], np.ones((calls[2].size, rows), dtype))
    want = np.zeros((rows, vocab), dtype)
    for idx in calls[:2]:
        np.add.at(want.T, idx, np.ones((idx.size, rows), dtype))
    want += dense
    np.add.at(want.T, calls[2], np.ones((calls[2].size, rows), dtype))
    assert w.grad.tobytes() == want.tobytes()

    T.zero_grad([w])
    assert w.grad_block is None and w.grad_cols is None
    assert w.grad.tobytes() == np.zeros((rows, vocab), dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_column_map_equals_a_dense_scatter(dtype, monkeypatch):
    # one id list scattered into several matrices, as a recurrence's
    # backward does: matrices without a gradient share one map, and one
    # compact over other columns or of another height builds its own
    rng = np.random.default_rng(5)
    vocab = 40
    idx = rng.integers(0, vocab, 25)
    ws = [T.param(np.zeros((rows, vocab), dtype)) for rows in (5, 5, 5, 3, 5)]
    wants = [np.zeros(w.shape, dtype) for w in ws]
    early, g0 = np.array([1, 39, 39]), rng.standard_normal((3, 5)).astype(dtype)
    T._accum_columns(ws[2], early, g0)
    np.add.at(wants[2].T, early, g0)
    ws[4].grad = np.zeros(ws[4].shape, dtype)  # full-shape
    built = []
    make = T._column_map
    monkeypatch.setattr(T, "_column_map", lambda *a: built.append(a) or make(*a))
    shared = None
    for w, want in zip(ws, wants):
        g = rng.standard_normal((idx.size, w.rows)).astype(dtype)
        shared = T._accum_columns(w, idx, g, shared)
        np.add.at(want.T, idx, g)
    assert len(built) == 3
    assert ws[1].grad_cols is ws[0].grad_cols
    npt.assert_array_equal(ws[2].grad_cols, np.unique(np.concatenate([early, idx])))
    for w, want in zip(ws, wants):
        assert w.grad.tobytes() == want.tobytes()


def test_embed_columns_rejects_out_of_range():
    w = T.const(np.zeros((2, 3)))
    with pytest.raises(DataError):
        O.embed_columns(w, np.array([0, 3]))
    with pytest.raises(DataError):
        O.embed_columns(w, np.array([-1]))


def test_take_per_row():
    x = T.param([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = O.take_per_row(x, np.array([2, 0]))
    npt.assert_array_equal(out.data, [[3.0], [4.0]])
    T.backward(O.scale(O.sum_all(out), 2.0))
    npt.assert_array_equal(x.grad, [[0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DimensionError):
        O.take_per_row(x, np.array([0]))
    with pytest.raises(DataError):
        O.take_per_row(x, np.array([0, 3]))


def test_backward_requires_scalar():
    a = T.param(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        T.backward(O.scale(a, 2.0))


def test_backward_twice_is_state_error():
    a = T.param(np.ones((1, 1)))
    loss = O.sum_all(O.scale(a, 3.0))
    T.backward(loss)
    with pytest.raises(StateError):
        T.backward(loss)


def test_constant_loss_leaves_grads_zero():
    a = T.param(np.ones((2, 2)))
    loss = O.sum_all(T.const(np.ones((1, 1))))
    T.backward(loss)
    npt.assert_array_equal(a.grad, np.zeros((2, 2)))


def test_shared_subexpression_visited_once():
    # h is used twice; d(h*h + h)/da at a=3 is 2a + 1 = 7
    a = T.param([[3.0]])
    h = O.identity(a)
    loss = O.sum_all(O.add(O.hadamard(h, h), h))
    T.backward(loss)
    npt.assert_array_equal(a.grad, [[7.0]])


def test_grad_accumulates_across_tapes_until_zeroed():
    a = T.param([[1.0]])
    T.backward(O.sum_all(O.scale(a, 2.0)))
    T.backward(O.sum_all(O.scale(a, 3.0)))
    npt.assert_array_equal(a.grad, [[5.0]])
    T.zero_grad([a])
    npt.assert_array_equal(a.grad, [[0.0]])


def test_clip_gradients():
    # one global norm over every gradient: sqrt(3^2 + 4^2 + 12^2) = 13
    w, b = np.array([[3.0, 0.0, -4.0]]), np.array([[12.0]], dtype=np.float32)
    grads = {"w": w, "b": b}
    clipped = T.clip_gradients(grads, 2.0)
    factor = 2.0 / 13.0 * (1.0 - 1e-5)
    npt.assert_array_equal(clipped["w"], np.array([[3.0, 0.0, -4.0]]) * factor)
    npt.assert_array_equal(clipped["b"], np.float32(12.0) * np.float32(factor))
    # scaled in place: the returned dict and arrays are the inputs themselves
    assert clipped is grads and clipped["w"] is w and clipped["b"] is b
    assert b.dtype == np.float32
    with pytest.raises(ConfigError):
        T.clip_gradients(grads, 0.0)
    with pytest.raises(ConfigError):
        T.clip_gradients(grads, -1.0)


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
def test_clip_gradients_leaves_norms_at_or_below_the_bound(scale):
    # global norm 2 * scale: exactly the bound at scale 1
    grads = {"a": np.array([[scale, -scale]]), "b": np.array([[scale], [scale]], dtype=np.float32)}
    want = {k: v.copy() for k, v in grads.items()}
    T.clip_gradients(grads, 2.0)
    for k, v in grads.items():
        assert v.tobytes() == want[k].tobytes(), k


def test_finite_diff_check_rejects_float32_and_bad_eps():
    a = T.param(np.ones((1, 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        finite_diff_check(lambda: O.sum_all(a), [a])
    b = T.param(np.ones((1, 1)))
    with pytest.raises(ConfigError):
        finite_diff_check(lambda: O.sum_all(b), [b], eps=0.0)


def test_finite_diff_check_flags_wrong_gradient():
    # a deliberately broken backward must push the reported error toward 1
    a = T.param([[0.3]])

    def loss():
        out = T._result(a.data * 2.0, (a,), lambda g: T._accum(a, g * 5.0))
        return O.sum_all(out)

    assert finite_diff_check(loss, [a]) > 0.4


def test_finite_diff_random_graphs_stay_tight():
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = T.param(rng.uniform(-1, 1, (3, 4)))
        b = T.param(rng.uniform(-1, 1, (4, 5)))
        v = T.param(rng.uniform(-1, 1, (1, 5)))
        emb_ids = rng.integers(0, 4, size=3)
        pick_cols = rng.integers(0, 5, size=3)

        def loss():
            x = T.add_row(O.matmul(a, b), v)
            g1 = O.sigmoid(x)
            g2 = O.tanh(O.mul_row(x, v))
            mixed = O.add(O.hadamard(g1, g2), O.scale(g2, 0.5))
            pick = O.take_per_row(O.log_softmax_rows(mixed), pick_cols)
            e = O.embed_columns(a, emb_ids)
            return O.add(O.sum_all(pick), O.sum_all(O.softmax_rows(e)))

        worst = max(worst, finite_diff_check(loss, [a, b, v], eps=1e-5))
    assert worst < 1e-6, worst


def test_matmul_t_matches_matmul_of_transpose():
    rng = np.random.default_rng(4)
    a = T.const(rng.uniform(-1, 1, (3, 4)))
    b = T.const(rng.uniform(-1, 1, (5, 4)))
    npt.assert_array_equal(T.matmul_t(a, b).data, O.matmul(a, O.transpose(b)).data)
    with pytest.raises(DimensionError):
        T.matmul_t(a, T.const(np.zeros((4, 5))))
    with pytest.raises(ConfigError):
        T.matmul_t(a, T.const(np.zeros((5, 4), dtype=np.float32)))


def test_sum_row_blocks_forward():
    x = T.const(np.arange(12.0).reshape(6, 2))
    npt.assert_array_equal(O.sum_row_blocks(x, 3).data, [[12.0, 15.0], [18.0, 21.0]])
    npt.assert_array_equal(O.sum_row_blocks(x, 1).data, x.data)
    with pytest.raises(DimensionError):
        O.sum_row_blocks(x, 4)


def test_sum_row_blocks_adds_blocks_in_order():
    # 1 + 1e16 - 1e16 is 0 left to right; any other order gives 1
    x = T.const([[1.0], [1e16], [-1e16]])
    assert O.sum_row_blocks(x, 3).item() == 0.0


def test_finite_diff_matmul_t_put_rows_sum_row_blocks():
    rng = np.random.default_rng(5)
    a = T.param(rng.uniform(-1, 1, (3, 4)))
    b = T.param(rng.uniform(-1, 1, (5, 4)))
    c = T.param(rng.uniform(-1, 1, (2, 4)))
    w = T.const(rng.uniform(-1, 1, (5, 5)))

    def loss():
        stacked = O.add(O.put_rows(a, [0, 1, 2], 5), O.put_rows(O.tanh(c), [3, 4], 5))
        y = T.matmul_t(stacked, b)
        picked = O.sum_row_blocks(O.hadamard(O.sigmoid(y), w), 5)
        return O.sum_all(O.hadamard(picked, picked))

    assert finite_diff_check(loss, [a, b, c], eps=1e-5) < 1e-7


def test_no_grad_builds_no_tape_and_leaves_grads_alone():
    w = T.param([[1.0, -2.0], [0.5, 3.0]])
    w.grad[:] = 7.0
    before = w.grad.copy()
    with T.no_grad():
        y = O.tanh(O.matmul(T.const([[1.0, 2.0]]), w))
        loss = O.sum_all(y)
    for node in (y, loss):
        assert not node.requires_grad
        assert node._parents == () and node._backward is None
    npt.assert_array_equal(y.data, np.tanh([[2.0, 4.0]]))
    T.backward(loss)
    npt.assert_array_equal(w.grad, before)
    # the tape is back after the block
    assert O.sum_all(O.matmul(T.const([[1.0, 2.0]]), w))._parents != ()


def test_no_grad_nests_and_restores_after_an_exception():
    w = T.param([[1.0]])

    def taped():
        return O.scale(w, 2.0).requires_grad

    with T.no_grad():
        with T.no_grad():
            assert not taped()
        assert not taped()  # leaving the inner block keeps the outer one
    assert taped()
    with pytest.raises(ZeroDivisionError):
        with T.no_grad():
            1 / 0
    assert taped()


def test_take_rows_and_put_rows():
    x = T.param([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    got = O.take_rows(x, [2, 0, 2])
    npt.assert_array_equal(got.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
    T.backward(O.sum_all(O.hadamard(got, T.const([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))))
    npt.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0]])  # repeats add up
    y = T.param([[1.0], [2.0], [4.0]])
    put = O.put_rows(y, [3, 0, 3], 5)
    npt.assert_array_equal(put.data, [[2.0], [0.0], [0.0], [5.0], [0.0]])
    T.backward(O.sum_all(O.hadamard(put, T.const([[1.0], [2.0], [3.0], [4.0], [5.0]]))))
    npt.assert_array_equal(y.grad, [[4.0], [1.0], [4.0]])
    with pytest.raises(DataError):
        O.take_rows(x, [3])
    with pytest.raises(DataError):
        O.put_rows(y, [0, 1, 5], 5)
    with pytest.raises(DimensionError):
        O.put_rows(y, [0, 1], 5)
    with pytest.raises(DimensionError):
        O.take_rows(x, [[0]])


def _decoder_chain(hs, w, b, targets, mask):
    """masked_nll as the op chain it replaced: the decoder on the masked rows,
    put back in place, summed per sequence in step order, then over
    sequences."""
    scored = np.flatnonzero(mask.reshape(-1))
    logits = T.matmul_t(O.take_rows(hs, scored), w)
    if b is not None:
        logits = T.add_row(logits, b)
    picked = O.take_per_row(O.log_softmax_rows(logits), targets.reshape(-1)[scored])
    per_seq = O.sum_row_blocks(O.put_rows(picked, scored, targets.size), targets.shape[0])
    return O.scale(O.sum_all(per_seq), -1.0)


# 3 steps of 4 sequences, the last one all padding
MASK = np.array([[1, 1, 1, 0], [1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.float32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [True, False])
def test_masked_nll_equals_the_op_chain(monkeypatch, dtype, bias):
    # a 100-byte scratch holds one or two rows of 11 classes, so the
    # exponentials of the 7 decoded rows take several blocks
    monkeypatch.setattr(T, "_EXP_BLOCK_BYTES", 100)
    rng = np.random.default_rng(6)
    hs = T.param(rng.uniform(-3, 3, (12, 5)).astype(dtype))
    w = T.param(rng.uniform(-3, 3, (11, 5)).astype(dtype))
    b = T.param(rng.uniform(-1, 1, (1, 11)).astype(dtype)) if bias else None
    targets = rng.integers(0, 11, (3, 4))
    leaves = [hs, w] + ([b] if bias else [])
    want = _decoder_chain(hs, w, b, targets, MASK)
    T.backward(O.scale(want, 3.0))
    want_grads = [p.grad.copy() for p in leaves]
    T.zero_grad(leaves)
    got = T.masked_nll(hs, w, b, targets, MASK)
    assert got.data.tobytes() == want.data.tobytes()
    with T.no_grad():
        assert T.masked_nll(hs, w, b, targets, MASK).data.tobytes() == want.data.tobytes()
    T.backward(O.scale(got, 3.0))
    tol = 1e-6 if dtype == np.float32 else 1e-14
    for p, g in zip(leaves, want_grads):
        npt.assert_allclose(p.grad, g, rtol=tol, atol=tol)
    assert not hs.grad[MASK.reshape(-1) == 0].any()  # undecoded rows get no gradient


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot_t_equals_the_plain_product_bit_for_bit(dtype):
    # H x H and V x H weights, 1 to 40 rows: both sides of the row bound
    # and of the size floor, and both orders wherever the BLAS lets the
    # weight-major one run. With OpenBLAS's AVX-512 kernels the float64
    # orders differ at 300 x 128 from 12 rows on.
    weight_major = T._orders_agree(np.dtype(dtype))
    rng = np.random.default_rng(12)
    for shape in ((6, 6), (64, 64), (11, 6), (256, 256), (1000, 64), (300, 128)):
        w = rng.uniform(-1, 1, shape).astype(dtype)
        for rows in range(1, 41):
            x = rng.uniform(-1, 1, (rows, shape[1])).astype(dtype)
            want = (x @ w.T).tobytes()
            got = T.dot_t(x, w)
            assert got.flags.c_contiguous and got.dtype == dtype
            assert got.tobytes() == want, (shape, rows)
            if weight_major and rows <= T._WEIGHT_MAJOR_ROWS \
                    and w.size >= T._WEIGHT_MAJOR_MIN_SIZE:
                assert (w @ x.T).T.tobytes() == want, (shape, rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_probs_equals_the_op_chain(monkeypatch, dtype):
    monkeypatch.setattr(T, "_EXP_BLOCK_BYTES", 100)
    rng = np.random.default_rng(8)
    # row counts on both sides of dot_t's weight-major bound, and a decoder
    # at its size floor next to a small one
    for rows in (1, 7, T._WEIGHT_MAJOR_ROWS, T._WEIGHT_MAJOR_ROWS + 1):
        for classes, width in ((11, 5), (T._WEIGHT_MAJOR_MIN_SIZE // 32, 32)):
            h = T.const(rng.uniform(-3, 3, (rows, width)).astype(dtype))
            w = T.param(rng.uniform(-3, 3, (classes, width)).astype(dtype))
            b = T.param(rng.uniform(-1, 1, (1, classes)).astype(dtype))
            logits = T.const(h.data @ w.data.T)  # the plain product, not dot_t's
            want = O.log_softmax_rows(T.add_row(logits, b)).data
            got = T.log_probs(h, w, b)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), (rows, classes)
            want = O.log_softmax_rows(logits).data
            assert T.log_probs(h, w, None).tobytes() == want.tobytes(), (rows, classes)


def _step_order_nll(logp, targets, mask):
    """-(sum over sequences of each sequence's log-probs added in step
    order), one addition at a time in logp's dtype."""
    total = None
    for j in range(targets.shape[1]):
        seq = logp.dtype.type(0.0)
        for t in range(targets.shape[0]):
            if mask[t, j]:
                seq = seq + logp[t * targets.shape[1] + j, targets[t, j]]
        total = seq if total is None else total + seq
    return -total


def test_masked_nll_adds_each_sequence_in_step_order():
    # one class ten orders of magnitude below the rest: adding 1.386 to
    # -1e16 moves it by 2, so the order of the additions shows in the sum
    h = T.const(np.zeros((6, 2)))
    w = T.const(np.zeros((5, 2)))
    b = T.const([[0.0, 0.0, 0.0, 0.0, -1e16]])
    targets = np.array([[4, 0], [0, 4], [0, 1]])
    mask = np.ones((3, 2))
    logp = T.log_probs(h, w, b)
    got = T.masked_nll(h, w, b, targets, mask).item()
    assert got == _step_order_nll(logp, targets, mask)
    assert got != _step_order_nll(logp, targets[::-1], mask)  # the order matters here
    # random float32 rows on a ragged batch, and one sequence of 20 steps,
    # where numpy's pairwise sum over the steps gives another result
    rng = np.random.default_rng(10)
    for steps, batch in ((3, 4), (20, 1)):
        h = T.const(rng.uniform(-3, 3, (steps * batch, 5)).astype(np.float32))
        w = T.const(rng.uniform(-3, 3, (11, 5)).astype(np.float32))
        targets = rng.integers(0, 11, (steps, batch))
        mask = MASK if batch == 4 else np.ones((steps, 1), np.float32)
        logp = T.log_probs(h, w, None)
        got = T.masked_nll(h, w, None, targets, mask).data[0, 0]
        assert got == _step_order_nll(logp, targets, mask)
    assert got != -logp[np.arange(steps), targets[:, 0]].sum()


def test_finite_diff_masked_nll():
    rng = np.random.default_rng(7)
    a = T.param(rng.uniform(-1, 1, (6, 4)))
    w = T.param(rng.uniform(-1, 1, (9, 4)))
    b = T.param(rng.uniform(-1, 1, (1, 9)))
    targets = np.array([[8, 0], [3, 5], [3, 2]])
    mask = np.array([[1, 1], [1, 0], [1, 0]])

    def loss():
        return T.masked_nll(O.tanh(a), w, b, targets, mask)

    assert finite_diff_check(loss, [a, w, b], eps=1e-5) < 1e-7


def test_masked_nll_validates_and_backs_up_once():
    h = T.param(np.zeros((2, 3)))
    w = T.param(np.zeros((4, 3)))
    tgt, mask = np.array([[0, 3]]), np.ones((1, 2))
    with pytest.raises(DimensionError):
        T.masked_nll(h, T.param(np.zeros((4, 2))), None, tgt, mask)
    with pytest.raises(DimensionError):
        T.masked_nll(h, w, T.param(np.zeros((1, 3))), tgt, mask)
    with pytest.raises(DimensionError):
        T.masked_nll(h, w, None, np.array([[0]]), np.ones((1, 1)))
    with pytest.raises(DimensionError):
        T.masked_nll(h, w, None, tgt, np.ones((2, 1)))
    with pytest.raises(DataError):
        T.masked_nll(h, w, None, np.array([[0, 4]]), mask)
    with pytest.raises(ConfigError):
        T.masked_nll(h, T.param(np.zeros((4, 3), dtype=np.float32)), None, tgt, mask)
    # a target out of range is fine where the mask skips it
    T.masked_nll(h, w, None, np.array([[0, 4]]), np.array([[1, 0]]))
    # uniform logits: -log(1/4) at every target
    y = T.masked_nll(h, w, None, tgt, mask)
    npt.assert_allclose(y.item(), 2 * np.log(4.0), rtol=1e-15)
    # the backward consumes the kept logits, so a second sweep through the
    # node is refused instead of reading them twice
    T.backward(y)
    with pytest.raises(StateError):
        T.backward(O.scale(y, 2.0))


def test_seed_stream_deterministic_and_name_split():
    a1 = T.seed_stream(7, "init").uniform(size=5)
    a2 = T.seed_stream(7, "init").uniform(size=5)
    b = T.seed_stream(7, "shuffle").uniform(size=5)
    c = T.seed_stream(8, "init").uniform(size=5)
    npt.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)
