import numpy as np
import pytest

from mirec import gradcore as gc
from mirec import losses as ls
from mirec import model as m
from mirec.gradcore import Tensor


def tiny_hp(**kw):
    base = dict(embed_dim=4, att_hidden_dim=5, recon_hidden_dim=3,
                num_interests=2, max_seq_len=4, temperature=0.5)
    base.update(kw)
    return m.HyperParams(**base)


def make_instance(seed, num_items=20, hp=None, min_len=2):
    """Random model plus one padded sequence as a B=1 (ids, mask) batch."""
    hp = hp or tiny_hp()
    rng = np.random.default_rng(seed)
    params = m.ModelParams.init(num_items, hp, rng)
    length = int(rng.integers(min_len, hp.max_seq_len + 1))
    items = rng.choice(num_items, size=length, replace=False)
    ids, mask = m.pad_sequences([items], hp.max_seq_len)
    return rng, hp, params, ids, mask


def forward(ids, mask, params):
    x = m.embed_batch(ids, mask, params)
    interests, attention = m.interest_forward(x, mask, params)
    return x, interests, attention


def batch1(*arrays):
    """Prepend a batch axis of size 1 to each array, as Tensors."""
    return [Tensor(np.asarray(a, dtype=np.float64)[None]) for a in arrays]


# ---------------------------------------------------------------- positives


def test_uniform_attention_with_adaptive_threshold_gives_empty_positives():
    a = np.full((1, 2, 3), 1.0 / 3.0)
    pos, neg = ls.select_positives_batch(a, np.ones((1, 3), bool), "adaptive")
    assert not pos.any()
    assert neg.all()


def test_select_positives_direct_comparison():
    a = np.array([[[0.7, 0.2, 0.1]]])
    pos, neg = ls.select_positives_batch(a, np.ones((1, 3), bool), 1.0 / 3.0)
    np.testing.assert_array_equal(np.flatnonzero(pos[0, 0]), [0])
    np.testing.assert_array_equal(np.flatnonzero(neg[0, 0]), [1, 2])


def test_low_threshold_makes_every_position_positive():
    a = np.full((1, 1, 4), 0.25)
    pos, neg = ls.select_positives_batch(a, np.ones((1, 4), bool), 1.0 / 32.0)
    np.testing.assert_array_equal(np.flatnonzero(pos[0, 0]), [0, 1, 2, 3])
    assert not neg.any()


def test_adaptive_threshold_uses_valid_length_not_padded_length():
    a = np.array([[[0.6, 0.4, 0.0, 0.0]]])
    mask = np.array([[True, True, False, False]])
    pos, neg = ls.select_positives_batch(a, mask, "adaptive")  # threshold 1/2
    np.testing.assert_array_equal(np.flatnonzero(pos[0, 0]), [0])
    np.testing.assert_array_equal(np.flatnonzero(neg[0, 0]), [1])


def test_positives_and_negatives_partition_valid_positions():
    for seed in range(20):
        rng, hp, params, ids, mask = make_instance(seed)
        _, _, attention = forward(ids, mask, params)
        pos, neg = ls.select_positives_batch(attention.value, mask, "adaptive")
        valid = np.broadcast_to(mask[:, None, :], pos.shape)
        np.testing.assert_array_equal(pos | neg, valid)
        assert not (pos & neg).any()


# ----------------------------------------------------------------- sampler


def test_out_of_seq_samples_avoid_the_sequence():
    rng = np.random.default_rng(0)
    for seed in range(20):
        r = np.random.default_rng(seed)
        ids = r.integers(0, 15, size=(3, 4))
        mask = r.random((3, 4)) < 0.8
        mask[:, 0] = True
        sizes = mask.sum(axis=1)
        out, smask = ls.sample_out_of_seq_batch(ids, mask, 15, 2, sizes, rng)
        for b in range(3):
            seq_items = set(ids[b, mask[b]])
            assert not (set(out[b][smask[b]].ravel()) & seq_items)
            assert smask[b].sum() == 2 * sizes[b]


def test_out_of_seq_sampling_errors_when_no_complement_exists():
    ids = np.arange(5)[None, :]
    mask = np.ones((1, 5), bool)
    with pytest.raises(ValueError, match="no out-of-sequence"):
        ls.sample_out_of_seq_batch(ids, mask, 5, 2, np.array([3]), np.random.default_rng(0))


def test_out_of_seq_sampling_is_deterministic():
    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3), bool)
    draws = [
        ls.sample_out_of_seq_batch(ids, mask, 50, 2, np.array([5]),
                                   np.random.default_rng(7))[0]
        for _ in range(2)
    ]
    np.testing.assert_array_equal(draws[0], draws[1])


def test_out_of_seq_padded_slots_hold_id_zero_and_are_masked():
    rng = np.random.default_rng(3)
    ids = rng.integers(1, 40, size=(4, 6))
    mask = np.ones((4, 6), bool)
    mask[1, 3:] = False
    sizes = np.array([5, 0, 2, 7])
    out, smask = ls.sample_out_of_seq_batch(ids, mask, 40, 3, sizes, rng)
    assert out.shape == smask.shape == (4, 3, 7)
    for b in range(4):
        assert smask[b, :, : sizes[b]].all()
        assert not smask[b, :, sizes[b]:].any()
        assert (out[b, :, sizes[b]:] == 0).all()


def test_out_of_seq_sampling_gives_up_after_max_rounds():
    # one free item of 20: a 40-slot draw collides, and no redraw is allowed
    ids = np.arange(19)[None, :]
    mask = np.ones((1, 19), bool)
    with pytest.raises(RuntimeError, match="example 0.*did not converge"):
        ls.sample_out_of_seq_batch(ids, mask, 20, 2, np.array([20]),
                                   np.random.default_rng(0), max_rounds=0)
    with pytest.raises(RuntimeError, match="did not converge"):
        ls.sample_out_of_seq_batch(ids, mask, 20, 2, np.array([20]),
                                   np.random.default_rng(0), max_rounds=2)


def test_out_of_seq_full_coverage_error_names_the_example():
    # example 0 leaves item 3 free behind its mask, example 1 repeats item 2
    ids = np.array([[0, 1, 2, 3], [0, 1, 2, 2], [3, 2, 1, 0]])
    mask = np.ones((3, 4), bool)
    mask[0, 3] = False
    with pytest.raises(ValueError, match="example 2: sequence covers all 4 items"):
        ls.sample_out_of_seq_batch(ids, mask, 4, 2, np.array([1, 1, 1]),
                                   np.random.default_rng(0))


# -------------------------------------------------------------- recontrast


def recontrast(z, x, pos, neg, sampled, tau):
    """recontrast_batch at B=1; z (n_z, d), x (n_x, d), pos/neg (n_z, n_x)
    bool, sampled (n_z, S, d) or None."""
    samp_mask = None
    if sampled is not None:
        sampled = np.asarray(sampled, dtype=np.float64)
        samp_mask = np.ones((1,) + sampled.shape[:2], dtype=bool)
        sampled = Tensor(sampled[None])
    z, x = batch1(z, x)
    return ls.recontrast_batch(z, x, np.asarray(pos)[None], np.asarray(neg)[None],
                               sampled, samp_mask, tau)


def test_recontrast_closed_form_one_positive_one_negative():
    z = [[1.0, 0.0]]
    x = [[2.0, 0.0]]  # cosine 1 to z
    sampled = [[[0.0, 3.0]]]  # cosine 0 to z
    loss = recontrast(z, x, [[True]], [[False]], sampled, tau=1.0)
    np.testing.assert_allclose(loss.value, -np.log(np.e / (np.e + 1.0)), atol=1e-12)


def test_recontrast_matches_enumeration_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_z, n_x, s, d, tau = 3, 5, 4, 6, 0.7
        z = rng.normal(size=(n_z, d))
        x = rng.normal(size=(n_x, d))
        samp = rng.normal(size=(n_z, s, d))
        split = rng.random((n_z, n_x)) < 0.5
        loss = recontrast(z, x, split, ~split, samp, tau)

        def unit(v):
            return v / np.linalg.norm(v)

        expected = 0.0
        for k in range(n_z):
            negs = [unit(x[j]) for j in np.flatnonzero(~split[k])]
            negs += [unit(z[kk]) for kk in range(n_z) if kk != k]
            negs += [unit(samp[k, t]) for t in range(s)]
            neg_exp = sum(np.exp(unit(z[k]) @ n / tau) for n in negs)
            for i in np.flatnonzero(split[k]):
                pos_exp = np.exp(unit(z[k]) @ unit(x[i]) / tau)
                expected += -np.log(pos_exp / (pos_exp + neg_exp))
        np.testing.assert_allclose(loss.value, expected, rtol=0, atol=1e-10)


def test_recontrast_duplicated_negative_increases_loss():
    z = [[1.0, 0.0]]
    x = [[1.0, 0.2]]
    one = recontrast(z, x, [[True]], [[False]], [[[0.3, 1.0]]], 1.0)
    two = recontrast(z, x, [[True]], [[False]], [[[0.3, 1.0], [0.3, 1.0]]], 1.0)
    assert two.value > one.value


def test_recontrast_decreases_as_positive_aligns_with_interest():
    z = [[1.0, 0.0]]
    prev = np.inf
    for angle in (1.2, 0.8, 0.4, 0.1):
        x = [[np.cos(angle), np.sin(angle)], [-0.5, 0.8]]
        val = float(recontrast(z, x, [[True, False]], [[False, True]], None, 0.5).value)
        assert val < prev
        prev = val


def test_recontrast_zero_norm_vector_is_error():
    with pytest.raises(ValueError, match="zero-norm.*interest"):
        recontrast([[0.0, 0.0]], [[1.0, 0.0]], [[True]], [[False]], None, 1.0)


def test_recontrast_zero_norm_sequence_item_refused_only_where_valid():
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(2, 2, 3)))
    x = Tensor(rng.normal(size=(2, 4, 3)))
    x.value[1, 2] = 0.0
    pos = np.zeros((2, 2, 4), dtype=bool)
    pos[:, :, 0] = True
    neg = ~pos
    with pytest.raises(ValueError, match=r"sequence item \(example, position\) at index \(1, 2\)"):
        ls.recontrast_batch(z, x, pos, neg, None, None, 0.5)
    neg[1, :, 2] = False  # position (1, 2) is padding
    assert np.isfinite(ls.recontrast_batch(z, x, pos, neg, None, None, 0.5).value)


def test_recontrast_sampled_rows_by_index_match_gathered_block():
    rng = np.random.default_rng(5)
    z, x = batch1(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
    pos = rng.random((1, 2, 4)) < 0.5
    table = Tensor(rng.normal(size=(3, 3)))
    idx = np.array([[[0, 2, 2], [1, 0, 2]]])
    smask = np.array([[[True, True, False], [True, True, True]]])
    by_index = ls.recontrast_batch(z, x, pos, ~pos, table, smask, 0.5, sampled_idx=idx)
    block = ls.recontrast_batch(z, x, pos, ~pos, gc.gather_rows(table, idx), smask, 0.5)
    assert by_index.value == block.value


def test_recontrast_zero_norm_sampled_row_names_its_slot():
    z, x = batch1([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 1.0, 0.0]])
    table = Tensor(np.ones((3, 3)))
    table.value[1] = 0.0
    idx = np.array([[[0, 1], [1, 2]]])
    smask = np.array([[[True, False], [True, True]]])  # slot (0, 0, 1) is padding
    with pytest.raises(ValueError, match=r"sampled negative.*\(0, 1, 0\)"):
        ls.recontrast_batch(z, x, np.ones((1, 2, 1), bool), np.zeros((1, 2, 1), bool),
                            table, smask, 1.0, sampled_idx=idx)


def test_recontrast_empty_positives_give_exactly_zero():
    rng, hp, params, ids, mask = make_instance(1)
    x, interests, attention = forward(ids, mask, params)
    pos = np.zeros(attention.value.shape, dtype=bool)
    neg = np.broadcast_to(mask[:, None, :], pos.shape)
    loss = ls.recontrast_batch(interests, x, pos, neg, None, None, hp.temperature)
    assert loss.value == 0.0


# ---------------------------------------------------------------- reattend


def reattend(attention, interests, x, mask):
    """reattend_batch at B=1 on (n_z, n_x), (n_z, d), (n_x, d), (n_x,) arrays."""
    return ls.reattend_batch(*batch1(attention, interests, x), np.asarray(mask)[None])


def test_reattend_closed_form_ln2():
    attention = [[1.0, 0.0]]
    interests = [[0.7, 0.1]]
    x = [[1.0, 1.0], [1.0, 1.0]]  # equal dots -> uniform relevance
    loss = reattend(attention, interests, x, np.ones(2, bool))
    np.testing.assert_allclose(loss.value, np.log(2.0), atol=1e-12)


def test_reattend_equality_case_equals_entropy():
    a_row = np.array([0.7, 0.2, 0.1])
    loss = reattend(a_row[None, :], np.log(a_row)[None, :], np.eye(3), np.ones(3, bool))
    entropy = -np.sum(a_row * np.log(a_row))
    np.testing.assert_allclose(loss.value, entropy, atol=1e-10)


def test_reattend_uniform_target_constant_relevance():
    n_z, length = 3, 4
    attention = np.full((n_z, length), 1.0 / length)
    interests = np.zeros((n_z, 2))
    x = np.random.default_rng(0).normal(size=(length, 2))
    loss = reattend(attention, interests, x, np.ones(length, bool))
    np.testing.assert_allclose(loss.value, n_z * np.log(length), atol=1e-12)


def test_reattend_gibbs_lower_bound():
    for seed in range(20):
        rng, hp, params, ids, mask = make_instance(seed)
        x, interests, attention = forward(ids, mask, params)
        loss = ls.reattend_batch(attention, interests, x, mask)
        a = attention.value
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -np.sum(np.where(a > 0, a * np.log(a), 0.0))
        assert loss.value >= ent - 1e-10


def test_reattend_ignores_padded_positions():
    attention = [[0.9, 0.1, 0.0]]
    interests = [[1.0, 0.0]]
    x = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    mask = np.array([True, True, False])
    loss = reattend(attention, interests, x, mask)
    logits = np.array([1.0, 0.0])
    logp = logits - np.log(np.exp(logits).sum())
    expected = -(0.9 * logp[0] + 0.1 * logp[1])
    np.testing.assert_allclose(loss.value, expected, atol=1e-12)


# ------------------------------------------------------------- reconstruct


def test_reconstruct_empty_positives_is_exactly_zero():
    rng, hp, params, ids, mask = make_instance(2)
    x, interests, attention = forward(ids, mask, params)
    pos = np.zeros(attention.value.shape, dtype=bool)
    loss = ls.reconstruct_batch(interests, x, pos, params)
    assert loss.value == 0.0


def test_reconstruct_scalar_chain_hand_computation():
    hp = tiny_hp(embed_dim=3, recon_hidden_dim=1, max_seq_len=1, num_interests=1)
    rng = np.random.default_rng(5)
    params = m.ModelParams.init(7, hp, rng)
    z = rng.normal(size=(1, 3))
    x0 = rng.normal(size=(1, 3))
    loss = ls.reconstruct_batch(*batch1(z, x0), np.ones((1, 1, 1), bool), params)
    code = params.recon_expand.value @ z[0]  # single slot code, d_b=1
    rebuilt = params.recon_out.value @ code
    expected = np.sum((rebuilt - x0[0]) ** 2)
    np.testing.assert_allclose(loss.value, expected, atol=1e-12)


def test_reconstruct_matches_naive_loop_oracle():
    for seed in range(10):
        rng, hp, params, ids, mask = make_instance(seed)
        x, interests, attention = forward(ids, mask, params)
        pos, _ = ls.select_positives_batch(attention.value, mask, 1.0 / 32.0)
        loss = ls.reconstruct_batch(interests, x, pos, params)
        n_x, d_b = hp.max_seq_len, hp.recon_hidden_dim
        expected = 0.0
        for k in range(hp.num_interests):
            code = (params.recon_expand.value @ interests.value[0, k]).reshape(n_x, d_b)
            logits = np.zeros((n_x, n_x))
            for i in range(n_x):
                for j in range(n_x):
                    logits[i, j] = params.recon_query.value[j] @ np.tanh(
                        params.recon_hidden.value @ code[i])
            beta = np.exp(logits - logits.max(axis=0, keepdims=True))
            beta /= beta.sum(axis=0, keepdims=True)
            for j in np.flatnonzero(pos[0, k]):
                xhat = np.zeros(hp.embed_dim)
                for i in range(n_x):
                    xhat += beta[i, j] * (params.recon_out.value @ code[i])
                expected += np.sum((xhat - x.value[0, j]) ** 2)
        np.testing.assert_allclose(loss.value, expected, rtol=0, atol=1e-10)


def dense_reconstruct(interests, x_emb, pos_mask, params):
    """Reference decoder: every (example, interest, position) is projected
    to a d-wide vector first, and the positive mask is applied last."""
    b, n_z, d = interests.value.shape
    n_x = pos_mask.shape[2]
    d_b = params.recon_hidden.value.shape[0]
    flat = gc.matmul(interests, gc.swapaxes(params.recon_expand, 0, 1))
    codes = gc.reshape(flat, (b, n_z, n_x, d_b))
    hidden = gc.tanh(gc.matmul(codes, gc.swapaxes(params.recon_hidden, 0, 1)))
    beta = gc.softmax(gc.matmul(hidden, gc.swapaxes(params.recon_query, 0, 1)), axis=2)
    vals = gc.matmul(codes, gc.swapaxes(params.recon_out, 0, 1))  # (B, n_z, slot, d)
    rebuilt = gc.matmul(gc.swapaxes(beta, 2, 3), vals)  # (B, n_z, pos, d)
    diff = rebuilt - gc.reshape(x_emb, (b, 1, n_x, d))
    sq_err = gc.tsum(diff * diff, axis=-1)
    return gc.tsum(sq_err * pos_mask.astype(np.float64))


RECON_TENSORS = ("recon_expand", "recon_hidden", "recon_query", "recon_out")


def recon_batch_instance(seed, b=4):
    """Random (B, n_z, d) interests and (B, n_x, d) items with n_x != d != d_b,
    so a (B, n_z, n_x, d) tensor cannot be mistaken for another shape."""
    hp = tiny_hp(embed_dim=6, recon_hidden_dim=3, num_interests=3, max_seq_len=4)
    rng = np.random.default_rng(seed)
    params = m.ModelParams.init(10, hp, rng)
    interests = Tensor(rng.normal(size=(b, hp.num_interests, hp.embed_dim)))
    x = Tensor(rng.normal(size=(b, hp.max_seq_len, hp.embed_dim)))
    pos = rng.random((b, hp.num_interests, hp.max_seq_len)) < 0.4
    return params, interests, x, pos


def recon_loss_and_grads(fn, params, interests, x, pos):
    leaves = [interests, x] + [getattr(params, n) for n in RECON_TENSORS]
    with gc.Tape() as tape:
        loss = fn(interests, x, pos, params)
    return float(loss.value), tape.backward(loss, leaves)


def test_reconstruct_matches_dense_decoder_with_empty_positive_sets():
    for seed in range(5):
        params, interests, x, pos = recon_batch_instance(seed)
        pos[0, 1] = False
        pos[2, :] = False  # an example with no positives at all
        pos[3, 0] = True
        got, got_grads = recon_loss_and_grads(ls.reconstruct_batch, params, interests, x, pos)
        want, want_grads = recon_loss_and_grads(dense_reconstruct, params, interests, x, pos)
        assert abs(got - want) <= 1e-12 * abs(want)
        names = ["interests", "x_emb"] + list(RECON_TENSORS)
        for name, g, w in zip(names, got_grads, want_grads):
            assert g.shape == w.shape, name
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_reconstruct_all_empty_positives_gives_zero_loss_and_gradients():
    params, interests, x, pos = recon_batch_instance(7)
    pos[:] = False
    loss, grads = recon_loss_and_grads(ls.reconstruct_batch, params, interests, x, pos)
    assert loss == 0.0
    for g in grads:
        assert not g.any()


def test_reconstruct_tapes_no_full_width_decode():
    params, interests, x, pos = recon_batch_instance(3)
    b, n_z, d = interests.value.shape
    n_x = pos.shape[2]
    with gc.Tape() as tape:
        ls.reconstruct_batch(interests, x, pos, params)
    shapes = {out.value.shape for out, _, _ in tape.entries}
    assert (b, n_z, n_x, d) not in shapes


# ------------------------------------------------------------------- rec


def select(z, y):
    return int(ls.select_interest_batch(np.asarray(z)[None], np.asarray(y)[None])[0])


def test_rec_symmetric_pair_is_ln2():
    interests = [[1.0, 0.0]]
    target = [0.5, 0.5]
    neg = [[0.5, -0.5]]  # same dot with the interest as the target
    loss = ls.rec_batch(*batch1(interests, target, neg))
    np.testing.assert_allclose(loss.value, np.log(2.0), atol=1e-12)


def test_rec_loss_vanishes_when_target_dominates():
    loss = ls.rec_batch(*batch1([[10.0, 0.0]], [10.0, 0.0], [[-10.0, 0.0]]))
    assert 0.0 <= loss.value <= 1e-10


def test_interest_selection_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(size=(4, 6))
        y = rng.normal(size=6)
        assert select(z, y) == int(np.argmax(z @ y))


def test_interest_selection_prefers_closer_interest():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0.1, 0.9])
    assert select(z, y) == 1


def test_interest_selection_is_scale_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.normal(size=(3, 5))
        y = rng.normal(size=5)
        base = select(z, y)
        for c in (0.01, 0.5, 3.0, 100.0):
            assert select(z, c * y) == base


def test_interest_selection_tie_takes_lowest_index():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    y = np.array([1.0, 0.0])
    assert select(z, y) == 0


def test_rec_gradient_only_reaches_selected_interest():
    rng = np.random.default_rng(6)
    interests = Tensor(rng.normal(size=(1, 3, 4)))
    target = Tensor(rng.normal(size=(1, 4)))
    neg = Tensor(rng.normal(size=(1, 5, 4)))
    with gc.Tape() as tape:
        loss = ls.rec_batch(interests, target, neg)
    (grad,) = tape.backward(loss, [interests])
    sel = ls.select_interest_batch(interests.value, target.value)[0]
    for k in range(3):
        if k == sel:
            assert np.any(grad[0, k] != 0.0)
        else:
            np.testing.assert_array_equal(grad[0, k], 0.0)


# ----------------------------------------------------------------- combine


def test_combine_with_zero_lambdas_is_pure_rec():
    hp = tiny_hp()
    rec = Tensor(np.array(1.25))
    total, bundle = ls.combine(rec, None, None, None, hp)
    assert total is rec
    assert bundle.total == 1.25
    assert bundle.contrast == 0.0


def test_combine_adds_weighted_terms():
    hp = tiny_hp(lambda_cl=1.0)
    total, bundle = ls.combine(Tensor(np.array(1.0)), Tensor(np.array(0.5)),
                               None, None, hp)
    np.testing.assert_allclose(total.value, 1.5)
    hp = tiny_hp(lambda_cl=0.1, lambda_att=10.0, lambda_ct=0.01)
    total, _ = ls.combine(Tensor(np.array(1.0)), Tensor(np.array(2.0)),
                          Tensor(np.array(3.0)), Tensor(np.array(4.0)), hp)
    np.testing.assert_allclose(total.value, 1.0 + 0.2 + 30.0 + 0.04)


def test_combine_rejects_non_finite_losses():
    hp = tiny_hp(lambda_cl=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        ls.combine(Tensor(np.array(np.nan)), Tensor(np.array(0.5)), None, None, hp)


# ------------------------------------------------------- gradient contract


def _frozen_pieces(rng, hp, params, ids, mask):
    """Selector state fixed at the base parameters, as the gradient treats it."""
    x, interests, attention = forward(ids, mask, params)
    pos, neg = ls.select_positives_batch(attention.value, mask, "adaptive")
    attention_target = Tensor(attention.value.copy())
    complement = np.setdiff1d(np.arange(params.num_items), ids[mask])
    samp_ids = rng.choice(complement, size=(hp.num_interests, 3), replace=True)[None]
    target_id = int(rng.integers(0, params.num_items))
    neg_ids = rng.integers(0, params.num_items, size=4)[None]
    selected = ls.select_interest_batch(interests.value,
                                        params.item_emb.value[[target_id]])
    return pos, neg, attention_target, samp_ids, target_id, neg_ids, selected


def _fd_case(name, seed):
    rng, hp, params, ids, mask = make_instance(seed)
    pos, neg, att_target, samp_ids, target_id, neg_ids, selected = _frozen_pieces(
        rng, hp, params, ids, mask)
    samp_mask = np.ones(samp_ids.shape, dtype=bool)

    def f(_):
        x, interests, _ = forward(ids, mask, params)
        if name == "contrast":
            samp = gc.gather_rows(params.item_emb, samp_ids)
            return ls.recontrast_batch(interests, x, pos, neg, samp, samp_mask,
                                       hp.temperature)
        if name == "attend":
            return ls.reattend_batch(att_target, interests, x, mask)
        if name == "reconstruct":
            return ls.reconstruct_batch(interests, x, pos, params)
        target_emb = gc.gather_rows(params.item_emb, np.array([target_id]))
        neg_emb = gc.gather_rows(params.item_emb, neg_ids)
        rec = ls.rec_batch(interests, target_emb, neg_emb, selected=selected)
        if name == "rec":
            return rec
        samp = gc.gather_rows(params.item_emb, samp_ids)
        cl = ls.recontrast_batch(interests, x, pos, neg, samp, samp_mask, hp.temperature)
        att = ls.reattend_batch(att_target, interests, x, mask)
        ct = ls.reconstruct_batch(interests, x, pos, params)
        total, _ = ls.combine(rec, cl, att, ct, combined_hp(hp))
        return total

    return f, params


def combined_hp(hp):
    return m.HyperParams(
        embed_dim=hp.embed_dim, att_hidden_dim=hp.att_hidden_dim,
        recon_hidden_dim=hp.recon_hidden_dim, num_interests=hp.num_interests,
        max_seq_len=hp.max_seq_len, temperature=hp.temperature,
        lambda_cl=0.1, lambda_att=1.0, lambda_ct=0.1,
    )


@pytest.mark.parametrize("name", ["rec", "contrast", "attend", "reconstruct", "combined"])
def test_loss_gradients_match_finite_differences(name):
    worst = 0.0
    for seed in range(20):
        f, params = _fd_case(name, seed)
        worst = max(worst, gc.check_gradient(f, params.tensors(), h=1e-4))
    assert worst <= 1e-4, f"{name}: max rel err {worst:.3e}"


# ------------------------------------------------------------- batch glue


def test_compute_batch_losses_runs_and_reports_means():
    hp = tiny_hp(lambda_cl=0.1, lambda_att=1.0, lambda_ct=0.1,
                 num_rec_negatives=6)
    rng = np.random.default_rng(0)
    params = m.ModelParams.init(30, hp, rng)
    ids = rng.integers(0, 30, size=(5, hp.max_seq_len))
    mask = np.ones((5, hp.max_seq_len), bool)
    mask[0, 2:] = False
    targets = rng.integers(0, 30, size=5)
    total, bundle = ls.compute_batch_losses(ids, mask, targets, params, hp, rng)
    assert np.isfinite(total.value)
    for name in ("rec", "contrast", "attend", "reconstruct"):
        assert getattr(bundle, name) >= 0.0
    np.testing.assert_allclose(
        bundle.total,
        bundle.rec + 0.1 * bundle.contrast + 1.0 * bundle.attend + 0.1 * bundle.reconstruct,
        atol=1e-12,
    )


@pytest.mark.parametrize("num_seq_negatives", [0, None])
def test_compute_batch_losses_without_or_with_default_seq_negatives(num_seq_negatives):
    # 0 draws no out-of-sequence negatives; none draws one per sequence position
    hp = tiny_hp(lambda_cl=0.1, num_rec_negatives=6, num_seq_negatives=num_seq_negatives)
    rng = np.random.default_rng(2)
    params = m.ModelParams.init(30, hp, rng)
    ids = rng.integers(0, 30, size=(3, hp.max_seq_len))
    mask = np.ones((3, hp.max_seq_len), bool)
    targets = rng.integers(0, 30, size=3)
    with gc.Tape() as tape:
        total, bundle = ls.compute_batch_losses(ids, mask, targets, params, hp, rng)
    (grad,) = tape.backward(total, [params.att_query])
    assert np.isfinite(bundle.contrast) and bundle.contrast >= 0.0
    assert np.isfinite(grad).all()


def test_backward_returns_zeros_for_parameters_the_loss_does_not_reach():
    # lambda_ct = 0 leaves the re-construct decoder out of the loss
    hp = tiny_hp(lambda_cl=0.1, lambda_att=0.5, lambda_ct=0.0, num_rec_negatives=6)
    rng = np.random.default_rng(3)
    params = m.ModelParams.init(30, hp, rng)
    ids = rng.integers(0, 30, size=(3, hp.max_seq_len))
    mask = np.ones((3, hp.max_seq_len), bool)
    targets = rng.integers(0, 30, size=3)
    with gc.Tape() as tape:
        total, _ = ls.compute_batch_losses(ids, mask, targets, params, hp, rng)
    named = params.named()
    grads = tape.backward(total, [t for _, t in named])
    assert len(grads) == len(named)
    for (name, t), g in zip(named, grads):
        assert g.dtype == np.float64 and g.shape == t.value.shape, name
        assert g.any() == (name not in RECON_TENSORS), name


def test_compute_batch_losses_skips_inactive_components():
    hp = tiny_hp(num_rec_negatives=6)
    rng = np.random.default_rng(1)
    params = m.ModelParams.init(30, hp, rng)
    ids = rng.integers(0, 30, size=(4, hp.max_seq_len))
    mask = np.ones((4, hp.max_seq_len), bool)
    targets = rng.integers(0, 30, size=4)
    total, bundle = ls.compute_batch_losses(ids, mask, targets, params, hp, rng)
    assert bundle.contrast == bundle.attend == bundle.reconstruct == 0.0
    np.testing.assert_allclose(bundle.total, bundle.rec)
