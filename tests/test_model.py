import struct

import numpy as np
import pytest

from mirec import evaluation as ev
from mirec import model as m


def tiny_hp(**kw):
    base = dict(embed_dim=4, att_hidden_dim=6, recon_hidden_dim=3,
                num_interests=2, max_seq_len=3, temperature=0.5)
    base.update(kw)
    return m.HyperParams(**base)


def make_params(num_items=10, hp=None, seed=0):
    hp = hp or tiny_hp()
    return m.ModelParams.init(num_items, hp, np.random.default_rng(seed)), hp


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="num_interests"):
        tiny_hp(num_interests=0)
    with pytest.raises(ValueError, match="temperature"):
        tiny_hp(temperature=0.0)
    with pytest.raises(ValueError, match="pos_threshold"):
        tiny_hp(pos_threshold=1.5)
    tiny_hp(pos_threshold="adaptive")
    tiny_hp(pos_threshold=0.25)


def test_num_seq_negatives_rejects_negative_by_name():
    with pytest.raises(ValueError, match="num_seq_negatives must be none or >= 0, got -1"):
        tiny_hp(num_seq_negatives=-1)
    assert tiny_hp(num_seq_negatives=0).num_seq_negatives == 0
    assert tiny_hp(num_seq_negatives=None).num_seq_negatives is None


def test_sequence_truncates_to_last_items():
    ids, mask = m.pad_sequences([[1, 2, 3, 4, 5]], max_seq_len=3)
    np.testing.assert_array_equal(ids[0], [3, 4, 5])
    assert mask[0].sum() == 3


def test_sequence_empty_is_error():
    with pytest.raises(ValueError, match="empty"):
        m.pad_sequences([[]], max_seq_len=3)


def embed_one(items, max_seq_len, params):
    ids, mask = m.pad_sequences([items], max_seq_len)
    return m.embed_batch(ids, mask, params).value[0]


def test_embed_lookup():
    params, hp = make_params()
    params.item_emb.value[0, :2] = [1.0, 2.0]
    out = embed_one([0], 1, params)
    np.testing.assert_array_equal(out[0, :2], [1.0, 2.0])


def test_embed_pads_with_zero_rows():
    params, hp = make_params()
    out = embed_one([4], 3, params)
    np.testing.assert_array_equal(out[1:], 0.0)
    assert np.any(out[0] != 0.0)


def test_embed_duplicate_ids_give_identical_rows():
    params, hp = make_params()
    out = embed_one([5, 5], 2, params)
    np.testing.assert_array_equal(out[0], out[1])


def test_embed_out_of_range_id_is_error():
    params, hp = make_params(num_items=10)
    with pytest.raises(ValueError, match="item id 10"):
        embed_one([10], 2, params)


def _forward(items, params, hp):
    """(interests (n_z, d), attention (n_z, max_seq_len)) for one sequence."""
    ids, mask = m.pad_sequences([items], hp.max_seq_len)
    interests, attention = m.interest_forward(m.embed_batch(ids, mask, params), mask, params)
    return interests.value[0], attention.value[0]


def test_uniform_attention_when_hidden_weight_is_zero():
    params, hp = make_params()
    params.att_hidden.value[:] = 0.0
    _, a = _forward([1, 2, 3], params, hp)
    np.testing.assert_allclose(a, 1.0 / 3.0)


def test_single_item_gets_full_attention_and_projected_value():
    params, hp = make_params()
    z, a = _forward([4], params, hp)
    np.testing.assert_allclose(a[:, 0], 1.0)
    np.testing.assert_allclose(a[:, 1:], 0.0)
    expected = params.val_proj.value @ params.item_emb.value[4]
    for k in range(hp.num_interests):
        np.testing.assert_allclose(z[k], expected, atol=1e-12)


def test_extract_interests_matches_naive_recomputation():
    hp = tiny_hp(embed_dim=4, att_hidden_dim=6, num_interests=2, max_seq_len=3)
    params, _ = make_params(num_items=20, hp=hp, seed=3)
    items = [3, 11, 7]
    z_all, a_all = _forward(items, params, hp)
    for k in range(hp.num_interests):
        logits = []
        for i in items:
            x_i = params.item_emb.value[i]
            logits.append(params.att_query.value[k] @ np.tanh(params.att_hidden.value @ x_i))
        e = np.exp(np.array(logits) - max(logits))
        a = e / e.sum()
        z = np.zeros(hp.embed_dim)
        for j, i in enumerate(items):
            z += a[j] * (params.val_proj.value @ params.item_emb.value[i])
        np.testing.assert_allclose(a_all[k], a, atol=1e-12)
        np.testing.assert_allclose(z_all[k], z, atol=1e-12)


def test_attention_rows_are_distributions_over_valid_positions():
    rng = np.random.default_rng(9)
    hp = tiny_hp(max_seq_len=6)
    params, _ = make_params(num_items=30, hp=hp, seed=5)
    for _ in range(20):
        length = int(rng.integers(1, 7))
        items = rng.integers(0, 30, size=length).tolist()
        _, a = _forward(items, params, hp)
        assert np.all(a >= 0)
        np.testing.assert_allclose(a[:, :length].sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_array_equal(a[:, length:], 0.0)


def test_permuting_positions_permutes_attention_and_keeps_interests():
    hp = tiny_hp()
    params, _ = make_params(num_items=20, hp=hp, seed=8)
    items = [3, 11, 7]
    perm = [2, 0, 1]
    z1, a1 = _forward(items, params, hp)
    z2, a2 = _forward([items[p] for p in perm], params, hp)
    np.testing.assert_allclose(a2, a1[:, perm], atol=1e-12)
    np.testing.assert_allclose(z2, z1, atol=1e-12)


def test_identical_queries_collapse_to_identical_interests():
    hp = tiny_hp(num_interests=3)
    params, _ = make_params(num_items=20, hp=hp, seed=2)
    params.att_query.value[:] = params.att_query.value[0]
    z, _ = _forward([1, 2, 3], params, hp)
    for k in range(1, 3):
        np.testing.assert_allclose(z[k], z[0], atol=1e-12)


def test_extract_interests_rejects_empty_mask():
    # an empty row anywhere in a batch is refused before it could reach the
    # extractor as a fully masked sequence
    with pytest.raises(ValueError, match="sequence 1: empty"):
        m.pad_sequences([[1, 2], []], max_seq_len=3)


def test_score_trivials_and_hand_sum():
    # dot-product relevance of one interest to one item, as retrieval scores it
    def score(z, y):
        return float(ev.max_interest_scores(np.array([[z]]), np.array([y]))[0, 0])

    assert score([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert score([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert score([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_init_shapes_and_bounds():
    hp = tiny_hp()
    params, _ = make_params(num_items=12, hp=hp, seed=0)
    num_items, d, d_h, d_b, n_x, n_z = params.dims()
    assert (num_items, d, d_h, d_b, n_x, n_z) == (12, 4, 6, 3, 3, 2)
    assert np.all(np.abs(params.att_hidden.value) <= 1.0 / np.sqrt(hp.embed_dim))
    assert np.all(np.abs(params.att_query.value) <= 1.0 / np.sqrt(hp.att_hidden_dim))
    for _, t in params.named():
        assert np.all(np.isfinite(t.value))


def test_tensor_shapes_fix_field_order_shapes_and_fan_in():
    hp = tiny_hp()
    params, _ = make_params(num_items=12, hp=hp, seed=0)
    shapes = m.tensor_shapes(*params.dims())
    assert list(shapes) == [name for name, _ in params.named()]
    for name, t in params.named():
        assert t.value.shape == shapes[name], name
        assert np.all(np.abs(t.value) <= 1.0 / np.sqrt(shapes[name][-1])), name


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    params, hp = make_params(num_items=14, seed=6)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(params, str(path))
    loaded = m.load_checkpoint(str(path))
    for (name, orig), (_, back) in zip(params.named(), loaded.named()):
        assert orig.value.tobytes() == back.value.tobytes(), name


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        m.load_checkpoint(str(path))


def test_checkpoint_rejects_truncation(tmp_path):
    params, hp = make_params(num_items=14, seed=6)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(params, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(ValueError, match="truncated|trailing"):
        m.load_checkpoint(str(path))


def test_checkpoint_with_oversized_dims_reports_truncation(tmp_path):
    path = tmp_path / "huge.ckpt"
    dims = (2**32 - 1, 2**32 - 1, 1, 1, 1, 1)
    path.write_bytes(struct.pack("<8s7I", m.CHECKPOINT_MAGIC, m.CHECKPOINT_VERSION, *dims))
    with pytest.raises(ValueError, match="checkpoint truncated in tensor item_emb"):
        m.load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_version(tmp_path):
    params, hp = make_params(num_items=14, seed=6)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(params, str(path))
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version"):
        m.load_checkpoint(str(path))


def test_failed_save_leaves_previous_checkpoint_intact(tmp_path):
    params, hp = make_params(num_items=14, seed=6)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(params, str(path))
    before = path.read_bytes()
    params.recon_query.value[0, 0] = np.nan  # the last tensor written
    with pytest.raises(ValueError, match="non-finite parameter recon_query"):
        m.save_checkpoint(params, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    loaded = m.load_checkpoint(str(path))
    assert np.isfinite(loaded.recon_query.value).all()
