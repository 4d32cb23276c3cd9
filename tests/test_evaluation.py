import numpy as np
import pytest

from mirec import evaluation as ev
from mirec.data import SyntheticSpec, generate_synthetic, split
from mirec.model import HyperParams, ModelParams


def brute_force_topn(z, emb, n, exclude=()):
    scores = [max(float(emb[i] @ zk) for zk in z) for i in range(emb.shape[0])]
    order = sorted(
        (i for i in range(emb.shape[0]) if i not in set(exclude)),
        key=lambda i: (-scores[i], i),
    )
    return np.array(order[:n], dtype=np.int64)


def test_retrieve_single_interest_is_plain_topn():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(12, 4))
    z = rng.normal(size=(1, 4))
    r = ev.retrieve_topn(z, emb, 5)
    want = np.argsort(-(emb @ z[0]), kind="stable")[:5]
    assert np.array_equal(r.item_ids, want)
    assert not r.truncated


def test_retrieve_max_over_interests():
    emb = np.eye(4)
    z = np.array([[10.0, 0, 0, 0], [0, 0, 9.0, 0]])
    r = ev.retrieve_topn(z, emb, 2)
    assert list(r.item_ids) == [0, 2]
    assert r.scores[0] == 10.0 and r.scores[1] == 9.0


def test_retrieve_tie_break_prefers_lower_id():
    emb = np.ones((5, 3))
    z = np.ones((2, 3))
    r = ev.retrieve_topn(z, emb, 3)
    assert list(r.item_ids) == [0, 1, 2]


def test_retrieve_excludes_profile_items():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(20, 4))
    z = rng.normal(size=(3, 4))
    excl = {0, 7, 13}
    r = ev.retrieve_topn(z, emb, 10, exclude=excl)
    assert excl.isdisjoint(set(r.item_ids))


def test_retrieve_truncates_when_catalog_too_small():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 3))
    z = rng.normal(size=(2, 3))
    r = ev.retrieve_topn(z, emb, 10, exclude={1, 4})
    assert r.truncated
    assert sorted(r.item_ids) == [0, 2, 3, 5]


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = int(rng.integers(8, 40))
        n_z = int(rng.integers(1, 4))
        emb = rng.normal(size=(v, 5))
        z = rng.normal(size=(n_z, 5))
        n = int(rng.integers(1, v))
        excl = set(rng.choice(v, size=int(rng.integers(0, 4)), replace=False).tolist())
        got = ev.retrieve_topn(z, emb, n, exclude=excl)
        want = brute_force_topn(z, emb, n, exclude=excl)
        assert np.array_equal(got.item_ids, want)


def test_retrieve_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be"):
        ev.retrieve_topn(np.ones((1, 2)), np.ones((3, 2)), 0)


def one_user(ranked, relevant):
    """(recall, ndcg, hit) of one ranking over its full length."""
    hits, sizes, _ = ev.hit_matrix([np.asarray(ranked)], [relevant], len(ranked))
    return ev.metric_recall(hits, sizes), ev.metric_ndcg(hits), ev.metric_hitrate(hits)


def test_recall_half():
    assert one_user([0, 2], {0, 1})[0] == 0.5


def test_recall_full_and_zero():
    assert one_user([5, 6, 7], {5, 6, 7})[0] == 1.0
    assert one_user([1, 2], {8})[0] == 0.0


def test_hit_rate_indicator():
    assert one_user([3, 4], {4})[2] == 1.0
    assert one_user([3, 4], {9})[2] == 0.0


def test_ndcg_hand_example():
    # hits at ranks 1 and 3: dcg = 1 + 1/log2(4) = 1.5, idcg = 1 + 1/log2(3)
    got = one_user([10, 11, 12, 13], {10, 12})[1]
    want = 1.5 / (1.0 + 1.0 / np.log2(3.0))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.9197207, abs=1e-6)


def test_ndcg_consecutive_hits_from_top_is_one():
    assert one_user([4, 5, 6, 7], {4, 5})[1] == pytest.approx(1.0)


def test_ndcg_no_hits_is_zero():
    assert one_user([1, 2, 3], {9})[1] == 0.0


def test_ndcg_matches_naive_loop():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ids = rng.permutation(30)[:10]
        rel = set(rng.choice(30, size=4, replace=False).tolist())
        if not rel & set(ids.tolist()):
            continue
        ranks = [r + 1 for r, i in enumerate(ids) if i in rel]
        dcg = sum(1 / np.log2(r + 1) for r in ranks)
        idcg = sum(1 / np.log2(i + 2) for i in range(len(ranks)))
        assert one_user(ids, rel)[1] == pytest.approx(dcg / idcg, abs=1e-12)


def test_metrics_average_over_users_and_skip_empty():
    rankings = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
    relevants = [{0, 9}, set(), {4, 5}]
    hits, sizes, skipped = ev.hit_matrix(rankings, relevants, 2)
    assert skipped == 1
    assert ev.metric_recall(hits, sizes) == pytest.approx((0.5 + 1.0) / 2)
    assert ev.metric_hitrate(hits) == 1.0


def test_metrics_error_when_all_users_empty():
    with pytest.raises(ValueError, match="non-empty relevant"):
        ev.hit_matrix([np.array([0])], [set()], 1)


def test_metric_values_bounded():
    rng = np.random.default_rng(6)
    rankings, relevants = [], []
    for _ in range(40):
        rankings.append(rng.permutation(50)[:10])
        relevants.append(set(rng.choice(50, size=5, replace=False).tolist()))
    hits, sizes, _ = ev.hit_matrix(rankings, relevants, 10)
    for v in (ev.metric_recall(hits, sizes), ev.metric_ndcg(hits), ev.metric_hitrate(hits)):
        assert 0.0 <= v <= 1.0


def test_hit_matrix_metrics_equal_per_user_loop():
    """Bit-for-bit equal to averaging the per-user formulas over users, at every
    cutoff, with rankings shorter than the cutoff and users without hits."""

    def per_user(ranked, relevant):
        ranks = [r for r, item in enumerate(ranked, start=1) if item in relevant]
        recall = sum(1 for item in ranked if item in relevant) / len(relevant)
        hit = 1.0 if any(item in relevant for item in ranked) else 0.0
        if not ranks:
            return recall, 0.0, hit
        dcg = sum(1.0 / np.log2(r + 1) for r in ranks)
        idcg = sum(1.0 / np.log2(i + 1) for i in range(1, len(ranks) + 1))
        return recall, dcg / idcg, hit

    rng = np.random.default_rng(12)
    for _ in range(100):
        pool = int(rng.integers(5, 80))
        n_max = int(rng.integers(1, pool + 10))
        rankings, relevants = [], []
        for _ in range(int(rng.integers(1, 30))):
            rankings.append(rng.permutation(pool)[: int(rng.integers(0, n_max + 1))])
            size = int(rng.integers(0, min(pool, 16) + 1))
            relevants.append(set(rng.choice(pool, size=size, replace=False).tolist()))
        if not any(relevants):
            relevants[0] = {int(rng.integers(pool))}
        hits, sizes, skipped = ev.hit_matrix(rankings, relevants, n_max)
        assert skipped == sum(1 for rel in relevants if not rel)
        for n in range(1, n_max + 1):
            rows = [per_user(ids[:n], rel) for ids, rel in zip(rankings, relevants) if rel]
            want = [float(np.mean(col)) for col in zip(*rows)]
            got = [ev.metric_recall(hits[:, :n], sizes), ev.metric_ndcg(hits[:, :n]),
                   ev.metric_hitrate(hits[:, :n])]
            assert got == want


def _tiny_world(seed=0):
    spec = SyntheticSpec(
        n_clusters=3, items_per_cluster=10, users=40,
        interests_per_user=2, seq_len=12, noise_rate=0.05, seed=seed,
    )
    log, _ = generate_synthetic(spec)
    sp = split(log, seed=seed)
    hp = HyperParams(
        embed_dim=8, att_hidden_dim=8, recon_hidden_dim=4,
        num_interests=2, max_seq_len=10,
    )
    params = ModelParams.init(len(log.item_tokens), hp, np.random.default_rng(seed))
    return sp, hp, params


def test_evaluate_split_shapes_and_bounds():
    sp, hp, params = _tiny_world()
    rep = ev.evaluate_split(params, sp.test, hp, cutoffs=(5, 10))
    assert rep.cutoffs == (5, 10)
    for n in rep.cutoffs:
        assert 0.0 <= rep.recall[n] <= 1.0
        assert 0.0 <= rep.ndcg[n] <= 1.0
        assert 0.0 <= rep.hitrate[n] <= 1.0
    assert rep.users_evaluated + rep.users_skipped == len(sp.test)


def test_recall_monotone_in_cutoff():
    sp, hp, params = _tiny_world(1)
    rep = ev.evaluate_split(params, sp.test, hp, cutoffs=(5, 20))
    assert rep.recall[20] >= rep.recall[5]
    assert rep.hitrate[20] >= rep.hitrate[5]


def test_evaluate_split_deterministic():
    sp, hp, params = _tiny_world(2)
    a = ev.evaluate_split(params, sp.test, hp, cutoffs=(10,))
    b = ev.evaluate_split(params, sp.test, hp, cutoffs=(10,))
    assert a == b


def test_evaluate_split_rejects_bad_cutoffs():
    sp, hp, params = _tiny_world(4)
    with pytest.raises(ValueError, match="cutoffs"):
        ev.evaluate_split(params, sp.test, hp, cutoffs=(0, 5))


def test_report_text_and_record_stable():
    sp, hp, params = _tiny_world(5)
    rep = ev.evaluate_split(params, sp.test, hp, cutoffs=(5,))
    txt = ev.report_text(rep)
    assert "recall@5:" in txt and "averaged_over: users" in txt
    rec = ev.report_record(rep, dataset="synth", seed=5, config_hash="abc")
    assert rec.count("\n") == 0
    assert "dataset=synth" in rec and "recall@5=" in rec and "config_hash=abc" in rec
    assert rec == ev.report_record(rep, dataset="synth", seed=5, config_hash="abc")


def test_profile_items_never_retrieved():
    sp, hp, params = _tiny_world(6)
    for user in sorted(sp.test):
        profile, _ = sp.test[user]
        z = ev.user_interests_for_profile(profile, params, hp.max_seq_len)
        r = ev.retrieve_topn(z, params.item_emb.value, 20, exclude=set(profile))
        assert set(profile).isdisjoint(set(r.item_ids.tolist()))
