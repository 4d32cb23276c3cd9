import numpy as np
import pytest

from mirec import diagnostics as dg
from mirec import evaluation as ev
from mirec import model as m
from mirec.data import SyntheticSpec, generate_synthetic, split
from mirec.model import HyperParams, ModelParams


def brute_force_topn(z, emb, n, exclude=()):
    """Top-n ids of one user, slots past its candidates -1, up to the catalog size."""
    scores = [max(float(emb[i] @ zk) for zk in z) for i in range(emb.shape[0])]
    order = sorted(
        (i for i in range(emb.shape[0]) if i not in set(exclude)),
        key=lambda i: (-scores[i], i),
    )[:n]
    return np.array(order + [-1] * (min(n, emb.shape[0]) - len(order)), dtype=np.int64)


def retrieve_one(z, emb, n, exclude=()):
    """Top-n row of a single user through the block API."""
    return ev.retrieve_topn(np.asarray(z)[None], emb, n, [exclude])[0]


def test_retrieve_single_interest_is_plain_topn():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(12, 4))
    z = rng.normal(size=(1, 4))
    r = retrieve_one(z, emb, 5)
    want = np.argsort(-(emb @ z[0]), kind="stable")[:5]
    assert np.array_equal(r, want)
    assert np.all(r >= 0)


def test_retrieve_max_over_interests():
    emb = np.eye(4)
    z = np.array([[10.0, 0, 0, 0], [0, 0, 9.0, 0]])
    r = retrieve_one(z, emb, 2)
    assert list(r) == [0, 2]
    scores = ev.max_interest_scores(z[None], emb)[0]
    assert scores[r[0]] == 10.0 and scores[r[1]] == 9.0


def test_retrieve_tie_break_prefers_lower_id():
    emb = np.ones((5, 3))
    z = np.ones((2, 3))
    r = retrieve_one(z, emb, 3)
    assert list(r) == [0, 1, 2]


def test_retrieve_excludes_profile_items():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(20, 4))
    z = rng.normal(size=(3, 4))
    excl = {0, 7, 13}
    r = retrieve_one(z, emb, 10, exclude=excl)
    assert excl.isdisjoint(set(r.tolist()))


def test_retrieve_truncates_when_catalog_too_small():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 3))
    z = rng.normal(size=(2, 3))
    r = retrieve_one(z, emb, 10, exclude={1, 4})
    assert r.tolist()[4:] == [-1, -1]  # only 4 candidates: the rest read -1
    assert sorted(r.tolist()[:4]) == [0, 2, 3, 5]


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = int(rng.integers(8, 40))
        n_z = int(rng.integers(1, 4))
        emb = rng.normal(size=(v, 5))
        z = rng.normal(size=(n_z, 5))
        n = int(rng.integers(1, v))
        excl = set(rng.choice(v, size=int(rng.integers(0, 4)), replace=False).tolist())
        got = retrieve_one(z, emb, n, exclude=excl)
        want = brute_force_topn(z, emb, n, exclude=excl)
        assert np.array_equal(got, want)


def test_retrieve_block_ties_straddle_cutoff_with_per_user_excludes():
    # item 0 scores 2, items 1-4 tie at 1, item 5 scores 0; the cut-off at 3
    # falls inside the tie, after each user's own excludes are removed
    emb = np.array([[2.0], [1.0], [1.0], [1.0], [1.0], [0.0]])
    z = np.ones((2, 2, 1))
    excludes = [{2}, {0, 1}]
    got = ev.retrieve_topn(z, emb, 3, excludes)
    assert got.tolist() == [[0, 1, 3], [2, 3, 4]]
    for row, exclude in zip(got, excludes):
        assert np.array_equal(row, brute_force_topn(z[0], emb, 3, exclude))


def test_retrieve_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be"):
        ev.retrieve_topn(np.ones((1, 1, 2)), np.ones((3, 2)), 0, [()])


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
    profiles = [sp.test[user][0] for user in sorted(sp.test)]
    z = ev.user_interests_for_profile(profiles, params, hp.max_seq_len)[0]
    got = ev.retrieve_topn(z, params.item_emb.value, 20, [set(p) for p in profiles])
    for profile, row in zip(profiles, got):
        assert set(profile).isdisjoint(set(row.tolist()))


def test_empty_part_raises_named_errors():
    _, hp, params = _tiny_world(7)
    with pytest.raises(ValueError, match="no users with a non-empty relevant set"):
        ev.evaluate_split(params, {}, hp)
    with pytest.raises(ValueError, match="empty split part"):
        dg.diagnose(params, {}, hp)


def b1_extract(profiles, params, max_seq_len):
    """Per-user reference extractor: each padded profile alone through the
    extractor at B=1, stacked in the block extractor's return layout."""
    rows = []
    for profile in profiles:
        ids, mask = m.pad_sequences([profile], max_seq_len)
        z, a = m.interest_forward(m.embed_batch(ids, mask, params), mask, params)
        rows.append((z.value[0], a.value[0], ids[0], mask[0]))
    return tuple(np.stack(col) for col in zip(*rows))


def b1_ranking(z, emb, n, exclude):
    """Per-user reference ranking: brute-force scores, lexsort with ties to the
    lower id, slots past the candidates -1."""
    scores = np.array([max(float(emb[i] @ zk) for zk in z) for i in range(len(emb))])
    scores[list(exclude)] = -np.inf
    order = np.lexsort((np.arange(len(emb)), -scores))[:n]
    return np.where(scores[order] == -np.inf, -1, order)


def test_blocks_match_per_user_reference(monkeypatch):
    # two full extractor / retrieval blocks plus a partial one
    rng = np.random.default_rng(8)
    hp = HyperParams(embed_dim=8, att_hidden_dim=8, recon_hidden_dim=4,
                     num_interests=3, max_seq_len=6)
    params = ModelParams.init(40, hp, rng)
    part = {}
    for user in range(2 * ev.EXTRACT_BLOCK + 3):
        items = rng.choice(40, size=int(rng.integers(2, 12)), replace=False).tolist()
        cut = int(rng.integers(1, len(items)))
        part[user] = (items[:cut], items[cut:])
    profiles = [part[u][0] for u in sorted(part)]

    got = ev.user_interests_for_profile(profiles, params, hp.max_seq_len)
    want = b1_extract(profiles, params, hp.max_seq_len)
    for g, w in zip(got[:2], want[:2]):  # interests, attention
        assert g.shape == w.shape and np.max(np.abs(g - w)) <= 1e-12
    for g, w in zip(got[2:], want[2:]):  # padded ids, mask
        assert np.array_equal(g, w)

    seen = []
    real_hit_matrix = ev.hit_matrix

    def spy(rankings, relevants, n):
        seen.append(list(rankings))
        return real_hit_matrix(rankings, relevants, n)

    monkeypatch.setattr(ev, "hit_matrix", spy)
    rep = ev.evaluate_split(params, part, hp, cutoffs=(5, 10))
    monkeypatch.undo()
    emb = params.item_emb.value
    rankings = [b1_ranking(z, emb, 10, set(p)) for z, p in zip(want[0], profiles)]
    assert len(seen[0]) == len(rankings)
    for g, w in zip(seen[0], rankings):
        assert np.array_equal(g, w)
    relevants = [set(part[u][1]) - set(part[u][0]) for u in sorted(part)]
    hits, sizes, skipped = ev.hit_matrix(rankings, relevants, 10)
    assert (rep.users_evaluated, rep.users_skipped) == (len(hits), skipped)
    for n in rep.cutoffs:
        assert rep.recall[n] == ev.metric_recall(hits[:, :n], sizes)
        assert rep.hitrate[n] == ev.metric_hitrate(hits[:, :n])
        assert abs(rep.ndcg[n] - ev.metric_ndcg(hits[:, :n])) <= 1e-10

    for mode in ("kmeanspp", "user_interests"):
        block = dg.diagnose(params, part, hp, init_mode=mode)
        monkeypatch.setattr(ev, "user_interests_for_profile", b1_extract)
        ref = dg.diagnose(params, part, hp, init_mode=mode)
        monkeypatch.undo()
        assert block == ref  # inter, intra, k_global, users, skipped interests
        for user, z in ref.user_interests.items():
            assert np.max(np.abs(block.user_interests[user] - z)) <= 1e-12
