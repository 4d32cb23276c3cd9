"""Retrieval and ranking metrics.

An item's relevance to a user is the max dot product over the user's interest
vectors. Retrieval scores the full catalog exactly, one user at a time, with
ties broken by lower item id. Metrics follow the recalled-positives
convention for NDCG: the ideal ranking places the h items actually recalled
at the top, so NDCG is 1 whenever the hits are consecutive from rank 1.
"""

from dataclasses import dataclass

import numpy as np

from . import model


@dataclass
class Ranking:
    item_ids: np.ndarray  # ordered by non-increasing score, ties by lower id
    scores: np.ndarray
    truncated: bool = False  # fewer than the requested n were available


@dataclass
class EvalReport:
    cutoffs: tuple
    recall: dict
    ndcg: dict
    hitrate: dict
    users_evaluated: int
    users_skipped: int
    averaged_over: str = "users"


def max_interest_scores(interests, item_emb):
    """Per-item relevance: max over interests of the dot product."""
    return (item_emb @ interests.T).max(axis=1)


def _rank_all(scores):
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order


def retrieve_topn(interests, item_emb, n, exclude=()):
    """Top-n items by max-over-interests dot product.

    Excluded ids never appear. If fewer than n candidates exist the ranking
    holds all of them and is flagged truncated.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scores = max_interest_scores(interests, item_emb)
    exclude = np.unique(np.asarray(list(exclude), dtype=np.int64))
    if exclude.size:
        scores = scores.copy()
        scores[exclude] = -np.inf
    order = _rank_all(scores)
    available = scores.shape[0] - exclude.size
    take = min(n, available)
    top = order[:take]
    return Ranking(item_ids=top, scores=scores[top], truncated=take < n)


def _hit_ranks(topn_ids, relevant):
    return [r for r, item in enumerate(topn_ids, start=1) if item in relevant]


def recall_at(topn_ids, relevant):
    if not relevant:
        raise ValueError("recall needs a non-empty relevant set")
    hits = sum(1 for item in topn_ids if item in relevant)
    return hits / len(relevant)


def ndcg_at(topn_ids, relevant):
    if not relevant:
        raise ValueError("ndcg needs a non-empty relevant set")
    ranks = _hit_ranks(topn_ids, relevant)
    if not ranks:
        return 0.0
    dcg = sum(1.0 / np.log2(r + 1) for r in ranks)
    idcg = sum(1.0 / np.log2(i + 1) for i in range(1, len(ranks) + 1))
    return dcg / idcg


def hit_at(topn_ids, relevant):
    if not relevant:
        raise ValueError("hit rate needs a non-empty relevant set")
    return 1.0 if any(item in relevant for item in topn_ids) else 0.0


def _averaged(per_user, rankings, relevants):
    vals, skipped = [], 0
    for ids, rel in zip(rankings, relevants):
        if not rel:
            skipped += 1
            continue
        vals.append(per_user(ids, rel))
    if not vals:
        raise ValueError("no users with a non-empty relevant set")
    return float(np.mean(vals)), skipped


def metric_recall(rankings, relevants):
    """Mean over users of |top ∩ relevant| / |relevant|; (value, skipped)."""
    return _averaged(recall_at, rankings, relevants)


def metric_ndcg(rankings, relevants):
    """Mean over users of recalled-positives NDCG; (value, skipped)."""
    return _averaged(ndcg_at, rankings, relevants)


def metric_hitrate(rankings, relevants):
    """Fraction of users with at least one hit; (value, skipped)."""
    return _averaged(hit_at, rankings, relevants)


def user_interests_for_profile(profile_items, params, max_seq_len):
    """(num_interests, d) interest vectors for a profile, truncated to the last
    max_seq_len items; the batched extractor at B=1."""
    ids, mask = model.pad_sequences([profile_items], max_seq_len)
    x_emb = model.embed_batch(ids, mask, params)
    interests, _ = model.interest_forward(x_emb, mask, params)
    return interests.value[0]


def evaluate_split(params, part, hp, cutoffs=(20, 50)):
    """Score every (profile, holdout) user in a split part.

    Candidates exclude all profile items; holdout items that also occur in
    the profile are dropped from the relevant set (they cannot be retrieved),
    and users left without relevant items are skipped and counted.
    """
    cutoffs = tuple(sorted(set(int(c) for c in cutoffs)))
    if not cutoffs or cutoffs[0] < 1:
        raise ValueError(f"cutoffs must be positive, got {cutoffs}")
    n_max = cutoffs[-1]
    rankings, relevants = [], []
    for user in sorted(part):
        profile, holdout = part[user]
        z = user_interests_for_profile(profile, params, hp.max_seq_len)
        ranking = retrieve_topn(z, params.item_emb.value, n_max, exclude=set(profile))
        rankings.append(ranking.item_ids)
        relevants.append(set(holdout) - set(profile))
    recall, ndcg, hitrate = {}, {}, {}
    skipped = 0
    for n in cutoffs:
        clipped = [ids[:n] for ids in rankings]
        recall[n], skipped = metric_recall(clipped, relevants)
        ndcg[n], _ = metric_ndcg(clipped, relevants)
        hitrate[n], _ = metric_hitrate(clipped, relevants)
    return EvalReport(
        cutoffs=cutoffs, recall=recall, ndcg=ndcg, hitrate=hitrate,
        users_evaluated=len(rankings) - skipped, users_skipped=skipped,
    )


def report_text(report):
    """Human-readable key: value block; deterministic, no timestamps."""
    lines = [
        f"averaged_over: {report.averaged_over}",
        f"users_evaluated: {report.users_evaluated}",
        f"users_skipped: {report.users_skipped}",
    ]
    for n in report.cutoffs:
        lines.append(f"recall@{n}: {report.recall[n]:.6f}")
        lines.append(f"ndcg@{n}: {report.ndcg[n]:.6f}")
        lines.append(f"hitrate@{n}: {report.hitrate[n]:.6f}")
    return "\n".join(lines) + "\n"


def report_record(report, **meta):
    """One-line machine-readable record: space-separated key=value pairs."""
    parts = [f"{k}={v}" for k, v in meta.items()]
    parts.append("cutoffs=" + ",".join(str(n) for n in report.cutoffs))
    for n in report.cutoffs:
        parts.append(f"recall@{n}={report.recall[n]:.6f}")
        parts.append(f"ndcg@{n}={report.ndcg[n]:.6f}")
        parts.append(f"hitrate@{n}={report.hitrate[n]:.6f}")
    parts.append(f"users={report.users_evaluated}")
    parts.append(f"skipped={report.users_skipped}")
    return " ".join(parts)
