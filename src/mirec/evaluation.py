"""Retrieval and ranking metrics.

An item's relevance to a user is the max dot product over the user's interest
vectors. Retrieval extracts interests and scores the full catalog exactly, a
block of users at a time, with ties broken by lower item id. Scoring builds one
(users × max cutoff) boolean hit matrix per split, where row u, column r says
whether user u's item at rank r + 1 is relevant; users with an empty relevant
set are dropped there and counted. Recall, NDCG and hit rate at cutoff n read
its first n columns. NDCG follows the recalled-positives convention: the ideal
ranking places the h items actually recalled at the top, so NDCG is 1 whenever
the hits are consecutive from rank 1.
"""

from dataclasses import dataclass

import numpy as np

from . import model

# Users per extractor block and retrieval call; bounds the (users, items) scores.
EXTRACT_BLOCK = 256


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
    """(users, items) max over interests of the dot product, folded in one
    interest at a time so no (users, num_interests, items) array is formed."""
    scores = interests[:, 0] @ item_emb.T
    for k in range(1, interests.shape[1]):
        np.maximum(scores, interests[:, k] @ item_emb.T, out=scores)
    return scores


def retrieve_topn(interests, item_emb, n, excludes):
    """(users, min(n, items)) top item ids by max-over-interests dot product.

    excludes holds, per user, the item ids never to return. Ties go to the
    lower id; slots past a user's candidates hold -1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scores = max_interest_scores(interests, item_emb)
    for row, exclude in enumerate(excludes):
        scores[row, np.asarray(list(exclude), dtype=np.int64)] = -np.inf
    np.negative(scores, out=scores)
    top = np.argsort(scores, axis=1, kind="stable")[:, :n].copy()
    top[np.take_along_axis(scores, top, axis=1) == np.inf] = -1
    return top


def hit_matrix(rankings, relevants, n):
    """(users, n) bool matrix: hits[u, r] is true when rank r + 1 of user u is relevant.

    rankings are item-id rows, shorter ones padded with misses, and id -1 is a
    miss; relevants are sets. Users with an empty relevant set are dropped.
    Returns (hits, sizes of the kept relevant sets, number of users dropped).
    """
    kept = [(ids, rel) for ids, rel in zip(rankings, relevants) if rel]
    if not kept:
        raise ValueError("no users with a non-empty relevant set")
    hits = np.zeros((len(kept), n), dtype=bool)
    for row, (ids, rel) in enumerate(kept):
        top = ids[:n].tolist()
        hits[row, : len(top)] = [item in rel for item in top]
    sizes = np.array([len(rel) for _, rel in kept])
    return hits, sizes, len(rankings) - len(kept)


def metric_recall(hits, sizes):
    """Mean over users of |top ∩ relevant| / |relevant|."""
    return float(np.mean(hits.sum(axis=1) / sizes))


def metric_ndcg(hits):
    """Mean over users of recalled-positives NDCG; 0 for a user without hits.

    Both DCG and IDCG are sequential (cumulative) sums of the rank discounts.
    """
    disc = 1.0 / np.log2(np.arange(2, hits.shape[1] + 2))
    dcg = np.cumsum(np.where(hits, disc, 0.0), axis=1)[:, -1]
    n_hits = hits.sum(axis=1)
    idcg = np.cumsum(disc)[np.maximum(n_hits - 1, 0)]
    return float(np.mean(np.where(n_hits > 0, dcg / idcg, 0.0)))


def metric_hitrate(hits):
    """Fraction of users with at least one hit."""
    return float(np.mean(hits.any(axis=1)))


def user_interests_for_profile(profiles, params, max_seq_len):
    """Interests (U, num_interests, d), attention (U, num_interests,
    max_seq_len) and the padded (ids, mask) of U profiles, each truncated to
    its last max_seq_len items; the extractor runs EXTRACT_BLOCK users at a time."""
    ids, mask = model.pad_sequences(profiles, max_seq_len)
    n_z, d = params.att_query.value.shape[0], params.item_emb.value.shape[1]
    interests = np.empty((len(profiles), n_z, d))
    attention = np.empty((len(profiles), n_z, max_seq_len))
    for start in range(0, len(profiles), EXTRACT_BLOCK):
        rows = slice(start, start + EXTRACT_BLOCK)
        x_emb = model.embed_batch(ids[rows], mask[rows], params)
        z, a = model.interest_forward(x_emb, mask[rows], params)
        interests[rows], attention[rows] = z.value, a.value
    return interests, attention, ids, mask


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
    users = sorted(part)
    profiles = [part[user][0] for user in users]
    excludes = [set(profile) for profile in profiles]
    interests = user_interests_for_profile(profiles, params, hp.max_seq_len)[0]
    rankings = []
    for start in range(0, len(users), EXTRACT_BLOCK):
        rows = slice(start, start + EXTRACT_BLOCK)
        rankings.extend(retrieve_topn(interests[rows], params.item_emb.value, n_max,
                                      excludes[rows]))
    relevants = [set(part[user][1]) - exclude for user, exclude in zip(users, excludes)]
    hits, sizes, skipped = hit_matrix(rankings, relevants, n_max)
    return EvalReport(
        cutoffs=cutoffs,
        recall={n: metric_recall(hits[:, :n], sizes) for n in cutoffs},
        ndcg={n: metric_ndcg(hits[:, :n]) for n in cutoffs},
        hitrate={n: metric_hitrate(hits[:, :n]) for n in cutoffs},
        users_evaluated=len(hits), users_skipped=skipped,
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
