"""The four training objectives.

rec_batch is a sampled-softmax next-item likelihood on the interest closest
to the target. The three regularizers run "backward" from extracted interests
to the sequence: recontrast_batch pulls each interest toward its
high-attention items and away from everything else (InfoNCE), reattend_batch
aligns dot-product relevance with the extractor's attention map, and
reconstruct_batch decodes each interest back into its positive items.

Every loss takes (B, ...) batches and returns the sum over the batch;
compute_batch_losses runs the whole graph and returns batch means. Discrete
selectors (positive masks, the argmax interest, sampled negative ids) are
chosen from current values and treated as constants by the gradient.
"""

from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .model import embed_batch, interest_forward


@dataclass
class LossBundle:
    rec: float
    contrast: float
    attend: float
    reconstruct: float
    total: float


def select_positives_batch(att_values, mask, pos_threshold):
    """Boolean (pos_mask, neg_mask) of shape (B, num_interests, max_seq_len)."""
    mask = np.asarray(mask, dtype=bool)
    lengths = mask.sum(axis=1)
    if np.any(lengths < 1):
        raise ValueError("every example needs at least one valid position")
    if pos_threshold == "adaptive":
        thr = (1.0 / lengths)[:, None, None]
    else:
        thr = float(pos_threshold)
    valid = mask[:, None, :]
    pos_mask = (att_values > thr) & valid
    neg_mask = valid & ~pos_mask
    return pos_mask, neg_mask


def sample_out_of_seq_batch(item_ids, mask, num_items, num_interests, sizes, rng,
                            max_rounds=1000):
    """Sample per-interest negative item ids outside each example's sequence.

    sizes is per-example; rows are padded to max(sizes) with sample_mask
    marking real draws and id 0 in the padded slots. Items are drawn
    uniformly with replacement from the complement of the sequence: one
    (B, num_interests, max(sizes)) block is drawn, then the slots that hit
    their example's sequence are redrawn, batch-wide, until none do.
    """
    item_ids = np.asarray(item_ids)
    mask = np.asarray(mask, dtype=bool)
    sizes = np.asarray(sizes, dtype=np.int64)
    b = item_ids.shape[0]
    s_max = int(sizes.max()) if b else 0
    seq = np.sort(np.where(mask, item_ids, -1), axis=1)  # -1 is never drawn
    valid = seq >= 0
    distinct = valid.sum(axis=1) - (valid[:, 1:] & (seq[:, 1:] == seq[:, :-1])).sum(axis=1)
    full = np.flatnonzero(distinct >= num_items)
    if full.size:
        raise ValueError(
            f"example {int(full[0])}: sequence covers all {num_items} items, "
            "no out-of-sequence negatives exist"
        )
    sample_mask = np.broadcast_to((np.arange(s_max) < sizes[:, None])[:, None, :],
                                  (b, num_interests, s_max)).copy()
    draw = rng.integers(0, num_items, size=(b, num_interests, s_max))
    hit = sample_mask & (draw[..., None] == seq[:, None, None, :]).any(axis=-1)
    ex, k, slot = np.nonzero(hit)
    rounds = 0
    while ex.size:
        if rounds == max_rounds:
            raise RuntimeError(
                f"example {int(ex[0])}: out-of-sequence sampling did not converge")
        rounds += 1
        redraw = rng.integers(0, num_items, size=ex.size)
        draw[ex, k, slot] = redraw
        again = (redraw[:, None] == seq[ex]).any(axis=1)
        ex, k, slot = ex[again], k[again], slot[again]
    return np.where(sample_mask, draw, 0), sample_mask


def _l2_normalize(t, what, where=None, index=None):
    """Row-normalize the last axis on the tape.

    A zero-norm row is refused, naming `what` and its index, unless it is
    masked out: index maps reported positions to rows, and where marks the
    positions that take part. Masked-out zero rows (padding) come out zero.
    """
    sq = gc.tsum(t * t, axis=-1, keepdims=True)
    zero = sq.value == 0.0
    refused = zero[..., 0]
    if index is not None:
        refused = refused[index]
    if where is not None:
        refused = refused & where
    if refused.any():
        idx = tuple(int(v) for v in np.argwhere(refused)[0])
        raise ValueError(f"zero-norm vector before normalization: {what} at index {idx}")
    norm = gc.sqrt(gc.add(sq, zero.astype(np.float64)))
    return t / norm


def recontrast_batch(interests, x_emb, pos_mask, neg_mask, sampled_emb, sampled_mask,
                     temperature, sampled_idx=None):
    """Sum over the batch of the InfoNCE loss; empty positive sets contribute 0.

    For each interest k and positive position i, the negatives are the
    interest's in-sequence negatives, the other interests, and its sampled
    out-of-sequence items; every vector is L2-normalized first. sampled_emb
    holds the sampled vectors, (B, n_z, S, d); or, with sampled_idx (B, n_z,
    S) given, the (U, d) rows those slots index, so that a vector drawn for
    many slots is normalized once.
    """
    b, n_z, n_x = pos_mask.shape
    valid = pos_mask | neg_mask
    z_bar = _l2_normalize(interests, "interest (example, interest)")  # (B, n_z, d)
    x_bar = _l2_normalize(x_emb, "sequence item (example, position)",
                          where=valid.any(axis=1))  # (B, n_x, d)
    sims = gc.matmul(z_bar, gc.swapaxes(x_bar, 1, 2)) / temperature  # (B, n_z, n_x)
    inter = gc.matmul(z_bar, gc.swapaxes(z_bar, 1, 2)) / temperature  # (B, n_z, n_z)
    off_diag = np.broadcast_to(~np.eye(n_z, dtype=bool), (b, n_z, n_z))
    log_mass = gc.logaddexp(
        gc.masked_logsumexp(sims, neg_mask, axis=-1),
        gc.masked_logsumexp(inter, off_diag, axis=-1),
    )
    if sampled_emb is not None and sampled_mask.shape[2] > 0:
        n_bar = _l2_normalize(sampled_emb, "sampled negative (example, interest, slot)",
                              where=sampled_mask, index=sampled_idx)
        if sampled_idx is not None:
            n_bar = gc.gather_rows(n_bar, sampled_idx)  # (B, n_z, S, d)
        d = z_bar.value.shape[-1]
        z_col = gc.reshape(z_bar, (b, n_z, d, 1))
        samp_sims = gc.reshape(gc.matmul(n_bar, z_col),
                               sampled_mask.shape) / temperature  # (B, n_z, S)
        log_mass = gc.logaddexp(
            log_mass, gc.masked_logsumexp(samp_sims, sampled_mask, axis=-1)
        )
    per_pos = gc.softplus(gc.reshape(log_mass, (b, n_z, 1)) - sims)
    return gc.tsum(per_pos * pos_mask.astype(np.float64))


def reattend_batch(attention, interests, x_emb, mask):
    """Sum over the batch of cross-entropy between the attention map (fixed
    target) and softmaxed dot-product relevance over valid positions."""
    b, n_z, n_x = attention.value.shape
    logits = gc.matmul(interests, gc.swapaxes(x_emb, 1, 2))  # (B, n_z, n_x)
    valid = np.broadcast_to(np.asarray(mask, bool)[:, None, :], (b, n_z, n_x))
    log_probs = logits - gc.masked_logsumexp(logits, valid, axis=-1, keepdims=True)
    target = gc.stop_grad(attention)
    return gc.neg(gc.tsum(target * (log_probs * valid.astype(np.float64))))


def reconstruct_batch(interests, x_emb, pos_mask, params):
    """Sum over the batch of squared reconstruction error on positive items.

    Each interest is expanded into max_seq_len slot codes; a per-position
    query attends over the slots, and the attention pools the slot codes
    into one d_b-wide context per (example, interest, position). Only the
    contexts of positive triples are projected back to embedding space by
    recon_out and compared to their items, so no (B, n_z, n_x, d) tensor is
    formed and an empty positive set contributes exactly 0.
    """
    b, n_z, d = interests.value.shape
    n_x = pos_mask.shape[2]
    d_b = params.recon_hidden.value.shape[0]
    flat = gc.matmul(interests, gc.swapaxes(params.recon_expand, 0, 1))  # (B, n_z, n_x*d_b)
    codes = gc.reshape(flat, (b, n_z, n_x, d_b))
    hidden = gc.tanh(gc.matmul(codes, gc.swapaxes(params.recon_hidden, 0, 1)))
    slot_logits = gc.matmul(hidden, gc.swapaxes(params.recon_query, 0, 1))  # (B,n_z,slot,pos)
    beta = gc.softmax(slot_logits, axis=2)  # softmax over slots for each position
    ctx = gc.matmul(gc.swapaxes(beta, 2, 3), codes)  # (B, n_z, pos, d_b)
    ex, k, pos = np.nonzero(pos_mask)
    ctx_pos = gc.gather_rows(gc.reshape(ctx, (b * n_z * n_x, d_b)),
                             (ex * n_z + k) * n_x + pos)  # (P, d_b)
    x_pos = gc.gather_rows(gc.reshape(x_emb, (b * n_x, d)), ex * n_x + pos)  # (P, d)
    diff = gc.matmul(ctx_pos, gc.swapaxes(params.recon_out, 0, 1)) - x_pos
    return gc.tsum(diff * diff)


def select_interest_batch(interest_values, target_values):
    """Index of the interest with max dot product to the target; ties take the
    lowest index. Plain values, no gradient."""
    scores = np.einsum("bkd,bd->bk", interest_values, target_values)
    return np.argmax(scores, axis=1)


def rec_batch(interests, target_emb, neg_emb, selected=None, logq_num_items=None):
    """Sum over the batch of sampled-softmax NLL on the selected interest.

    Gradient flows only through the winning interest; pass `selected` to fix
    the winner externally (otherwise it is the current argmax). With
    logq_num_items set, uniform-sampling log-frequency is subtracted from
    negative logits.
    """
    b, n_z, d = interests.value.shape
    if selected is None:
        selected = select_interest_batch(interests.value, target_emb.value)
    z_hat = gc.take_per_row(interests, selected)  # (B, d)
    pos_logit = gc.tsum(z_hat * target_emb, axis=-1)  # (B,)
    s = neg_emb.value.shape[1]
    if s < 1:
        raise ValueError("rec_batch needs at least one sampled negative")
    neg_logits = gc.reshape(gc.matmul(neg_emb, gc.reshape(z_hat, (b, d, 1))), (b, s))
    if logq_num_items is not None:
        neg_logits = neg_logits - np.log(s / float(logq_num_items))
    all_logits = gc.concat([gc.reshape(pos_logit, (b, 1)), neg_logits], axis=1)
    return gc.tsum(gc.logsumexp(all_logits, axis=1) - pos_logit)


def combine(rec, contrast, attend, reconstruct, hp):
    """Weight the four losses into the training total; None means inactive (0)."""
    total = rec
    for term, lam in ((contrast, hp.lambda_cl), (attend, hp.lambda_att),
                      (reconstruct, hp.lambda_ct)):
        if term is not None and lam != 0.0:
            total = total + term * lam

    def val(t):
        return float(t.value) if t is not None else 0.0

    bundle = LossBundle(rec=val(rec), contrast=val(contrast), attend=val(attend),
                        reconstruct=val(reconstruct), total=float(total.value))
    for name in ("rec", "contrast", "attend", "reconstruct", "total"):
        if not np.isfinite(getattr(bundle, name)):
            raise ValueError(f"non-finite loss component {name}")
    return total, bundle


def compute_batch_losses(item_ids, mask, target_ids, params, hp, rng):
    """Full training objective for one batch; returns (total Tensor, LossBundle).

    All four components are batch means. Losses with a zero coefficient are
    skipped and reported as 0. RNG order is fixed: out-of-sequence negatives
    first, then sampled-softmax negatives.
    """
    item_ids = np.asarray(item_ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    b = item_ids.shape[0]
    num_items = params.num_items

    x_emb = embed_batch(item_ids, mask, params)
    interests, attention = interest_forward(x_emb, mask, params)

    need_sets = hp.lambda_cl != 0.0 or hp.lambda_ct != 0.0
    contrast_sum = attend_sum = reconstruct_sum = None
    if need_sets:
        pos_mask, neg_mask = select_positives_batch(attention.value, mask, hp.pos_threshold)
    if hp.lambda_cl != 0.0:
        sizes = (np.full(b, hp.num_seq_negatives, dtype=np.int64)
                 if hp.num_seq_negatives is not None else mask.sum(axis=1))
        samp_ids, samp_mask = sample_out_of_seq_batch(
            item_ids, mask, num_items, hp.num_interests, sizes, rng)
        uniq, inverse = np.unique(samp_ids, return_inverse=True)
        uniq_emb = gc.gather_rows(params.item_emb, uniq)
        contrast_sum = recontrast_batch(interests, x_emb, pos_mask, neg_mask, uniq_emb,
                                        samp_mask, hp.temperature,
                                        sampled_idx=inverse.reshape(samp_ids.shape))
    if hp.lambda_att != 0.0:
        attend_sum = reattend_batch(attention, interests, x_emb, mask)
    if hp.lambda_ct != 0.0:
        reconstruct_sum = reconstruct_batch(interests, x_emb, pos_mask, params)

    neg_ids = rng.integers(0, num_items, size=(b, hp.num_rec_negatives))
    target_emb = gc.gather_rows(params.item_emb, target_ids)
    neg_emb = gc.gather_rows(params.item_emb, neg_ids)
    logq = num_items if hp.logq_correction else None
    rec_sum = rec_batch(interests, target_emb, neg_emb, logq_num_items=logq)

    inv_b = 1.0 / float(b)

    def mean(t):
        return None if t is None else t * inv_b

    return combine(rec_sum * inv_b, mean(contrast_sum), mean(attend_sum),
                   mean(reconstruct_sum), hp)
