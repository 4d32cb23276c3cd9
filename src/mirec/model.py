"""Item embeddings and the multi-interest extractor.

Behavior sequences are padded into (B, max_seq_len) id and mask arrays,
embedded, pushed through a small tanh attention network with one query vector
per interest, and pooled into `num_interests` interest vectors. Training,
evaluation and diagnostics all run this one batched path; it is taped while
training and plain numpy otherwise.
"""

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import gradcore as gc
from .data import write_atomic
from .gradcore import Tensor

CHECKPOINT_MAGIC = b"MIRECKPT"
CHECKPOINT_VERSION = 1


@dataclass
class HyperParams:
    embed_dim: int = 64
    att_hidden_dim: int = 256
    recon_hidden_dim: int = 32
    num_interests: int = 8
    max_seq_len: int = 20
    temperature: float = 0.02
    pos_threshold: float | str = "adaptive"
    lambda_cl: float = 0.0  # re-contrast weight
    lambda_att: float = 0.0  # re-attend weight
    lambda_ct: float = 0.0  # re-construct weight
    num_rec_negatives: int = 128
    num_seq_negatives: int | None = None
    logq_correction: bool = False

    def __post_init__(self):
        for name in ("embed_dim", "att_hidden_dim", "recon_hidden_dim",
                     "num_interests", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.pos_threshold != "adaptive" and not (0.0 < float(self.pos_threshold) < 1.0):
            raise ValueError(f"pos_threshold must be in (0,1) or 'adaptive', got {self.pos_threshold}")
        for name in ("lambda_cl", "lambda_att", "lambda_ct"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.num_rec_negatives < 1:
            raise ValueError(f"num_rec_negatives must be >= 1, got {self.num_rec_negatives}")
        if self.num_seq_negatives is not None and self.num_seq_negatives < 0:
            raise ValueError(
                f"num_seq_negatives must be none or >= 0, got {self.num_seq_negatives}")


def tensor_shapes(num_items, d, d_h, d_b, n_x, n_z):
    """Name -> shape of every trainable tensor, in checkpoint order.

    The last axis of each shape is the tensor's fan-in.
    """
    return {
        "item_emb": (num_items, d),
        "att_hidden": (d_h, d),  # shared attention transform
        "att_query": (n_z, d_h),  # one query per interest
        "val_proj": (d, d),  # value projection for interest pooling
        "recon_hidden": (d_b, d_b),  # slot transform in the reconstruction attention
        "recon_expand": (n_x * d_b, d),  # interest -> slot codes
        "recon_out": (d, d_b),  # slot code -> item-embedding space
        "recon_query": (n_x, d_b),  # one query per reconstructed position
    }


@dataclass
class ModelParams:
    """All trainable tensors, shaped and ordered as in tensor_shapes()."""

    item_emb: Tensor
    att_hidden: Tensor
    att_query: Tensor
    val_proj: Tensor
    recon_hidden: Tensor
    recon_expand: Tensor
    recon_out: Tensor
    recon_query: Tensor

    @classmethod
    def init(cls, num_items, hp, rng):
        """Uniform init scaled by 1/sqrt(fan_in) for every tensor."""
        shapes = tensor_shapes(num_items, hp.embed_dim, hp.att_hidden_dim,
                               hp.recon_hidden_dim, hp.max_seq_len, hp.num_interests)
        tensors = {}
        for name, shape in shapes.items():
            lim = 1.0 / np.sqrt(shape[-1])
            tensors[name] = Tensor(rng.uniform(-lim, lim, size=shape))
        return cls(**tensors)

    def named(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def tensors(self):
        return [t for _, t in self.named()]

    @property
    def num_items(self):
        return self.item_emb.value.shape[0]

    def dims(self):
        """(num_items, d, d_h, d_b, max_seq_len, num_interests) as stored in checkpoints."""
        num_items, d = self.item_emb.value.shape
        d_h = self.att_hidden.value.shape[0]
        d_b = self.recon_hidden.value.shape[0]
        max_seq_len = self.recon_query.value.shape[0]
        num_interests = self.att_query.value.shape[0]
        return num_items, d, d_h, d_b, max_seq_len, num_interests


def _linear(x, w):
    """x @ w.T for x (..., in) and weight (out, in)."""
    return gc.matmul(x, gc.swapaxes(w, 0, 1))


def pad_sequences(seqs, max_seq_len):
    """Left-aligned (ids, mask) of shape (B, max_seq_len) from item lists.

    Each sequence keeps its last max_seq_len items; padded slots hold id 0
    and mask False.
    """
    ids = np.zeros((len(seqs), max_seq_len), dtype=np.int64)
    mask = np.zeros((len(seqs), max_seq_len), dtype=bool)
    for row, items in enumerate(seqs):
        tail = np.asarray(items, dtype=np.int64)[-max_seq_len:]
        if tail.shape[0] == 0:
            raise ValueError(f"sequence {row}: empty behavior sequence")
        ids[row, : tail.shape[0]] = tail
        mask[row, : tail.shape[0]] = True
    return ids, mask


def embed_batch(ids, mask, params):
    """Embed (B, max_seq_len) ids to (B, max_seq_len, d); padded rows are exactly zero."""
    num_items = params.num_items
    valid_ids = ids[mask]
    if valid_ids.size and (valid_ids.min() < 0 or valid_ids.max() >= num_items):
        bad = valid_ids[(valid_ids < 0) | (valid_ids >= num_items)][0]
        raise ValueError(f"item id {bad} out of range for embedding table with {num_items} rows")
    return gc.gather_rows(params.item_emb, ids) * mask[:, :, None].astype(np.float64)


def interest_forward(x_emb, mask, params):
    """Batched extractor core.

    x_emb: Tensor (B, max_seq_len, d) with padded rows zero; mask: (B, max_seq_len)
    bool. Returns (interests (B, num_interests, d), attention (B, num_interests,
    max_seq_len)).
    """
    num_interests = params.att_query.value.shape[0]
    b, n_x = mask.shape
    hidden = gc.tanh(_linear(x_emb, params.att_hidden))  # (B, n_x, d_h)
    logits = gc.swapaxes(_linear(hidden, params.att_query), 1, 2)  # (B, n_z, n_x)
    att_mask = np.broadcast_to(mask[:, None, :], (b, num_interests, n_x))
    attention = gc.masked_softmax(logits, att_mask, axis=-1)
    values = _linear(x_emb, params.val_proj)  # (B, n_x, d)
    interests = gc.matmul(attention, values)  # (B, n_z, d)
    return interests, attention


def save_checkpoint(params, path):
    """Write params to a binary checkpoint.

    Layout: 8-byte magic "MIRECKPT"; then 7 little-endian uint32: format
    version, num_items, d, d_h, d_b, max_seq_len, num_interests; then every
    tensor in tensor_shapes() order, row-major little-endian float64.
    Every tensor is checked before anything is written, and the file is
    replaced atomically, so a refused save leaves the previous checkpoint intact.
    """
    for name, t in params.named():
        if not np.all(np.isfinite(t.value)):
            raise ValueError(f"refusing to checkpoint non-finite parameter {name}")
    header = struct.pack("<8s7I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *params.dims())
    write_atomic(path, header + b"".join(
        np.ascontiguousarray(t.value, dtype="<f8").tobytes() for t in params.tensors()))


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; returns ModelParams."""
    with open(path, "rb") as f:
        data = f.read()
    head_size = struct.calcsize("<8s7I")
    if len(data) < head_size:
        raise ValueError(f"checkpoint too short: {len(data)} bytes")
    magic, version, num_items, d, d_h, d_b, n_x, n_z = struct.unpack_from("<8s7I", data)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version} not supported, "
                         f"this build reads version {CHECKPOINT_VERSION}")
    offset = head_size
    tensors = {}
    for name, shape in tensor_shapes(num_items, d, d_h, d_b, n_x, n_z).items():
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise ValueError(f"checkpoint truncated in tensor {name}")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint tensor {name} has non-finite entries")
        tensors[name] = Tensor(arr.copy())
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"checkpoint has {len(data) - offset} trailing bytes")
    return ModelParams(**tensors)
