"""Command-line entry points: synth, train, eval, diagnose.

Each command reads one flat config (plus --set overrides), writes its
artifacts under the run directory, and persists the fully-resolved config
next to them. The run directory lives under $MIREC_OUTPUT_ROOT (default:
current directory). Exit status is 0 only when every artifact was written.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

from . import config as cfg_mod
from .data import SyntheticSpec, generate_synthetic, ingest, split, \
    write_atomic, write_interactions, write_labels, write_split_manifest
from .diagnostics import diagnose, export_embeddings
from .diagnostics import report_record as diag_record
from .evaluation import evaluate_split, report_record, report_text
from .model import ModelParams, load_checkpoint
from .trainer import train

OUTPUT_ROOT_ENV = "MIREC_OUTPUT_ROOT"


def _run_dir(cfg):
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    path = os.path.join(root, cfg.output_dir)
    os.makedirs(path, exist_ok=True)
    return path


def _load_cfg(args):
    overrides = args.set or []
    if args.config:
        return cfg_mod.load_config(args.config, overrides)
    return cfg_mod.default_config(overrides)


def _load_dataset(cfg):
    if not cfg.dataset:
        raise ValueError("config key 'dataset' must point to an interactions file")
    if not os.path.exists(cfg.dataset):
        raise FileNotFoundError(f"dataset path not found: {cfg.dataset}")
    log = ingest(cfg.dataset)
    return log, split(log, **cfg.split_kwargs())


def _file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()[:12]


def _load_trained_run(args):
    """Config, run dir, checkpoint path, split, checkpoint params and
    hyperparameters of an eval or diagnose run; the checkpoint dims must match
    the dataset and config."""
    cfg = _load_cfg(args)
    run = _run_dir(cfg)
    ckpt = args.checkpoint or os.path.join(run, "checkpoint.bin")
    if not os.path.exists(ckpt):
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    log, sp = _load_dataset(cfg)
    params = load_checkpoint(ckpt)
    want = (len(log.item_tokens), cfg.embed_dim, cfg.att_hidden_dim,
            cfg.recon_hidden_dim, cfg.max_seq_len, cfg.num_interests)
    if params.dims() != want:
        raise ValueError(
            f"checkpoint dims (items,d,d_h,d_b,n_x,n_z)={params.dims()} do not "
            f"match dataset+config {want}")
    return cfg, run, ckpt, sp, params, cfg.hyperparams()


def cmd_train(args):
    cfg = _load_cfg(args)
    run = _run_dir(cfg)
    log, sp = _load_dataset(cfg)
    hp = cfg.hyperparams()
    params = ModelParams.init(len(log.item_tokens), hp,
                              np.random.default_rng(cfg.seed))
    tc = cfg.train_config(
        checkpoint_path=os.path.join(run, "checkpoint.bin"),
        log_path=os.path.join(run, "train.log"),
    )
    result = train(sp, params, hp, tc, log=print)
    # written only once training has succeeded, so a failed run leaves the
    # previous run's files together
    write_split_manifest(sp, os.path.join(run, "split.txt"))
    write_atomic(os.path.join(run, "resolved_train.cfg"), cfg_mod.render(cfg))
    print(f"checkpoint written to {tc.checkpoint_path} "
          f"(best epoch {result.best_epoch}, "
          f"examples {result.num_examples}, "
          f"skipped short sequences {result.skipped_short})")
    return 0


def cmd_eval(args):
    cfg, run, ckpt, sp, params, hp = _load_trained_run(args)
    report = evaluate_split(params, sp.test, hp, cutoffs=cfg.cutoff_list())
    record = report_record(
        report, dataset=cfg.dataset, num_interests=cfg.num_interests,
        seed=cfg.seed, config_hash=cfg_mod.config_hash(cfg),
        checkpoint=_file_hash(ckpt),
    )
    text = report_text(report) + record + "\n"
    write_atomic(os.path.join(run, "eval.txt"), text)
    write_atomic(os.path.join(run, "resolved_eval.cfg"), cfg_mod.render(cfg))
    print(text, end="")
    return 0


def cmd_diagnose(args):
    cfg, run, ckpt, sp, params, hp = _load_trained_run(args)
    report = diagnose(params, sp.test, hp, k_global=cfg.diag_k,
                      init_mode=cfg.diag_init, seed=cfg.seed)
    export_embeddings(params, report.user_interests,
                      [i for profile, holdout in sp.test.values() for i in profile + holdout],
                      os.path.join(run, "embeddings.tsv"))
    record = (diag_record(report) +
              f" checkpoint={_file_hash(ckpt)}"
              f" config_hash={cfg_mod.config_hash(cfg)}")
    write_atomic(os.path.join(run, "diagnostics.txt"), record + "\n")
    write_atomic(os.path.join(run, "resolved_diagnose.cfg"), cfg_mod.render(cfg))
    print(record)
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(
        n_clusters=args.clusters, items_per_cluster=args.items_per_cluster,
        users=args.users, interests_per_user=args.interests,
        seq_len=args.seq_len, noise_rate=args.noise, seed=args.seed,
        popularity_decay=args.decay,
    )
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    out = os.path.join(root, args.out)
    os.makedirs(out, exist_ok=True)
    log, labels = generate_synthetic(spec)
    data_path = os.path.join(out, "interactions.tsv")
    write_interactions(log, data_path)
    write_labels(labels, log.item_tokens, os.path.join(out, "labels.tsv"))
    spec_lines = "".join(f"{k} = {v}\n" for k, v in sorted(vars(spec).items()))
    write_atomic(os.path.join(out, "synth.cfg"), spec_lines)
    print(f"wrote {data_path} ({log.user_ids.shape[0]} interactions, "
          f"{len(log.user_tokens)} users, {len(log.item_tokens)} items)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mirec",
        description="multi-interest sequential recommender: train, evaluate, "
                    "diagnose, and generate synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cfg_flags(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p_train = sub.add_parser("train", help="train a model from a config")
    add_cfg_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    add_cfg_flags(p_eval)
    p_eval.add_argument("--checkpoint",
                        help="checkpoint path (default: <run dir>/checkpoint.bin)")
    p_eval.set_defaults(func=cmd_eval)

    p_diag = sub.add_parser("diagnose",
                            help="cluster-based INTER/INTRA plus embedding export")
    add_cfg_flags(p_diag)
    p_diag.add_argument("--checkpoint",
                        help="checkpoint path (default: <run dir>/checkpoint.bin)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_synth = sub.add_parser("synth", help="generate a planted-interest dataset")
    p_synth.add_argument("--out", default="synth", help="output directory")
    p_synth.add_argument("--clusters", type=int, default=4)
    p_synth.add_argument("--items-per-cluster", type=int, default=50)
    p_synth.add_argument("--users", type=int, default=500)
    p_synth.add_argument("--interests", type=int, default=2)
    p_synth.add_argument("--seq-len", type=int, default=20)
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--decay", type=float, default=0.7)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
