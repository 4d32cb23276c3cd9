"""Runs one workload through the public `mirec` CLI and measures it.

Set-up (synth, plus a brief training run for serve-20k) is timed as a whole
and repeated at least twice, and until the repetitions took MIN_REPEAT_S
together. The timed phase runs the workload's CLI commands once, in order,
and then repeats only its read-only commands (eval, diagnose) while another
such pass would end less than half a pass past the time budget. Every
command goes through `mirec.cli.main(argv)` in this process, so the
end-to-end numbers depend on no name behind the CLI.

The read passes matter because the machine's speed drifts by tens of
percent over seconds: a short command timed once shows that drift in full,
while the median of runs spread over the whole budget does not.

With tracing on, the first set-up repetition runs under `tracer.Tracer`,
then one untraced and one traced pass of all commands; the two passes must
leave byte-identical artifacts.
"""

import contextlib
import hashlib
import io
import math
import os
import platform
import re
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

from mirec import cli

import tracer as tracing
from workloads import WORKLOADS

MIN_REPEAT_S = 2.5
MIN_SETUPS, MAX_SETUPS = 2, 10

ARTIFACTS = {
    "synth": ("interactions.tsv", "labels.tsv", "synth.cfg"),
    "train": ("checkpoint.bin", "train.log", "split.txt", "resolved_train.cfg"),
    "eval": ("eval.txt", "resolved_eval.cfg"),
    "diagnose": ("diagnostics.txt", "embeddings.tsv", "resolved_diagnose.cfg"),
}

EPOCH_LINE = re.compile(
    r"^epoch (\d+) l_rec (\S+) l_cl (\S+) l_att (\S+) l_ct (\S+) seconds (\S+)")


def machine_info(blas_threads):
    """Python, numpy, BLAS build, CPU count and the BLAS thread setting."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs CLI commands for one workload and collects checks and counts."""

    def __init__(self, workload, seed, work):
        self.w = workload
        self.seed = seed
        self.work = work
        self.dataset = os.path.join(work, "setup0", "data", "interactions.tsv")
        self.model_ckpt = os.path.join(work, "setup0", "model", "checkpoint.bin")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _sets(self, output_dir):
        keys = dict(self.w.config, dataset=self.dataset, output_dir=output_dir,
                    seed=self.seed)
        out = []
        for key, value in keys.items():
            out += ["--set", f"{key}={value}"]
        return out

    def command(self, root, argv, out_dir):
        """One CLI call under MIREC_OUTPUT_ROOT=root; returns (seconds, stdout, ok)."""
        os.environ["MIREC_OUTPUT_ROOT"] = root
        buf = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()  # into buf; the problem line shows its tail
                rc = -1
        seconds = time.perf_counter() - start
        text = buf.getvalue()
        missing = [a for a in ARTIFACTS[argv[0]]
                   if not os.path.isfile(os.path.join(root, out_dir, a))]
        ok = rc == 0 and not missing
        if not ok:
            self.failed += 1
            tail = text.strip().splitlines()[-1:] or [""]
            self.problems.append(f"{argv[0]}: exit {rc}, missing {missing}: {tail[0]}")
        return seconds, text, ok

    def setup(self, index):
        """Synth (and train for serve) into work/setup<index>; returns seconds."""
        root = os.path.join(self.work, f"setup{index}")
        total, _, _ = self.command(
            root, ["synth", "--out", "data", "--seed", str(self.seed)] + self.w.synth,
            "data")
        train = None
        if self.w.setup_train:
            argv = ["train"] + self._sets("model")
            # every repetition trains on the first repetition's data file, so
            # the dataset path in the resolved config stays the same
            seconds, stdout, _ = self.command(root, argv, "model")
            total += seconds
            train = self._train_rate(root, "model", seconds, stdout)
        return total, train

    def _train_rate(self, root, out_dir, seconds, stdout):
        match = re.search(r"examples (\d+)", stdout)
        epochs = self._check_train_log(os.path.join(root, out_dir, "train.log"))
        if match is None or not epochs:
            self.problems.append("train: cannot read example count or epochs")
            return None
        return int(match.group(1)) * epochs / seconds

    def _check_train_log(self, path):
        """Number of epoch lines; every loss and time must be finite."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        except OSError:
            return 0
        for line in lines:
            match = EPOCH_LINE.match(line)
            if match is None or not all(math.isfinite(float(v)) for v in match.groups()[1:]):
                self.problems.append(f"train.log: bad line {line!r}")
                return 0
        return len(lines)

    def run_pass(self, index, commands):
        """Each of `commands` once, in order, into work/pass<index>/run.

        eval and diagnose read the served model of serve-20k, else the
        checkpoint this pass trained or, in a read pass, the one pass 0
        trained; pass 0's directory is kept for that.
        """
        root = os.path.join(self.work, f"pass{index}")
        run = os.path.join(root, "run")
        trained = os.path.join(root if "train" in commands else
                               os.path.join(self.work, "pass0"), "run", "checkpoint.bin")
        ckpt = self.model_ckpt if self.w.setup_train else trained
        sets = self._sets("run")
        result = {"seconds": {}}
        for cmd in commands:
            argv = [cmd] + sets + (["--checkpoint", ckpt] if cmd != "train" else [])
            seconds, stdout, _ = self.command(root, argv, "run")
            result["seconds"][cmd] = seconds
            if cmd == "train":
                result["train_rate"] = self._train_rate(root, "run", seconds, stdout)
        result["checkpoint"] = _sha256(ckpt) if os.path.isfile(ckpt) else None
        result.update(self._read_eval(os.path.join(run, "eval.txt")))
        result["diagnostics"] = self._read_diagnostics(os.path.join(run, "diagnostics.txt"))
        result["pass_s"] = sum(result["seconds"].values())
        if index > 0:
            shutil.rmtree(root, ignore_errors=True)
        return result

    def _read_eval(self, path):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return {"eval_bytes": None}
        fields = {}
        for line in raw.decode("utf-8").splitlines():
            key, sep, value = line.partition(": ")
            if sep:
                fields[key] = value
        try:
            out = {"eval_bytes": raw,
                   "recall": float(fields["recall@20"]),
                   "ndcg": float(fields["ndcg@20"]),
                   "users": int(fields["users_evaluated"]) + int(fields["users_skipped"])}
        except (KeyError, ValueError):
            self.problems.append("eval.txt: missing recall@20 / ndcg@20 / user counts")
            return {"eval_bytes": raw}
        if not (0.0 <= out["recall"] <= 1.0 and 0.0 <= out["ndcg"] <= 1.0
                and out["users"] > 0):
            self.problems.append(f"eval.txt: values out of range {out}")
        return out

    def _read_diagnostics(self, path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return None
        values = dict(re.findall(r"(inter|intra)=(\S+)", text))
        if len(values) != 2 or not all(math.isfinite(float(v)) for v in values.values()):
            self.problems.append(f"diagnostics.txt: cannot read inter/intra: {text!r}")
        return text


def _same_artifacts(runner, first, other, what):
    for key in ("checkpoint", "eval_bytes", "diagnostics"):
        if first.get(key) != other.get(key):
            runner.problems.append(f"{what}: {key} differs from the first pass")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, work, trace_path, per_layer_names,
                 blas_threads):
    """Set up, measure and check one workload; returns (result, report lines)."""
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, work)
    tracer = tracing.Tracer() if trace else None
    info = machine_info(blas_threads)

    setup_times, setup_rates, setup_hashes = [], [], []
    while len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < MIN_REPEAT_S and len(setup_times) < MAX_SETUPS):
        index = len(setup_times)
        if tracer is not None and index == 0:
            tracer.install()
        try:
            took, rate = runner.setup(index)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_times.append(took)
        setup_rates.append(rate)
        root = os.path.join(work, f"setup{index}")
        setup_hashes.append(tuple(
            _sha256(p) if os.path.isfile(p) else None
            for p in (os.path.join(root, "data", "interactions.tsv"),
                      os.path.join(root, "model", "checkpoint.bin"))))
    if len(set(setup_hashes)) != 1:
        runner.problems.append("set-up repetitions produced different data or model")

    start = time.perf_counter()
    passes = [runner.run_pass(0, workload.commands)]
    first = passes[0]
    if trace:
        tracer.install()
        try:
            with tracer.span("pipeline"):
                traced = runner.run_pass(1, workload.commands)
        finally:
            tracer.restore()
        _same_artifacts(runner, first, traced, "traced pass")
    else:
        reads = [c for c in workload.commands if c != "train"]
        last = sum(first["seconds"][c] for c in reads)
        while time.perf_counter() - start + last / 2 < seconds:
            passes.append(runner.run_pass(len(passes), reads))
            last = passes[-1]["pass_s"]
            _same_artifacts(runner, first, passes[-1], "read pass")

    recall = first.get("recall")
    if recall is not None and recall < workload.recall_floor:
        runner.problems.append(
            f"recall@20 {recall:.4f} below the workload floor {workload.recall_floor}")

    if trace:
        metrics = tracing.layer_metrics(tracer, per_layer_names)
        metrics["cli.commands"] = runner.attempted
        metrics["cli.failed"] = runner.failed
        metrics["bench.trace_overhead"] = traced["pass_s"] / first["pass_s"]
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write(trace_path)
    else:
        per_command = {cmd: _median([p["seconds"].get(cmd) for p in passes])
                       for cmd in workload.commands}
        train_rate = first.get("train_rate") if "train" in workload.commands \
            else _median(setup_rates)
        metrics = {
            "setup_s": _median(setup_times),
            "train_examples_per_s": train_rate,
            "eval_users_per_s": _median(
                [first["users"] / p["seconds"]["eval"] for p in passes]
                if first.get("users") else []),
            "diagnose_s": per_command["diagnose"],
            "pipeline_s": sum(per_command.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall_at_20": recall,
            "ndcg_at_20": first.get("ndcg"),
        }
    missing = sorted(k for k, v in metrics.items() if v is None)
    report = [f"# machine {info}",
              f"# workload {name} seed {seed}: {len(passes)} timed pass(es), "
              f"{len(setup_times)} set-ups, trace {int(bool(trace))}"]
    report += [f"# problem: {p}" for p in runner.problems]
    if missing:
        report.append(f"# unmeasured: {', '.join(missing)}")
    result = {"correct": not runner.problems and runner.failed == 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    return result, report
