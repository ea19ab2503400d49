#!/usr/bin/env python3
"""Benchmark of blockgp's training pipeline on seeded synthetic workloads.

    python3 perfbench/run.py --workload btsgpr-lbfgs --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each run drives blockgp through its
public API in the order ``blockgp fit`` does: standardize and
initial_state, one objective evaluation, the training call, the
closed-form posterior q(u), then predict and metrics.  An untraced run
first makes one such round, with one set-up and one prediction, on the
fixed quality instance, which gives the quality metrics.  It then repeats
timed rounds on the instance of --seed until --seconds is used up and
reports the median set-up and training times and the prediction rate
over all rounds.  With --trace 0
it prints the end-to-end metrics; with --trace 1 it alternates plain,
span-traced and tracemalloc rounds and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

# One BLAS thread, set before numpy loads: see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _import_program():
    """Import blockgp from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "blockgp")):
        raise ImportError(f"no blockgp package under {src}")
    sys.path.insert(0, src)
    import blockgp

    where = os.path.realpath(os.path.dirname(blockgp.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"blockgp was imported from {where}, not from {src}")


@dataclass
class SetUp:
    seed: int
    train: object
    test: object
    state0: object
    partition: object
    spec: object
    initial: float


@dataclass
class Round:
    mode: str  # "plain", "spans" (span tracing) or "memory" (tracemalloc)
    setup: SetUp
    setup_s: float  # mean of wl.setup_reps set-ups timed together
    fit_s: float
    rss_mb: float
    steps: int
    step_s: list
    predict_rep_s: list  # time of each (posterior, predict) repeat
    final: float
    nlpd: float
    state: object
    q_trained: object
    q_post: object
    mem: dict  # tracemalloc peaks, memory rounds only
    duration: float = 0.0
    layers: dict = field(default_factory=dict)  # name -> (value, unit), span rounds only
    qu_durations: list = field(default_factory=list)


def run(wl, seed, seconds, trace):
    from blockgp import bounds_pep, bounds_vi, data, model, prediction, training
    from blockgp.data import Dataset
    from blockgp.model import BoundSpec, Partition

    import tracer as tracing
    import workloads

    def inputs(s):
        blocks = None if wl.num_blocks else workloads.unequal_blocks(wl.n, s)
        return (s, *workloads.make_data(wl, s), blocks)

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
        call_cost = tracing.wrapper_cost(tracer)

    def set_up(inp):
        s, x, y, xt, yt, blocks = inp
        train = data.standardize(Dataset(x=x, y=y))
        test = data.apply_standardization(Dataset(x=xt, y=yt), train.stats)
        state0 = data.initial_state(train, wl.num_inducing, seed=workloads.INIT_SEED,
                                    inducing="kmeans", with_m=(wl.method == "T-PEP"))
        if blocks is None:
            part = model.make_partition(train.n, wl.num_blocks, seed=s)
        else:
            part = Partition(blocks)
        spec = BoundSpec(method=wl.method, alpha=wl.alpha, num_blocks=part.num_blocks)
        initial = training.evaluate_bound(train.x, train.y, state0, spec, part).total
        return SetUp(s, train, test, state0, part, spec, initial)

    def posterior(s, state):
        if wl.alpha is None:
            return bounds_vi.optimal_qu(s.train.x, s.train.y, state)
        cfg = bounds_pep.PepConfig(alpha=wl.alpha, partition=s.partition,
                                   m_scale=state.m_scale)
        return bounds_pep.tpep_optimal_qu(s.train.x, s.train.y, state, cfg)

    def one_round(mode, inp, setup_reps=wl.setup_reps, predict_reps=wl.predict_reps):
        tracer.recording = mode == "spans"
        tracer.phase = "setup"
        t0 = time.perf_counter()
        for _ in range(setup_reps):
            s = set_up(inp)
        setup_s = (time.perf_counter() - t0) / setup_reps
        cfg = training.TrainConfig(
            objective=s.spec,
            optimizer="lbfgs" if wl.trainer == "collapsed" else "adam",
            learning_rate=workloads.LEARNING_RATE,
            epochs=wl.epochs,
            seed=s.seed,
            gradient_mode="fd" if wl.trainer == "collapsed" else "analytic",
        )
        tracer.phase = "fit"
        mem = {}
        if mode == "memory":
            tracemalloc.start()
        t0 = time.perf_counter()
        if wl.trainer == "collapsed":
            state, history = training.fit_collapsed(s.train.x, s.train.y, s.state0, cfg,
                                                    s.partition)
            q_trained = None
        else:
            state, q_trained, history = training.fit_stochastic(
                s.train.x, s.train.y, s.state0, s.partition, cfg)
        fit_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mode == "memory":
            mem["mem.fit_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.reset_peak()
        tracer.phase = "predict"
        predict_rep_s = []
        for _ in range(predict_reps):
            t0 = time.perf_counter()
            q_post = posterior(s, state)
            pred = prediction.predict(s.test.x, state, q_post)
            predict_rep_s.append(time.perf_counter() - t0)
        if mode == "memory":
            mem["mem.predict_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        tracer.recording = False
        nlpd = -prediction.metrics(pred, s.test.y)["mean_ll"]
        if q_trained is None:
            final = training.evaluate_bound(s.train.x, s.train.y, state, s.spec,
                                            s.partition).total
        else:
            final = bounds_vi.vi_uncollapsed(s.train.x, s.train.y, state, s.partition,
                                             q_trained, penalty="logdet").total
        return Round(mode, s, setup_s, fit_s, rss_mb, len(history), list(history.wall_time),
                     predict_rep_s, final, nlpd, state, q_trained, q_post, mem)

    start = time.perf_counter()
    # The quality metrics are read on a fixed instance, so that they do not
    # vary with --seed; that untimed round, with one set-up and one
    # prediction, also warms the process up.
    quality = None if trace else one_round("plain", inputs(workloads.QUALITY_SEED), 1, 1)
    # Whole rounds until the next one would overrun --seconds; a traced run
    # cycles plain, span-traced and tracemalloc rounds and does each once at least.
    timed = inputs(seed)
    modes = ("plain", "spans", "memory") if trace else ("plain",)
    rounds = []
    kept_spans = None
    while True:
        mode = modes[len(rounds) % len(modes)]
        t0 = time.perf_counter()
        r = one_round(mode, timed)
        r.duration = time.perf_counter() - t0
        if mode == "spans":
            r.layers = layer_metrics(tracer, r.steps, call_cost)
            r.qu_durations = [d for name in tracing.QU_GRADIENTS
                              for d in tracer.agg(name, ("fit",)).durations]
            if kept_spans is None:
                kept_spans = tracer.spans
            tracer.reset()
        rounds.append(r)
        print(f"round {len(rounds)} {r.mode}: setup {r.setup_s:.4f} s, fit {r.fit_s:.4f} s, "
              f"predict {statistics.median(r.predict_rep_s):.5f} s a repeat (median)",
              flush=True)
        used = time.perf_counter() - start
        following = modes[len(rounds) % len(modes)]
        guess = next((q.duration for q in reversed(rounds) if q.mode == following), r.duration)
        if len(rounds) >= len(modes) and used + guess > seconds:
            break

    first = rounds[0]
    tracer.phase = "checks"
    tracer.recording = bool(trace)
    results = workload_checks(wl, first)
    tracer.recording = False
    if quality is not None:
        results += workload_checks(wl, quality)
    same = all(r.final == first.final and r.nlpd == first.nlpd for r in rounds)
    results.append(("rounds-identical", same,
                    f"{len(rounds)} rounds, final objective and NLPD bit-for-bit equal"))

    plain = [r for r in rounds if r.mode == "plain"]
    if not trace:
        metrics = {
            "fit_s": (statistics.median(r.fit_s for r in plain), "s"),
            "setup_s": (statistics.median(r.setup_s for r in plain), "s"),
            "predict_pts_per_s": (predict_rate(plain), "points/s"),
            "peak_rss_mb": (first.rss_mb, "MB"),
            "neg_bound_per_n": (-quality.final / quality.setup.train.n, "nats/point"),
            "test_nlpd": (quality.nlpd, "nats/point"),
        }
    else:
        spans = [r for r in rounds if r.mode == "spans"]
        memory = [r for r in rounds if r.mode == "memory"]
        metrics = dict(spans[0].layers)  # counts: the same in every span round
        for key, (_, unit) in spans[0].layers.items():
            if unit == "s":
                metrics[key] = (statistics.median(r.layers[key][0] for r in spans), "s")
        qu = [d for r in spans for d in r.qu_durations]
        qu += [d for name in tracing.QU_GRADIENTS
               for d in tracer.agg(name, ("checks",)).durations]
        metrics["bounds.qu_gradient_s"] = (statistics.median(qu), "s")
        metrics["training.step_s"] = (statistics.median(t for r in plain for t in r.step_s),
                                      "s")
        for key in ("mem.fit_peak_mb", "mem.predict_peak_mb"):
            metrics[key] = (statistics.median(r.mem[key] for r in memory), "MB")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl.gz")
        tracer.spans = kept_spans
        tracer.write(path, {"workload": wl.name, "seed": seed,
                            "fields": ["name", "start", "end", "parent", "phase"]})
        print(f"spans of the first traced round: {path}")

    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'}  ({detail})")
    failed = sum(not ok for _, ok, _ in results)
    phases = len(rounds) * (wl.setup_reps + 2) + (3 if quality is not None else 0)
    return {
        "correct": failed == 0,
        "attempted": phases + len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def predict_rate(rounds):
    """Held-out points per second over every prediction repeat of the rounds."""
    import workloads

    times = [t for r in rounds for t in r.predict_rep_s]
    print(f"predict repeats: {len(times)}, fastest {min(times):.5f} s, "
          f"median {statistics.median(times):.5f} s, total {sum(times):.3f} s")
    return len(times) * workloads.N_TEST / sum(times)


def workload_checks(wl, r):
    """The correctness checks of one workload, on one round's outputs."""
    from blockgp import bounds_pep

    import checks

    s = r.setup
    x, y = s.train.x, s.train.y
    blocks = s.partition.blocks
    sample = s.test.x[:: max(1, s.test.n // 200)]
    out = []
    pep_cfg = None
    if wl.method == "T-PEP":
        pep_cfg = bounds_pep.PepConfig(alpha=wl.alpha, partition=s.partition,
                                       m_scale=r.state.m_scale)
        out.append(checks.dense_tpep(x, y, r.state, blocks, wl.alpha, r.final))
        out.append(checks.improved(s.initial, r.final))
    elif wl.trainer == "collapsed":
        out.append(checks.dense_btsgpr(x, y, r.state, blocks, r.final))
        out.append(checks.ordering_chain(x, y, r.state, r.final))
        out.append(checks.improved(s.initial, r.final))
    else:
        res, full = checks.unbiased_blocks(x, y, r.state, s.partition, r.q_trained)
        out.append(res)
        out.append(checks.uncollapsed_below_collapsed(x, y, r.state, s.partition, full))
    out.append(checks.predictive_moments(sample, r.state, r.q_post))
    out.append(checks.posterior_precision_form(x, y, r.state, r.q_post, blocks, wl.alpha))
    out.append(checks.posterior_stationary(x, y, r.state, r.q_post, s.partition, pep_cfg))
    return [(f"seed{s.seed}/{name}", ok, detail) for name, ok, detail in out]


def layer_metrics(tracer, steps, call_cost):
    """Per-layer counts and times of one span-traced round.

    call_cost is the extra time of one traced call over a plain one, so the
    tracing overhead of the training call is its span count times that.
    """
    from tracer import OBJECTIVES

    median = statistics.median
    fit = ("fit",)
    evals = sum(tracer.agg(name, fit).calls for name in OBJECTIVES)
    eval_durations = [d for name in OBJECTIVES for d in tracer.agg(name, fit).durations]
    failed = sum(tracer.agg(name, fit).failed for name in OBJECTIVES)
    prep = tracer.agg("prepare")
    gap = tracer.agg("block_gap")
    kern = tracer.agg("kernel_matrix")
    chol = tracer.agg("chol")
    fit_prep = tracer.agg("prepare", fit)
    fit_gap = tracer.agg("block_gap", fit)
    fit_kern = tracer.agg("kernel_matrix", fit)
    fit_chol = tracer.agg("chol", fit)
    posterior = tracer.agg("optimal_qu", ("predict",)).durations + tracer.agg(
        "tpep_optimal_qu", ("predict",)).durations
    per_eval = max(evals, 1)
    fit_spans = sum(a.calls for (phase, _), a in tracer.aggs.items() if phase == "fit")
    return {
        "training.bound_evals": (evals, "count"),
        "training.evals_per_step": (evals / max(steps, 1), "evals/step"),
        "training.fd_gradient_s": (tracer.agg("finite_difference_gradient", fit).total, "s"),
        "training.failed_evals": (failed, "count"),
        "bounds.eval_s": (median(eval_durations), "s"),
        "bounds_vi.prepare.calls": (prep.calls, "count"),
        "bounds_vi.prepare.calls_per_eval": (fit_prep.calls / per_eval, "calls/eval"),
        "bounds_vi.prepare.s": (prep.total, "s"),
        "bounds_vi.block_gap.calls": (gap.calls, "count"),
        "bounds_vi.block_gap.calls_per_eval": (fit_gap.calls / per_eval, "calls/eval"),
        "bounds_vi.block_gap.self_s": (gap.self_time, "s"),
        "kernels.kernel_matrix.calls": (kern.calls, "count"),
        "kernels.kernel_matrix.calls_per_eval": (fit_kern.calls / per_eval, "calls/eval"),
        "kernels.kernel_matrix.entries": (kern.entries, "count"),
        "kernels.kernel_matrix.entries_per_eval": (fit_kern.entries / per_eval,
                                                   "entries/eval"),
        "kernels.kernel_matrix.self_s": (kern.self_time, "s"),
        "linalg.chol.calls": (chol.calls, "count"),
        "linalg.chol.calls_per_eval": (fit_chol.calls / per_eval, "calls/eval"),
        "linalg.chol.jittered": (chol.jittered, "count"),
        "linalg.chol.flops": (chol.flops, "count"),
        "linalg.chol.flops_per_eval": (fit_chol.flops / per_eval, "flops/eval"),
        "linalg.chol.self_s": (chol.self_time, "s"),
        "linalg.low_rank_gaussian.s": (tracer.agg("low_rank_gaussian").total, "s"),
        "prediction.posterior_s": (median(posterior), "s"),
        "prediction.predict_s": (median(tracer.agg("predict", ("predict",)).durations),
                                 "s"),
        "data.initial_state_s": (median(tracer.agg("initial_state", ("setup",)).durations),
                                 "s"),
        "trace.overhead_s": (fit_spans * call_cost, "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    try:
        result = run(wl, args.seed, args.seconds, args.trace)
    except Exception:  # a phase raised: report it, print no result
        traceback.print_exc()
        print(f"perfbench: {wl.name} seed {args.seed} stopped on an exception",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
