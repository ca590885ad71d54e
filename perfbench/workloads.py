"""The four workloads and the loops that measure them.

Every run follows `arelax.harness._run_seed`, calling the library's public
functions from here: set up (import, `data.load_dataset` train and test,
`models.build_model`), then per batch `graph.forward`, `oracle.loss_mse`,
`relaxation.run_relaxation`, `weight_update`, `psi_update` (learned psi
only) and `apply_updates`, and `harness.evaluate` after the config's epochs.
The gradcheck workload has `epochs: 0`, so it evaluates once and then calls
`harness.gradcheck` repeatedly.

A run trains the config's epochs whatever the machine's speed, so the loss
it reports depends only on the seed; it then keeps training until
`seconds` of step time have passed, so that fast code is measured over as
many steps as slow code. After the last batch of the config's epochs, the
oracle gradient at the weights that step started from gives the
update-vs-oracle angle (outside the step's time). `harness.evaluate` runs
once after the config's epochs (the test loss) and once each time the
summed step time crosses another sixteenth of `seconds`; every evaluation
is an eval sample.

With tracing on, odd-numbered steps run with the library's layer functions
wrapped in spans and even-numbered steps run bare; the difference of their
medians is the tracing overhead.
"""

from __future__ import annotations

import copy
import importlib
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import kernels
import stats
from calib import Calibration
from spans import Tracer, roots, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 11
EVAL_SLOTS = 16
CAL_EVERY_S = 0.2     # one calibration sample per this much measured time
MLP4_MODEL = {"name": "mlp4", "class_count": 10}
# eta_theta is the rate the harness tests train mlp4 with, not the configs'
# 0.0005: at 0.05 the two configured epochs take the test loss from about
# 0.5 to about 0.24, so test_loss shows whether the updates still learn.
MLP4_AR = {"eta_x": 0.1, "n_iters": 100, "eta_theta": 0.05}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict          # for arelax.harness.config_from_dict
    n_train: int
    n_test: int
    angle_bound: float | None = None   # degrees; a larger update angle fails the run

    @property
    def gradcheck(self) -> bool:
        return self.config.get("mode") == "gradcheck"

    @property
    def baseline(self) -> bool:
        """Exact-gradient settings (transpose, exact f', frozen sweep):
        any failed step or check here is a defect, not a measured variant."""
        ar = self.config.get("ar", {})
        return (ar.get("backwards_mode", "transpose") == "transpose"
                and ar.get("nonlinearity_mode", "exact") == "exact"
                and not any(ar.get(k) for k in ("unfreeze_relax_deriv", "unfreeze_weight_deriv",
                                                "unfreeze_weight_activity")))


def _train_config(model: dict, dataset: str, ar: dict, epochs: int) -> dict:
    return {"model": model, "dataset": dataset, "ar": ar, "epochs": epochs,
            "batch_size": 64, "seeds": [0], "output": "unused.csv"}


WORKLOADS = {w.name: w for w in (
    Workload(
        "mlp4_mnist",
        "mlp4 B=64 T=100 on MNIST-format data: small GEMMs, so relaxation's per-step Python and guards dominate",
        _train_config(MLP4_MODEL, "mnist", MLP4_AR, epochs=2),
        n_train=1024, n_test=512, angle_bound=5.0),
    Workload(
        "cnn_cifar_psi",
        "cnn B=64 T=50 with conv-scoped learned psi on CIFAR-format data: conv kernels dominate every phase",
        # the settings of configs/cifar10_learned_psi_conv.json
        _train_config({"name": "cnn", "class_count": 10}, "cifar10",
                      {"eta_x": 0.1, "n_iters": 50, "eta_theta": 0.0005,
                       "backwards_mode": "learned_psi", "backwards_scope": "conv"}, epochs=1),
        n_train=192, n_test=128),
    Workload(
        "gradcheck",
        "harness.gradcheck as in configs/gradcheck.json: tens of thousands of tiny forwards, so per-call overhead",
        {"mode": "gradcheck", "model": MLP4_MODEL, "dataset": "mnist", "ar": {"eta_x": 0.1},
         "epochs": 0, "seeds": [0], "output": "unused.csv",
         "gradcheck": {"graphs": 20, "batch": 4, "iters": 500, "tolerance": 0.001,
                       "fd_tolerance": 0.0001, "check_model": True}},
        n_train=256, n_test=512),
    Workload(
        "mlp4_unfrozen",
        "mlp4_mnist with unfrozen relax and weight derivatives: f' re-evaluated every relax_step",
        _train_config(MLP4_MODEL, "mnist", {**MLP4_AR, "unfreeze_relax_deriv": True,
                                            "unfreeze_weight_deriv": True}, epochs=2),
        n_train=1024, n_test=512),
)}


# --------------------------------------------------------------------------
# set-up

class Arelax:
    """The arelax modules of one import."""

    def __init__(self):
        for name in ("data", "graph", "harness", "models", "oracle", "relaxation", "tensor"):
            setattr(self, name, sys.modules[f"arelax.{name}"])


def fresh_import() -> Arelax:
    """Import arelax as a new process would, from already-compiled bytecode."""
    for name in [n for n in sys.modules if n == "arelax" or n.startswith("arelax.")]:
        del sys.modules[name]
    importlib.import_module("arelax.harness")
    return Arelax()


def span_targets(ar: Arelax) -> list[tuple]:
    """Every place the library and this benchmark look up a layer function."""
    return [
        (ar.graph, "forward", "graph.forward"),
        (ar.harness, "forward", "graph.forward"),
        (ar.oracle, "forward", "graph.forward"),
        (ar.harness, "build", "graph.build"),
        (ar.oracle, "backprop", "oracle.backprop"),
        (ar.oracle, "finite_diff", "oracle.finite_diff"),
        (ar.relaxation, "run_relaxation", "relaxation.run_relaxation"),
        (ar.relaxation, "init_state", "relaxation.init_state"),
        (ar.relaxation, "relax_step", "relaxation.relax_step"),
        (ar.relaxation, "weight_update", "relaxation.weight_update"),
        (ar.relaxation, "psi_update", "relaxation.psi_update"),
        (ar.relaxation, "apply_updates", "relaxation.apply_updates"),
        (ar.harness, "evaluate", "harness.evaluate"),
        (ar.harness, "gradcheck", "harness.gradcheck"),
    ]


def write_data(w: Workload, root: str, seed: int) -> None:
    """Write the workload's synthetic dataset in a child process."""
    subprocess.run([sys.executable, os.path.join(HERE, "synth.py"), "--dataset", w.config["dataset"],
                    "--root", root, "--train", str(w.n_train), "--test", str(w.n_test),
                    "--seed", str(seed)], check=True)


def setup(w: Workload, root: str, tracer: Tracer | None, cal: Calibration):
    """SETUP_REPS timed set-ups; the last one's objects are returned."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    fresh_import()      # compile bytecode once, outside the timings
    total, load, build = [], [], []
    ar = cfg = train = test = g = rng = None
    for _ in range(SETUP_REPS):
        ar = cfg = train = test = g = rng = None    # free the previous set-up first
        t0 = perf_counter()
        ar = fresh_import()
        cfg = ar.harness.config_from_dict(w.config)
        t1 = perf_counter()
        with span("data.load_dataset"):
            train = ar.data.load_dataset(cfg.dataset, root, "train")
        with span("data.load_dataset"):
            test = ar.data.load_dataset(cfg.dataset, root, "test")
        t2 = perf_counter()
        rng = ar.tensor.Rng(cfg.seeds[0])
        with span("models.build_model"):
            g = ar.models.build_model(cfg.model, rng)
        t3 = perf_counter()
        total.append(t3 - t0)
        load.append(t2 - t1)
        build.append(t3 - t2)
        cal.sample()
    if train.class_count != cfg.model.class_count:
        raise ValueError(f"{w.name}: dataset has {train.class_count} classes, model {cfg.model.class_count}")
    times = {"setup_s": statistics.median(total),
             "data.load_dataset.ms": 1e3 * statistics.median(load),
             "models.build_model.ms": 1e3 * statistics.median(build)}
    return times, ar, cfg, train, test, g, rng


# --------------------------------------------------------------------------
# run state shared by both loops

class Run:
    def __init__(self, w: Workload, seconds: float, tracer: Tracer | None, cal: Calibration):
        self.w, self.seconds, self.tracer, self.cal = w, seconds, tracer, cal
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.steps: list[float] = []          # seconds, bare steps
        self.traced_steps: list[float] = []   # seconds, traced steps
        self.step_samples: list[int] = []     # samples per bare step
        self.eval_times: list[float] = []
        self.eval_samples = 0                 # test-set size
        self.eval_slots_done = 0
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def calibrate(self, measured: float) -> None:
        """Calibration samples in proportion to the time just measured."""
        self.cal.sample(max(1, round(measured / CAL_EVERY_S)))

    def traced_next(self) -> bool:
        return self.tracer is not None and (len(self.steps) + len(self.traced_steps)) % 2 == 1

    def layer_spans(self, ar: Arelax):
        return self.tracer.patched(span_targets(ar)) if self.tracer else nullcontext()

    def evaluate(self, ar: Arelax, g, test, batch_size: int) -> tuple[float, float]:
        """One timed harness.evaluate; the time is an eval sample."""
        with self.layer_spans(ar):
            t0 = perf_counter()
            loss, acc = ar.harness.evaluate(g, test, batch_size)
            self.eval_times.append(perf_counter() - t0)
        self.eval_samples = len(test)
        self.calibrate(self.eval_times[-1])
        self.check(math.isfinite(loss), f"evaluate gave loss {loss}")
        return loss, acc

    def evals_due(self, spent: float) -> int:
        """How many of the EVAL_SLOTS even marks of the run `spent` seconds
        of steps have newly crossed. One evaluation per mark spreads the
        eval samples over the run, averaging them over the machine's slow
        and fast spells."""
        crossed = min(int(spent * EVAL_SLOTS / self.seconds), EVAL_SLOTS)
        due, self.eval_slots_done = max(crossed - self.eval_slots_done, 0), max(crossed, self.eval_slots_done)
        return due


def train_loop(run: Run, ar: Arelax, cfg, g, rng, train, test) -> None:
    relax = ar.relaxation
    learned = cfg.ar.backwards_mode == "learned_psi"
    tracer = run.tracer
    epoch_losses: list[list[float]] = []
    residual = None
    spent = 0.0     # summed step time
    epoch = 0
    while epoch < cfg.epochs or spent < run.seconds:
        epoch += 1
        losses: list[float] = []
        epoch_losses.append(losses)
        batches = ar.data.batches(train, cfg.batch_size, rng)
        for bi, (xb, tb) in enumerate(batches):
            if epoch > cfg.epochs and spent >= run.seconds:
                break
            probe = epoch == cfg.epochs and bi == len(batches) - 1
            before = copy.deepcopy(g) if probe else None
            traced = run.traced_next()
            t0 = perf_counter()
            try:
                with tracer.span("bench.train_step") if traced else nullcontext(), \
                        run.layer_spans(ar) if traced else nullcontext():
                    acts = ar.graph.forward(g, xb)
                    loss = ar.oracle.loss_mse(acts[g.output], tb)
                    state = relax.run_relaxation(g, acts, tb, cfg.ar)
                    wd = relax.weight_update(g, state, cfg.ar)
                    pd = relax.psi_update(g, state, cfg.ar) if learned else None
                    relax.apply_updates(g, wd, pd)
                ok = True
            except (relax.DivergenceError, ar.tensor.NonFiniteError) as exc:
                ok = False
                run.failures.append(f"epoch {epoch} batch {bi}: {exc}")
            dt = perf_counter() - t0
            spent += dt
            run.calibrate(dt)
            run.attempted += 1
            if not ok:
                run.failed += 1
                continue
            losses.append(loss)
            residual = state.last_max_dx
            if traced:
                run.traced_steps.append(dt)
            else:
                run.steps.append(dt)
                run.step_samples.append(xb.shape[0])
            if probe:
                with tracer.span("bench.probe") if tracer else nullcontext(), run.layer_spans(ar):
                    probe_checks(run, ar, cfg, before, acts, tb, wd, pd)
            for _ in range(run.evals_due(spent)):
                run.evaluate(ar, g, test, cfg.batch_size)
        if epoch == cfg.epochs:
            run.info["test_loss"] = run.evaluate(ar, g, test, cfg.batch_size)[0]
    last = epoch_losses[cfg.epochs - 1]
    run.info.update(train_loss_last=statistics.fmean(last) if last else float("nan"),
                    max_residual=residual, epochs_run=epoch)


def probe_checks(run: Run, ar: Arelax, cfg, g, acts, tb, wd, pd) -> None:
    """Angle of a step's update against the oracle gradient at the weights
    the step started from (gated on baseline workloads with a bound) and,
    with learned psi, that each psi delta mirrors its weight delta as
    psi_update documents."""
    grads = ar.oracle.backprop(g, acts, tb)
    angle = ar.harness.angle_diagnostics(wd, {j: cfg.ar.eta_theta * grads.param[j] for j in wd})
    run.info["update_angle_deg"] = angle
    if run.w.angle_bound is not None:
        run.check(angle <= run.w.angle_bound,
                  f"update angle {angle:.3f} deg exceeds {run.w.angle_bound} deg")
    if pd is not None:
        ratio = cfg.ar.eta_psi / cfg.ar.eta_theta
        for j, dpsi in pd.items():
            want = (wd[j].T if isinstance(g.nodes[j], ar.graph.DenseNode) else wd[j]) * ratio
            run.check(np.allclose(dpsi, want, rtol=1e-12, atol=0.0),
                      f"psi delta of node {j} does not mirror its weight delta")


def gradcheck_loop(run: Run, ar: Arelax, cfg, g, test, seed: int) -> None:
    run.info["test_loss"] = run.evaluate(ar, g, test, cfg.batch_size)[0]   # _run_seed's epoch-0 row
    residuals: list[float] = []
    bare = ar.relaxation.run_relaxation

    def keep_residual(*args, **kwargs):
        s = bare(*args, **kwargs)
        residuals.append(s.last_max_dx)
        return s
    gc = cfg.gradcheck
    rows = (gc.graphs + int(gc.check_model)) * gc.batch
    spent, k = 0.0, 0
    while k < (2 if run.tracer else 1) or spent < run.seconds:   # a traced run needs a traced call
        # Disjoint graph suites per call (harness.gradcheck seeds graph i with
        # seed + i); a traced call repeats the suite of the bare call before
        # it, so the two differ only by tracing.
        traced = run.traced_next()
        suite = k // 2 if run.tracer else k
        call_cfg = ar.harness.config_from_dict({**run.w.config, "seeds": [1000 * seed + gc.graphs * suite]})
        if traced:
            ar.relaxation.run_relaxation = keep_residual
        t0 = perf_counter()
        try:
            with run.layer_spans(ar) if traced else nullcontext():
                report = ar.harness.gradcheck(call_cfg)
        finally:
            ar.relaxation.run_relaxation = bare
        dt = perf_counter() - t0
        spent += dt
        run.calibrate(dt)
        run.check(report.ok, f"gradcheck call {k}: " + "; ".join(report.lines()[-1:]))
        (run.traced_steps if traced else run.steps).append(dt)
        if not traced:
            run.step_samples.append(rows)
        for _ in range(run.evals_due(spent)):
            run.evaluate(ar, g, test, cfg.batch_size)
        k += 1
    if residuals:
        run.info["max_residual"] = max(residuals)


# --------------------------------------------------------------------------
# metrics

def timings(run: Run, setup_times: dict) -> dict[str, tuple[float, str]]:
    """End-to-end timing metrics as measured, before calibration."""
    return {
        "setup_s": (setup_times["setup_s"], "s"),
        "step_ms_p50": (1e3 * statistics.median(run.steps), "ms"),
        "samples_per_s": (sum(run.step_samples) / sum(run.steps), "1/s"),
        "eval_samples_per_s": (run.eval_samples / statistics.median(run.eval_times), "1/s"),
    }


def end_to_end(run: Run, setup_times: dict) -> dict[str, tuple[float, str]]:
    """Timings scaled to the reference machine speed (see calib.py): times
    multiplied by the calibration factor, rates divided by it."""
    f = run.cal.factor()
    out = {name: (v * f if unit in ("s", "ms") else v / f, unit)
           for name, (v, unit) in timings(run, setup_times).items()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    out["test_loss"] = (run.info["test_loss"], "1")
    return out


def report_extras(run: Run, setup_times: dict) -> dict[str, tuple[float, str]]:
    """Printed by name next to the end-to-end metrics; not in the result
    line. Timings here are as measured, not calibrated."""
    out = {f"{name}.measured": m for name, m in timings(run, setup_times).items()}
    out["calibration.ms"] = (1e3 * statistics.median(run.cal.times), "ms")
    out["calibration.factor"] = (run.cal.factor(), "1")
    out["calibration.samples"] = (len(run.cal.times), "count")
    steps = stats.summarize([1e3 * s for s in run.steps])
    out.update({f"step_ms_{k}.measured": (v, "ms") for k, v in steps.items() if k not in ("n", "p50")})
    out["step_samples"] = (steps["n"], "count")
    out["eval_samples"] = (len(run.eval_times), "count")
    out["failed_frac"] = (run.failed / run.attempted, "1")
    if run.w.gradcheck:
        out["gradcheck_s.measured"] = (statistics.median(run.steps), "s")
    else:
        out["train_samples_per_s.measured"] = (sum(run.step_samples) / sum(run.steps), "1/s")
        out["train_loss_last"] = (run.info["train_loss_last"], "1")
        out["update_angle_deg"] = (run.info.get("update_angle_deg", float("nan")), "deg")
    return out


def per_layer(run: Run, ar: Arelax, setup_times: dict) -> tuple[dict, dict]:
    """(result-line metrics, report-only metrics) from the spans."""
    spans = run.tracer.spans
    selfs = self_times(spans)
    top = roots(spans)
    step_name = "harness.gradcheck" if run.w.gradcheck else "bench.train_step"
    step_ids = [i for i, s in enumerate(spans) if s[0] == step_name and s[3] < 0]
    n_steps = len(step_ids)
    step_set = set(step_ids)
    dur: dict[str, list[float]] = {}
    in_step: dict[str, list[float]] = {}
    self_in_step: dict[str, float] = {}
    for i, (name, s, e, _) in enumerate(spans):
        dur.setdefault(name, []).append(e - s)
        if top[i] in step_set:
            in_step.setdefault(name, []).append(e - s)
            self_in_step[name] = self_in_step.get(name, 0.0) + selfs[i]

    def mean_ms(name: str, where=dur) -> float:
        return 1e3 * statistics.fmean(where[name])

    fwd = in_step["graph.forward"]
    covered = sum(spans[i][2] - spans[i][1] - selfs[i] for i in step_ids)
    step_total = sum(spans[i][2] - spans[i][1] for i in step_ids)
    bare, traced = statistics.median(run.steps), statistics.median(run.traced_steps)
    m = {
        "data.load_dataset.ms": (setup_times["data.load_dataset.ms"], "ms"),
        "models.build_model.ms": (setup_times["models.build_model.ms"], "ms"),
        "graph.forward.ms": (1e3 * sum(fwd) / n_steps, "ms"),
        "graph.forward.calls": (len(fwd) / n_steps, "count"),
        "graph.forward.us_per_call": (1e6 * statistics.fmean(fwd), "us"),
        "oracle.backprop.ms": (mean_ms("oracle.backprop"), "ms"),
        "relaxation.run_relaxation.ms": (mean_ms("relaxation.run_relaxation", in_step), "ms"),
        "relaxation.init_state.ms": (mean_ms("relaxation.init_state", in_step), "ms"),
        "relaxation.relax_step.ms": (mean_ms("relaxation.relax_step", in_step), "ms"),
        "relaxation.relax_step.calls": (len(in_step["relaxation.relax_step"]) / n_steps, "count"),
        "relaxation.max_residual": (run.info["max_residual"], "1"),
        "harness.evaluate.ms": (mean_ms("harness.evaluate"), "ms"),
        "trace.overhead_pct": (100.0 * (traced - bare) / bare, "%"),
        "trace.step_coverage_pct": (100.0 * covered / step_total, "%"),
    }
    m.update(kernels.metrics(ar))
    extra = {f"{name}.self_ms_per_step": (1e3 * v / n_steps, "ms") for name, v in sorted(self_in_step.items())}
    extra.update({f"{name}.spans": (len(v), "count") for name, v in sorted(dur.items())})
    extra["trace.traced_steps"] = (n_steps, "count")
    for name in ("relaxation.weight_update", "relaxation.psi_update", "relaxation.apply_updates"):
        if name in in_step:
            extra[f"{name}.ms"] = (mean_ms(name, in_step), "ms")
    if "oracle.finite_diff" in dur:
        extra["oracle.finite_diff.s"] = (mean_ms("oracle.finite_diff") / 1e3, "s")
    if "update_angle_deg" in run.info:
        extra["relaxation.update_angle_deg"] = (run.info["update_angle_deg"], "deg")
    return m, extra


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str):
    """One measured run: (result-line metrics, report-only metrics, Run)."""
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix="data-", dir=out_dir) as root:
        write_data(w, root, seed)
        cal = Calibration()
        setup_times, ar, cfg, train, test, g, rng = setup(w, root, tracer, cal)
    run = Run(w, seconds, tracer, cal)
    if w.gradcheck:
        gradcheck_loop(run, ar, cfg, g, test, seed)
    else:
        train_loop(run, ar, cfg, g, rng, train, test)
    if not trace:
        return end_to_end(run, setup_times), report_extras(run, setup_times), run
    metrics, extra = per_layer(run, ar, setup_times)
    run.tracer.dump(os.path.join(out_dir, f"{w.name}.spans.json"))
    return metrics, extra, run
