"""Experiment runner and diagnostics.

run_experiment() drives seeded training loops (forward sweep, relaxation,
equilibrium weight update) and writes one metrics CSV with the fixed header

    seed,epoch,batch,split,loss,accuracy,max_residual,grad_angle,psi_alignment

Row conventions: batch = -1 marks a per-epoch summary; each epoch emits one
train summary and one test summary, plus an untrained test row at epoch 0.
Optional per-batch rows appear when log_every > 0, and always for batches
that diverged (loss/accuracy nan, max_residual inf). Identical configs
produce byte-identical CSVs. The file is opened before the first batch and
each row is written as soon as it is produced, so a run that stops early
keeps every row written so far.

gradcheck() verifies the gradient chain on random small graphs and a
reduced-width build of the configured model: relaxation equilibria against
the reverse-mode pass each settles to, and reverse-mode gradients against
central finite differences.
"""

from __future__ import annotations

import csv
import json
import os
import types
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import data as data_mod
from . import models, oracle, relaxation
from .graph import ConvNode, Graph, build, forward
from .relaxation import ARConfig, DivergenceError, RelaxState
from .tensor import NonFiniteError, Rng, Tensor

# seed, epoch, batch: int; split: str; the rest: float, written empty for None
CSV_HEADER = [
    "seed", "epoch", "batch", "split", "loss", "accuracy",
    "max_residual", "grad_angle", "psi_alignment",
]


@dataclass
class GradcheckOptions:
    graphs: int = 20          # random small graphs in the suite
    batch: int = 4
    iters: int = 500          # relaxation iterations for the equilibrium check
    tolerance: float = 1e-12  # AR equilibrium vs reverse-mode gradients
    fd_tolerance: float = 1e-7
    check_model: bool = True  # also check the configured model at reduced width

    def __post_init__(self):
        for name in ("graphs", "batch", "iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"gradcheck {name} must be >= 1, got {getattr(self, name)}")
        for name in ("tolerance", "fd_tolerance"):
            # an infinite tolerance would turn its check off
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"gradcheck {name} must be positive and finite, got {getattr(self, name)}")


@dataclass
class ExperimentConfig:
    model: models.ModelSpec
    dataset: str
    epochs: int
    seeds: list[int]
    output: str
    ar: ARConfig = field(default_factory=ARConfig)
    mode: str = "train"
    batch_size: int = 64
    data_dir: str | None = None
    train_cap: int | None = None
    test_cap: int | None = None
    log_every: int = 0
    grad_angle_every: int = 0
    gradcheck: GradcheckOptions = field(default_factory=GradcheckOptions)

    def __post_init__(self):
        if (not isinstance(self.seeds, list) or not self.seeds
                or any(not isinstance(s, int) or s < 0 for s in self.seeds)):
            raise ValueError(f"seeds must be a non-empty list of non-negative ints, got {self.seeds!r}")
        if self.mode not in ("train", "gradcheck"):
            raise ValueError(f"mode must be 'train' or 'gradcheck', got {self.mode!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("log_every", "grad_angle_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def resolve_data_dir(self) -> str:
        d = self.data_dir or os.environ.get("AR_DATA_DIR")
        if not d:
            raise data_mod.DataError(
                "no dataset root: pass data_dir / --data-dir or set AR_DATA_DIR"
            )
        return d


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a config field's annotation: an int is a
    float but a bool is neither, X | None also takes None, and a list
    checks each item. A section's dataclass is checked as an object."""
    if get_origin(hint) in (Union, types.UnionType):
        return any(_has_type(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if is_dataclass(hint):
        return True
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from its JSON form; a missing or unknown key, a value
    of the wrong type for its field, or a section that is not an object
    raises ValueError naming the section (and the key)."""
    sections = {"model": models.ModelSpec, "ar": ARConfig, "gradcheck": GradcheckOptions}
    for name, cls in [("config", ExperimentConfig), *sections.items()]:
        keys = d.get(name, {}) if name in sections else d
        if not isinstance(keys, dict):
            raise ValueError(f"{name} section must be an object, got {keys!r}")
        unknown = set(keys) - {f.name for f in fields(cls)}
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING} - set(keys)
        for what, bad in (("unknown", unknown), ("missing", missing)):
            if bad:
                raise ValueError(f"{what} {name} keys: {sorted(bad)}")
        for key, hint in get_type_hints(cls).items():
            if key in keys and not _has_type(keys[key], hint):
                kind = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ValueError(f"{name} key {key!r} must be {kind}, got {keys[key]!r}")
    return ExperimentConfig(**{**d, **{sec: cls(**d[sec]) for sec, cls in sections.items() if sec in d}})


def config_from_file(path: str) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


# --------------------------------------------------------------------------
# metrics

def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def write_metrics(path: str, rows: Iterable[dict]) -> None:
    """Write the header, then each row as it arrives (line-buffered); a
    field the row does not set is left empty."""
    with open(path, "w", newline="", buffering=1) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([*(r[k] for k in CSV_HEADER[:4]), *(_fmt(r.get(k)) for k in CSV_HEADER[4:])])


def read_metrics(path: str) -> list[dict]:
    out = []
    with open(path, newline="") as f:
        for r in csv.DictReader(f):
            row = dict(r)
            for k in CSV_HEADER[:3]:
                row[k] = int(row[k])
            for k in CSV_HEADER[4:]:
                row[k] = float(row[k]) if row[k] else None
            out.append(row)
    return out


def final_test_accuracy(rows: list[dict], seed: int) -> float:
    acc = [r["accuracy"] for r in rows
           if r["seed"] == seed and r["split"] == "test" and r["batch"] == -1]
    if not acc:
        raise ValueError(f"no test rows for seed {seed}")
    return acc[-1]


# --------------------------------------------------------------------------
# diagnostics

def accuracy(output: Tensor, target: Tensor) -> float:
    """Fraction of rows whose output argmax matches the label argmax;
    argmax breaks ties toward the lowest class index."""
    return float(np.mean(np.argmax(output, axis=1) == np.argmax(target, axis=1)))


def angle_diagnostics(ar_deltas: dict[int, Tensor], oracle_grads: dict[int, Tensor]) -> float:
    """Angle in degrees between the concatenated parameter deltas and the
    negative oracle gradient; 0 means an exact descent direction."""
    keys = sorted(ar_deltas)
    if keys != sorted(oracle_grads):
        raise ValueError("ar_deltas and oracle_grads cover different nodes")
    a = np.concatenate([ar_deltas[k].ravel() for k in keys])
    b = np.concatenate([-oracle_grads[k].ravel() for k in keys])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("undefined angle: zero-norm vector")
    cos = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
    return float(np.degrees(np.arccos(cos)))


def psi_alignment(g: Graph, cfg: ARConfig) -> float | None:
    """Cosine between the learned backwards parameters and the transport
    position the forward weights would occupy (W^T for dense, the kernel
    itself for conv); None when no node is in the learned-psi scope."""
    pairs = []
    for j in g.parametric_ids():
        node = g.nodes[j]
        if relaxation._uses_psi(node, cfg):
            pairs.append((node.psi.ravel(), node.mirror(node.weight).ravel()))
    if not pairs:
        return None
    a = np.concatenate([p for p, _ in pairs])
    b = np.concatenate([m for _, m in pairs])
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(np.dot(a, b) / denom) if denom else None


def rel_error(got: Tensor, want: Tensor) -> float:
    """Infinity-norm relative error of got against the reference want."""
    return float(np.max(np.abs(got - want)) / (np.max(np.abs(want)) + 1e-300))


def node_rel_errors(g: Graph, state: RelaxState, grads: oracle.GradientSet, batch: int) -> dict[int, float]:
    """Per-node relative error of the relaxed activities against the
    batch-scaled oracle gradients (the relaxation equilibrium target)."""
    return {
        i: rel_error(state.x[i], grads.node[i] * batch)
        for i in g.topo_order
        if i != g.input
    }


# --------------------------------------------------------------------------
# evaluation and training

def evaluate(g: Graph, d: data_mod.Dataset, batch_size: int) -> tuple[float, float]:
    """Mean loss and accuracy over the dataset in storage order. Batches
    that fail numerically contribute infinite loss and zero accuracy."""
    total_loss, correct, n = 0.0, 0.0, len(d)
    for start in range(0, n, batch_size):
        xb = d.images[start : start + batch_size]
        tb = d.labels[start : start + batch_size]
        try:
            out = forward(g, xb)[g.output]
            total_loss += oracle.loss_mse(out, tb) * xb.shape[0]
            correct += accuracy(out, tb) * xb.shape[0]
        except NonFiniteError:
            total_loss += float("inf")
    return total_loss / n, correct / n


def _run_seed(cfg: ExperimentConfig, seed: int,
              train: data_mod.Dataset, test: data_mod.Dataset) -> Iterator[dict]:
    """Train one seed, yielding each metrics row as soon as it is known."""
    rng = Rng(seed)
    g = models.build_model(cfg.model, rng)
    learned = cfg.ar.backwards_mode == "learned_psi"

    def summary(epoch: int, split: str, loss: float, acc: float, **extra) -> dict:
        return {"seed": seed, "epoch": epoch, "batch": -1, "split": split,
                "loss": loss, "accuracy": acc, "psi_alignment": psi_alignment(g, cfg.ar), **extra}

    yield summary(0, "test", *evaluate(g, test, cfg.batch_size))
    for epoch in range(1, cfg.epochs + 1):
        losses, accs, angles = [], [], []
        max_residual = 0.0
        for bi, (xb, tb) in enumerate(data_mod.batches(train, cfg.batch_size, rng)):
            try:
                acts = forward(g, xb)
                batch_loss = oracle.loss_mse(acts[g.output], tb)
                batch_acc = accuracy(acts[g.output], tb)
                state = relaxation.run_relaxation(g, acts, tb, cfg.ar)
                wd = relaxation.weight_update(g, state, cfg.ar)
                pd = relaxation.psi_update(g, state, cfg.ar) if learned else None
                angle = None
                if cfg.grad_angle_every and bi % cfg.grad_angle_every == 0:
                    grads = oracle.backprop(g, acts, tb, read=g.parametric_ids())
                    scaled = {j: cfg.ar.eta_theta * grads.param[j] for j in wd}
                    # an all-zero side (eta_theta = 0) has no angle to log
                    if any(d.any() for d in wd.values()) and any(d.any() for d in scaled.values()):
                        angle = angle_diagnostics(wd, scaled)
                        angles.append(angle)
                relaxation.apply_updates(g, wd, pd)
            except (DivergenceError, NonFiniteError):
                yield {"seed": seed, "epoch": epoch, "batch": bi, "split": "train",
                       "loss": float("nan"), "accuracy": float("nan"), "max_residual": float("inf")}
                max_residual = float("inf")
                continue
            losses.append(batch_loss)
            accs.append(batch_acc)
            max_residual = max(max_residual, state.last_max_dx)
            if cfg.log_every and bi % cfg.log_every == 0:
                yield {"seed": seed, "epoch": epoch, "batch": bi, "split": "train",
                       "loss": batch_loss, "accuracy": batch_acc,
                       "max_residual": state.last_max_dx, "grad_angle": angle}
        yield summary(epoch, "train",
                      float(np.mean(losses)) if losses else float("nan"),
                      float(np.mean(accs)) if accs else float("nan"),
                      max_residual=max_residual,
                      grad_angle=float(np.mean(angles)) if angles else None)
        yield summary(epoch, "test", *evaluate(g, test, cfg.batch_size))


def run_experiment(cfg: ExperimentConfig) -> str:
    """Train per seed and write the metrics CSV; returns the output path."""
    root = cfg.resolve_data_dir()
    train = data_mod.load_dataset(cfg.dataset, root, "train").subset(cfg.train_cap)
    test = data_mod.load_dataset(cfg.dataset, root, "test").subset(cfg.test_cap)
    if train.class_count != cfg.model.class_count:
        raise ValueError(
            f"model has {cfg.model.class_count} classes but {cfg.dataset} has {train.class_count}"
        )
    if train.images.shape[1:] != models.input_shape(cfg.model):
        raise ValueError(
            f"model {cfg.model.name} takes inputs of shape {models.input_shape(cfg.model)} "
            f"but {cfg.dataset} images have shape {train.images.shape[1:]}"
        )
    write_metrics(cfg.output, (r for seed in cfg.seeds for r in _run_seed(cfg, seed, train, test)))
    return cfg.output


# --------------------------------------------------------------------------
# random graph suites and gradient checking

def random_chain_spec(rng: Rng, max_depth: int = 5, max_width: int = 32) -> list[dict]:
    """A random dense chain: tanh hidden layers plus a linear head."""
    depth = rng.integers(2, max_depth + 1)
    widths = [rng.integers(2, max_width + 1) for _ in range(depth + 1)]
    spec: list[dict] = [{"kind": "input", "shape": (widths[0],)}]
    for k in range(1, depth + 1):
        spec.append({
            "kind": "dense", "units": widths[k],
            "activation": "linear" if k == depth else "tanh",
        })
    return spec


def skip_dag_spec(width: int = 8, class_count: int = 4) -> list[dict]:
    """Branch node feeding both a dense path and an identity path into an
    add node, then a linear head; exercises multi-child gradient summation."""
    return [
        {"kind": "input", "shape": (width,)},
        {"kind": "dense", "units": width, "activation": "tanh"},
        {"kind": "dense", "units": width, "activation": "tanh", "parents": [1]},
        {"kind": "add", "parents": [1, 2]},
        {"kind": "dense", "units": class_count, "activation": "linear", "parents": [3]},
    ]


def random_case(g: Graph, rng: Rng, batch: int) -> tuple[Tensor, Tensor]:
    """Random input batch and random one-hot targets for a graph."""
    x = rng.normal((batch,) + g.shapes[g.input])
    k = g.shapes[g.output][0]
    labels = np.array([rng.integers(0, k) for _ in range(batch)])
    return x, data_mod.one_hot(labels, k)


@dataclass
class GradcheckEntry:
    label: str
    check: str          # "ar_vs_oracle" | "oracle_vs_fd"
    error: float
    tolerance: float
    node: int           # graph node with the worst error

    @property
    def ok(self) -> bool:
        return self.error <= self.tolerance


@dataclass
class GradcheckReport:
    """Any entry over its tolerance fails the report. The worst line, which
    comes last, names the entry with the largest error over tolerance."""
    entries: list[GradcheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        out = [f"{'ok  ' if e.ok else 'FAIL'} {e.check:<14} {e.label:<28} err={e.error:.3e} "
               f"tol={e.tolerance:.1e} node {e.node}" for e in self.entries]
        worst = max(self.entries, key=lambda e: e.error / e.tolerance, default=None)
        if worst is not None:
            out.append(f"worst: {worst.label} ({worst.check}, node {worst.node}) err={worst.error:.3e}")
        return out


def _check_graph(label: str, g: Graph, rng: Rng, cfg: ExperimentConfig,
                 entries: list[GradcheckEntry]) -> None:
    gc = cfg.gradcheck
    x, target = random_case(g, rng, gc.batch)
    acts = forward(g, x)
    # node_rel_errors reads every node
    state = relaxation.run_relaxation(g, acts, target, replace(cfg.ar, n_iters=gc.iters),
                                      read=range(len(g.nodes)))
    subs = variant_substitutions(g, cfg.ar, state)
    grads = oracle.backprop(g, acts, target, **subs)
    errs = node_rel_errors(g, state, grads, gc.batch)
    worst_node = max(errs, key=errs.get)
    entries.append(GradcheckEntry(label, "ar_vs_oracle", errs[worst_node], gc.tolerance, worst_node))
    # with nothing substituted the variant pass is the plain one
    plain = oracle.backprop(g, acts, target) if any(subs.values()) else grads
    entries.append(_fd_entry(label, g, x, target, plain, gc))


def variant_substitutions(g: Graph, cfg: ARConfig, state: RelaxState) -> dict[str, dict]:
    """backprop's substitutions for the pass that cfg's relaxation settles
    to at state. The scope rule is stated again from the node kind, not taken
    from relaxation, so that a defect in the engine's rule shows."""
    back, fprime = {}, {}
    for j in g.parametric_ids():
        node = g.nodes[j]
        kind = "conv" if isinstance(node, ConvNode) else "dense"
        if cfg.backwards_mode == "learned_psi" and cfg.backwards_scope in ("all", kind):
            back[j] = node.mirror(node.psi)
        if cfg.nonlinearity_mode == "dropped" and cfg.nonlinearity_scope in ("all", kind):
            fprime[j] = None
        elif cfg.unfreeze_relax_deriv:
            fprime[j] = node.fprime(node.forward(state.x, g.parent_ids[j])[0])
    return {"back": back, "fprime": fprime}


def _fd_entry(label: str, g: Graph, x: Tensor, target: Tensor,
              grads: oracle.GradientSet, gc: GradcheckOptions) -> GradcheckEntry:
    """Worst relative error of the oracle's parameter and input gradients
    against central finite differences."""
    fd = oracle.finite_diff(g, x, target)
    perrs = {j: rel_error(grads.param[j], fd.param[j]) for j in fd.param}
    perrs[g.input] = rel_error(grads.node[g.input], fd.node[g.input])
    worst_node = max(perrs, key=perrs.get)
    return GradcheckEntry(label, "oracle_vs_fd", perrs[worst_node], gc.fd_tolerance, worst_node)


def gradcheck(cfg: ExperimentConfig) -> GradcheckReport:
    """Check AR equilibria against the reverse-mode pass they settle to
    (variant_substitutions), and the plain reverse-mode gradients against
    finite differences."""
    gc = cfg.gradcheck
    entries: list[GradcheckEntry] = []
    seed = cfg.seeds[0]
    for i in range(gc.graphs):
        rng = Rng(seed + i)
        spec = skip_dag_spec() if i == gc.graphs - 1 else random_chain_spec(rng, max_width=16)
        g = build(spec, rng)
        label = "skip_dag" if i == gc.graphs - 1 else f"chain_{i}"
        _check_graph(label, g, rng, cfg, entries)
    if gc.check_model:
        rng = Rng(seed)
        g = build(models.reduced_spec(cfg.model), rng)
        _check_graph(f"{cfg.model.name}_reduced", g, rng, cfg, entries)
    return GradcheckReport(entries)
