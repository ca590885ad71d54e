import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arelax import cli, harness, models, oracle, relaxation
from arelax.data import Dataset
from arelax.graph import build, forward
from arelax.harness import (
    CSV_HEADER,
    ExperimentConfig,
    GradcheckEntry,
    GradcheckOptions,
    GradcheckReport,
    accuracy,
    angle_diagnostics,
    config_from_dict,
    config_from_file,
    evaluate,
    final_test_accuracy,
    gradcheck,
    node_rel_errors,
    random_case,
    read_metrics,
    run_experiment,
    variant_substitutions,
    write_metrics,
)
from arelax.models import ModelSpec
from arelax.relaxation import ARConfig
from arelax.tensor import Rng

from arelax_testkit import make_mnist_dir


# one misspelt key inside each config section
SECTION_TYPOS = [
    ("model", {"name": "mlp4", "clas_count": 10}),
    ("ar", {"eta": 0.1}),
    ("gradcheck", {"graph": 3}),
]

# a missing required key, a section that is not an object, or a value of
# the wrong type for its field: each edits a valid config dict in place and
# names the section and key in its error
MALFORMED_CONFIGS = [
    pytest.param(lambda d: d.pop("model"), "missing config keys: ['model']", id="no_model"),
    pytest.param(lambda d: d.pop("dataset"), "missing config keys: ['dataset']", id="no_dataset"),
    pytest.param(lambda d: d.update(model={}), "missing model keys: ['name']", id="empty_model"),
    pytest.param(lambda d: d.update(ar=5), "ar section must be an object", id="scalar_ar"),
    pytest.param(lambda d: d.update(epochs="3"), "config key 'epochs' must be int", id="str_epochs"),
    pytest.param(lambda d: d.update(ar={"eta_x": "0.1"}), "ar key 'eta_x' must be float", id="str_eta_x"),
    pytest.param(lambda d: d.update(gradcheck={"graphs": "2"}), "gradcheck key 'graphs' must be int",
                 id="str_graphs"),
    pytest.param(lambda d: d.update(ar={"unfreeze_relax_deriv": "no"}),
                 "ar key 'unfreeze_relax_deriv' must be bool", id="str_flag"),
    pytest.param(lambda d: d.update(ar={"n_iters": 50.5}), "ar key 'n_iters' must be int", id="float_n_iters"),
    pytest.param(lambda d: d.update(batch_size=True), "config key 'batch_size' must be int", id="bool_batch_size"),
    pytest.param(lambda d: d.update(ar={"eta_theta": False}), "ar key 'eta_theta' must be float",
                 id="bool_eta_theta"),
    pytest.param(lambda d: d.update(model={"name": "mlp4", "class_count": 10.0}),
                 "model key 'class_count' must be int", id="float_class_count"),
    pytest.param(lambda d: d.update(output=None), "config key 'output' must be str", id="null_output"),
    pytest.param(lambda d: d.update(data_dir=3), "config key 'data_dir' must be str | None", id="int_data_dir"),
    pytest.param(lambda d: d.update(seeds=[0, True]), "config key 'seeds' must be list[int]", id="bool_seed"),
]


@pytest.fixture(scope="module")
def train_root(tmp_path_factory):
    """Synthetic class-prototype task sized so the training loop visibly
    learns within a dozen epochs."""
    root = str(tmp_path_factory.mktemp("train_data"))
    make_mnist_dir(root, n_train=1024, n_test=256)
    return root


def mnist_cfg(root, out, seeds=(0,), epochs=12, eta_theta=0.05, n_iters=30, **ar_kw):
    return ExperimentConfig(
        model=ModelSpec("mlp4", 10),
        dataset="mnist",
        ar=ARConfig(n_iters=n_iters, eta_theta=eta_theta, **ar_kw),
        epochs=epochs,
        seeds=list(seeds),
        output=out,
        data_dir=root,
        batch_size=64,
    )


@pytest.fixture(scope="module")
def baseline_run(train_root, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("base") / "metrics.csv")
    run_experiment(mnist_cfg(train_root, out, seeds=(0, 1)))
    rows = read_metrics(out)
    return rows, {s: final_test_accuracy(rows, s) for s in (0, 1)}


class TestMetricsFormat:
    def test_header_and_row_schema(self, baseline_run, tmp_path):
        rows, _ = baseline_run
        path = str(tmp_path / "echo.csv")
        write_metrics(path, [
            {"seed": 0, "epoch": 0, "batch": -1, "split": "test",
             "loss": 1.5, "accuracy": 0.5, "max_residual": None,
             "grad_angle": None, "psi_alignment": None},
        ])
        with open(path) as f:
            header = f.readline().strip()
        assert header == ",".join(CSV_HEADER)
        back = read_metrics(path)
        assert back[0]["loss"] == 1.5 and back[0]["grad_angle"] is None

    def test_rows_reach_disk_as_they_arrive(self, tmp_path):
        path = tmp_path / "stream.csv"

        def rows():
            yield {"seed": 0, "epoch": 0, "batch": -1, "split": "test", "loss": 1.5}
            # the first row is on disk before the second is produced
            assert path.read_text().splitlines() == [",".join(CSV_HEADER), "0,0,-1,test,1.5,,,,"]
            yield {"seed": 0, "epoch": 1, "batch": -1, "split": "train", "grad_angle": 2.0}

        write_metrics(str(path), rows())
        assert path.read_text().splitlines()[2] == "0,1,-1,train,,,,2.0,"

    def test_one_summary_row_per_seed_epoch_split(self, baseline_run):
        rows, _ = baseline_run
        seen = {}
        for r in rows:
            if r["batch"] == -1:
                key = (r["seed"], r["epoch"], r["split"])
                seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        # epoch 0 is the untrained evaluation, test split only
        assert (0, 0, "test") in seen and (1, 0, "test") in seen
        assert (0, 0, "train") not in seen

    def test_accuracy_bounds(self, baseline_run):
        rows, _ = baseline_run
        for r in rows:
            if r["accuracy"] is not None and not math.isnan(r["accuracy"]):
                assert 0.0 <= r["accuracy"] <= 1.0


class TestTraining:
    def test_baseline_learns_the_synthetic_task(self, baseline_run):
        rows, accs = baseline_run
        untrained = [r["accuracy"] for r in rows if r["epoch"] == 0 and r["seed"] == 0][0]
        assert untrained <= 0.35
        assert min(accs.values()) >= 0.55
        assert min(accs.values()) >= untrained + 0.3

    def test_evaluate_counts_a_nonfinite_batch_as_inf_loss_and_no_correct(self):
        g = build([
            {"kind": "input", "shape": (1, 2, 2)},
            {"kind": "flatten"},
            {"kind": "dense", "units": 3, "activation": "tanh", "weight": np.ones((3, 4)),
             "psi": np.ones((4, 3))},
            {"kind": "dense", "units": 2, "activation": "linear",
             "weight": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], "psi": np.ones((3, 2))},
        ])
        rng = Rng(3)
        images = rng.uniform((6, 1, 2, 2), -1.0, 1.0)
        images[2:4] = 1e308     # the second batch's pre-activation overflows
        labels = np.eye(2)[[0, 1, 0, 0, 1, 1]]
        loss, acc = evaluate(g, Dataset(images, labels), 2)
        assert loss == math.inf
        # the other two batches count as they would alone
        want = 0.0
        for k in (0, 4):
            want += accuracy(forward(g, images[k : k + 2])[g.output], labels[k : k + 2]) * 2
        assert acc == want / 6
        assert acc > 0.0

    def test_epochs_zero_evaluates_untrained_model_only(self, train_root, tmp_path):
        out = str(tmp_path / "e0.csv")
        run_experiment(mnist_cfg(train_root, out, epochs=0))
        rows = read_metrics(out)
        assert len(rows) == 1
        assert rows[0]["epoch"] == 0 and rows[0]["split"] == "test"
        assert 0.0 <= rows[0]["accuracy"] <= 0.35  # near chance at random init

    def test_learned_psi_variant_trains(self, train_root, tmp_path):
        out = str(tmp_path / "psi.csv")
        run_experiment(mnist_cfg(train_root, out, backwards_mode="learned_psi"))
        rows = read_metrics(out)
        assert final_test_accuracy(rows, 0) >= 0.4
        # alignment between psi and the transpose transport is reported
        aligns = [r["psi_alignment"] for r in rows if r["psi_alignment"] is not None]
        assert aligns and all(-1.0 <= a <= 1.0 for a in aligns)

    def test_dropped_nonlinearity_variant_trains(self, train_root, tmp_path):
        out = str(tmp_path / "drop.csv")
        run_experiment(mnist_cfg(train_root, out, nonlinearity_mode="dropped"))
        assert final_test_accuracy(read_metrics(out), 0) >= 0.4

    def test_unfrozen_weight_activity_underperforms(self, train_root, tmp_path, baseline_run):
        _, base_accs = baseline_run
        out = str(tmp_path / "und.csv")
        run_experiment(mnist_cfg(train_root, out, seeds=(0, 1), unfreeze_weight_activity=True))
        rows = read_metrics(out)
        d_mean = np.mean([final_test_accuracy(rows, s) for s in (0, 1)])
        base_mean = np.mean(list(base_accs.values()))
        assert d_mean <= base_mean - 0.1

    def test_divergent_run_is_contained_per_batch(self, train_root, tmp_path):
        out = str(tmp_path / "div.csv")
        run_experiment(mnist_cfg(train_root, out, epochs=1, eta_theta=5.0))
        rows = read_metrics(out)
        diverged = [r for r in rows if r["batch"] >= 0 and math.isnan(r["loss"])]
        assert diverged, "expected recorded diverged batches"
        assert all(math.isinf(r["max_residual"]) for r in diverged)
        # the run still completes and reports a final evaluation
        assert final_test_accuracy(rows, 0) <= 0.35

    def test_crash_keeps_rows_written_so_far(self, train_root, tmp_path, monkeypatch):
        full, crashed = tmp_path / "full.csv", tmp_path / "crashed.csv"
        cfg = replace(mnist_cfg(train_root, str(full), epochs=2), train_cap=256)
        run_experiment(cfg)
        real, calls = relaxation.weight_update, []

        def fail_in_epoch_two(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:   # 4 batches per epoch: epoch 2, batch 1
                raise RuntimeError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(relaxation, "weight_update", fail_in_epoch_two)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(replace(cfg, output=str(crashed)))
        # header, the epoch-0 test row, and the epoch-1 train and test rows
        lines = crashed.read_text().splitlines()
        assert lines == full.read_text().splitlines()[:4]
        assert [tuple(line.split(",")[1:4]) for line in lines[1:]] == [
            ("0", "-1", "test"), ("1", "-1", "train"), ("1", "-1", "test")]

    def test_unwritable_output_fails_before_training(self, train_root, tmp_path, monkeypatch):
        real, calls = relaxation.run_relaxation, []
        monkeypatch.setattr(relaxation, "run_relaxation",
                            lambda *args, **kwargs: calls.append(None) or real(*args, **kwargs))
        with pytest.raises(OSError):
            run_experiment(replace(mnist_cfg(train_root, str(tmp_path / "missing" / "m.csv"),
                                             epochs=1), train_cap=256))
        assert calls == []

    def test_grad_angle_diagnostics_logged(self, train_root, tmp_path):
        # 100 relaxation iterations: the equilibrium is close enough that
        # parameter updates align with the true descent direction
        out = str(tmp_path / "ang.csv")
        cfg = mnist_cfg(train_root, out, epochs=1, n_iters=100)
        cfg.train_cap = 256
        cfg.grad_angle_every = 2
        cfg.log_every = 2
        run_experiment(cfg)
        rows = read_metrics(out)
        angles = [r["grad_angle"] for r in rows if r["grad_angle"] is not None]
        assert angles
        assert all(0.0 <= a <= 5.0 for a in angles)

    def test_zero_eta_theta_logs_no_grad_angle(self, train_root, tmp_path):
        # every update is zero, so no batch has an angle to report
        out = str(tmp_path / "ang0.csv")
        cfg = mnist_cfg(train_root, out, epochs=1, eta_theta=0.0)
        cfg.train_cap = 256
        cfg.grad_angle_every = 1
        cfg.log_every = 1
        run_experiment(cfg)
        rows = read_metrics(out)
        logged = [r for r in rows if r["split"] == "train"]
        assert len(logged) == 256 // 64 + 1     # every batch, then the epoch row
        assert all(r["grad_angle"] is None for r in rows)

    def test_byte_identical_metrics_for_identical_config(self, train_root, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_experiment(mnist_cfg(train_root, a, epochs=1, seeds=(3,)))
        run_experiment(mnist_cfg(train_root, b, epochs=1, seeds=(3,)))
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_cnn_pipeline_on_cifar_format(self, synth_data_root, tmp_path):
        out = str(tmp_path / "cnn.csv")
        cfg = ExperimentConfig(
            model=ModelSpec("cnn", 10), dataset="cifar10",
            ar=ARConfig(n_iters=10, eta_theta=0.01),
            epochs=1, seeds=[0], output=out, data_dir=synth_data_root,
            batch_size=32, train_cap=64, test_cap=32,
        )
        run_experiment(cfg)
        rows = read_metrics(out)
        assert final_test_accuracy(rows, 0) is not None

    @pytest.mark.parametrize("ar_kw", [
        {"backwards_mode": "learned_psi", "backwards_scope": "conv"},
        {"backwards_mode": "learned_psi", "backwards_scope": "dense"},
        {"nonlinearity_mode": "dropped", "nonlinearity_scope": "conv"},
    ], ids=["psi_conv_only", "psi_dense_only", "dropped_conv_only"])
    def test_cnn_scoped_variants_run(self, synth_data_root, tmp_path, ar_kw):
        out = str(tmp_path / "cnn_variant.csv")
        cfg = ExperimentConfig(
            model=ModelSpec("cnn", 10), dataset="cifar10",
            ar=ARConfig(n_iters=10, eta_theta=0.01, **ar_kw),
            epochs=1, seeds=[0], output=out, data_dir=synth_data_root,
            batch_size=32, train_cap=64, test_cap=32,
        )
        run_experiment(cfg)
        rows = read_metrics(out)
        assert final_test_accuracy(rows, 0) is not None

    def test_class_count_mismatch_rejected(self, synth_data_root, tmp_path):
        cfg = ExperimentConfig(
            model=ModelSpec("cnn", 10), dataset="cifar100",
            ar=ARConfig(n_iters=5), epochs=1, seeds=[0],
            output=str(tmp_path / "x.csv"), data_dir=synth_data_root,
        )
        with pytest.raises(ValueError, match="classes"):
            run_experiment(cfg)

    def test_input_shape_mismatch_rejected(self, synth_data_root, tmp_path):
        cfg = ExperimentConfig(
            model=ModelSpec("mlp4", 10), dataset="cifar10",
            ar=ARConfig(n_iters=5), epochs=1, seeds=[0],
            output=str(tmp_path / "x.csv"), data_dir=synth_data_root,
        )
        with pytest.raises(ValueError, match=r"\(1, 28, 28\).*\(3, 32, 32\)"):
            run_experiment(cfg)
        assert not os.path.exists(cfg.output)


class TestDiagnostics:
    def test_accuracy_tie_breaks_to_lowest_class(self):
        out = np.zeros((2, 4))
        target = np.zeros((2, 4))
        target[0, 0] = 1.0  # argmax of all-zero output is class 0
        target[1, 2] = 1.0
        assert accuracy(out, target) == 0.5

    def test_angle_zero_for_exact_descent(self):
        # arccos near cos=1 is accurate only to ~sqrt(eps) radians
        g = {1: np.array([[2.0, -1.0]])}
        assert angle_diagnostics({1: -0.1 * g[1]}, g) == pytest.approx(0.0, abs=1e-4)

    def test_angle_180_for_ascent(self):
        g = {1: np.array([[2.0, -1.0]])}
        assert angle_diagnostics({1: 0.1 * g[1]}, g) == pytest.approx(180.0)

    def test_converged_updates_are_within_one_degree(self):
        from arelax.graph import build, forward
        from arelax.harness import random_case, random_chain_spec
        from arelax.oracle import backprop
        from arelax.relaxation import run_relaxation, weight_update
        from arelax.tensor import Rng

        for seed in (80, 81, 82):
            rng = Rng(seed)
            g = build(random_chain_spec(rng, max_depth=4, max_width=16), rng)
            x, t = random_case(g, rng, 4)
            acts = forward(g, x)
            cfg = ARConfig(n_iters=500)
            wd = weight_update(g, run_relaxation(g, acts, t, cfg), cfg)
            grads = backprop(g, acts, t)
            angle = angle_diagnostics(wd, {j: cfg.eta_theta * grads.param[j] for j in wd})
            assert angle < 1.0

    def test_zero_norm_is_an_error(self):
        with pytest.raises(ValueError, match="zero-norm"):
            angle_diagnostics({1: np.zeros((1, 2))}, {1: np.ones((1, 2))})

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(ValueError, match="different nodes"):
            angle_diagnostics({1: np.ones(2)}, {2: np.ones(2)})

    def test_final_test_accuracy_requires_rows(self):
        with pytest.raises(ValueError):
            final_test_accuracy([], seed=0)


class TestConfig:
    def test_every_shipped_config_loads(self):
        # a config edit the loader rejects fails here, not at the start of a run
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert len(paths) >= 4
        for path in paths:
            cfg = config_from_file(str(path))
            assert cfg.mode in ("train", "gradcheck"), path.name

    def test_shipped_configs_load(self):
        # every shipped config names where its metrics or report go
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            assert config_from_file(str(path)).output, path.name

    def test_dict_roundtrip(self):
        cfg = config_from_dict({
            "model": {"name": "mlp4", "class_count": 10},
            "dataset": "mnist",
            "ar": {"n_iters": 50, "backwards_mode": "learned_psi"},
            "epochs": 3,
            "seeds": [0, 1, 2],
            "output": "m.csv",
            "train_cap": 10000,
        })
        assert cfg.ar.n_iters == 50
        assert cfg.model.name == "mlp4"
        assert cfg.train_cap == 10000

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({
                "model": {"name": "mlp4"}, "dataset": "mnist", "ar": {},
                "epochs": 1, "seeds": [0], "output": "m.csv", "typo_key": 1,
            })

    @pytest.mark.parametrize("section,typo", SECTION_TYPOS)
    def test_unknown_section_keys_rejected(self, section, typo):
        d = {"model": {"name": "mlp4"}, "dataset": "mnist", "epochs": 1, "seeds": [0],
             "output": "m.csv", section: typo}
        with pytest.raises(ValueError, match=re.escape(f"unknown {section} keys: {sorted(set(typo) - {'name'})}")):
            config_from_dict(d)

    @pytest.mark.parametrize("edit,message", MALFORMED_CONFIGS)
    def test_malformed_config_rejected(self, edit, message):
        d = {"model": {"name": "mlp4"}, "dataset": "mnist", "epochs": 1, "seeds": [0],
             "output": "m.csv"}
        edit(d)
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(d)

    @pytest.mark.parametrize("key,value,read", [
        ("ar", {"eta_x": 1, "eta_psi": None}, lambda c: (c.ar.eta_x, c.ar.eta_psi) == (1, c.ar.eta_theta)),
        ("ar", {"unfreeze_weight_deriv": True}, lambda c: c.ar.unfreeze_weight_deriv is True),
        ("gradcheck", {"tolerance": 1}, lambda c: c.gradcheck.tolerance == 1),
        ("train_cap", None, lambda c: c.train_cap is None),
        ("data_dir", "/data", lambda c: c.data_dir == "/data"),
    ])
    def test_well_typed_values_accepted(self, key, value, read):
        # an int is a float, and X | None fields take None
        cfg = config_from_dict({"model": {"name": "mlp4"}, "dataset": "mnist", "epochs": 1,
                                "seeds": [0], "output": "m.csv", key: value})
        assert read(cfg)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            config_from_dict({
                "model": {"name": "mlp4"}, "dataset": "mnist", "ar": {},
                "epochs": 1, "seeds": [], "output": "m.csv",
            })

    @pytest.mark.parametrize("key,value", [
        ("batch_size", 0), ("log_every", -1), ("grad_angle_every", -1),
        ("seeds", [0, -1]), ("seeds", [0, 1.5]), ("seeds", 3),
    ])
    def test_bad_run_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            config_from_dict({
                "model": {"name": "mlp4"}, "dataset": "mnist", "ar": {},
                "epochs": 1, "seeds": [0], "output": "m.csv", key: value,
            })

    @pytest.mark.parametrize("key,value", [
        ("graphs", 0), ("batch", 0), ("iters", 0), ("tolerance", 0.0),
        ("fd_tolerance", -1e-4), ("tolerance", float("inf")), ("fd_tolerance", float("inf")),
    ])
    def test_bad_gradcheck_option_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            config_from_dict({
                "model": {"name": "mlp4"}, "dataset": "mnist", "ar": {}, "epochs": 0,
                "seeds": [0], "output": "m.csv", "mode": "gradcheck", "gradcheck": {key: value},
            })

    def test_file_loading(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "model": {"name": "cnn", "class_count": 100}, "dataset": "cifar100",
            "ar": {}, "epochs": 2, "seeds": [7], "output": "m.csv",
        }))
        cfg = config_from_file(str(p))
        assert cfg.model.class_count == 100

    def test_every_figure_grid_cell_is_a_reachable_config(self):
        # frozen-pass ablation grid: four conditions x two IDX datasets
        unfreeze_cells = [
            {"unfreeze_relax_deriv": True},
            {"unfreeze_weight_deriv": True},
            {"unfreeze_relax_deriv": True, "unfreeze_weight_deriv": True},
            {"unfreeze_weight_activity": True},
        ]
        for dataset in ("mnist", "fashion_mnist"):
            for ar in unfreeze_cells:
                cfg = config_from_dict({
                    "model": {"name": "mlp4", "class_count": 10},
                    "dataset": dataset, "ar": ar, "epochs": 1,
                    "seeds": list(range(10)), "output": "m.csv",
                })
                assert cfg.dataset == dataset
        # CNN simplification grid: two simplifications x three layer scopes
        # x two CIFAR datasets
        for dataset, classes in (("cifar10", 10), ("cifar100", 100)):
            for scope in ("conv", "dense", "all"):
                for ar in (
                    {"backwards_mode": "learned_psi", "backwards_scope": scope},
                    {"nonlinearity_mode": "dropped", "nonlinearity_scope": scope},
                ):
                    cfg = config_from_dict({
                        "model": {"name": "cnn", "class_count": classes},
                        "dataset": dataset, "ar": ar, "epochs": 1,
                        "seeds": list(range(10)), "output": "m.csv",
                    })
                    assert cfg.ar.backwards_scope in ("all", "conv", "dense")

    def test_missing_data_dir_reported(self, tmp_path, monkeypatch):
        monkeypatch.delenv("AR_DATA_DIR", raising=False)
        cfg = config_from_dict({
            "model": {"name": "mlp4"}, "dataset": "mnist", "ar": {},
            "epochs": 1, "seeds": [0], "output": str(tmp_path / "m.csv"),
        })
        with pytest.raises(Exception, match="AR_DATA_DIR"):
            run_experiment(cfg)


class TestGradcheck:
    def _cfg(self, **gc_kw):
        return ExperimentConfig(
            model=ModelSpec("mlp4", 10), dataset="mnist", ar=ARConfig(),
            epochs=1, seeds=[0], output="unused.csv", mode="gradcheck",
            gradcheck=GradcheckOptions(graphs=4, batch=2, iters=400, **gc_kw),
        )

    def test_baseline_passes(self):
        report = gradcheck(self._cfg())
        assert report.ok, "\n".join(report.lines())
        checks = {e.check for e in report.entries}
        assert checks == {"ar_vs_oracle", "oracle_vs_fd"}
        labels = [e.label for e in report.entries]
        assert "skip_dag" in labels and "mlp4_reduced" in labels

    @pytest.mark.parametrize("variant, passes", [({}, 1), ({"backwards_mode": "learned_psi"}, 2)],
                             ids=["baseline", "learned_psi"])
    def test_one_backprop_per_graph_when_nothing_is_substituted(self, monkeypatch, variant, passes):
        cfg = self._cfg()
        cfg.ar = ARConfig(**variant)
        bare, calls = oracle.backprop, []
        monkeypatch.setattr(oracle, "backprop", lambda *a, **kw: calls.append(kw) or bare(*a, **kw))
        assert gradcheck(cfg).ok
        assert len(calls) == passes * (cfg.gradcheck.graphs + 1)

    def test_reused_pass_gives_the_same_report(self, monkeypatch):
        cfg = self._cfg()
        want = gradcheck(cfg).lines()
        bare = harness._fd_entry

        def fd_entry_on_a_fresh_pass(label, g, x, target, grads, gc):
            return bare(label, g, x, target, oracle.backprop(g, forward(g, x), target), gc)
        monkeypatch.setattr(harness, "_fd_entry", fd_entry_on_a_fresh_pass)
        assert gradcheck(cfg).lines() == want

    def test_reduced_model_fd_covers_input_gradient(self, monkeypatch):
        bare = oracle.finite_diff

        def wrong_input_gradient(g, x, target):
            fd = bare(g, x, target)
            fd.node[g.input] = 2 * fd.node[g.input]
            return fd
        monkeypatch.setattr(oracle, "finite_diff", wrong_input_gradient)
        report = gradcheck(self._cfg())
        entry = next(e for e in report.entries if e.label == "mlp4_reduced" and e.check == "oracle_vs_fd")
        assert entry.node == 0 and not entry.ok

    def test_impossible_tolerance_fails(self):
        report = gradcheck(self._cfg(tolerance=1e-18, check_model=False))
        assert not report.ok

    @pytest.mark.parametrize("variant", [{"nonlinearity_mode": "dropped"},
                                         {"backwards_mode": "learned_psi"}])
    def test_reduced_model_relaxes_under_the_variant(self, variant):
        cfg = self._cfg()
        cfg.gradcheck = replace(cfg.gradcheck, graphs=3)
        cfg.ar = ARConfig(**variant)
        report = gradcheck(cfg)
        entry = next(e for e in report.entries if e.label == "mlp4_reduced" and e.check == "ar_vs_oracle")
        # the same case as gradcheck draws it, relaxed under the variant
        rng = Rng(cfg.seeds[0])
        g = build(models.reduced_spec(cfg.model), rng)
        x, target = random_case(g, rng, cfg.gradcheck.batch)
        acts = forward(g, x)
        state = relaxation.run_relaxation(g, acts, target, replace(cfg.ar, n_iters=cfg.gradcheck.iters),
                                          read=range(len(g.nodes)))
        subs = variant_substitutions(g, cfg.ar, state)
        errs = node_rel_errors(g, state, oracle.backprop(g, acts, target, **subs), cfg.gradcheck.batch)
        assert entry.error == max(errs.values()) <= 1e-12
        # the loss gradient is not where the variant settles
        plain = node_rel_errors(g, state, oracle.backprop(g, acts, target), cfg.gradcheck.batch)
        assert max(plain.values()) > 1e-2

    @pytest.mark.parametrize("variant", [{"nonlinearity_mode": "dropped"},
                                         {"unfreeze_relax_deriv": True},
                                         {"backwards_mode": "learned_psi"}])
    def test_shipped_config_passes_under_the_variant(self, variant):
        cfg = config_from_file(str(Path(__file__).resolve().parents[1] / "configs" / "gradcheck.json"))
        cfg.ar = replace(cfg.ar, **variant)
        report = gradcheck(cfg)
        assert report.ok, "\n".join(report.lines())
        assert len([e for e in report.entries if e.check == "ar_vs_oracle"]) == 21

    @pytest.mark.parametrize("variant", [{"backwards_mode": "learned_psi", "backwards_scope": "conv"},
                                         {"nonlinearity_mode": "dropped", "nonlinearity_scope": "conv"}])
    def test_variant_scoped_off_every_graph_stays_gated(self, variant):
        # every graph checked here is dense, so the variant changes no relaxation
        cfg = self._cfg()
        cfg.ar = ARConfig(**variant)
        report = gradcheck(cfg)
        assert report.ok, "\n".join(report.lines())
        cfg.gradcheck = replace(cfg.gradcheck, tolerance=1e-18)
        report = gradcheck(cfg)
        fails = [line for line in report.lines() if line.startswith("FAIL")]
        assert not report.ok and fails and all("ar_vs_oracle" in line for line in fails)

    @pytest.mark.parametrize("variant", [{"unfreeze_weight_deriv": True},
                                         {"unfreeze_weight_activity": True},
                                         {"unfreeze_weight_deriv": True, "unfreeze_weight_activity": True}])
    def test_weight_side_flags_keep_relaxation_gated(self, variant):
        # they change the update, not the relaxation, whose fixed point
        # stays the oracle gradient
        cfg = self._cfg(tolerance=1e-18, check_model=False)
        cfg.ar = ARConfig(**variant)
        report = gradcheck(cfg)
        assert report.ok is False
        fails = [line for line in report.lines() if line.startswith("FAIL")]
        assert fails and all("ar_vs_oracle" in line for line in fails)

    def test_worst_line_ranks_by_error_over_tolerance(self):
        report = GradcheckReport([
            GradcheckEntry("chain_0", "ar_vs_oracle", 2e-3, 1e-3, 1),
            GradcheckEntry("chain_0", "oracle_vs_fd", 2e-9, 1e-9, 2),
            GradcheckEntry("chain_1", "ar_vs_oracle", 1e-15, 1e-3, 1),
            GradcheckEntry("chain_1", "oracle_vs_fd", 5e-9, 1e-9, 0),
        ])
        assert [line[:4] for line in report.lines()[:-1]] == ["FAIL", "FAIL", "ok  ", "FAIL"]
        assert report.lines()[-1] == "worst: chain_1 (oracle_vs_fd, node 0) err=5.000e-09"
        assert not report.ok

    def test_variant_flags_keep_finite_differences_gated(self):
        cfg = self._cfg(fd_tolerance=1e-18, check_model=False)
        cfg.ar = ARConfig(backwards_mode="learned_psi")
        report = gradcheck(cfg)
        assert report.ok is False
        fails = [line for line in report.lines() if line.startswith("FAIL")]
        assert fails and all("oracle_vs_fd" in line for line in fails)


class TestCli:
    def _write_cfg(self, tmp_path, root, **overrides):
        cfg = {
            "model": {"name": "mlp4", "class_count": 10},
            "dataset": "mnist",
            "ar": {"n_iters": 10, "eta_theta": 0.05},
            "epochs": 1,
            "seeds": [0],
            "output": str(tmp_path / "cli_metrics.csv"),
            "data_dir": root,
            "train_cap": 128,
            "test_cap": 64,
        }
        cfg.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_run_command(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root)
        assert cli.main(["run", "--config", cfg_path]) == 0
        out = capsys.readouterr().out.splitlines()
        # the per-epoch table: a header, then the untrained test row and one
        # train and one test row for the one epoch
        header = out.index(f"{'seed':>4} {'epoch':>5} {'split':>5} {'loss':>12} {'accuracy':>8}")
        assert [line.split()[:3] for line in out[header + 1 : header + 4]] == [
            ["0", "0", "test"], ["0", "1", "train"], ["0", "1", "test"]]
        assert any("final test accuracy" in line for line in out)
        assert os.path.exists(str(tmp_path / "cli_metrics.csv"))

    def test_run_has_no_summary_option(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg_path, "--summary"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --summary" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "cli_metrics.csv"))

    def test_run_output_override(self, synth_data_root, tmp_path):
        cfg_path = self._write_cfg(tmp_path, synth_data_root)
        target = str(tmp_path / "override.csv")
        assert cli.main(["run", "--config", cfg_path, "--output", target]) == 0
        assert os.path.exists(target)

    def test_run_data_dir_override(self, synth_data_root, tmp_path, monkeypatch):
        monkeypatch.delenv("AR_DATA_DIR", raising=False)
        cfg_path = Path(self._write_cfg(tmp_path, None))
        raw = json.loads(cfg_path.read_text())
        del raw["data_dir"]
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg_path), "--data-dir", synth_data_root]) == 0
        assert read_metrics(str(tmp_path / "cli_metrics.csv"))

    def test_gradcheck_command(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root,
                                   gradcheck={"graphs": 3, "batch": 2, "iters": 400,
                                              "check_model": False})
        assert cli.main(["gradcheck", "--config", cfg_path]) == 0
        assert "gradcheck PASSED" in capsys.readouterr().out

    def test_gradcheck_failure_exit_code(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root,
                                   gradcheck={"graphs": 3, "batch": 2, "iters": 400,
                                              "check_model": False, "tolerance": 1e-18})
        assert cli.main(["gradcheck", "--config", cfg_path]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_gradcheck_variant_fd_failure_exit_code(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root,
                                   ar={"n_iters": 10, "backwards_mode": "learned_psi"},
                                   gradcheck={"graphs": 3, "batch": 2, "iters": 400,
                                              "check_model": False, "fd_tolerance": 1e-18})
        assert cli.main(["gradcheck", "--config", cfg_path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line[:4] for line in out if " ar_vs_oracle " in line] == ["ok  "] * 3
        assert [line[:4] for line in out if " oracle_vs_fd " in line] == ["FAIL"] * 3
        assert out[-1] == "gradcheck FAILED"

    def test_run_refuses_gradcheck_config(self, synth_data_root, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, synth_data_root, mode="gradcheck")
        assert cli.main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gradcheck command" in err
        assert not os.path.exists(str(tmp_path / "cli_metrics.csv"))

    @pytest.mark.parametrize("section,typo", SECTION_TYPOS)
    def test_config_typo_exit_code(self, synth_data_root, tmp_path, capsys, section, typo):
        cfg_path = self._write_cfg(tmp_path, synth_data_root, **{section: typo})
        assert cli.main(["gradcheck", "--config", cfg_path]) == 2
        assert f"error: unknown {section} keys" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", MALFORMED_CONFIGS)
    def test_malformed_config_exit_code(self, tmp_path, capsys, edit, message):
        cfg_path = Path(self._write_cfg(tmp_path, None))
        raw = json.loads(cfg_path.read_text())
        edit(raw)
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["gradcheck", "--config", str(cfg_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("top", [[], "x"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, top):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(top))
        assert cli.main(["gradcheck", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: config section must be an object, got {top!r}\n"

    def test_bad_data_dir_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AR_DATA_DIR", raising=False)
        cfg_path = self._write_cfg(tmp_path, None)
        # strip the data_dir key entirely
        raw = json.loads(Path(cfg_path).read_text())
        raw["data_dir"] = None
        Path(cfg_path).write_text(json.dumps(raw))
        assert cli.main(["run", "--config", cfg_path]) == 2
        assert "error:" in capsys.readouterr().err
