import gzip
import os
import struct
import tracemalloc

import numpy as np
import pytest

from arelax import data
from arelax.data import (
    DataError,
    Dataset,
    batches,
    load_cifar,
    load_dataset,
    load_idx,
    one_hot,
)
from arelax.tensor import Rng

from arelax_testkit import (
    make_cifar10_dir,
    synth_class_images,
    write_idx_images,
    write_idx_labels,
)


@pytest.fixture
def idx_pair(tmp_path):
    imgs, labels = synth_class_images(40, 10, (28, 28), seed=3)
    ip = str(tmp_path / "train-images-idx3-ubyte")
    lp = str(tmp_path / "train-labels-idx1-ubyte")
    write_idx_images(ip, imgs)
    write_idx_labels(lp, labels)
    return ip, lp, imgs, labels


class TestLoadIdx:
    def test_shapes_and_counts(self, idx_pair):
        ip, lp, imgs, labels = idx_pair
        d = load_idx(ip, lp)
        assert d.images.shape == (40, 1, 28, 28)
        assert d.labels.shape == (40, 10)

    def test_normalization_endpoints(self, tmp_path):
        imgs = np.zeros((2, 4, 4), dtype=np.uint8)
        imgs[0] = 255
        ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx_images(ip, imgs)
        write_idx_labels(lp, np.array([1, 2], dtype=np.uint8))
        d = load_idx(ip, lp)
        assert d.images.max() == 1.0 and d.images[0].min() == 1.0
        assert d.images[1].max() == 0.0

    def test_pixel_roundtrip_checksum(self, idx_pair):
        # parsing then rescaling recovers the payload byte sum exactly
        ip, lp, imgs, _ = idx_pair
        d = load_idx(ip, lp)
        assert int(np.round(d.images * 255).sum()) == int(imgs.astype(np.int64).sum())

    def test_one_hot_validity(self, idx_pair):
        ip, lp, _, labels = idx_pair
        d = load_idx(ip, lp)
        np.testing.assert_array_equal(d.labels.sum(axis=1), np.ones(len(d)))
        assert set(np.unique(d.labels)) <= {0.0, 1.0}
        np.testing.assert_array_equal(np.argmax(d.labels, axis=1), labels)

    def test_gzip_transparent(self, tmp_path):
        imgs, labels = synth_class_images(8, 10, (28, 28), seed=4)
        ip = str(tmp_path / "train-images-idx3-ubyte.gz")
        lp = str(tmp_path / "train-labels-idx1-ubyte.gz")
        write_idx_images(ip, imgs, compress=True)
        write_idx_labels(lp, labels, compress=True)
        d = load_idx(ip, lp)
        assert len(d) == 8

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        lp = tmp_path / "lab"
        write_idx_labels(str(lp), np.array([0], dtype=np.uint8))
        with pytest.raises(DataError, match="bad magic"):
            load_idx(str(p), str(lp))

    def test_truncated_payload_names_lengths(self, tmp_path):
        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        lp = tmp_path / "lab"
        write_idx_labels(str(lp), np.array([0, 1], dtype=np.uint8))
        with pytest.raises(DataError, match="expected 24 bytes, got 21"):
            load_idx(str(p), str(lp))

    def test_count_mismatch(self, tmp_path):
        imgs, labels = synth_class_images(4, 10, (4, 4), seed=5)
        ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx_images(ip, imgs)
        write_idx_labels(lp, labels[:3])
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(ip, lp)


class TestLoadCifar:
    def test_cifar10_layout(self, tmp_path):
        root = make_cifar10_dir(str(tmp_path), n_train=50, n_test=20, seed=6)
        d = load_cifar(os.path.join(root, "cifar-10-batches-bin"), "cifar10", "train")
        assert d.images.shape == (50, 3, 32, 32)
        assert d.labels.shape == (50, 10)
        assert d.images.min() >= 0.0 and d.images.max() <= 1.0
        t = load_cifar(os.path.join(root, "cifar-10-batches-bin"), "cifar10", "test")
        assert len(t) == 20

    def test_cifar10_channel_planar_order(self, tmp_path):
        d = tmp_path / "c10"
        d.mkdir()
        img = np.zeros((3, 32, 32), dtype=np.uint8)
        img[0] = 255  # red plane saturated
        for b in range(1, 6):
            (d / f"data_batch_{b}.bin").write_bytes(bytes([3]) + img.tobytes())
        (d / "test_batch.bin").write_bytes(bytes([3]) + img.tobytes())
        loaded = load_cifar(str(d), "cifar10", "train")
        np.testing.assert_array_equal(loaded.images[0, 0], np.ones((32, 32)))
        np.testing.assert_array_equal(loaded.images[0, 1], np.zeros((32, 32)))
        assert np.argmax(loaded.labels[0]) == 3

    def test_cifar100_uses_fine_label(self, tmp_path):
        d = tmp_path / "c100"
        d.mkdir()
        img = np.zeros((3, 32, 32), dtype=np.uint8)
        record = bytes([7, 42]) + img.tobytes()  # coarse 7, fine 42
        (d / "train.bin").write_bytes(record)
        (d / "test.bin").write_bytes(record)
        loaded = load_cifar(str(d), "cifar100", "train")
        assert loaded.labels.shape == (1, 100)
        assert np.argmax(loaded.labels[0]) == 42

    def test_wrong_record_size(self, tmp_path):
        d = tmp_path / "c10"
        d.mkdir()
        for b in range(1, 6):
            (d / f"data_batch_{b}.bin").write_bytes(b"\x00" * 3072)  # one byte short
        with pytest.raises(DataError, match="3073-byte record"):
            load_cifar(str(d), "cifar10", "train")

    def test_label_out_of_range(self, tmp_path):
        d = tmp_path / "c10"
        d.mkdir()
        img = np.zeros((3, 32, 32), dtype=np.uint8)
        for b in range(1, 6):
            (d / f"data_batch_{b}.bin").write_bytes(bytes([10]) + img.tobytes())
        with pytest.raises(DataError, match="out of range"):
            load_cifar(str(d), "cifar10", "train")

    def test_unknown_split(self, tmp_path):
        root = make_cifar10_dir(str(tmp_path))
        with pytest.raises(DataError, match="unknown split 'val'"):
            load_cifar(os.path.join(root, "cifar-10-batches-bin"), "cifar10", "val")

    def test_missing_batch_file(self, tmp_path):
        d = tmp_path / "c10"
        d.mkdir()
        with pytest.raises(DataError, match="missing"):
            load_cifar(str(d), "cifar10", "train")


class TestBatches:
    def _dataset(self, n):
        imgs = np.zeros((n, 1, 2, 2))
        imgs[:, 0, 0, 0] = np.arange(n)
        return Dataset(imgs, one_hot(np.arange(n) % 4, 4))

    def test_sizes_with_short_final_batch(self):
        got = batches(self._dataset(100), 64, Rng(0))
        assert [b[0].shape[0] for b in got] == [64, 36]

    def test_same_seed_same_order(self):
        a = batches(self._dataset(50), 16, Rng(9))
        b = batches(self._dataset(50), 16, Rng(9))
        for (xa, _), (xb, _) in zip(a, b):
            assert xa.tobytes() == xb.tobytes()

    def test_union_is_a_permutation(self):
        got = batches(self._dataset(37), 8, Rng(1))
        ids = np.concatenate([b[0][:, 0, 0, 0] for b in got])
        assert sorted(ids.tolist()) == list(range(37))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            batches(self._dataset(10), 0, Rng(0))

    def test_batches_are_copied_only_when_read(self):
        d = Dataset(np.zeros((2000, 1, 16, 16)), one_hot(np.arange(2000) % 4, 4))
        batch_bytes = 100 * (d.images[0].nbytes + d.labels[0].nbytes)
        tracemalloc.start()
        try:
            got = batches(d, 100, Rng(2))
            assert len(got) == 20 and got[-1][0].shape[0] == 100
            for xb, tb in got:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the batch in hand and the next one, not the epoch's 20
        assert peak < 3 * batch_bytes


class TestLoadDataset:
    def test_by_name(self, synth_data_root):
        # the name picks the directory and the split its file pair:
        # fashion_mnist's test arrays are those under fashion_mnist/, not mnist's
        def files(sub, stem):
            return load_idx(*(os.path.join(synth_data_root, sub, f"{stem}-{kind}")
                              for kind in ("images-idx3-ubyte", "labels-idx1-ubyte")))
        for name, split, stem in [("mnist", "train", "train"), ("fashion_mnist", "test", "t10k")]:
            d, want = load_dataset(name, synth_data_root, split), files(name, stem)
            np.testing.assert_array_equal(d.images, want.images)
            np.testing.assert_array_equal(d.labels, want.labels)
        assert len(files("mnist", "train")) == 512
        assert not np.array_equal(files("mnist", "t10k").images, files("fashion_mnist", "t10k").images)
        c = load_dataset("cifar10", synth_data_root, "test")
        assert c.images.shape[1:] == (3, 32, 32)
        c100 = load_dataset("cifar100", synth_data_root, "train")
        assert c100.class_count == 100

    def test_unknown_name(self, synth_data_root):
        with pytest.raises(DataError, match="unknown dataset"):
            load_dataset("imagenet", synth_data_root, "train")

    @pytest.mark.parametrize("name", ["mnist", "fashion_mnist", "cifar10", "cifar100"])
    def test_unknown_split(self, synth_data_root, name):
        with pytest.raises(DataError, match=r"^unknown split 'val'; expected one of \('train', 'test'\)$"):
            load_dataset(name, synth_data_root, "val")

    @pytest.mark.parametrize("name", ["mnist", "fashion_mnist", "cifar10", "cifar100"])
    def test_checks_the_split_once(self, synth_data_root, name, monkeypatch):
        calls = []
        check = data._check_split
        monkeypatch.setattr(data, "_check_split", lambda split: calls.append(split) or check(split))
        load_dataset(name, synth_data_root, "test")
        assert calls == ["test"]

    def test_every_dataset_has_the_same_splits(self):
        assert data.SPLITS == ("train", "test")
        for v in data._CIFAR.values():
            assert tuple(v.files) == data.SPLITS

    def test_missing_root(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset("mnist", str(tmp_path / "nowhere"), "train")

    def test_subset_cap(self, synth_data_root):
        d = load_dataset("mnist", synth_data_root, "train").subset(100)
        assert len(d) == 100
        assert len(d.subset(None)) == 100
        with pytest.raises(DataError):
            d.subset(0)

    def test_subset_cap_cannot_exceed_dataset_size(self, synth_data_root):
        d = load_dataset("mnist", synth_data_root, "train")
        with pytest.raises(DataError, match="subset cap"):
            d.subset(len(d) + 1)
