import numpy as np
import pytest

from xfmr import synth_dataset
from oracles import linear_probe_accuracy


def test_deterministic_per_seed():
    a = synth_dataset(11, 24, 32, 4)
    b = synth_dataset(11, 24, 32, 4)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_different_seeds_differ():
    a = synth_dataset(1, 8, 32, 4)
    b = synth_dataset(2, 8, 32, 4)
    assert (a[0] != b[0]).any()


def test_labels_balanced_within_one():
    for n in (32, 30, 17):
        _, labels = synth_dataset(0, n, 32, 4)
        counts = np.bincount(labels, minlength=4)
        assert counts.max() - counts.min() <= 1


def test_shapes_and_range():
    images, labels = synth_dataset(3, 6, 48, 6)
    assert images.shape == (6, 48, 48, 3)
    assert images.dtype == np.float32
    assert images.min() >= 0.0 and images.max() <= 1.0
    assert labels.dtype == np.int64


def test_every_class_draws_in_range():
    # 16 samples of 8 classes: each class twice, the wedges of classes 6 and 7 included
    images, labels = synth_dataset(0, 16, 32, 8)
    assert (np.bincount(labels) == 2).all()
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_class_count_bounds():
    with pytest.raises(ValueError):
        synth_dataset(0, 8, 32, 1)
    with pytest.raises(ValueError):
        synth_dataset(0, 8, 32, 99)


def test_classes_are_visually_distinct():
    # same class twice should correlate more than different classes on average
    images, labels = synth_dataset(5, 64, 32, 4)
    flat = images.reshape(64, -1)
    flat = flat - flat.mean(axis=1, keepdims=True)
    sims = (flat @ flat.T) / (np.linalg.norm(flat, axis=1, keepdims=True) + 1e-9)
    sims /= np.linalg.norm(flat, axis=1) + 1e-9
    same = sims[labels[:, None] == labels[None, :]].mean()
    diff = sims[labels[:, None] != labels[None, :]].mean()
    assert same > diff


def test_linear_probe_below_perfect_on_heldout():
    train_x, train_y = synth_dataset(0, 32, 64, 4)
    test_x, test_y = synth_dataset(123, 96, 64, 4)
    acc = linear_probe_accuracy(train_x, train_y, test_x, test_y)
    assert 0.25 <= acc < 1.0
