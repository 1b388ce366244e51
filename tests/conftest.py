import json

import numpy as np
import pytest

from evifuse.dataset import MultiViewDataset, generate_missing_mask


def make_blobs_dataset(n=120, class_count=3, view_dims=(3, 2), noise=0.7,
                       eta=0.0, seed=0, mask_seed=None):
    """Small multi-view Gaussian-blob classification problem.

    The class centers are drawn first, so they depend on ``seed`` alone:
    calls with the same seed and different ``n`` sample one distribution.
    """
    rng = np.random.default_rng(seed)
    centers = [rng.normal(0.0, 3.0, (class_count, d)) for d in view_dims]
    labels = rng.integers(0, class_count, n)
    views = [c[labels] + rng.normal(0.0, noise, (n, c.shape[1])) for c in centers]
    if eta > 0:
        mask = generate_missing_mask(n, len(view_dims), eta,
                                     seed=seed if mask_seed is None else mask_seed)
    else:
        mask = np.ones((n, len(view_dims)), dtype=bool)
    return MultiViewDataset(views, labels, mask, class_count)


def write_dataset_dir(path, data: MultiViewDataset, include_mask=True):
    path.mkdir(parents=True, exist_ok=True)
    for v, mat in enumerate(data.views):
        np.savetxt(path / f"view_{v}.csv", mat, fmt="%.10g", delimiter=",")
    np.savetxt(path / "labels.csv", data.labels[:, None], fmt="%d", delimiter=",")
    if include_mask:
        np.savetxt(path / "mask.csv", data.mask.astype(int), fmt="%d", delimiter=",")
    return path


def write_checkpoint_version(path, version):
    """Rewrite a checkpoint so its meta names another format version."""
    rewrite_checkpoint_meta(path, lambda meta: meta.update(ckpt_version=version))


def rewrite_checkpoint_meta(path, edit):
    """Rewrite a checkpoint after ``edit`` has changed its meta dict in place."""
    with np.load(path) as payload:
        arrays = {key: payload[key] for key in payload.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    edit(meta)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.fixture
def blobs():
    return make_blobs_dataset()


@pytest.fixture
def blobs_incomplete():
    return make_blobs_dataset(eta=0.3, mask_seed=7)
