"""Hostile XBNF and XBNC files: every mutation of a small valid file either
loads or fails with one of the program's own errors, and the load's peak
traced allocation stays within 4 × the file's size + 64 KiB.

Mutations are truncations, bit flips, u32 header fields set to 0, 1, 2**31 or
2**32 - 1, and appended bytes, one to three per file.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    FeatureDataset,
    FormatError,
    InvalidConfig,
    MLPEmbedder,
    NonFiniteInput,
    SyntheticConfig,
    generate_synthetic,
    load_checkpoint,
    load_features,
    save_checkpoint,
    save_features,
)

U32_VALUES = (0, 1, 2**31, 2**32 - 1)
SLACK = 64 * 1024
NET_DIMS = (3, 4, 2)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid XBNF files (f8 and f4 payloads) and one valid XBNC file, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = generate_synthetic(SyntheticConfig(
        train_classes=2, val_classes=2, samples_per_class=2, input_dim=3, seed=1,
        protocol="query-gallery",
    ))
    f4 = FeatureDataset(ds.features.astype(np.float32), ds.labels, ds.splits)
    blobs = {}
    for name, dataset in (("f8", ds), ("f4", f4)):
        save_features(dataset, root / name)
        blobs[name] = (root / name).read_bytes()
    save_checkpoint(MLPEmbedder(NET_DIMS, seed=2), root / "net")
    blobs["net"] = (root / "net").read_bytes()
    return root, blobs


def mutations(u32_offsets):
    one = st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 400)),
        st.tuples(st.just("flip"), st.integers(0, 8 * 400)),
        st.tuples(st.just("u32"), st.sampled_from(u32_offsets), st.sampled_from(U32_VALUES)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    )
    return st.lists(one, min_size=1, max_size=3)


def mutate(blob: bytes, ops) -> bytes:
    """Apply ops in order; an op that falls past the current end is skipped."""
    out = bytearray(blob)
    for kind, *args in ops:
        if kind == "truncate" and args[0] < len(out):
            del out[args[0]:]
        elif kind == "flip" and args[0] // 8 < len(out):
            out[args[0] // 8] ^= 1 << (args[0] % 8)
        elif kind == "u32" and args[0] + 4 <= len(out):
            out[args[0]:args[0] + 4] = args[1].to_bytes(4, "little")
        elif kind == "append":
            out += args[0]
    return bytes(out)


def load_bounded(load, path, blob, allowed):
    """load(path) of blob; returns what it loaded, or None for an allowed error."""
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            loaded = load(path)
        except allowed:
            loaded = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(blob) + SLACK, f"peak {peak} B for a {len(blob)} B file"
    return loaded


@pytest.mark.parametrize("name", ["f8", "f4"])
def test_valid_feature_file_loads(valid_files, name):
    root, blobs = valid_files
    assert load_bounded(load_features, root / "x", blobs[name], ()).n == 8


def test_valid_checkpoint_loads(valid_files):
    root, blobs = valid_files
    assert load_bounded(load_checkpoint, root / "x", blobs["net"], ()).layer_dims == NET_DIMS


# n at 8, d at 12
@given(base=st.sampled_from(["f8", "f4"]), ops=mutations((8, 12)))
@settings(max_examples=120, deadline=None)
def test_mutated_feature_file(valid_files, base, ops):
    root, blobs = valid_files
    blob = mutate(blobs[base], ops)
    # InvalidConfig: a split tag outside 0-2 or a query label with no gallery row;
    # NonFiniteInput: a NaN or infinite feature
    loaded = load_bounded(load_features, root / "x.xbnf", blob,
                          (FormatError, InvalidConfig, NonFiniteInput))
    assert loaded is None or isinstance(loaded, FeatureDataset)


# the layer-dims count at 8, the three dims at 12, 16 and 20
@given(ops=mutations((8, 12, 16, 20)))
@settings(max_examples=120, deadline=None)
def test_mutated_checkpoint(valid_files, ops):
    root, blobs = valid_files
    blob = mutate(blobs["net"], ops)
    loaded = load_bounded(load_checkpoint, root / "x.xbnc", blob, FormatError)
    # A file cut to a one-entry dims list and no parameters is a valid zero-layer
    # checkpoint (identity then normalization), so loads of any depth are allowed.
    assert loaded is None or isinstance(loaded, MLPEmbedder)
