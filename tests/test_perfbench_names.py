"""The benchmark's tracer patches package functions by name; each of those
names must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib.util

from conftest import REPO_ROOT


def test_layer_patches_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patches = spans.layer_patches(spans.Tracer())
    assert patches
    for owner, attr, _ in patches:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
