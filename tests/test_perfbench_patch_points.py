"""The benchmark's traced pass must find and restore every name it patches.

``perfbench/tracing.py`` wraps modelprint functions where the package looks
them up.  A refactor that renames or removes one of those lookups breaks
the traced pass; this test catches that without running a workload.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_installed_patches_and_restores_every_point():
    points = tracing.patch_points()
    before = [owner.__dict__[attr] for owner, attr, _, _ in points]
    with tracing.installed(tracing.Tracer()):
        during = [owner.__dict__[attr] for owner, attr, _, _ in points]
    after = [owner.__dict__[attr] for owner, attr, _, _ in points]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
