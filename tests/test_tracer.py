"""The benchmark's tracer must still find every layer it wraps.

`perfbench/tracing.py` names the library functions it wraps by dotted
path; renaming or moving one would break `perfbench/run.py --trace 1`
without failing any library test, so install it here once.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from satset import plane  # noqa: E402


def test_tracer_installs_and_uninstalls_every_layer():
    line_through = vars(plane.ProjectivePlane)["line_through"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {wrapper.__wrapped__ for _, _, _, wrapper in tracer._patches}
        assert len(wrapped) == len(tracing.LAYER_FUNCTIONS)
        plane.canonical_plane(2).line_through(0, 1)
        assert {"plane.canonical_plane", "plane.ProjectivePlane.line_through"} <= \
            {tracer.names[c] for c in tracer.name}
    finally:
        tracer.uninstall()
    assert vars(plane.ProjectivePlane)["line_through"] is line_through
