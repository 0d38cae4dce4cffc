"""The benchmark's tracing hook still finds every library name it wraps."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    """A renamed or moved wrapped name fails here, not only under a traced benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()
