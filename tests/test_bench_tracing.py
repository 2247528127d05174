"""The benchmark's tracer still finds every public name it wraps."""

import pathlib
import types

import cardiomotion.geodesic as geodesic
import cardiomotion.registration as registration

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # exec the source so that nothing (not even a bytecode cache) is written under bench/
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_over_every_traced_name():
    tracer = _load_tracing().Tracer()
    shoot = geodesic.shoot
    tracer.install()  # raises AttributeError/KeyError if a traced name is gone
    try:
        assert tracer.installed
        assert geodesic.shoot is not shoot
        assert registration.integrate_forward_flow is geodesic.integrate_forward_flow
    finally:
        tracer.uninstall()
    assert geodesic.shoot is shoot
    assert not hasattr(registration.integrate_forward_flow, "__wrapped__")
