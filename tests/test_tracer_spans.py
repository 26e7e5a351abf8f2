"""The traced benchmark run wraps hx functions by name: every span it lists
must still resolve, or the run fails only when it is traced."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only; install() is not run
    return module


def test_every_tracer_span_resolves():
    tracer = _load_tracer()
    unresolved = []
    for module, path, name in tracer.SPANS:
        assert module in tracer.LAYERS and name.split(".", 1)[0] in tracer.LAYERS
        owner = importlib.import_module(f"hx.{module}")
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            # the lookup install() makes: a class's own attribute, not an inherited one
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            unresolved.append(f"hx.{module}.{path}")
            continue
        if not callable(getattr(raw, "__func__", raw)):
            unresolved.append(f"hx.{module}.{path}")
    assert not unresolved
