"""The benchmark's tracer (bench/spans.py) wraps functions and methods of the
package by name and raises at install time when one is gone, so a rename
under src/ shows here instead of only in the slower benchmark suite."""
import importlib.util
from pathlib import Path

import pytest

from expaction import groups, zoo

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_on_every_traced_name_and_restores_them():
    spans = _spans()
    originals = {
        (owner, name): vars(owner)[name]
        for owner in zoo.ActionSystem.__subclasses__() + [zoo.ActionSystem]
        for name in ("apply", "limit_net")
        if name in vars(owner)
    }
    tracer = spans.Tracer()
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original
    finally:
        tracer.close()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original


def test_the_tracer_raises_when_a_traced_name_is_gone(monkeypatch):
    spans = _spans()
    monkeypatch.delattr(groups, "word_length")
    with pytest.raises(AttributeError):
        spans.Tracer()
