"""The traced benchmark run wraps engine names that must keep existing.

`perfbench/spans.py` replaces each (owner, key) of `_targets()` with a
span wrapper; a renamed or dropped engine name would only break a
`--trace 1` run. This loads the module by path and resolves every target.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = []
    for owner, key, name, *_ in targets:
        fn = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
        if not callable(fn):
            missing.append(f"{name} ({owner!r}, {key!r})")
    assert not missing, "\n".join(missing)
