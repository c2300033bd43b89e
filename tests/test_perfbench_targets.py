import importlib.util
from pathlib import Path

import hdrkit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    """The benchmark tracer wraps ``owner.attr`` for each target; a deleted or
    renamed function would make traced runs fail, so each must still exist."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.targets(hdrkit)
        if attr not in vars(owner)
    ]
    assert not missing
