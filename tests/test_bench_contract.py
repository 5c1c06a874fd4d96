"""The benchmark's trace contract: the span wrappers in perfbench/spans.py
find every layer they wrap, nest, and read the counters they expect.

``spans.py`` replaces module attributes such as ``otfilter.filters.
filter_step``; renaming one of them, or calling it some other way, breaks
traced benchmark runs without failing any other test.
"""

import importlib.util
import json
from pathlib import Path

import otfilter
import otfilter.cli

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

SPAN_NAMES = {
    "cli.main",
    "harness.config_from_json",
    "harness.monte_carlo",
    "harness.write_outputs",
    "harness.write_samples",
    "harness.run_single",
    "harness.simulate_truth",
    "filters.run_filter",
    "filters.filter_step",
    "filters.compute_weights",
    "filters.constraint_projection",
    "models.propagate_ensemble",
    "sampling.ot_sample",
    "transport.build_cost_matrix",
    "transport.solve_transport",
    "transport.apply_transport",
}


def test_traced_run_and_sample(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 6, "t_final": 0.2}))
    tracer = spans.Tracer(seed=0)
    tracer.install_program(otfilter)
    main = tracer.wrap("cli.main", otfilter.cli.main)
    try:
        codes = [
            main(["run", "--config", str(config), "--runs", "1",
                  "--out", str(tmp_path / "run")]),
            main(["sample", "--target", "bimodal", "--n", "20",
                  "--out", str(tmp_path / "sample")]),
        ]
    finally:
        tracer.restore()

    assert codes == [0, 0]
    analysis = spans.analyse(tracer.spans)
    assert analysis["spans_nested"]
    assert analysis["self_times_add_up"]
    assert {span[0] for span in tracer.spans} == SPAN_NAMES
    for counter in ("regularized", "degenerate", "active_rows"):
        assert tracer.counts[counter], counter
