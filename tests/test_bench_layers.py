"""The layer harness's report: quartiles, pairs won and the digest check."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _PATH)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _run(scale, digest="d"):
    figures = {fig: scale * (i + 1) for i, fig in enumerate(layers.FIGURES)}
    return {"figures": figures, "digests": {"montecarlo.rtp": digest}}


def test_report_counts_pairs_won_in_each_figures_direction():
    # head is faster in pairs 1 and 2 and ties in pair 3: a rate figure
    # counts the two wins, a peak figure (lower is better) counts none
    runs = {"head": [_run(2.0), _run(3.0), _run(1.0)],
            "base": [_run(1.0), _run(1.0), _run(1.0)]}
    rows = layers.report(runs)
    rate = rows["montecarlo.detector.draws_per_s"]
    peak = rows["montecarlo.detector.peak_mib"]
    assert rate["head_won"] == 2 and peak["head_won"] == 0
    assert rate["head"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert rate["head_over_base"] == 2.0
    assert layers.report({"head": [_run(4.0)]})["montecarlo.rate.peak_mib"]["head"] == {
        "median": 32.0, "q1": 32.0, "q3": 32.0}


def test_a_differing_digest_on_either_side_is_reported():
    same = {"head": [_run(1.0), _run(2.0)], "base": [_run(1.0), _run(1.0)]}
    assert layers._mismatches(same) == []
    same["base"][1] = _run(1.0, digest="other")
    assert layers._mismatches(same) == ["montecarlo.rtp"]
