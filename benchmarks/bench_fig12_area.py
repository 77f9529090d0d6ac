"""Figure 12 — layout area of the synthesized decimation filter.

Regenerates the area figure: per-stage standard-cell area and the total
placed-and-routed area estimate (paper: 0.12 mm² in 45 nm), both from the
structural resource model of the designed chain.
"""

import pytest

from benchutils import print_series


def _fig12(synthesis_report):
    return synthesis_report


@pytest.mark.benchmark(group="fig12")
def test_fig12_layout_area(benchmark, synthesis_report):
    report = benchmark.pedantic(_fig12, args=(synthesis_report,), rounds=1, iterations=1)
    rows = []
    for stage in report.area.stages:
        rows.append((stage.label, f"{stage.cell_area_um2/1e3:.1f} kum2",
                     f"{report.area.fractions()[stage.label]*100:.1f}%"))
    rows.append(("Total layout area",
                 f"{report.total_area_mm2:.3f} mm2", "paper: 0.12 mm2"))
    print_series("Figure 12 — layout area", ["stage", "area", "share / reference"], rows)
    assert 0.06 < report.total_area_mm2 < 0.25
    # The FIR-style stages hold most of the cells, consistent with their
    # dominant leakage in Table II.
    fractions = report.area.fractions()
    assert fractions["Halfband"] + fractions["Equalizer"] > 0.5
