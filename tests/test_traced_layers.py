"""The benchmark's layer tracer sees every capture layer of a campaign.

``bench/test_bench.py`` checks only that the callables the traced pass
wraps still exist; a refactor that routed the capture path around one of
them would zero that layer in every bench report.  This runs a small
supervised campaign under the tracer itself (``bench.tracing.Tracer``).
"""

from collections import Counter

from bench.tracing import Tracer
from repro.core import supervised_campaign
from repro.hardware import HardwareDevice
from repro.workloads import RandomProgramBuilder

CAPTURE_LAYERS = ("y(t)", "Oscilloscope.capture_repetition_list",
                  "screen_repetitions", "modulo_average", "assess_capture")


def test_campaign_capture_layers_record_spans():
    builder = RandomProgramBuilder(seed=0)
    programs = [builder.program(16, name=f"probe{index}")
                for index in range(2)]
    repetitions = 6
    with Tracer() as tracer:
        probes, ledger = supervised_campaign(
            HardwareDevice(), programs, repetitions=repetitions, workers=1)
    assert not ledger.quarantined
    assert all(probe is not None for probe in probes)
    spans = Counter(span.name for span in tracer.spans)
    for name in CAPTURE_LAYERS:
        assert spans[name] >= len(programs), name
    assert tracer.counters["signal.acquisition.repetitions"] == \
        len(programs) * repetitions
