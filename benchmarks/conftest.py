"""Shared fixtures for the experiment benchmarks.

Each ``test_*`` file regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index).  A session-scoped trained bench is
shared; every experiment prints its paper-style rows and writes them to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can cite them.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.core import EMSim, train_emsim
from repro.hardware import HardwareDevice
from repro.signal import simulation_accuracy

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@dataclass
class Bench:
    """Trained measurement bench shared by the experiments."""

    device: HardwareDevice
    model: object
    simulator: EMSim

    @property
    def spc(self) -> int:
        return self.device.samples_per_cycle

    def accuracy(self, program, simulator=None, device=None,
                 max_cycles=None) -> float:
        """Paper metric for one program: simulated vs measured signal."""
        device = device or self.device
        simulator = simulator or self.simulator
        measured = device.capture_ideal(program, max_cycles=max_cycles)
        simulated = simulator.simulate(program, max_cycles=max_cycles)
        length = min(len(measured.signal), len(simulated.signal))
        return simulation_accuracy(simulated.signal[:length],
                                   measured.signal[:length], self.spc)


@pytest.fixture(scope="session")
def bench():
    device = HardwareDevice()
    model = train_emsim(device)
    return Bench(device=device, model=model,
                 simulator=EMSim(model, core_config=device.core_config))


@pytest.fixture()
def record(request):
    """Callable writing an experiment's report to results/ and stdout.

    Under ``REPRO_BENCH_QUICK=1`` the report lands in
    ``<experiment>.quick.txt``, as :func:`write_bench_report` does for
    ``BENCH_*.quick.json``, so a smoke run never rewrites the committed
    full-size text.
    """

    def _record(experiment: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        suffix = ".quick.txt" if bench_quick() else ".txt"
        path = os.path.join(RESULTS_DIR, f"{experiment}{suffix}")
        with open(path, "w") as handle:
            handle.write(text.rstrip() + "\n")
        header = f"===== {experiment} ====="
        print(f"\n{header}\n{text.rstrip()}\n")

    return _record


def bench_quick() -> bool:
    """Whether the shrunk ``make bench-quick`` workloads are selected."""
    return os.environ.get("REPRO_BENCH_QUICK") == "1"


def write_bench_report(name: str, metadata: dict) -> dict:
    """Write one ``BENCH_<name>.json`` report into ``results/``.

    The single place that knows the quick/full file-pair convention:
    under ``REPRO_BENCH_QUICK=1`` the report lands in
    ``BENCH_<name>.quick.json`` so the committed full-size artifact
    stays intact.  The ``repro-bench/1`` envelope carries the
    experiment's ``metadata``, the ``quick`` flag, the run-manifest path
    (``None`` unless the bench ran inside a ``--trace-dir``-style
    recording; see docs/observability.md), and whatever the global
    tracer (``spans``: ``Tracer.by_name()``) and metrics registry
    (``counters``) recorded.  Written atomically; returns the document.
    """
    from repro.observability import (current_manifest_path, get_metrics,
                                     get_tracer)

    document = {"schema": "repro-bench/1"}
    document.update(metadata)
    document.setdefault("quick", bench_quick())
    document.setdefault("manifest", current_manifest_path())
    document["spans"] = get_tracer().by_name()
    document["counters"] = dict(sorted(get_metrics().counters.items()))
    suffix = ".quick.json" if bench_quick() else ".json"
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}{suffix}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    os.replace(path + ".tmp", path)
    return document
