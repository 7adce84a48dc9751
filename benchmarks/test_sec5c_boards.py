"""§V-C — board variability: DE1 (Cyclone-II) and ARTY (Artix-35T).

Different CMOS technology changes the emissions: the model trained on the
DE0-CV degrades badly on other boards.  Retraining the baseline amplitudes
A and activity factors c on the new board restores accuracy — and the MISO
combination coefficients M transfer unchanged, because they are set by the
(unchanged) logic design and probe geometry.
"""

from repro.core import EMSim, Trainer, coverage_groups
from repro.hardware import ARTY, DE1, HardwareDevice


def test_sec5c_board_retraining(bench, record):
    program = coverage_groups(group_size=192, seed=56, limit_groups=1)[0]

    results = {}
    for board in (DE1, ARTY):
        device = HardwareDevice(board=board)
        stale = bench.accuracy(program, device=device)

        # retrain everything on the new board...
        trainer = Trainer(device=device,
                          activity_probes_per_class=12,
                          miso_groups=1, miso_group_size=128)
        fresh = trainer.train()
        full = bench.accuracy(
            program, device=device,
            simulator=EMSim(fresh,
                            core_config=device.core_config))
        # ...then substitute the DE0-CV-fitted M: §V-C says the
        # combination coefficients need no retraining
        transplanted_miso = dict(fresh.miso)
        fresh.miso = dict(bench.model.miso)
        transferred = bench.accuracy(
            program, device=device,
            simulator=EMSim(fresh,
                            core_config=device.core_config))
        fresh.miso = transplanted_miso
        results[board.name] = dict(stale=stale, full=full,
                                   transferred=transferred)

    lines = ["DE0-CV-trained model on other boards (paper §V-C):",
             f"  {'board':<7s} {'stale':>7s} {'A,c retrained + base M':>24s}"
             f" {'fully retrained':>16s}"]
    for board, info in results.items():
        lines.append(f"  {board:<7s} {info['stale']:>7.1%} "
                     f"{info['transferred']:>24.1%} "
                     f"{info['full']:>16.1%}")
    lines.append("")
    transfer_ok = all(abs(info["transferred"] - info["full"]) < 0.02
                      for info in results.values())
    lines.append("paper shape: A and c must be retrained, M transfers "
                 "unchanged -> " +
                 ("reproduced" if transfer_ok else "NOT reproduced"))
    record("sec5c_boards", "\n".join(lines))

    for board, info in results.items():
        assert info["stale"] < info["full"] - 0.05, board
        assert info["full"] > 0.90, board
        # the base board's M works as well as the board's own fit
        assert abs(info["transferred"] - info["full"]) < 0.02, board