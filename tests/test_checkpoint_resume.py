"""Checkpoint journal crash-safety and bit-identical campaign resume.

Covers the journal file format (torn-tail recovery, checksum and
metadata validation), the supervised-map resume path, and the
end-to-end claim: an interrupted campaign, resumed from its journal,
produces bit-identical arrays to an uninterrupted run.
"""

import base64
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import measurement_campaign
from repro.hardware import HardwareDevice
from repro.leakage.tvla import collect_tvla_traces, tvla
from repro.parallel import supervised_map
from repro.robustness import (CheckpointError, CheckpointJournal,
                              ConfigurationError, FaultPlan, JOURNAL_SCHEMA,
                              content_key)
from repro.signal import ScopeConfig
from repro.workloads import RandomProgramBuilder

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _programs(count, length=16, seed=5):
    builder = RandomProgramBuilder(seed=seed)
    return [builder.program(length, name=f"prog_{i:03d}")
            for i in range(count)]


def _truncate_journal(path, keep_records):
    """Keep the header plus the first ``keep_records`` records."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.writelines(lines[:1 + keep_records])


class TestContentKey:
    def test_deterministic_and_distinct(self):
        assert content_key("a", 1) == content_key("a", 1)
        assert content_key("a", 1) != content_key("a", 2)
        # length prefixing: part boundaries matter
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_bytes_pass_raw(self):
        assert content_key(b"xy") != content_key("xy")
        assert content_key(b"xy") == content_key(b"xy")


class TestJournalRoundTrip:
    def test_record_lookup_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        payload = {"x": np.arange(5.0), "y": "text"}
        with CheckpointJournal(path, meta={"campaign": "t"}) as journal:
            journal.record("k0", 0, payload)
            journal.record("k1", 1, [1, 2, 3])
            assert "k0" in journal and "k2" not in journal
            assert len(journal) == 2
            assert journal.resumed_records == 0
        reopened = CheckpointJournal(path, meta={"campaign": "t"})
        assert reopened.resumed_records == 2
        assert reopened.keys() == ["k0", "k1"]
        restored = reopened.lookup("k0")
        assert np.array_equal(restored["x"], payload["x"])
        assert restored["x"].dtype == payload["x"].dtype
        assert reopened.lookup("k1") == [1, 2, 3]
        reopened.close()

    def test_numpy_bit_exact(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        rng = np.random.default_rng(0)
        array = rng.normal(size=257)
        with CheckpointJournal(path) as journal:
            journal.record("a", 0, array)
        with CheckpointJournal(path) as journal:
            assert journal.lookup("a").tobytes() == array.tobytes()

    def test_resume_false_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record("a", 0, 1)
        with CheckpointJournal(path, resume=False) as journal:
            assert len(journal) == 0
        with CheckpointJournal(path) as journal:
            assert "a" not in journal


class TestJournalRecovery:
    def _journal_with_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path, meta={"seed": 7}) as journal:
            journal.record("k0", 0, np.arange(3.0))
            journal.record("k1", 1, np.arange(4.0))
        return path

    def test_torn_tail_truncated(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "inde')  # crash mid-append
        journal = CheckpointJournal(path, meta={"seed": 7})
        assert journal.resumed_records == 2
        journal.close()
        assert os.path.getsize(path) == intact

    def test_mid_file_corruption_raises(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b"<<not json>>\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointJournal(path, meta={"seed": 7})

    def test_checksum_mismatch_raises(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["sha256"] = "0" * 64
        lines[1] = (json.dumps(record, sort_keys=True) + "\n").encode()
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointJournal(path, meta={"seed": 7})

    def test_schema_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "other/9", "meta": {}}\n')
        with pytest.raises(CheckpointError, match="schema"):
            CheckpointJournal(path)
        assert JOURNAL_SCHEMA == "repro-checkpoint/1"

    def test_meta_mismatch_raises(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with pytest.raises(CheckpointError, match="metadata"):
            CheckpointJournal(path, meta={"seed": 8})
        # an empty campaign meta accepts any journal
        journal = CheckpointJournal(path)
        assert journal.meta == {"seed": 7}
        journal.close()

    def test_missing_header_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write("")
        with pytest.raises(CheckpointError, match="header"):
            CheckpointJournal(path)


def double(value):
    return value * 2


class TestSupervisedMapResume:
    def test_journal_requires_key_for(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ConfigurationError, match="key_for"):
            supervised_map(double, [1, 2], journal=journal)
        journal.close()

    def test_resume_skips_completed_items(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        key_for = lambda index, item: content_key("d", index, item)
        with CheckpointJournal(path) as journal:
            first, _ = supervised_map(double, [1, 2, 3, 4],
                                      journal=journal, key_for=key_for)
        _truncate_journal(path, keep_records=2)
        with CheckpointJournal(path) as journal:
            assert journal.resumed_records == 2
            second, ledger = supervised_map(double, [1, 2, 3, 4],
                                            journal=journal,
                                            key_for=key_for)
        assert second == first == [2, 4, 6, 8]
        assert ledger.resumed == [0, 1]
        assert [o.attempts for o in ledger.outcomes] == [0, 0, 1, 1]

    def test_record_that_no_longer_unpickles_raises(self, tmp_path):
        # a valid-checksum record naming a module this build lacks, as a
        # journal written by another version of repro can
        path = str(tmp_path / "j.jsonl")
        key_for = lambda index, item: content_key("d", index, item)
        key = key_for(0, 1)
        payload = b"\x80\x04cno_such_module\nthing\n."
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": JOURNAL_SCHEMA,
                                     "meta": {}}) + "\n")
            handle.write(json.dumps({
                "key": key, "index": 0,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload": base64.b64encode(payload).decode("ascii"),
            }) + "\n")
        with CheckpointJournal(path) as journal:
            with pytest.raises(CheckpointError) as raised:
                supervised_map(double, [1], journal=journal,
                               key_for=key_for)
        message = str(raised.value)
        assert path in message and key[:16] in message
        assert "another version of repro" in message


class TestCampaignResume:
    def test_resume_bit_identical(self, tmp_path):
        """Interrupt at 50%, resume, compare arrays bit-exactly."""
        programs = _programs(6)
        clean = measurement_campaign(HardwareDevice(seed=3), programs,
                                     repetitions=8, workers=1, seed=9)
        path = str(tmp_path / "campaign.jsonl")
        full = measurement_campaign(HardwareDevice(seed=3), programs,
                                    repetitions=8, workers=1, seed=9,
                                    checkpoint=path)
        _truncate_journal(path, keep_records=3)  # "interrupted" at 50%
        resumed = measurement_campaign(HardwareDevice(seed=3), programs,
                                       repetitions=8, workers=1, seed=9,
                                       checkpoint=path, resume=True)
        for a, b, c in zip(clean, full, resumed):
            assert np.array_equal(a.signal, b.signal)
            assert np.array_equal(a.signal, c.signal)
            assert np.array_equal(a.amplitudes, c.amplitudes)

    def test_resume_under_different_config_rejected(self, tmp_path):
        programs = _programs(2)
        path = str(tmp_path / "campaign.jsonl")
        measurement_campaign(HardwareDevice(seed=3), programs,
                             repetitions=8, workers=1, seed=9,
                             checkpoint=path)
        with pytest.raises(CheckpointError, match="metadata"):
            measurement_campaign(HardwareDevice(seed=3), programs,
                                 repetitions=8, workers=1, seed=10,
                                 checkpoint=path, resume=True)

    @pytest.mark.parametrize("changed", [
        {"scope_config": ScopeConfig(adc_range=16.0, noise_rms=0.5)},
        {"fault_plan": FaultPlan.preset(0.2)},
        {"auto_range": False},
    ], ids=["noise", "faults", "fixed-range"])
    def test_resume_under_a_changed_scope_recaptures(self, tmp_path,
                                                     changed):
        """The probe key covers the scope: a journal written under one
        scope must not answer for a bench with another one."""
        programs = _programs(2)
        path = str(tmp_path / "campaign.jsonl")
        written = {"seed": 3, "scope_config": ScopeConfig(adc_range=16.0)}
        measurement_campaign(HardwareDevice(**written), programs,
                             repetitions=24, workers=1, seed=9,
                             checkpoint=path)
        bench = dict(written, **changed)
        fresh = measurement_campaign(HardwareDevice(**bench), programs,
                                     repetitions=24, workers=1, seed=9)
        resumed = measurement_campaign(HardwareDevice(**bench), programs,
                                       repetitions=24, workers=1, seed=9,
                                       checkpoint=path, resume=True)
        for a, b in zip(fresh, resumed):
            assert np.array_equal(a.signal, b.signal)
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert a.quality == b.quality

    def test_hard_kill_then_resume(self, tmp_path):
        """A campaign process dying mid-run (os._exit, as a stand-in
        for SIGKILL/power loss) leaves a journal that resumes to the
        same results as a never-interrupted run."""
        path = str(tmp_path / "j.jsonl")
        script = (
            "import os, sys\n"
            "from repro.parallel import supervised_map\n"
            "from repro.robustness import CheckpointJournal, content_key\n"
            "def work(i):\n"
            "    if i == 4:\n"
            "        os._exit(9)\n"
            "    return i * 3\n"
            "key_for = lambda index, item: content_key('kill', item)\n"
            "with CheckpointJournal(sys.argv[1]) as journal:\n"
            "    supervised_map(work, range(8), journal=journal,\n"
            "                   key_for=key_for)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        process = subprocess.run(
            [sys.executable, "-c", script, path],
            env=env, cwd=REPO, timeout=300)
        assert process.returncode == 9
        # items 0..3 must have been fsync'd before the death
        with CheckpointJournal(path) as journal:
            assert journal.resumed_records == 4
            key_for = lambda index, item: content_key("kill", item)
            results, ledger = supervised_map(
                lambda i: i * 3, range(8),
                journal=journal, key_for=key_for)
        assert results == [i * 3 for i in range(8)]
        assert ledger.resumed == [0, 1, 2, 3]


class TestTvlaResume:
    def test_t_trace_bit_identical(self, tmp_path):
        def source(data):
            folded = np.asarray(data, dtype=float)
            return np.concatenate([folded, folded[::-1] * 0.5])

        def collect(checkpoint=None, resume=False):
            return collect_tvla_traces(
                source, [3, 1, 4, 1, 5], num_traces=12,
                rng=np.random.default_rng(21),
                checkpoint=checkpoint, resume=resume)

        clean_fixed, clean_random = collect()
        path = str(tmp_path / "tvla.jsonl")
        collect(checkpoint=path)
        _truncate_journal(path, keep_records=12)  # half of 24 items
        fixed, random_traces = collect(checkpoint=path, resume=True)
        for a, b in zip(clean_fixed + clean_random,
                        fixed + random_traces):
            assert np.array_equal(a, b)
        reference = tvla(clean_fixed, clean_random)
        resumed = tvla(fixed, random_traces)
        assert np.array_equal(reference.t_values, resumed.t_values)
