"""The ``python -m repro.harness`` entry point."""

import json
import re

from repro.apps.base import Application
from repro.harness.__main__ import main, parse_args

#: report sections whose numbers legitimately differ between runs
TELEMETRY = (r"## (Search engine telemetry|Fault-tolerance telemetry|"
             r"Simulator cache telemetry|Persistent store telemetry|"
             r"Per-stage timing).*?(?=## )")


def _measured(text):
    """A report with its run-dependent telemetry sections removed."""
    return re.sub(TELEMETRY, "", text, flags=re.S)


class TestParseArgs:
    def test_defaults(self):
        options = parse_args(["prog"])
        assert options.output == "EXPERIMENTS.md"
        assert options.apps is None
        assert not options.no_random

    def test_custom(self):
        options = parse_args(["prog", "out.md", "--apps", "cp,matmul",
                              "--no-random"])
        assert options.output == "out.md"
        assert options.apps == "cp,matmul"
        assert options.no_random

    def test_engine_flags_default_off(self):
        options = parse_args(["prog"])
        assert options.workers is None
        assert options.store is None
        assert options.trace is None
        assert options.profile is None

    def test_engine_flags(self):
        options = parse_args(["prog", "--workers", "4",
                              "--store", "store_dir"])
        assert options.workers == 4
        assert options.store == "store_dir"


class TestMain:
    def test_subset_run_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        code = main(["prog", str(output), "--apps", "cp", "--no-random"])
        assert code == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "cp" in capsys.readouterr().out

    def test_unknown_app_rejected(self, tmp_path):
        code = main(["prog", str(tmp_path / "x.md"), "--apps", "nonesuch"])
        assert code == 2

    def test_bad_fault_spec_rejected_up_front(self, tmp_path, capsys):
        """Regression: a malformed --faults used to surface from inside
        the sweep as "cp: unusable checkpoint None: ..."."""
        output = tmp_path / "x.md"
        code = main(["prog", str(output), "--apps", "cp", "--no-random",
                     "--faults", "bogus:zz"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus:zz" in err
        assert "checkpoint" not in err
        assert not output.exists()

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        trace = tmp_path / "trace.json"
        # Serial: pool workers' spans are not collected in this process,
        # so under REPRO_WORKERS>1 the SM replays would leave no span.
        code = main(["prog", str(output), "--apps", "cp", "--no-random",
                     "--workers", "1", "--trace", str(trace)])
        assert code == 0
        # the tracer is global state; main() must turn it back off
        from repro.obs import tracing_enabled

        assert not tracing_enabled()

        data = json.loads(trace.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        names = {event["name"] for event in events}
        assert "harness.experiment" in names
        assert "engine.simulate_batch" in names
        assert "sm.replay" in names
        # the report gains the per-stage breakdown table
        assert "Per-stage timing" in output.read_text()
        assert str(trace) in capsys.readouterr().out

    def test_profile_flag_dumps_pstats(self, tmp_path, capsys):
        import pstats

        output = tmp_path / "report.md"
        profile = tmp_path / "sweep.pstats"
        # Serial, as --profile's help says: pool workers' calls are not
        # profiled in this process.
        code = main(["prog", str(output), "--apps", "cp", "--no-random",
                     "--workers", "1", "--profile", str(profile)])
        assert code == 0
        stats = pstats.Stats(str(profile))
        # the sweep really ran under the profiler: the SM replay loop
        # must appear in the collected call stats
        functions = {func for _, _, func in stats.stats}
        assert any("simulate_sm" in name for name in functions)
        assert str(profile) in capsys.readouterr().out

    def test_store_resume_matches_cold_run_and_does_no_work(
        self, tmp_path, capsys, monkeypatch
    ):
        """A cold ``--store`` run, then a warm ``--workers 2`` run over
        the same store: identical reports outside the telemetry
        sections, store hits, and no evaluation, simulation or kernel
        build in the warm run."""
        store = str(tmp_path / "store")
        cold = tmp_path / "cold.md"
        warm = tmp_path / "warm.md"
        assert main(["prog", str(cold), "--apps", "cp", "--no-random",
                     "--store", store]) == 0
        capsys.readouterr()

        built = []
        original = Application.kernel

        def counting(self, config):
            if config not in self._kernel_cache:
                built.append(config)
            return original(self, config)

        monkeypatch.setattr(Application, "kernel", counting)
        assert main(["prog", str(warm), "--apps", "cp", "--no-random",
                     "--workers", "2", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "evals=0 sims=0" in out
        assert built == []

        warm_text = warm.read_text()
        assert _measured(warm_text) == _measured(cold.read_text())
        section = warm_text[warm_text.index("## Persistent store telemetry"):]
        hits = re.search(r"cp\s+\|\s+(\d+)", section)
        assert hits and int(hits.group(1)) > 0

    def test_faulted_pooled_run_matches_clean_run(self, tmp_path, capsys):
        """A pooled cp run with a raised task and a killed worker: the
        report equals the clean run's outside the telemetry sections,
        and the Fault-tolerance table counts exactly what the plan
        injected."""
        clean = tmp_path / "clean.md"
        chaos = tmp_path / "chaos.md"
        assert main(["prog", str(clean), "--apps", "cp", "--no-random",
                     "--workers", "2"]) == 0
        assert main(["prog", str(chaos), "--apps", "cp", "--no-random",
                     "--workers", "2", "--faults", "raise:2,kill:5"]) == 0
        capsys.readouterr()

        chaos_text = chaos.read_text()
        assert _measured(chaos_text) == _measured(clean.read_text())
        section = chaos_text[chaos_text.index("## Fault-tolerance telemetry"):]
        header, row = [
            line for line in section.splitlines() if "|" in line
        ][:2]
        table = dict(zip(
            [cell.strip() for cell in header.split("|")],
            [cell.strip() for cell in row.split("|")],
        ))
        # The plan fires once per pooled batch, and cp's sweep pools
        # two: its static stage and its measurement stage.  Each batch
        # loses task 2 to an error and task 5 to a crash, and retries
        # both.
        assert table["application"] == "cp"
        assert int(table["errors"]) == 2
        assert int(table["crashes"]) == 2
        assert int(table["retries"]) == 4
        assert int(table["timeouts"]) == 0
        assert int(table["serial_tasks"]) == 0
