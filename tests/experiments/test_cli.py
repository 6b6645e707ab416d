"""Tests for the command-line interface."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import repro.cli
from repro.cli import _FLEET_OMITS, build_parser, main
from repro.core.config import AXIS_CHOICES
from repro.core.fleet_spec import FleetSpec, axis_flag
from repro.core.pool import PLACEMENTS
from repro.core.scheduler import SCHEDULERS
from repro.routing import ROUTERS
from repro.workloads.arrivals import ARRIVALS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.dataset == "aime24"
        assert args.n == 16

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--device", "tpu-v9"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.n_values == [4, 8, 16]
        assert not args.no_cache

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.requests == 6
        assert args.arrivals == "poisson"
        assert args.max_in_flight is None


class TestFlagsComeFromTheSpec:
    """The drift that once produced two hand-written flag lists cannot
    recur silently: every ``FleetSpec`` field is a flag on every serving
    subcommand, minus the one documented exclusion."""

    @pytest.mark.parametrize(
        "argv, omitted",
        [
            (["fleet"], _FLEET_OMITS),
            (["trace", "run"], ()),
            (["trace", "replay", "--trace", "t.jsonl"], ()),
        ],
        ids=["fleet", "trace-run", "trace-replay"],
    )
    def test_every_spec_field_is_a_flag(self, argv, omitted):
        args = build_parser().parse_args(argv)
        missing = {axis.name for axis in fields(FleetSpec) if not hasattr(args, axis.name)}
        assert missing == set(omitted)
        assert FleetSpec.from_args(args) == FleetSpec()  # flag defaults = spec defaults


    def test_readme_axis_table_covers_every_field(self):
        """README's one axis table names each field, its flag and default."""
        readme = Path(__file__).parents[2] / "README.md"
        rows = {
            line.split("|")[1].strip(): line
            for line in readme.read_text().splitlines()
            if line.startswith("| `")
        }
        for axis in fields(FleetSpec):
            row = rows[f"`{axis.name}`"]
            assert f"`{axis_flag(axis)}" in row
            if axis.default is not None:
                assert row.rstrip(" |").endswith(f"`{axis.default}`")
            for choice in AXIS_CHOICES.get(axis.name, ()):
                assert f"`{choice}`" in row

    @pytest.mark.parametrize(
        "axis, names",
        [
            ("scheduler", SCHEDULERS.names()),
            ("placement", PLACEMENTS.names()),
            ("router", ["off", *ROUTERS.names()]),
        ],
        ids=["scheduler", "placement", "router"],
    )
    def test_readme_axis_table_lists_exactly_the_registry(self, axis, names):
        """The values cell of a registry axis names every registered policy
        and nothing else (a trailing parenthetical is commentary)."""
        readme = Path(__file__).parents[2] / "README.md"
        (row,) = [
            line for line in readme.read_text().splitlines()
            if line.startswith(f"| `{axis}` |")
        ]
        values = re.sub(r"\(.*\)\s*$", "", row.split("|")[3])
        assert sorted(re.findall(r"`([^`]+)`", values)) == sorted(names)


class TestExitTwoConvention:
    """A ``ConfigError`` raised anywhere — the spec, ``ServerConfig``, fleet
    construction — is one ``error:`` line and exit status 2, never a
    traceback (each of these inputs used to escape the hand-picked checks)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param([*command, *flags], message, id=f"{flag_id}-{command_id}")
            for command_id, command in (("fleet", ["fleet"]), ("trace-run", ["trace", "run"]))
            for flag_id, flags, message in (
                ("retry-budget", ["--retry-budget", "-1"],
                 "--retry-budget: retry budget must be >= 0"),
                ("memory-fraction-0", ["--memory-fraction", "0"],
                 "memory_fraction must be in (0, 1]"),
                ("memory-fraction-1.5", ["--memory-fraction", "1.5"],
                 "memory_fraction must be in (0, 1]"),
                ("fault-lane-pin", ["--faults", "crash:at=1,lane=7"],
                 "pins lane 7 but the pool has only 1"),
            )
        ] + [
            pytest.param(["solve", "-n", "0"], "-n must be >= 1, got 0", id="solve-n-0"),
            pytest.param(["solve", "-n", "-3"], "-n must be >= 1, got -3",
                         id="solve-n-negative"),
        ] + [
            pytest.param(
                [command, *flags, "--config", "1.5B+1.5b"],
                "unknown model config '1.5B+1.5b' — did you mean '1.5B+1.5B'?",
                id=f"config-typo-{command}",
            )
            for command, flags in (
                ("solve", []), ("sweep", ["--no-cache"]), ("fleet", []), ("report", []),
            )
        ] + [
            pytest.param(
                ["trace", "run", "--tenant", "t:rate=0.1,algorithm=beam_serach"],
                "unknown search algorithm 'beam_serach' — did you mean 'beam_search'?",
                id="tenant-algorithm-typo-trace-run",
            ),
        ] + [
            # A deployment whose weights cannot fit is a bad configuration,
            # not a simulation failure.
            pytest.param(
                ["solve", "--config", "7B+1.5B", "--device", "rtx3070ti"],
                "model weights (18320000000 B) exceed the memory budget",
                id="weights-do-not-fit-solve",
            ),
            pytest.param(
                ["trace", "run", "--router", "static",
                 "--lane", "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8:mem=0.5",
                 "--tenant", "chat:rate=0.05,n=4,deadline=600", "--requests", "12"],
                "model weights (18320000000 B) exceed the memory budget",
                id="weights-do-not-fit-trace-run",
            ),
        ],
    )
    def test_config_error_is_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "rtx4090" in out
        assert "beam_search" in out

    def test_straggler(self, capsys):
        assert main(["straggler", "--dataset", "amc23"]) == 0
        out = capsys.readouterr().out
        assert "idle" in out

    def test_report(self, capsys):
        assert main(["report", "--memory-fraction", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "allocator plan" in out

    def test_solve_small(self, capsys):
        code = main([
            "solve", "--dataset", "amc23", "-n", "8",
            "--memory-fraction", "0.4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput gain" in out
        assert "baseline" in out and "fasttts" in out

    def test_solve_negative_problem_rejected(self, capsys):
        code = main(["solve", "--dataset", "amc23", "--problem", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err
        assert captured.out == ""  # no silent end-of-dataset indexing

    def test_sweep_bad_args_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["sweep", "--problems", "0"]) == 2
        assert "--problems" in capsys.readouterr().err

    def test_fleet_zero_requests_rejected(self, capsys):
        assert main(["fleet", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_fleet_bad_args_rejected(self, capsys):
        assert main(["fleet", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["fleet", "--rate", "-0.5"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["fleet", "--max-in-flight", "0"]) == 2
        assert "--max-in-flight" in capsys.readouterr().err
        assert main(["fleet", "-n", "0"]) == 2
        assert "-n" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_fleet_non_finite_rate_rejected(self, capsys, rate):
        assert main(["fleet", "--rate", rate]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --rate must be finite")
        assert captured.out == ""

    @pytest.mark.parametrize("arrival", ARRIVALS.names())
    def test_fleet_is_a_one_tenant_trace(self, monkeypatch, arrival):
        # fleet's arrival times are exactly those `trace run` draws for a
        # tenant named "fleet" with the same process, rate and seed.
        served, run_trace = [], repro.cli.run_trace

        def spy(trace, config, **axes):
            served.append(trace)
            return run_trace(trace, config, **axes)

        monkeypatch.setattr(repro.cli, "run_trace", spy)
        common = ["--seed", "5", "--requests", "3"]
        assert main(["fleet", "--arrivals", arrival, "--rate", "0.1", "-n", "4",
                     *common]) == 0
        assert main(["trace", "run", *common, "--tenant",
                     f"fleet:arrival={arrival},rate=0.1,n=4"]) == 0
        fleet, trace = served
        assert [r.arrival_s for r in fleet] == [r.arrival_s for r in trace]
        assert [r.problem_index for r in fleet] == [0, 1, 2]
        assert {r.tenant for r in fleet} == {"fleet"}
        assert all(r.deadline_s is None for r in fleet)

    def test_fleet_loss_at_readmission_is_stamped_at_the_loss(
        self, monkeypatch, capsys
    ):
        """A retry that re-arrives to a pool whose only lane crashed for
        good is lost then, not at its first arrival: stamped at arrival,
        the run ended before work the crash voided and the pool read 1.130
        busy."""
        reports, run_trace = [], repro.cli.run_trace

        def spy(trace, config, **axes):
            reports.append(run_trace(trace, config, **axes))
            return reports[-1]

        monkeypatch.setattr(repro.cli, "run_trace", spy)
        assert main([
            "fleet", "--dataset", "amc23", "-n", "4", "--requests", "8",
            "--rate", "0.2", "--arrivals", "uniform", "--seed", "0",
            "--device", "rtx4090", "--scheduler", "fifo",
            "--faults", "crash:at=40,lane=0", "--recovery", "retry",
        ]) == 0
        out = capsys.readouterr().out
        (report,) = reports
        lost = [r for r in report.records if r.lost]
        assert len(lost) == 5 and out.count("lost req-") == 5
        assert all(r.retries > 0 and r.finish_s > 40.0 for r in lost)
        busy = re.search(r"\| busy fraction +\| ([0-9.]+) +\|", out)
        assert float(busy.group(1)) <= 1.0
        assert all(d.busy_fraction <= 1.0 for d in report.devices)
        # The lane served back to back until it died at 40 s: the round that
        # straddled the crash is billed only up to it.
        assert report.devices[0].busy_s == pytest.approx(40.0)

    def test_sweep_small(self, capsys, tmp_path):
        argv = [
            "sweep", "--dataset", "amc23", "--problems", "1",
            "--n-values", "4", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "gain x" in first
        assert "0 hits, 2 misses" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hits, 0 misses" in second

    def test_fleet_small(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--system", "baseline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput req/s" in out
        assert "queue delay p95 s" in out

    def test_fleet_scheduler_policy(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--system", "baseline",
            "--scheduler", "round_robin",
        ])
        assert code == 0
        assert "[round_robin]" in capsys.readouterr().out

    def test_fleet_scheduler_comparison(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.2", "--system", "baseline", "--scheduler", "all",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for policy in ("fifo", "sjf", "round_robin", "first_finish"):
            assert policy in out
        assert "cancelled s" in out

    def test_fleet_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--scheduler", "priority"])

    def test_fleet_unknown_placement_rejected(self):
        # argparse choices: same exit-2 convention as the other flags
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fleet", "--placement", "spread"])
        assert excinfo.value.code == 2

    def test_fleet_empty_device_list_rejected(self, capsys):
        assert main(["fleet", "--devices", ""]) == 2
        assert "at least one device" in capsys.readouterr().err
        assert main(["fleet", "--devices", " , "]) == 2
        assert "at least one device" in capsys.readouterr().err

    def test_fleet_blank_device_entry_rejected(self, capsys):
        assert main(["fleet", "--devices", "rtx4090,,rtx4070ti"]) == 2
        assert "empty entry" in capsys.readouterr().err

    def test_fleet_unknown_device_in_list_suggests(self, capsys):
        assert main(["fleet", "--devices", "rtx4090,rtx407ti"]) == 2
        err = capsys.readouterr().err
        assert "unknown device 'rtx407ti'" in err
        assert "did you mean 'rtx4070ti'?" in err

    def test_fleet_multi_device(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--memory-fraction", "0.9",
            "--devices", "rtx4090,rtx4070ti", "--placement", "least_loaded",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "placement least_loaded" in out
        assert "per-device utilization" in out
        assert "dev0:rtx4090" in out and "dev1:rtx4070ti" in out

    def test_fleet_prefix_affinity_placement(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--memory-fraction", "0.9",
            "--devices", "rtx4090,rtx4090", "--placement", "prefix_affinity",
            "--kv-sharing", "prefix",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "placement prefix_affinity" in out
        assert "affinity hit ratio" in out
        assert "kv unique admitted MB" in out

    def test_fleet_duplicate_devices_get_distinct_lane_ids(self, capsys):
        # Duplicate --devices entries are deliberately legal: fault drills
        # span pools of identical cards. Each lane id is index-suffixed so
        # duplicates never collide.
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--memory-fraction", "0.9",
            "--devices", "rtx4090,rtx4090", "--placement", "least_loaded",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dev0:rtx4090" in out and "dev1:rtx4090" in out

    def test_fleet_lane_pool(self, capsys):
        code = main([
            "fleet", "--dataset", "amc23", "--requests", "2", "-n", "4",
            "--rate", "0.05", "--memory-fraction", "0.9",
            "--lane", "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8",
            "--router", "cascade", "--placement", "least_loaded",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "router cascade" in out
        assert "per-lane-class rollup" in out
        assert "router decisions" in out
        assert "escalations" in out

    def test_fleet_lane_and_devices_exclusive(self, capsys):
        assert main([
            "fleet", "--lane", "7B+1.5B@rtx4090", "--devices", "rtx4090",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fleet_bad_lane_spec_rejected(self, capsys):
        assert main(["fleet", "--lane", "7B+1.5B"]) == 2
        assert "missing '@'" in capsys.readouterr().err
        assert main(["fleet", "--lane", "7B+1.5B@rtx4090:int88"]) == 2
        assert "did you mean 'int8'" in capsys.readouterr().err

    def test_fleet_unknown_router_suggests(self, capsys):
        assert main(["fleet", "--router", "cascde"]) == 2
        err = capsys.readouterr().err
        assert "unknown router 'cascde'" in err
        assert "did you mean 'cascade'?" in err

    def test_schedulers_listing(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for policy in ("fifo", "sjf", "round_robin", "first_finish"):
            assert policy in out
        for placement in (
            "first_fit", "least_loaded", "kv_balanced", "prefix_affinity"
        ):
            assert placement in out
        for router in ("static", "predicted", "cascade"):
            assert router in out

    def test_devices_listing(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "rtx4090" in out and "rtx4070ti" in out
        assert "vram GB" in out and "pcie GB/s" in out


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace", "run"])
        assert args.trace_command == "run"
        assert args.requests == 8
        assert args.late_policy == "serve_late"
        assert args.tenant is None

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_generate_then_replay(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main([
            "trace", "generate", "--out", str(path),
            "--tenant", "t0:rate=0.2,n=1,deadline=120,ttft=60",
            "--requests", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "t0" in out and str(path) in out
        assert path.exists()

        assert main(["trace", "replay", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-tenant SLOs" in out
        assert "fleet SLO summary" in out
        assert "slo attainment" in out

    def test_run_matches_replay(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        argv_tail = ["--tenant", "t0:rate=0.3,n=1,deadline=60",
                     "--requests", "3", "--seed", "2"]
        assert main(["trace", "run", "--out", str(path), *argv_tail]) == 0
        run_out = capsys.readouterr().out.splitlines()
        assert main(["trace", "replay", "--trace", str(path)]) == 0
        replay_out = capsys.readouterr().out.splitlines()
        # Identical serving output modulo the leading "wrote <path>" line.
        assert run_out[1:] == replay_out

    def test_default_tenants(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "generate", "--out", str(path), "--requests", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "chat" in out and "batch" in out

    def test_drop_policy_reports_drops(self, capsys):
        code = main([
            "trace", "run", "--late-policy", "drop",
            "--tenant", "t0:rate=2.0,n=1,deadline=5,requests=6",
            "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "late-policy drop" in out
        assert "deadline expired" in out

    def test_negative_rate_rejected(self, capsys):
        assert main(["trace", "run", "--tenant", "t:rate=-1"]) == 2
        assert "rate > 0" in capsys.readouterr().err

    def test_unknown_arrival_suggests(self, capsys):
        assert main(["trace", "run", "--tenant", "t:arrival=posson"]) == 2
        assert "did you mean 'poisson'" in capsys.readouterr().err

    def test_nonpositive_deadline_rejected(self, capsys):
        assert main(["trace", "run", "--tenant", "t:deadline=0"]) == 2
        assert "deadline > 0" in capsys.readouterr().err

    def test_unknown_spec_key_suggests(self, capsys):
        assert main(["trace", "run", "--tenant", "t:ratee=1"]) == 2
        assert "did you mean 'rate'" in capsys.readouterr().err

    def test_zero_requests_rejected(self, capsys):
        assert main(["trace", "run", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_unreadable_trace_file_rejected(self, capsys, tmp_path):
        assert main([
            "trace", "replay", "--trace", str(tmp_path / "missing.jsonl"),
        ]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_arrival_in_trace_file_rejected(
        self, capsys, tmp_path, literal
    ):
        path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "generate", "--out", str(path), "--requests", "2",
            "--tenant", "t0:rate=0.2,n=1",
        ]) == 0
        lines = path.read_text().splitlines()
        head, _, tail = lines[1].partition('"arrival_s": ')
        lines[1] = head + f'"arrival_s": {literal}' + tail[tail.index(","):]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "replay", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert "arrival_s must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_tenant_rate_rejected(self, capsys, rate):
        assert main(["trace", "run", "--tenant", f"t:rate={rate}"]) == 2
        assert "finite rate > 0" in capsys.readouterr().err

    def test_malformed_trace_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other"}\n')
        assert main(["trace", "replay", "--trace", str(path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_unknown_late_policy_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["trace", "run", "--late-policy", "defer"])
        assert excinfo.value.code == 2

    def test_max_in_flight_validated(self, capsys):
        assert main(["trace", "run", "--max-in-flight", "0"]) == 2
        assert "--max-in-flight" in capsys.readouterr().err

    def test_trace_run_with_lanes_and_router(self, capsys):
        code = main([
            "trace", "run", "--memory-fraction", "0.9",
            "--tenant", "t0:rate=0.2,n=4,deadline=300",
            "--requests", "2", "--seed", "0",
            "--lane", "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8",
            "--router", "static", "--placement", "least_loaded",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "router static" in out
        assert "per-lane-class rollup" in out

    def test_trace_lane_and_devices_exclusive(self, capsys):
        assert main([
            "trace", "run", "--lane", "7B+1.5B@rtx4090",
            "--devices", "rtx4090",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
