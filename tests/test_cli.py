import pytest

from privavg import cli, engine, privacy
from privavg.cli import main
from privavg.experiments import build_trial_inputs, parse_config, run_single_trial
from privavg.privacy import (
    AmbiguityWitness,
    ReconstructionError,
    WitnessUnavailableError,
    attack_trial,
    classify_privacy,
)


@pytest.fixture
def pair_setup(tmp_path):
    graph_path = tmp_path / "pair.txt"
    graph_path.write_text("2 2\n0 1\n1 0\n", encoding="ascii")
    config_path = tmp_path / "pair.cfg"
    config_path.write_text(
        f"graph_file = {graph_path}\n"
        "seed = 1\n"
        "trials = 2\n"
        "states = 4,6\n"
        "roles = neutral,neutral\n",
        encoding="ascii",
    )
    return config_path, tmp_path


class TestRunCommand:
    def test_writes_trace_and_report(self, pair_setup, capsys):
        config_path, tmp_path = pair_setup
        out = tmp_path / "out"
        code = main(["--config", str(config_path), "--out-dir", str(out), "run"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "convergence_round = 5" in report
        assert "quiescence_round = 6" in report
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "round,state_broadcasts,mass_transfers,transmitting_nodes,converged_nodes"
        assert trace[1].startswith("-1,2,0,2,")
        assert (out / "messages.csv").read_text().splitlines()[0] == "round,kind,src,dst,y,z"

    def test_counter_rows_built_once(self, pair_setup, monkeypatch):
        config_path, tmp_path = pair_setup
        calls = []
        round_rows = engine.round_rows

        def counting(trace):
            calls.append(trace)
            return round_rows(trace)

        monkeypatch.setattr(engine, "round_rows", counting)
        out = tmp_path / "out"
        assert main(["--config", str(config_path), "--out-dir", str(out), "run"]) == 0
        assert len(calls) == 1

    def test_rerun_is_byte_identical(self, pair_setup):
        config_path, tmp_path = pair_setup
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", str(config_path), "--out-dir", str(out), "run"]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_nonconvergence_exit_code(self, pair_setup):
        config_path, tmp_path = pair_setup
        text = config_path.read_text() + "max_rounds = 2\n"
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code = main(["--config", str(bad), "--out-dir", str(tmp_path / "x"), "run"])
        assert code == 2


class TestBatchCommand:
    def test_batch_writes_metrics(self, pair_setup):
        config_path, tmp_path = pair_setup
        out = tmp_path / "batch"
        code = main(["--config", str(config_path), "--out-dir", str(out), "batch"])
        assert code == 0
        assert (out / "trials.csv").exists() and (out / "series.csv").exists()
        rows = (out / "trials.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 trials
        assert rows[1].split(",")[1] == "1:0"

    def test_failed_trials_are_reported_and_metrics_still_written(self, pair_setup, capsys):
        config_path, tmp_path = pair_setup
        cfg = tmp_path / "short.cfg"
        cfg.write_text(config_path.read_text() + "max_rounds = 2\n")
        out = tmp_path / "batch"
        assert main(["--config", str(cfg), "--out-dir", str(out), "batch"]) == 2
        assert "FAILED trials (seeds): 1:0, 1:1" in capsys.readouterr().out
        assert (out / "trials.csv").exists() and (out / "series.csv").exists()

    def test_batch_prints_its_means(self, pair_setup, capsys):
        config_path, tmp_path = pair_setup
        out = tmp_path / "batch"
        assert main(["--config", str(config_path), "--out-dir", str(out), "batch"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"2 trials -> {out / 'trials.csv'}, {out / 'series.csv'}",
            "mean convergence 5.00, mean quiescence 6.00, mean tx one/fanout 15.00/15.00",
        ]

    def test_seed_flag_overrides_master_seed(self, pair_setup):
        config_path, tmp_path = pair_setup
        out = tmp_path / "batch"
        code = main(["--config", str(config_path), "--seed", "7", "--out-dir", str(out), "batch"])
        assert code == 0
        rows = (out / "trials.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["7:0", "7:1"]


def _surrounded_target_config(tmp_path):
    """Private node 0 on a 3-node complete digraph whose other nodes are curious."""
    graph_path = tmp_path / "tri.txt"
    graph_path.write_text("3 6\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n", encoding="ascii")
    config_path = tmp_path / "tri.cfg"
    config_path.write_text(
        f"graph_file = {graph_path}\n"
        "seed = 2\n"
        "states = 5,-8,11\n"
        "roles = private,curious,curious\n",
        encoding="ascii",
    )
    return config_path


# Private, curious and neutral nodes on drawn graphs.
MIXED_ROLES = (
    "seed = 5\ntrials = 5\nn = 30\np = 0.15\nstates_range = -100,100\n"
    "private_fraction = 0.5\ncurious_fraction = 0.25\n"
)


@pytest.mark.parametrize("trial", range(5))
def test_run_and_privacy_audit_derive_the_same_trial(tmp_path, trial):
    """`run --trial i` simulates, and `privacy-audit --trial i` classifies, the
    graph, roles, states and schedules that build_trial_inputs draws for i."""
    config_path = tmp_path / "roles.cfg"
    config_path.write_text(MIXED_ROLES, encoding="ascii")
    cfg = parse_config(MIXED_ROLES)
    g, roles, states, schedules = build_trial_inputs(cfg, trial)
    result = run_single_trial(cfg, trial, keep_trace=True)
    assert result.trace.graph == g and result.trace.schedules == schedules
    assert result.roles == roles and result.states == states
    out = tmp_path / "audit"
    argv = ["--config", str(config_path), "--out-dir", str(out), "privacy-audit"]
    assert main([*argv, "--trial", str(trial)]) == 0
    verdicts = classify_privacy(result.trace.graph, result.roles)
    lines = [f"{v.target},{v.classification.value},{v.justification}" for v in verdicts]
    assert (out / "privacy_audit.txt").read_text(encoding="ascii").splitlines() == lines


def _attack_line(target, outcome, truth) -> str:
    """The line privacy-audit --attack writes for one outcome of attack_trial."""
    if outcome is None:
        return f"attack,{target},witness,unavailable"
    if isinstance(outcome, AmbiguityWitness):
        return (
            f"attack,{target},witness,helper,{outcome.helper},delta,{outcome.delta},"
            f"digest,{outcome.log_digest[:16]}"
        )
    if isinstance(outcome, Exception):
        return f"attack,{target},reconstruction-error,{outcome}"
    return f"attack,{target},reconstructed,{outcome},truth,{truth},match,{outcome == truth}"


@pytest.mark.parametrize("trial", range(5))
def test_attack_lines_are_attack_trial_outcomes(tmp_path, trial):
    """`privacy-audit --attack --trial i` writes one line per outcome that
    attack_trial returns for trial i's trace, in its order."""
    config_path = tmp_path / "roles.cfg"
    config_path.write_text(MIXED_ROLES, encoding="ascii")
    result = run_single_trial(parse_config(MIXED_ROLES), trial, keep_trace=True)
    outcomes = attack_trial(result.trace, result.roles)
    assert any(outcome is not None for _, outcome in outcomes)
    out = tmp_path / "audit"
    argv = ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
    assert main([*argv, "--trial", str(trial)]) == 0
    lines = (out / "privacy_audit.txt").read_text(encoding="ascii").splitlines()
    assert [line for line in lines if line.startswith("attack,")] == [
        _attack_line(target, outcome, result.states[target]) for target, outcome in outcomes
    ]


class TestPrivacyAuditCommand:
    def test_classification_lines(self, hub_setup, capsys):
        config_path, tmp_path = hub_setup
        out = tmp_path / "audit"
        code = main(["--config", str(config_path), "--out-dir", str(out), "privacy-audit"])
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "0,preserved,private-neighbor-1" in lines
        assert "1,preserved,private-neighbor-0" in lines

    def test_attack_reconstructs_surrounded_target(self, tmp_path):
        config_path = _surrounded_target_config(tmp_path)
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "0,breached,all-neighbors-curious" in lines
        assert any(line.startswith("attack,0,reconstructed,5,truth,5,match,True") for line in lines)

    def test_attack_finds_witness_for_preserved_pair(self, hub_setup):
        config_path, tmp_path = hub_setup
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        witness_lines = [l for l in lines if l.startswith("attack,0,witness,helper")]
        assert witness_lines, lines

    def test_attack_reconstruction_error_is_trial_failure(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise ReconstructionError("log inconsistent")

        monkeypatch.setattr(privacy, "reconstruct_fully_surrounded", refuse)
        config_path = _surrounded_target_config(tmp_path)
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 2
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "attack,0,reconstruction-error,log inconsistent" in lines

    def test_attack_wrong_reconstruction_is_trial_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(privacy, "reconstruct_fully_surrounded", lambda *args: 6)
        config_path = _surrounded_target_config(tmp_path)
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 2
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "attack,0,reconstructed,6,truth,5,match,False" in lines

    def test_attack_tries_every_delta_in_order(self, tmp_path):
        # No witness hides target 2 before delta 3, or target 4 before -3.
        config_path = tmp_path / "deltas.cfg"
        config_path.write_text(
            "seed = 13\nn = 5\np = 0.5\nstates_range = -5,5\n"
            "private_fraction = 0.5\ncurious_fraction = 0.5\noffset_bound = 4\n"
        )
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert lines[2:] == [
            "attack,2,witness,helper,4,delta,3,digest,718f4ab32428c694",
            "attack,4,witness,helper,2,delta,-3,digest,718f4ab32428c694",
        ]

    def test_unavailable_witness_is_reported_not_failed(self, hub_setup, monkeypatch):
        def unavailable(*args):
            raise WitnessUnavailableError("no placement")

        monkeypatch.setattr(privacy, "ambiguity_witness", unavailable)
        config_path, tmp_path = hub_setup
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "attack,0,witness,unavailable" in lines
        assert "attack,1,witness,unavailable" in lines

    def test_attack_on_a_relay_cycle_reports_unavailable_witnesses(self, tmp_path):
        # On the directed 3-cycle 0 -> 1 -> 2 -> 0 the curious node relays
        # every value the private pair exchanges, so no search finds a witness.
        graph_path = tmp_path / "cycle.txt"
        graph_path.write_text("3 3\n0 1\n1 2\n2 0\n", encoding="ascii")
        config_path = tmp_path / "cycle.cfg"
        config_path.write_text(
            f"graph_file = {graph_path}\n"
            "seed = 6\n"
            "states = 4,7,-3\n"
            "roles = private,private,curious\n",
            encoding="ascii",
        )
        out = tmp_path / "audit"
        code = main(
            ["--config", str(config_path), "--out-dir", str(out), "privacy-audit", "--attack"]
        )
        assert code == 0
        lines = (out / "privacy_audit.txt").read_text().splitlines()
        assert "attack,0,witness,unavailable" in lines
        assert "attack,1,witness,unavailable" in lines


class TestValidateScheduleCommand:
    def test_valid_schedule(self, tmp_path, capsys):
        path = tmp_path / "sched.cfg"
        path.write_text("y0 = 4\ndmax = 3\nrole = private\nuy = 1,8,6,2,3\n")
        assert main(["validate-schedule", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_schedule(self, tmp_path, capsys):
        path = tmp_path / "sched.cfg"
        path.write_text("y0 = 4\ndmax = 1\nrole = private\nuy = 4,4,4\n")
        assert main(["validate-schedule", str(path)]) == 1
        out = capsys.readouterr().out
        assert "distinct" in out and "not-initial" in out

    def test_explicit_carriers_are_read(self, tmp_path, capsys):
        path = tmp_path / "sched.cfg"
        path.write_text("y0 = 4\ndmax = 3\nrole = private\nuy = 1,8,6,2,3\nuz = 1,1,1,1,1\n")
        assert main(["validate-schedule", str(path)]) == 0
        path.write_text("y0 = 4\ndmax = 3\nrole = private\nuy = 1,8,6,2,3\nuz = 1,1,2,1\n")
        assert main(["validate-schedule", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "ok",
            "uz-length: expected 5 carriers, got 4",
            "uz-ones: uz not 1 at indices [2]",
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "y0 = 4\ndmax = 3\nrole = private\n",
            "y0 = 4\ndmax = three\nrole = private\nuy = 1,8,6,2,3\n",
            "y0 = 4\ndmax = 3\nrole = wizard\nuy = 1,8,6,2,3\n",
            "y0 = 4\ndmax = 0\nrole = private\nuy = 3,5\n",
            "y0 = 4\ndmax = -5\nrole = private\nuy = 3,5\n",
        ],
        ids=["missing-uy", "non-integer", "unknown-role", "zero-dmax", "negative-dmax"],
    )
    def test_malformed_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "sched.cfg"
        path.write_text(text)
        assert main(["validate-schedule", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad schedule file")


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "run"]) == 1

    def test_missing_graph_file_is_io_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("graph_file = /nonexistent/g.txt\nstates = 1,2\nseed = 1\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "run"]) == 3

    def test_roles_shorter_than_the_graph_file_is_config_error(self, pair_setup, capsys):
        config_path, tmp_path = pair_setup
        cfg = tmp_path / "short.cfg"
        cfg.write_text(config_path.read_text().replace("roles = neutral,neutral", "roles = neutral"))
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "run"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: roles list has 1 entries, graph has 2\n"

    def test_bad_arguments_are_config_errors(self):
        assert main(["frobnicate"]) == 1

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.cfg"), "run"]) == 3

    @pytest.mark.parametrize(
        "text, command",
        [
            (b"seed = 1\nn = 4\n# caf\xe9\n", ["--config", "{path}", "run"]),
            (
                b"y0 = 4\ndmax = 3\nrole = private\nuy = 1,8,6,2,3\n# caf\xe9\n",
                ["validate-schedule", "{path}"],
            ),
        ],
        ids=["config", "validate-schedule"],
    )
    def test_non_ascii_file_is_config_error(self, tmp_path, capsys, text, command):
        # Reading the file as ASCII raises UnicodeDecodeError, a ValueError.
        path = tmp_path / "latin1.txt"
        path.write_bytes(text)
        argv = [str(path) if arg == "{path}" else arg for arg in command]
        assert main(["--out-dir", str(tmp_path / "o"), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_graph_generation_failure_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 3\np = 0.01\nstates_range = -10,10\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "batch"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: no strongly connected digraph")
        assert err.count("\n") == 1

    def test_graph_file_not_strongly_connected_is_config_error(self, tmp_path, capsys):
        (tmp_path / "line.txt").write_text("3 2\n0 1\n1 2\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"graph_file = {tmp_path / 'line.txt'}\nstates = 1,2,3\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "batch"]) == 1
        assert capsys.readouterr().err == "config error: digraph must be strongly connected\n"

    @pytest.mark.parametrize("command", ["batch", "privacy-audit"])
    def test_infeasible_schedule_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 6\np = 0.9\nstates_range = -10,10\noffset_bound = 2\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: window of size 4")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["max_rounds = -3", "quiescence_window = 0"])
    def test_bad_round_limits_are_config_errors(self, pair_setup, capsys, line):
        config_path, tmp_path = pair_setup
        cfg = tmp_path / "limits.cfg"
        cfg.write_text(config_path.read_text() + line + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out-dir", str(out), "batch"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} must be")
        assert not (out / "trials.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_config_error(self, pair_setup, capsys, jobs):
        config_path, tmp_path = pair_setup
        out = tmp_path / "o"
        argv = ["--config", str(config_path), "--out-dir", str(out), "batch", "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: jobs must be >= 1\n"
        assert not (out / "trials.csv").exists()

    def test_overflow_is_trial_failure(self, pair_setup, capsys):
        config_path, tmp_path = pair_setup
        big = 2**62
        cfg = tmp_path / "big.cfg"
        cfg.write_text(config_path.read_text().replace("states = 4,6", f"states = {big},{big}"))
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trial aborted: ") and "left the 64-bit range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--config", "{tmp}/none.cfg", "--out-dir", "{tmp}/o", "batch"],
            ["--out-dir", "{tmp}/o", "validate-schedule", "{tmp}/none.sched"],
        ],
        ids=["missing-config", "missing-schedule"],
    )
    def test_io_error_is_one_line_and_no_outputs(self, pair_setup, capsys, argv):
        _config_path, tmp_path = pair_setup
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(tmp=tmp_path) for a in argv]) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: "), err
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestRefusedBeforeAnyTrial:
    """Bad arguments and a file in the way of --out-dir stop a command before it simulates."""

    @pytest.fixture
    def simulated(self, monkeypatch):
        calls = []
        for name in ("run_batch", "run_single_trial", "build_trial_inputs"):
            fn = getattr(cli, name)

            def counting(*args, _fn=fn, **kw):
                calls.append(_fn.__name__)
                return _fn(*args, **kw)

            monkeypatch.setattr(cli, name, counting)
        return calls

    @pytest.mark.parametrize("out_dir", ["taken", "taken/sub"])
    @pytest.mark.parametrize("command", [["batch"], ["run"], ["privacy-audit", "--attack"]])
    def test_out_dir_behind_a_file_is_io_error(self, pair_setup, capsys, simulated, command, out_dir):
        config_path, tmp_path = pair_setup
        (tmp_path / "taken").write_text("")
        argv = ["--config", str(config_path), "--out-dir", str(tmp_path / out_dir), *command]
        assert main(argv) == 3
        assert simulated == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: --out-dir ")
        assert err[0].endswith("taken is not a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.cfg", "pair.txt", "taken"]

    @pytest.mark.parametrize("command", ["run", "privacy-audit"])
    def test_negative_trial_is_config_error(self, pair_setup, capsys, simulated, command):
        config_path, tmp_path = pair_setup
        out = tmp_path / "o"
        argv = ["--config", str(config_path), "--out-dir", str(out), command, "--trial", "-1"]
        assert main(argv) == 1
        assert simulated == []
        assert capsys.readouterr().err == "config error: --trial must be >= 0, got -1\n"
        assert not out.exists()
