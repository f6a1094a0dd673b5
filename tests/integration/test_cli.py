"""CLI driver tests."""

import json

import pytest

from repro.cli import main

HELLO = """
int main() {
    print_str("hello from minic");
    print_int(40 + 2);
    return 7;
}
"""

LEAKY = """
void f(private char *pw) { send(1, pw, 8); }
int main() {
    private char pw[8];
    read_passwd("u", pw, 8);
    f(pw);
    return 0;
}
"""


# A null dereference: an unmapped read under Base.
NULL_DEREF = "int main() { int *p = (int*)0; return *p; }"


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.mc"
    path.write_text(HELLO)
    return str(path)


@pytest.fixture
def faulting_file(tmp_path):
    path = tmp_path / "null.mc"
    path.write_text(NULL_DEREF)
    return str(path)


class TestCliRun:
    def test_run_prints_and_returns(self, hello_file, capsys):
        code = main(["run", hello_file])
        captured = capsys.readouterr()
        assert code == 7
        assert "hello from minic" in captured.out
        assert "42" in captured.out

    def test_run_with_stats(self, hello_file, capsys):
        main(["run", hello_file, "--stats"])
        captured = capsys.readouterr()
        assert "machine.cycles.wall" in captured.err
        assert "machine.checks{kind=cfi}" in captured.err

    def test_run_with_trace_writes_chrome_trace(self, hello_file, tmp_path,
                                                capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["run", hello_file, "--trace", str(trace)]) == 7
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        names = {e["name"] for e in events}
        assert "compile.total" in names
        assert "machine.run" in names
        for event in events:
            if event["ph"] == "X":
                for key in ("name", "cat", "ts", "dur", "pid", "tid"):
                    assert key in event

    def test_run_with_metrics_table(self, hello_file, capsys):
        main(["run", hello_file, "--metrics"])
        err = capsys.readouterr().err
        assert "machine.instructions" in err
        assert "linker.code_words" in err

    def test_run_stats_and_metrics_print_counters_once(self, hello_file,
                                                       capsys):
        main(["run", hello_file, "--stats", "--metrics"])
        err = capsys.readouterr().err
        # --metrics subsumes --stats: the instruction counter appears in
        # exactly one table, not two differently-formatted ones.
        assert err.count("machine.instructions") == 1

    def test_run_under_base_config(self, hello_file):
        assert main(["run", hello_file, "--config", "Base"]) == 7

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "leak.mc"
        path.write_text(LEAKY)
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "private data flows" in captured.err

    def test_ramdisk_files(self, tmp_path, capsys):
        data = tmp_path / "data.bin"
        data.write_bytes(b"abc")
        src = tmp_path / "prog.mc"
        src.write_text(
            """
            int main() {
                char buf[8];
                int n = read_file("in", buf, 8);
                print_int(n);
                return n;
            }
            """
        )
        code = main(["run", str(src), "--file", f"in={data}"])
        assert code == 3

    def test_stdin_hex(self, tmp_path):
        src = tmp_path / "prog.mc"
        src.write_text(
            """
            int main() {
                char buf[4];
                recv(0, buf, 4);
                return (int)buf[0] + (int)buf[3];
            }
            """
        )
        assert main(["run", str(src), "--stdin-hex", "01020304"]) == 5


class TestCliVerifyAndDisasm:
    def test_verify_accepts(self, hello_file, capsys):
        assert main(["verify", hello_file]) == 0
        assert "verifies under OurMPX" in capsys.readouterr().out

    def test_verify_rejects_base(self, hello_file, capsys):
        assert main(["verify", hello_file, "--config", "Base"]) == 1
        assert "config-not-verifiable" in capsys.readouterr().err

    def test_disasm_lists_labels_and_instrs(self, hello_file, capsys):
        assert main(["disasm", hello_file]) == 0
        out = capsys.readouterr().out
        assert "main:" in out
        assert "chkstk" in out
        assert "magic.call" in out

    def test_bench_prints_all_configs(self, hello_file, capsys):
        assert main(["bench", hello_file]) == 0
        out = capsys.readouterr().out
        for name in ("Base", "OurMPX", "OurSeg"):
            assert name in out

    def test_bench_json_records(self, hello_file, capsys):
        import json

        from repro.config import ALL_CONFIGS

        assert main(["bench", hello_file, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["config"] for r in records] == list(ALL_CONFIGS)
        base = records[0]
        assert base["overhead_pct"] == 0.0
        for record in records:
            assert record["cycles"] > 0
            assert set(record["checks"]) == {"bnd", "cfi", "t_calls"}
        mpx = next(r for r in records if r["config"] == "OurMPX")
        assert mpx["checks"]["cfi"] > 0


class TestCliFaults:
    """Multi-config commands report a faulting configuration like
    ``run`` does: a FAULT line on stderr and exit 2."""

    def test_report_prints_fault_and_exits_2(self, faulting_file, capsys):
        assert main(["report", faulting_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("FAULT: Base: ")
        assert "unmapped" in captured.err

    def test_bench_prints_fault_and_stores_nothing(self, faulting_file,
                                                   tmp_path, capsys):
        store = tmp_path / "BENCH.json"
        assert main(["bench", faulting_file, "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("FAULT: Base: ")
        assert not store.exists()


class TestCliServe:
    def test_echo_json_report(self, capsys):
        assert main(
            ["serve", "--app", "echo", "--requests", "8", "--seed", "1",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["app"] == "echo"
        assert report["requests"] == 8
        assert report["faults"] == 0
        assert report["ok"] == report["valid"] == 8

    def test_trace_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--app", "echo", "--requests", "8",
                  "--trace", str(tmp_path / "x.json")])
        assert exit_.value.code == 2
        assert not (tmp_path / "x.json").exists()


class TestCliSpecValidation:
    def test_malformed_file_spec_fails_fast(self, hello_file, capsys):
        assert main(["run", hello_file, "--file", "nopath"]) == 1
        err = capsys.readouterr().err
        assert "malformed --file spec" in err
        assert "name=path" in err

    def test_empty_file_name_rejected(self, hello_file, tmp_path, capsys):
        data = tmp_path / "d.bin"
        data.write_bytes(b"x")
        assert main(["run", hello_file, "--file", f"={data}"]) == 1
        assert "malformed --file spec" in capsys.readouterr().err

    def test_missing_file_reported_cleanly(self, hello_file, capsys):
        assert main(["run", hello_file, "--file", "in=/no/such/file"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_engine_is_a_usage_error(self, hello_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", hello_file, "--engine", "superblock"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'superblock'" in err
        assert "Traceback" not in err

    def test_malformed_password_spec_fails_fast(self, hello_file, capsys):
        assert main(["run", hello_file, "--password", "justauser"]) == 1
        err = capsys.readouterr().err
        assert "malformed --password spec" in err
        assert "user=password" in err

    def test_empty_password_user_rejected(self, hello_file, capsys):
        assert main(["run", hello_file, "--password", "=pw"]) == 1
        assert "malformed --password spec" in capsys.readouterr().err

    def test_empty_password_value_allowed(self, hello_file):
        # "user=" is a well-formed spec for an empty password.
        assert main(["run", hello_file, "--password", "u="]) == 7


class TestPrototypeInjectionHeuristic:
    def test_phrase_in_comment_does_not_suppress_injection(self, tmp_path,
                                                           capsys):
        src = tmp_path / "commented.mc"
        src.write_text(
            """
            // This app needs no extern trusted block of its own.
            /* extern trusted declarations come from the driver. */
            int main() {
                print_str("still injected");
                return 0;
            }
            """
        )
        assert main(["run", str(src)]) == 0
        assert "still injected" in capsys.readouterr().out

    def test_phrase_in_string_does_not_suppress_injection(self, tmp_path,
                                                          capsys):
        src = tmp_path / "stringy.mc"
        src.write_text(
            """
            int main() {
                print_str("extern trusted is just text here");
                return 0;
            }
            """
        )
        assert main(["run", str(src)]) == 0
        assert "just text" in capsys.readouterr().out

    def test_real_declaration_suppresses_injection(self, tmp_path):
        from repro.cli import _has_trusted_declarations

        source = 'extern trusted void print_int(int x);\nint main() { return 0; }'
        assert _has_trusted_declarations(source)
        assert not _has_trusted_declarations("// extern trusted only here")
        assert not _has_trusted_declarations('char *s = "extern trusted";')
        # Identifier containing the words is not a declaration either.
        assert not _has_trusted_declarations("int extern_trusted = 1;")


class TestCliBuildAndCache:
    def test_build_then_link_runs_like_compile(self, tmp_path, capsys):
        lib = tmp_path / "lib.mc"
        lib.write_text("int helper(int x) { return x * 3; }\n")
        app = tmp_path / "app.mc"
        app.write_text(
            """
            int helper(int x);
            int main() {
                print_int(helper(14));
                return helper(2);
            }
            """
        )
        out = tmp_path / "prog.bin"
        assert main([
            "build", str(lib), str(app), "--link", str(out), "--seed", "4",
        ]) == 0
        assert "linked 2 object(s)" in capsys.readouterr().out

        from repro.build import load_binary
        from repro.link.loader import load as load_bin

        binary = load_binary(out.read_bytes())
        process = load_bin(binary)
        assert process.run() == 6
        assert "42" in "\n".join(process.stdout)

    def test_build_objects_then_link_objects(self, tmp_path, capsys):
        lib = tmp_path / "lib.mc"
        lib.write_text("int helper(int x) { return x + 1; }\n")
        app = tmp_path / "app.mc"
        app.write_text(
            "int helper(int x);\nint main() { return helper(4); }\n"
        )
        # Stage 1: compile each unit to a .uo object.
        assert main([
            "build", str(lib), str(app),
            "--out-dir", str(tmp_path / "objs"), "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "lib.uo" in out and "app.uo" in out and "key " in out
        # Stage 2: link the prebuilt objects, no sources involved.
        binary_path = tmp_path / "prog.bin"
        assert main([
            "build",
            str(tmp_path / "objs" / "lib.uo"),
            str(tmp_path / "objs" / "app.uo"),
            "--link", str(binary_path), "--seed", "4",
        ]) == 0

        from repro.build import load_binary
        from repro.link.loader import load as load_bin

        assert load_bin(load_binary(binary_path.read_bytes())).run() == 5

    def test_object_config_mismatch_rejected(self, tmp_path, capsys):
        src = tmp_path / "one.mc"
        src.write_text("int main() { return 1; }\n")
        assert main(["build", str(src), "--config", "OurSeg",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["build", str(tmp_path / "one.uo"),
                     "--config", "OurMPX",
                     "--link", str(tmp_path / "x.bin")]) == 1
        assert "built for config" in capsys.readouterr().err

    def test_run_with_cache_dir_warm_identical(self, hello_file, tmp_path,
                                               capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", hello_file, "--cache-dir", cache_dir]) == 7
        cold = capsys.readouterr().out
        assert main(["run", hello_file, "--cache-dir", cache_dir]) == 7
        warm = capsys.readouterr().out
        assert cold == warm

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "1" in out

    def test_bench_json_cold_warm_jobs_identical(self, hello_file, tmp_path,
                                                 capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["bench", hello_file, "--json", "--seed", "2",
                     "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["bench", hello_file, "--json", "--seed", "2",
                     "--cache-dir", cache_dir, "--jobs", "4"]) == 0
        warm = capsys.readouterr().out
        assert cold == warm

    def test_cache_list_and_clear(self, hello_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", hello_file, "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        listing = capsys.readouterr().out.strip()
        assert len(listing.splitlines()) == 1
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_without_dir_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 1
        assert "no cache directory" in capsys.readouterr().err
