"""Command-line surface: formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from cayleykit import load_table_cache, parse_model, save_table_cache
from cayleykit import cayley, cli
from cayleykit.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_text_and_json(capsys):
    code, out, _ = _run(capsys, ["dist", "--model", "z2", "(0,0)", "(4,3)"])
    assert code == 0
    assert out == "7\n"
    code, out, _ = _run(
        capsys, ["dist", "--model", "z2", "(0,0)", "(4,3)", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["distance"] == 7
    assert data["model"] == "z2"


def test_geodesics_enumeration(capsys):
    code, out, _ = _run(
        capsys, ["geodesics", "--model", "cyclic:6", "0", "3", "--enumerate"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance: 3"
    assert lines[1] == "count: 2"
    assert set(lines[2:]) == {"1 1 1", "5 5 5"}
    code, out, _ = _run(
        capsys,
        ["geodesics", "--model", "z2", "(0,0)", "(2,2)", "--enumerate", "--cap", "2",
         "--format", "json"],
    )
    data = json.loads(out)
    assert data["count"] == 6
    assert len(data["words"]) == 2
    assert data["truncated"] is True


def test_geodesic_count_at_a_long_z2_distance(capsys):
    code, out, _ = _run(capsys, ["geodesics", "--model", "z2", "(0,0)", "(700,700)"])
    assert code == 0
    assert out == f"distance: 1400\ncount: {comb(1400, 700)}\n"


def test_interval_stats_text(capsys):
    code, out, _ = _run(
        capsys,
        ["interval", "--model", "sym-circular:4", "e", "(1,3,4,2)", "--stats"],
    )
    assert code == 0
    assert "profile: 1,3,3,1" in out
    assert "geodesics: 4" in out
    assert "max antichain: 4" in out
    assert "sperner: no" in out


def test_interval_json_and_dot(capsys):
    code, out, _ = _run(
        capsys,
        ["interval", "--model", "z2", "(0,0)", "(2,2)", "--format", "json", "--stats"],
    )
    data = json.loads(out)
    assert data["size"] == 9
    assert data["stats"]["geodesic_count"] == 6
    assert data["stats"]["is_lattice"] is True
    code, out, _ = _run(
        capsys, ["interval", "--model", "z2", "(0,0)", "(1,1)", "--format", "dot"]
    )
    assert out.startswith("digraph interval {")
    assert out.count("->") == 4


def test_interval_partial(capsys):
    code, out, _ = _run(
        capsys,
        ["interval", "--model", "sym-circular:5", "e", "(1,3)(2,4)", "--partial", "1",
         "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["front_profile"][0] == 1
    assert data["back_sets"][0] == ["(1,3)(2,4)"]
    code, _, err = _run(
        capsys,
        ["interval", "--model", "z2", "(0,0)", "(1,1)", "--partial", "1",
         "--format", "dot"],
    )
    assert code == 2
    assert "full interval" in err
    code, out, err = _run(
        capsys,
        ["interval", "--model", "sym-circular:5", "e", "(1,3)(2,4)", "--partial", "1",
         "--stats"],
    )
    assert (code, out) == (2, "")
    assert err == "error: --stats requires the full interval, not --partial\n"


def test_classify_all(capsys):
    code, out, _ = _run(
        capsys,
        ["classify", "--model", "sym-circular:4", "--relation", "size", "--all",
         "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    histogram = {c["signature"]: len(c["members"]) for c in data["classes"]}
    assert histogram == {1: 1, 2: 4, 3: 8, 4: 2, 8: 4, 10: 4, 20: 1}
    code, _, err = _run(capsys, ["classify", "--model", "z2", "--relation", "length"])
    assert code == 2
    assert "no elements" in err


def test_census_figures(capsys):
    code, out, _ = _run(capsys, ["census", "--model", "cyclic:6", "--figure", "6"])
    assert code == 0
    assert out.splitlines()[0] == "signature,count,representative"
    assert "6,1,3" in out.splitlines()
    code, out, _ = _run(
        capsys, ["census", "--model", "sym-circular:4", "--figure", "5", "--format", "json"]
    )
    data = json.loads(out)
    assert data["relation"] == "length"
    assert data["total"] == 24
    code, _, err = _run(capsys, ["census", "--model", "z2", "--figure", "6"])
    assert code == 3


def test_median_default_json_matches_documented_example(capsys):
    code, out, _ = _run(
        capsys, ["median", "--model", "sym-circular:5", "e", "(1,3)", "(2,4,5)"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["parity_ok"] is True
    assert data["weight"] == 6
    assert data["medians"]
    # the parity law is checked on circular sets only, with no flag to ask for it
    code, out, _ = _run(capsys, ["median", "--model", "z2", "(0,0)", "(4,0)", "(0,4)"])
    assert code == 0
    assert json.loads(out)["parity_ok"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["median", "--model", "sym-custom:6:(1,2);(1,2,3,4,5,6)", "e", "(1,4)", "(2,5,6)"],
        ["median", "--model", "cyclic:7:semigroup", "0", "1", "2"],
    ],
)
def test_median_under_a_directed_set_exits_3_with_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "inverse-closed" in err


def test_median_text_format(capsys):
    code, out, _ = _run(
        capsys,
        ["median", "--model", "z2", "(0,0)", "(4,0)", "(0,4)", "--format", "text"],
    )
    assert code == 0
    assert "weight: 8" in out
    assert "medians: (0,0)" in out


def test_normaliser_check_and_enumerate(capsys):
    code, out, _ = _run(
        capsys, ["normaliser", "--model", "sym-circular:5", "--check", "(1,2,3,4,5)"]
    )
    assert code == 0 and out == "yes\n"
    code, out, _ = _run(
        capsys, ["normaliser", "--model", "sym-circular:5", "--check", "(1,2)"]
    )
    assert code == 0 and out == "no\n"
    code, out, _ = _run(
        capsys, ["normaliser", "--model", "sym-circular:5", "--enumerate"]
    )
    assert "order: 10" in out
    assert len(out.splitlines()) == 12  # two header lines + ten members
    code, out, _ = _run(capsys, ["normaliser", "--model", "sym-circular:9"])
    assert code == 0 and out == "model: sym-circular:9\norder: 18\n"


def test_census_and_normaliser_refuse_ten_points(capsys):
    # one limit for both: the table strategy's model predicate
    for argv in (["census", "--model", "sym-circular:10", "--figure", "6"],
                 ["normaliser", "--model", "sym-circular:10", "--enumerate"]):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1 and "sym-circular:10 is too" in err, argv


def test_cache_build_verify_and_corruption(tmp_path, capsys):
    argv = ["cache", "build", "--model", "sym-circular:5", "--cache-dir", str(tmp_path)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    path = Path(out.split()[1])
    assert path.exists()
    code, out, _ = _run(
        capsys, ["cache", "verify", "--model", "sym-circular:5", "--cache-dir", str(tmp_path)]
    )
    assert code == 0 and out.startswith("ok ")
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0x01
    path.write_bytes(bytes(raw))
    code, _, err = _run(
        capsys, ["cache", "verify", "--model", "sym-circular:5", "--cache-dir", str(tmp_path)]
    )
    assert code == 4
    assert "sym-circular-5" in err
    code, _, err = _run(
        capsys, ["cache", "verify", "--model", "sym-circular:4", "--cache-dir", str(tmp_path)]
    )
    assert code == 4
    assert "no cache file" in err


def test_cached_oracle_serves_the_dist_command(tmp_path, capsys):
    code, _, _ = _run(
        capsys, ["cache", "build", "--model", "sym-circular:5", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    code, out, _ = _run(
        capsys,
        ["dist", "--model", "sym-circular:5", "(1,2)", "(1,3,5)",
         "--cache-dir", str(tmp_path)],
    )
    assert code == 0
    assert out.strip().isdigit()


def test_dist_reads_an_existing_cache_file_and_otherwise_searches(tmp_path, capsys, monkeypatch):
    model = parse_model("sym-circular:6")
    lengths = load_table_cache(model, _build_s6_cache(capsys, tmp_path))
    lengths[719] = 9  # the reversal is at 7; a checksummed file that says 9
    save_table_cache(model, lengths, cayley.cache_path(model, tmp_path))
    dist = ["dist", "--model", "sym-circular:6", "e", "(1,6)(2,5)(3,4)"]
    assert _run(capsys, [*dist, "--cache-dir", str(tmp_path)])[1] == "9\n"
    # with no cache file and no --strategy, one dist is one search: no table is built
    monkeypatch.setattr(cayley, "_bfs_table", lambda *a: pytest.fail("built a table"))
    assert _run(capsys, dist)[1] == "7\n"
    assert _run(capsys, [*dist, "--cache-dir", str(tmp_path / "empty")])[1] == "7\n"
    with pytest.raises(pytest.fail.Exception, match="built a table"):
        main([*dist, "--strategy", "table"])


def _build_s6_cache(capsys, cache_dir) -> Path:
    argv = ["cache", "build", "--model", "sym-circular:6", "--cache-dir", str(cache_dir)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    return Path(out.split()[1])


def _cache_readers(cache_dir):
    """A cached dist (e to the reversal, rank 719, distance 7) and a cache verify."""
    model = ("--model", "sym-circular:6", "--cache-dir", str(cache_dir))
    return (["dist", *model, "e", "(1,6)(2,5)(3,4)"], ["cache", "verify", *model])


def _assert_one_line_exit_4(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 4, (argv, out, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_truncated_cache_header_exits_4_with_one_line(tmp_path, capsys):
    path = _build_s6_cache(capsys, tmp_path)
    raw = path.read_bytes()
    header_len = len(raw) - 720
    assert header_len > 7
    for cut in range(header_len + 1):
        path.write_bytes(raw[:cut])
        for argv in _cache_readers(tmp_path):
            _assert_one_line_exit_4(capsys, argv)


def test_flipped_payload_byte_is_refused_by_dist_and_verify(tmp_path, capsys):
    path = _build_s6_cache(capsys, tmp_path)
    dist_argv, verify_argv = _cache_readers(tmp_path)
    code, out, _ = _run(capsys, dist_argv)
    assert code == 0 and out == "7\n"
    raw = bytearray(path.read_bytes())
    assert raw[-1] == 7
    raw[-1] ^= 0x0E  # the reversal would read 9
    path.write_bytes(bytes(raw))
    _assert_one_line_exit_4(capsys, dist_argv)
    _assert_one_line_exit_4(capsys, verify_argv)


def test_cache_verify_refuses_a_checksummed_table_with_a_jump(tmp_path, capsys):
    path = _build_s6_cache(capsys, tmp_path)
    model = parse_model("sym-circular:6")
    lengths = load_table_cache(model, path)
    lengths[120] = 3  # the identity's neighbour along generator 0
    save_table_cache(model, lengths, path)
    _, verify_argv = _cache_readers(tmp_path)
    code, out, err = _run(capsys, verify_argv)
    assert code == 4 and out == ""
    assert err == f"error: {path}: rank 120 stores 3, the distance equation gives 1\n"


def test_cache_build_under_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["cache", "build", "--model", "sym-circular:5", "--cache-dir", str(blocker / "sub")]
    code, out, err = _run(capsys, argv)
    assert code == 4 and out == ""
    assert err == f"error: {blocker / 'sub' / 'sym-circular-5.cayd'}: cannot write: Not a directory\n"


def test_custom_sets_that_differ_only_in_separators_keep_separate_caches(tmp_path, capsys):
    # the names once both mapped to sym-custom-5-1-2-3-4-5-1-3-.cayd
    models = {"sym-custom:5:(1,2)(3,4,5);(1,3)": "3\n", "sym-custom:5:(1,2);(3,4,5);(1,3)": "1\n"}
    (tmp_path / "sym-custom-5-1-2-3-4-5-1-3-.cayd").write_bytes(b"a cache under the old name")
    for name in models:
        assert _run(capsys, ["cache", "build", "--model", name, "--cache-dir", str(tmp_path)])[0] == 0
    for name, want in models.items():
        argv = ["dist", "--model", name, "--cache-dir", str(tmp_path), "e", "(1,2)"]
        assert _run(capsys, argv) == (0, want, "")
        argv = ["cache", "verify", "--model", name, "--cache-dir", str(tmp_path)]
        assert _run(capsys, argv)[0] == 0
    assert len(list(tmp_path.iterdir())) == 3


@pytest.mark.parametrize("command", ["dist", "verify", "build"])
def test_cache_file_that_is_a_directory_exits_4(tmp_path, capsys, command):
    path = tmp_path / "sym-circular-5.cayd"
    path.mkdir()
    model = ("--model", "sym-circular:5", "--cache-dir", str(tmp_path))
    argv = {
        "dist": ["dist", *model, "e", "(1,3)"],
        "verify": ["cache", "verify", *model],
        "build": ["cache", "build", *model],
    }[command]
    code, out, err = _run(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith(f"error: {path}: cannot ") and err.count("\n") == 1
    assert err.endswith(": Is a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_parse_error_exit_codes(capsys):
    code, _, err = _run(capsys, ["dist", "--model", "nope", "e", "e"])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["dist", "--model", "sym-circular:4", "(1,9)", "e"])
    assert code == 2
    code, _, err = _run(capsys, ["median", "--model", "cyclic:5", "0", "1", "seven"])
    assert code == 2


def test_outputs_are_byte_deterministic(capsys):
    argv = ["census", "--model", "sym-circular:5", "--figure", "6"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv = ["interval", "--model", "sym-circular:5", "(1,2)", "(1,3)(2,4)",
            "--format", "json", "--stats"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "dist", "--model", "z2", "(0,0)", "(1,2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_process(*argv: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "cayleykit.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        **kwargs,
    )


def test_a_reader_closing_the_pipe_ends_the_call_quietly():
    proc = _cli_process("interval", "--model", "z2", "(0,0)", "(300,300)", "--format", "json")
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b"{")
    assert err == ""


def _address_space_limit(mb: int):
    """A preexec_fn that caps the child's address space at mb megabytes."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))


def test_running_out_of_memory_is_one_line_and_exit_3():
    proc = _cli_process(
        "interval", "--model", "z2", "(0,0)", "(2000,2000)", preexec_fn=_address_space_limit(256)
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err.decode()) == (3, b"", "error: out of memory\n")


def test_interval_stats_fit_in_memory_linear_in_the_interval():
    # 90,601 elements; up-set masks over the whole interval would take about 1 GB
    proc = _cli_process(
        "interval", "--model", "z2", "(0,0)", "(300,300)", "--stats",
        preexec_fn=_address_space_limit(512),
    )
    out, err = proc.communicate(timeout=300)
    assert (proc.returncode, err.decode()) == (0, "")
    lines = out.decode().splitlines()
    assert "max antichain: 301" in lines
    assert "lattice: yes" in lines


def test_an_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_oracle", interrupted)
    code, out, err = _run(capsys, ["dist", "--model", "sym-circular:5", "e", "(1,2)"])
    assert (code, out, err) == (130, "", "error: interrupted\n")
