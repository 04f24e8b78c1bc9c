"""Command-line surface: formats, determinism, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

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
    code, _, err = _run(
        capsys,
        ["median", "--model", "z2", "(0,0)", "(4,0)", "(0,4)", "--parity-check"],
    )
    assert code == 3
    assert "circular" in err


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
    code, _, _ = _run(capsys, ["normaliser", "--model", "sym-circular:9"])
    assert code == 3


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


def test_cache_build_under_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["cache", "build", "--model", "sym-circular:5", "--cache-dir", str(blocker / "sub")]
    code, out, err = _run(capsys, argv)
    assert code == 4 and out == ""
    assert err == f"error: {blocker / 'sub' / 'sym-circular-5.cayd'}: cannot write: Not a directory\n"


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
