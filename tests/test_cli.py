"""CLI behavior: subcommands, exit codes, artifact files."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from reebforge import cli
from reebforge.certify import EmbeddingCertificate, GraphCertificate
from reebforge.errors import InternalError
from reebforge.fields import ScalarField, write_field
from reebforge.gallery import subdivided_sphere
from reebforge.simplicial import write_off


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_certify_oracle(tmp_path, capsys):
    out = tmp_path / "ex1"
    rc, stdout, _ = run_cli(
        ["gen", "example1", "--n", "2", "--certify", "--oracle", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == "nodes=4 arcs=3 b1=0 loops=0 components=1"
    assert lines[1] == "oracle-match"
    for name in ("reeb.json", "certs.json", "mesh.off", "field.txt", "stats.json"):
        assert (out / name).is_file(), name
    certs = json.loads((out / "certs.json").read_text())
    assert certs["ok"] is True
    stats = json.loads((out / "stats.json").read_text())
    assert stats == {"nodes": 4, "arcs": 3, "b1": 0, "loops": 0, "components": 1}


def test_run_round_trip(tmp_path, capsys):
    d1, d2 = tmp_path / "gen", tmp_path / "rerun"
    rc, first, _ = run_cli(["gen", "example1", "--n", "2", "--out", str(d1)], capsys)
    assert rc == 0
    rc, second, _ = run_cli(
        ["run", str(d1 / "mesh.off"), str(d1 / "field.txt"), "--out", str(d2)],
        capsys,
    )
    assert rc == 0
    assert first.splitlines()[0] == second.splitlines()[0]
    assert (d2 / "reeb.json").read_bytes() == (d1 / "reeb.json").read_bytes()
    assert not (d2 / "mesh.off").exists()  # run exports the graph only


def test_missing_mesh_is_input_error(capsys):
    rc, _, err = run_cli(["run", "/no/such/mesh.off", "/no/such/field.txt"], capsys)
    assert rc == 1
    assert err.startswith("error:")


def test_field_count_mismatch(tmp_path, capsys):
    d1 = tmp_path / "gen"
    run_cli(["gen", "example1", "--n", "2", "--out", str(d1)], capsys)
    short = tmp_path / "short.txt"
    short.write_text("".join((d1 / "field.txt").read_text().splitlines(True)[:-1]))
    rc, _, err = run_cli(["run", str(d1 / "mesh.off"), str(short)], capsys)
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_generator(capsys):
    rc, _, err = run_cli(["gen", "doughnut"], capsys)
    assert rc == 1
    assert "unknown generator" in err


def test_bad_format(capsys):
    rc, _, err = run_cli(["gen", "example1", "--format", "yaml"], capsys)
    assert rc == 1
    assert "unknown export format" in err


def test_certificate_failure_exits_2(tmp_path, monkeypatch, capsys):
    bad = GraphCertificate(
        ok=False,
        embedding=(
            EmbeddingCertificate(
                arc_id=0, monotone=False, injective=False, witness=(Fraction(1, 2), 0, 2)
            ),
        ),
        cylindrical=(),
        starlike=(),
    )
    monkeypatch.setattr(cli, "certify_graph", lambda g, c, f: bad)
    rc, stdout, _ = run_cli(
        ["gen", "example1", "--certify", "--out", str(tmp_path / "d")], capsys
    )
    assert rc == 2
    assert "certificate-failure embedding id=0" in stdout
    assert (tmp_path / "d" / "certs.json").is_file()


def test_oracle_mismatch_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "graphs_isomorphic", lambda g, ref: False)
    rc, stdout, _ = run_cli(["gen", "example1", "--oracle"], capsys)
    assert rc == 2
    assert "oracle-mismatch" in stdout


def test_internal_error_exits_1_without_traceback(monkeypatch, capsys):
    def broken(c, field):
        raise InternalError("internal: oracle component 0 of cut 3 is regular")

    monkeypatch.setattr(cli, "oracle_reeb", broken)
    rc, stdout, stderr = run_cli(["gen", "example1", "--oracle"], capsys)
    assert rc == 1
    assert stderr == "error: internal: oracle component 0 of cut 3 is regular\n"
    assert "Traceback" not in stdout + stderr


def test_oracle_skip_on_large_input(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_size_limit", lambda: 3)
    rc, stdout, _ = run_cli(["gen", "example1", "--oracle"], capsys)
    assert rc == 0
    assert "oracle-skipped" in stdout


def test_zoo_writes_per_instance_dirs(tmp_path, capsys):
    out = tmp_path / "zoo"
    rc, stdout, _ = run_cli(["gen", "zoo", "--out", str(out)], capsys)
    assert rc == 0
    names = [
        "tetra", "octahedron", "tent-torus", "column-torus", "genus2", "cycle-spec",
    ]
    for i, name in enumerate(names):
        assert stdout.splitlines()[i].startswith(f"{name}: nodes=")
        for artifact in ("reeb.json", "stats.json", "mesh.off", "field.txt"):
            assert (out / name / artifact).is_file(), (name, artifact)


def test_bench_report(capsys):
    rc, stdout, _ = run_cli(["bench", "sphere", "--n", "2"], capsys)
    assert rc == 0
    report = json.loads(stdout.splitlines()[-1])
    assert report["input"] == "sphere"
    assert report["vertices"] == 66
    assert report["triangles"] == 128
    assert report["seconds"] >= 0
    assert {"nodes", "arcs", "b1", "loops", "components"} <= set(report)


def test_format_dot(tmp_path, capsys):
    out = tmp_path / "dot"
    rc, _, _ = run_cli(
        ["gen", "example1", "--format", "dot,json", "--out", str(out)], capsys
    )
    assert rc == 0
    assert (out / "reeb.dot").read_text().startswith("graph reeb {")
    assert (out / "reeb.json").is_file()


def test_module_entry_point(tmp_path):
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", "reebforge.cli", "gen", "example4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("nodes=3 arcs=2 ")
    assert (out / "reeb.json").is_file()


def test_certs_json_bytes_do_not_depend_on_hash_seed(tmp_path):
    # string hashing changes with PYTHONHASHSEED, and with it the iteration
    # order of the item sets the star-like check collects its pieces from
    c = subdivided_sphere(1)
    rng = random.Random(3)
    mesh, field = tmp_path / "m.off", tmp_path / "f.txt"
    write_off(str(mesh), c)
    write_field(str(field), ScalarField([rng.random() for _ in range(c.vertex_count)]))
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hash{seed}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "reebforge.cli",
                "run", str(mesh), str(field), "--certify", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "certs.json").read_bytes())
    assert outs[0] == outs[1]
