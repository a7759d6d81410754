"""Command line behaviour: verbs, exit codes, deterministic output."""

import json

import pytest

from arcdual import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights(capsys):
    code, out, _ = run(capsys, "weights", "1", "2")
    assert code == 0
    assert out.splitlines() == ["v^^", "^v^", "^^v"]


def test_weights_json(capsys):
    code, out, _ = run(capsys, "weights", "1", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"m": 1, "n": 2, "weights": ["v^^", "^v^", "^^v"]}


def test_dim_total(capsys):
    code, out, _ = run(capsys, "dim", "2", "2")
    assert code == 0
    assert out.splitlines()[-1] == "total 47"
    assert "q=0 dim=6" in out


def test_dim_json_graded_vector(capsys):
    code, out, _ = run(capsys, "dim", "1", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 13
    assert sum(data["graded"].values()) == 13


def test_quiver_requires_format(capsys):
    code, _, err = run(capsys, "quiver", "1", "2")
    assert code == 2
    assert "error" in err


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "quiver", "1", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph quiver {")
    assert '"v^^" -> "^v^" [label="x:v^^->^v^"];' in out
    # vertices listed by (height, lex)
    lines = out.splitlines()
    assert lines[1:4] == ['  "v^^";', '  "^v^";', '  "^^v";']


def test_quiver_dual_json(capsys):
    code, out, _ = run(capsys, "quiver", "2", "2", "--dual", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dual"] is True
    assert len(data["arrows"]) == 14
    names = [a["name"] for a in data["arrows"]]
    assert names == sorted(names)


def test_relations_json_integer_rows(capsys):
    code, out, _ = run(capsys, "relations", "1", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data
    for block in data:
        for row in block["rows"]:
            assert all(isinstance(c, int) for c in row)
            assert any(c != 0 for c in row)


def test_reduction_system_json_tags(capsys):
    code, out, _ = run(capsys, "reduction-system", "2", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 17
    assert {r["tag"] for r in data} == {"I", "II", "III"}
    for r in data:
        for term in r["rhs"]:
            assert isinstance(term["coeff"], str)


def test_diamond(capsys):
    code, out, _ = run(capsys, "diamond", "2", "2")
    assert code == 0
    assert out.splitlines() == ["overlaps 8", "ok"]


def test_diamond_deformed_file(tmp_path, capsys):
    cocycle = [
        {
            "lhs": ["ybar:^v^v->^^vv", "xbar:^^vv->^v^v"],
            "rhs_t": [
                {
                    "coeff": "1",
                    "path": [
                        "xbar:^v^v->vv^^",
                        "ybar:vv^^->v^v^",
                        "ybar:v^v^->v^^v",
                        "ybar:v^^v->^v^v",
                    ],
                }
            ],
        }
    ]
    f = tmp_path / "cocycle.json"
    f.write_text(json.dumps(cocycle), encoding="utf-8")
    code, out, _ = run(capsys, "diamond", "2", "2", "--deformed", str(f))
    assert code == 0
    assert out.splitlines() == ["overlaps 8", "ok"]


def test_diamond_deformed_non_cocycle_fails(tmp_path, capsys):
    bad = [
        {
            "lhs": ["ybar:v^^v->^v^v", "xbar:^v^v->v^^v"],
            "rhs_t": [
                {
                    "coeff": "1",
                    "path": ["xbar:v^^v->v^v^", "ybar:v^v^->v^^v"],
                }
            ],
        }
    ]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad), encoding="utf-8")
    code, out, err = run(capsys, "diamond", "2", "2", "--deformed", str(f))
    assert code == 1
    assert "failed" in out
    assert "witness" in err


def test_kl_table(capsys):
    code, out, _ = run(capsys, "kl", "1", "2")
    assert code == 0
    assert "v^^ ^^v q^2" in out.splitlines()


def test_kl_at_one(capsys):
    code, out, _ = run(capsys, "kl", "1", "2", "--at-one")
    assert code == 0
    assert "v^^ ^^v 1" in out.splitlines()


def test_hh2_prints_dimension_and_certificate(capsys):
    code, out, _ = run(capsys, "hh2", "2", "2", "--adams", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    cert = json.loads(lines[1])
    assert cert["kernel_dim"] == 11
    assert cert["image_rank"] == 10
    assert cert["constraint_normal_vector"] == [0, -1, 1, 0, 0, -1, 1, -1, 1, 1, -1]


def test_hh2_json(capsys):
    code, out, _ = run(capsys, "hh2", "2", "2", "--adams", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 0
    assert data["certificate"]["constraint_normal_vector"] is None


def test_hh2_bar_oracle(capsys):
    code, out, _ = run(capsys, "hh2", "2", "2", "--adams", "2", "--oracle", "bar")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_hh2_bar_oracle_capacity_exit(capsys):
    code, _, err = run(capsys, "hh2", "3", "2", "--adams", "6", "--oracle", "bar")
    assert code == 3
    assert "capacity" in err


def test_out_of_memory_is_a_resource_exit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.hh, "hh2_bar_oracle", exhausted)
    code, out, err = run(capsys, "hh2", "2", "2", "--adams", "0", "--oracle", "bar")
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")


def test_hh2_bar_oracle_env_capacity(capsys, monkeypatch):
    monkeypatch.setenv("ARCDUAL_BAR_CAPACITY", "500")
    code, out, _ = run(capsys, "hh2", "3", "2", "--adams", "6", "--oracle", "bar")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_hh2_table_stdout_is_data_stderr_is_timing(capsys):
    code, out, err = run(capsys, "hh2-table", "2", "2")
    assert code == 0
    data_lines = out.splitlines()
    assert data_lines == ["0 3", "2 1", "4 0", "6 0"]
    assert any(line.endswith("s") for line in err.splitlines())


def test_hh2_table_stdout_reproducible(capsys):
    _, first, _ = run(capsys, "hh2-table", "2", "2")
    _, second, _ = run(capsys, "hh2-table", "2", "2")
    assert first == second


def test_deform_emit_relations(capsys):
    code, out, _ = run(capsys, "deform", "2", "2", "--alpha2", "1", "--emit-relations")
    assert code == 0
    assert "ȳ11 x̄11 + x̄21 ȳ21 + x̄12 ȳ12 = x̄2 ȳ32 ȳ22 ȳ21" in out.splitlines()
    head = json.loads(out.split("\n\n")[0])
    assert head["order_one_ok"] is True
    assert head["at_one_ok"] is True
    assert head["a_infinity"] == "m_4(y21 ⊗ y22 ⊗ y32 ⊗ x2) = x11 y11"
    assert len(head["rules"]) == 17
    deformed = [r for r in head["rules"] if r["rhs_t"]]
    assert len(deformed) == 1
    assert all(isinstance(t["coeff"], str) for t in deformed[0]["rhs_t"])


def test_deform_scaled(capsys):
    code, out, _ = run(capsys, "deform", "2", "2", "--alpha2", "2/3")
    assert code == 0
    data = json.loads(out)
    assert data["alpha2"] == "2/3"
    deformed = [r for r in data["rules"] if r["rhs_t"]]
    assert deformed[0]["rhs_t"][0]["coeff"] == "2/3"


def test_deform_rejects_bad_scale(capsys):
    code, _, err = run(capsys, "deform", "2", "2", "--alpha2", "x")
    assert code == 2
    assert "rational" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "1", "3")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("ok rho") for line in lines)
    assert any(line.startswith("ok dual-system") for line in lines)
    assert any(line.startswith("ok graded-dimensions") for line in lines)
    assert any(line.startswith("ok bar-oracle") for line in lines)


def test_verify_full_suite_22(capsys):
    code, out, _ = run(capsys, "verify", "2", "2")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("ok long-relations") for line in lines)
    assert any(line.startswith("ok hh2-critical") for line in lines)


def test_usage_unknown_verb(capsys):
    assert run(capsys, "nonsense", "1", "1")[0] == 2


def test_usage_unknown_flag(capsys):
    assert run(capsys, "dim", "1", "1", "--bogus")[0] == 2


def test_usage_negative_type(capsys):
    assert run(capsys, "dim", "-1", "2")[0] == 2


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", ""])
@pytest.mark.parametrize(
    "variable,argv",
    [
        ("ARCDUAL_CAPACITY", ("weights", "1", "1")),
        ("ARCDUAL_BAR_CAPACITY", ("hh2", "1", "1", "--adams", "0", "--oracle", "bar")),
        ("ARCDUAL_BAR_CAPACITY", ("verify", "1", "1")),
    ],
)
def test_bad_capacity_variable_exits_3(capsys, monkeypatch, variable, argv, value):
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert variable in err
    assert out == ""


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        b"\xff\xfe",
        '{"lhs": 1}',
        '[{"rhs_t": []}]',
        '[{"lhs": 5}]',
        '[{"lhs": ["not-an-arrow", "x"], "rhs_t": []}]',
        '[{"lhs": ["xbar:^^vv->^v^v"], "rhs_t": []}]',
    ],
)
def test_diamond_deformed_bad_file_is_usage_error(tmp_path, capsys, content):
    f = tmp_path / "cocycle.json"
    if isinstance(content, bytes):
        f.write_bytes(content)
    elif content is not None:
        f.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "diamond", "2", "2", "--deformed", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(f) in err


def test_diamond_deformed_directory_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "diamond", "2", "2", "--deformed", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")
