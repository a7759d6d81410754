"""Command line behaviour: verbs, exit codes, deterministic output."""

import json
from fractions import Fraction

import pytest

from arcdual import cli
from arcdual import hochschild as hh
from arcdual import koszul
from arcdual import rewrite as rw
from reference import basis_counts


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


def test_quiver_rejects_both_formats(capsys):
    code, out, err = run(capsys, "quiver", "2", "2", "--dot", "--json")
    assert code == 2
    assert out == ""
    assert "not allowed" in err


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


def _cocycle_22(coeff="1"):
    return [
        {
            "lhs": ["ybar:^v^v->^^vv", "xbar:^^vv->^v^v"],
            "rhs_t": [
                {
                    "coeff": coeff,
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


def test_diamond_deformed_file(tmp_path, capsys):
    f = tmp_path / "cocycle.json"
    f.write_text(json.dumps(_cocycle_22()), encoding="utf-8")
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
    witness = (
        "witness: {'word': '<ybar:v^^v->^v^v xbar:^v^v->^vv^ xbar:^vv^->v^v^>', "
        "'difference': {}, 'difference_t': "
        "{'<xbar:v^^v->v^v^ xbar:v^v^->vv^^ ybar:vv^^->v^v^>': '-1'}}"
    )
    assert witness in err.splitlines()


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

    monkeypatch.setattr(hh, "hh2_bar_oracle", exhausted)
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


@pytest.mark.parametrize("m, n", [("1", "2"), ("2", "1"), ("1", "1")])
def test_deform_needs_a_critical_degree(capsys, m, n):
    # below m, n >= 2 there is no distinguished class to deform along
    code, out, err = run(capsys, "deform", m, n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no distinguished HH^2 class")


def test_deformation_file_decimals_are_exact(tmp_path):
    quiver = koszul.reduction_system(2, 2).quiver
    f = tmp_path / "cocycle.json"
    # the coefficient is the JSON number 0.1, not the string "0.1"
    f.write_text(json.dumps(_cocycle_22("0.1")).replace('"0.1"', "0.1"), encoding="utf-8")
    ((lhs, terms),) = cli._load_deformation(str(f), quiver).items()
    assert lhs == tuple(_cocycle_22()[0]["lhs"])
    assert list(terms.values()) == [Fraction(1, 10)]


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


def test_verify_fails_on_zero_critical_hh2(capsys, monkeypatch):
    # a zero critical HH^2 would refute the deformation theorem at this size
    zero = hh.hh2_certificate(2, 2, 2)._replace(dimension=0)
    monkeypatch.setattr(hh, "hh2_certificate", lambda *args: zero)
    code, out, err = run(capsys, "verify", "2", "2")
    assert code == 1
    assert out.splitlines()[-1] == "failed hh2-critical"
    assert not any(line.startswith("ok hh2-critical") for line in out.splitlines())
    assert "'adams': 2" in err and "'dimension': 0" in err


def test_verify_reports_a_short_basis_bucket_as_graded_failure(capsys, monkeypatch):
    # the dual-system line still certifies the diamond and prints the
    # dimension; the count mismatch is the graded certificate's to report
    full = koszul.irreducible_basis(2, 2)
    counts = basis_counts(2, 2)
    key = max(counts, key=lambda k: (counts[k], k))
    start, end, length = key

    class Short(koszul.IrreducibleBasis):
        def source_counts(self, source):
            found = super().source_counts(source)
            if source == start:
                found[end, length] -= 1
            return found

        def dimension(self):
            return sum(sum(self.source_counts(v).values()) for v in self.sources)

    short = Short(full.system, 2 * 2 * 2 + 1)
    monkeypatch.setattr(koszul, "irreducible_basis", lambda m, n: short)
    code, out, err = run(capsys, "verify", "2", "2")
    assert code == 1
    assert out.splitlines() == [
        "ok rho (36 blocks)",
        "ok dual-system (8 overlaps, dimension 96)",
        "failed graded-dimensions",
    ]
    assert f"witness: {(*key, counts[key] - 1, counts[key])}" in err


def test_usage_unknown_verb(capsys):
    assert run(capsys, "nonsense", "1", "1")[0] == 2


def test_usage_unknown_flag(capsys):
    assert run(capsys, "dim", "1", "1", "--bogus")[0] == 2


def test_usage_negative_type(capsys):
    assert run(capsys, "dim", "-1", "2")[0] == 2


@pytest.mark.parametrize("value", ["-1", "-5", "abc", "1000"])
@pytest.mark.parametrize("verb", ["diamond", "deform", "verify"])
def test_bad_fuel_is_usage_error(capsys, verb, value):
    # every rewrite uses rewrite.DEFAULT_FUEL; --fuel is no option at all
    code, out, err = run(capsys, verb, "2", "2", "--fuel", value)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --fuel" in err


@pytest.fixture
def fresh_resolution():
    """Drop the cached overlap resolution and the HH^2 results read off
    it, before and after the test."""
    caches = (
        koszul.dual_resolution,
        hh.cocycle_constraints,
        hh.hh2_certificate,
        hh._bar_data,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("verb", ["diamond", "deform", "verify"])
def test_zero_fuel_is_exhausted(capsys, monkeypatch, fresh_resolution, verb):
    class Spent(rw._Fuel):
        def __init__(self, amount):
            super().__init__(0)

    monkeypatch.setattr(rw, "_Fuel", Spent)
    code, _, err = run(capsys, verb, "2", "2")
    assert code == 3
    assert "rewriting fuel exhausted" in err


@pytest.mark.parametrize(
    "verb",
    ["weights", "dim", "quiver", "relations", "reduction-system", "diamond", "kl",
     "hh2", "hh2-table", "deform", "verify"],
)
def test_no_verb_offers_fuel(capsys, verb):
    code, out, _ = run(capsys, verb, "--help")
    assert code == 0
    assert "--fuel" not in out


def _flipped_system_22():
    """The (2,2) dual system with the signs of one rule's right-hand side
    flipped: not confluent."""
    system = koszul.reduction_system(2, 2)
    target = next(r for r in system.rules if r.rhs)
    return rw.ReductionSystem(
        system.quiver,
        [
            rw.Rule(r.lhs, tuple((p, -c) for p, c in r.rhs), r.rhs_t, r.tag)
            if r is target
            else r
            for r in system.rules
        ],
    )


def test_hh2_fails_on_a_non_confluent_dual_system(capsys, monkeypatch, fresh_resolution):
    # the cocycle constraints are read off a resolution whose two sides
    # were compared, so a flipped rule sign stops hh2 with a witness
    flipped = _flipped_system_22()
    monkeypatch.setattr(koszul, "reduction_system", lambda m, n: flipped)
    code, out, err = run(capsys, "hh2", "2", "2", "--adams", "0")
    assert code == 1
    assert out == ""
    assert "fails the diamond check" in err
    witness = (
        "witness: {'word': '<ybar:^v^v->^^vv xbar:^^vv->^v^v xbar:^v^v->vv^^>', "
        "'difference': {'<xbar:^v^v->v^^v xbar:v^^v->v^v^ xbar:v^v^->vv^^>': '2'}, "
        "'difference_t': {}}"
    )
    assert witness in err.splitlines()


def test_bar_oracle_fails_on_a_non_confluent_dual_system(
    capsys, monkeypatch, fresh_resolution
):
    # the bar oracle's arrow-step product table assumes confluence, so it
    # must refuse the flipped system rather than print a dimension
    flipped = _flipped_system_22()
    monkeypatch.setattr(koszul, "reduction_system", lambda m, n: flipped)
    monkeypatch.setattr(hh, "reduction_system", lambda m, n: flipped)
    code, out, err = run(capsys, "hh2", "2", "2", "--adams", "0", "--oracle", "bar")
    assert code == 1
    assert out == ""
    assert "fails the diamond check" in err


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
        json.dumps(_cocycle_22("1/0")),
        json.dumps(_cocycle_22("inf")).replace('"inf"', "1e999"),
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


@pytest.mark.parametrize("m,n", [("0", "0"), ("0", "2"), ("2", "0")])
def test_degenerate_type_is_one_dimensional(capsys, monkeypatch, m, n):
    # K(m, n) with m = 0 or n = 0 has one weight and no arrows
    code, out, _ = run(capsys, "verify", m, n)
    assert code == 0
    assert "ok dual-system (0 overlaps, dimension 1)" in out.splitlines()
    code, out, _ = run(capsys, "hh2-table", m, n)
    assert code == 0
    assert out == "0 0\n"
    code, out, _ = run(capsys, "hh2", m, n, "--adams", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"
    code, out, _ = run(capsys, "diamond", m, n)
    assert code == 0
    assert out.splitlines() == ["overlaps 0", "ok"]
    code, out, _ = run(capsys, "reduction-system", m, n, "--json")
    assert code == 0
    assert json.loads(out) == []
    code, out, err = run(capsys, "deform", m, n)
    assert code == 2
    assert out == ""
    assert "vanishes" in err
    # degree 0 is cross-checked, so a disagreeing oracle fails verify
    monkeypatch.setattr(hh, "hh2_bar_oracle", lambda *args: 1)
    code, out, _ = run(capsys, "verify", m, n)
    assert code == 1
    assert out.splitlines()[-1] == "failed bar-oracle"


def test_closed_pipe_exits_141_without_traceback():
    # `arcdual relations 4 3 | head -1`: the reader takes one line and
    # closes the pipe.  The pipe is shrunk to one page before the CLI
    # starts, so the 38 KB of output must block on the reader, and the
    # write after the close fails whatever the scheduling.
    import fcntl
    import os
    import subprocess
    import sys
    from pathlib import Path

    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ to size the pipe")
    path = filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                         os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    with os.fdopen(read_end, "rb", buffering=0) as reader:
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from arcdual.cli import main; sys.exit(main())",
             "relations", "4", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
        os.close(write_end)
        line = b""
        while not line.endswith(b"\n"):
            byte = reader.read(1)
            if not byte:  # the CLI exited before a whole line
                break
            line += byte
    _, err = child.communicate(timeout=120)
    assert line == b"vvvv^^^ -> vvv^^v^\n"
    assert child.returncode == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
