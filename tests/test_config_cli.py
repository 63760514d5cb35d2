"""Configuration parsing and the command line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supdeform import homology
from supdeform.brackets import DeformationKind
from supdeform.chains import ChainComplexSystem
from supdeform.cli import _write_json, main
from supdeform.config import ConfigError, load_config
from supdeform.scalars import format_over

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
AFF_G0P = str(ROOT / "bench" / "configs" / "aff1-aff1-g0prime.cfg")

STANDARD_CFG = """
[algebra]
dim = 2
bracket 1 2 -> 1 : 1

[phi]
coeffs = 0 1

[deformation]
kind = standard

[run]
weights = -3
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_shipped_standard_config(self):
        config = load_config(str(CONFIG_DIR / "dim2-standard.cfg"))
        assert config.algebra.n == 2
        assert config.deformation.kind is DeformationKind.STANDARD
        assert config.phi.coeffs == (Fraction(0), Fraction(1))
        assert config.weights == [-3]
        assert config.extension == "none"

    def test_shipped_configs_all_parse(self):
        for name in (
            "dim2-standard.cfg",
            "dim2-trivial.cfg",
            "dim2-extended.cfg",
            "heisenberg-nonclosed.cfg",
            "heisenberg-closed.cfg",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert load_config(str(CONFIG_DIR / name)) is not None

    def test_phi_defaults_to_zero(self, tmp_path):
        cfg = STANDARD_CFG.replace("[phi]\ncoeffs = 0 1\n", "")
        config = load_config(write(tmp_path, cfg))
        assert config.phi.is_zero()

    def test_inconsistent_duplicate_bracket(self, tmp_path):
        cfg = STANDARD_CFG.replace(
            "bracket 1 2 -> 1 : 1", "bracket 1 2 -> 1 : 1\nbracket 2 1 -> 1 : 1"
        )
        with pytest.raises(ConfigError, match="duplicate structure constant"):
            load_config(write(tmp_path, cfg))

    def test_jacobi_violation_surfaced(self, tmp_path):
        cfg = """
[algebra]
dim = 3
bracket 1 2 -> 3 : 1
bracket 2 3 -> 1 : 1
bracket 3 1 -> 1 : 1

[deformation]
kind = standard
"""
        with pytest.raises(ConfigError, match="Jacobi"):
            load_config(write(tmp_path, cfg))

    def test_unknown_key_named_with_line(self, tmp_path):
        cfg = STANDARD_CFG.replace("weights = -3", "weightz = -3")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'weightz'"):
            load_config(write(tmp_path, cfg))

    def test_phi_length_mismatch(self, tmp_path, capsys):
        for coeffs in ("coeffs = 0 1 2", "coeffs ="):
            path = write(tmp_path, STANDARD_CFG.replace("coeffs = 0 1", coeffs))
            with pytest.raises(ConfigError, match="^line 7: phi needs exactly 2 coefficients$"):
                load_config(path)
        # the empty line used to escape as an IndexError, exit 1 for every command
        assert main(["betti", "--config", path]) == 2
        assert "line 7: phi needs exactly 2 coefficients" in capsys.readouterr().err

    def test_trivial_requires_F(self, tmp_path):
        cfg = STANDARD_CFG.replace("kind = standard", "kind = trivial")
        with pytest.raises(ConfigError, match="needs an F specification"):
            load_config(write(tmp_path, cfg))

    def test_trivial_table_parsing_and_symmetry(self, tmp_path):
        cfg = STANDARD_CFG.replace(
            "kind = standard", "kind = trivial\nF = table\nF 0 0 = 1\nF 0 1 = 2\nF 1 0 = 2"
        )
        config = load_config(write(tmp_path, cfg))
        assert config.deformation.F.value(0, 1) == 2
        bad = STANDARD_CFG.replace(
            "kind = standard", "kind = trivial\nF = table\nF 0 1 = 2\nF 1 0 = 3"
        )
        with pytest.raises(ConfigError, match="not symmetric"):
            load_config(write(tmp_path, bad))

    def test_incomplete_F_table_needs_zero_phi(self, tmp_path):
        cfg = STANDARD_CFG.replace("kind = standard", "kind = trivial\nF = table\nF 0 0 = 1")
        with pytest.raises(ConfigError, match=r"line 11: F table has no entry for degrees \(0,1\)"):
            load_config(write(tmp_path, cfg))
        # with phi = 0 the bracket never reads F, so a partial table is fine
        config = load_config(write(tmp_path, cfg.replace("coeffs = 0 1", "coeffs = 0 0")))
        assert config.deformation.F.describe() == "table on 1 pairs"

    def test_F_rejected_for_standard(self, tmp_path):
        cfg = STANDARD_CFG.replace("kind = standard", "kind = standard\nF = kappa 1")
        with pytest.raises(ConfigError, match="only be specified for the trivial"):
            load_config(write(tmp_path, cfg))


class TestCli:
    def _cfg(self, name):
        return str(CONFIG_DIR / name)

    def test_validate_exit_zero(self, capsys):
        assert main(["validate", "--config", self._cfg("dim2-standard.cfg")]) == 0
        out = capsys.readouterr().out
        assert "jacobi: ok" in out

    def test_axioms_pass_and_fail_exit_codes(self, capsys):
        assert main(["axioms", "--config", self._cfg("dim2-standard.cfg")]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["axioms", "--config", self._cfg("heisenberg-nonclosed.cfg")]) == 1
        out = capsys.readouterr().out
        assert "witness" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[algebra]\ndim = nope\n")
        assert main(["betti", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["axioms", "betti"])
    @pytest.mark.parametrize(
        "f_lines, message",
        [
            ("F = table\nF 0 0 = 1", "line 13: F table has no entry for degrees (0,1)"),
            ("F =", "line 13: bad F specification ''"),
        ],
    )
    def test_bad_F_exit_two_without_traceback(self, tmp_path, command, f_lines, message):
        text = (CONFIG_DIR / "dim2-trivial.cfg").read_text().replace("F = constant 1", f_lines)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "supdeform.cli", command, "--config", write(tmp_path, text)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_missing_file_exit_two(self, capsys):
        assert main(["betti", "--config", "/nonexistent.cfg"]) == 2

    def test_max_degree_is_an_unknown_key(self, tmp_path, capsys):
        """A cap on the chain degree cut the complex before its longest word
        and printed a kernel as the top Betti number; the key is gone."""
        text = (CONFIG_DIR / "dim2-extended.cfg").read_text().replace("[run]", "[run]\nmax_degree = 2")
        assert main(["betti", "--config", write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key 'max_degree' in [run]" in captured.err

    @pytest.mark.parametrize("command", ["chain", "betti"])
    def test_internal_failure_exits_one_without_traceback(self, monkeypatch, capsys, command):
        """A failed assembly exits 1 with stdout empty, also when it fails
        only at the second weight, after the first weight's matrices."""
        original = homology.boundary_matrices

        def broken(system, w):
            for M in original(system, w):
                if w in failing:
                    raise RuntimeError("boundary image left the expected weight space")
                yield M

        monkeypatch.setattr(homology, "boundary_matrices", broken)
        for failing, weights in [({-3}, []), ({-3}, ["--weight", "-2", "--weight", "-3"])]:
            # an escaping exception would fail this call instead of returning 1
            assert main([command, "--config", self._cfg("dim2-standard.cfg"), *weights]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "internal consistency failure: boundary image left the expected weight space\n"

    def test_betti_json_round_trip_byte_identical(self, capsys):
        assert main(["betti", "--config", self._cfg("dim2-extended.cfg"), "--format", "json"]) == 0
        out = capsys.readouterr().out.strip()
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) == out
        report = payload["reports"][0]
        assert report["dims"] == [1, 4, 6, 4, 1]
        assert [case["betti"] for case in report["special"]] == [[0, 1, 2, 1, 0], [0, 1, 2, 1, 0]]

    def test_betti_standard_cli_golden(self, capsys):
        assert main(["betti", "--config", self._cfg("dim2-standard.cfg"), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["dims"] == [1, 2, 1]
        assert report["generic"]["kernels"] == [1, 1, 0]
        assert report["generic"]["betti"] == [0, 0, 0]
        assert report["special_locus"] == [["0", "1"], ["2/3", "1"]]
        by_point = {case["point"]: case for case in report["special"]}
        assert by_point["0"]["betti"] == [0, 1, 1]
        assert by_point["-2/3"]["betti"] == [1, 1, 0]

    def test_betti_weight_flag_overrides(self, capsys):
        assert main(["betti", "--config", self._cfg("dim2-standard.cfg"), "--weight", "-2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["weight"] for r in payload["reports"]] == [-2]

    def test_chain_dump(self, capsys):
        assert main(["chain", "--config", self._cfg("dim2-standard.cfg"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        degrees = payload["weights"][0]["chain"]
        assert [len(entry["basis"]) for entry in degrees] == [1, 2, 1]

    def test_ffamily_commands(self, capsys):
        assert main(["ffamily", "--closed", "--grid", "8", "--format", "json"]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert closed["space"]["dimension"] == 1
        assert main(["ffamily", "--nonclosed", "--grid", "8", "--format", "json"]) == 0
        nonclosed = json.loads(capsys.readouterr().out)
        assert nonclosed["space"]["dimension"] == 0

    def test_ffamily_json_round_trip(self, capsys):
        assert main(["ffamily", "--closed", "--grid", "4", "--format", "json"]) == 0
        out = capsys.readouterr().out.strip()
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out

    def test_schouten_command(self, capsys):
        assert main(["schouten", "--config", self._cfg("dim2-standard.cfg")]) == 0
        out = capsys.readouterr().out
        assert "1-cocycle: True" in out

    def test_schouten_degree_one_check_reads_the_bracket_table(self, monkeypatch, capsys):
        """A deformed bracket that doubles [y_i, y_j] fails the degree-1
        reduction, while the phi = 0 reduction still holds."""
        from supdeform import axioms

        original = axioms.multivector_monomial_bracket

        def doubled_on_vectors(spec, phi, I, J):
            image = original(spec, phi, I, J)
            return {ids: c + c for ids, c in image.items()} if len(I) == len(J) == 1 else image

        monkeypatch.setattr(axioms, "multivector_monomial_bracket", doubled_on_vectors)
        assert main(["schouten", "--config", self._cfg("dim2-standard.cfg"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree_one_reduces_to_lie"] is False
        assert payload["zero_phi_reduces_to_schouten"] is True

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("axioms", "7c505f847856cd9eafa8cd414ba4b5cb71a509f9933820c725cd0df34a4a6eac"),
            ("schouten", "8e5c4ce67717ce92a18c4c9e8a4bd343fecf993b6fc2ae260f85d16036aabff0"),
        ],
    )
    def test_nonclosed_witness_reports_pinned(self, capsys, command, digest):
        """The exit-1 reports on the non-closed Heisenberg config, witnesses
        and their defects included, byte for byte."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--config", self._cfg("heisenberg-nonclosed.cfg"), "--format", "json"]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_axioms_json_round_trip(self, capsys):
        assert main(["axioms", "--config", self._cfg("dim2-extended.cfg"), "--format", "json"]) == 0
        out = capsys.readouterr().out.strip()
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out


# Lines a config may hold, valid and invalid; dims stay small so that every
# command on every mutant is quick.
FUZZ_LINES = [
    "[algebra]", "[phi]", "[deformation]", "[extension]", "[run]", "[bogus]", "[algebra", "",
    "# comment", "dim = 0", "dim = 1", "dim = 2", "dim = 3", "dim = -1", "dim = x", "names = a",
    "dual_names = p q r s", "bracket 1 2 -> 1 : 1", "bracket 1 2 -> 3 : 1", "bracket 2 1 -> 1 : -1",
    "bracket 1 1 -> 1 : 1", "bracket 1 2 -> 9 : 1", "bracket 1 2 -> 1 : 1/0", "bracket 1 2 -> 1 : x",
    "coeffs = 0 1", "coeffs = 1 0 0", "coeffs = 1/0 1", "coeffs =", "coeffs = a b",
    "kind = standard", "kind = trivial", "kind = naive_dt", "kind = other", "F = constant 1",
    "F = kappa 1/2", "F = kappa 0", "F = table", "F = bogus", "F =", "F 0 0 = 1", "F 0 1 = 2",
    "F 1 0 = 3", "F 0 0 = 1/0", "subalgebra = none", "subalgebra = g0prime",
    "subalgebra = g0doubleprime", "subalgebra = other", "weights = -2", "weights = a",
    "max_degree = 3", "max_degree = 0", "max_degree = -1", "max_degree = b", "format = json",
    "format = xml", "= 1", "key = value",
]
FUZZ_COMMANDS = [
    ["validate"], ["axioms"], ["betti", "--weight", "-2"], ["chain", "--weight", "-2"], ["schouten"],
]


@st.composite
def _mutated_configs(draw):
    """A shipped config with some lines replaced, inserted or deleted."""
    name = draw(st.sampled_from(sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))))
    lines = (CONFIG_DIR / name).read_text().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        k = draw(st.integers(0, len(lines)))
        if edit == "insert":
            lines.insert(k, draw(st.sampled_from(FUZZ_LINES)))
        elif lines:
            k = min(k, len(lines) - 1)
            if edit == "replace":
                lines[k] = draw(st.sampled_from(FUZZ_LINES))
            else:
                del lines[k]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_configs())
def test_mutated_configs_exit_cleanly(tmp_path, text):
    """Every command exits 0, 1 or 2 on any mutant; an exception escaping
    ``main`` fails the call."""
    path = write(tmp_path, text)
    for command in FUZZ_COMMANDS:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            warnings.simplefilter("ignore")
            assert main([command[0], "--config", path, *command[1:]]) in (0, 1, 2)


def _run_in_process(argv):
    """(exit code, stdout) of one ``main`` call in this process."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit 2
            code = exc.code
    return code, out.getvalue()


def test_consecutive_main_calls_match_separate_runs():
    """The argument parser is built once per process; calls made one after
    another through it answer as fresh interpreters do, so no parsed value
    (an ``append`` list, a failed parse) carries over."""
    from supdeform.cli import build_parser

    cfg = str(CONFIG_DIR / "dim2-standard.cfg")
    calls = [
        ["betti", "--config", cfg, "--weight", "-2", "--weight", "-3", "--format", "json"],
        ["betti", "--config", cfg, "--format", "json"],
        ["chain", "--config", cfg],
        ["ffamily", "--closed", "--grid", "4"],
        ["betti", "--config", cfg, "--weight", "x"],
        ["betti", "--config", cfg],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    separate = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "supdeform.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        separate.append((proc.returncode, proc.stdout))
    assert [code for code, _ in separate] == [0, 0, 0, 0, 2, 0]
    assert separate[0][1] != separate[1][1]  # two weights, then the config's one
    assert [_run_in_process(argv) for argv in calls] == separate
    assert build_parser() is build_parser()


_awkward_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝄞 '), st.characters()), max_size=12
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    _awkward_text,
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_awkward_text, max_size=5),
        st.dictionaries(_awkward_text, inner, max_size=5),
    ),
    max_leaves=30,
)


def _json_text(value) -> str:
    """The pieces ``_write_json`` writes for value, joined."""
    out: list[str] = []
    _write_json(value, "", out.append)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_rejects_non_str_keys():
    with pytest.raises(TypeError):
        _json_text({1: "a"})


def _boundary_rows(M: homology.BoundaryMatrix) -> list[list[str]]:
    """Reference: the matrix as rows of entry strings, each nonzero entry
    formatted from its numerators over the matrix's scale."""
    rows = [["0"] * len(M.cols) for _ in M.rows]
    for c, column in enumerate(M.columns):
        for r, e in column.items():
            rows[r][c] = format_over(e, M.scale)
    return rows


def _reference_chain_payload(path: str, weights=None) -> dict:
    """Reference: the ``chain`` report at the weights (by default the
    config's) with every boundary row built as a list of str."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = load_config(path)
    system = ChainComplexSystem(config.deformation, config.extension)
    blocks = []
    for w in weights or config.weights:
        per_degree = [
            {"m": M.m, "basis": [system.word_label(word) for word in M.cols], "boundary": _boundary_rows(M)}
            for M in homology.boundary_matrices(system, w)
        ]
        blocks.append({"weight": w, "chain": per_degree})
    return {"command": "chain", "weights": blocks}


def _reference_chain_text(payload: dict) -> str:
    """Reference: the text form of a ``chain`` report, as one string."""
    lines = []
    for block in payload["weights"]:
        lines.append(f"weight {block['weight']}")
        for entry in block["chain"]:
            lines.append(f"  C_{entry['m']}: dim {len(entry['basis'])}  basis {', '.join(entry['basis']) or '(none)'}")
            for row in entry["boundary"]:
                lines.append("    [" + ", ".join(row) + "]")
    return "\n".join(lines) + "\n"


SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.cfg")) + sorted((ROOT / "bench" / "configs").glob("*.cfg"))


def test_every_json_report_is_json_dumps_of_its_payload(monkeypatch):
    """Every command on every shipped config prints, in JSON, exactly what
    ``json.dumps(payload, indent=2, sort_keys=True)`` gives.  A ``chain``
    payload renders its boundary rows as it writes them, so its output is
    compared with a reference payload that holds every row as a list of
    str, in JSON and in text."""
    from supdeform import cli

    payloads = []
    original = cli._emit

    def recording(payload, fmt, text_renderer):
        payloads.append(payload)
        original(payload, fmt, text_renderer)

    monkeypatch.setattr(cli, "_emit", recording)
    calls = [["ffamily", "--closed", "--grid", "8"], ["ffamily", "--nonclosed", "--grid", "8"]]
    for path in SHIPPED_CONFIGS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weights = [] if load_config(str(path)).weights else ["--weight", "-3"]
        calls += [[command, "--config", str(path)] for command in ("validate", "axioms", "schouten")]
        calls += [[command, "--config", str(path), *weights] for command in ("chain", "betti")]
    reported = 0
    for argv in calls:
        payloads.clear()
        code, out = _run_in_process([*argv, "--format", "json"])
        if not payloads:  # a failed consistency check (d.d != 0 for a non-closed phi) prints no report
            assert (code, out) == (1, ""), argv
            continue
        assert code in (0, 1) and len(payloads) == 1, argv
        expected = payloads[0]
        if argv[0] == "chain":
            expected = _reference_chain_payload(argv[2], [int(argv[-1])] if "--weight" in argv else None)
            assert _json_text(payloads[0]) == json.dumps(expected, indent=2, sort_keys=True), argv
            assert _run_in_process([*argv, "--format", "text"]) == (0, _reference_chain_text(expected)), argv
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", argv
        reported += 1
    assert reported == len(calls) - 1  # betti on heisenberg-nonclosed


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "8620a9601e3b471b10a078f744c5789eba3d6e10c76718bec36c549ed1ec9d25"),
        ("text", "819ccf892fa980729feac6de1fb83af7d1cb8b906cce2d2ee0297a4499e0f2ee"),
    ],
    ids=["json", "text"],
)
def test_chain_g0p_weight_minus_five_dump_pinned_and_streamed(monkeypatch, fmt, digest):
    """The w = -5 chain dump on aff(1)+aff(1) extended by g0' keeps its
    bytes, and reaches stdout in pieces: no single write is longer than the
    longest rendered boundary row plus its lead."""
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["chain", "--config", AFF_G0P, "--weight", "-5", "--format", fmt]) == 0
    monkeypatch.undo()
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest
    payload = _reference_chain_payload(AFF_G0P, [-5])
    rows = [row for entry in payload["weights"][0]["chain"] for row in entry["boundary"]]
    if fmt == "json":  # a row is a list at indent 12 after the lead ",\n" + 12 spaces
        longest = max(len(json.dumps(row, indent=2).replace("\n", "\n" + " " * 12)) for row in rows) + 14
    else:  # a row is a line after the lead "\n"
        longest = max(len("    [" + ", ".join(row) + "]") for row in rows) + 1
    assert len(rows) == 735 and len(writes) > len(rows)
    assert max(map(len, writes)) <= longest
