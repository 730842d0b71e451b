"""End-to-end tests of the command-line front end.

Independent oracles used here:

* the norm subcommand is checked against a direct call of the norm-report
  builder on the same deserialized element (shared code stops above the
  CLI layer);
* the loop-integral comparison is pinned to central binomial coefficients;
* report determinism is checked by byte comparison of two fresh runs;
* exit codes are asserted against the documented 0/1/2/3 mapping, with
  stderr/stdout text checked for the named invariant and witness.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.cli import (
    COCYCLE_KINDS,
    GROUP_KINDS,
    HANDLERS,
    KEYS,
    OPERATOR_KINDS,
    ORACLE_KINDS,
    RunConfig,
    _conv_float,
    _conv_int,
    main,
    parse_config_text,
    parse_overrides,
    resolve_config,
)
from etalab.errors import ConfigError
from etalab.group_algebra import AlgebraElement, norm_report
from etalab.groups import FreeAbelianGroup

_memo: dict = {}


def run_cli(*args):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def wilson_eta_runs():
    """Two fresh wilson-eta runs with report files plus one CSV dump."""
    if "wilson" not in _memo:
        d = Path(tempfile.mkdtemp())
        r1, r2, csv = d / "r1.json", d / "r2.json", d / "samples.csv"
        code1, _, _ = run_cli("eta", "operator.kind=wilson",
                              "class.element=1", "--out", str(r1),
                              "--dump-integrand", str(csv))
        code2, _, _ = run_cli("eta", "operator.kind=wilson",
                              "class.element=1", "--out", str(r2))
        _memo["wilson"] = (code1, code2, r1.read_bytes(), r2.read_bytes(),
                           csv.read_text())
    return _memo["wilson"]


class TestConfigParsing:
    def test_text_config_with_comments_and_blanks(self):
        entries = parse_config_text(
            "# a fixture\n"
            "operator.kind = wilson   # chiral model\n"
            "\n"
            "tolerances.tol = 1e-6\n")
        assert entries == {"operator.kind": "wilson",
                          "tolerances.tol": "1e-6"}

    def test_json_config_flattens_nested_objects(self):
        entries = parse_config_text(
            '{"operator": {"kind": "wilson"}, "seed": 3}')
        assert entries == {"operator.kind": "wilson", "seed": 3}

    def test_json_config_must_be_an_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config_text("[1, 2]")

    def test_text_line_without_equals_is_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("operator.kind wilson\n")

    def test_override_without_equals_is_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["seed3"])

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            resolve_config({"bogus.key": "1"})

    def test_bad_value_is_rejected_by_key(self):
        with pytest.raises(ConfigError, match="tolerances.tol"):
            resolve_config({"tolerances.tol": "abc"})

    def test_bad_choice_lists_the_options(self):
        with pytest.raises(ConfigError, match="two_band"):
            resolve_config({"operator.kind": "banana"})

    def test_tail_fraction_must_stay_inside_unit_interval(self):
        with pytest.raises(ConfigError, match="tail_frac"):
            resolve_config({"tolerances.tail_frac": "1.5"})

    def test_nonpositive_tolerance_is_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_config({"tolerances.tol": "0"})

    def test_defaults_survive_resolution(self):
        cfg, provided = resolve_config({"seed": "7"})
        assert cfg == RunConfig(seed=7)
        assert provided == {"seed"}

    def test_flag_beats_override_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operator.kind = wilson\ntolerances.tol = 1e-6\n")
        code, out, _ = run_cli("gap", "--config", str(cfg),
                               "tolerances.tol=1e-7", "--tol", "1e-9")
        assert code == 0
        echo = json.loads(out)["config"]
        assert echo["operator.kind"] == "wilson"
        assert echo["tolerances.tol"] == 1e-9


    @pytest.mark.parametrize("argv, group", [
        (("gap", "operator.kind=free"),
         {"group.kind": "free", "group.rank": 2}),
        (("gap", "operator.kind=two_band"),
         {"group.kind": "lattice", "group.rank": 2}),
        (("gap", "operator.kind=cover", "operator.seed=2"),
         {"group.kind": "cyclic", "group.order": 6}),
        (("cocycle-check", "group.kind=lattice", "group.rank=2",
          "cocycle.kind=area", "cocycle.element=0,0"),
         {"group.kind": "lattice", "group.rank": 2}),
    ])
    def test_echo_names_the_group_the_run_used(self, argv, group):
        code, out, _ = run_cli(*argv)
        assert code == 0
        echo = json.loads(out)["config"]
        assert {key: echo[key] for key in group} == group


class TestExitCodes:
    def test_unknown_key_exits_2(self):
        code, _, err = run_cli("eta", "bogus.key=3")
        assert code == 2
        assert "bogus.key" in err

    def test_bad_value_exits_2(self):
        code, _, err = run_cli("eta", "tolerances.tol=abc")
        assert code == 2
        assert "tolerances.tol" in err

    def test_missing_config_file_exits_3(self):
        code, _, err = run_cli("eta", "--config", "/nonexistent/run.cfg")
        assert code == 3
        assert "io failure" in err

    def test_unwritable_report_exits_3(self, tmp_path):
        target = tmp_path / "missing_dir" / "report.json"
        code, _, err = run_cli("gap", "operator.kind=wilson",
                               "--out", str(target))
        assert code == 3
        assert "io failure" in err

    def test_missing_subcommand_exits_2(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_trivial_class_is_a_precondition_failure(self):
        code, _, err = run_cli("eta", "operator.kind=wilson",
                               "class.element=0")
        assert code == 2
        assert "nontrivial" in err

    def test_odd_degree_cocycle_is_a_precondition_failure(self):
        code, _, err = run_cli("higher-eta", "cocycle.kind=delocalized",
                               "cocycle.element=1")
        assert code == 2
        assert "odd" in err

    def test_over_budget_free_ball_exits_3(self):
        code, _, err = run_cli("eta", "operator.kind=free", "class.element=a",
                               "truncation.radius=30")
        assert code == 3
        assert "resource/io failure" in err


EXIT_CODES = dict(derandomize=True, deadline=None, database=None)

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=8)

CHOICES = {"group.kind": GROUP_KINDS, "operator.kind": OPERATOR_KINDS,
           "cocycle.kind": COCYCLE_KINDS, "oracle.kind": ORACLE_KINDS}

#: keys whose value must lie in a range, with values outside it
OUT_OF_RANGE = {
    "tolerances.tail_frac": st.floats(max_value=0.0) | st.floats(min_value=1.0),
    **{key: st.floats(max_value=0.0) for key in (
        "tolerances.tol", "tolerances.quad_rel", "pairing.tol", "oracle.tol")},
    **{key: st.integers(max_value=-1) for key in (
        "truncation.radius", "cocycle.degree", "norms.q")},
    "oracle.count": st.integers(max_value=0),
}


@st.composite
def malformed_override(draw):
    """One malformed override and a text its error message must name: no
    ``=``, an unknown key, a word for a number, a word that is not one of
    the choices, or a number outside its key's range."""
    kind = draw(st.sampled_from(["no_equals", "unknown_key", "not_a_number",
                                 "not_a_choice", "out_of_range"]))
    if kind == "no_equals":
        word = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz._",
                            min_size=1, max_size=12))
        return word, word
    if kind == "unknown_key":
        key = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz._",
                           min_size=1, max_size=12).filter(
                               lambda k: k not in KEYS))
        return f"{key}={draw(WORDS)}", key
    if kind == "not_a_number":
        key = draw(st.sampled_from(sorted(
            k for k, (_, conv) in KEYS.items()
            if conv in (_conv_int, _conv_float))))
        return f"{key}={draw(WORDS)}", key
    if kind == "not_a_choice":
        key = draw(st.sampled_from(sorted(CHOICES)))
        word = draw(WORDS.filter(lambda w: w not in CHOICES[key]))
        return f"{key}={word}", key
    key = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    return f"{key}={draw(OUT_OF_RANGE[key])!r}", key


class TestExitCodeProperties:
    @settings(max_examples=60, **EXIT_CODES)
    @given(command=st.sampled_from(sorted(HANDLERS)),
           bad=malformed_override(), position=st.integers(0, 2))
    def test_any_malformed_override_exits_2(self, command, bad, position):
        text, named = bad
        key = text.partition("=")[0]
        good = [o for o in ("seed=3", "operator.seed=1")
                if o.partition("=")[0] != key]
        overrides = good[:position] + [text] + good[position:]
        code, out, err = run_cli(command, *overrides)
        assert code == 2
        assert out == ""
        assert err.startswith("config error") and named in err

    @settings(max_examples=4, **EXIT_CODES)
    @given(radius=st.integers(12, 60),
           word=st.sampled_from(["a", "b", "A", "B", "ab", "aB", "bA", "aab"]),
           seed=st.integers(0, 3))
    def test_any_over_budget_free_ball_exits_3(self, radius, word, seed):
        # the ball of F_2 of radius 12 already holds 1,062,881 words, above
        # the enumeration budget of 10^6
        code, out, err = run_cli("eta", "operator.kind=free",
                                 f"class.element={word}",
                                 f"truncation.radius={radius}", f"seed={seed}")
        assert code == 3
        assert out == ""
        assert "resource/io failure" in err and "exceeded budget" in err


class TestGapCommand:
    def test_wilson_gap_reports_one_half(self, tmp_path):
        cfg = tmp_path / "wilson.cfg"
        cfg.write_text("operator.kind = wilson\n")
        code, out, _ = run_cli("gap", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["sigma"] == 0.5
        assert 0.49 < doc["result"]["lower_bound"] <= 0.5
        assert doc["schema"] == "etalab-report/1"

    @pytest.mark.parametrize("kind, method, bounded", [
        ("laplace", "symbol-grid-curvature", "dist(0, spec D)"),
        ("free", "weighted-schur", "dist(0, spec D)"),
        ("cover", "exact-eigenvalues", "dist(0, nonzero spectrum)"),
    ])
    def test_lower_bound_names_what_its_method_bounds(self, kind, method,
                                                      bounded):
        code, out, _ = run_cli("gap", f"operator.kind={kind}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["method"] == method
        assert doc["certification"]["lower_bound"] == \
            f"certified lower bound on {bounded}"

    def test_class_spec_adds_a_threshold_block(self):
        code, out, _ = run_cli("gap", "operator.kind=laplace",
                               "class.element=1")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["class_ok"] is True
        assert result["thresholds"]["sigma_class"] == 0.0

    def test_steep_cocycle_fails_the_threshold(self):
        code, out, _ = run_cli("gap", "operator.kind=laplace",
                               "cocycle.kind=coboundary_of_delocalized",
                               "cocycle.element=1", "cocycle.rate=0.3")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["cocycle_ok"] is False
        assert any("decay threshold" in line for line in doc["failures"])


class TestEtaCommand:
    def test_chiral_model_eta_vanishes(self):
        code1, _, report1, _, _ = wilson_eta_runs()
        assert code1 == 0
        result = json.loads(report1)["result"]
        value = complex(result["value"]["re"], result["value"]["im"])
        assert abs(value) <= 1e-8
        assert result["converged"] is True
        assert result["threshold_verdict"] is True
        assert result["error"] <= 1e-7

    def test_reports_are_byte_identical_across_runs(self):
        code1, code2, report1, report2, _ = wilson_eta_runs()
        assert code1 == 0 and code2 == 0
        assert report1 == report2

    def test_csv_dump_has_certified_rows(self):
        _, _, _, _, csv = wilson_eta_runs()
        lines = csv.strip().splitlines()
        assert lines[0] == "t,re,im,bound"
        assert len(lines) > 20
        for line in lines[1:]:
            t, re, im, bound = (float(tok) for tok in line.split(","))
            assert t >= 0.0
            assert bound >= math.hypot(re, im) - 1e-12

    def test_report_carries_split_points_and_tail_constants(self):
        _, _, report1, _, _ = wilson_eta_runs()
        cert = json.loads(report1)["certification"]
        assert cert["split_points"][0] == 0.0
        assert cert["tail_constants"]["gap"] > 0.49
        assert set(cert["interval_errors"]) == {"small_t", "mid_t",
                                                "calculus", "class_tail"}

    def test_default_class_is_the_first_generator_of_any_lattice(self):
        # an empty class.element means (1, 0) on Z^2, not the text "1"
        code, out, _ = run_cli("eta", "operator.kind=two_band")
        assert code == 0
        assert json.loads(out)["config"]["class.element"] == "1,0"

    def test_blown_error_budget_exits_1(self):
        # an unconverged calculus comes back as a result, never an
        # exception, so the run ends in the named error-budget failure
        code, out, _ = run_cli("eta", "--tol", "1e-14")
        assert code == 1
        doc = json.loads(out[:out.index("certificate failed")])
        assert doc["result"]["converged"] is False
        assert doc["result"]["error"] > 1e-14
        assert [f.split(" (")[0] for f in doc["failures"]] == ["error budget"]
        assert out.rstrip().endswith("exceeds the requested tolerance)")

    def test_seed_flag_lands_in_the_echo(self, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli("gap", "operator.kind=wilson", "--seed", "11",
                             "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["seed"] == 11


class TestHigherEtaCommand:
    def test_coboundary_eta_vanishes(self):
        code, out, _ = run_cli("higher-eta", "operator.kind=laplace",
                               "cocycle.kind=coboundary_of_delocalized",
                               "cocycle.element=1", "--tol", "1e-6")
        assert code == 0
        result = json.loads(out)["result"]
        value = complex(result["value"]["re"], result["value"]["im"])
        assert abs(value) <= 1e-6
        assert result["threshold_verdict"] is True


class TestLatticeHigherEtaCommand:
    def test_area_pairing_certifies_at_the_default_tolerance(self):
        code, out, _ = run_cli("higher-eta", "operator.kind=two_band",
                               "cocycle.kind=area", "class.element=0,0")
        assert code == 0
        result = json.loads(out)["result"]
        value = complex(result["value"]["re"], result["value"]["im"])
        assert abs(value - 2j / math.pi) <= result["error"]
        assert result["converged"] is True

    def test_truncation_radius_is_a_precondition_failure(self):
        code, _, err = run_cli("higher-eta", "operator.kind=two_band",
                               "cocycle.kind=area", "class.element=0,0",
                               "truncation.radius=16")
        assert code == 2
        assert "grid route" in err


class TestNormsCommand:
    def test_report_schema_and_consistency(self):
        code, out, _ = run_cli("norms", "operator.kind=laplace",
                               "norms.K=0.2")
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) == {"rd", "uc_upper", "uc_lower", "b", "lk",
                               "p", "K", "q"}
        assert result["b"] == pytest.approx(result["rd"]
                                            + result["uc_upper"])
        assert result["uc_lower"] <= result["uc_upper"]
        assert result["K"] == 0.2

    def test_serialized_element_route_matches_direct_call(self, tmp_path):
        group = FreeAbelianGroup(2)
        element = AlgebraElement(group, 1, {
            (0, 0): np.array([[1.5]]),
            (1, 0): np.array([[0.25 + 0.5j]]),
            (-1, 0): np.array([[0.25 - 0.5j]]),
            (0, 2): np.array([[-0.75]]),
        })
        doc = tmp_path / "element.json"
        doc.write_text(json.dumps({
            "group": {"kind": "free_abelian", "rank": 2}, "dim": 1,
            "entries": [{"element": [0, 0], "matrix": [[1.5, 0.0]]},
                        {"element": [1, 0], "matrix": [[0.25, 0.5]]},
                        {"element": [-1, 0], "matrix": [[0.25, -0.5]]},
                        {"element": [0, 2], "matrix": [[-0.75, 0.0]]}]}))
        code, out, _ = run_cli("norms", f"element.path={doc}",
                               "norms.p=1.5", "norms.K=0.3", "norms.q=1")
        assert code == 0
        got = json.loads(out)["result"]
        want = norm_report(element, p=1.5, K=0.3, q=1).to_json_dict()
        for key, val in want.items():
            assert got[key] == pytest.approx(val), key


class TestCocycleCheckCommand:
    def test_class_trace_passes_everything(self):
        code, out, _ = run_cli("cocycle-check", "cocycle.kind=class_trace",
                               "cocycle.element=1")
        assert code == 0
        checks = json.loads(out)["result"]["checks"]
        for label in ("cyclicity", "cocycle identity",
                      "shift-image cyclicity",
                      "shift-image cocycle identity"):
            assert checks[label]["ok"] is True
            assert checks[label]["violation"] == 0.0
        assert checks["growth"]["certified"] is True

    def test_noncyclic_table_prints_the_witness(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "degree": 1,
            "entries": [{"args": ["0", "1"], "value": 1.0}],
        }))
        code, out, _ = run_cli("cocycle-check", "cocycle.kind=table",
                               f"cocycle.table={table}")
        assert code == 1
        assert "certificate failed: cyclicity" in out
        assert "witness: (" in out
        doc = json.loads(out[:out.index("certificate failed")])
        assert doc["result"]["verdict"] is False
        assert doc["result"]["checks"]["cyclicity"]["ok"] is False

    def test_area_cocycle_passes_on_the_plane_lattice(self):
        code, out, _ = run_cli("cocycle-check", "group.kind=lattice",
                               "group.rank=2", "cocycle.kind=area",
                               "cocycle.element=0,0")
        assert code == 0
        assert json.loads(out)["result"]["verdict"] is True

    def test_delocalized_cochain_is_not_a_cocycle(self):
        code, out, _ = run_cli("cocycle-check", "cocycle.kind=delocalized",
                               "cocycle.element=1")
        assert code == 1
        assert "cocycle identity" in out

    def test_table_needs_a_path(self):
        code, _, err = run_cli("cocycle-check", "cocycle.kind=table")
        assert code == 2
        assert "cocycle.table" in err


class TestBoundaryCheckCommand:
    def test_character_fixtures_pass(self):
        code, out, _ = run_cli("boundary-check",
                               "pairing.fixture=character projector")
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["fixtures"]) == 2
        assert result["max_difference"] <= 1e-10
        assert result["verdict"] is True

    def test_unknown_fixture_exits_2(self):
        code, _, err = run_cli("boundary-check", "pairing.fixture=warp core")
        assert code == 2
        assert "pairing.fixture" in err

    def test_all_shipped_fixtures_pass(self):
        code, out, _ = run_cli("boundary-check")
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["fixtures"]) == 6
        assert result["max_difference"] <= 1e-6
        for row in result["fixtures"]:
            assert row["ok"] is True, row["fixture"]


class TestOracleCompareCommand:
    def test_loop_integral_matches_central_binomials(self):
        code, out, _ = run_cli("oracle-compare",
                               "oracle.kind=loop_integral",
                               "oracle.tol=1e-10")
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["cases"]) == 9
        assert result["max_deviation"] <= 1e-10
        assert result["cases"][4]["oracle"] == math.comb(8, 4)

    def test_sign_sum_backends_agree(self):
        code, out, _ = run_cli("oracle-compare", "oracle.kind=sign_sum",
                               "oracle.count=2", "oracle.tol=1e-6")
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["cases"]) == 2
        assert result["max_deviation"] <= 1e-6

    def test_unreachable_tolerance_names_the_invariant(self):
        code, out, _ = run_cli("oracle-compare",
                               "oracle.kind=loop_integral",
                               "oracle.tol=1e-18")
        assert code == 1
        assert "oracle agreement" in out
        assert json.loads(out[:out.index("certificate failed")])[
            "result"]["verdict"] is False


class TestEnvironmentAndEntry:
    def test_thread_env_var_is_propagated(self, monkeypatch):
        monkeypatch.setenv("ETALAB_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code, _, err = run_cli("gap", "operator.kind=wilson")
        assert code == 0
        assert "thread cap" in err
        assert os.environ["OMP_NUM_THREADS"] == "2"
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def test_module_invocation_round_trips(self):
        proc = subprocess.run(
            [sys.executable, "-m", "etalab.cli", "gap",
             "operator.kind=wilson"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["sigma"] == 0.5
