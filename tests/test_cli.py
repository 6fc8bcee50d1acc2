import json
import shutil
import subprocess
import sys

from ltsdeform import bundled_path
from ltsdeform.cli import build_parser, main
from ltsdeform.documents import dump_document, load_document


def run_cli(*args):
    return main(list(args))


def data(name):
    return str(bundled_path(name))


def test_verify_bundled_systems_exit_zero(capsys):
    for name in ("meson2.json", "skew3.json", "matrix2.json", "sl2.json"):
        assert run_cli("verify", data(name)) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_with_action(capsys):
    assert run_cli("verify", data("meson2.json"), data("meson2_swap.json")) == 0
    assert run_cli("verify", data("skew3.json"), data("skew3_sign.json")) == 0
    assert run_cli("verify", data("rect22.json"), data("rect22_transpose.json")) == 0


def test_verify_corrupted_bracket_exits_one(tmp_path, capsys):
    doc = load_document(bundled_path("meson2.json").read_text())
    # break the cyclic identity: [g1 g1 g1] = g2
    doc["bracket"] = doc["bracket"] + [[0, 0, 0, {"1": "1"}]]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_document(doc))
    assert run_cli("verify", str(bad)) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_verify_json_report_carries_witnesses(tmp_path, capsys):
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["bracket"] = doc["bracket"] + [[0, 0, 0, {"1": "1"}]]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_document(doc))
    assert run_cli("verify", str(bad), "--json") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    violations = report["system"]["lts"]["violations"]
    assert violations and all("witness" in v for v in violations)


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ nope")
    assert run_cli("verify", str(bad)) == 2
    assert run_cli("verify", str(tmp_path / "missing.json")) == 2


def test_cohomology_dimensions(capsys):
    assert run_cli("cohomology", data("meson2.json"), "--degree", "3") == 0
    out = capsys.readouterr().out
    assert "dim C^3 = 4" in out
    assert run_cli("cohomology", data("meson2.json"), "--degree", "3",
                   "--equivariant", data("meson2_swap.json"), "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_space"] == 2 and report["equivariant"] is True


def test_cohomology_even_degree_is_usage_error(capsys):
    assert run_cli("cohomology", data("meson2.json"), "--degree", "2") == 2


def test_cohomology_cap_exceeded_exits_three(capsys):
    assert run_cli("cohomology", data("meson2.json"), "--degree", "3",
                   "--max-ambient", "4") == 3


def test_deform_check_passes(capsys):
    assert run_cli("deform-check", data("meson2_swap_t2.json"), "--order", "4") == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_deform_obstruct_reports_vanishing_class(capsys):
    assert run_cli("deform-obstruct", data("meson2_swap_t2.json"), "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_zero"] is True and report["is_coboundary"] is True
    assert report["is_cocycle"] is True


def test_deform_extend_writes_valid_document(tmp_path, capsys):
    out_path = tmp_path / "extended.json"
    assert run_cli("deform-extend", data("meson2_swap_t2.json"),
                   "-o", str(out_path)) == 0
    doc = load_document(out_path.read_text())
    assert doc["terms"][-1]["order"] == 3
    assert doc["terms"][-1]["entries"] == []
    # the written document must itself pass deform-check; references resolve
    # relative to the document, so copy what it references next to it
    shutil.copy(data("meson2.json"), tmp_path / "meson2.json")
    shutil.copy(data("meson2_swap.json"), tmp_path / "meson2_swap.json")
    assert run_cli("deform-check", str(out_path)) == 0


def test_deform_equiv_trivial_vs_worked_example(capsys):
    assert run_cli("deform-equiv", data("meson2_swap_trivial.json"),
                   data("meson2_swap_t2.json"), "--cap", "2", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is True


def test_deform_trivialize(capsys):
    assert run_cli("deform-trivialize", data("meson2_swap_t2.json"),
                   "--cap", "4", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivial"] is True


def test_deform_equiv_cap_below_the_order_truncates_both_documents(capsys):
    # the order-2 document used to make the cap an error (exit 1, the code of
    # inequivalence) in one direction only
    t2, trivial = data("meson2_swap_t2.json"), data("meson2_swap_trivial.json")
    reports = []
    for a, b in ((t2, trivial), (trivial, t2)):
        assert run_cli("deform-equiv", a, b, "--cap", "1", "--json") == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["cap"] == 1 and len(reports[0]["isomorphism"]) == 2


def test_deform_trivialize_cap_below_the_order_truncates(capsys):
    for cap in ("0", "1"):
        assert run_cli("deform-trivialize", data("meson2_swap_t2.json"),
                       "--cap", cap, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cap"] == int(cap) and report["trivial"] is True
        assert all(t["order"] <= int(cap) for t in report["reduced"]["terms"])


def test_deform_equiv_rejects_documents_with_different_actions(tmp_path, capsys):
    # the worked example's terms with no action, on the same system
    doc = load_document(bundled_path("meson2_swap_t2.json").read_text())
    del doc["action"]
    plain = tmp_path / "meson2_t2_no_action.json"
    plain.write_text(dump_document(doc))
    shutil.copy(data("meson2.json"), tmp_path / "meson2.json")
    assert run_cli("deform-check", str(plain)) == 0
    capsys.readouterr()
    assert run_cli("deform-equiv", str(plain), data("meson2_swap_t2.json")) == 1
    assert capsys.readouterr().err == "error: deformations carry different actions\n"


def test_negative_deform_cap_is_usage_error(capsys):
    t2, trivial = data("meson2_swap_t2.json"), data("meson2_swap_trivial.json")
    assert run_cli("deform-equiv", t2, trivial, "--cap", "-1") == 2
    assert_one_line_error(capsys, "usage error:")
    assert run_cli("deform-trivialize", t2, "--cap", "-1") == 2
    assert_one_line_error(capsys, "usage error:")


def test_rigidity_exit_codes(capsys):
    assert run_cli("rigidity", data("meson2.json"),
                   "--equivariant", data("meson2_swap.json")) == 0
    out = capsys.readouterr().out
    assert "rigid" in out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ltsdeform.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # no command given is a usage error


def test_env_cap_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LTSDEFORM_MAX_AMBIENT", "4")
    assert run_cli("cohomology", data("meson2.json"), "--degree", "3") == 3


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_malformed_field_flag_is_usage_error(capsys):
    # a non-integer modulus used to escape as a ValueError traceback, and a
    # composite one exited 1 as if it were a mathematical failure
    for spec in ("gf:abc", "gf:4"):
        assert run_cli("verify", data("meson2.json"), "--field", spec) == 2
        assert_one_line_error(capsys, "usage error:")


def test_prime_moduli_from_the_primality_bound_up_are_rejected(tmp_path, capsys):
    # trial division spent over a minute on this prime before any cap check
    assert run_cli("verify", data("meson2.json"), "--field", "gf:1000000000000000003") == 0
    capsys.readouterr()
    too_large = "gf:3317044064679887385961981"
    assert run_cli("verify", data("meson2.json"), "--field", too_large) == 2
    assert_one_line_error(capsys, "usage error:")
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["field"] = too_large
    bad = tmp_path / "big_field.json"
    bad.write_text(dump_document(doc))
    assert run_cli("verify", str(bad)) == 2
    assert_one_line_error(capsys, "document error:")


def test_malformed_document_field_is_document_error(tmp_path, capsys):
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["field"] = "gf:abc"
    bad = tmp_path / "bad_field.json"
    bad.write_text(dump_document(doc))
    assert run_cli("verify", str(bad)) == 2
    assert_one_line_error(capsys, "document error:")


def test_malformed_or_negative_caps_are_usage_errors(monkeypatch, capsys):
    argv = ("cohomology", data("meson2.json"), "--degree", "3")
    monkeypatch.setenv("LTSDEFORM_MAX_DEGREE", "x")
    assert run_cli(*argv) == 2
    assert_one_line_error(capsys, "usage error:")
    monkeypatch.delenv("LTSDEFORM_MAX_DEGREE")
    monkeypatch.setenv("LTSDEFORM_MAX_AMBIENT", "-5")
    assert run_cli(*argv) == 2
    assert_one_line_error(capsys, "usage error:")
    monkeypatch.delenv("LTSDEFORM_MAX_AMBIENT")
    assert run_cli(*argv, "--max-ambient", "-5") == 2
    assert_one_line_error(capsys, "usage error:")


def test_module_block_that_is_no_representation_exits_one(tmp_path, capsys):
    # module matrices [-I, P] on the swap action send the identity to -I,
    # which the invariant basis, built from the generators, would ignore
    doc = load_document(bundled_path("meson2_swap.json").read_text())
    doc["module"] = {"elements": [[["-1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]]]}
    bad = tmp_path / "swap_bad_module.json"
    bad.write_text(dump_document(doc))
    assert run_cli("cohomology", data("meson2.json"), "--degree", "3",
                   "--equivariant", str(bad), "--json") == 1
    assert_one_line_error(capsys, "error:")
    assert run_cli("verify", data("meson2.json"), str(bad)) == 1
    assert "FAILED" in capsys.readouterr().out


def test_the_module_block_is_read_by_verify_and_cohomology_only(tmp_path, capsys):
    # abelian2 under {I, -I}, with the module matrices I, I: verify accepts
    # the block and cohomology --equivariant uses it; rigidity, like every
    # deform-* command, acts on the values through the element matrices
    system = tmp_path / "abelian2.json"
    system.write_text(dump_document({"schema": "lts-system/1", "field": "rational",
                                     "dim": 2, "basis": ["x", "y"], "bracket": []}))
    one, minus = [["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]
    doc = {"schema": "lts-action/1",
           "elements": [{"label": "e", "matrix": one}, {"label": "s", "matrix": minus}]}
    plain = tmp_path / "abelian2_sign.json"
    plain.write_text(dump_document(doc))
    doc["module"] = {"elements": [one, one]}
    with_module = tmp_path / "abelian2_sign_module.json"
    with_module.write_text(dump_document(doc))
    assert run_cli("verify", str(system), str(with_module)) == 0
    capsys.readouterr()
    for action, dim_h in ((plain, 4), (with_module, 0)):
        assert run_cli("cohomology", str(system), "--degree", "3", "--equivariant",
                       str(action), "--json") == 0
        assert json.loads(capsys.readouterr().out)["dim_h"] == dim_h
        assert run_cli("rigidity", str(system), "--equivariant", str(action), "--json") == 1
        assert json.loads(capsys.readouterr().out)["dim_h3_equivariant"] == 4


def test_oversized_bracket_is_capped_before_allocation(tmp_path, capsys):
    # dim 200 asks for 200^4 = 1.6e9 bracket entries
    doc = {"schema": "lts-system/1", "field": "rational", "dim": 200,
           "basis": ["x%d" % i for i in range(200)], "bracket": []}
    big = tmp_path / "big.json"
    big.write_text(dump_document(doc))
    for argv in (("verify", str(big)), ("rigidity", str(big))):
        assert run_cli(*argv) == 3
        assert_one_line_error(capsys, "cap exceeded:")


def test_long_deformation_series_are_capped_before_allocation(tmp_path, capsys):
    # mu_0..mu_100 of meson2 hold 101 * 2^4 = 1616 dense entries: the
    # order of a document, --order of deform-check and --cap of deform-equiv
    # and deform-trivialize are checked against the cap before any series
    # is built
    doc = load_document(bundled_path("meson2_swap_t2.json").read_text())
    doc["terms"] = [{"order": 100, "entries": []}]
    far = tmp_path / "far.json"
    far.write_text(dump_document(doc))
    for name in ("meson2.json", "meson2_swap.json"):
        shutil.copy(data(name), tmp_path / name)
    t2, trivial = data("meson2_swap_t2.json"), data("meson2_swap_trivial.json")
    for argv in (("deform-equiv", t2, trivial, "--cap", "100"),
                 ("deform-trivialize", t2, "--cap", "100"),
                 ("deform-check", t2, "--order", "100"),
                 ("deform-check", str(far))):
        assert run_cli(*argv, "--max-ambient", "1000") == 3
        assert_one_line_error(capsys, "cap exceeded: deformation series with 1616 entries")
    assert run_cli("deform-check", t2, "--order", "100", "--max-ambient", "1616") == 0
    assert run_cli("deform-check", str(far), "--max-ambient", "1616") == 0


def test_parser_is_built_once(monkeypatch, capsys):
    import ltsdeform.cli as cli

    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("cohomology", data("meson2.json"), "--degree", "1") == 0
        assert run_cli("cohomology", data("meson2.json"), "--degree", "2") == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
