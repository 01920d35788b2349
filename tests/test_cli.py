"""Command line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satake import RootDatum, dominant_image, parse_datum
from satake.cli import main
from satake.errors import MathError

HYPERBOLIC = (
    "rank 2\n"
    "reflection 2,-3 | 1,0\n"
    "reflection -3,2 | 0,1\n"
    "rho_px 0,0\n"
    "cone 1,0\n"
    "cone 0,1\n"
)

# gl3 listing only its two simple reflections: not a full positive system.
SIMPLE_ONLY_GL3 = (
    "rank 3\n"
    "reflection 1,-1,0 | 1,-1,0\n"
    "reflection 0,1,-1 | 0,1,-1\n"
    "theta 1,-1,0 | +1 | 1\n"
    "theta 0,1,-1 | +1 | 1\n"
    "rho_px 1,0,-1\n"
    "cone 1,-1,0\n"
    "cone 0,1,-1\n"
)

# b2 listing only its two simple reflections, with no colours.
SIMPLE_ONLY_B2 = (
    "rank 2\n"
    "reflection 1,-1 | 1,-1\n"
    "reflection 0,1 | 0,2\n"
    "rho_px 0,0\n"
    "cone 1,-1\n"
    "cone 0,2\n"
)

# b2 without the root e1: not closed under its reflections, and rho_check
# = (1,1) is orthogonal to e1 - e2.
B2_WITHOUT_E1 = (
    "rank 2\n"
    "reflection 1,-1 | 1,-1\n"
    "reflection 0,1 | 0,2\n"
    "reflection 1,1 | 1,1\n"
    "rho_px 0,0\n"
    "cone 1,-1\n"
    "cone 0,2\n"
)

# Root 1/2 against coroot 4: the reflection is integral, the root is not.
HALF_ROOT = "rank 1\nreflection 1/2 | 4\nrho_px 0\ncone 4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table commands -------------------------------------------------------


def test_inverse_satake_gl2_table(capsys):
    code, out, err = run(
        capsys, "inverse-satake", "--preset", "group:gl2", "--rep", "std",
        "--truncate", "4",
    )
    assert code == 0 and err == ""
    assert out == (
        "0,0\t1\t1\n"
        "0,1\t1\tq^-1/2\n"
        "0,2\t1\tq^-1\n"
        "0,3\t1\tq^-3/2\n"
        "0,4\t1\tq^-2\n"
        "1,1\tq^-1\tq^-1\n"
        "1,2\tq^-1\tq^-3/2\n"
    )


def test_inverse_satake_truncate_zero(capsys):
    code, out, err = run(
        capsys, "inverse-satake", "--preset", "group:gl2", "--rep", "std",
        "--truncate", "0",
    )
    assert code == 0
    assert out == "0,0\t1\t1\n"


def test_records_format(capsys):
    code, out, _ = run(
        capsys, "inverse-satake", "--preset", "group:gl2", "--rep", "std",
        "--truncate", "1", "--format", "records",
    )
    assert code == 0
    assert out.splitlines() == [
        "lambda=0,0 series=1 hecke=1",
        "lambda=0,1 series=1 hecke=q^-1/2",
    ]


def test_out_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    argv = [
        "inverse-satake", "--preset", "group:gl3", "--rep", "std",
        "--truncate", "5", "--out", str(target),
    ]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    assert first.endswith(b"\n")
    assert capsys.readouterr().out == ""


def test_basic_command(capsys):
    code, out, _ = run(capsys, "basic", "--preset", "sp2n_gl2n:2", "--truncate", "2")
    assert code == 0
    assert out == "0,0\t1\n1,-1\tq^-2 - 1\n2,-2\tq^-4 - q^-2\n"


def test_macdonald_command_allows_any_weight(capsys):
    code, out, _ = run(
        capsys, "macdonald", "--preset", "group:gl2", "--lowest-weight", "1,-1",
    )
    assert code == 0
    assert out == "-1,1\tq^-1\n0,0\tq^-1 - 1\n1,-1\tq^-1\n"
    code, out, _ = run(
        capsys, "macdonald", "--preset", "group:gl2", "--lowest-weight=-1,1",
        "--format", "records",
    )
    assert code == 0
    assert out == "term=-1,1 coeff=1\nterm=0,0 coeff=-q^-1 + 1\nterm=1,-1 coeff=1\n"


def test_char_command(capsys):
    code, out, _ = run(
        capsys, "char", "--preset", "group:gl3", "--rep", "std",
    )
    assert code == 0
    assert out == "0,0,1\t1\n0,1,0\t1\n1,0,0\t1\n"


def test_char_sym2(capsys):
    code, out, _ = run(capsys, "char", "--preset", "group:gl2", "--rep", "sym2")
    assert code == 0
    assert out == "0,2\t1\n1,1\t1\n2,0\t1\n"


def test_datum_file_input(tmp_path, capsys):
    from satake import preset, render_datum

    path = tmp_path / "sp4.datum"
    path.write_text(render_datum(preset("sp2n_gl2n", 2)), encoding="utf-8")
    code, out, _ = run(capsys, "basic", "--datum-file", str(path), "--truncate", "1")
    assert code == 0
    assert out == "0,0\t1\n1,-1\tq^-2 - 1\n"


# -- verify suites ---------------------------------------------------------


@pytest.mark.parametrize(
    "suite,preset_arg,extra",
    [
        ("denominator", "group:gl2", []),
        ("denominator", "group:gl3", []),
        ("orthogonality", "group:gl2", []),
        ("basic-pairing", "sp2n_gl2n:2", []),
        ("li", "group:gl2", ["--rep", "std", "--truncate", "5"]),
        ("whittaker-schur", "whittaker:gl2", []),
    ],
)
def test_verify_suites_pass(capsys, suite, preset_arg, extra):
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--preset", preset_arg, *extra,
    )
    assert code == 0, err
    assert out.startswith(suite + ":")


def test_verify_reports_suite_preconditions(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "whittaker-schur", "--preset", "group:gl2",
    )
    assert code == 2
    assert "whittaker-schur" in err
    code, _, err = run(
        capsys, "verify", "--suite", "li", "--preset", "whittaker:gl2",
        "--rep", "std",
    )
    assert code == 2


# -- exit codes --------------------------------------------------------------


def test_exit_2_unknown_preset(capsys):
    code, _, err = run(capsys, "basic", "--preset", "group:foo", "--truncate", "2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "basic", "--preset", "nope:gl2", "--truncate", "2")
    assert code == 2
    code, _, err = run(capsys, "basic", "--preset", "group", "--truncate", "2")
    assert code == 2 and "name:parameter" in err


def test_exit_2_non_antidominant_weight(capsys):
    code, _, err = run(
        capsys, "inverse-satake", "--preset", "group:gl2",
        "--lowest-weight", "1,0", "--truncate", "2",
    )
    assert code == 2
    assert "not antidominant" in err


def test_exit_2_missing_rep(capsys):
    code, _, err = run(capsys, "inverse-satake", "--preset", "group:gl2")
    assert code == 2
    assert "--rep or --lowest-weight" in err


def test_exit_2_weight_shape(capsys):
    code, _, err = run(
        capsys, "char", "--preset", "group:gl3", "--lowest-weight", "0,1",
    )
    assert code == 2 and "coordinates" in err
    code, _, err = run(
        capsys, "char", "--preset", "group:gl2", "--lowest-weight", "0,a",
    )
    assert code == 2 and "expected integers" in err


def test_exit_2_datum_source_required(capsys):
    code, _, err = run(capsys, "basic", "--truncate", "2")
    assert code == 2
    assert "--preset or --datum-file" in err


def test_exit_2_both_datum_sources(capsys, tmp_path):
    path = tmp_path / "x.datum"
    path.write_text("rank 1\nrho_px 0\n", encoding="utf-8")
    code, _, err = run(
        capsys, "basic", "--preset", "group:gl2", "--datum-file", str(path),
        "--truncate", "1",
    )
    assert code == 2
    assert "not both" in err


def test_exit_2_unreadable_datum_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "basic", "--datum-file", str(tmp_path / "absent.datum"),
        "--truncate", "1",
    )
    assert code == 2
    assert "cannot read" in err


def test_exit_2_negative_truncate(capsys):
    code, _, err = run(
        capsys, "basic", "--preset", "group:gl2", "--truncate", "-3",
    )
    assert code == 2
    assert "--truncate" in err


def test_exit_3_math_failure(capsys, tmp_path):
    path = tmp_path / "hyperbolic.datum"
    path.write_text(HYPERBOLIC, encoding="utf-8")
    code, _, err = run(
        capsys, "macdonald", "--datum-file", str(path), "--lowest-weight", "0,0",
    )
    assert code == 3
    assert "Weyl" in err


def test_dominant_image_stops_on_the_hyperbolic_datum():
    datum = parse_datum(HYPERBOLIC)
    with pytest.raises(MathError):
        dominant_image(RootDatum(datum.rank, datum.positive), (1, 1))


def test_macdonald_rejects_simple_reflections_only(capsys, tmp_path):
    path = tmp_path / "simple_only.datum"
    path.write_text(SIMPLE_ONLY_GL3, encoding="utf-8")
    code, out, err = run(
        capsys, "macdonald", "--datum-file", str(path), "--lowest-weight", "0,0,1",
    )
    assert (code, out) == (3, ""), err
    assert "Weyl" in err


@pytest.mark.parametrize(
    "weight,code,expected",
    [("1", 3, ""), ("2", 0, ""), ("-2", 0, "-2\t1\n2\t1\n")],
)
def test_macdonald_on_a_half_integral_root(capsys, tmp_path, weight, code, expected):
    # s k = -k and the coroot is 4, so P_lam = (e^lam - e^(4 - lam)) / (1 - e^4):
    # a Laurent polynomial exactly when lam is even.
    path = tmp_path / "half_root.datum"
    path.write_text(HALF_ROOT, encoding="utf-8")
    got = run(capsys, "macdonald", "--datum-file", str(path), f"--lowest-weight={weight}")
    assert got[:2] == (code, expected), got[2]


@pytest.mark.parametrize(
    "text,argv,code,expected",
    [
        (SIMPLE_ONLY_GL3, ["char", "--lowest-weight=0,0,2"], 3, ""),
        (SIMPLE_ONLY_GL3, ["inverse-satake", "--lowest-weight=0,0,1"], 3, ""),
        (SIMPLE_ONLY_B2, ["verify", "--suite", "whittaker-schur"], 3, ""),
        (HALF_ROOT, ["char", "--lowest-weight=-1"], 3, ""),
        (HALF_ROOT, ["char", "--lowest-weight=-2"], 0, "-2\t1\n2\t1\n"),
        (SIMPLE_ONLY_GL3, ["verify", "--suite", "denominator"], 3, ""),
        (SIMPLE_ONLY_B2, ["verify", "--suite", "denominator"], 3, ""),
        (HYPERBOLIC, ["verify", "--suite", "denominator"], 3, ""),
        (B2_WITHOUT_E1, ["char", "--lowest-weight=-1,-1"], 3, ""),
        (B2_WITHOUT_E1, ["macdonald", "--lowest-weight=-1,-1"], 3, ""),
        (B2_WITHOUT_E1, ["verify", "--suite", "orthogonality"], 3, ""),
    ],
    ids=["gl3-simple-only-char", "gl3-simple-only-inverse-satake",
         "b2-simple-only-whittaker-schur", "half-root-odd-char", "half-root-even-char",
         "gl3-simple-only-denominator", "b2-simple-only-denominator",
         "hyperbolic-denominator", "b2-without-e1-char", "b2-without-e1-macdonald",
         "b2-without-e1-orthogonality"],
)
def test_invalid_data_give_typed_exits(capsys, tmp_path, text, argv, code, expected):
    path = tmp_path / "invalid.datum"
    path.write_text(text, encoding="utf-8")
    got = run(capsys, *argv, "--datum-file", str(path))
    assert got[:2] == (code, expected), got[2]


def test_stdout_runs_are_byte_identical(capsys):
    argv = ["basic", "--preset", "group:gl3", "--truncate", "4"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


# -- golden output ----------------------------------------------------------

# sha256 of stdout and the exit status for every subcommand, every verify
# suite and both formats, recorded before the spherical and L-factor
# pipelines were consolidated; any byte that moves fails here.
GOLDEN_WEIGHTS = {
    "group:gl2": "0,1",
    "group:gl3": "0,0,1",
    "group:b2": "-1,0",
    "whittaker:gl3": "0,0,1",
    "sp2n_gl2n:2": "0,1",
}

GOLDEN = {
    "group:gl2": {
        ("inverse-satake", "tsv"): (0, "5f94026c8fb57002e2644e970cf0460d9bb1c4823c37c02616790fa6ffd76e78"),
        ("inverse-satake", "records"): (0, "7b3b89c34c182ebc145a84bad03b8d8fb6e7a887a7a56b1c44f9d7406767d652"),
        ("basic", "tsv"): (0, "2c9db2b4fccb7c98894779246cf540b115b39215e7b9ab350887b70c72638847"),
        ("basic", "records"): (0, "dc98ad1ba26a90703319846bd38dadf8ef42704416fcec6222948c9f27c9a0fb"),
        ("macdonald", "tsv"): (0, "02b69566136f4daa38fa01927b18aa0492c95abffedeb2909376483702a58b6c"),
        ("macdonald", "records"): (0, "2eafe8f60f95646696e66bbc8b98dc18cd6fac53bbf2010787aa7fe93b51a33d"),
        ("char", "tsv"): (0, "02b69566136f4daa38fa01927b18aa0492c95abffedeb2909376483702a58b6c"),
        ("char", "records"): (0, "3c1d10a5f64b1c364ed48cf3b19f0fe30795a8a7b7431c1a1a05b407d560fc98"),
        ("verify --suite basic-pairing", "tsv"): (0, "a45ee23f33dae735a7e270e6f6baa1f0c7e3eb83dea3d5eb5e7774dd751c149c"),
        ("verify --suite basic-pairing", "records"): (0, "a45ee23f33dae735a7e270e6f6baa1f0c7e3eb83dea3d5eb5e7774dd751c149c"),
        ("verify --suite denominator", "tsv"): (0, "668282b3b91e84dfc96102ba10d6786fcacc5f163bbb0023bc32f39c763d4e8b"),
        ("verify --suite denominator", "records"): (0, "668282b3b91e84dfc96102ba10d6786fcacc5f163bbb0023bc32f39c763d4e8b"),
        ("verify --suite orthogonality", "tsv"): (0, "515eace7a648f182c0dcbeed743ca5fc17b626cd91fd017cf788b7b05f260e9e"),
        ("verify --suite orthogonality", "records"): (0, "515eace7a648f182c0dcbeed743ca5fc17b626cd91fd017cf788b7b05f260e9e"),
        ("verify --suite whittaker-schur", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite whittaker-schur", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "tsv"): (0, "cae4a82ef17ae62e42d6b8af19972cc243de2cca4151aff8222c195e524d3581"),
        ("verify --suite li --truncate 6", "records"): (0, "cae4a82ef17ae62e42d6b8af19972cc243de2cca4151aff8222c195e524d3581"),
    },
    "group:gl3": {
        ("inverse-satake", "tsv"): (0, "495efdaeef3de325029b2feff2be580eca02217f5e67b59701908e691ea45e9d"),
        ("inverse-satake", "records"): (0, "cd231d1bc89eab4887d5fbaddcef9beec35b7cadff29b20fb4100c928e406fc0"),
        ("basic", "tsv"): (0, "d833f75dc7cee63ab614ee4008f88b208a99458ef7b10cd4009f3dad73ae2cf9"),
        ("basic", "records"): (0, "44b423d9e2b23a0df4e74cc7ca0f6fa95ff7fa109f2bb2d0062973b9fe2a4b6f"),
        ("macdonald", "tsv"): (0, "46c0377e413bab5fbbd3b31881591792b9f08cb213b3be930cb50a5f74b856a6"),
        ("macdonald", "records"): (0, "7ab007561b6d4a4edecdc0a6c588e829dfc3ff0a0397545f636c8efaea8eb26f"),
        ("char", "tsv"): (0, "a26ac807b67c0f03be0388f7f05b543b04a4dfd935698669ef0a7d79d60ee775"),
        ("char", "records"): (0, "dbe93329bb48d1558fd0ab91e26c65efbb1a517b1f59e97460a3af06df0250a5"),
        ("verify --suite basic-pairing", "tsv"): (0, "a388cbbd945c9d0417875dcad5c2520b656db55598b8875b3045940a0aaf3c45"),
        ("verify --suite basic-pairing", "records"): (0, "a388cbbd945c9d0417875dcad5c2520b656db55598b8875b3045940a0aaf3c45"),
        ("verify --suite denominator", "tsv"): (0, "73c3968bc025b935fe4a01f6ad201ef5fdb4853ce59636110a77ae5f65d6173d"),
        ("verify --suite denominator", "records"): (0, "73c3968bc025b935fe4a01f6ad201ef5fdb4853ce59636110a77ae5f65d6173d"),
        ("verify --suite orthogonality", "tsv"): (0, "a78995eabb1e0b21d3b7c5828aea6b4569a26b94671919efe5b322bc5a21cfec"),
        ("verify --suite orthogonality", "records"): (0, "a78995eabb1e0b21d3b7c5828aea6b4569a26b94671919efe5b322bc5a21cfec"),
        ("verify --suite whittaker-schur", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite whittaker-schur", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "tsv"): (0, "ff40d722d51aadd5bcef4ea0a5c66f5273ce17c1511322b1a8836306b8f6a7a9"),
        ("verify --suite li --truncate 6", "records"): (0, "ff40d722d51aadd5bcef4ea0a5c66f5273ce17c1511322b1a8836306b8f6a7a9"),
    },
    "group:b2": {
        ("inverse-satake", "tsv"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("inverse-satake", "records"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("basic", "tsv"): (0, "0f63b2ef3139e2e40e13f2a797d36d8ab535f09a210101c6eac791a6fe54febc"),
        ("basic", "records"): (0, "2ac42ef2d323bdefb50160679ac12ac484d1548c26a8eb8999d388074bf968f8"),
        ("macdonald", "tsv"): (0, "6ac7c3322af1a60cd2dacb0fdec8a9dc6dc0cc2c8982f61d428e74963913895c"),
        ("macdonald", "records"): (0, "5fff5ab82e861c7085b4942df3ae0a34dff927a58d3d9bacacd7613cf3e51d99"),
        ("char", "tsv"): (0, "e7474d25932a24037895b4f5570df4a3fa224d413a59fd37c97edcdce352ee7f"),
        ("char", "records"): (0, "d96083b4a2926fa14293d46733d423705ea1e31241765a3c395a140d04fc1a80"),
        ("verify --suite basic-pairing", "tsv"): (0, "fb6fddeb68c1b0c83dc429ba968775a0f10097f7d0bea3a5790d00581821e1ed"),
        ("verify --suite basic-pairing", "records"): (0, "fb6fddeb68c1b0c83dc429ba968775a0f10097f7d0bea3a5790d00581821e1ed"),
        ("verify --suite denominator", "tsv"): (0, "8914fd27d608a865c542ada0ce6b2ec37941be81619bc89e8afc48d023b8a6f1"),
        ("verify --suite denominator", "records"): (0, "8914fd27d608a865c542ada0ce6b2ec37941be81619bc89e8afc48d023b8a6f1"),
        ("verify --suite orthogonality", "tsv"): (0, "94920e32a026c9bef32a242b37298048592e24562ef2e59d95dda88cf9fdf9c2"),
        ("verify --suite orthogonality", "records"): (0, "94920e32a026c9bef32a242b37298048592e24562ef2e59d95dda88cf9fdf9c2"),
        ("verify --suite whittaker-schur", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite whittaker-schur", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "tsv"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "records"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "whittaker:gl3": {
        ("inverse-satake", "tsv"): (0, "d0f7760a02756a7fd8ee38a3798e494712db5e224b708afecee963844ae9ce20"),
        ("inverse-satake", "records"): (0, "b12ceacbd51b09647f56b7f7cac37b75c7d0de74eb49619badc7339af4792474"),
        ("basic", "tsv"): (0, "769632c680ccf18190dec79b1d0968b5f636b9bdaf2cde9eaa9253eb1927e4eb"),
        ("basic", "records"): (0, "671482fe4f758a4754f43b3c190c9c33b485b3a6aa93fe91f45eee0618790cca"),
        ("macdonald", "tsv"): (0, "a26ac807b67c0f03be0388f7f05b543b04a4dfd935698669ef0a7d79d60ee775"),
        ("macdonald", "records"): (0, "d98cdddac25bf793749c0a423573e52d3584f85dff9f4748b2453306fcc5ae56"),
        ("char", "tsv"): (0, "a26ac807b67c0f03be0388f7f05b543b04a4dfd935698669ef0a7d79d60ee775"),
        ("char", "records"): (0, "dbe93329bb48d1558fd0ab91e26c65efbb1a517b1f59e97460a3af06df0250a5"),
        ("verify --suite basic-pairing", "tsv"): (0, "a388cbbd945c9d0417875dcad5c2520b656db55598b8875b3045940a0aaf3c45"),
        ("verify --suite basic-pairing", "records"): (0, "a388cbbd945c9d0417875dcad5c2520b656db55598b8875b3045940a0aaf3c45"),
        ("verify --suite denominator", "tsv"): (0, "73c3968bc025b935fe4a01f6ad201ef5fdb4853ce59636110a77ae5f65d6173d"),
        ("verify --suite denominator", "records"): (0, "73c3968bc025b935fe4a01f6ad201ef5fdb4853ce59636110a77ae5f65d6173d"),
        ("verify --suite orthogonality", "tsv"): (0, "a78995eabb1e0b21d3b7c5828aea6b4569a26b94671919efe5b322bc5a21cfec"),
        ("verify --suite orthogonality", "records"): (0, "a78995eabb1e0b21d3b7c5828aea6b4569a26b94671919efe5b322bc5a21cfec"),
        ("verify --suite whittaker-schur", "tsv"): (0, "496896f425340311a84013b2c11b857f453a1e4cb075438409d0cadcc732ed99"),
        ("verify --suite whittaker-schur", "records"): (0, "496896f425340311a84013b2c11b857f453a1e4cb075438409d0cadcc732ed99"),
        ("verify --suite li --truncate 6", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "sp2n_gl2n:2": {
        ("inverse-satake", "tsv"): (0, "2a8eb8866abba2b7a659eb27336becf0479bb86c26d79bb602b2d83562b91dac"),
        ("inverse-satake", "records"): (0, "8993b23543d0a03d98d943c00da73ba5f9fbdd9f11c65563e21aa5dbc3389d72"),
        ("basic", "tsv"): (0, "bccd020afd272e8150b5aac85be13c7a3f97a2496c310a53fb2c869180ce4e43"),
        ("basic", "records"): (0, "861bb82725a84cc9271a74a9bab720497e3b9e5f71e7822afee51b0b613c5602"),
        ("macdonald", "tsv"): (0, "02b69566136f4daa38fa01927b18aa0492c95abffedeb2909376483702a58b6c"),
        ("macdonald", "records"): (0, "2eafe8f60f95646696e66bbc8b98dc18cd6fac53bbf2010787aa7fe93b51a33d"),
        ("char", "tsv"): (0, "02b69566136f4daa38fa01927b18aa0492c95abffedeb2909376483702a58b6c"),
        ("char", "records"): (0, "3c1d10a5f64b1c364ed48cf3b19f0fe30795a8a7b7431c1a1a05b407d560fc98"),
        ("verify --suite basic-pairing", "tsv"): (0, "a45ee23f33dae735a7e270e6f6baa1f0c7e3eb83dea3d5eb5e7774dd751c149c"),
        ("verify --suite basic-pairing", "records"): (0, "a45ee23f33dae735a7e270e6f6baa1f0c7e3eb83dea3d5eb5e7774dd751c149c"),
        ("verify --suite denominator", "tsv"): (0, "668282b3b91e84dfc96102ba10d6786fcacc5f163bbb0023bc32f39c763d4e8b"),
        ("verify --suite denominator", "records"): (0, "668282b3b91e84dfc96102ba10d6786fcacc5f163bbb0023bc32f39c763d4e8b"),
        ("verify --suite orthogonality", "tsv"): (0, "515eace7a648f182c0dcbeed743ca5fc17b626cd91fd017cf788b7b05f260e9e"),
        ("verify --suite orthogonality", "records"): (0, "515eace7a648f182c0dcbeed743ca5fc17b626cd91fd017cf788b7b05f260e9e"),
        ("verify --suite whittaker-schur", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite whittaker-schur", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "tsv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --suite li --truncate 6", "records"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}


@pytest.mark.parametrize("preset_arg", sorted(GOLDEN))
def test_golden_stdout_digests(capsys, preset_arg):
    weight = GOLDEN_WEIGHTS[preset_arg]
    for (command, fmt), expected in GOLDEN[preset_arg].items():
        argv = [*command.split(), "--preset", preset_arg,
                f"--lowest-weight={weight}", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "--preset", "group:gl3", "--lowest-weight", "-1,-1,0"],
        ["macdonald", "--preset", "group:b2", "--lowest-weight", "-1,0"],
        ["inverse-satake", "--preset", "group:gl2", "--lowest-weight", "-1,0",
         "--truncate", "3", "--format", "records"],
    ],
)
def test_negative_lowest_weight_spellings_agree(capsys, argv):
    i = argv.index("--lowest-weight")
    joined = argv[:i] + [f"--lowest-weight={argv[i + 1]}"] + argv[i + 2:]
    code, out, err = run(capsys, *joined)
    assert code == 0, err
    assert run(capsys, *argv) == (0, out, err)


def test_console_entry_point_reads_sys_argv():
    import satake

    src = str(Path(satake.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "satake.cli", "macdonald", "--preset", "group:gl3",
         "--lowest-weight", "0,0,1"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert (0, digest) == GOLDEN["group:gl3"][("macdonald", "tsv")]
