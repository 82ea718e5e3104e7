import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from contact_duality import jsonio
from contact_duality.boolalg import FiniteBooleanAlgebra
from contact_duality.contact import overlap_contact
from contact_duality.duality import AlgebraMorphism, identity_morphism
from contact_duality.errors import StructureError
from contact_duality.localcontact import nca_as_lca
from contact_duality.cli import REGION_SAMPLE_CAP, _parse, _parsers, build_parser, main
from corpus import discrete
from test_golden import ROOT, command_lines
from contact_duality.spaces import SpaceMap, discrete_space

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_overlap_contact_passes(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "rho_s_2.json"))
        assert code == 0
        assert "NCA axioms: pass" in out

    def test_universal_contact_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "rho_l_2.json"))
        assert code == 1
        assert "C6" in out and "{p}" in out

    def test_structure_report(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "overlap_improper_2.json"))
        assert code == 0
        assert "BC axioms: pass" in out

    def test_invalid_structure_exits_one(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "overlap_gen_p.json"))
        assert code == 1
        assert "BC3" in out

    def test_morphism_and_map_and_space(self, capsys):
        assert run(capsys, "validate", str(DATA / "identity_morphism_2.json"))[0] == 0
        code, out, _ = run(capsys, "validate", str(DATA / "swap_2.json"))
        assert code == 0 and "perfect: yes" in out
        code, out, _ = run(capsys, "validate", str(DATA / "sierpinski.json"))
        assert code == 0 and "hausdorff: no" in out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "validate", str(DATA / "nope.json"))
        assert code == 2

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = b'{"atoms": ["\xff\xfe"]}'
        bad.write_bytes(data)
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}: not UTF-8 text "
                       f"(byte {data.index(0xff)}: invalid start byte)\n")

    @pytest.mark.parametrize("n", [9, 24])
    def test_path_relation_fails_interpolation_quickly(self, n, tmp_path, capsys):
        # at 9 atoms the element scan of C4 alone visits 512^3 triples
        names = [f"a{i}" for i in range(n)]
        doc = {"algebra": {"atoms": names},
               "contact": [[names[i], names[i + 1]] for i in range(n - 1)]}
        path = tmp_path / f"path{n}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert "violated C5 at ({a0}, {a2})" in out
        assert "CA axioms: pass" in out and "connected: yes" in out

    @pytest.mark.parametrize("shape, bounded, code, witness", [
        ("overlap", 24, 0, None),
        ("overlap", 23, 1, "violated BC2 at ({a23}, {a23})"),
        ("path", 24, 1, "violated BC1 at ({a0}, {a0,a1})"),
    ])
    def test_structure_at_the_atom_cap_validates_quickly(
            self, shape, bounded, code, witness, tmp_path, capsys):
        path = structure_file(tmp_path, shape, 24, bounded)
        start = time.perf_counter()
        found, out, _ = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 5.0
        assert found == code
        assert ("BC axioms: pass" in out) == (witness is None)
        assert witness is None or witness in out

    def test_indiscrete_space_and_its_identity_validate_quickly(self, tmp_path, capsys):
        # connectedness and closedness used to scan all 2^24 point sets
        names = [f"x{i}" for i in range(24)]
        space = {"points": names, "min_nbhd": {name: names for name in names}}
        identity = {"source": space, "target": space, "assign": {name: name for name in names}}
        for doc, line in ((space, "connected: yes"), (identity, "closed: yes")):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            start = time.perf_counter()
            code, out, _ = run(capsys, "validate", str(path))
            assert time.perf_counter() - start < 5.0
            assert code == 0
            assert line in out.splitlines()

    def test_semantic_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algebra": {"atoms": ["p"]}, "contact": [["p", "z"]]}))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "unknown atom" in err


def structure_file(tmp_path, shape, n, bounded):
    """An n-atom path or overlap structure whose ideal holds the first atoms."""
    names = [f"a{i}" for i in range(n)]
    pairs = [[names[i], names[i + 1]] for i in range(n - 1)] if shape == "path" else []
    doc = {"algebra": {"atoms": names}, "contact": pairs, "bounded": names[:bounded]}
    path = tmp_path / f"{shape}{n}_{bounded}.json"
    path.write_text(json.dumps(doc))
    return path


def identity_morphism_file(tmp_path, n):
    """The identity morphism of the n-atom overlap structure with the improper ideal."""
    algebra = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
    structure = nca_as_lca(overlap_contact(algebra))
    path = tmp_path / f"identity{n}.json"
    path.write_text(jsonio.dumps(jsonio.morphism_to_json(identity_morphism(structure))))
    return path


def all_to_top_file(tmp_path, n):
    """The table of the n-atom overlap structure that sends every nonzero element to top."""
    algebra = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
    structure = nca_as_lca(overlap_contact(algebra))
    phi = AlgebraMorphism(structure, structure, (0,) + (algebra.top,) * algebra.top)
    path = tmp_path / f"all_to_top{n}.json"
    path.write_text(jsonio.dumps(jsonio.morphism_to_json(phi)))
    return path


class TestClusters:
    def test_path_relation_lists_two(self, capsys):
        code, out, _ = run(capsys, "clusters", str(DATA / "path_pq_r.json"))
        assert code == 0
        assert out.count("cluster ") == 2
        assert "{p,q}" in out and "{r}" in out

    def test_structure_with_proper_ideal_flags_infinity(self, capsys):
        code, out, _ = run(capsys, "clusters", str(DATA / "overlap_gen_p.json"))
        assert code == 0
        assert "sigma_infinity {q}" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "clusters", str(DATA / "overlap_gen_p.json"),
                           "--format", "json")
        payload = json.loads(out)
        assert payload["clusters"] == [{"support": ["p"], "bounded": True}]
        assert payload["sigma_infinity"] == {"support": ["q"]}

    def test_proper_structure_at_the_atom_cap_lists_quickly(self, tmp_path, capsys):
        path = structure_file(tmp_path, "overlap", 24, 23)
        start = time.perf_counter()
        code, out, _ = run(capsys, "clusters", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert out.count("cluster ") == 23
        assert out.endswith("sigma_infinity {a23}\n")


class TestDualizeAndLift:
    def test_dualize_improper_overlap(self, capsys):
        code, out, _ = run(capsys, "dualize", str(DATA / "overlap_improper_2.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "compact"
        assert len(payload["space"]["points"]) == 2
        assert payload["regions"]["p,q"] == payload["space"]["points"]

    def test_dualize_refuses_invalid_structure(self, capsys):
        code, _, err = run(capsys, "dualize", str(DATA / "overlap_gen_p.json"))
        assert code == 1
        assert "refused" in err

    def test_lift_round_trips_through_dualize(self, capsys, tmp_path):
        code, out, _ = run(capsys, "lift", str(DATA / "discrete3.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["algebra"]["atoms"]) == 3
        assert payload["bounded"] == payload["algebra"]["atoms"]

    def test_dot_outputs(self, capsys):
        code, out, _ = run(capsys, "clusters", str(DATA / "path_pq_r.json"),
                           "--format", "dot")
        assert code == 0 and out.startswith("graph contact {")
        code, out, _ = run(capsys, "dualize", str(DATA / "overlap_improper_2.json"),
                           "--format", "dot")
        assert code == 0 and out.startswith("digraph specialization {")
        code, out, _ = run(capsys, "validate", str(DATA / "sierpinski.json"),
                           "--format", "dot")
        assert code == 0 and "->" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("atoms", [["", "q"], ["p,q", "p", "q"]])
    def test_dualize_refuses_atom_names_that_cannot_be_region_keys(self, atoms, fmt,
                                                                    tmp_path, capsys):
        # the region keys join atom names with commas: "" would collide with
        # the bottom's key, and "p,q" with the key of the join of p and q
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"algebra": {"atoms": atoms}, "contact": [],
                                    "bounded": atoms}))
        code, out, err = run(capsys, "dualize", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"dual space: atom name {atoms[0]!r} cannot appear in a table key" in err


class TestMapsAndMorphisms:
    def test_dual_map_both_directions(self, capsys):
        code, out, _ = run(capsys, "dual-map", str(DATA / "swap_2.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["table"]["a"] == ["b"]
        code, out, _ = run(capsys, "dual-map", str(DATA / "swap_dual_morphism.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["assign"] == {"{a}": "{b}", "{b}": "{a}"}

    def test_check_morphism(self, capsys):
        code, out, _ = run(capsys, "check-morphism", str(DATA / "identity_morphism_2.json"))
        assert code == 0
        assert "PAL axioms: pass" in out

    @pytest.mark.parametrize("verb", ["check-morphism", "validate"])
    def test_identity_morphism_on_fourteen_atoms_checks_quickly(self, verb, tmp_path, capsys):
        # the element walk visited 4^14 pairs for PAL2 and again for PAL3
        path = identity_morphism_file(tmp_path, 14)
        start = time.perf_counter()
        code, out, _ = run(capsys, verb, str(path))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, "PAL axioms: pass\n")

    @pytest.mark.parametrize("verb", ["check-morphism", "validate"])
    def test_all_to_top_table_on_sixteen_atoms_checks_quickly(self, verb, tmp_path, capsys):
        # the element walk over all pairs took 4.0 s on this table at 13 atoms
        path = all_to_top_file(tmp_path, 16)
        start = time.perf_counter()
        code, out, _ = run(capsys, verb, str(path))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "PAL axioms: fail\n  violated PAL2 at ({a0}, {a1})\n")

    def test_table_failing_meets_names_its_least_witness(self, tmp_path, capsys):
        doc = json.loads((DATA / "identity_morphism_2.json").read_text())
        doc["table"]["q"] = ["p"]
        path = tmp_path / "not_meet_preserving.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-morphism", str(path))
        assert code == 1
        assert out == ("PAL axioms: fail\n"
                       "  violated PAL2 at ({p}, {q})\n"
                       "  violated PAL3 at ({p}, {p})\n")

    def test_compose_swap_with_itself_is_identity(self, capsys):
        code, out, _ = run(capsys, "compose", str(DATA / "swap_dual_morphism.json"),
                           str(DATA / "swap_dual_morphism.json"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["table"] == {"": [], "a": ["a"], "b": ["b"], "a,b": ["a", "b"]}

    def test_roundtrip_verbs(self, capsys):
        for name in ("discrete3.json", "swap_2.json", "overlap_improper_2.json",
                     "swap_dual_morphism.json"):
            code, out, _ = run(capsys, "roundtrip", str(DATA / name))
            assert code == 0, name
            assert "pass" in out

    def test_dual_map_refuses_non_perfect(self, capsys, tmp_path):
        sierp = jsonio.space_from_json(
            json.loads((DATA / "sierpinski.json").read_text()))
        one = discrete(1)
        f = SpaceMap(one, sierp, (0,))
        bad = tmp_path / "bad_map.json"
        bad.write_text(jsonio.dumps(jsonio.map_to_json(f)))
        code, _, err = run(capsys, "dual-map", str(bad))
        assert code == 1
        assert "closed" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["x,y", ""])
    def test_dual_map_refuses_point_names_that_cannot_be_table_keys(self, name, fmt,
                                                                    tmp_path, capsys):
        # the dual morphism's table keys join the target's point names with
        # commas, so its table could not be read back
        space = {"points": [name, "z"], "min_nbhd": {name: [name], "z": ["z"]}}
        path = tmp_path / "swap.json"
        path.write_text(json.dumps({"source": space, "target": space,
                                    "assign": {name: "z", "z": name}}))
        code, out, err = run(capsys, "dual-map", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"source atom name {name!r} cannot appear in a table key" in err


class TestNoElementWalk:
    def test_no_verb_walks_cluster_elements_on_the_data_files(self, cluster_walks, law_walks,
                                                              monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        codes = set()
        for argv in command_lines():
            if argv[0] != "region":
                codes.add(main(argv))
        capsys.readouterr()
        assert codes == {0, 1, 2}
        assert cluster_walks == []
        assert law_walks == []


class TestScaledDualSpaces:
    """Dual spaces below the 16-atom cap are built quickly.

    An element-level cluster scan over every support took 19-37 s on the
    12-atom inputs, and longer at 16 atoms.
    """

    def timed(self, capsys, *argv):
        start = time.perf_counter()
        found = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        return found

    def test_dualize_at_the_cap(self, tmp_path, capsys):
        code, out, _ = self.timed(capsys, "dualize",
                                  str(structure_file(tmp_path, "overlap", 16, 16)))
        lines = out.splitlines()
        assert code == 0
        assert lines[1] == "points: " + ", ".join(f"{{a{i}}}" for i in range(16))
        assert len(lines) == 2 + (1 << 16)

    def test_dualize_over_the_cap_refuses(self, tmp_path, capsys):
        found = self.timed(capsys, "dualize", str(structure_file(tmp_path, "overlap", 17, 17)))
        assert found == (1, "", "refused: grill enumeration capped at 65536 elements, got 131072\n")

    def test_roundtrip_of_the_discrete_space_at_the_cap(self, tmp_path, capsys):
        path = tmp_path / "discrete16.json"
        space = discrete_space(f"x{i}" for i in range(16))
        path.write_text(jsonio.dumps(jsonio.space_to_json(space)))
        found = self.timed(capsys, "roundtrip", str(path))
        assert found == (0, "roundtrip: space: pass\n", "")

    def test_roundtrip_of_a_twelve_atom_structure(self, tmp_path, capsys):
        code, out, _ = self.timed(capsys, "roundtrip",
                                  str(structure_file(tmp_path, "overlap", 12, 12)))
        assert code == 0
        assert out.startswith("roundtrip: structure: pass\n")

    def test_identity_morphism_on_twelve_atoms(self, tmp_path, capsys):
        path = str(identity_morphism_file(tmp_path, 12))
        found = self.timed(capsys, "dual-map", path)
        assert found == (0, "".join(f"{{a{i}}} -> {{a{i}}}\n" for i in range(12)), "")
        found = self.timed(capsys, "roundtrip", path)
        assert found == (0, "roundtrip: morphism naturality: pass\n", "")

    def test_identity_map_of_the_discrete_space_at_the_cap(self, tmp_path, capsys):
        # its dual is the identity morphism of the 16-atom overlap structure
        path = tmp_path / "identity_map16.json"
        space = discrete_space(f"a{i}" for i in range(16))
        path.write_text(jsonio.dumps(jsonio.map_to_json(SpaceMap.identity(space))))
        found = self.timed(capsys, "dual-map", str(path), "--format", "json")
        assert found == (0, identity_morphism_file(tmp_path, 16).read_text(), "")
        found = self.timed(capsys, "roundtrip", str(path))
        assert found == (0, "roundtrip: map naturality: pass\n", "")

    def test_compose_of_the_identity_at_the_cap(self, tmp_path, capsys):
        # regularization reads one subset-join table; the submask walk took
        # 6.0-6.8 s on this pair in a fresh process
        path = identity_morphism_file(tmp_path, 16)
        found = self.timed(capsys, "compose", str(path), str(path), "--format", "json")
        assert found == (0, path.read_text(), "")


class TestRegionVerb:
    def test_calculator_operations(self, capsys):
        assert run(capsys, "region", "union", "[0,1]", "[1,2]")[1].strip() == "[0,2]"
        assert run(capsys, "region", "meet", "[0,1]", "[1,2]")[1].strip() == "empty"
        assert run(capsys, "region", "complement", "[0,1]")[1].strip() == "[-inf,0] u [1,inf]"
        assert run(capsys, "region", "contact", "[0,1]", "[1,2]")[1].strip() == "true"
        assert run(capsys, "region", "waybelow", "[0,1]", "[0,2]")[1].strip() == "false"
        assert run(capsys, "region", "bounded", "[-inf,0]")[1].strip() == "false"
        assert run(capsys, "region", "interpolate", "[0,1]", "[-1,2]")[1].strip() == "[-1/2,3/2]"
        assert run(capsys, "region", "affine", "2", "0", "[0,2]")[1].strip() == "[0,1]"

    def test_options_go_before_the_operation(self, capsys):
        # a negative fractional slope needs "--", which argparse accepts
        # only after the operation; options such as --format come before it
        code, out, _ = run(capsys, "region", "--format", "json", "affine", "--", "-1/2", "0",
                           "[0,1]")
        assert code == 0
        assert json.loads(out) == {"intervals": [["-2", "0"]]}
        assert run(capsys, "region", "affine", "--", "-1/2", "0", "[0,1]")[:2] == (0, "[-2,0]\n")

    def test_laws_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "region", "laws", "--samples", "200", "--seed", "3",
                             "--format", "json")
        code2, out2, _ = run(capsys, "region", "laws", "--samples", "200", "--seed", "3",
                             "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("samples", [-5, -1, REGION_SAMPLE_CAP + 1, 10 ** 12])
    def test_laws_refuse_a_sample_count_outside_the_cap(self, samples, capsys):
        code, out, err = run(capsys, "region", "laws", "--samples", str(samples))
        assert (code, out) == (2, "")
        assert err == (f"error: --samples must lie between 0 and {REGION_SAMPLE_CAP}, "
                       f"got {samples}\n")

    def test_laws_at_a_tenth_of_the_cap_stay_linear(self, capsys):
        # about 0.3 s in process; a superlinear sampler or law path would show
        start = time.perf_counter()
        assert run(capsys, "region", "laws", "--samples", "10000")[:2] == \
            (0, "10000 samples, seed 1729: all laws hold\n")
        assert time.perf_counter() - start < 2.0

    def test_laws_accept_zero_samples(self, capsys):
        assert run(capsys, "region", "laws", "--samples", "0")[:2] == \
            (0, "0 samples, seed 1729: all laws hold\n")

    def test_region_errors(self, capsys):
        code, _, err = run(capsys, "region", "interpolate", "[0,2]", "[0,3]")
        assert code == 1
        code, _, err = run(capsys, "region", "union", "[0,1]")
        assert code == 2

    @pytest.mark.parametrize("op", ["union", "meet", "le", "contact", "waybelow", "interpolate"])
    @pytest.mark.parametrize("operands", [["[0,1]"], ["[0,1]", "[-1,2]", "[1,2]"]],
                             ids=["one", "three"])
    def test_binary_operations_refuse_other_operand_counts(self, op, operands, capsys):
        assert run(capsys, "region", op, *operands) == \
            (2, "", f"error: region {op} takes two regions\n")

    @pytest.mark.parametrize("op", ["complement", "bounded"])
    @pytest.mark.parametrize("operands", [[], ["[0,1]", "[1,2]"]], ids=["none", "two"])
    def test_unary_operations_refuse_other_operand_counts(self, op, operands, capsys):
        assert run(capsys, "region", op, *operands) == \
            (2, "", f"error: region {op} takes one region\n")

    def test_affine_refuses_two_operands(self, capsys):
        assert run(capsys, "region", "affine", "2", "[0,1]") == \
            (2, "", "error: region affine takes a slope, an offset and a region\n")

    def test_laws_ignore_their_operands(self, capsys):
        assert run(capsys, "region", "laws", "[0,1]", "--samples", "1") == \
            (0, "1 samples, seed 1729: all laws hold\n", "")

    def test_huge_exponent_exits_two(self, capsys):
        code, out, err = run(capsys, "region", "union", "[0,1e200000]", "[0,1]")
        assert (code, out) == (2, "")
        assert err == "error: rational endpoint '1e200000' spells more than 1000 digits\n"
        code, out, err = run(capsys, "region", "affine", "--", "-1E+2_00000", "0", "[0,1]")
        assert (code, out) == (2, "")
        assert err.startswith("error: rational '-1E+2_00000'")

    def test_exponent_is_refused_before_the_number_is_built(self, capsys):
        start = time.perf_counter()
        for operands in (("[0,1e999999999]", "[0,1]"), ("[0,1e-999999999]", "[0,1]")):
            assert run(capsys, "region", "union", *operands)[:2] == (2, "")
        assert run(capsys, "region", "affine", "1e999999999", "0", "[0,1]")[:2] == (2, "")
        assert time.perf_counter() - start < 5.0

    def test_exponents_within_the_cap_still_parse(self, capsys):
        assert run(capsys, "region", "union", "[0,1e3]", "[0,1]")[:2] == (0, "[0,1000]\n")
        code, out, _ = run(capsys, "region", "affine", "1e-3", "0", "[0,1]")
        assert (code, out) == (0, "[0,1000]\n")

    def test_affine_with_a_bad_slope_or_offset_exits_two(self, capsys):
        for operands in (("x", "0"), ("1/0", "0"), ("1", "y"), ("1", "2/0")):
            code, out, err = run(capsys, "region", "affine", "--", *operands, "[0,1]")
            assert (code, out) == (2, "")
            assert err.startswith("error: bad rational") and "Traceback" not in err


# One valid input per verb and per region operation, with what it prints; the
# tests below fail when the parser offers a verb or an operation that no
# input here covers, or that does not reach its own handler.
VERB_INPUTS = {
    "validate": ["rho_s_2.json"],
    "clusters": ["path_pq_r.json"],
    "dualize": ["overlap_improper_2.json"],
    "lift": ["sierpinski.json"],
    "dual-map": ["swap_2.json"],
    "check-morphism": ["identity_morphism_2.json"],
    "compose": ["swap_dual_morphism.json", "swap_dual_morphism.json"],
    "roundtrip": ["discrete3.json"],
    "region": None,  # the operations of REGION_INPUTS
}
REGION_INPUTS = {
    "union": (["[0,1]", "[1,2]"], "[0,2]"),
    "meet": (["[0,1]", "[1/2,2]"], "[1/2,1]"),
    "complement": (["[0,1]"], "[-inf,0] u [1,inf]"),
    "le": (["[0,1]", "[0,2]"], "true"),
    "contact": (["[0,1]", "[1,2]"], "true"),
    "waybelow": (["[0,1]", "[-1,2]"], "true"),
    "bounded": (["[-inf,0]"], "false"),
    "interpolate": (["[0,1]", "[-1,2]"], "[-1/2,3/2]"),
    "affine": (["2", "0", "[0,2]"], "[0,1]"),
    "laws": (["--samples", "1"], "1 samples, seed 1729: all laws hold"),
}


class TestDispatchCoversTheParser:
    def test_every_verb_and_region_operation_has_an_input(self):
        verbs = _parsers()[1]
        assert set(VERB_INPUTS) == set(verbs)
        operation = next(a for a in verbs["region"]._actions if a.dest == "operation")
        assert set(REGION_INPUTS) == set(operation.choices)

    @pytest.mark.parametrize("verb", [v for v, files in VERB_INPUTS.items() if files])
    def test_verb_reaches_its_handler(self, verb, capsys):
        argv = [verb, *(str(DATA / name) for name in VERB_INPUTS[verb])]
        assert _parse(argv).run.__name__ == "cmd_" + verb.replace("-", "_")
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and out and err == ""

    @pytest.mark.parametrize("op", list(REGION_INPUTS))
    def test_region_operation_reaches_its_handler(self, op, capsys):
        operands, printed = REGION_INPUTS[op]
        assert _parse(["region", op, *operands]).run.__name__ == "cmd_region"
        assert run(capsys, "region", op, *operands) == (0, printed + "\n", "")


def intervals_text(starts, lo, hi):
    """The region that is the union of [s + lo, s + hi] over starts."""
    return " u ".join(f"[{s + lo},{s + hi}]" for s in starts)


class TestLargeRegionOperands:
    """Two 2,000-interval operands, each in the shape that scanning every pair
    of intervals makes slowest; every operation is one pass over them."""

    STARTS = range(0, 8000, 4)

    @pytest.mark.parametrize("op, left, right, expected", [
        # interleaved: every interval of one overlaps one of the other
        ("meet", (0, 2), (1, 3), intervals_text(STARTS, 1, 2)),
        # far apart: no interval touches any other
        ("contact", (0, 1), (100000, 100001), "false"),
        # equal: each interval is found at its own position
        ("le", (0, 2), (0, 2), "true"),
        # nested: each interval sits inside its own outer interval
        ("waybelow", (1, 2), (0, 3), "true"),
        ("interpolate", (1, 2), (0, 3),
         intervals_text(STARTS, Fraction(1, 2), Fraction(5, 2))),
    ], ids=["meet-interleaved", "contact-far-apart", "le-equal", "waybelow-nested",
            "interpolate-nested"])
    def test_operation_finishes_quickly(self, op, left, right, expected, capsys):
        operands = [intervals_text(self.STARTS, *ends) for ends in (left, right)]
        start = time.perf_counter()
        code, out, _ = run(capsys, "region", op, *operands)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, expected + "\n")


class TestDeterminismAndRoundTrip:
    def test_json_round_trip_of_every_data_file(self):
        for path in sorted(DATA.glob("*.json")):
            text = path.read_text()
            kind, value = jsonio.loads(text, where=path.name)
            emitter = {
                "contact": jsonio.contact_to_json,
                "structure": jsonio.lca_to_json,
                "space": jsonio.space_to_json,
                "map": jsonio.map_to_json,
                "morphism": jsonio.morphism_to_json,
                "region": jsonio.region_to_json,
                "algebra": jsonio.algebra_to_json,
            }[kind]
            emitted = jsonio.dumps(emitter(value))
            kind2, value2 = jsonio.loads(emitted, where=path.name)
            assert kind2 == kind
            assert jsonio.dumps(emitter(value2)) == emitted

    def test_byte_identical_reports(self, capsys):
        first = run(capsys, "validate", str(DATA / "rho_l_2.json"), "--format", "json")
        second = run(capsys, "validate", str(DATA / "rho_l_2.json"), "--format", "json")
        assert first == second

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", str(DATA / "rho_s_2.json"), "--bogus"])

    def test_parser_rejection_leaves_later_calls_as_fresh_ones(self, capsys):
        # main keeps one parser per process; a usage error must not change it
        rejected = ["check-morphism", str(DATA / "identity_morphism_2.json"), "--kind", "XYZ"]
        valid = ["check-morphism", str(DATA / "identity_morphism_2.json"), "--format", "json"]
        with pytest.raises(SystemExit) as raised:
            main(rejected)
        captured = capsys.readouterr()
        in_process = [(raised.value.code, captured.out, captured.err), run(capsys, *valid)]
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
        fresh = []
        for argv in (rejected, valid):
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from contact_duality.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv], capture_output=True, text=True, env=env, timeout=60)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert fresh[0][0] == 2 and "invalid choice" in fresh[0][2]


VERBS = ("validate", "clusters", "dualize", "lift", "dual-map", "check-morphism", "compose",
         "roundtrip", "region")
PARSE_EDGE_CASES = (
    [], ["-h"], ["--help"], ["bogus"], ["--format", "json", "validate", "a.json"],
    *([verb] for verb in VERBS), *([verb, "-h"] for verb in VERBS),
    ["validate", "a.json", "b.json"], ["compose", "a.json", "b.json", "c.json"],
    ["validate", "a.json", "--format", "xml"], ["validate", "a.json", "--max-atoms", "x"],
    ["validate", "a.json", "--bogus"], ["validate", "--", "-a.json"],
    ["check-morphism", "a.json", "--kind", "DVAL", "--format", "json", "--max-atoms", "30"],
    ["compose", "a.json", "b.json", "--seed", "3"],
    ["region", "laws", "--samples", "40", "--seed", "5"], ["region", "--samples", "x"],
    ["region", "affine", "--", "-1/2", "0", "[0,1]"],
    ["region", "affine", "--format", "json", "--", "-1/2", "0", "[0,1]"],
    ["region", "--format", "json", "affine", "--", "-1/2", "0", "[0,1]"],
)


def parse_outcome(parse, argv, capsys):
    """The namespace parse(argv) gives, or its exit code, stdout and stderr."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


# An option between region's operation and its operands, which parse_args
# refuses, parses as the same option put before the operation.
OPTION_MOVED = {
    ("region", "affine", "--format", "json", "--", "-1/2", "0", "[0,1]"):
        ["region", "--format", "json", "affine", "--", "-1/2", "0", "[0,1]"],
}


class TestOnePassParse:
    @pytest.mark.parametrize("argv", PARSE_EDGE_CASES, ids=" ".join)
    def test_equals_the_two_pass_parse(self, argv, capsys):
        # the top-level parser's own parse_args runs the verb's parser as a
        # second pass; main's one pass must give the same namespace or exit
        expected = parse_outcome(build_parser().parse_args,
                                 OPTION_MOVED.get(tuple(argv), list(argv)), capsys)
        assert parse_outcome(_parse, list(argv), capsys) == expected

    @pytest.mark.parametrize("argv", list(OPTION_MOVED), ids=" ".join)
    def test_option_after_the_operation_runs_as_before_it(self, argv, capsys):
        found = run(capsys, *argv)
        assert found == run(capsys, *OPTION_MOVED[argv])
        assert found[0] == 0 and json.loads(found[1]) == {"intervals": [["-2", "0"]]}


class TestCapOverride:
    def test_max_atoms_flag_raises_the_cap(self, capsys, tmp_path, monkeypatch):
        from contact_duality.boolalg import MAX_ATOMS_ENV
        monkeypatch.delenv(MAX_ATOMS_ENV, raising=False)
        names = [f"a{i}" for i in range(25)]
        doc = {"algebra": {"atoms": names}, "contact": []}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        # cluster listing stays on the atom side, so it is cheap even wide;
        # the default cap still rejects the algebra at parse time
        code, _, err = run(capsys, "clusters", str(path))
        assert code == 2 and "cap" in err
        code, out, _ = run(capsys, "clusters", str(path), "--max-atoms", "30")
        assert code == 0
        assert out.count("cluster ") == 25

    def test_max_atoms_flag_does_not_outlive_the_call(self, capsys, tmp_path, monkeypatch):
        import os

        from contact_duality.boolalg import MAX_ATOMS_ENV, atom_cap
        monkeypatch.delenv(MAX_ATOMS_ENV, raising=False)
        before = dict(os.environ)
        assert run(capsys, "region", "bounded", "[0,1]", "--max-atoms", "3")[0] == 0
        assert dict(os.environ) == before
        assert atom_cap() == 24
        monkeypatch.setenv(MAX_ATOMS_ENV, "20")
        assert run(capsys, "validate", str(tmp_path / "missing.json"), "--max-atoms", "3")[0] == 2
        assert os.environ[MAX_ATOMS_ENV] == "20"


class TestParserRejections:
    # one document per kind, each also holding the marker fields of every kind
    # after its own, so that only the order of the kind table reads it right
    KIND_DOCUMENTS = {
        "morphism": json.loads((DATA / "identity_morphism_2.json").read_text())
        | {"assign": {}, "min_nbhd": {}},
        "map": json.loads((DATA / "swap_2.json").read_text()) | {"min_nbhd": {}, "bounded": []},
        "space": json.loads((DATA / "sierpinski.json").read_text()) | {"bounded": [0]},
        "structure": json.loads((DATA / "overlap_gen_p.json").read_text()) | {"intervals": 0},
        "contact": json.loads((DATA / "path_pq_r.json").read_text()) | {"intervals": 0},
        "region": json.loads((DATA / "region_ray.json").read_text()) | {"atoms": 0},
        "algebra": {"atoms": ["p"]},
    }

    @pytest.mark.parametrize("kind", list(KIND_DOCUMENTS))
    def test_kind_is_read_by_the_first_marker_field_in_table_order(self, kind):
        assert jsonio.loads(json.dumps(self.KIND_DOCUMENTS[kind]))[0] == kind

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "top level must be a JSON object"),
        ({"point": ["a"]}, "unrecognized document: no known discriminating field"),
    ], ids=["array", "no-marker-field"])
    def test_kind_errors_name_the_file(self, doc, message, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path)) == (2, "", f"error: {path}: {message}\n")
        with pytest.raises(StructureError) as raised:
            jsonio.loads(json.dumps(doc), where="list.json")
        assert str(raised.value) == f"list.json: {message}"

    def test_map_assigning_an_unknown_point_is_refused(self, tmp_path, capsys):
        space = {"points": ["a"], "min_nbhd": {"a": ["a"]}}
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"source": space, "target": space,
                                    "assign": {"a": "a", "zzz": "a"}}))
        assert run(capsys, "validate", str(path)) == \
            (2, "", f"error: {path}: map: assignments given for unknown points ['zzz']\n")

    def test_diagonal_contact_pair_rejected(self, tmp_path, capsys):
        doc = {"algebra": {"atoms": ["p", "q"]}, "contact": [["p", "p"]]}
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "diagonal" in err

    @pytest.mark.parametrize("doc, message", [
        ({"algebra": {"atoms": ["p", "q"]}, "contact": [[["p"], "q"]]}, "unknown atom ['p']"),
        ({"algebra": {"atoms": ["p", "q"]}, "contact": [["p", {"q": 1}]]},
         "unknown atom {'q': 1}"),
        ({"points": ["a", "b"], "min_nbhd": {"a": ["a", ["b"]], "b": ["b"]}},
         "space: unknown point ['b'] in a neighbourhood"),
        ({"points": ["a", "b"], "min_nbhd": {"a": ["a", 2], "b": ["b"]}},
         "space: unknown point 2 in a neighbourhood"),
        ({"source": {"points": ["a"], "min_nbhd": {"a": ["a"]}},
          "target": {"points": ["a"], "min_nbhd": {"a": ["a"]}}, "assign": {"a": ["a"]}},
         "unknown point ['a']"),
    ])
    def test_names_of_the_wrong_json_type_are_unknown(self, doc, message, tmp_path, capsys):
        path = tmp_path / "names.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path)) == (2, "", f"error: {path}: {message}\n")

    def test_duplicate_morphism_key_rejected(self, tmp_path, capsys):
        base = json.loads((DATA / "identity_morphism_2.json").read_text())
        base["table"]["q,p"] = ["p"]  # same element as "p,q" under a different key
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(base))
        code, _, err = run(capsys, "check-morphism", str(path))
        assert code == 2
        assert "twice" in err

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: arrays or objects nested too deeply\n"

    def test_byte_order_mark_exits_two_with_the_json_message(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_text('\ufeff{"atoms": ["p"]}', encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"

    def test_overlong_json_integer_exits_two(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"intervals": [[0, ' + "7" * 5000 + "]]}")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: a number has too many digits\n"

    def test_number_endpoints_keep_their_literal_value(self):
        cases = {"1e400": Fraction(10) ** 400,
                 "12345678901234567890.5": Fraction(24691357802469135781, 2),
                 "0.1": Fraction(1, 10),
                 "-2.5E-3": Fraction(-1, 400)}
        for literal, value in cases.items():
            _, region = jsonio.loads('{"intervals": [[-1, %s]]}' % literal)
            assert region.intervals == ((Fraction(-1), value),), literal

    def test_number_endpoint_over_the_digit_cap_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"intervals": [[0, 1e2000]]}')
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: rational endpoint '1e2000' spells more than 1000 digits\n"
        path.write_text('{"intervals": [[0, 1e400]]}')
        assert run(capsys, "validate", str(path))[:2] == (0, "region: well formed\n")

    def test_partial_morphism_table_rejected(self, tmp_path, capsys):
        base = json.loads((DATA / "identity_morphism_2.json").read_text())
        del base["table"]["p"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(base))
        code, _, err = run(capsys, "check-morphism", str(path))
        assert code == 2
        assert "misses" in err

    def test_short_table_on_a_wide_algebra_is_refused_without_its_size(self, tmp_path, capsys):
        import tracemalloc

        atoms = [f"a{i}" for i in range(24)]
        doc = {"source": {"algebra": {"atoms": atoms}, "contact": [], "bounded": atoms},
               "target": {"algebra": {"atoms": ["p"]}, "contact": [], "bounded": ["p"]},
               "table": {"": [], "a0": ["p"], "a0,a1": ["p"]}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "check-morphism", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: {path}: morphism: table misses element 'a1'\n"
        assert peak < 4 << 20  # a table of 2**24 entries would take over 128 MiB
        # a key assigned twice is reported before the missing element
        doc["table"]["a1,a0"] = ["p"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-morphism", str(path))
        assert code == 2 and "'a1,a0' assigned twice" in err
