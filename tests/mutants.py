"""Mutation checks: each mutant must be killed by the tests it names.

A mutant replaces one exact text in one file under src/ and names the test
ids that must fail on it.  For each mutant this script copies src/, tests/
and pyproject.toml to a temporary directory, applies the mutant there, runs
the named tests with pytest and counts the mutant as killed when they fail.
It prints one JSON object,

    {"killed": [...], "survived": [...], "broken": [...], "missing": [...]}

and exits 1 if a mutant survives, if its run ends other than in failing
tests or runs out of time (broken), or if its old text no longer occurs
exactly once (missing).
It needs only the standard library and pytest, and pytest does not collect
it.  tests/test_mutants.py checks the old texts on every test run.

    python tests/mutants.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/contact_duality"
TIMEOUT_S = 300  # per mutant; a mutant that loops counts as broken


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


_ORACLES = "tests/test_oracles.py"
_MORPHISM_TABLES = tuple(
    f"{_ORACLES}::TestMorphismAxiomsPerAtom::test_{tables}" for tables in (
        "seeded_filter_tables_on_three_and_four_atoms",
        "seeded_arbitrary_tables_on_three_and_four_atoms",
        "large_pair_tables_on_four_and_five_atoms",
        "every_table_up_to_two_atoms"))
_ROWS = (f"{_ORACLES}::TestAxiomRows::test_reports_equal_the_element_scan",
         f"{_ORACLES}::TestAxiomRows::test_witnesses_equal_the_element_scan_on_seeded_relations")
_BC = (f"{_ORACLES}::TestBoundednessRows::test_reports_equal_the_element_scan",)
_GRID = (f"{_ORACLES}::TestRegionSweeps::test_sweeps_equal_the_pairwise_scans_on_the_grid",)
_MERGE = (f"{_ORACLES}::TestRegionSweeps::test_normal_form_of_unsorted_pairs_equals_the_full_sort",)
_SAMPLES = (f"{_ORACLES}::TestSampledRegions::test_region_laws_samples_equal_the_oracle_draws",)
_ORDER = (f"{_ORACLES}::TestEndpointOrder::test_before_equals_fraction_order_on_a_grid",)
_SUPPORTS = ("tests/test_clusters.py::TestSupportsCluster"
             "::test_equals_the_checker_on_every_relation_up_to_four_atoms",)
_RC_LAWS = f"{_ORACLES}::TestRegularClosedLawsOnAtoms"
_ISO_LAWS = f"{_ORACLES}::TestRegularOpenAndTraceLawsOnAtoms"
_RO_WALKS = ("tests/test_spaces.py::TestRegularOpen"
             "::test_no_element_walk_on_every_space_up_to_four_points")
_SQUARES = "tests/test_duality.py::TestNaturalitySquares"
_EMBEDDING = "tests/test_duality.py::TestPointEmbeddingCertificate"
_DOT = "tests/test_cli.py::TestDualizeAndLift"
_DENSE = (f"{_ORACLES}::TestDenseSubspaceTables"
          "::test_tables_equal_the_per_set_rewrites_up_to_four_points")
_ONE_PASS = "tests/test_cli.py::TestOnePassParse::test_equals_the_two_pass_parse"
_KIND_ORDER = ("tests/test_cli.py::TestParserRejections"
               "::test_kind_is_read_by_the_first_marker_field_in_table_order")
_DUAL_MAPS = f"{_ORACLES}::TestDualOfMapTables::test_every_map_between_spaces_up_to_three_points"
_SUBSET_JOINS = tuple(
    f"tests/test_boolalg.py::test_subset_joins_equal_the_submask_join_on_{tables}"
    for tables in ("every_table_up_to_two_atoms", "seeded_tables"))
_EMBEDDINGS = (f"{_ORACLES}::TestMorphismCalculus"
               "::test_closed_embedding_of_every_small_boolean_homomorphism",)
_DUAL_POINTS = (f"{_ORACLES}::TestDualSpacePoints"
                "::test_points_case_and_infinity_equal_the_element_definitions",)
_INFINITY = (f"{_ORACLES}::TestInfinityClusterRows"
             "::test_refusal_equals_the_cluster_walk_up_to_four_atoms",
             "tests/test_localcontact.py::TestInfinityCluster"
             "::test_row_test_decides_and_the_walk_only_names_the_witness")

MUTANTS = (
    Mutant("inner-reads-reach-of-c", f"{PACKAGE}/contact.py",
           "if reach is None else reach[outside])",
           "if reach is None else reach[c])",
           (f"{_ORACLES}::TestExtensionRows::test_well_inside_agrees_with_the_element_predicate",)),
    Mutant("interpolation-gap-without-complement", f"{PACKAGE}/contact.py",
           "atom_join(rows, top ^ row)",
           "atom_join(rows, row)",
           (f"{_ORACLES}::TestAxiomRows::test_ll_reports_equal_the_element_scan", *_BC)),
    Mutant("atom-unions-by-highest-bit", f"{PACKAGE}/boolalg.py",
           "table.append(table[a ^ low] | values[low.bit_length() - 1])",
           "table.append(table[a ^ low] | values[a.bit_length() - 1])",
           ("tests/test_boolalg.py::test_atom_unions_equal_atom_join_on_seeded_values",)),
    Mutant("pal2-moved-from-inside", f"{PACKAGE}/duality.py",
           "outside = atom_unions(moves)[::-1]",
           "outside = atom_unions(moves)",
           _MORPHISM_TABLES),
    Mutant("pal2-ignores-the-value-at-a", f"{PACKAGE}/duality.py",
           "a = next(a for a in range(size) if outside[a] & table[a])",
           "a = next(a for a in range(size) if outside[a])",
           _MORPHISM_TABLES),
    Mutant("pal2-moves-only-dropped-atoms", f"{PACKAGE}/duality.py",
           "moved |= table[a] ^ table[a | bit]",
           "moved |= table[a] & ~table[a | bit]",
           _MORPHISM_TABLES),
    Mutant("pal2-witness-b-from-the-top", f"{PACKAGE}/duality.py",
           "b = next(b for b in range(size) if table[a & b] != table[a] & table[b])",
           "b = next(b for b in reversed(range(size)) if table[a & b] != table[a] & table[b])",
           _MORPHISM_TABLES),
    Mutant("pal3-supersets-read-as-one-entry", f"{PACKAGE}/duality.py",
           "gaps[a] |= gaps[a | bit]",
           "gaps[a] |= gaps[a]",
           _MORPHISM_TABLES),
    Mutant("pal3-witness-at-top", f"{PACKAGE}/duality.py",
           'Violation("PAL3", (A.names_of(a), A.names_of(least | extra)))',
           'Violation("PAL3", (A.names_of(a), A.names_of(A.top)))',
           _MORPHISM_TABLES),
    Mutant("pal3-witness-one-atom-above", f"{PACKAGE}/duality.py",
           'Violation("PAL3", (A.names_of(a), A.names_of(least | extra)))',
           'Violation("PAL3", (A.names_of(a), A.names_of(least | extra | rest & -rest)))',
           _MORPHISM_TABLES),
    Mutant("pal3-supersets-walked-down", f"{PACKAGE}/duality.py",
           "extra = extra - rest & rest",
           "extra = extra - 1 & rest",
           _MORPHISM_TABLES),
    Mutant("pal4-at-highest-missing-atom", f"{PACKAGE}/duality.py",
           'Violation("PAL4", (B.names_of(uncovered),))',
           'Violation("PAL4", (B.names_of(1 << uncovered.bit_length() - 1),))',
           _MORPHISM_TABLES),
    Mutant("pal4-covered-by-an-overlapping-image", f"{PACKAGE}/duality.py",
           "if any(rest | image == image for image in images):",
           "if any(rest & image for image in images):",
           _MORPHISM_TABLES),
    Mutant("pal6-reads-the-table-at-inner", f"{PACKAGE}/duality.py",
           "joins[a | bit] |= joins[a]",
           "joins[a | bit] |= 0",
           _MORPHISM_TABLES),
    Mutant("pal6-from-plain-contact", f"{PACKAGE}/duality.py",
           "reversed(alexandroff_extension(structure).reach_table())",
           "reversed(structure.contact.reach_table())",
           _MORPHISM_TABLES),
    Mutant("c5-witness-whole-difference", f"{PACKAGE}/contact.py",
           'return _witness(alg, "C5", 1 << i, outside & -outside)',
           'return _witness(alg, "C5", 1 << i, outside)',
           _ROWS),
    Mutant("c6-drops-lowest-atom-first", f"{PACKAGE}/contact.py",
           "for i in reversed(range(alg.atom_count)):",
           "for i in range(alg.atom_count):",
           _ROWS),
    Mutant("con-last-component", f"{PACKAGE}/contact.py",
           "least = min(least, component)",
           "least = component",
           _ROWS),
    Mutant("bc2-witness-whole-rest", f"{PACKAGE}/localcontact.py",
           "alg.names_of(rest & -rest)",
           "alg.names_of(rest)",
           _BC),
    Mutant("bc3-ignores-bound", f"{PACKAGE}/contact.py",
           "if row != 1 << i or not bound >> i & 1), None)",
           "if row != 1 << i), None)",
           _BC),
    Mutant("join-keeps-touching-ends-apart", f"{PACKAGE}/regions.py",
           "if out and not _before(out[-1][1], lo):\n                if",
           "if out and _before(lo, out[-1][1]):\n                if",
           _GRID),
    Mutant("meet-keeps-touching-points", f"{PACKAGE}/regions.py",
           "if _before(blo, ahi):",
           "if not _before(ahi, blo):",
           _GRID),
    Mutant("complement-keeps-left-ray-gap", f"{PACKAGE}/regions.py",
           "if lo is not NEG_INF:\n                gaps.append((previous, lo))",
           "if True:\n                gaps.append((previous, lo))",
           _GRID),
    Mutant("le-skips-an-equal-end", f"{PACKAGE}/regions.py",
           "while j < len(b) and _before(b[j][1], ahi):",
           "while j < len(b) and not _before(ahi, b[j][1]):",
           _GRID),
    Mutant("touches-ignores-shared-ends", f"{PACKAGE}/regions.py",
           "if not _before(ahi, blo):\n                    return True",
           "if _before(blo, ahi):\n                    return True",
           _GRID),
    Mutant("well-inside-at-a-closed-end", f"{PACKAGE}/regions.py",
           "not (_before(hi, b[j][1]) or",
           "not (not _before(b[j][1], hi) or",
           _GRID),
    Mutant("merged-keeps-touching-ends-apart", f"{PACKAGE}/regions.py",
           "if out and not _before(out[-1][1], lo):\n            if",
           "if out and _before(lo, out[-1][1]):\n            if",
           _MERGE),
    Mutant("merged-sorts-by-end", f"{PACKAGE}/regions.py",
           "lambda p, q: _before(q[0], p[0]) - _before(p[0], q[0])",
           "lambda p, q: _before(q[1], p[1]) - _before(p[1], q[1])",
           _MERGE),
    Mutant("before-not-strict", f"{PACKAGE}/regions.py",
           "a._numerator * b._denominator < b._numerator * a._denominator",
           "a._numerator * b._denominator <= b._numerator * a._denominator",
           _ORDER),
    Mutant("of-keeps-an-int-endpoint", f"{PACKAGE}/regions.py",
           "lo = lo if type(lo) is Fraction else _valid_endpoint(lo)",
           "lo = lo",
           ("tests/test_regions.py::TestNormalForm::test_of_stores_int_endpoints_as_fractions",)),
    Mutant("before-puts-a-fraction-before-neg-inf", f"{PACKAGE}/regions.py",
           "if a is POS_INF or b is NEG_INF:\n        return False",
           "if a is POS_INF or b is NEG_INF:\n        return a is not POS_INF",
           _ORDER),
    Mutant("before-puts-neg-inf-before-itself", f"{PACKAGE}/regions.py",
           "return b is not NEG_INF",
           "return True",
           _ORDER),
    Mutant("supports-cluster-needs-every-row-inside", f"{PACKAGE}/clusters.py",
           "closed = False\n    for i, row in enumerate(rows):\n        if s >> i & 1:\n"
           "            if row & s != s:\n                return False\n"
           "            closed = closed or row & ~s == 0\n",
           "closed = True\n    for i, row in enumerate(rows):\n        if s >> i & 1:\n"
           "            if row & s != s:\n                return False\n"
           "            closed = closed and row & ~s == 0\n",
           _SUPPORTS),
    Mutant("supports-cluster-without-clique-test", f"{PACKAGE}/clusters.py",
           "if row & s != s:\n                return False\n",
           "",
           _SUPPORTS),
    Mutant("grill-skips-the-top-support", f"{PACKAGE}/clusters.py",
           "for s in range(1, alg.size) if supports_cluster(rows, s)]",
           "for s in range(1, alg.top) if supports_cluster(rows, s)]",
           ("tests/test_clusters.py::TestEnumeration"
            "::test_grill_shortcut_agrees_with_full_checker",
            f"{_ORACLES}::TestGrillRows::test_supports_equal_the_element_scan_up_to_four_atoms")),
    Mutant("dual-of-morphism-without-up-closure-test", f"{PACKAGE}/duality.py",
           "if (traced != [a & support != 0 for a in elements]\n"
           "                or not supports_cluster(ext_src.rows, support)):",
           "if not supports_cluster(ext_src.rows, support):",
           ("tests/test_duality.py::TestDualOfMorphism"
            "::test_traced_set_that_is_no_cluster_is_walked_for_its_witness",)),
    Mutant("sigma-from-atoms-missing-the-point", f"{PACKAGE}/duality.py",
           "for k, atom in enumerate(rc.atoms) if atom >> x & 1)",
           "for k, atom in enumerate(rc.atoms) if not atom >> x & 1)",
           ("tests/test_duality.py::TestPointEmbedding::test_discrete_spaces_certified",)),
    Mutant("regular-closed-sets-skip-the-interior", f"{PACKAGE}/spaces.py",
           "if cl[top ^ cl[top ^ m]] == m)",
           "if cl[m] == m)",
           ("tests/test_oracles.py::TestSpacePredicates"
            "::test_regular_closed_sets_equal_the_closure_interior_scan",)),
    Mutant("rc-atoms-keep-a-set-above-an-atom", f"{PACKAGE}/spaces.py",
           "if atom | f == f:\n                break",
           "if atom == f:\n                break",
           (f"{_ORACLES}::TestSpacePredicates::test_rc_atoms_equal_the_all_pairs_scan",)),
    Mutant("rc-law-violation-without-row-test", f"{PACKAGE}/spaces.py",
           "\n            and (rows is None or _meeting_rows(images, target.contact) == rows)",
           "",
           (f"{_RC_LAWS}::test_permuted_region_tables_against_every_atom_relation",)),
    Mutant("rc-law-violation-without-bijection-test", f"{PACKAGE}/spaces.py",
           "\n            and sorted(table) == sorted(carrier)",
           "",
           (f"{_RC_LAWS}::test_tampered_atom_lists_of_every_space_up_to_three_points",)),
    Mutant("rc-law-violation-reads-atom-images-at-i", f"{PACKAGE}/spaces.py",
           "images = [table[1 << i] for i",
           "images = [table[i] for i",
           ("tests/test_spaces.py::TestRegularClosedCertificate"
            "::test_no_element_walk_on_every_space_up_to_four_points",)),
    Mutant("join-recurrence-skips-the-top", f"{PACKAGE}/spaces.py",
           "for a in range(1, len(table)))\n",
           "for a in range(1, len(table) - 1))\n",
           (f"{_ISO_LAWS}::test_tampered_closure_maps",)),
    Mutant("ro-certificate-joins-by-union", f"{PACKAGE}/spaces.py",
           "table, ro.carrier, ro.set_ops, rc.contact.rows,",
           "table, ro.carrier, ro.set_ops._replace(join=operator.or_), rc.contact.rows,",
           (_RO_WALKS,)),
    Mutant("ro-certificate-without-contact", f"{PACKAGE}/spaces.py",
           "table, ro.carrier, ro.set_ops, rc.contact.rows,",
           "table, ro.carrier, ro.set_ops, None,",
           (f"{_ISO_LAWS}::test_tampered_closure_maps",)),
    Mutant("ro-contact-without-closures", f"{PACKAGE}/spaces.py",
           "return bool(self.space.closure_table[u] & self.space.closure_table[v])",
           "return bool(u & v)",
           (_RO_WALKS,)),
    Mutant("ro-carrier-skips-the-interior", f"{PACKAGE}/spaces.py",
           "if top ^ cl[top ^ cl[u]] == u)",
           "if cl[u] == u)",
           (_RO_WALKS,)),
    Mutant("trace-certificate-in-carrier-order", f"{PACKAGE}/spaces.py",
           "table = [restrict[f] for f in big.pointsets]",
           "table = [restrict[f] for f in big.carrier]",
           ("tests/test_spaces.py::TestSubspacesAndDensity"
            "::test_no_element_walk_on_every_dense_subset_up_to_four_points",)),
    Mutant("restrict-table-keeps-the-point-index", f"{PACKAGE}/spaces.py",
           "to_small[i] = 1 << k",
           "to_small[i] = 1 << i",
           (_DENSE,)),
    Mutant("extend-table-by-subspace-index", f"{PACKAGE}/spaces.py",
           "to_big = [1 << i for i in kept]",
           "to_big = [1 << k for k, i in enumerate(kept)]",
           (_DENSE,)),
    Mutant("extension-rebuilt-per-call", f"{PACKAGE}/localcontact.py",
           "@cached_property\n    def extension(",
           "@property\n    def extension(",
           (f"{_ORACLES}::TestExtensionRows"
            "::test_one_relation_per_structure_equal_to_a_fresh_build",)),
    Mutant("subset-joins-skip-the-last-atom", f"{PACKAGE}/boolalg.py",
           "while bit < size:",
           "while bit < size >> 1:",
           _SUBSET_JOINS),
    Mutant("subset-joins-assign-in-place-of-join", f"{PACKAGE}/boolalg.py",
           "out[c] |= out[c ^ bit]",
           "out[c] = out[c ^ bit]",
           _SUBSET_JOINS),
    Mutant("emb1-at-the-greatest-missing-value", f"{PACKAGE}/duality.py",
           "missing = min(set(A.elements()) - set(phi.table), default=None)",
           "missing = max(set(A.elements()) - set(phi.table), default=None)",
           _EMBEDDINGS),
    Mutant("closed-embedding-without-the-row-premise", f"{PACKAGE}/duality.py",
           "if any(row != 1 << i for i, row in enumerate(alexandroff_extension(side).rows)):",
           "if False:",
           ("tests/test_duality.py::TestClosedEmbeddingAtTheCap"
            "::test_forged_boundedness_report_on_a_path_structure_is_an_integrity_error",)),
    Mutant("dual-of-map-reads-the-interior-as-the-closure", f"{PACKAGE}/duality.py",
           "pre[top ^ cl_tgt[top ^ pointset]]",
           "pre[cl_tgt[pointset]]",
           (_DUAL_MAPS,)),
    Mutant("dual-of-map-preimages-from-images", f"{PACKAGE}/duality.py",
           "[f.preimage(1 << y) for y",
           "[f.image(1 << y) for y",
           (_DUAL_MAPS,)),
    Mutant("to-element-indexes-the-atoms", f"{PACKAGE}/spaces.py",
           "for element, pointset in enumerate(self.pointsets)}",
           "for element, pointset in enumerate(self.atoms)}",
           (f"{_ORACLES}::TestDualOfMapTables"
            "::test_to_element_equals_the_atom_scan_up_to_four_points",)),
    Mutant("parse-without-the-intermixed-pass", f"{PACKAGE}/cli.py",
           "    if extras:\n        args, extras = verb_parser.parse_known_intermixed_args(argv[1:])\n",
           "",
           (_ONE_PASS, "tests/test_cli.py::TestOnePassParse"
            "::test_option_after_the_operation_runs_as_before_it")),
    Mutant("parse-ignores-leftover-arguments", f"{PACKAGE}/cli.py",
           "    if extras:\n        parser.error(",
           "    if False:\n        parser.error(",
           (_ONE_PASS,)),
    Mutant("parse-names-the-verb-by-its-prog", f"{PACKAGE}/cli.py",
           "args.verb = argv[0]",
           "args.verb = verb_parser.prog",
           (_ONE_PASS,)),
    Mutant("decoder-skips-the-byte-order-mark-check", f"{PACKAGE}/jsonio.py",
           'if text.startswith("\\ufeff"):',
           "if False:",
           ("tests/test_cli.py::TestParserRejections"
            "::test_byte_order_mark_exits_two_with_the_json_message",)),
    Mutant("non-utf8-file-escapes-as-a-traceback", f"{PACKAGE}/cli.py",
           "except UnicodeDecodeError as exc:",
           "except UnicodeEncodeError as exc:",
           ("tests/test_cli.py::TestValidate::test_non_utf8_file_exit_two",)),
    Mutant("dual-space-keeps-every-cluster", f"{PACKAGE}/duality.py",
           "grill_clusters(alexandroff_extension(structure)) if c.support & gen]",
           "grill_clusters(alexandroff_extension(structure)) if c.support]",
           _DUAL_POINTS + ("tests/test_duality.py::TestDualSpace"
                           "::test_local_case_drops_the_infinity_cluster",)),
    Mutant("dual-space-labels-by-the-bc-report", f"{PACKAGE}/duality.py",
           '"compact" if structure.improper else "local"',
           '"compact" if structure.bc_report.ok else "local"',
           _DUAL_POINTS),
    Mutant("bounded-correspondence-at-every-unbounded-atom", f"{PACKAGE}/duality.py",
           "alg.names_of(outside & -outside)",
           "alg.names_of(outside)",
           _DUAL_POINTS),
    Mutant("infinity-refusal-drops-the-lowest-atom-first", f"{PACKAGE}/localcontact.py",
           "for i in reversed(alg.atoms_of(gen)):",
           "for i in alg.atoms_of(gen):",
           _INFINITY),
    Mutant("infinity-refusal-reaches-some-support-atom", f"{PACKAGE}/localcontact.py",
           "if atom_join(rows, least ^ 1 << i) & support == support:",
           "if atom_join(rows, least ^ 1 << i) & support:",
           _INFINITY),
    Mutant("dual-of-morphism-traces-through-the-reach", f"{PACKAGE}/duality.py",
           "least = [B.top ^ phi.table[A.top ^ r] for r",
           "least = [B.top ^ phi.table[r] for r",
           (f"{_ORACLES}::TestMorphismCalculus::test_dual_of_morphism",)),
    Mutant("sampler-merges-only-overlaps", f"{PACKAGE}/cli.py",
           "if merged and merged[-1][1] >= lo:",
           "if merged and merged[-1][1] > lo:",
           _SAMPLES),
    Mutant("sampler-shrinks-a-nested-span", f"{PACKAGE}/cli.py",
           "if hi > merged[-1][1]:",
           "if True:",
           _SAMPLES),
    Mutant("sampler-scale-misses-seven", f"{PACKAGE}/cli.py",
           "_SCALE = 420",
           "_SCALE = 60",
           _SAMPLES),
    Mutant("meet-empty-returns-the-other-operand", f"{PACKAGE}/regions.py",
           "return self if not a else other",
           "return other if not a else self",
           ("tests/test_regions.py::TestNormalForm"
            "::test_meet_with_an_empty_operand_returns_that_operand",)),
    Mutant("read-as-skips-the-contact-lift", f"{PACKAGE}/cli.py",
           'kind, value = "structure", nca_as_lca(value)',
           "value = nca_as_lca(value)",
           ("tests/test_cli.py::TestClusters::test_path_relation_lists_two",)),
    Mutant("kind-table-tests-contact-before-bounded", f"{PACKAGE}/jsonio.py",
           '    ("bounded", "structure", lca_from_json),\n'
           '    ("contact", "contact", contact_from_json),\n',
           '    ("contact", "contact", contact_from_json),\n'
           '    ("bounded", "structure", lca_from_json),\n',
           (_KIND_ORDER,)),
    Mutant("kind-table-drops-the-algebra-kind", f"{PACKAGE}/jsonio.py",
           '    ("atoms", "algebra", algebra_from_json),\n)',
           ")",
           (_KIND_ORDER,)),
    Mutant("kind-errors-drop-the-file-name", f"{PACKAGE}/jsonio.py",
           'raise StructureError(f"{where}: {exc}") from exc',
           "raise",
           ("tests/test_cli.py::TestParserRejections::test_kind_errors_name_the_file",)),
    Mutant("map-ignores-unknown-assignments", f"{PACKAGE}/jsonio.py",
           "extra = set(assign) - set(source.points)",
           "extra = set()",
           ("tests/test_cli.py::TestParserRejections"
            "::test_map_assigning_an_unknown_point_is_refused",)),
    Mutant("region-unary-operations-take-two", f"{PACKAGE}/cli.py",
           'if op in ("complement", "bounded") else (2, "two regions")',
           'if op == "complement" else (2, "two regions")',
           ("tests/test_cli.py::TestRegionVerb"
            "::test_unary_operations_refuse_other_operand_counts",)),
    Mutant("region-method-defaults-to-meet", f"{PACKAGE}/cli.py",
           "_REGION_METHODS.get(op, op)",
           '_REGION_METHODS.get(op, "meet")',
           ("tests/test_cli.py::TestDispatchCoversTheParser"
            "::test_region_operation_reaches_its_handler",)),
    Mutant("first-mismatch-returns-the-last", f"{PACKAGE}/report.py",
           "return next(compress(count(), map(ne, left, right)), None)",
           "return max(compress(count(), map(ne, left, right)), default=None)",
           (f"{_SQUARES}::test_map_square_names_the_least_source_point",
            "tests/test_spaces.py::TestSubspacesAndDensity"
            "::test_tampered_closures_break_both_inverse_checks_at_the_least_set")),
    Mutant("square-compares-the-source-unit-after-the-item", f"{PACKAGE}/duality.py",
           "map(t_tgt.assignment.__getitem__, item.assignment)",
           "map(t_src.assignment.__getitem__, item.assignment)",
           ("tests/test_duality.py::TestRoundTrips"
            "::test_maps_between_spaces_of_different_sizes_and_their_duals",)),
    Mutant("morphism-square-reads-the-source-unit-after-the-item", f"{PACKAGE}/duality.py",
           "map(rc_tgt.to_element, map(tgt_dual.regions.__getitem__, item.table))",
           "map(rc_src.to_element, map(src_dual.regions.__getitem__, item.table))",
           ("tests/test_duality.py::TestRoundTrips"
            "::test_maps_between_spaces_of_different_sizes_and_their_duals",)),
    Mutant("morphism-square-builds-whole-tables", f"{PACKAGE}/duality.py",
           "square = (map(rc_tgt.to_element, map(tgt_dual.regions.__getitem__, item.table)),",
           "square = (list(map(rc_tgt.to_element, map(tgt_dual.regions.__getitem__, item.table))),",
           (f"{_SQUARES}::test_morphism_square_reads_no_entry_past_the_first_difference",)),
    Mutant("embedding-inverse-check-as-inclusion", f"{PACKAGE}/duality.py",
           "if not violations and any(image != u for image, u in pairs):",
           "if not violations and any(image | u != u for image, u in pairs):",
           (f"{_EMBEDDING}::test_a_continuous_bijection_onto_a_coarser_space",)),
    Mutant("embedding-continuity-only-on-a-bijection", f"{PACKAGE}/duality.py",
           "    if any(image | u != u for image, u in pairs):",
           "    if not violations and any(image | u != u for image, u in pairs):",
           (f"{_EMBEDDING}::test_a_map_onto_too_few_points_that_tears_a_neighbourhood",)),
    Mutant("dot-name-leaves-quotes", f"{PACKAGE}/jsonio.py",
           r"""name.replace('"', '\\"')""",
           "name",
           (f"{_DOT}::test_dot_escapes_double_quotes_in_names",)),
    Mutant("dot-name-keeps-a-trailing-backslash", f"{PACKAGE}/jsonio.py",
           'if name.endswith("\\\\") or "\\\\\\n" in name:',
           'if "\\\\\\n" in name:',
           (f"{_DOT}::test_dot_refuses_a_name_whose_backslash_it_would_read_as_an_escape",)),
    Mutant("space-accepts-repeated-point-names", f"{PACKAGE}/spaces.py",
           "if len(set(self.points)) != n:",
           "if False:",
           ("tests/test_cli.py::TestParserRejections::test_malformed_document_names_its_fault",)),
    Mutant("ro-certificate-skips-the-bijection-check", f"{PACKAGE}/spaces.py",
           "if sorted(ro.to_closed.values()) != sorted(rc.carrier):",
           "if False:",
           ("tests/test_spaces.py::TestRegularOpen::test_closure_map_that_is_no_bijection",)),
    Mutant("dual-of-morphism-skips-the-bounded-check", f"{PACKAGE}/duality.py",
           "if not support & phi.source.ideal.generator:",
           "if False:",
           ("tests/test_duality.py::TestDualOfMorphism"
            "::test_traced_cluster_outside_the_ideal_is_an_integrity_error",)),
    Mutant("dual-of-morphism-skips-the-perfectness-check", f"{PACKAGE}/duality.py",
           "    if not preds.perfect:\n        raise IntegrityError(",
           "    if False:\n        raise IntegrityError(",
           ("tests/test_duality.py::TestDualOfMorphism"
            "::test_dual_map_into_a_coarser_dual_is_an_integrity_error",)),
)


def _run(mutant: Mutant, scratch: pathlib.Path) -> str:
    """Apply one mutant to a copy of the tree; 'killed', 'survived' or 'broken'."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, scratch / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", scratch / "pyproject.toml")
    target = scratch / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=scratch, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "broken"
    # pytest exits 1 exactly when collected tests ran and some failed
    return {0: "survived", 1: "killed"}.get(done.returncode, "broken")


def main() -> int:
    outcome = {"killed": [], "survived": [], "broken": [], "missing": []}
    for mutant in MUTANTS:
        if (ROOT / mutant.file).read_text().count(mutant.old) != 1:
            outcome["missing"].append(mutant.name)
            continue
        with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
            outcome[_run(mutant, pathlib.Path(scratch))].append(mutant.name)
    print(json.dumps(outcome, indent=2))
    return 0 if len(outcome["killed"]) == sum(map(len, outcome.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
