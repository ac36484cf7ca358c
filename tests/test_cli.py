"""Command-line interface: parsing, commands, exit codes, formats."""

import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from kronspectra import cli, closedform, graphs, polynomials, verify
from kronspectra.cli import main, parse_family
from kronspectra.errors import FamilyDomainError, FamilyParseError
from kronspectra.graphs import (
    Complete,
    Cycle,
    Hamming,
    Johnson,
    Kron,
    build_family,
    family_order,
    from_edge_list_text,
    translation_shape,
)


# ---------------------------------------------------------------------------
# Family grammar
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_family("kron(K3,C4)") == Kron(Complete(3), Cycle(4))
    assert parse_family("J(4,2)") == Johnson(4, 2)
    assert parse_family("H(2,3)") == Hamming(2, 3)
    assert parse_family(" kron( K3 , kron(C5, H(2,2)) ) ") == Kron(
        Complete(3), Kron(Cycle(5), Hamming(2, 2))
    )


def test_parse_domain_error():
    with pytest.raises(FamilyDomainError):
        parse_family("J(3,2)")  # m < 2r


def test_parse_syntax_errors_carry_position():
    with pytest.raises(FamilyParseError) as info:
        parse_family("kron(K3,C4")
    assert info.value.position == 10
    with pytest.raises(FamilyParseError):
        parse_family("X5")
    with pytest.raises(FamilyParseError):
        parse_family("K3garbage")
    with pytest.raises(FamilyParseError):
        parse_family("J(4 2)")


def nested_krons(depth):
    return "kron(K1," * depth + "K1" + ")" * depth


def test_parse_refuses_kron_nested_past_the_cap(capsys):
    # 63 levels give 64 atoms, the most axes numpy gives the oracle's row
    spec = parse_family(nested_krons(63))
    assert graphs.translation_shape(spec) == (1,) * 64
    for depth in (64, 1200):
        with pytest.raises(FamilyParseError, match=r"nested more than 63 deep") as info:
            parse_family(nested_krons(depth))
        assert info.value.position == 63 * len("kron(K1,")
        # refused with one error line, where a RecursionError was raised
        for argv in (["gen"], ["spectrum", "--method", "oracle"]):
            assert main([*argv, "--family", nested_krons(depth)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: kron( nested more than 63 deep"
                                    f" (at position {info.value.position})\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def test_gen_round_trip(capsys):
    assert main(["gen", "--family", "J(4,2)"]) == 0
    text = capsys.readouterr().out
    g, expected = from_edge_list_text(text), build_family(Johnson(4, 2))
    assert np.array_equal(g.indptr, expected.indptr)
    assert np.array_equal(g.indices, expected.indices)


def test_spectrum_both_match_exits_zero(capsys):
    code = main(["spectrum", "--family", "kron(K3,K3)", "--method", "both"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["match"]["match"] is True
    values = [p["value"] for p in payload["closed_form"]["pairs"]]
    assert values == [12, 0, -3]


def test_spectrum_oracle_c5(capsys):
    code = main(["spectrum", "--family", "C5", "--method", "oracle"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    values = [p["value"] for p in payload["spectrum"]["pairs"]]
    assert values == pytest.approx([6, -0.381966, -2.618034], abs=1e-5)


def test_spectrum_disconnected_product_is_an_error(capsys):
    code = main(["spectrum", "--family", "kron(C4,C4)", "--method", "oracle"])
    err = capsys.readouterr().err
    assert code == 1
    assert "disconnected" in err


def test_spectrum_no_closed_form_is_an_error(capsys):
    code = main(["spectrum", "--family", "kron(K3,H(3,2))", "--method", "closed"])
    assert code == 1
    assert "no closed form" in capsys.readouterr().err


def test_spectrum_csv_format(capsys):
    code = main(["spectrum", "--family", "K4", "--method", "closed",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "value,multiplicity"
    assert out.splitlines()[1] == "3,1"


def test_spectrum_csv_rejects_both(capsys):
    code = main(["spectrum", "--family", "K4", "--method", "both",
                 "--format", "csv"])
    assert code == 1


def test_spectrum_deterministic_output(capsys):
    main(["spectrum", "--family", "kron(K4,C6)", "--method", "both"])
    first = capsys.readouterr().out
    main(["spectrum", "--family", "kron(K4,C6)", "--method", "both"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("family, method", [
    ("C5", "closed"), ("C20001", "closed"), ("kron(K3,C9001)", "closed"),
    ("kron(K5,H(3,4))", "closed"), ("J(10,5)", "closed"), ("kron(K4,C9)", "oracle")])
def test_spectrum_files_are_the_payload_and_the_per_line_csv(family, method, tmp_path):
    # the spectrum is written from its arrays a chunk at a time; the text is
    # json.dumps of the payload, and the CSV the loop of one line per pair
    spec = parse_family(family)
    if method == "closed":
        sp, notes = verify.closed_form_distance_spectrum(spec, 1e-6)
        label = {"family": family, "method": "closed", "matrix": "distance", "notes": notes}
    else:
        sp = verify.oracle_distance_spectrum(spec, 1e-6)
        label = {"family": family, "method": "oracle", "matrix": "distance"}
    payload = dict(label)
    payload["spectrum"] = sp.to_dict()
    lines = ["value,multiplicity\n"]
    for value, mult in zip(sp.values(), sp.multiplicities()):
        lines.append(f"{value:.12g},{mult}\n")
    for fmt, expected in (("json", json.dumps(payload) + "\n"), ("csv", "".join(lines))):
        out = tmp_path / f"spectrum.{fmt}"
        assert main(["spectrum", "--family", family, "--method", method,
                     "--format", fmt, "--output", str(out)]) == 0
        assert out.read_text() == expected


def test_spectrum_output_costs_about_what_the_spectrum_does(tmp_path):
    # kron(K3,C33333): the closed form peaks near 1.4 MiB traced and writing
    # it a chunk at a time near 1.6 MiB; a dict per pair and the whole JSON
    # text made for one json.dumps peaked at 11.8 MiB, six times the
    # closed form's 1.8 MiB then
    spec = Kron(Complete(3), Cycle(33333))
    tracemalloc.start()
    try:
        verify.closed_form_distance_spectrum(spec, 1e-6)
        compute = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["spectrum", "--family", "kron(K3,C33333)", "--method", "closed",
                     "--output", str(tmp_path / "out.json")])
        emit = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert emit <= 2 * compute, (emit, compute)


def test_verify_hamming_q2_reroute_notes(capsys):
    code = main(["verify", "--family", "kron(K3,H(2,2))"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["match"] is True
    notes = " ".join(payload["discrepancy_notes"])
    assert "4-cycle" in notes


def test_verify_hamming_factor_n_note(capsys):
    code = main(["verify", "--family", "kron(K3,H(2,3))"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["match"] is True
    assert any("factor n" in note for note in payload["discrepancy_notes"])


def test_verify_poly_check(capsys):
    code = main(["verify", "--family", "J(6,3)", "--check", "poly"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["check"] == "distance-polynomial"
    assert payload["match"] is True and payload["max_abs_gap"] < 1e-8


def test_verify_all_builds_and_bfs_once(capsys, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # J(6,3) is built once, in graphs, and its distances come from one
    # bitset BFS from its orbit representatives, not from an all-sources one
    for namespace, name in ((verify, "build_family"), (graphs, "build_family"),
                            (verify, "distance_matrix"), (graphs, "_bitset_distances")):
        monkeypatch.setattr(namespace, name, counted(f"{namespace.__name__}.{name}",
                                                     getattr(namespace, name)))
    code = main(["verify", "--family", "J(6,3)", "--check", "all"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [r["check"] for r in records] == ["distance-spectrum", "distance-polynomial"]
    assert calls == Counter({"kronspectra.graphs.build_family": 1,
                             "kronspectra.graphs._bitset_distances": 1})


def test_spectrum_adjacency_past_the_dense_cap(capsys, monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    code = main(["spectrum", "--family", "C11", "--method", "oracle",
                 "--matrix", "adjacency"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: matrix order 11 exceeds dense cap 10\n"


def test_poly_command(capsys):
    code = main(["poly", "--family", "J(4,2)"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["coeffs"] == ["-2", "0", "0.5"]
    assert payload["pass"] is True
    assert out == ('{"family": "J(4,2)", "coeffs": ["-2", "0", "0.5"], "degree": 2,'
                   ' "max_entry_gap": 0.0, "pass": true}\n')


def test_poly_has_no_tol_flag():
    # p(A) = D is always checked at 1e-8, so a --tol would do nothing
    with pytest.raises(SystemExit):
        main(["poly", "--family", "J(4,2)", "--tol", "1e-3"])


def test_poly_past_the_dense_cap_prints_the_polynomial(capsys, monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "100")
    code = main(["poly", "--family", "H(5,3)"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload["family"] == "H(5,3)"
    assert payload["degree"] == 5 and len(payload["coeffs"]) == 6
    assert payload["max_entry_gap"] is None and payload["pass"] is False
    assert payload["error"] == (
        "OrderCapError: distance matrix order 243 exceeds dense cap 100")
    assert "exceeds dense cap 100" in captured.err


def test_verify_poly_without_polynomial_is_an_error(capsys):
    assert main(["verify", "--family", "K4", "--check", "poly"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nothing to verify" in captured.err


def test_verify_all_prints_both_reports(capsys):
    code = main(["verify", "--family", "J(5,2)", "--check", "all"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [r["check"] for r in records] == ["distance-spectrum", "distance-polynomial"]
    assert all(r["match"] for r in records)


def test_poly_rejects_cycle(capsys):
    assert main(["poly", "--family", "C5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: C5: intersection arrays and distance polynomials cover"
        " Johnson and Hamming families only\n"
    )


def test_grid_small_subset(tmp_path, capsys):
    out_path = tmp_path / "grid.jsonl"
    code = main(["grid", "--max-order", "30", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]["summary"]
    assert summary["failed"] == 0
    assert summary["cases"] == len(records) - 1
    assert all(r["match"] for r in records[:-1])


def test_grid_output_does_not_depend_on_warm_memos(capsys):
    graphs._atom_walks.cache_clear()
    closedform._integer_table.cache_clear()
    runs = []
    for _ in range(2):  # cold memos, then warm
        assert main(["grid", "--max-order", "60"]) == 0
        runs.append(capsys.readouterr())
    assert graphs._atom_walks.cache_info().currsize
    assert closedform._integer_table.cache_info().currsize
    assert runs[0] == runs[1]


# SHA-256 of the verdicts of ``kronspectra grid --max-order 1200`` and of
# their closed side, as ``grid_verdict_digest`` reads them
GRID_1200_VERDICT_DIGEST = "78dc1c35e8f4f59a3fadc43ec5030f9f6320930a45841755278be7d9a4b240b9"


def grid_verdict_digest(lines):
    """SHA-256 over each report's family, check, match, notes and error, its
    closed form's order and multiplicities, and its closed values where the
    form's grouping tolerance is 0 (exact spectra), then the summary.  The
    oracle spectra and the gaps depend on BLAS and the FFT, and stay out."""
    digest = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        if "summary" not in record:
            closed = record["closed_form"]
            if closed is not None:
                pairs = closed["pairs"]
                closed = {"order": closed["order"],
                          "multiplicities": [pair["multiplicity"] for pair in pairs],
                          "values": ([pair["value"] for pair in pairs]
                                     if closed["tol"] == 0 else None)}
            record = {key: record.get(key) for key in
                      ("family", "check", "match", "discrepancy_notes", "error")}
            record["closed_form"] = closed
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_grid_verdicts_and_exact_closed_forms_are_pinned(capsys):
    assert main(["grid", "--max-order", "1200"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 554 and captured.err == ""
    assert json.loads(lines[-1]) == {"summary": {"cases": 553, "passed": 553, "failed": 0}}
    assert grid_verdict_digest(lines) == GRID_1200_VERDICT_DIGEST


def test_grid_builds_and_bfs_each_family_once(tmp_path, monkeypatch):
    builds, bfs = Counter(), Counter()
    family_of = {}  # id of each built graph -> its family

    def counted_build(build):
        def wrapper(spec):
            graph = build(spec)
            builds[spec] += 1
            family_of[id(graph)] = spec
            return graph
        return wrapper

    def counted_bfs(distance_matrix):
        def wrapper(graph):
            bfs[family_of[id(graph)]] += 1
            return distance_matrix(graph)
        return wrapper

    bitset, bitset_distances = [], graphs._bitset_distances
    monkeypatch.setattr(graphs, "_bitset_distances", lambda slots, sources: bitset.append(
        (slots.shape[1], len(sources))) or bitset_distances(slots, sources))

    graphs._atom_walks.cache_clear()
    for module in (verify, polynomials, graphs):
        monkeypatch.setattr(module, "build_family", counted_build(module.build_family))
    # every atom's graph or proven table comes from one call of its builder
    tables, build_table = Counter(), graphs._atom_table
    monkeypatch.setattr(graphs, "_atom_table",
                        lambda atom: tables.update([atom]) or build_table(atom))
    for module in (verify, polynomials):
        monkeypatch.setattr(module, "distance_matrix", counted_bfs(module.distance_matrix))
    code = main(["grid", "--max-order", "64", "--output", str(tmp_path / "grid.jsonl")])
    assert code == 0
    cases = verify.default_grid(64)
    # a product is read off its atoms' walks, so only an atom is built: a
    # top-level atom once, and each distinct atom of the products once
    # more, for the atom memo, shaped or not; only an unshaped atom as a
    # graph, a shaped one as its proven table
    products = {spec for spec, _ in cases if isinstance(spec, Kron)}
    assert any(translation_shape(spec) is None for spec in products)
    atoms = {atom for spec in products for atom in graphs._atoms(spec)}
    assert tables == (Counter({spec: 1 for spec, _ in cases if spec not in products})
                      + Counter(atoms))
    assert builds == Counter({spec: count for spec, count in tables.items()
                              if translation_shape(spec) is None})
    # a shaped family reads its distances off one BFS from vertex 0, and
    # no family needs the all-sources BFS: a top-level J(m,r>=2) runs one
    # bitset BFS from its b orbit representatives, and each distinct
    # J(m,r>=2) atom of the products one of its double cover from them
    assert bfs == Counter()
    johnson = {spec for spec, kind in cases if kind != "adjacency-spectrum"
               and translation_shape(spec) is None and spec not in products}
    covers = {atom for atom in atoms if translation_shape(atom) is None}
    assert johnson and covers
    expected = [(family_order(spec), family_order(spec) // graphs._orbit_shape(spec)[0])
                for spec in johnson]
    expected += [(2 * family_order(atom), family_order(atom) // graphs._orbit_shape(atom)[0])
                 for atom in covers]
    assert sorted(bitset) == sorted(expected)


def test_usage_error_exit_code(capsys):
    assert main(["spectrum", "--family", "J(3,2)"]) == 1
    # argparse's own usage errors exit 1 too, not its default 2
    for argv in (["spectrum", "--family", "C5", "--method", "exact"],
                 ["verify"],
                 ["grid", "--max-order", "many"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert "usage: kronspectra" in capsys.readouterr().err


def test_nan_tolerance_is_an_error(capsys):
    code = main(["spectrum", "--family", "C7", "--method", "both", "--tol", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "tol must be finite and nonnegative" in captured.err


def test_unwritable_output_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["spectrum", "--family", "kron(K3,C4)", "--output", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_a_closed_form_too_large_to_allocate_is_an_error(capsys, monkeypatch):
    # as numpy raises for the 5*10^11-row cycle table of C999999999999,
    # without allocating anything here
    def too_large(spec, tol):
        raise MemoryError(f"Unable to allocate a table for {graphs.family_to_string(spec)}")

    monkeypatch.setattr(cli, "closed_form_distance_spectrum", too_large)
    monkeypatch.setattr(verify, "closed_form_distance_spectrum", too_large)
    assert main(["spectrum", "--family", "C999999999999", "--method", "closed"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate a table for C999999999999\n"
    # verify refuses the family at the product cap before any closed form
    assert main(["verify", "--family", "C999999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: C999999999999 has 999999999999 vertices, cap is 20000\n"


@pytest.mark.parametrize("raw, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be positive, got 0"),
])
def test_grid_rejects_a_malformed_cap_before_any_case(raw, message, tmp_path,
                                                      capsys, monkeypatch):
    # one error line and no output, not a failed report for every case
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", raw)
    assert main(["grid", "--max-order", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: KRON_SPECTRA_MAX_ORDER {message}\n"
    out_path = tmp_path / "grid.jsonl"
    assert main(["grid", "--max-order", "30", "--output", str(out_path)]) == 1
    assert not out_path.exists()


def test_grid_over_cap_cases_are_reported_not_fatal(tmp_path, monkeypatch):
    # every default case with more than 300 vertices must become a failed
    # line carrying its error while the run goes on
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "300")
    out_path = tmp_path / "grid.jsonl"
    code = main(["grid", "--output", str(out_path)])
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) == 554
    reports, summary = records[:-1], records[-1]["summary"]
    errors = [r for r in reports if "error" in r]
    assert errors
    assert all(r["match"] is False and r["error"].startswith("OrderCapError")
               for r in errors)
    assert all(r["match"] is True for r in reports if "error" not in r)
    assert summary == {"cases": 553, "passed": 553 - len(errors),
                       "failed": len(errors)}
    assert code == 2
