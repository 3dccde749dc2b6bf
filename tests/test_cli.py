"""Instance parsing, command output formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import divsparse
import divsparse.cli as cli
from divsparse import (
    CapabilityError,
    DomainOracle,
    ExtensionQuery,
    Found,
    LimitedSparsifyParams,
    ProblemSpec,
    SetFamily,
    SmallSparsifyParams,
    TrivialSparsifier,
    default_trials,
    min_cluster_radius,
    solvers,
)
from divsparse.bruteforce import VerifyScope, enumerate_domain, verify_sparsifier
from divsparse.cli import run
from divsparse.domains import ExplicitOracle
from divsparse.instances import ParseError, parse_instance
from divsparse.limited import ShiftedEmptyExtension

C4_MATCHING = """\
# C4 cycle, matchings of size 2
domain matching size=2
graph undirected 4 4
0 1
1 2
2 3
3 0
"""

EXPLICIT_TWO = """\
domain explicit
universe 2
set 0
set 1
"""

TRIANGLE_TREES = """\
domain spanning_tree
graph undirected 3 3
0 1
1 2
2 0
"""

DIAMOND = """\
domain st_mincut s=0 t=3
graph directed 4 4
0 1
0 2
1 3
2 3
"""

#: closed under complements, so ``--modified`` applies; it changes the answer
COMPLEMENT_CLOSED = """\
domain explicit
universe 4
set
set 0 1 2 3
set 0 1
set 2 3
set 0
set 1 2 3
"""

#: with ``--p 7 --trials 1 --seed 5`` the far-set search misses the full set
SPREAD = "domain explicit\nuniverse 8\nset\nset 0 1 2 3 4 5 6 7\nset 0 1 2 3\n"

DAG = """\
domain dag_dp universe=3
graph directed 3 2
0 2
1 2
labels 0 1 2
"""


def _graph(kind: str, n_vertices: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"graph {kind} {n_vertices} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


#: one instance of every kind whose universe is one element too wide (65)
_PATH_65_EDGES = _graph("undirected", 66, [(i, i + 1) for i in range(65)])
OVERSIZED = {
    "explicit": "domain explicit\nuniverse 65\n",
    "vertex_cover": "domain vertex_cover ell=1\n"
    + _graph("undirected", 65, [(0, 1)]),
    "spanning_tree": "domain spanning_tree\n" + _PATH_65_EDGES,
    "uniform_matroid": "domain uniform_matroid rank=1\nuniverse 65\n",
    "partition_matroid": "domain partition_matroid\nuniverse 65\nblock 1 0 1\n",
    "matching": "domain matching size=1\n" + _PATH_65_EDGES,
    "st_mincut": "domain st_mincut s=0 t=1\n" + _graph("directed", 65, [(0, 1)]),
    "dag_dp": "domain dag_dp universe=65\n"
    + _graph("directed", 2, [(0, 1)])
    + "labels 0 1\n",
}

_DIRECTED_PATH = _graph("directed", 3, [(0, 1), (1, 2)])
_UNDIRECTED_PATH = _graph("undirected", 3, [(0, 1), (1, 2)])
#: one instance per fault of its header line, every other line well formed
HEADER_FAULTS = {
    "vertex_cover_directed": "domain vertex_cover ell=1\n" + _DIRECTED_PATH,
    "spanning_tree_directed": "domain spanning_tree\n" + _DIRECTED_PATH,
    "matching_directed": "domain matching size=1\n" + _DIRECTED_PATH,
    "dag_dp_undirected": "domain dag_dp universe=3\n"
    + _UNDIRECTED_PATH
    + "labels 0 1 2\n",
    "rank_over_universe": "domain uniform_matroid rank=4\nuniverse 3\n",
    "negative_rank": "domain uniform_matroid rank=-1\nuniverse 3\n",
    "source_is_sink": "domain st_mincut s=1 t=1\n" + _DIRECTED_PATH,
    "source_out_of_range": "domain st_mincut s=3 t=0\n" + _DIRECTED_PATH,
    "universe_zero": "domain dag_dp universe=0\n" + _DIRECTED_PATH + "labels 0 1 2\n",
    "missing_option": "domain matching\n" + _UNDIRECTED_PATH,
    "extra_option": "domain spanning_tree ell=1\n" + _UNDIRECTED_PATH,
    "misnamed_option": "domain vertex_cover size=1\n" + _UNDIRECTED_PATH,
    "unknown_kind": "domain banana\n",
}

#: one instance per fault after a well-formed header: (text, the line
#: the error names, a substring of its message)
BODY_FAULTS = {
    "bad_integer": ("domain explicit\nuniverse x\n", 2, "expected an integer universe size"),
    "end_of_input": ("domain explicit\n# no body\n", 2, "found end of input"),
    "extra_line": (
        "domain uniform_matroid rank=1\nuniverse 2\nset 0\n", 3, "unexpected extra line"
    ),
    "unknown_orientation": (
        "domain spanning_tree\ngraph sideways 2 1\n0 1\n", 2, "unknown orientation"
    ),
    "edge_line_shape": (
        "domain spanning_tree\ngraph undirected 2 1\n0 1 1\n", 3, "expected an edge line"
    ),
    "endpoint_out_of_range": (
        "domain spanning_tree\ngraph undirected 2 1\n0 2\n", 3, "endpoint out of range"
    ),
    "no_vertices": ("domain spanning_tree\ngraph undirected 0 0\n", 2, "at least one vertex"),
    "universe_line": ("domain explicit\nuniverse 2 3\n", 2, "expected 'universe <n>'"),
    "duplicate_set": ("domain explicit\nuniverse 2\nset 0 1\nset 1 0\n", 4, "duplicate set"),
    "block_line": ("domain partition_matroid\nuniverse 2\nblock\n", 3, "expected 'block"),
    "block_element_out_of_range": (
        "domain partition_matroid\nuniverse 2\nblock 1 0 2\n", 3, "index 2 out of range"
    ),
    "labels_count": (
        "domain dag_dp universe=3\ngraph directed 2 1\n0 1\nlabels 0\n", 4, "with 2 entries"
    ),
    "bare_domain": ("# kind missing\ndomain\n", 2, "expected 'domain <kind>"),
}


def invoke(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


def invoke_all(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def write(tmp_path):
    def _write(text: str) -> str:
        path = tmp_path / "instance.txt"
        path.write_text(text)
        return str(path)

    return _write


class TestParseInstance:
    def test_explicit(self):
        inst = parse_instance(EXPLICIT_TWO)
        assert inst.kind == "explicit" and inst.oracle().universe_size == 2

    def test_matching(self):
        inst = parse_instance(C4_MATCHING)
        assert inst.kind == "matching" and inst.oracle().universe_size == 4

    def test_mincut(self):
        inst = parse_instance(DIAMOND)
        assert inst.kind == "st_mincut"

    def test_self_loop_rejected_with_line(self):
        bad = "domain spanning_tree\ngraph undirected 2 1\n1 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(bad)
        assert err.value.line_no == 3

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_instance("domain banana\n")

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_instance("domain explicit\nuniverse 2\nset 5\n")

    def test_section_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("domain matching size=1\nuniverse 3\n")

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\ndomain explicit\n# mid\nuniverse 1\nset 0\n\n"
        inst = parse_instance(text)
        assert inst.oracle().universe_size == 1

    @pytest.mark.parametrize("text", OVERSIZED.values(), ids=OVERSIZED.keys())
    def test_universe_over_the_mask_width_limit(self, text):
        with pytest.raises(ParseError, match="mask width limit"):
            parse_instance(text)

    @pytest.mark.parametrize("name", HEADER_FAULTS)
    def test_header_fault_names_the_header_line(self, name, write):
        text = "# the header is line 2\n" + HEADER_FAULTS[name]
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line_no == 2
        if name in ("negative_rank", "source_is_sink"):
            assert invoke(["enumerate", "--instance", write(text)]) == (2, "")

    @pytest.mark.parametrize("name", BODY_FAULTS)
    def test_body_fault_names_its_line(self, name, write):
        text, line_no, message = BODY_FAULTS[name]
        with pytest.raises(ParseError, match=message) as err:
            parse_instance(text)
        assert err.value.line_no == line_no
        if name == "duplicate_set":
            assert invoke(["enumerate", "--instance", write(text)]) == (2, "")


class TestSolveCommand:
    def test_c4_maxmin_yes_bytes(self, write):
        path = write(C4_MATCHING)
        code, out = invoke(
            ["solve", "--instance", path, "--problem", "maxmin",
             "--k", "2", "--d", "4", "--trials", "64"]
        )
        assert code == 0
        assert out == "YES\nset: 0 2\nset: 1 3\n"

    def test_triangle_maxmin_no(self, write):
        path = write(TRIANGLE_TREES)
        code, out = invoke(
            ["solve", "--instance", path, "--problem", "maxmin",
             "--k", "2", "--d", "3", "--trials", "64"]
        )
        assert code == 0 and out == "NO\n"

    def test_kcenter_prints_radii(self, write):
        path = write(EXPLICIT_TWO)
        code, out = invoke(
            ["solve", "--instance", path, "--problem", "kcenter",
             "--k", "2", "--d", "0", "--trials", "64"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1:3] == ["set: 0", "set: 1"]
        assert lines[3:] == ["radius: 0", "radius: 0"]

    def test_maxsum_prints_objective(self, write):
        path = write(TRIANGLE_TREES)
        code, out = invoke(
            ["solve", "--instance", path, "--problem", "maxsum",
             "--k", "3", "--d", "6", "--trials", "64"]
        )
        assert code == 0
        assert out.splitlines()[0] == "YES"
        assert out.splitlines()[-1] == "objective: 6"

    def test_maxsum_objective_is_over_the_sparsifier_searched(self, write):
        # the domain's best pairwise sum is 6 (two disjoint 3-sets); a
        # d-limited sparsifier keeps distances only up to the cap, so the
        # limited search may report any value in [d, 6] on YES
        path = write("domain uniform_matroid rank=3\nuniverse 6\n")
        argv = ["solve", "--instance", path, "--problem", "maxsum",
                "--k", "2", "--d", "0"]
        _, limited = invoke(argv + ["--mode", "limited"])
        _, small = invoke(argv + ["--mode", "small"])
        assert limited == "YES\nset: 0 1 3\nset: 1 3 5\nobjective: 2\n"
        assert small == "YES\nset: 0 1 2\nset: 3 4 5\nobjective: 6\n"

    def test_byte_identical_reruns(self, write):
        path = write(C4_MATCHING)
        argv = ["solve", "--instance", path, "--problem", "maxmin",
                "--k", "2", "--d", "4", "--seed", "5", "--trials", "64"]
        assert invoke(argv) == invoke(argv)

    def test_small_mode_on_mincut_is_usage_error(self, write):
        path = write(DIAMOND)
        code, _ = invoke(
            ["solve", "--instance", path, "--problem", "maxmin",
             "--k", "2", "--d", "1", "--mode", "small"]
        )
        assert code == 2


class TestEnumerateCommand:
    def test_explicit(self, write):
        path = write(EXPLICIT_TWO)
        code, out = invoke(["enumerate", "--instance", path])
        assert code == 0 and out == "size: 2\nset: 0\nset: 1\n"

    def test_diamond_four_cuts(self, write):
        path = write(DIAMOND)
        code, out = invoke(["enumerate", "--instance", path])
        assert code == 0
        assert out.splitlines()[0] == "size: 4"

    def test_round_trip_as_explicit(self, write, tmp_path):
        path = write(DAG)
        code, out = invoke(["enumerate", "--instance", path])
        assert code == 0
        lines = out.splitlines()
        n = 3
        rebuilt = "domain explicit\n" + f"universe {n}\n" + "\n".join(lines[1:]) + "\n"
        inst = parse_instance(rebuilt)
        second = tmp_path / "again.txt"
        second.write_text(rebuilt)
        code2, out2 = invoke(["enumerate", "--instance", str(second)])
        assert code2 == 0 and out2 == out

    def test_round_trip_with_empty_member(self, write, tmp_path):
        text = "domain explicit\nuniverse 3\nset\nset 0 2\n"
        path = write(text)
        code, out = invoke(["enumerate", "--instance", path])
        assert code == 0 and out.splitlines()[1] == "set:"
        rebuilt = "domain explicit\nuniverse 3\n" + "\n".join(out.splitlines()[1:]) + "\n"
        second = tmp_path / "again.txt"
        second.write_text(rebuilt)
        code2, out2 = invoke(["enumerate", "--instance", str(second)])
        assert code2 == 0 and out2 == out


class TestSparsifyCommand:
    def test_report_lines(self, write):
        path = write(EXPLICIT_TWO)
        code, out = invoke(
            ["sparsify", "--instance", path, "--k", "2", "--d", "1",
             "--seed", "9", "--trials", "64"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("size: ")
        assert lines[-3].startswith("calls_opt: ")
        assert lines[-2].startswith("calls_extend: ")
        assert lines[-1] == "seed: 9"

    def test_small_mode_on_vertex_cover(self, write):
        vc = "domain vertex_cover ell=2\ngraph undirected 3 2\n0 1\n1 2\n"
        path = write(vc)
        code, out = invoke(["sparsify", "--instance", path, "--k", "1", "--d", "1"])
        assert code == 0
        assert out.splitlines()[0].startswith("size: ")
        assert "calls_opt: 0" in out  # the small pipeline never optimizes


    def test_far_set_phase_ends_once_every_mask_is_known(self, write):
        # the six singletons turn up as six centers; a seventh would take
        # about 4.9e23 default trials, but the phase memo knows all 2^6
        # weight masks by then and none of their optima is far
        path = write("domain uniform_matroid rank=1\nuniverse 6\n")
        code, out = invoke(
            ["sparsify", "--instance", path, "--k", "6", "--d", "0",
             "--mode", "limited"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "size: 6"
        calls_opt = int(lines[-3].removeprefix("calls_opt: "))
        assert 6 <= calls_opt <= 2**6


class TestVerifyCommand:
    def test_ok(self, write):
        path = write(C4_MATCHING)
        code, out = invoke(
            ["verify", "--instance", path, "--k", "2", "--d", "3", "--trials", "64"]
        )
        assert code == 0 and out.splitlines()[0] == "OK"

    def test_small_mode_ok(self, write):
        vc = "domain vertex_cover ell=2\ngraph undirected 4 3\n0 1\n1 2\n2 3\n"
        path = write(vc)
        code, out = invoke(["verify", "--instance", path, "--k", "2", "--d", "2"])
        assert code == 0 and out.splitlines()[0] == "OK"

    def test_underpowered_p_fails_and_reports_counterexample(self, write):
        # p forced just above 2d voids completeness: with one trial and this
        # seed the far-set search misses the full set, and the verifier
        # catches the invalid output (k reference lines, then the member)
        path = write(SPREAD)
        code, out = invoke(
            ["verify", "--instance", path, "--k", "1", "--d", "3",
             "--p", "7", "--trials", "1", "--seed", "5"]
        )
        assert code == 0
        assert out == "FAIL\nset: 0 1\nset: 0 1 2 3 4 5 6 7\n"
        # the same domain with the default radius verifies fine
        code, out = invoke(
            ["verify", "--instance", path, "--k", "1", "--d", "3",
             "--trials", "16", "--seed", "5"]
        )
        assert code == 0 and out.splitlines()[0] == "OK"

    def test_sampled_verification_says_so(self, write):
        # past the materialized-reference guard, limited mode samples the
        # whole cube and small mode the ball of radius 1 around the empty
        # set.  At 13 elements the draws hold every reference set: all 8,192
        # subsets, and the ball's 14 sets.  At 14 elements 10,000 draws
        # cannot hold 16,384 subsets
        for n, mode, want in (
            (13, "limited", "OK\n"), (13, "small", "OK\n"), (14, "limited", "OK (sampled)\n")
        ):
            path = write(f"domain uniform_matroid rank=1\nuniverse {n}\n")
            code, out = invoke(
                ["verify", "--instance", path, "--k", "1", "--d", "1", "--mode", mode]
            )
            assert code == 0 and out == want, (n, mode)


class TestPipelineChoice:
    """``solve``, ``sparsify`` and ``verify`` run with the same flags hand
    the library equal params, each through the CLI module's own names
    (``cli.solve``, ``cli.k_sparsify``, ``cli.dk_sparsify``) with the
    oracle where the benchmark's tracer wraps it."""

    class Handed(Exception):
        """Raised by a spy once it holds the params."""

    VERTEX_COVER = "domain vertex_cover ell=3\ngraph undirected 4 3\n0 1\n1 2\n2 3\n"

    @pytest.mark.parametrize("mode", ["small", "limited", "auto"])
    @pytest.mark.parametrize(
        "text, ell, prefers_small",
        [(VERTEX_COVER, 3, True), (TRIANGLE_TREES, 2, False)],
        ids=["vertex_cover", "spanning_tree"],
    )
    def test_every_command_hands_over_equal_params(
        self, write, monkeypatch, mode, text, ell, prefers_small
    ):
        handed = []

        def spy(name, oracle_at, params_at):
            def spied(*args):
                assert isinstance(args[oracle_at], DomainOracle)
                handed.append((name, args[params_at]))
                raise self.Handed

            monkeypatch.setattr(cli, name, spied)

        spy("solve", 0, 2)
        spy("k_sparsify", 1, 0)
        spy("dk_sparsify", 0, 1)
        flags = ["--instance", write(text), "--k", "2", "--d", "1", "--mode", mode,
                 "--seed", "5", "--epsilon", "0.25", "--trials", "7", "--p", "9"]
        for command in (["solve", "--problem", "kcenter"], ["sparsify"], ["verify"]):
            with pytest.raises(self.Handed):
                run(command + flags)
        small = mode == "small" or (mode == "auto" and prefers_small)
        if small:
            params = SmallSparsifyParams(k=2, r=ell, ell=ell)
        else:
            params = LimitedSparsifyParams(
                k=2, d=1, p=9, epsilon=0.25, trials_override=7, seed=5
            )
        pipeline = "k_sparsify" if small else "dk_sparsify"
        assert handed == [("solve", params), (pipeline, params), (pipeline, params)]


class TestExitCodes:
    def test_parse_error_is_2(self, write):
        path = write("domain banana\n")
        code, _ = invoke(["enumerate", "--instance", path])
        assert code == 2

    def test_missing_file_is_2(self):
        code, _ = invoke(["enumerate", "--instance", "/nonexistent/file.txt"])
        assert code == 2

    def test_file_that_is_not_utf8_is_2(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_bytes(b"domain explicit\nuniverse 2\nset 0 \xff\n")
        code, out, err = invoke_all(["enumerate", "--instance", str(path)])
        assert code == cli.EXIT_USAGE == 2 and out == ""
        assert err.startswith("error: cannot read instance: ")
        assert "can't decode byte 0xff" in err

    def test_universe_over_the_mask_width_limit_is_2(self, write, capsys):
        path = write(OVERSIZED["uniform_matroid"])
        code, out = invoke(["enumerate", "--instance", path])
        assert code == 2 and out == ""
        assert "mask width limit" in capsys.readouterr().err

    def test_modified_distance_on_a_family_not_complement_closed_is_2(self, write):
        # spanning trees of K5 keep the oracle's default: not complement-closed
        k5 = "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))
        path = write("domain spanning_tree\ngraph undirected 5 10\n" + k5)
        code, out, err = invoke_all(
            ["solve", "--instance", path, "--problem", "kcenter", "--k", "2",
             "--d", "3", "--modified"]
        )
        assert code == cli.EXIT_USAGE == 2 and out == ""
        assert "needs a complement-closed domain" in err

    @pytest.mark.parametrize("command", ["sparsify", "verify"])
    @pytest.mark.parametrize(
        "mode, text",
        [
            ("small", "domain uniform_matroid rank=2\nuniverse 4\n"),
            ("limited", "domain uniform_matroid rank=2\nuniverse 4\n"),
            # auto picks small mode on vertex covers
            ("auto", "domain vertex_cover ell=2\ngraph undirected 3 2\n0 1\n1 2\n"),
        ],
        ids=["small", "limited", "auto"],
    )
    def test_negative_d_is_2_in_every_mode(self, write, command, mode, text):
        path = write(text)
        code, out, err = invoke_all(
            [command, "--instance", path, "--k", "1", "--d", "-3", "--mode", mode]
        )
        assert code == cli.EXIT_USAGE == 2 and out == ""
        assert err == "error: d must be nonnegative\n"

    @pytest.mark.parametrize("problem", ["kcenter", "ksumradii"])
    def test_cluster_radius_at_most_twice_the_clustering_cap_is_2(self, write, problem):
        # clustering builds its sparsifier with cap d + 1, so with --d 2 the
        # radius --p must exceed 2(d + 1) = 6: 3 (at most 2d) and 5 are
        # refused with that bound, 7 runs
        path = write(TRIANGLE_TREES)
        argv = ["solve", "--instance", path, "--problem", problem, "--k", "2",
                "--d", "2", "--mode", "limited", "--p"]
        for p in (3, 5):
            code, out, err = invoke_all(argv + [str(p)])
            assert code == cli.EXIT_USAGE == 2 and out == ""
            assert err == (
                f"error: cluster radius p ({p}) must exceed 2(d + 1) (6): "
                "k-center and k-sum-of-radii build with cap d + 1\n"
            )
        code, out, err = invoke_all(argv + ["7"])
        assert code == 0 and out.startswith("YES\n") and err == ""

    def test_guard_is_3(self, write):
        big = "domain uniform_matroid rank=1\nuniverse 24\n"
        path = write(big)
        code, _ = invoke(["enumerate", "--instance", path])
        assert code == 3

    def test_distance_matrix_guard_is_3(self, write, monkeypatch):
        monkeypatch.setattr(solvers, "DISTANCE_MATRIX_GUARD", 1)
        path = write(EXPLICIT_TWO)
        code, out, err = invoke_all(
            ["solve", "--instance", path, "--problem", "kcenter", "--k", "1", "--d", "0"]
        )
        assert code == cli.EXIT_GUARD == 3 and out == ""
        assert "DISTANCE_MATRIX_GUARD" in err

    def test_unrepresentable_trial_count_is_3(self, write):
        # ten distinct centers turn up at once; the eleventh would need
        # ln(1100) * 2^1024 * 4^10 default trials, beyond the float range
        path = write("domain uniform_matroid rank=4\nuniverse 12\n")
        code, out, err = invoke_all(
            ["sparsify", "--instance", path, "--k", "10", "--d", "0",
             "--mode", "limited"]
        )
        assert code == cli.EXIT_GUARD == 3 and out == ""
        assert err == (
            "error: default far-set trial count for 10 centers is too large "
            "to represent\n"
        )

    def test_soundness_error_is_4(self, write, monkeypatch, capsys):
        class Liar(DomainOracle):
            # answers every query with {0,1}, whatever size was asked for
            universe_size = 2

            def exact_extend(self, query, ctx=None):
                return Found(0b11)

        monkeypatch.setattr(
            cli,
            "parse_instance",
            lambda text: replace(parse_instance(text), _oracle=Liar()),
        )
        path = write(EXPLICIT_TWO)
        code, out = invoke(
            ["sparsify", "--instance", path, "--k", "1", "--d", "1", "--mode", "small"]
        )
        assert code == cli.EXIT_SOUNDNESS == 4
        assert out == ""
        assert capsys.readouterr().err == (
            "error: witness {0,1}/2 does not have size 0\n"
        )

    def test_trivial_sparsifier_lie_is_4(self, write, monkeypatch, capsys):
        class TrivialLiar(ExplicitOracle):
            # a one-member "trivial sparsifier" for every query with a context
            def exact_extend(self, query, ctx=None):
                if ctx is None:
                    return super().exact_extend(query, ctx)
                return TrivialSparsifier(SetFamily.from_bits(4, [0b0001]))

        def parse(text):
            parsed = parse_instance(text)
            return replace(parsed, _oracle=TrivialLiar(enumerate_domain(parsed)))

        monkeypatch.setattr(cli, "parse_instance", parse)
        path = write("domain explicit\nuniverse 4\nset 0 1\nset 0 1 2\n")
        for command in ("solve --problem kcenter", "sparsify"):
            code, out = invoke(
                [*command.split(), "--instance", path, "--k", "1", "--d", "1",
                 "--mode", "limited"]
            )
            assert code == cli.EXIT_SOUNDNESS == 4, command
            assert out == ""
            assert capsys.readouterr().err == (
                "error: trivial sparsifier has 1 members, not k+1 = 2\n"
            )

    def test_small_mode_trivial_sparsifier_is_4(self, write, monkeypatch, capsys):
        class EmptyTrivialLiar(ExplicitOracle):
            # small mode asks every query without a context
            def exact_empty_extend(self, r, forbidden, ctx=None):
                return TrivialSparsifier(SetFamily.from_bits(4, [0b0001]))

        def parse(text):
            parsed = parse_instance(text)
            return replace(parsed, _oracle=EmptyTrivialLiar(enumerate_domain(parsed)))

        monkeypatch.setattr(cli, "parse_instance", parse)
        path = write("domain explicit\nuniverse 4\nset 0 1\nset 0 1 2\n")
        code, out = invoke(
            ["sparsify", "--instance", path, "--k", "1", "--d", "1", "--mode", "small"]
        )
        assert code == cli.EXIT_SOUNDNESS == 4
        assert out == ""
        assert capsys.readouterr().err == (
            "error: trivial sparsifier answered a query without context\n"
        )


_PAIR = SetFamily.from_bits(2, [0b01, 0b11])
_SHIFTED = partial(ShiftedEmptyExtension, ExplicitOracle(_PAIR))
#: argument checks of the CLI and the library: (call, a substring of its
#: message).  A list is a command and its flags, run on TRIANGLE_TREES,
#: which must exit 2 and print the message to stderr; a callable must raise
#: ValueError, or CapabilityError for a capability the object refuses
ARGUMENT_CHECKS = {
    "solve_k": (["solve", "--problem", "maxmin", "--k", "0", "--d", "1"], "k must be at least 1"),
    "sparsify_k": (["sparsify", "--k", "0", "--d", "1"], "k must be at least 1"),
    "verify_k": (["verify", "--k", "0", "--d", "1"], "k must be at least 1"),
    "solve_d": (
        ["solve", "--problem", "maxmin", "--k", "1", "--d", "-1"], "d must be nonnegative"
    ),
    "problem": (partial(ProblemSpec, "maxmax", 1, 1), "unknown problem 'maxmax'"),
    "problem_k": (partial(ProblemSpec, "maxmin", 0, 1), "k must be at least 1"),
    "problem_d": (partial(ProblemSpec, "maxmin", 1, -1), "d must be nonnegative"),
    "query_radius": (partial(ExtensionQuery, 0, -1, 0, 0), "radius must be nonnegative"),
    "small_r": (partial(SmallSparsifyParams, k=1, r=-1, ell=0), "r and ell must be nonnegative"),
    "small_ell": (partial(SmallSparsifyParams, k=1, r=1, ell=-1), "r and ell must be nonnegative"),
    "trials_epsilon": (partial(default_trials, 1, 1.0, 0), r"epsilon must be in \(0, 1\)"),
    "trials_override": (
        partial(LimitedSparsifyParams, k=1, d=1, trials_override=0),
        "trials_override must be positive",
    ),
    "shifted_center": (partial(_SHIFTED, 0b100), "center has elements outside the universe"),
    "shifted_extend": (
        lambda: _SHIFTED(0b01).exact_extend(ExtensionQuery(0, 0, 0, 0)),
        "offers only the empty extension",
    ),
    "cluster_d": (
        partial(min_cluster_radius, [0b01], -1, ExplicitOracle(_PAIR)), "d must be nonnegative"
    ),
    "scope_k": (partial(VerifyScope, 0, None, "all"), "k must be at least 1"),
    "scope_cap": (partial(VerifyScope, 1, -1, "all"), "cap must be nonnegative"),
    "scope_reference": (partial(VerifyScope, 1, None, "near"), "unknown reference family"),
    "scope_ball": (partial(VerifyScope, 1, None, "ball"), "needs a center and radius"),
    "verify_universe": (
        partial(
            verify_sparsifier, _PAIR, SetFamily.from_bits(3, [0b01]), VerifyScope(1, None, "all")
        ),
        "universe mismatch",
    ),
}


@pytest.mark.parametrize("name", ARGUMENT_CHECKS)
def test_argument_check(name, write):
    call, message = ARGUMENT_CHECKS[name]
    if isinstance(call, list):
        argv = [call[0], "--instance", write(TRIANGLE_TREES), *call[1:]]
        assert invoke_all(argv) == (cli.EXIT_USAGE, "", f"error: {message}\n")
    else:
        with pytest.raises((ValueError, CapabilityError), match=message):
            call()


class TestParserReuse:
    """``run`` builds its parser once per process; no run may see what an
    earlier one parsed."""

    @staticmethod
    def interleaved(tmp_path) -> list[list[str]]:
        paths = {}
        texts = {"cc": COMPLEMENT_CLOSED, "spread": SPREAD, "c4": C4_MATCHING}
        for name, text in texts.items():
            paths[name] = str(tmp_path / f"{name}.txt")
            Path(paths[name]).write_text(text)
        maxmin = ["--problem", "maxmin", "--k", "2", "--d", "2"]
        spread = ["--instance", paths["spread"], "--k", "1", "--d", "3", "--seed", "5"]
        knobs = ["--p", "7", "--trials", "1"]
        return [
            ["solve", "--instance", paths["cc"], *maxmin, "--modified"],
            ["solve", "--instance", paths["cc"], *maxmin],
            ["verify", *spread, *knobs],
            ["verify", *spread],
            ["sparsify", *spread, *knobs],
            ["sparsify", *spread],
            ["enumerate", "--instance", paths["c4"]],
            ["solve", "--instance", paths["c4"], "--problem", "maxmin", "--d", "4"],
            ["solve", "--instance", paths["c4"], "--problem", "maxmin", "--k", "2", "--d", "4"],
            ["solve", "--instance", paths["cc"], *maxmin, "--modified"],
            ["sparsify", *spread, *knobs],
            ["--help"],
        ]

    def test_interleaved_runs_match_fresh_parsers(self, tmp_path, monkeypatch):
        argvs = self.interleaved(tmp_path)
        invoke_all(argvs[0])  # the parser exists from here on
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
            reused = [invoke_all(argv) for argv in argvs]
        assert built == []
        # each flag changes the output, so a leaked value would show
        assert reused[0][1] != reused[1][1]
        assert reused[2][1] != reused[3][1] and reused[4][1] != reused[5][1]
        assert [r[0] for r in reused[6:9]] == [0, 2, 0]
        assert "required: --k" in reused[7][2]
        assert reused[8][1] == "YES\nset: 0 2\nset: 1 3\n"

        # the same runs again, each with a parser of its own
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert reused == [invoke_all(argv) for argv in argvs]

    def test_help_text_is_stable(self):
        first = invoke_all(["--help"])
        assert first[0] == 0 and first[1].startswith("usage: divsparse")
        assert invoke_all(["--help"]) == first
        solve_help = invoke_all(["solve", "--help"])
        assert solve_help[0] == 0 and "--modified" in solve_help[1]
        assert invoke_all(["solve", "--help"]) == solve_help


_COUNT_PARSERS_ON_IMPORT = textwrap.dedent(
    """
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counting_init
    import divsparse.cli
    print("import", len(built))
    divsparse.cli.run([])  # no subcommand: a usage error, exit 2
    print("run", len(built) > 0)
    """
)


def test_import_builds_no_parser():
    src = str(Path(divsparse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS_ON_IMPORT],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == ["import 0", "run True"]


#: one small instance of every kind, with the adapter module it needs
ONE_OF_EACH_KIND = {
    "explicit": (EXPLICIT_TWO, "explicit"),
    "vertex_cover": ("domain vertex_cover ell=2\n" + _UNDIRECTED_PATH, "vertex_cover"),
    "spanning_tree": (TRIANGLE_TREES, "matroid"),
    "uniform_matroid": ("domain uniform_matroid rank=1\nuniverse 3\n", "matroid"),
    "partition_matroid": (
        "domain partition_matroid\nuniverse 4\nblock 1 0 1\nblock 1 2 3\n",
        "matroid",
    ),
    "matching": (C4_MATCHING, "matching"),
    "st_mincut": (DIAMOND, "mincut"),
    "dag_dp": (DAG, "dagdp"),
}
ADAPTER_MODULES = {adapter for _, adapter in ONE_OF_EACH_KIND.values()}

_SPARSIFY_AND_LIST_MODULES = textwrap.dedent(
    """
    import sys
    import divsparse.cli
    code = divsparse.cli.run(["sparsify", "--instance", sys.argv[1], "--k", "1", "--d", "1"])
    print(code, *sorted(m for m in sys.modules if m.startswith("divsparse")))
    """
)


@pytest.mark.parametrize("kind", sorted(ONE_OF_EACH_KIND))
def test_sparsify_loads_only_its_adapter(kind, write):
    text, adapter = ONE_OF_EACH_KIND[kind]
    src = str(Path(divsparse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SPARSIFY_AND_LIST_MODULES, write(text)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    code, *loaded = done.stdout.splitlines()[-1].split()  # after sparsify's own lines
    assert code == "0"
    assert "divsparse.bruteforce" not in loaded
    adapters = {m.rpartition(".")[2] for m in loaded} & ADAPTER_MODULES
    assert adapters == {adapter}
