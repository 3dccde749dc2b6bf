"""The CLI as a user meets it: each case runs ``python -m divsparse.cli`` in a
fresh process and checks its exit status, stdout and stderr within a timeout.
The frameworks are deterministic, so a case prints the same bytes in every
process: ``HASH_SEEDED`` cases run under two hash seeds, to catch output that
follows the order of hashed objects."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import divsparse


def _graph(kind: str, n_vertices: int, edges) -> str:
    lines = [f"{u} {v}\n" for u, v in edges]
    return f"graph {kind} {n_vertices} {len(lines)}\n" + "".join(lines)


C4 = "domain matching size=2\n" + _graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K5 = "domain spanning_tree\n"
K5 += _graph("undirected", 5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
U14, U24 = (f"domain uniform_matroid rank=3\nuniverse {n}\n" for n in (14, 24))
#: 20 layers of two vertices, each joined to both of the next layer's
_RUNGS = [(2 * i + a, 2 * i + 2 + b) for i in range(19) for a in (0, 1) for b in (0, 1)]
LADDER = "domain dag_dp universe=20\n" + _graph("directed", 40, _RUNGS) + "labels "
LADDER += " ".join(str(v // 2) for v in range(40)) + "\n"
PATH12, PATH13 = (
    "domain matching size=1\n" + _graph("undirected", n, [(i, i + 1) for i in range(n - 1)])
    for n in (12, 13)
)
#: three s-t paths with 5, 5 and 4 inner vertices
_PATHS = [0, 1, 2, 3, 4, 5, 15], [0, 6, 7, 8, 9, 10, 15], [0, 11, 12, 13, 14, 15]
CUT554 = "domain st_mincut s=0 t=15\n"
CUT554 += _graph("undirected", 16, [e for path in _PATHS for e in zip(path, path[1:])])
_EDGES16 = [(i, (i + 1) % 16) for i in range(16)] + [(i, (i + 5) % 16) for i in range(0, 16, 2)]
VC16 = "domain vertex_cover ell=10\n" + _graph("undirected", 16, _EDGES16)
#: the empty set, the 16 singletons, the full set and the 16 co-singletons
_TWO16 = [[], *([i] for i in range(16)), range(16)]
_TWO16 += ([*range(i), *range(i + 1, 16)] for i in range(16))
TWO16 = "domain explicit\nuniverse 16\n"
TWO16 += "".join(" ".join(["set", *map(str, s)]) + "\n" for s in _TWO16)
#: closed under complements, so --modified applies
CC = "domain explicit\nuniverse 4\nset\nset 0 1 2 3\nset 0 1\nset 2 3\nset 0\nset 1 2 3\n"
VC5 = "domain vertex_cover ell=3\n" + _graph("undirected", 5, [(i, (i + 1) % 5) for i in range(5)])
VC7 = "domain vertex_cover ell=4\n"
VC7 += _graph("undirected", 7, [(0, 2), (1, 3), (2, 3), (4, 5), (0, 1)])


@dataclass(frozen=True)
class Pin:
    instance: str | None  # written to a file, named by --instance after the command
    argv: str  # split on spaces, after ``python -m divsparse.cli``
    out: str | None = None  # the exact stdout, or the sha256 of its raw bytes
    code: int = 0
    err: str = ""  # a stderr substring
    timeout: float = 60


PINS = {
    "no-args": Pin(None, "", code=2),
    "help": Pin(None, "--help"),
    # the README's example; enumerate and verify never run in the bench
    "c4-solve": Pin(C4, "solve --problem maxmin --k 2 --d 4", "YES\nset: 0 2\nset: 1 3\n"),
    "c4-enumerate": Pin(C4, "enumerate", "size: 2\nset: 0 2\nset: 1 3\n"),
    "c4-verify": Pin(C4, "verify --k 2 --d 1", "OK\n"),
    "k5-maxmin": Pin(K5, "solve --problem maxmin --k 4 --d 7", "NO\n"),  # clique search
    # the far-set give-up stops once its optima's empty balls cover the far region
    "k5-verify-limited": Pin(K5, "verify --k 4 --d 2 --mode limited", "OK\n"),
    # the clustering search skips clusters holding one with no center
    "k5-kcenter-limited": Pin(K5, "solve --problem kcenter --k 2 --d 3 --mode limited", "NO\n"),
    # bounded depth-first search
    "k5-maxsum-small": Pin(K5, "solve --problem maxsum --k 4 --d 30 --mode small",
                           "02dd70403a59dc470ea2661efaa90cce759e7c42909cccb06300d2400dfa8244"),
    # max-sum on distance rows folded to min(v, n - v)
    "cc-maxsum-modified": Pin(CC, "solve --problem maxsum --k 3 --d 0 --modified",
                              "YES\nset:\nset: 0\nset: 0 1\nobjective: 4\n"),
    # at seed 2^64 - 1 the generator state wraps in every lane of the block draw
    "k5-seed-max": Pin(K5, "sparsify --k 2 --d 3 --mode limited --seed 18446744073709551615",
                       "bfd26d1d70fdbf801a5bba238fb63e00cc80f00e58ceb4d13185dc1048251679"),
    # the blocker guard; the bench's anchor rows record only "error"
    "u24-sparsify-small": Pin(U24, "sparsify --k 2 --d 1 --mode small", code=3, err="2^20 guard"),
    # 2^20 longest paths, but one member
    "ladder-enumerate": Pin(LADDER, "enumerate",
                            "size: 1\nset: " + " ".join(map(str, range(20))) + "\n"),
    # the matching DP's 22-vertex cap: 12 vertices answer, 13 exit 3 naming it
    "path12-limited": Pin(PATH12, "sparsify --k 2 --d 1 --mode limited",
                          "b4403631723ed53c0e5a137552e9c73bdec6523bd8850e02e1ea560966ba9856"),
    "path13-limited": Pin(PATH13, "sparsify --k 2 --d 1 --mode limited",
                          code=3, err="22-vertex DP cap"),
    "cut554-sparsify": Pin(CUT554, "sparsify --k 2 --d 5", timeout=20,  # the min-cut ideal walk
                           out="b93181fc1e919ef674d908f72fde316e6b635e728481b4f0dc2c1ffc081bdff5"),
    # sizes above the in-process grids
    "u14-sparsify-small": Pin(U14, "sparsify --k 3 --d 1 --mode small",
                              "3e7dc9816b73f67b38164cfcbaabd59a8b98df1a052498053f8ee1c7ff8a5711"),
    "vc16-sparsify-small": Pin(VC16, "sparsify --k 2 --d 1 --mode small",
                               "101695d4958bbc6478cfb417e9f83c932ec34f28db8598f23144a27a4ca34cb9"),
    "vc16-kcenter-small": Pin(VC16, "solve --problem kcenter --k 2 --d 4 --mode small",
                              "b63370c2a71c21805bb2b392dd6a7cbbe9f5063ffc291e99ed5c3c5a5c7dcb7a"),
    # radius searches stopped at the budget left, over many grown clusters
    "vc16-ksumradii-small": Pin(VC16, "solve --problem ksumradii --k 3 --d 6 --mode small",
                                "NO\n"),
}

HASH_SEEDED = {
    "k5-seed3": Pin(K5, "sparsify --k 2 --d 3 --mode limited --seed 3",
                    "c3c00db67c7f0a64fad555eb0a2c01fb20c13aa687fc5c8ee421226248a1d15d"),
    # the cluster cost memo is a dict keyed by member-index bitmasks
    "cc-kcenter-modified": Pin(CC, "solve --problem kcenter --k 2 --d 1 --modified",
                               "YES\nset: 0\nset: 0\nradius: 1\nradius: 0\n"),
    "vc5-sparsify-small": Pin(VC5, "sparsify --k 2 --d 0 --mode small",  # per-class blocker dicts
                              "size: 5\nset: 0 1 3\nset: 1 2 4\nset: 0 2 3\nset: 1 3 4\n"
                              "set: 0 2 4\ncalls_opt: 0\ncalls_extend: 13\nseed: 0\n"),
    # the query memo of a solve is a dict keyed by tuples of masks
    "vc5-kcenter": Pin(VC5, "solve --problem kcenter --k 2 --d 2",
                       "YES\nset: 0 2 3\nset: 1 3 4\nradius: 2\nradius: 2\n"),
    # many grown clusters and trace guesses
    "vc7-kcenter-small": Pin(VC7, "solve --problem kcenter --k 2 --d 3 --mode small",
                             "c5f3158a5866e8ab90841d8edad1f1dc153e89deb5b42ef723b1d1d32f247b28"),
    # one-member clusters are their own centers without a query: same bytes as before
    "vc7-ksumradii-small": Pin(VC7, "solve --problem ksumradii --k 3 --d 4 --mode small",
                               "YES\nset: 0 1 3 4\nset: 1 2 5\nset: 1 2 5 6\n"
                               "radius: 4\nradius: 0\nradius: 0\n"),
    # the witnesses and radii of the final recheck, after capped radius searches
    "vc7-ksumradii-k2": Pin(VC7, "solve --problem ksumradii --k 2 --d 4 --mode small",
                            "YES\nset: 1 2 4 5\nset: 0 3 4 5\nradius: 2\nradius: 2\n"),
}

CASES = [pytest.param(pin, {}, id=name) for name, pin in PINS.items()] + [
    pytest.param(pin, {"PYTHONHASHSEED": seed}, id=f"{name}-hashseed{seed}")
    for name, pin in HASH_SEEDED.items() for seed in "01"
]


def _run(tmp_path, pin: Pin, env=None, flags=()) -> subprocess.CompletedProcess:
    argv = pin.argv.split()
    if pin.instance is not None:
        (tmp_path / "instance.txt").write_text(pin.instance)
        argv[1:1] = ["--instance", str(tmp_path / "instance.txt")]
    src = str(Path(divsparse.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *flags, "-m", "divsparse.cli", *argv], capture_output=True,
        env=dict(os.environ, PYTHONPATH=src, **(env or {})), timeout=pin.timeout,
    )


@pytest.mark.parametrize("pin, env", CASES)
def test_pin(pin, env, tmp_path):
    done = _run(tmp_path, pin, env)
    assert done.returncode == pin.code, done.stderr.decode()
    if pin.out is not None:
        assert pin.out in (done.stdout.decode(), hashlib.sha256(done.stdout).hexdigest())
    assert pin.err in done.stderr.decode()


def test_solve_imports_only_its_adapter(tmp_path):
    # -X importtime lists every module imported with cli run as __main__
    done = _run(tmp_path, PINS["c4-solve"], flags=("-X", "importtime"))
    assert done.returncode == 0
    assert "divsparse.domains.matching" in done.stderr.decode()
    others = r"divsparse\.(bruteforce|domains\.(dagdp|explicit|matroid|mincut|vertex_cover))"
    assert not re.search(others, done.stderr.decode())


def test_two16_limited_sparsify(tmp_path):
    # 16 elements is the widest universe on which the far-set phase keeps a
    # region: the answer lines are pinned, the optimizations asked bounded
    done = _run(tmp_path, Pin(TWO16, "sparsify --k 2 --d 1 --mode limited"))
    assert done.returncode == 0
    lines = done.stdout.decode().splitlines(keepends=True)
    answer = "".join(line for line in lines if not line.startswith("calls_"))
    digest = "0550117d9154df4db8865f565c431b57df0bc2b2d6e05733b49d61f5eea51d7f"
    assert hashlib.sha256(answer.encode()).hexdigest() == digest
    (calls_opt,) = (int(line[11:]) for line in lines if line.startswith("calls_opt: "))
    assert calls_opt < 1444
