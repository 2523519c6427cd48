"""Every CLI input ends in a JSON report or one `Error:` line.

Hypothesis draws small well-formed files of every input kind that need not
fit together: a .td whose bags are any vertex sets, of its graph's vertex
count or another, a map onto any vertices of its target, any partition and
any branch decomposition. Every subcommand runs on them with random global
flags and parameters. Each run exits 0 or 1 and prints either a JSON report
whose `ok` matches the exit code or exactly one `Error:` line; no exception
but SystemExit escapes.
"""

import json
import pathlib
import random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from coarsetd import Graph, decomposition_from_order
from coarsetd.cli import main
from coarsetd.fileio import emit_bd, emit_graph, emit_map, emit_partition, emit_td
from coarsetd.generators import FAMILIES, random_branch_decomposition

SMALL = st.integers(-1, 4)
# each gen family's parameters
GEN_PARAMS = {
    "path": ["n"], "cycle": ["n"], "random-tree": ["n"], "k-tree": ["k", "n"],
    "subdivided-k-tree": ["k", "n", "s"], "grid-slice": ["rows", "cols"],
    "random-branch-decomposition": ["n"],
}


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@st.composite
def tds(draw, g, other_n):
    """A valid decomposition of g, from a random elimination order, or a
    .td of g's vertex count or `other_n` whose bags are any vertex sets, on
    a random tree (a path about half the time)."""
    if g.n and draw(st.booleans()):
        order = draw(st.permutations(range(1, g.n + 1)))
        return emit_td(decomposition_from_order(g, order), g.n)
    n = draw(st.sampled_from([g.n, other_n]))
    bags = draw(st.lists(st.sets(st.integers(1, max(n, 1)), max_size=n),
                         min_size=1, max_size=4))
    path = draw(st.booleans())
    edges = [(i - 1 if path else draw(st.integers(1, i - 1)), i)
             for i in range(2, len(bags) + 1)]
    return "".join([
        f"s td {len(bags)} {max(map(len, bags))} {n}\n",
        *(" ".join(map(str, ["b", i, *sorted(bag)])) + "\n"
          for i, bag in enumerate(bags, 1)),
        *(f"{i} {j}\n" for i, j in edges),
    ])


def maps(n_source, n_target):
    target = st.integers(1, max(n_target, 1))
    return st.lists(target, min_size=n_source, max_size=n_source).map(
        lambda images: emit_map(dict(enumerate(images, 1))))


@st.composite
def partitions(draw, n):
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = {}
    for v, label in enumerate(labels, 1):
        parts.setdefault(label, []).append(v)
    return emit_partition(list(parts.values()))


@st.composite
def inputs(draw):
    """The input files of every subcommand: g.gr and h.gr, a decomposition
    of each (t.td, h.td), maps g -> h and h -> g, a partition of g and a
    branch decomposition (b.bd)."""
    g = draw(graphs())
    h = g if draw(st.booleans()) else draw(graphs())
    leaves = max(draw(st.sampled_from([g.n, g.n, h.n])), 1)
    rng = random.Random(draw(st.integers(0, 2**16)))
    return {
        "g.gr": emit_graph(g),
        "h.gr": emit_graph(h),
        "t.td": draw(tds(g, h.n)),
        "h.td": draw(tds(h, g.n)),
        "m.map": draw(st.one_of(maps(g.n, h.n), st.just(emit_map({v: v for v in g.vertices})))),
        "back.map": draw(maps(h.n, g.n)),
        "p.part": draw(partitions(g.n)),
        "b.bd": emit_bd(random_branch_decomposition(Graph(leaves), rng)),
    }


@st.composite
def runs(draw):
    """Every subcommand's name and arguments, global flags first."""
    flags = []
    if draw(st.booleans()):
        flags += ["--cap", str(draw(st.sampled_from([0, 1, 2, 3, 8, 40])))]
    flags += ["--shape", draw(st.sampled_from(["tree", "path"]))]
    k, d, c = (str(draw(SMALL)) for _ in range(3))
    vertex_set = draw(st.one_of(
        st.lists(st.integers(-1, 7), max_size=5).map(lambda vs: ",".join(map(str, vs))),
        st.just("1,x"),
    ))
    family = draw(st.sampled_from(sorted(GEN_PARAMS)))
    params = {key: draw(st.one_of(SMALL.map(str), st.just("x")))
              for key in GEN_PARAMS[family]}
    gr, td = ["--graph", "g.gr"], ["--td", "t.td"]
    budget = ["--budget", str(draw(SMALL))] if draw(st.booleans()) else []
    centred = ["--td", "t.td"] if draw(st.booleans()) else ["--set", vertex_set]
    commands = [
        ["validate-td", *gr, *td],
        ["metrics", *gr, *td, "--k", k, "--d", d],
        ["centred-check", *gr, *centred, "--k", k, "--d", d,
         "--mode", draw(st.sampled_from(["exact", "heuristic"]))],
        ["augment", *gr, *td, "--d", d, "-o", "aug"],
        ["quotient", *gr, "--part", "p.part", "-o", "q.gr"],
        ["bipartite-partition", *gr, *td, *budget, "-o", "o.part"],
        ["push-td", *gr, *td, "--part", "p.part", "-o", "pushed.td"],
        ["pipeline", *gr, *td, "--k", k, "--d", d, *budget, "-o", "pipe"],
        ["pullback", *gr, "--host", "h.gr", "--map", "m.map", "--host-td", "h.td",
         "--c", c, "-o", "pb.td"],
        ["qi-constant", *gr, "--host", "h.gr", "--map", "m.map", "--qmax", "8"],
        ["compose", *gr, "--mid", "h.gr", "--host", "g.gr", "--map1", "m.map",
         "--map2", "back.map", "--qmax", "8", "-o", "c.map"],
        ["simval", *gr, "--set", vertex_set],
        ["sim-to-td", *gr, "--bd", "b.bd", "-o", "s.td"],
        ["sim-pipeline", *gr, "--bd", "b.bd", *budget, "-o", "sp"],
        ["exact-tw", *gr, "-o", "w.td"],
        ["gen", "--family", family,
         *(arg for key, value in params.items() for arg in ("--param", f"{key}={value}")),
         "-o", "gen"],
    ]
    return [(command[0], flags + command) for command in commands]


@given(inputs(), runs())
@settings(max_examples=120, deadline=None)
def test_every_cli_input_gives_a_report_or_one_error_line(files, runs):
    assert sorted(name for name, _ in runs) == sorted(main.commands)
    assert sorted(GEN_PARAMS) == sorted(FAMILIES)
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in files.items():
            pathlib.Path(name).write_text(text)
        for name, args in runs:
            result = runner.invoke(main, args)
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise result.exception
            assert result.exit_code in (0, 1), (args, result.output)
            if result.output.startswith("Error: "):
                assert result.exit_code == 1, args
                assert result.output.count("\n") == 1, (args, result.output)
                assert result.output.endswith("\n")
            else:
                report = json.loads(result.output)
                assert report["operation"] == name
                assert report["ok"] is (result.exit_code == 0), args
