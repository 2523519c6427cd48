"""Command line interface.

One subcommand per operation; every subcommand prints a JSON report and
exits nonzero exactly when some reported check failed. Global flags:
--seed for generators, --cap for the exact solvers, --shape to enforce a
decomposition shape when parsing .td files.
"""

from __future__ import annotations

import pathlib

import click

from . import fileio
from .decomposition import (
    bag_metrics,
    centred_check,
    centred_check_decomposition,
    each_bag,
    require_valid,
    validate_decomposition,
)
from .errors import CoarseTDError
from .exact import (
    DEFAULT_CAP,
    TREEWIDTH_CAP,
    _check_cap,
    bag_masks,
    dominating_mask,
    exact_treewidth,
)
from .graph import _climb
from .pipeline import (
    Partition,
    augment,
    bipartite_partition,
    push_decomposition,
    run_pipeline,
)
from .quasiiso import QuasiIsometryMap, _pullback, compose, measure, qi_constant
from .report import Report, digest
from .simwidth import (
    SIMVAL_CAP,
    _width_and_td,
    simval,
    simwidth_pipeline,
    six_k,
)
from .generators import FAMILIES, generate_corpus


class _Ctx:
    def __init__(self, seed, cap, shape):
        self.seed = seed
        self.shape = shape
        self._cap = cap

    def cap(self, default=DEFAULT_CAP):
        """The user's --cap when given, otherwise the solver's own default."""
        return default if self._cap is None else self._cap


class _Group(click.Group):
    """Turns package errors, rejected arguments, unreadable or unwritable
    paths and exhausted memory into clean CLI failures: an `Error:` line and
    exit 1 (a `.gr` header may declare more vertices than memory holds)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click exits quietly on a closed stdout
        except (CoarseTDError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:
            raise click.ClickException("out of memory") from exc


@click.group(cls=_Group)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized generators.")
@click.option("--cap", type=int, default=None,
              help=f"Size cap for the exact solvers.  [default: {DEFAULT_CAP}; "
                   f"sim-width cuts {SIMVAL_CAP}; treewidth {TREEWIDTH_CAP}]")
@click.option("--shape", type=click.Choice(["tree", "path"]), default="tree",
              show_default=True, help="Shape to enforce when parsing .td files.")
@click.pass_context
def main(ctx, seed, cap, shape):
    """Tree decompositions, quasi-isometries, and width-reducing pipelines."""
    ctx.obj = _Ctx(seed, cap, shape)


def _load(report, path, parse, **kw):
    """Read an input file, record its digest in the report under its name
    (its path as given if that name holds another digest), and parse it."""
    text = pathlib.Path(path).read_text()
    sha = digest(text)
    if report.inputs.setdefault(pathlib.Path(path).name, sha) != sha:
        report.inputs[str(path)] = sha
    return parse(text, **kw)


def _load_td(report, path, shape, host):
    td, host_n = _load(report, path, fileio.parse_td, shape=shape)
    if host_n != host.n:
        raise click.ClickException(
            f"{path}: decomposition is for {host_n} vertices, graph has {host.n}"
        )
    return td


def _load_map(report, path, g, h):
    mapping = _load(report, path, fileio.parse_map, n_source=g.n, n_target=h.n)
    return QuasiIsometryMap(g, h, mapping)


def _bag_domination(g, td, cap):
    """The largest exact domination number of a bag of td."""
    per_bag = each_bag(
        td, lambda bag: dominating_mask(bag_masks(g, bag, cap)).bit_count()
    )
    return max(per_bag.values(), default=0)


def _stage_files(h, td, phi):
    """The h.gr, h.td and map.map of a stage or pipeline ending at h."""
    return [
        ("h.gr", fileio.emit_graph(h)),
        ("h.td", fileio.emit_td(td, h.n)),
        ("map.map", fileio.emit_map(phi.mapping)),
    ]


def _finish(ctx, report, outdir=None, artifacts=()):
    if outdir is not None:
        out = pathlib.Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            (out / name).write_text(text)
        (out / "report.json").write_text(report.to_json())
    click.echo(report.to_json(), nl=False)
    ctx.exit(0 if report.ok else 1)


def _parse_set(text):
    try:
        return sorted({int(tok) for tok in text.replace(",", " ").split()})
    except ValueError:
        raise click.ClickException(f"bad vertex set {text!r}") from None


@main.command("validate-td")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.pass_context
def validate_td_cmd(ctx, graph_path, td_path):
    """Check a decomposition against its graph."""
    report = Report("validate-td")
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    result = validate_decomposition(g, td)
    report.measured["width"] = td.width
    report.checks["valid"] = result.ok
    if not result.ok:
        report.details["violation"] = {
            "kind": result.kind,
            "witness": result.witness,
        }
    _finish(ctx, report)


@main.command("metrics")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=None, help="Centred pieces per bag.")
@click.option("--d", type=int, default=None, help="Centred piece diameter.")
@click.pass_context
def metrics_cmd(ctx, graph_path, td_path, k, d):
    """Per-bag independence/domination numbers, optional centred verdicts."""
    report = Report("metrics", parameters={"k": k, "d": d})
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    require_valid(g, td)
    metrics = bag_metrics(g, td, cap=ctx.obj.cap())
    report.measured["width"] = td.width
    report.measured["independence_number"] = metrics.independence_number
    report.measured["domination_number"] = metrics.domination_number
    report.details["per_bag"] = {
        str(t): {
            "size": s.size,
            "independence": s.independence_number,
            "domination": s.domination_number,
        }
        for t, s in metrics.per_bag.items()
    }
    report.checks["domination_le_independence"] = (
        metrics.domination_number <= metrics.independence_number
    )
    if k is not None and d is not None:
        centred = centred_check_decomposition(g, td, k, d, cap=ctx.obj.cap())
        report.checks["centred"] = centred.all_centred is True
    _finish(ctx, report)


@main.command("centred-check")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", type=click.Path(exists=True), default=None)
@click.option("--set", "set_text", default=None, help="Vertex set v1,v2,...")
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--mode", type=click.Choice(["exact", "heuristic"]), default="exact",
              show_default=True)
@click.pass_context
def centred_check_cmd(ctx, graph_path, td_path, set_text, k, d, mode):
    """Check a vertex set (or every bag of a decomposition) for (k,d)-centredness."""
    if (td_path is None) == (set_text is None):
        raise click.ClickException("pass exactly one of --td or --set")
    report = Report("centred-check", parameters={"k": k, "d": d, "mode": mode})
    g = _load(report, graph_path, fileio.parse_graph)
    if set_text is not None:
        members = _parse_set(set_text)
        result = centred_check(g, members, k, d, cap=ctx.obj.cap(), mode=mode)
        verdict = result.centred
        if result.parts is not None:
            report.details["witness"] = [sorted(p) for p in result.parts]
    else:
        td = _load_td(report, td_path, ctx.obj.shape, g)
        require_valid(g, td)
        result = centred_check_decomposition(g, td, k, d, cap=ctx.obj.cap(), mode=mode)
        verdict = result.all_centred
    report.measured["verdict"] = (
        "true" if verdict is True else "false" if verdict is False else "unknown"
    )
    report.checks["centred"] = verdict is True
    _finish(ctx, report)


@main.command("augment")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--d", type=int, required=True)
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
def augment_cmd(ctx, graph_path, td_path, d, outdir):
    """Join bag-mates at distance <= d; writes h.gr, map.map, h.td."""
    report = Report("augment", parameters={"d": d})
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    require_valid(g, td)
    h, phi = augment(g, td, d)
    report.measured["added_edges"] = h.m - g.m
    if phi.measured_q is not None:
        report.measured["identity_constant"] = phi.measured_q
        report.add_bound("identity_constant", "d", max(d, 1))
        report.checks["identity_constant_le_d"] = phi.measured_q <= max(d, 1)
    _finish(ctx, report, outdir, _stage_files(h, td, phi))


@main.command("quotient")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--part", "part_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
def quotient_cmd(ctx, graph_path, part_path, out_path):
    """Contract the parts of a partition."""
    report = Report("quotient")
    g = _load(report, graph_path, fileio.parse_graph)
    partition = Partition(g, _load(report, part_path, fileio.parse_partition, n=g.n))
    q = partition.quotient
    report.measured["parts"] = len(partition)
    report.measured["quotient_vertices"] = q.n
    report.measured["quotient_edges"] = q.m
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_graph(q))
    _finish(ctx, report)


@main.command("bipartite-partition")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--budget", type=int, default=None)
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
def bipartite_partition_cmd(ctx, graph_path, td_path, budget, out_path):
    """Partition into connected parts with a bipartite quotient."""
    report = Report("bipartite-partition", parameters={"budget": budget})
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    require_valid(g, td)
    gamma = _bag_domination(g, td, ctx.obj.cap())
    result = bipartite_partition(g, budget=budget)
    report.measured["max_diameter"] = result.max_diameter
    report.measured["domination_number"] = gamma
    report.measured["parts"] = len(result.partition)
    report.measured["method"] = result.method
    report.checks["quotient_bipartite"] = True
    report.checks["parts_connected"] = True
    if out_path is not None:
        pathlib.Path(out_path).write_text(
            fileio.emit_partition([sorted(p) for p in result.partition.parts])
        )
    _finish(ctx, report)


@main.command("push-td")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--part", "part_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
@click.pass_context
def push_td_cmd(ctx, graph_path, td_path, part_path, out_path):
    """Push a decomposition through a contraction."""
    report = Report("push-td")
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    require_valid(g, td)
    partition = Partition(g, _load(report, part_path, fileio.parse_partition, n=g.n))
    pushed = push_decomposition(td, partition)
    q = partition.quotient
    result = validate_decomposition(q, pushed)
    report.measured["width"] = pushed.width
    report.checks["valid"] = result.ok
    pathlib.Path(out_path).write_text(fileio.emit_td(pushed, q.n))
    _finish(ctx, report)


@main.command("pipeline")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--budget", type=int, default=None)
@click.option("--skip-centred-check", is_flag=True,
              help="Check bag independence <= k instead of (k,d)-centredness.")
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
def pipeline_cmd(ctx, graph_path, td_path, k, d, budget, skip_centred_check, outdir):
    """Full forward pipeline; writes h.gr, h.td, map.map, report.json."""
    report = Report("pipeline", parameters={"k": k, "d": d, "budget": budget})
    g = _load(report, graph_path, fileio.parse_graph)
    td = _load_td(report, td_path, ctx.obj.shape, g)
    result = run_pipeline(
        g, td, k, d,
        check_centred=not skip_centred_check,
        budget=budget,
        cap=ctx.obj.cap(),
    )
    summary = result.to_dict()
    report.top_level.update(summary)
    report.measured.update(
        (key, value) for key, value in summary.items() if key not in ("k", "d")
    )
    report.add_bound("width_out", "2k-1", 2 * k - 1)
    report.add_bound("claimed_bound", "(d+2)*F", result.claimed_bound)
    report.checks.update(result.checks)
    _finish(ctx, report, outdir, _stage_files(
        result.final_graph, result.final_decomposition, result.final_map
    ))


@main.command("pullback")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--host", "host_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--host-td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--c", type=int, required=True)
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
@click.pass_context
def pullback_cmd(ctx, graph_path, host_path, map_path, td_path, c, out_path):
    """Pull a host decomposition back along a c-quasi-isometry.

    Each bag is the union of at most k+1 preimage balls, one per host bag
    member, so the (k+1, 3c^2)-centred check reads their diameters in one
    climb of the level masks; where the climb stops short of them, the
    exact per-bag check decides. A bag over --cap is refused first, as the
    exact check refuses it.
    """
    report = Report("pullback", parameters={"c": c})
    g = _load(report, graph_path, fileio.parse_graph)
    h = _load(report, host_path, fileio.parse_graph)
    phi = _load_map(report, map_path, g, h)
    td_h = _load_td(report, td_path, ctx.obj.shape, h)
    out, pieces = _pullback(g, h, phi, td_h, c)
    k, d, cap = td_h.width, 3 * c * c, ctx.obj.cap()
    # the first bag over the cap is refused as the exact check refuses it
    each_bag(out, lambda bag: _check_cap(len(bag), cap, "bag"))
    # a bag is the union of its host bag's <= k + 1 pieces, so pieces within
    # d settle it (g is connected, so a climb that is done ends within d);
    # where the climb stops short, the exact check decides
    centred = _climb(g, pieces.values(), d)[1] or centred_check_decomposition(
        g, out, k + 1, d, cap=cap, mode="exact"
    ).all_centred is True
    valid = validate_decomposition(g, out)
    report.measured["width_host"] = k
    report.measured["width_out"] = out.width
    report.add_bound("centred_pieces", "k+1", k + 1)
    report.add_bound("centred_diameter", "3c^2", d)
    report.checks["valid"] = valid.ok
    report.checks["centred"] = centred
    pathlib.Path(out_path).write_text(fileio.emit_td(out, g.n))
    _finish(ctx, report)


@main.command("qi-constant")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--host", "host_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--qmax", type=int, default=64, show_default=True)
@click.pass_context
def qi_constant_cmd(ctx, graph_path, host_path, map_path, qmax):
    """Minimal quasi-isometry constant of a vertex map."""
    report = Report("qi-constant", parameters={"qmax": qmax})
    g = _load(report, graph_path, fileio.parse_graph)
    h = _load(report, host_path, fileio.parse_graph)
    phi = _load_map(report, map_path, g, h)
    q = qi_constant(g, h, phi, qmax)
    report.measured["q"] = q
    report.checks["within_qmax"] = True
    _finish(ctx, report)


@main.command("compose")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--mid", "mid_path", required=True, type=click.Path(exists=True))
@click.option("--host", "host_path", required=True, type=click.Path(exists=True))
@click.option("--map1", "map1_path", required=True, type=click.Path(exists=True))
@click.option("--map2", "map2_path", required=True, type=click.Path(exists=True))
@click.option("--qmax", type=int, default=64, show_default=True,
              help="Budget for measuring the two input maps.")
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
def compose_cmd(ctx, graph_path, mid_path, host_path, map1_path, map2_path, qmax,
                out_path):
    """Compose two maps; the result is a q(c+2)-quasi-isometry."""
    report = Report("compose", parameters={"qmax": qmax})
    g = _load(report, graph_path, fileio.parse_graph)
    mid = _load(report, mid_path, fileio.parse_graph)
    h = _load(report, host_path, fileio.parse_graph)
    phi1 = measure(g, mid, _load_map(report, map1_path, g, mid), qmax)
    phi2 = measure(mid, h, _load_map(report, map2_path, mid, h), qmax)
    composed = compose(phi1, phi2)
    bound = phi2.measured_q * (phi1.measured_q + 2)
    report.measured["c"] = phi1.measured_q
    report.measured["q"] = phi2.measured_q
    report.measured["composed"] = composed.measured_q
    report.add_bound("composed", "q(c+2)", bound)
    report.checks["composed_le_bound"] = composed.measured_q <= bound
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_map(composed.mapping))
    _finish(ctx, report)


@main.command("simval")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--set", "set_text", required=True, help="Vertex set v1,v2,...")
@click.pass_context
def simval_cmd(ctx, graph_path, set_text):
    """Maximum induced matching across a vertex cut."""
    report = Report("simval")
    g = _load(report, graph_path, fileio.parse_graph)
    value = simval(g, _parse_set(set_text), cap=ctx.obj.cap(SIMVAL_CAP))
    report.measured["simval"] = value
    _finish(ctx, report)


@main.command("sim-to-td")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--bd", "bd_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
@click.pass_context
def sim_to_td_cmd(ctx, graph_path, bd_path, out_path):
    """Convert a branch decomposition to a tree decomposition."""
    report = Report("sim-to-td")
    g = _load(report, graph_path, fileio.parse_graph)
    bd = _load(report, bd_path, fileio.parse_bd)
    k, td = _width_and_td(g, bd, ctx.obj.cap(SIMVAL_CAP))
    gamma = _bag_domination(g, td, ctx.obj.cap())
    valid = validate_decomposition(g, td)
    report.measured["branch_width"] = k
    report.measured["width"] = td.width
    report.measured["domination_number"] = gamma
    report.add_bound("domination_number", "6k", six_k(k))
    report.checks["valid"] = valid.ok
    report.checks["domination_le_6k"] = gamma <= six_k(k)
    pathlib.Path(out_path).write_text(fileio.emit_td(td, g.n))
    _finish(ctx, report)


@main.command("sim-pipeline")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--bd", "bd_path", required=True, type=click.Path(exists=True))
@click.option("--budget", type=int, default=None)
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
def sim_pipeline_cmd(ctx, graph_path, bd_path, budget, outdir):
    """Run the sim-width pipeline; writes h.gr, h.td, map.map, report.json."""
    report = Report("sim-pipeline", parameters={"budget": budget})
    g = _load(report, graph_path, fileio.parse_graph)
    bd = _load(report, bd_path, fileio.parse_bd)
    result = simwidth_pipeline(
        g, bd, cap=ctx.obj.cap(), simval_cap=ctx.obj.cap(SIMVAL_CAP), budget=budget
    )
    report.top_level.update(result.to_dict())
    report.measured.update(result.to_dict())
    report.add_bound("width_out", "12k-1", 2 * result.centred_k - 1)
    report.add_bound("bag_domination", "6k", six_k(result.branch_width))
    report.add_bound("centred_k", "6k", result.centred_k)
    report.checks.update(result.checks)
    p = result.pipeline
    _finish(ctx, report, outdir, _stage_files(
        p.final_graph, p.final_decomposition, p.final_map
    ))


@main.command("exact-tw")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
def exact_tw_cmd(ctx, graph_path, out_path):
    """Exact treewidth with a witness decomposition."""
    report = Report("exact-tw")
    g = _load(report, graph_path, fileio.parse_graph)
    tw, witness = exact_treewidth(g, cap=ctx.obj.cap(TREEWIDTH_CAP))
    valid = validate_decomposition(g, witness)
    report.measured["treewidth"] = tw
    report.measured["witness_width"] = witness.width
    report.checks["witness_valid"] = valid.ok
    report.checks["witness_width_matches"] = witness.width == tw
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_td(witness, g.n))
    _finish(ctx, report)


@main.command("gen")
@click.option("--family", required=True, type=click.Choice(list(FAMILIES)))
@click.option("--param", "params", multiple=True, help="key=value, repeatable.")
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
def gen_cmd(ctx, family, params, outdir):
    """Generate a corpus instance; deterministic under --seed."""
    kv = {}
    for item in params:
        if "=" not in item:
            raise click.ClickException(f"bad --param {item!r}, expected key=value")
        key, value = item.split("=", 1)
        kv[key] = value
    report = Report("gen", parameters={"family": family, **kv,
                                       "seed": ctx.obj.seed})
    instance = generate_corpus(family, kv, seed=ctx.obj.seed)
    artifacts = [("g.gr", fileio.emit_graph(instance.graph))]
    if instance.decomposition is not None:
        artifacts.append(
            ("t.td", fileio.emit_td(instance.decomposition, instance.graph.n))
        )
    if instance.branch_decomposition is not None:
        artifacts.append(("b.bd", fileio.emit_bd(instance.branch_decomposition)))
    if instance.base_graph is not None:
        artifacts.append(("base.gr", fileio.emit_graph(instance.base_graph)))
    if instance.base_decomposition is not None:
        artifacts.append(
            ("base.td", fileio.emit_td(instance.base_decomposition,
                                       instance.base_graph.n))
        )
    if instance.qi_map is not None:
        artifacts.append(("m.map", fileio.emit_map(instance.qi_map.mapping)))
    report.measured["files"] = sorted(name for name, _ in artifacts)
    _finish(ctx, report, outdir, artifacts)


if __name__ == "__main__":
    main()
