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
    require_valid,
    validate_decomposition,
)
from .errors import CoarseTDError
from .exact import exact_treewidth
from .pipeline import (
    Partition,
    augment,
    bipartite_partition,
    push_decomposition,
    quotient,
    run_pipeline,
)
from .quasiiso import QuasiIsometryMap, compose, measure, qi_constant
from .report import Report, digest
from .simwidth import branch_width_sim, sim_to_td, simval, simwidth_pipeline
from .generators import FAMILIES, generate_corpus


class _Ctx:
    def __init__(self, seed, cap, shape):
        self.seed = seed
        self.cap_explicit = cap is not None
        self.cap = cap if cap is not None else 20
        self.shape = shape

    def cap_or(self, default):
        """The user's cap when given explicitly, otherwise a local default."""
        return self.cap if self.cap_explicit else default


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized generators.")
@click.option("--cap", type=int, default=None,
              help="Size cap for the exact solvers.  [default: 20; treewidth 16]")
@click.option("--shape", type=click.Choice(["tree", "path"]), default="tree",
              show_default=True, help="Shape to enforce when parsing .td files.")
@click.pass_context
def main(ctx, seed, cap, shape):
    """Tree decompositions, quasi-isometries, and width-reducing pipelines."""
    ctx.obj = _Ctx(seed, cap, shape)


def _read(path):
    return pathlib.Path(path).read_text()


def _load_graph(path, report):
    text = _read(path)
    report.inputs[pathlib.Path(path).name] = digest(text)
    return fileio.parse_graph(text)


def _load_td(path, report, shape, host):
    text = _read(path)
    report.inputs[pathlib.Path(path).name] = digest(text)
    td, host_n = fileio.parse_td(text, shape=shape)
    if host is not None and host_n != host.n:
        raise click.ClickException(
            f"{path}: decomposition is for {host_n} vertices, graph has {host.n}"
        )
    return td


def _load_map(path, report, g, h):
    text = _read(path)
    report.inputs[pathlib.Path(path).name] = digest(text)
    mapping = fileio.parse_map(text, n_source=g.n, n_target=h.n)
    return QuasiIsometryMap(g, h, mapping)


def _finish(ctx, report, outdir=None, artifacts=()):
    if outdir is not None:
        out = pathlib.Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            (out / name).write_text(text)
        (out / "report.json").write_text(report.to_json())
    click.echo(report.to_json(), nl=False)
    ctx.exit(0 if report.ok else 1)


def _wrap(fn):
    """Convert package errors and rejected arguments into clean CLI failures."""

    def runner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CoarseTDError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc

    runner.__name__ = fn.__name__
    runner.__doc__ = fn.__doc__
    return runner


def _parse_set(text):
    try:
        return sorted({int(tok) for tok in text.replace(",", " ").split()})
    except ValueError:
        raise click.ClickException(f"bad vertex set {text!r}") from None


@main.command("validate-td")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.pass_context
@_wrap
def validate_td_cmd(ctx, graph_path, td_path):
    """Check a decomposition against its graph."""
    report = Report("validate-td")
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    result = validate_decomposition(g, td)
    report.measured["width"] = td.width
    report.checks["valid"] = result.ok
    if not result.ok:
        report.details["violation"] = {
            "kind": result.kind,
            "witness": list(result.witness)
            if isinstance(result.witness, tuple)
            else result.witness,
        }
    _finish(ctx, report)


@main.command("metrics")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=None, help="Centred pieces per bag.")
@click.option("--d", type=int, default=None, help="Centred piece diameter.")
@click.pass_context
@_wrap
def metrics_cmd(ctx, graph_path, td_path, k, d):
    """Per-bag independence/domination numbers, optional centred verdicts."""
    report = Report("metrics", parameters={"k": k, "d": d})
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    metrics = bag_metrics(g, td, k=k, d=d, cap=ctx.obj.cap)
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
    if metrics.all_centred is not None:
        report.checks["centred"] = metrics.all_centred is True
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
@_wrap
def centred_check_cmd(ctx, graph_path, td_path, set_text, k, d, mode):
    """Check a vertex set (or every bag of a decomposition) for (k,d)-centredness."""
    if (td_path is None) == (set_text is None):
        raise click.ClickException("pass exactly one of --td or --set")
    report = Report("centred-check", parameters={"k": k, "d": d, "mode": mode})
    g = _load_graph(graph_path, report)
    if set_text is not None:
        result = centred_check(g, _parse_set(set_text), k, d, cap=ctx.obj.cap, mode=mode)
        verdict = result.centred
        if result.parts is not None:
            report.details["witness"] = [sorted(p) for p in result.parts]
    else:
        td = _load_td(td_path, report, ctx.obj.shape, g)
        result = centred_check_decomposition(g, td, k, d, cap=ctx.obj.cap, mode=mode)
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
@_wrap
def augment_cmd(ctx, graph_path, td_path, d, outdir):
    """Join bag-mates at distance <= d; writes h.gr, map.map, h.td."""
    report = Report("augment", parameters={"d": d})
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    require_valid(g, td)
    h, phi, _ = augment(g, td, d)
    report.measured["added_edges"] = h.m - g.m
    if phi.measured_q is not None:
        report.measured["identity_constant"] = phi.measured_q
        report.add_bound("identity_constant", "d", max(d, 1))
        report.checks["identity_constant_le_d"] = phi.measured_q <= max(d, 1)
    artifacts = [
        ("h.gr", fileio.emit_graph(h)),
        ("h.td", fileio.emit_td(td, h.n)),
        ("map.map", fileio.emit_map(phi.mapping)),
    ]
    _finish(ctx, report, outdir, artifacts)


@main.command("quotient")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--part", "part_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
@_wrap
def quotient_cmd(ctx, graph_path, part_path, out_path):
    """Contract the parts of a partition."""
    report = Report("quotient")
    g = _load_graph(graph_path, report)
    text = _read(part_path)
    report.inputs[pathlib.Path(part_path).name] = digest(text)
    partition = Partition(g, fileio.parse_partition(text, n=g.n))
    q = quotient(g, partition)
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
@_wrap
def bipartite_partition_cmd(ctx, graph_path, td_path, budget, out_path):
    """Partition into connected parts with a bipartite quotient."""
    report = Report("bipartite-partition", parameters={"budget": budget})
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    require_valid(g, td)
    metrics = bag_metrics(g, td, cap=ctx.obj.cap)
    result = bipartite_partition(g, budget=budget)
    report.measured["max_diameter"] = result.max_diameter
    report.measured["domination_number"] = metrics.domination_number
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
@_wrap
def push_td_cmd(ctx, graph_path, td_path, part_path, out_path):
    """Push a decomposition through a contraction."""
    report = Report("push-td")
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    text = _read(part_path)
    report.inputs[pathlib.Path(part_path).name] = digest(text)
    partition = Partition(g, fileio.parse_partition(text, n=g.n))
    pushed = push_decomposition(g, td, partition)
    q = quotient(g, partition)
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
              help="Waive the (k,d)-centred precondition check.")
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
@_wrap
def pipeline_cmd(ctx, graph_path, td_path, k, d, budget, skip_centred_check, outdir):
    """Full forward pipeline; writes h.gr, h.td, map.map, report.json."""
    report = Report("pipeline", parameters={"k": k, "d": d, "budget": budget})
    g = _load_graph(graph_path, report)
    td = _load_td(td_path, report, ctx.obj.shape, g)
    result = run_pipeline(
        g, td, k, d,
        check_centred=not skip_centred_check,
        budget=budget,
        cap=ctx.obj.cap,
    )
    report.top_level.update(result.to_dict())
    for key, value in result.to_dict().items():
        if key in ("k", "d"):
            continue
        report.measured[key] = value
    report.add_bound("width_out", "2k-1", 2 * k - 1)
    report.add_bound("claimed_bound", "(d+2)*F", result.claimed_bound)
    report.checks.update(result.checks)
    artifacts = [
        ("h.gr", fileio.emit_graph(result.final_graph)),
        ("h.td", fileio.emit_td(result.final_decomposition, result.final_graph.n)),
        ("map.map", fileio.emit_map(result.final_map.mapping)),
    ]
    _finish(ctx, report, outdir, artifacts)


@main.command("pullback")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--host", "host_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--host-td", "td_path", required=True, type=click.Path(exists=True))
@click.option("--c", type=int, required=True)
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
@click.pass_context
@_wrap
def pullback_cmd(ctx, graph_path, host_path, map_path, td_path, c, out_path):
    """Pull a host decomposition back along a c-quasi-isometry."""
    from .quasiiso import pullback_decomposition

    report = Report("pullback", parameters={"c": c})
    g = _load_graph(graph_path, report)
    h = _load_graph(host_path, report)
    phi = _load_map(map_path, report, g, h)
    td_h = _load_td(td_path, report, ctx.obj.shape, h)
    out = pullback_decomposition(g, h, phi, td_h, c)
    k = td_h.width
    centred = centred_check_decomposition(
        g, out, k + 1, 3 * c * c, cap=ctx.obj.cap, mode="exact"
    )
    valid = validate_decomposition(g, out)
    report.measured["width_host"] = k
    report.measured["width_out"] = out.width
    report.add_bound("centred_pieces", "k+1", k + 1)
    report.add_bound("centred_diameter", "3c^2", 3 * c * c)
    report.checks["valid"] = valid.ok
    report.checks["centred"] = centred.all_centred is True
    pathlib.Path(out_path).write_text(fileio.emit_td(out, g.n))
    _finish(ctx, report)


@main.command("qi-constant")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--host", "host_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--qmax", type=int, default=64, show_default=True)
@click.pass_context
@_wrap
def qi_constant_cmd(ctx, graph_path, host_path, map_path, qmax):
    """Minimal quasi-isometry constant of a vertex map."""
    report = Report("qi-constant", parameters={"qmax": qmax})
    g = _load_graph(graph_path, report)
    h = _load_graph(host_path, report)
    phi = _load_map(map_path, report, g, h)
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
@_wrap
def compose_cmd(ctx, graph_path, mid_path, host_path, map1_path, map2_path, qmax,
                out_path):
    """Compose two maps; the result is a q(c+2)-quasi-isometry."""
    report = Report("compose", parameters={"qmax": qmax})
    g = _load_graph(graph_path, report)
    mid = _load_graph(mid_path, report)
    h = _load_graph(host_path, report)
    phi1 = measure(g, mid, _load_map(map1_path, report, g, mid), qmax)
    phi2 = measure(mid, h, _load_map(map2_path, report, mid, h), qmax)
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
@_wrap
def simval_cmd(ctx, graph_path, set_text):
    """Maximum induced matching across a vertex cut."""
    report = Report("simval")
    g = _load_graph(graph_path, report)
    value = simval(g, _parse_set(set_text), cap=ctx.obj.cap_or(32))
    report.measured["simval"] = value
    _finish(ctx, report)


@main.command("sim-to-td")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--bd", "bd_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
@click.pass_context
@_wrap
def sim_to_td_cmd(ctx, graph_path, bd_path, out_path):
    """Convert a branch decomposition to a tree decomposition."""
    report = Report("sim-to-td")
    g = _load_graph(graph_path, report)
    text = _read(bd_path)
    report.inputs[pathlib.Path(bd_path).name] = digest(text)
    bd = fileio.parse_bd(text)
    k = branch_width_sim(g, bd, cap=ctx.obj.cap_or(32))
    td = sim_to_td(g, bd)
    metrics = bag_metrics(g, td, cap=ctx.obj.cap)
    valid = validate_decomposition(g, td)
    report.measured["branch_width"] = k
    report.measured["width"] = td.width
    report.measured["domination_number"] = metrics.domination_number
    report.add_bound("domination_number", "6k", 6 * k)
    report.checks["valid"] = valid.ok
    report.checks["domination_le_6k"] = (
        metrics.domination_number <= max(6 * k, 1)
    )
    pathlib.Path(out_path).write_text(fileio.emit_td(td, g.n))
    _finish(ctx, report)


@main.command("sim-pipeline")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--bd", "bd_path", required=True, type=click.Path(exists=True))
@click.option("--budget", type=int, default=None)
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
@click.pass_context
@_wrap
def sim_pipeline_cmd(ctx, graph_path, bd_path, budget, outdir):
    """Run the sim-width pipeline; writes h.gr, h.td, map.map, report.json."""
    report = Report("sim-pipeline", parameters={"budget": budget})
    g = _load_graph(graph_path, report)
    text = _read(bd_path)
    report.inputs[pathlib.Path(bd_path).name] = digest(text)
    bd = fileio.parse_bd(text)
    result = simwidth_pipeline(
        g, bd, cap=ctx.obj.cap, simval_cap=ctx.obj.cap_or(32), budget=budget
    )
    report.top_level.update(result.to_dict())
    for key, value in result.to_dict().items():
        report.measured[key] = value
    report.add_bound("width_out", "12k-1", 12 * result.branch_width - 1)
    report.add_bound("bag_domination", "6k", 6 * result.branch_width)
    report.add_bound("centred_k", "6k", result.centred_k)
    report.checks.update(result.checks)
    pipeline = result.pipeline
    artifacts = [
        ("h.gr", fileio.emit_graph(pipeline.final_graph)),
        ("h.td", fileio.emit_td(pipeline.final_decomposition,
                                pipeline.final_graph.n)),
        ("map.map", fileio.emit_map(pipeline.final_map.mapping)),
    ]
    _finish(ctx, report, outdir, artifacts)


@main.command("exact-tw")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
@click.pass_context
@_wrap
def exact_tw_cmd(ctx, graph_path, out_path):
    """Exact treewidth with a witness decomposition."""
    report = Report("exact-tw")
    g = _load_graph(graph_path, report)
    tw, witness = exact_treewidth(g, cap=ctx.obj.cap_or(16))
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
@_wrap
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
