"""Command line interface.

One subcommand per operation; every subcommand prints a JSON report and
exits nonzero exactly when some reported check failed. Global flags:
--seed for generators, --cap for the exact solvers, --shape to enforce a
decomposition shape when parsing .td files.

Input files are declared once: each subcommand names its input flags, and
`_command` reads every file once and parses it in flag order by its
`_INPUTS` entry, checked against the inputs before it (a .td against its
graph's vertex count, a map against both graphs, a partition against its
graph). Each file's digest is recorded under its name, or under its path
as given if that name already holds another digest.
"""

from __future__ import annotations

import functools
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
def main(seed, cap, shape):
    """Tree decompositions, quasi-isometries, and width-reducing pipelines."""
    click.get_current_context().obj = {"seed": seed, "cap": cap, "shape": shape}


def _flag(name):
    """A global flag's value: seed, cap or shape."""
    return click.get_current_context().obj[name]


def _cap(default=DEFAULT_CAP):
    """The user's --cap when given, otherwise the solver's own default."""
    return default if _flag("cap") is None else _flag("cap")


def _td(text, path, g, valid):
    td, host_n = fileio.parse_td(text, shape=_flag("shape"))
    if host_n != g.n:
        raise click.ClickException(
            f"{path}: decomposition is for {host_n} vertices, graph has {g.n}"
        )
    if valid:
        require_valid(g, td)
    return td


def _map(text, g, h):
    return QuasiIsometryMap(g, h, fileio.parse_map(text, n_source=g.n, n_target=h.n))


def _graph(text, **_):
    return fileio.parse_graph(text)


# Each input flag's parser. It gets the file's text and path, the command's
# own options, `valid` (validate a --td on load) and the inputs parsed
# before it, by name: graph, host, mid, td, map1, ...
_INPUTS = {
    "--graph": _graph,
    "--host": _graph,
    "--mid": _graph,
    "--td": lambda text, path, graph, valid, **_: _td(text, path, graph, valid),
    "--host-td": lambda text, path, host, **_: _td(text, path, host, False),
    "--map": lambda text, graph, host, **_: _map(text, graph, host),
    # compose measures its first map before it reads the second
    "--map1": lambda text, graph, mid, qmax, **_: measure(
        graph, mid, _map(text, graph, mid), qmax),
    "--map2": lambda text, mid, host, qmax, **_: measure(
        mid, host, _map(text, mid, host), qmax),
    "--part": lambda text, graph, **_: Partition(
        graph, fileio.parse_partition(text, n=graph.n)),
    "--bd": lambda text, **_: fileio.parse_bd(text),
}


def _read(report, path):
    """An input file's text, its digest recorded under the file's name (its
    path as given if that name holds another digest)."""
    text = pathlib.Path(path).read_text()
    sha = digest(text)
    if report.inputs.setdefault(pathlib.Path(path).name, sha) != sha:
        report.inputs[str(path)] = sha
    return text


def _command(name, *flags, optional=(), valid=False, check=None):
    """Register subcommand `name` reading the input files `flags`.

    Their options come first in --help, in flag order, each an existing
    path, required unless listed in `optional`. `check(options)` runs before
    any file is read, and `valid` has a --td validated where it is read. The
    command gets a Report, the parsed inputs in flag order (None for an
    optional one not given) and its own options; it returns nothing, or the
    output directory and the files to write there.
    """
    def decorate(f):
        for flag in reversed(flags):
            click.option(flag, required=flag not in optional,
                         type=click.Path(exists=True))(f)

        @functools.wraps(f)
        def run(**options):
            if check is not None:
                check(options)
            report, parsed = Report(name), {}
            for flag in flags:
                key = flag[2:].replace("-", "_")
                path = options.pop(key)
                parsed[key] = None if path is None else _INPUTS[flag](
                    _read(report, path), path=path, valid=valid, **options, **parsed)
            _finish(report, *(f(report, *parsed.values(), **options) or ()))

        return main.command(name)(run)
    return decorate


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


def _finish(report, outdir=None, artifacts=()):
    if outdir is not None:
        out = pathlib.Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            (out / name).write_text(text)
        (out / "report.json").write_text(report.to_json())
    click.echo(report.to_json(), nl=False)
    click.get_current_context().exit(0 if report.ok else 1)


def _parse_set(text):
    try:
        return sorted({int(tok) for tok in text.replace(",", " ").split()})
    except ValueError:
        raise click.ClickException(f"bad vertex set {text!r}") from None


@_command("validate-td", "--graph", "--td")
def validate_td_cmd(report, g, td):
    """Check a decomposition against its graph."""
    result = validate_decomposition(g, td)
    report.measured["width"] = td.width
    report.checks["valid"] = result.ok
    if not result.ok:
        report.details["violation"] = {
            "kind": result.kind,
            "witness": result.witness,
        }


@_command("metrics", "--graph", "--td", valid=True)
@click.option("--k", type=int, default=None, help="Centred pieces per bag.")
@click.option("--d", type=int, default=None, help="Centred piece diameter.")
def metrics_cmd(report, g, td, k, d):
    """Per-bag independence/domination numbers, optional centred verdicts."""
    report.parameters = {"k": k, "d": d}
    metrics = bag_metrics(g, td, cap=_cap())
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
        centred = centred_check_decomposition(g, td, k, d, cap=_cap())
        report.checks["centred"] = centred.all_centred is True


def _td_or_set(options):
    if (options["td"] is None) == (options["set_text"] is None):
        raise click.ClickException("pass exactly one of --td or --set")


@_command("centred-check", "--graph", "--td", optional=("--td",), valid=True,
          check=_td_or_set)
@click.option("--set", "set_text", default=None, help="Vertex set v1,v2,...")
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--mode", type=click.Choice(["exact", "heuristic"]), default="exact",
              show_default=True)
def centred_check_cmd(report, g, td, set_text, k, d, mode):
    """Check a vertex set (or every bag of a decomposition) for (k,d)-centredness."""
    report.parameters = {"k": k, "d": d, "mode": mode}
    if set_text is not None:
        members = _parse_set(set_text)
        result = centred_check(g, members, k, d, cap=_cap(), mode=mode)
        verdict = result.centred
        if result.parts is not None:
            report.details["witness"] = [sorted(p) for p in result.parts]
    else:
        result = centred_check_decomposition(g, td, k, d, cap=_cap(), mode=mode)
        verdict = result.all_centred
    report.measured["verdict"] = (
        "true" if verdict is True else "false" if verdict is False else "unknown"
    )
    report.checks["centred"] = verdict is True


@_command("augment", "--graph", "--td", valid=True)
@click.option("--d", type=int, required=True)
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
def augment_cmd(report, g, td, d, outdir):
    """Join bag-mates at distance <= d; writes h.gr, map.map, h.td."""
    report.parameters = {"d": d}
    h, phi = augment(g, td, d)
    report.measured["added_edges"] = h.m - g.m
    if phi.measured_q is not None:
        report.measured["identity_constant"] = phi.measured_q
        report.add_bound("identity_constant", "d", max(d, 1))
        report.checks["identity_constant_le_d"] = phi.measured_q <= max(d, 1)
    return outdir, _stage_files(h, td, phi)


@_command("quotient", "--graph", "--part")
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
def quotient_cmd(report, g, partition, out_path):
    """Contract the parts of a partition."""
    q = partition.quotient
    report.measured["parts"] = len(partition)
    report.measured["quotient_vertices"] = q.n
    report.measured["quotient_edges"] = q.m
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_graph(q))


@_command("bipartite-partition", "--graph", "--td", valid=True)
@click.option("--budget", type=int, default=None)
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
def bipartite_partition_cmd(report, g, td, budget, out_path):
    """Partition into connected parts with a bipartite quotient."""
    report.parameters = {"budget": budget}
    gamma = _bag_domination(g, td, _cap())
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


@_command("push-td", "--graph", "--td", "--part", valid=True)
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
def push_td_cmd(report, g, td, partition, out_path):
    """Push a decomposition through a contraction."""
    pushed = push_decomposition(td, partition)
    q = partition.quotient
    result = validate_decomposition(q, pushed)
    report.measured["width"] = pushed.width
    report.checks["valid"] = result.ok
    pathlib.Path(out_path).write_text(fileio.emit_td(pushed, q.n))


@_command("pipeline", "--graph", "--td")
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--budget", type=int, default=None)
@click.option("--skip-centred-check", is_flag=True,
              help="Check bag independence <= k instead of (k,d)-centredness.")
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
def pipeline_cmd(report, g, td, k, d, budget, skip_centred_check, outdir):
    """Full forward pipeline; writes h.gr, h.td, map.map, report.json."""
    report.parameters = {"k": k, "d": d, "budget": budget}
    result = run_pipeline(
        g, td, k, d,
        check_centred=not skip_centred_check,
        budget=budget,
        cap=_cap(),
    )
    summary = result.to_dict()
    report.top_level.update(summary)
    report.measured.update(
        (key, value) for key, value in summary.items() if key not in ("k", "d")
    )
    report.add_bound("width_out", "2k-1", 2 * k - 1)
    report.add_bound("claimed_bound", "(d+2)*F", result.claimed_bound)
    report.checks.update(result.checks)
    return outdir, _stage_files(
        result.final_graph, result.final_decomposition, result.final_map
    )


@_command("pullback", "--graph", "--host", "--map", "--host-td")
@click.option("--c", type=int, required=True)
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
def pullback_cmd(report, g, h, phi, td_h, c, out_path):
    """Pull a host decomposition back along a c-quasi-isometry.

    Each bag is the union of at most k+1 preimage balls, one per host bag
    member, so the (k+1, 3c^2)-centred check reads their diameters in one
    climb of the level masks; where the climb stops short of them, the
    exact per-bag check decides. A bag over --cap is refused first, as the
    exact check refuses it.
    """
    report.parameters = {"c": c}
    out, pieces = _pullback(g, h, phi, td_h, c)
    k, d, cap = td_h.width, 3 * c * c, _cap()
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


@_command("qi-constant", "--graph", "--host", "--map")
@click.option("--qmax", type=int, default=64, show_default=True)
def qi_constant_cmd(report, g, h, phi, qmax):
    """Minimal quasi-isometry constant of a vertex map."""
    report.parameters = {"qmax": qmax}
    report.measured["q"] = qi_constant(g, h, phi, qmax)
    report.checks["within_qmax"] = True


@_command("compose", "--graph", "--mid", "--host", "--map1", "--map2")
@click.option("--qmax", type=int, default=64, show_default=True,
              help="Budget for measuring the two input maps.")
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
def compose_cmd(report, g, mid, h, phi1, phi2, qmax, out_path):
    """Compose two maps; the result is a q(c+2)-quasi-isometry."""
    report.parameters = {"qmax": qmax}
    composed = compose(phi1, phi2)
    bound = phi2.measured_q * (phi1.measured_q + 2)
    report.measured["c"] = phi1.measured_q
    report.measured["q"] = phi2.measured_q
    report.measured["composed"] = composed.measured_q
    report.add_bound("composed", "q(c+2)", bound)
    report.checks["composed_le_bound"] = composed.measured_q <= bound
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_map(composed.mapping))


@_command("simval", "--graph")
@click.option("--set", "set_text", required=True, help="Vertex set v1,v2,...")
def simval_cmd(report, g, set_text):
    """Maximum induced matching across a vertex cut."""
    report.measured["simval"] = simval(g, _parse_set(set_text), cap=_cap(SIMVAL_CAP))


@_command("sim-to-td", "--graph", "--bd")
@click.option("-o", "--output", "out_path", required=True, type=click.Path())
def sim_to_td_cmd(report, g, bd, out_path):
    """Convert a branch decomposition to a tree decomposition."""
    k, td = _width_and_td(g, bd, _cap(SIMVAL_CAP))
    gamma = _bag_domination(g, td, _cap())
    valid = validate_decomposition(g, td)
    report.measured["branch_width"] = k
    report.measured["width"] = td.width
    report.measured["domination_number"] = gamma
    report.add_bound("domination_number", "6k", six_k(k))
    report.checks["valid"] = valid.ok
    report.checks["domination_le_6k"] = gamma <= six_k(k)
    pathlib.Path(out_path).write_text(fileio.emit_td(td, g.n))


@_command("sim-pipeline", "--graph", "--bd")
@click.option("--budget", type=int, default=None)
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
def sim_pipeline_cmd(report, g, bd, budget, outdir):
    """Run the sim-width pipeline; writes h.gr, h.td, map.map, report.json."""
    report.parameters = {"budget": budget}
    result = simwidth_pipeline(
        g, bd, cap=_cap(), simval_cap=_cap(SIMVAL_CAP), budget=budget
    )
    report.top_level.update(result.to_dict())
    report.measured.update(result.to_dict())
    report.add_bound("width_out", "12k-1", 2 * result.centred_k - 1)
    report.add_bound("bag_domination", "6k", six_k(result.branch_width))
    report.add_bound("centred_k", "6k", result.centred_k)
    report.checks.update(result.checks)
    p = result.pipeline
    return outdir, _stage_files(p.final_graph, p.final_decomposition, p.final_map)


@_command("exact-tw", "--graph")
@click.option("-o", "--output", "out_path", default=None, type=click.Path())
def exact_tw_cmd(report, g, out_path):
    """Exact treewidth with a witness decomposition."""
    tw, witness = exact_treewidth(g, cap=_cap(TREEWIDTH_CAP))
    valid = validate_decomposition(g, witness)
    report.measured["treewidth"] = tw
    report.measured["witness_width"] = witness.width
    report.checks["witness_valid"] = valid.ok
    report.checks["witness_width_matches"] = witness.width == tw
    if out_path is not None:
        pathlib.Path(out_path).write_text(fileio.emit_td(witness, g.n))


@_command("gen")
@click.option("--family", required=True, type=click.Choice(list(FAMILIES)))
@click.option("--param", "params", multiple=True, help="key=value, repeatable.")
@click.option("-o", "--output", "outdir", required=True, type=click.Path())
def gen_cmd(report, family, params, outdir):
    """Generate a corpus instance; deterministic under --seed."""
    kv = {}
    for item in params:
        if "=" not in item:
            raise click.ClickException(f"bad --param {item!r}, expected key=value")
        key, value = item.split("=", 1)
        kv[key] = value
    report.parameters = {"family": family, **kv, "seed": _flag("seed")}
    instance = generate_corpus(family, kv, seed=_flag("seed"))
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
    return outdir, artifacts


if __name__ == "__main__":
    main()
