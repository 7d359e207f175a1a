"""Command-line interface for the solver library and benchmark harness."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import click
import numpy as np

from . import bench, cone as cone_mod, partition, problems, solvers, subproblem


def _problem(ctx, param, problem_id: str) -> problems.SetValuedProblem:
    """``--problem``'s callback: the registered problem; an unknown id is a usage error."""
    try:
        return problems.registry(problem_id)
    except problems.UnknownProblemError as exc:
        raise click.BadParameter(exc.args[0]) from exc


def _point(text: str, problem: problems.SetValuedProblem, hint: str) -> np.ndarray:
    """The point ``text`` names; outside ``problem``'s box, a usage error on ``hint``."""
    try:
        x = np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=hint) from exc
    lo, hi = problem.domain_box
    if x.shape != (problem.n,) or not np.all((lo <= x) & (x <= hi)):
        raise click.BadParameter(f"{problem.name} takes n = {problem.n} coordinates in the box "
                                 f"[{lo.tolist()}, {hi.tolist()}]", param_hint=hint)
    return x


def _resolve_cone(spec: str | None, problem, hint: str = "'--cone'") -> cone_mod.Cone:
    """The cone ``spec`` names (None: the orthant); a bad one is a usage error on ``hint``."""
    try:
        if spec is None:
            return cone_mod.orthant(problem.m)
        if os.path.exists(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                kone = cone_mod.Cone.from_json(fh.read())
        else:
            kone = cone_mod.preset(spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.BadParameter(f"{spec}: {exc}", param_hint=hint) from exc
    if kone.m != problem.m:
        raise click.BadParameter(f"{spec} is a cone in R^{kone.m}, but {problem.name} "
                                 f"maps into R^{problem.m}", param_hint=hint)
    return kone


def _read_config(path: str, build):
    """``build`` applied to the text of the file at ``path``; a config it
    rejects is a usage error on ``--config``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return build(text)
    except (TypeError, ValueError) as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


@click.group()
def main():
    """Solvers and benchmarks for set optimization with finite families."""


@main.command("list-problems")
def list_problems():
    """Print metadata of every registered problem instance as JSON."""
    meta = [problems.registry(pid).metadata() for pid in problems.problem_ids()]
    click.echo(json.dumps(meta, indent=2))


@main.command()
@click.option("--problem", required=True, callback=_problem)
@click.option("--point", required=True, help="coordinates, e.g. '0.1,0.2'")
@click.option("--cone", "cone_spec", default=None, help="preset name or JSON file")
def inspect(problem, point, cone_spec):
    """Weakly minimal structure at a point: omega, groups, partition size."""
    kone = _resolve_cone(cone_spec, problem)
    x = _point(point, problem, "'--point'")
    structure = partition.structure_from_values(problem.eval_all(x), kone)
    click.echo(json.dumps({
        "omega": len(structure.groups),
        "groups": [list(g) for g in structure.groups],
        "partition_size": structure.partition_count(),
    }, indent=2))


@main.command()
@click.option("--problem", required=True, callback=_problem)
@click.option("--point", required=True)
@click.option("--cone", "cone_spec", default=None)
@click.option("--radius", type=float, default=1.0, show_default=True)
def criticality(problem, point, cone_spec, radius):
    """Criticality value t*, winning tuple a*, and trial step s* at a point."""
    if not 0.0 < radius < math.inf:
        raise click.BadParameter(f"need a positive finite radius, got {radius!r}",
                                 param_hint="'--radius'")
    kone = _resolve_cone(cone_spec, problem)
    x = _point(point, problem, "'--point'")
    structure = partition.structure_from_values(problem.eval_all(x), kone)
    sol = subproblem.criticality_value(problem, kone, x, structure, radius=radius)
    click.echo(json.dumps({
        "t": sol.t_star,
        "a": list(sol.a_star),
        "s": sol.s_star.tolist(),
    }, indent=2))


@main.command()
@click.option("--problem", required=True, callback=_problem)
@click.option("--algo", type=click.Choice(solvers.VARIANTS), default="trm", show_default=True)
@click.option("--x0", required=True)
@click.option("--cone", "cone_spec", default=None)
@click.option("--config", "config_path", default=None, help="JSON file of SolverConfig fields")
@click.option("--trace", is_flag=True, help="stream per-iteration records as JSON lines")
def solve(problem, algo, x0, cone_spec, config_path, trace):
    """Run one solver from one point and print the result as JSON."""
    kone = _resolve_cone(cone_spec, problem)
    config = solvers.SolverConfig(variant=algo)
    if config_path:
        config = _read_config(
            config_path, lambda text: solvers.SolverConfig(variant=algo, **json.loads(text)))
    res = solvers.run(problem, kone, _point(x0, problem, "'--x0'"), config)
    if trace:
        for rec in res.trace:
            click.echo(json.dumps(dataclasses.asdict(rec), default=lambda arr: arr.tolist()))
    click.echo(json.dumps(res.summary(), indent=2))


@main.command("run")
@click.option("--config", "config_path", required=True, help="ExperimentConfig JSON")
@click.option("--out", "store_path", required=True, help="JSON-lines record store")
def run_experiment(config_path, store_path):
    """Fill the (problem x algorithm x point) record store; resumable."""
    config = _read_config(config_path, bench.ExperimentConfig.from_json)
    records = bench.run_matrix(config, store_path)
    click.echo(f"store has {len(records)} records at {store_path}")


@main.command()
@click.option("--store", "store_path", required=True)
@click.option("--config", "config_path", required=True)
@click.option("--csv", "csv_path", required=True)
def table(store_path, config_path, csv_path):
    """Aggregate the record store into a metrics table CSV."""
    config = _read_config(config_path, bench.ExperimentConfig.from_json)
    rows = bench.build_table(bench.load_records(store_path), config)
    bench.emit_table_csv(rows, csv_path)
    click.echo(f"wrote {csv_path}")


@main.command()
@click.option("--store", "store_path", required=True)
@click.option("--config", "config_path", required=True)
@click.option("--metric", type=click.Choice(bench.METRICS), required=True)
@click.option("--svg", "svg_path", required=True)
def profile(store_path, config_path, metric, svg_path):
    """Performance-profile staircase plot for one metric."""
    config = _read_config(config_path, bench.ExperimentConfig.from_json)
    curves = bench.profile(bench.load_records(store_path), metric, config)
    bench.emit_profile_svg(curves, metric, svg_path)
    click.echo(f"wrote {svg_path}")


@main.command("cone-experiment")
@click.option("--problem", required=True, callback=_problem)
@click.option("--x0", required=True)
@click.option("--cones", default="orthant:2,k2prime", show_default=True,
              help="comma-separated cone presets")
@click.option("--out", "out_path", required=True, help="output JSON path")
@click.option("--it-max", type=click.IntRange(min=1), default=100, show_default=True)
def cone_experiment(problem, x0, cones, out_path, it_max):
    """Compare the non-monotone variants under different ordering cones."""
    cone_map = {name: _resolve_cone(name, problem, "'--cones'") for name in cones.split(",")}
    if problem.m != 2:
        raise click.BadParameter(f"the cone experiment needs m = 2, but {problem.name} maps "
                                 f"into R^{problem.m}", param_hint="'--problem'")
    out = bench.cone_experiment(problem.name, _point(x0, problem, "'--x0'"), cone_map,
                                it_max=it_max)
    payload = {
        cone_name: {
            algo: {"summary": data["result"].summary(), "clouds": data["clouds"]}
            for algo, data in per_algo.items()
        }
        for cone_name, per_algo in out.items()
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
