"""Command-line interface.

    python -m repro run --protocol heap --distribution ms-691 --nodes 120
    python -m repro sweep --protocols heap,standard --num-seeds 8 --jobs 4
    python -m repro figure fig5 --scale quick --jobs 4
    python -m repro figure fig9 --scale full --jobs 8 --resume
    python -m repro table table3
    python -m repro ablation retransmission --jobs 4
    python -m repro extension freeriders
    python -m repro lint src/repro --format json
    python -m repro list
    python -m repro serve --port 8642 --checkpoint-dir .repro-service
    python -m repro submit --protocols heap --num-seeds 4 --wait
    python -m repro status j0001
    python -m repro watch j0001

Experiment parameters are declared once, as the fields of
:class:`repro.experiments.specs.SweepSpec`; this module declares none of
them.  ``sweep`` gets one flag per field (the field defaults are the
flag defaults) and runs the protocol×seed grid through the parallel
experiment engine (``--jobs N`` fans it out over N worker processes —
the aggregated output is byte-identical to ``--jobs 1``, only faster).
``run`` is the one-cell case of the same spec — ``--protocol`` and
``--seed`` pick the cell — and prints the headline metrics of that
single scenario.  ``submit`` carries the same flags with no defaults, so
only what the user set travels and the service fills in the rest from
the same table.  ``figure``/``table``/``ablation``/``extension``
regenerate an artifact registered in :mod:`repro.experiments.artifacts`
and print the same rows the benches archive; their parameters are
:class:`~repro.experiments.specs.RenderSpec`.

Execution flags — how to run, never what — are declared here, once, for
``sweep`` and the figure/table/ablation grids alike, and reach the
engine as keyword arguments of that one call (:func:`_execution`):
``--jobs`` (default for renders: the ``REPRO_JOBS`` environment
variable), ``--quiet``, and checkpointing of each finished (scenario,
seed) record to JSONL: ``--checkpoint PATH`` picks the file,
``--resume`` reloads finished cells after a kill (with a default path
derived from the command when ``--checkpoint`` is omitted).  ``--checkpoint-dir DIR``
instead derives the file inside DIR and adds housekeeping: a
fingerprint-mismatched (stale) checkpoint is garbage-collected rather
than fatal, and the spent checkpoint is deleted after a successful run.
``--csv PATH`` exports every record (``sweep``) or rendered row as CSV
for external plotting.  ``lint`` runs the determinism & shard-safety
static analyzer (:mod:`repro.lint`) over the given paths — CI gates on a
clean ``src/repro``.  ``serve`` runs the experiment service control
plane (:mod:`repro.service`): a resident HTTP/JSON job manager around
the same engine, with live SSE progress; ``submit``/``status``/``watch``
are its thin clients.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import run_scenario
from repro.experiments.artifacts import KINDS, artifact_ids, render
from repro.experiments.parallel import ProgressEvent
from repro.experiments.scales import _SCALES, current_scale
from repro.experiments.specs import (RenderSpec, SweepSpec, add_spec_arguments,
                                     spec_params)
from repro.metrics import (
    jitter_free_fraction_by_class,
    mean_lag_by_class,
    utilization_by_class,
)
from repro.metrics.lag import lag_cdf_jitter_free


def _cmd_run(args) -> int:
    try:
        spec = SweepSpec.from_params({
            **spec_params(args), "protocols": [args.protocol],
            "base_seed": args.seed, "num_seeds": 1})
        (config,) = spec.configs()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(config.with_(seed=args.seed))
    print(f"{args.protocol} | {spec.nodes} nodes | {spec.seconds:g}s stream | "
          f"{spec.distribution} | seed {args.seed}")
    print(f"events: {result.sim.events_executed:,}")
    # Window metrics over no window would read as a perfect stream.
    windowed = len(result.windows()) > 0
    if windowed:
        print("\njitter-free windows at 10s lag, by class:")
        for label, value in jitter_free_fraction_by_class(result, 10.0).items():
            print(f"  {label:>10}: {value:6.1f}%")
        print("\nmean jitter-free lag, by class:")
        for label, value in mean_lag_by_class(result).items():
            print(f"  {label:>10}: {value:6.2f}s")
    else:
        print(f"\nno complete window: {result.total_packets} of the "
              f"{config.stream.packets_per_window} packets a window needs "
              f"were published")
    print("\nuplink utilization, by class:")
    for label, value in utilization_by_class(result).items():
        print(f"  {label:>10}: {value:6.1f}%")
    cdf = lag_cdf_jitter_free(result)
    if windowed and cdf.finite_fraction() > 0.5:
        print("\nlag percentiles (jitter-free): "
              + ", ".join(f"p{int(q * 100)}={cdf.percentile(q):.2f}s"
                          for q in (0.5, 0.75, 0.9)))
    if result.freerider_ids:
        from repro.freeriders.analysis import convictions, detection_accuracy
        convicted = convictions(result)
        accuracy = detection_accuracy(result, convicted)
        print(f"\nfreeriders: {len(result.freerider_ids)} planted, "
              f"{len(convicted)} convicted "
              f"(precision {accuracy.precision:.2f}, "
              f"recall {accuracy.recall:.2f})")
    if result.attackers:
        from repro.adversary import attack_impact
        impact = attack_impact(result)
        planted = ", ".join(f"{name} x{n}" for name, n
                            in impact["attackers"]["by_attack"].items())
        cost = impact["attacker_cost"]
        print(f"\nattack impact ({planted}):")
        print(f"  delivery: honest {impact['honest']['delivery_pct']:6.1f}% | "
              f"attacked {impact['attacked']['delivery_pct']:6.1f}% | "
              f"delta {impact['delta']['delivery_pct']:+.1f}pp")
        if windowed:
            print(f"  mean lag: honest {impact['honest']['mean_lag']:6.2f}s | "
                  f"attacked {impact['attacked']['mean_lag']:6.2f}s | "
                  f"delta {impact['delta']['mean_lag']:+.2f}s")
        print(f"  attacker cost: {cost['mean_served']:.1f} pkts served "
              f"(honest mean {cost['honest_mean_served']:.1f}); "
              f"counters {cost['counters'] or '{}'}")
    return 0


def _stderr_progress(event: ProgressEvent) -> None:
    """The one progress line, for ``sweep`` and renders alike."""
    record = event.record
    print(f"\r[{event.done}/{event.total}] {record.scenario_name} "
          f"seed={record.seed} "
          f"({record.events_executed:,} events, {record.wall_time:.2f}s)",
          file=sys.stderr, end="" if event.done < event.total else "\n",
          flush=True)


def _execution(args, command: str, name: str) -> Dict[str, object]:
    """The execution flags (:func:`_add_execution_args`) as the keywords
    ``run_grid`` and ``grid_summaries`` share."""
    return dict(jobs=args.jobs,
                checkpoint=_checkpoint_path(args, command, name),
                resume=args.resume,
                checkpoint_gc=_managed_checkpoint(args),
                progress=None if args.quiet else _stderr_progress)


def _cmd_sweep(args) -> int:
    from repro.faults import SupervisionPolicy

    try:
        # Spec, scenario, checkpoint, fault-plan and supervision problems
        # are all ValueErrors, each collected into one message.
        spec = SweepSpec.from_params(spec_params(args))
        grid = spec.run(
            supervision=SupervisionPolicy(cell_retries=args.cell_retries),
            **_execution(args, "sweep", spec.distribution))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if grid.cell_retries:
        # Pinned phrasing: the CI chaos-smoke job greps for it.
        print(f"supervision: recovered {grid.cell_retries} lost cell "
              f"attempt(s)", file=sys.stderr)
    if grid.failures:
        print(f"supervision: quarantined {len(grid.failures)} cell(s) "
              f"after exhausting retries", file=sys.stderr)
    if not args.quiet:
        print(f"grid of {len(grid.configs)} scenario(s) x "
              f"{len(grid.seeds)} seed(s) with --jobs {args.jobs}: "
              f"{grid.wall_time:.2f}s wall", file=sys.stderr)
    if args.csv:
        from repro.metrics.export import write_grid_csv

        rows = write_grid_csv(args.csv, grid)
        if not args.quiet:
            print(f"wrote {rows} record row(s) to {args.csv}",
                  file=sys.stderr)
    # Aggregates go to stdout and are byte-identical for any --jobs value.
    print(grid.render())
    return 0


def _managed_checkpoint(args) -> bool:
    """Housekeeping applies only to checkpoints *derived* from
    ``--checkpoint-dir`` — never to a file the user named explicitly
    with ``--checkpoint``, which must keep the fail-loud semantics."""
    return bool(args.checkpoint_dir) and not args.checkpoint


def _checkpoint_path(args, command: str, name: str) -> Optional[str]:
    """The JSONL checkpoint for this invocation, if any.

    ``--checkpoint PATH`` names it explicitly; ``--checkpoint-dir DIR``
    derives a stable per-artifact file *inside DIR* and turns on
    checkpoint housekeeping (stale/mismatched files are GC'd instead of
    fatal, spent ones deleted after a successful run); ``--resume`` alone
    derives the same default name under ``.repro-checkpoints`` so the
    natural kill/rerun workflow (`figure fig9 --resume` twice) just
    works.  The default is keyed by the *resolved* scale, so
    ``REPRO_SCALE=quick`` and ``REPRO_SCALE=full`` runs never collide on
    one file.
    """
    if args.checkpoint:
        return args.checkpoint
    scale = getattr(args, "scale", None) or current_scale().name
    if args.checkpoint_dir:
        return os.path.join(args.checkpoint_dir,
                            f"{command}-{name}-{scale}.jsonl")
    if args.resume:
        return os.path.join(".repro-checkpoints",
                            f"{command}-{name}-{scale}.jsonl")
    return None


def _cmd_render(kind: str, args) -> int:
    try:
        # ValueError: unknown id or scale (flag or REPRO_SCALE), a bad
        # REPRO_JOBS, a checkpoint of another grid, an invalid scenario
        # override reaching validation
        grid = {}
        if kind != "extension":  # extensions carry no grid flags
            grid = _execution(args, kind, args.id)
        result = render(kind, args.id,
                        current_scale() if args.scale is None
                        else _SCALES[args.scale], **grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_path = getattr(args, "csv", None)
    if csv_path:
        from repro.metrics.export import write_result_csv

        rows = write_result_csv(csv_path, result)
        if not args.quiet:
            print(f"wrote {rows} row(s) to {csv_path}", file=sys.stderr)
    print(result.render())
    return 0


def _cmd_list(args) -> int:
    for kind in KINDS:
        print(f"{kind + 's:':<12}" + " ".join(artifact_ids(kind)))
    print("scales:     " + " ".join(sorted(_SCALES)))
    return 0


def _cmd_attacks(args) -> int:
    """``repro attacks --list``: print the attack catalog."""
    from repro.adversary import PLACEMENT_POLICIES, attack_catalog

    if args.format == "json":
        # One schema for every transport: this is byte-for-byte the
        # payload the service serves at GET /v1/catalog/attacks.
        import json

        from repro.adversary import catalog_jsonable

        print(json.dumps(catalog_jsonable(), indent=2))
        return 0
    rows = [("name", "role", "param", "channel exploited", "detection story")]
    rows += [(entry.name, entry.role,
              f"{entry.default_param:g} ({entry.param_doc})",
              entry.channel, entry.detection)
             for entry in attack_catalog()]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    for name, role, param, channel, detection in rows:
        print(f"{name:<{widths[0]}}  {role:<{widths[1]}}  "
              f"{param:<{widths[2]}}  {channel}")
        if args.verbose and detection != "detection story":
            print(f"{'':<{widths[0]}}  {'':<{widths[1]}}  "
                  f"{'':<{widths[2]}}  detection: {detection}")
    print(f"\nvictim policies: {', '.join(PLACEMENT_POLICIES)}")
    print("usage: sweep --attacks spam=0.1,withhold=0.05 "
          "--victim-policy high-degree [--attack-params spam=0.5]")
    return 0


#: Where `submit`/`status`/`watch` look for the service by default
#: (= `repro serve`'s default bind).
_DEFAULT_SERVICE_URL = "http://127.0.0.1:8642"


def _cmd_serve(args) -> int:
    """Run the experiment service control plane in the foreground."""
    from repro.service import ExperimentService, JobManager

    try:
        manager = JobManager(checkpoint_dir=args.checkpoint_dir,
                             executors=args.jobs,
                             queue_size=args.queue_size,
                             job_ttl=args.job_ttl,
                             job_timeout=args.job_timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = ExperimentService(manager, host=args.host, port=args.port,
                                quiet=args.quiet)
    print(f"repro service on {service.url} "
          f"(executors: {args.jobs}, checkpoint dir: {args.checkpoint_dir})",
          file=sys.stderr, flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        # Unfinished jobs keep their managed checkpoints on disk, so a
        # restarted service resumes resubmitted specs.
        service.close()
    return 0


def _follow_job(client, job_id: str, quiet: bool = False) -> str:
    """Stream a job's events to stderr; returns its terminal state."""
    state = "unknown"
    for event in client.events(job_id):
        if event["type"] == "state":
            state = event["state"]
            if not quiet:
                print(f"{job_id}: {state}", file=sys.stderr)
        elif event["type"] == "progress" and not quiet:
            tag = " (restored)" if event.get("restored") else ""
            print(f"  [{event['done']}/{event['total']}] "
                  f"{event['scenario_name']} seed={event['seed']} "
                  f"({event['events_executed']:,} events, "
                  f"{event['events_per_sec']:,.0f} ev/s){tag}",
                  file=sys.stderr)
    return state


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    # Only what the user set travels; the server fills in the rest from
    # the same spec table (whose defaults are the `sweep` CLI defaults).
    if args.kind in ("figure", "table", "ablation"):
        if not args.id:
            print(f"error: --kind {args.kind} needs --id", file=sys.stderr)
            return 2
        params = spec_params(args, RenderSpec)
    else:
        params = spec_params(args)
    try:
        resp = client.submit(args.kind, params)
        job = resp["job"]
        if not args.quiet:
            verb = "submitted" if resp["created"] else "joined"
            print(f"{verb} {job['id']} ({job['kind']}, "
                  f"state: {job['state']})", file=sys.stderr)
        if not args.wait:
            print(job["id"])
            return 0
        state = _follow_job(client, job["id"], quiet=args.quiet)
        if state != "done":
            final = client.job(job["id"])
            print(f"error: job {job['id']} {state}"
                  + (f": {final['error']}" if final.get("error") else ""),
                  file=sys.stderr)
            return 1
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(client.csv(job["id"]))
            if not args.quiet:
                print(f"wrote {args.csv}", file=sys.stderr)
        # The deterministic aggregate render, byte-identical to running
        # the same spec through `repro sweep` / `repro <kind> <id>`.
        print(client.result(job["id"])["result"]["render"])
        return 0
    except ServiceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2


def _cmd_status(args) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return 0
            for job in jobs:
                cells = job["cells"]
                total = cells["total"] if cells["total"] is not None else "?"
                print(f"{job['id']}  {job['state']:<9} {job['kind']:<8} "
                      f"{cells['done']}/{total} cells  "
                      f"fp={job['fingerprint']}")
            return 0
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(client.csv(args.job_id))
            print(f"wrote {args.csv}", file=sys.stderr)
            return 0
        print(json.dumps(client.job(args.job_id), indent=2))
        return 0
    except ServiceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2


def _cmd_watch(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        state = _follow_job(client, args.job_id)
        if state == "done":
            print(client.result(args.job_id)["result"]["render"])
            return 0
        job = client.job(args.job_id)
        print(f"error: job {args.job_id} {state}"
              + (f": {job['error']}" if job.get("error") else ""),
              file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2


def _add_execution_args(parser, jobs_default: Optional[int],
                        csv_help: str) -> None:
    """How a grid is executed — shared by ``sweep`` and the
    figure/table/ablation grids (never part of a spec: output is
    identical for any value)."""
    parser.add_argument("--jobs", type=int, default=jobs_default,
                        help="worker processes for the scenario grid "
                             "(default: 1 for sweep, REPRO_JOBS or 1 for "
                             "renders; output is identical for any value)")
    parser.add_argument("--checkpoint", default=None,
                        help="JSONL file recording each finished "
                             "(scenario, seed) record")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for a derived checkpoint file, "
                             "with housekeeping: stale or fingerprint-"
                             "mismatched checkpoints are GC'd, spent ones "
                             "deleted after a successful run")
    parser.add_argument("--resume", action="store_true",
                        help="reload finished cells from the checkpoint "
                             "instead of recomputing")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")
    parser.add_argument("--csv", default=None, metavar="PATH", help=csv_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HEAP (Heterogeneous Gossip) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    # `run` is the one-cell case of the sweep spec: its own flags pick
    # the cell, everything else is the spec table.
    run_parser = command("run", _cmd_run, help="run one scenario")
    run_parser.add_argument("--protocol", choices=("heap", "standard", "tree"),
                            default="heap")
    run_parser.add_argument("--seed", type=int, default=1)
    add_spec_arguments(run_parser, exclude=("protocols", "seeds",
                                            "base_seed", "num_seeds",
                                            "faults"))

    sweep_parser = command(
        "sweep", _cmd_sweep,
        help="run a protocol x seed grid (parallel with --jobs)")
    add_spec_arguments(sweep_parser)
    _add_execution_args(sweep_parser, jobs_default=1,
                        csv_help="export every (scenario, seed) record as "
                                 "CSV for external plotting")
    sweep_parser.add_argument("--cell-retries", type=int, default=2,
                              help="times a grid cell lost to a worker "
                                   "crash is retried on a fresh worker "
                                   "before being quarantined as a "
                                   "CellFailure (default 2)")

    for name in KINDS:
        p = command(name, functools.partial(_cmd_render, name),
                    help=f"regenerate a {name}")
        p.add_argument("id", help=f"one of: {', '.join(artifact_ids(name))}")
        if name == "extension":
            # Extensions take no grid keywords: advertising grid flags
            # they'd silently ignore would lie.
            add_spec_arguments(p, RenderSpec, exclude=("id",))
            continue
        add_spec_arguments(p, RenderSpec, exclude=("id",))
        _add_execution_args(p, jobs_default=None,
                            csv_help="export the rendered rows as CSV "
                                     "(mirrors sweep --csv)")

    attacks_parser = command("attacks", _cmd_attacks,
                             help="list the adversarial attack catalog")
    attacks_parser.add_argument("--list", action="store_true",
                                help="print the catalog (the default)")
    attacks_parser.add_argument("--verbose", action="store_true",
                                help="include each attack's detection story")
    attacks_parser.add_argument("--format", choices=("text", "json"),
                                default="text",
                                help="json prints the same payload the "
                                     "service serves at "
                                     "GET /v1/catalog/attacks")

    serve_parser = command("serve", _cmd_serve,
                           help="run the experiment service control plane")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642,
                              help="listen port (0 = ephemeral; default "
                                   "8642)")
    serve_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes every job's cells "
                                   "share, and most jobs run at once")
    serve_parser.add_argument("--queue-size", type=int, default=16,
                              help="bounded submission queue (full = "
                                   "HTTP 503)")
    serve_parser.add_argument("--checkpoint-dir", default=".repro-service",
                              help="managed checkpoints + CSV artifacts; "
                                   "cancelled/crashed jobs resubmitted "
                                   "with the same spec resume from here")
    serve_parser.add_argument("--job-ttl", type=float, default=None,
                              metavar="SECS",
                              help="evict terminal jobs (and their SSE "
                                   "buffers and CSV artifacts — not "
                                   "their checkpoints) SECS > 0 after "
                                   "they finish; evicted ids answer 404 "
                                   "with the eviction reason (default: "
                                   "keep forever)")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECS",
                              help="watchdog: a running job that makes "
                                   "no progress for SECS > 0 is failed "
                                   "and its busy worker processes killed "
                                   "and replaced (default: no watchdog)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-request access logs")

    submit_parser = command("submit", _cmd_submit,
                            help="submit a job to a running service")
    submit_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL)
    submit_parser.add_argument("--kind", default="sweep",
                               choices=("run", "sweep", "figure", "table",
                                        "ablation"))
    submit_parser.add_argument("--wait", action="store_true",
                               help="stream progress and print the final "
                                    "render (exactly the CLI's output for "
                                    "the same spec)")
    submit_parser.add_argument("--csv", default=None, metavar="PATH",
                               help="with --wait: save the job's CSV "
                                    "artifact here")
    submit_parser.add_argument("--quiet", action="store_true")
    # Both spec tables with no defaults.
    add_spec_arguments(submit_parser, defaults=False)
    add_spec_arguments(submit_parser, RenderSpec, defaults=False)

    status_parser = command(
        "status", _cmd_status,
        help="list service jobs, or show one job's status")
    status_parser.add_argument("job_id", nargs="?", default=None)
    status_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL)
    status_parser.add_argument("--csv", default=None, metavar="PATH",
                               help="fetch the job's CSV artifact to PATH")

    watch_parser = command("watch", _cmd_watch,
                           help="stream a job's live progress (SSE)")
    watch_parser.add_argument("job_id")
    watch_parser.add_argument("--url", default=_DEFAULT_SERVICE_URL)

    from repro.lint.cli import add_lint_arguments, run_lint
    add_lint_arguments(command(
        "lint", run_lint, help="determinism & shard-safety static analyzer"))

    command("list", _cmd_list, help="list available experiment ids")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
