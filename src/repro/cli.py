"""Command-line interface for the reproduction.

Examples
--------
List the available experiments::

    repro-experiments list

Regenerate a figure as a text table (optionally as CSV)::

    repro-experiments run fig1
    repro-experiments run fig7 --csv

Assess feasibility of a concrete job on a concrete cluster::

    repro-experiments feasibility --job-demand 50000 --workstations 60 \\
        --utilization 0.1 --owner-demand 10

Simulate a whole figure grid through the parallel sweep engine (results are
cached on disk, so a re-run replays instead of resimulating)::

    repro-experiments sweep fig01 --jobs 4 --cache-dir .repro-cache
    repro-experiments sweep validation --num-jobs 2000 --no-cache

Scenario-parameterized grids: skew a fixed average owner load across the
cluster, or race the task-scheduling policies on the event-driven backend::

    repro-experiments sweep hetero-concentration --concentrations 0,0.5,1
    repro-experiments sweep policy-compare --policies static,self-scheduling

Open the system: a Poisson stream of competing parallel jobs at the given
fractions of each point's saturation throughput (queueing metrics instead of
standalone job times)::

    repro-experiments sweep arrival-sweep --arrival-rates 0.25,0.5,0.75
    repro-experiments run open_system

Space-share it: mixes of moldable job widths admitted by FCFS, EASY-style
backfilling or (preemptive) priority, with per-class response times::

    repro-experiments sweep admission-sweep --job-widths 2,4 \\
        --admission-policies fcfs,easy-backfill,priority
    repro-experiments run admission
    repro-experiments run open-system-response

Run sweeps as a service: a durable job queue sharing one warm result cache
across submissions, polled over HTTP/JSON (results are bitwise-identical to
the library ``SweepRunner.run`` of the same grid, so a resubmitted grid is
served entirely from the cache)::

    repro-experiments serve --root .repro-service --port 8321
    repro-experiments submit fig01 --num-jobs 200 --wait
    repro-experiments status                # all jobs
    repro-experiments status job-000001-200c7537 --wait
    repro-experiments result job-000001-200c7537 -o fig01.npz

Observe it: trace a sweep to a Chrome/Perfetto timeline (bitwise-identical
results — spans are pure observers), dump or scrape the metrics registry,
convert a raw span log from a traced service::

    repro-experiments sweep fig01 --trace fig01-trace.json
    repro-experiments metrics                 # this process's registry
    repro-experiments metrics --url http://127.0.0.1:8321   # scrape a service
    repro-experiments serve --trace service-spans.jsonl
    repro-experiments trace-export service-spans.jsonl -o service-trace.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .backends import backend_names
from .core import JobSpec, OwnerSpec, SystemSpec, TaskRounding, assess_feasibility
from .engine import GRID_AXES, GRID_NAMES, SweepRunner, build_grid, grid_mode
from .experiments import (
    FigureResult,
    ValidationPoint,
    agreement_summary,
    figure_to_csv,
    format_figure,
    format_mapping,
    get_experiment,
    list_experiments,
)
from .experiments.ablations import AblationRow
from .experiments.open_system import QueueingRow
from .service.specs import EXECUTORS

__all__ = ["build_parser", "main"]


def _add_grid_override_args(parser: argparse.ArgumentParser) -> None:
    """Grid-override flags shared by ``sweep`` and service ``submit``."""
    parser.add_argument(
        "--num-jobs", type=int, default=None,
        help="job completions sampled per point (default: the grid's setting)",
    )
    for axis in GRID_AXES:
        parser.add_argument(axis.flag, dest=axis.key, default=None, help=axis.help)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed from which every point's seed is derived (default 0)",
    )


def _grid_overrides(args: argparse.Namespace) -> dict:
    """Decode the shared override flags into ``build_grid`` kwargs.

    Each axis value is parsed with its axis type, so ``--workstations 2.9``
    raises ``ValueError``; unknown-grid / unsupported-override errors
    surface later from ``build_grid`` itself.
    """
    overrides: dict = {"seed": args.seed}
    if args.num_jobs is not None:
        overrides["num_jobs"] = args.num_jobs
    for axis in GRID_AXES:
        text = getattr(args, axis.key)
        if text:
            overrides[axis.key] = tuple(map(axis.type, text.split(",")))
    return overrides


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction of Leutenegger & Sun (1993), 'Distributed computing "
            "feasibility in a non-dedicated homogeneous distributed system'."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its data")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an aligned table"
    )
    run_parser.add_argument(
        "--max-rows",
        type=int,
        default=25,
        help="subsample long sweeps to at most this many table rows (default 25)",
    )

    feas_parser = subparsers.add_parser(
        "feasibility", help="assess feasibility of a job on a non-dedicated cluster"
    )
    feas_parser.add_argument("--job-demand", type=float, required=True,
                             help="total parallel job demand J in time units")
    feas_parser.add_argument("--workstations", type=int, required=True,
                             help="number of workstations W")
    feas_parser.add_argument("--utilization", type=float, required=True,
                             help="owner utilization U of each workstation (0..1)")
    feas_parser.add_argument("--owner-demand", type=float, default=10.0,
                             help="mean owner process demand O (default 10)")
    feas_parser.add_argument("--target", type=float, default=0.80,
                             help="target weighted efficiency (default 0.80)")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="simulate a named figure grid through the parallel sweep engine",
    )
    sweep_parser.add_argument(
        "grid", help=f"sweep grid name, one of: {', '.join(GRID_NAMES)}"
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: one per CPU; 1 = in-process serial)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="directory for the on-disk result cache (default .repro-cache)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (always resimulate)",
    )
    sweep_parser.add_argument(
        "--mode", default=None,
        choices=backend_names(),
        help="simulation backend (default: the grid's backend)",
    )
    _add_grid_override_args(sweep_parser)
    sweep_parser.add_argument(
        "--profile", type=int, nargs="?", const=15, default=None, metavar="N",
        help=(
            "run every simulated point under cProfile inside its worker "
            "process, merge the per-worker stats and print the top N "
            "functions by cumulative time (default N=15)"
        ),
    )
    sweep_parser.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help=(
            "record structured spans (one per sweep and per simulated point) "
            "and write a Chrome/Perfetto trace-event JSON timeline; the raw "
            "span log lands next to it as OUT.json.jsonl.  Spans are pure "
            "observers — results stay bitwise-identical to an untraced run"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the sweep service: a durable job queue with a shared warm "
            "result cache, polled over HTTP/JSON"
        ),
    )
    serve_parser.add_argument(
        "--root", default=".repro-service",
        help=(
            "service state directory (jobs/, cache/, results/); restarting "
            "over the same root resumes pending work (default .repro-service)"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (default 8321)"
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per shard (default: one per CPU)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    serve_parser.add_argument(
        "--trace", default=None, metavar="SPANS.jsonl",
        help=(
            "append structured job/shard/point spans to this JSONL file "
            "while serving; convert to a Chrome/Perfetto timeline later "
            "with 'trace-export'"
        ),
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help=(
            "dump the metrics registry as Prometheus exposition text — "
            "this process's registry, or a running service's via --url"
        ),
    )
    metrics_parser.add_argument(
        "--url", default=None,
        help="scrape GET /metrics of a running service instead",
    )

    export_parser = subparsers.add_parser(
        "trace-export",
        help="convert a JSONL span log to Chrome/Perfetto trace-event JSON",
    )
    export_parser.add_argument(
        "trace_file", help="JSONL span log (from 'serve --trace' or a Tracer)"
    )
    export_parser.add_argument(
        "-o", "--output", required=True,
        help="path for the Chrome trace-event JSON",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a named grid to a running sweep service"
    )
    submit_parser.add_argument(
        "grid", help=f"sweep grid name, one of: {', '.join(GRID_NAMES)}"
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    submit_parser.add_argument(
        "--executor", default="sweep", choices=EXECUTORS,
        help=(
            "execution strategy: 'sweep' (the grid's backend; the default) "
            "or 'vectorized' (monte-carlo points run on monte-carlo-max, "
            "which draws each job's time from its exact distribution — "
            "statistically identical, not bitwise)"
        ),
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its final record",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    _add_grid_override_args(submit_parser)

    status_parser = subparsers.add_parser(
        "status", help="poll a submitted job (or list all jobs) as JSON"
    )
    status_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id from 'submit' (omit to list every job)",
    )
    status_parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    status_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes (requires a job id)",
    )
    status_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait timeout in seconds (default 600)",
    )

    result_parser = subparsers.add_parser(
        "result", help="download a finished job's NPZ result payload"
    )
    result_parser.add_argument("job_id", help="job id from 'submit'")
    result_parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    result_parser.add_argument(
        "-o", "--output", required=True,
        help="path to write the NPZ payload to",
    )
    return parser


def _render_result(result: object, *, csv: bool, max_rows: int) -> str:
    if isinstance(result, FigureResult):
        if csv:
            return figure_to_csv(result)
        return format_figure(result, max_rows=max_rows)
    if isinstance(result, dict):
        return format_mapping("result", result)
    if isinstance(result, list) and result and isinstance(result[0], ValidationPoint):
        lines = [format_mapping(f"point {i}", p.as_dict()) for i, p in enumerate(result)]
        lines.append(format_mapping("agreement", agreement_summary(result)))
        return "\n".join(lines)
    if isinstance(result, list) and result and isinstance(
        result[0], (AblationRow, QueueingRow)
    ):
        return "\n".join(format_mapping(row.label, row.as_dict()) for row in result)
    return repr(result) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment in list_experiments():
            print(f"{experiment.experiment_id:<26} [{experiment.kind}] {experiment.description}")
        return 0

    if args.command == "run":
        try:
            experiment = get_experiment(args.experiment)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        result = experiment.run()
        sys.stdout.write(_render_result(result, csv=args.csv, max_rows=args.max_rows))
        return 0

    if args.command == "sweep":
        try:
            configs = build_grid(args.grid, **_grid_overrides(args))
            mode = args.mode or grid_mode(args.grid)
            runner = SweepRunner(
                jobs=args.jobs,
                cache=None if args.no_cache else args.cache_dir,
            )
        except (KeyError, ValueError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if args.trace:
            from .obs import configure_tracing, disable_tracing, export_chrome_trace

            jsonl_path = Path(f"{args.trace}.jsonl")
            jsonl_path.unlink(missing_ok=True)  # fresh span log per run
            configure_tracing(jsonl_path)
        profiling = args.profile is not None
        try:
            outcome = runner.run(configs, mode=mode, profile=profiling)
        except ValueError as exc:  # the backend refuses a point
            print(exc, file=sys.stderr)
            return 2
        finally:
            if args.trace:
                disable_tracing()
        for result in outcome:
            print(result.summary())
        print(f"sweep {args.grid}: {outcome.summary()}")
        if runner.cache is not None:
            print(f"cache: {len(runner.cache)} entries in {runner.cache.root}")
        if profiling:
            sys.stdout.write(outcome.profile_report(top=args.profile))
        if args.trace:
            count = export_chrome_trace(jsonl_path, args.trace)
            print(f"trace: {count} events -> {args.trace} (raw spans: {jsonl_path})")
        return 0

    if args.command == "metrics":
        if args.url:
            import http.client

            from .service import ServiceClient, ServiceError

            try:
                sys.stdout.write(ServiceClient(args.url).metrics_text())
            except (ServiceError, OSError, http.client.HTTPException) as exc:
                print(
                    f"cannot scrape {args.url}/metrics: {exc}", file=sys.stderr
                )
                return 2
        else:
            from .obs import REGISTRY, render_prometheus

            sys.stdout.write(render_prometheus(REGISTRY))
        return 0

    if args.command == "trace-export":
        from .obs import export_chrome_trace

        try:
            count = export_chrome_trace(args.trace_file, args.output)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"wrote {count} trace events to {args.output}")
        return 0

    if args.command == "serve":
        from .service import SweepService, serve_forever

        try:
            service = SweepService(args.root, jobs=args.jobs)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.trace:
            from .obs import configure_tracing

            configure_tracing(args.trace)
            print(f"tracing spans to {args.trace}")
        if service.recovered:
            recovered = ", ".join(r.job_id for r in service.recovered)
            print(f"re-queued after restart: {recovered}")
        pending = len(service.store.pending())
        print(
            f"sweep service on http://{args.host}:{args.port} "
            f"(root={service.root}, {pending} queued)"
        )
        serve_forever(
            service, host=args.host, port=args.port, verbose=not args.quiet
        )
        return 0

    if args.command in ("submit", "status", "result"):
        import http.client
        import json as _json

        from .service import ServiceClient, ServiceError
        from .service.client import OutputError

        client = ServiceClient(args.url)

        def _print_progress(record) -> None:
            eta = (
                f", eta {record.eta_seconds:.1f}s"
                if record.eta_seconds is not None
                else ""
            )
            print(
                f"{record.job_id}: {record.status} "
                f"{record.points_completed}/{record.total_points} points"
                f"{eta}",
                file=sys.stderr,
            )

        try:
            if args.command == "submit":
                record = client.submit_grid(
                    args.grid, _grid_overrides(args), executor=args.executor
                )
                if args.wait:
                    record = client.wait(
                        record.job_id,
                        timeout=args.timeout,
                        on_progress=_print_progress,
                    )
            elif args.command == "status":
                if args.job_id is None:
                    if args.wait:
                        raise ValueError("status --wait needs a job id")
                    jobs = client.jobs()
                    print(
                        _json.dumps(
                            {"jobs": [vars(job) for job in jobs]},
                            indent=2,
                            sort_keys=True,
                        )
                    )
                    return 0
                record = (
                    client.wait(
                        args.job_id,
                        timeout=args.timeout,
                        on_progress=_print_progress,
                    )
                    if args.wait
                    else client.status(args.job_id)
                )
            else:  # result
                record = client.status(args.job_id)
                if record.status != "done":
                    print(
                        f"job {args.job_id} is {record.status}, not done",
                        file=sys.stderr,
                    )
                    return 1
                size = client.save_result(args.job_id, args.output)
                print(f"wrote {size} bytes to {args.output}")
                return 0
        except OutputError as exc:
            print(f"cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
        except (ServiceError, ValueError, TimeoutError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except http.client.HTTPException as exc:
            print(
                f"the service at {args.url} sent a broken answer: {exc!r}",
                file=sys.stderr,
            )
            return 2
        except OSError as exc:
            print(f"cannot reach the service at {args.url}: {exc}", file=sys.stderr)
            return 2
        print(_json.dumps(record.to_json(), indent=2, sort_keys=True))
        return 1 if record.status == "failed" else 0

    if args.command == "feasibility":
        job = JobSpec(total_demand=args.job_demand, rounding=TaskRounding.INTERPOLATE)
        owner = OwnerSpec(demand=args.owner_demand, utilization=args.utilization)
        system = SystemSpec(workstations=args.workstations, owner=owner)
        report = assess_feasibility(job, system, target_weighted_efficiency=args.target)
        print(report.summary())
        return 0 if report.feasible else 1

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
