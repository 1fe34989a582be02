"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tune``       run CITROEN (or a baseline) on a benchmark program
``programs``   list the available benchmark programs
``passes``     list the phase-ordering pass alphabet
``motivate``   print the Table 5.1 motivation rows live
``compare``    run several tuners on one program and print the leaderboard
``watch``      live terminal dashboard over a (possibly still running)
               traced run directory (``--json`` for a one-shot
               machine-readable snapshot)
``analyze``    render a markdown report from a recorded run directory
               (``--chrome-trace``/``--prometheus`` export standard formats)
``explain``    replay a recorded run's incumbent configuration with
               per-pass tracing and attribute its speedup by ablation
               (leave-one-out + prefix replays; flags no-op passes)
``diff``       compare two recorded runs (or one run against
               ``--against warehouse:last-N``); non-zero exit on regression
``obs``        the fleet warehouse: ``obs index RUNS...`` ingests run
               directories into a sqlite file,
               ``obs history`` prints the cross-revision trajectory

Output goes through :mod:`repro.obs.log` (``--log-level`` selects
verbosity; the default ``info`` level is byte-compatible with the
historical ``print()`` output).  ``--trace-out DIR`` (or the
``REPRO_TRACE`` environment variable) records the run into a directory of
artifacts — ``manifest.json``, ``events.jsonl``, ``metrics.json``,
``result.json`` — and prints the per-phase time breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro import (
    AutotuningTask,
    BOCATuner,
    Citroen,
    EnsembleTuner,
    GATuner,
    RandomSearchTuner,
    available_passes,
    cbench_names,
    cbench_program,
    spec_names,
    spec_program,
)
from repro.obs import RunRecorder, configure_logging

__all__ = ["main"]

_TUNERS = {
    "citroen": lambda task, seed, diagnostics=True, pass_prior=None: Citroen(
        task, seed=seed, diagnostics=diagnostics, pass_prior=pass_prior
    ),
    "random": lambda task, seed, diagnostics=True, pass_prior=None: RandomSearchTuner(
        task, seed=seed
    ),
    "ga": lambda task, seed, diagnostics=True, pass_prior=None: GATuner(
        task, seed=seed
    ),
    "ensemble": lambda task, seed, diagnostics=True, pass_prior=None: EnsembleTuner(
        task, seed=seed
    ),
    "boca": lambda task, seed, diagnostics=True, pass_prior=None: BOCATuner(
        task, seed=seed
    ),
}


def _build_tuner(name: str, task, args: argparse.Namespace, pass_prior=None):
    return _TUNERS[name](
        task,
        args.seed,
        diagnostics=not getattr(args, "no_diagnostics", False),
        pass_prior=pass_prior,
    )


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _fault_injector(args: argparse.Namespace):
    """Build the chaos injector from the CLI flags (``None`` when off)."""
    from repro.core.faults import FaultInjector, parse_fault_kinds

    try:
        kinds = parse_fault_kinds(args.inject_faults)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not kinds:
        return None
    return FaultInjector(
        rate=args.fault_rate,
        kinds=kinds,
        seed=args.fault_seed,
        hang_seconds=args.fault_hang_seconds,
    )


def _trace_dir(args: argparse.Namespace) -> Optional[str]:
    """The run-artifact directory: --trace-out flag, else $REPRO_TRACE."""
    return getattr(args, "trace_out", None) or os.environ.get("REPRO_TRACE") or None


#: manifest keys that fully parameterize a tune; ``--resume`` restores every
#: one of them onto the argparse namespace so the re-executed loop is
#: configured bit-identically to the killed run (manifest wins over flags)
_MANIFEST_ARGS = (
    "program",
    "budget",
    "seed",
    "platform",
    "seq_length",
    "jobs",
    "inject_faults",
    "fault_rate",
    "fault_seed",
    "fault_hang_seconds",
    "compile_timeout",
    "metrics_every",
    "tuner",
    "prior_bank",
    "pipeline_trace",
)


def _recorder(
    args: argparse.Namespace, out_dir: str, resume: bool = False, **manifest
) -> RunRecorder:
    base = {
        "command": args.command,
        "inject_faults": getattr(args, "inject_faults", "none"),
    }
    for key in _MANIFEST_ARGS:
        base.setdefault(key, getattr(args, key, None))
    base.update(manifest)
    return RunRecorder(out_dir, manifest=base, resume=resume)


def _apply_manifest(args: argparse.Namespace, manifest: Dict[str, object]) -> None:
    """Overlay a resumed run's manifest onto the CLI namespace.

    The manifest is the ground truth for every search-shaping parameter —
    a resume invoked with different flags would silently diverge from the
    WAL, so recorded values win; keys an older manifest lacks keep the
    current defaults (the resume then only succeeds if those defaults
    match what the run actually used).  Keys of retired flags
    (``measure_engine``, ``fuse``, ``compile_cache_size``, ...) are
    ignored: none of them ever changed a verdict."""
    for key in _MANIFEST_ARGS:
        if manifest.get(key) is not None:
            setattr(args, key, manifest[key])


def _make_task(
    args: argparse.Namespace,
    program_name: str,
    recorder: Optional[RunRecorder] = None,
    wal=None,
):
    injector = _fault_injector(args)
    compile_timeout = args.compile_timeout
    if compile_timeout is None and injector is not None and "hang" in injector.kinds:
        # chaos run with hangs: default a timeout below the hang delay so
        # the hang fault actually trips the engine's timeout path
        compile_timeout = max(0.05, injector.hang_seconds / 2.0)
    return AutotuningTask(
        _load_program(program_name),
        platform=args.platform,
        seed=args.seed,
        seq_length=getattr(args, "seq_length", 32),
        jobs=args.jobs,
        fault_injector=injector,
        compile_timeout=compile_timeout,
        tracer=recorder.tracer if recorder is not None else None,
        metrics=recorder.registry if recorder is not None else None,
        metrics_every=getattr(args, "metrics_every", 0),
        pipeline_trace=getattr(args, "pipeline_trace", "off") or "off",
        wal=wal,
        kill_after_iter=getattr(args, "kill_after_iter", None),
    )


def _load_program(name: str):
    if name in cbench_names():
        return cbench_program(name)
    if name in spec_names():
        return spec_program(name)
    raise SystemExit(
        f"unknown program {name!r}; see `python -m repro programs`"
    )


@contextlib.contextmanager
def _graceful_shutdown(task, log):
    """Install SIGINT/SIGTERM handlers for a graceful tuner stop.

    First signal: set the task's stop flag — the tuner finishes the
    in-flight budget slot (the engine's futures drain inside
    ``task.close()``), the WAL is already durable per measurement, and the
    caller finalizes the recorder into an analyzable, resumable run dir,
    exiting with ``128 + signum`` (130 for SIGINT, 143 for SIGTERM).
    Second signal: raise ``KeyboardInterrupt`` — the user insists.
    Yields a dict whose ``"signum"`` records the first signal (or None)."""
    state: Dict[str, Optional[int]] = {"signum": None}

    def _handler(signum, frame):
        if state["signum"] is not None:
            raise KeyboardInterrupt
        state["signum"] = signum
        task.request_stop()
        log.warning(
            "\nreceived %s: finishing the current measurement, then "
            "shutting down gracefully (send again to force)",
            signal.Signals(signum).name,
        )

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _load_prior(args: argparse.Namespace, resume_dir: Optional[Path], log):
    """The pass prior for this session, and whether to snapshot it.

    A resumed run replays against the *snapshot* taken at the original
    run's start (``prior.json`` in the run dir) — never the live bank,
    which other sessions may have advanced since; a drifted prior would
    change candidate generation and break bit-identical resume."""
    from repro.core.transfer import PassCorrelationPrior

    if resume_dir is not None:
        snap = resume_dir / "prior.json"
        if snap.exists():
            return PassCorrelationPrior.load(snap), False
        return None, False
    if getattr(args, "prior_bank", None):
        return PassCorrelationPrior.load(args.prior_bank), True
    return None, False


def _update_prior_bank(args: argparse.Namespace, result, log) -> None:
    """Fold a *completed* run's trace into the shared prior bank.

    Reloads the bank first so concurrent sessions' contributions landed
    between our load and save are kept (atomic replace makes the race
    last-write-wins per field-merge, not file corruption).  Interrupted
    runs are skipped — their resume would double-count the evidence."""
    from repro.core.transfer import PassCorrelationPrior

    bank = PassCorrelationPrior.load(args.prior_bank)
    bank.observe_run(result)
    bank.save(args.prior_bank)
    log.info(
        f"prior bank   : {args.prior_bank} now holds {bank.n_runs} run(s)"
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    log = configure_logging(args.log_level)

    resume_dir: Optional[Path] = None
    if getattr(args, "resume", None):
        resume_dir = Path(args.resume)
        manifest_path = resume_dir / "manifest.json"
        if not manifest_path.exists():
            raise SystemExit(f"not a resumable run dir (no manifest): {resume_dir}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"corrupt manifest in {resume_dir}: {exc}")
        if manifest.get("command") not in (None, "tune"):
            raise SystemExit(
                f"can only resume a `tune` run, got {manifest.get('command')!r}"
            )
        _apply_manifest(args, manifest)
        trace_dir: Optional[str] = str(resume_dir)
    else:
        trace_dir = _trace_dir(args)
    if not getattr(args, "program", None):
        raise SystemExit("tune: program is required (unless using --resume)")

    recorder = (
        _recorder(args, trace_dir, resume=resume_dir is not None, tuner=args.tuner)
        if trace_dir
        else None
    )
    wal = None
    replay_records: List[Dict[str, object]] = []
    if recorder is not None:
        if resume_dir is not None:
            from repro.core.wal import read_wal

            replay_records = read_wal(recorder.path / "wal.jsonl")
            if not replay_records:
                log.warning(
                    "no WAL records in %s; re-running from scratch "
                    "(same seed, same final result)",
                    recorder.path,
                )
        wal = recorder.open_wal()

    prior, snapshot_prior = _load_prior(args, resume_dir, log)
    exit_code = 0
    try:
        with _make_task(args, args.program, recorder, wal=wal) as task:
            log.info(f"program      : {args.program}")
            log.info(f"platform     : {args.platform}")
            log.info(f"hot modules  : {task.hot_modules}")
            log.info(f"-O3 runtime  : {task.o3_runtime * 1e6:.2f} us")
            if replay_records:
                n_replay = task.start_replay(replay_records)
                log.info(
                    f"resume       : replaying {n_replay} measurement(s) "
                    f"from {recorder.path / 'wal.jsonl'}"
                )
            if prior is not None and snapshot_prior and recorder is not None:
                # freeze the prior this run searches under, so a resume
                # uses it verbatim even after the shared bank moves on
                prior.save(recorder.path / "prior.json")
            # a cold prior (no evidence) must behave exactly like no prior:
            # uniform gene weights would still alter RNG consumption
            pass_prior = prior if prior is not None and prior.n_runs > 0 else None
            if pass_prior is not None:
                log.info(
                    f"pass prior   : warm-started from {pass_prior.n_runs} run(s)"
                )
            tuner = _build_tuner(args.tuner, task, args, pass_prior=pass_prior)
            with _graceful_shutdown(task, log) as sigstate:
                result = tuner.tune(args.budget)
            interrupted = bool(result.extras.get("interrupted"))
            if result.measurements:
                log.info(f"\nbest runtime : {result.best_runtime * 1e6:.2f} us")
                log.info(f"speedup/-O3  : {result.speedup_over_o3():.3f}x")
            else:
                log.info("\nno measurements completed")
            timing = result.timing or task.timing_breakdown()
            wall = timing.get("compile_wall_seconds", 0.0)
            cpu = timing.get("compile_seconds", 0.0)
            log.info(
                f"compile      : {timing.get('n_compiles', 0)} compiles, "
                f"{100 * timing.get('compile_cache_hit_rate', 0.0):.1f}% cache hits, "
                f"{cpu * 1e3:.1f} ms worker time / {wall * 1e3:.1f} ms wall "
                f"(jobs={args.jobs}, {task.engine.kind})"
            )
            if task.fault_injector is not None:
                log.info(
                    f"faults       : {result.n_infeasible} infeasible of "
                    f"{len(result.measurements)} measurements | "
                    f"{int(timing.get('compile_failures', 0))} compile failures, "
                    f"{int(timing.get('compile_timeouts', 0))} timeouts, "
                    f"{int(timing.get('compile_retries', 0))} retries, "
                    f"{int(timing.get('quarantine_size', 0))} quarantined "
                    f"({int(timing.get('quarantine_hits', 0))} hits), "
                    f"{int(timing.get('measure_crashes', 0))} crashes, "
                    f"{int(timing.get('measure_incorrect', 0))} miscompiles"
                )
                inj = task.fault_injector
                log.info(
                    f"injected     : {','.join(inj.kinds)} at rate {inj.rate:g} "
                    f"(fault seed {inj.seed})"
                )
            if args.show_sequences:
                for module, seq in result.best_config.items():
                    log.info(f"\n[{module}]\n  {' '.join(seq)}")
            if recorder is not None:
                from repro.reporting import span_table

                # interrupted runs still finalize into an analyzable dir:
                # the partial result, metrics, and the durable WAL
                recorder.write_result(result)
                recorder.write_metrics()
                log.info(f"\nwhere did the time go (trace: {recorder.path})")
                log.info(span_table(recorder.tracer))
                from repro.obs.diagnostics import (
                    attribution_table,
                    calibration_table,
                    decision_records,
                )

                if decision_records(result):
                    log.info("\nsurrogate calibration")
                    log.info(calibration_table(result))
                    log.info("\ngenerator provenance")
                    log.info(attribution_table(result))
                log.info(
                    f"\nfull report: python -m repro analyze {recorder.path}"
                )
            if interrupted:
                if recorder is not None:
                    log.warning(
                        "interrupted after %d/%s measurements — resume with: "
                        "python -m repro tune --resume %s",
                        len(result.measurements),
                        args.budget,
                        recorder.path,
                    )
                else:
                    log.warning(
                        "interrupted after %d/%s measurements (no --trace-out, "
                        "so nothing durable to resume from)",
                        len(result.measurements),
                        args.budget,
                    )
            elif getattr(args, "prior_bank", None):
                _update_prior_bank(args, result, log)
            if sigstate["signum"] is not None:
                exit_code = 128 + int(sigstate["signum"])
    finally:
        if wal is not None:
            wal.close()
        if recorder is not None:
            recorder.close()
    return exit_code


def _cmd_programs(args: argparse.Namespace) -> int:
    log = configure_logging(getattr(args, "log_level", "info"))
    log.info("cBench-like:")
    for n in cbench_names():
        log.info(f"   {n}")
    log.info("SPEC-like:")
    for n in spec_names():
        log.info(f"   {n}")
    return 0


def _cmd_passes(args: argparse.Namespace) -> int:
    log = configure_logging(getattr(args, "log_level", "info"))
    for p in available_passes():
        log.info(p)
    return 0


def _cmd_motivate(args: argparse.Namespace) -> int:
    log = configure_logging(getattr(args, "log_level", "info"))
    from repro import pipeline
    from repro.machine import Profiler, get_platform
    from repro.machine.interp import run_program

    sequences = [
        ["mem2reg", "slp-vectorizer"],
        ["slp-vectorizer", "mem2reg"],
        ["instcombine", "mem2reg", "slp-vectorizer"],
        ["mem2reg", "instcombine", "slp-vectorizer"],
        ["mem2reg", "slp-vectorizer", "instcombine"],
    ]
    program = cbench_program("telecom_gsm")
    platform = get_platform("arm-a57")
    profiler = Profiler(platform, seed=0)
    target = platform.target_info()
    ref = program.reference_output().output_signature()
    o3_linked, _ = program.compile(
        {m.name: pipeline("-O3") for m in program.modules}, target
    )
    o3 = profiler.measure(o3_linked).seconds
    log.info(f"{'pass sequence':45s}{'SLP.NVI':>9s}{'widened':>9s}{'speedup':>9s}")
    for seq in sequences:
        config = {m.name: pipeline("-O3") for m in program.modules}
        config["long_term"] = seq
        linked, results = program.compile(config, target)
        assert run_program(linked, fuel=program.fuel).output_signature() == ref
        t = profiler.measure(linked).seconds
        st = results["long_term"].stats_json()
        log.info(
            f"{' '.join(seq):45s}"
            f"{st.get('slp-vectorizer.NumVectorInstructions', 0):9d}"
            f"{st.get('instcombine.NumWidened', 0):9d}"
            f"{o3 / t:8.2f}x"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.reporting import ascii_curve, leaderboard, span_table

    log = configure_logging(args.log_level)
    trace_dir = _trace_dir(args)
    results = {}
    for name in args.tuners.split(","):
        name = name.strip()
        # one run directory per tuner so traces stay comparable side by side
        recorder = (
            _recorder(args, os.path.join(trace_dir, name), tuner=name)
            if trace_dir
            else None
        )
        try:
            with _make_task(args, args.program, recorder) as task:
                results[name] = _build_tuner(name, task, args).tune(args.budget)
            if recorder is not None:
                recorder.write_result(results[name])
                recorder.write_metrics()
                log.info(f"[{name}] trace: {recorder.path}")
                log.info(span_table(recorder.tracer, top=8))
        finally:
            if recorder is not None:
                recorder.close()
    log.info(ascii_curve(results))
    log.info("")
    log.info(leaderboard(results))
    if trace_dir:
        # the shared parent gets the machine-readable leaderboard, so the
        # offline analyzer can consume a baseline comparison as one unit
        _write_compare_json(trace_dir, args, results)
        log.info(f"\nfull report: python -m repro analyze {trace_dir}")
    return 0


def _write_compare_json(trace_dir: str, args: argparse.Namespace, results) -> None:
    """Write the ``compare.json`` leaderboard into the shared parent dir."""
    import json

    from repro.obs.recorder import _jsonable

    board = sorted(
        (
            {
                "tuner": name,
                "best_runtime": res.best_runtime if res.measurements else None,
                "speedup_vs_o3": res.speedup_over_o3() if res.measurements else None,
                "n_measurements": len(res.measurements),
                "n_infeasible": res.n_infeasible,
                "run_dir": name,
            }
            for name, res in results.items()
        ),
        key=lambda e: -(e["speedup_vs_o3"] or 0.0),
    )
    payload = {
        "command": "compare",
        "program": args.program,
        "budget": args.budget,
        "seed": args.seed,
        "tuners": [e["tuner"] for e in board],
        "leaderboard": board,
    }
    path = os.path.join(trace_dir, "compare.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.stream import RunWatcher, watch

    log = configure_logging(args.log_level)
    if args.json:
        # one-shot machine-readable snapshot: the WatchState as JSON on
        # stdout, same exit-code contract as --once (0 ok, 3 interrupted)
        state = RunWatcher(args.run_dir).refresh()
        print(json.dumps(state.to_dict(), indent=1, sort_keys=True))
        return 3 if state.interrupted else 0
    clear = sys.stdout.isatty() and not args.once
    try:
        state = watch(
            args.run_dir,
            interval=args.interval,
            once=args.once,
            max_frames=args.frames,
            out=log.info,
            clear=clear,
        )
    except KeyboardInterrupt:
        return 130
    # non-zero when the run it watched ended interrupted, so scripts can
    # chain `repro watch DIR --once || repro tune --resume DIR`
    return 3 if state.interrupted else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analysis import analyze_run, load_run

    log = configure_logging(args.log_level)
    try:
        report = analyze_run(args.run_dir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    if args.chrome_trace or args.prometheus:
        from repro.obs.export import write_chrome_trace, write_prometheus

        run = load_run(args.run_dir)
        if args.chrome_trace:
            trace = write_chrome_trace(run.events, args.chrome_trace)
            log.info(
                f"wrote {args.chrome_trace} "
                f"({len(trace['traceEvents'])} trace events; load it in "
                "https://ui.perfetto.dev)"
            )
        if args.prometheus:
            labels = {
                k: str(run.manifest[k])
                for k in ("program", "tuner", "seed")
                if run.manifest.get(k) is not None
            }
            write_prometheus(run.metrics, args.prometheus, labels=labels)
            log.info(f"wrote {args.prometheus} (Prometheus text exposition)")
    log.info(report.rstrip())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_run
    from repro.obs.trace import Tracer

    log = configure_logging(args.log_level)
    tracer = Tracer(enabled=True) if args.chrome_trace else None
    try:
        report = explain_run(
            args.run_dir,
            prefixes=not args.no_prefixes,
            tracer=tracer,
            write_json=not args.no_json,
        )
    except (FileNotFoundError, ValueError, KeyError) as exc:
        raise SystemExit(str(exc))
    text = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.chrome_trace:
        from repro.obs.export import write_chrome_trace

        trace = write_chrome_trace(tracer.events(), args.chrome_trace)
        log.info(
            f"wrote {args.chrome_trace} "
            f"({len(trace['traceEvents'])} trace events; load it in "
            "https://ui.perfetto.dev)"
        )
    if not args.no_json:
        log.info(f"wrote {Path(report.run_dir) / 'explain.json'}")
    log.info(text.rstrip())
    return 0


def _cmd_obs_index(args: argparse.Namespace) -> int:
    from repro.obs.warehouse import Warehouse

    log = configure_logging(args.log_level)
    n = 0
    try:
        with Warehouse(args.db) as wh:
            for path in args.paths:
                try:
                    rows = wh.index_path(path)
                except (FileNotFoundError, ValueError) as exc:
                    raise SystemExit(f"cannot index {path}: {exc}")
                n += len(rows)
                for row in rows:
                    log.info(f"indexed {row['path']} ({row['program'] or '?'})")
    except ValueError as exc:  # schema-version refusal
        raise SystemExit(str(exc))
    log.info(f"{args.db}: {n} item(s) indexed")
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    from repro.obs.warehouse import Warehouse, history_table, pass_history_table

    log = configure_logging(args.log_level)
    if not os.path.exists(args.db):
        raise SystemExit(f"no warehouse at {args.db} (run `repro obs index` first)")
    try:
        with Warehouse(args.db) as wh:
            if args.passes:
                log.info(
                    pass_history_table(wh, benchmark=args.benchmark).rstrip()
                )
            else:
                log.info(history_table(wh, benchmark=args.benchmark).rstrip())
    except ValueError as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.analysis import DiffThresholds, diff_runs
    from repro.obs.recorder import _jsonable

    log = configure_logging(args.log_level)
    if args.against:
        # fleet gate: candidate run_a judged against the warehouse's
        # rolling baseline; run_b must be omitted in this mode
        from repro.obs.warehouse import diff_against_warehouse

        if args.run_b is not None:
            raise SystemExit("diff: give either RUN_B or --against, not both")
        prefix = "warehouse:last-"
        if not args.against.startswith(prefix):
            raise SystemExit(
                f"--against must look like warehouse:last-N, got {args.against!r}"
            )
        try:
            last_n = int(args.against[len(prefix):])
        except ValueError:
            raise SystemExit(
                f"--against must look like warehouse:last-N, got {args.against!r}"
            )
        if not os.path.exists(args.db):
            raise SystemExit(
                f"no warehouse at {args.db} (run `repro obs index` first)"
            )
        thresholds = DiffThresholds(
            max_runtime_ratio=args.max_runtime_ratio,
            max_wall_ratio=args.max_wall_ratio,
            max_cache_hit_drop=args.max_cache_hit_drop,
            max_calibration_ratio=args.max_calibration_ratio,
        )
        try:
            verdict = diff_against_warehouse(
                args.run_a, args.db, last_n, thresholds
            )
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc))
        text = json.dumps(_jsonable(verdict), indent=2, sort_keys=True)
        if args.json_out:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        log.info(text)
        return 1 if verdict["regressed"] else 0
    if args.run_b is None:
        raise SystemExit("diff: RUN_B is required (unless using --against)")
    thresholds = DiffThresholds(
        max_runtime_ratio=args.max_runtime_ratio,
        max_wall_ratio=args.max_wall_ratio,
        max_cache_hit_drop=args.max_cache_hit_drop,
        max_calibration_ratio=args.max_calibration_ratio,
    )
    try:
        verdict = diff_runs(args.run_a, args.run_b, thresholds)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    text = json.dumps(_jsonable(verdict), indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    log.info(text)
    # the regression gate: CI can run `repro diff base candidate` directly
    return 1 if verdict["regressed"] else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CITROEN compiler phase-ordering autotuner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="tune one program")
    tune.add_argument(
        "program", nargs="?", default=None,
        help="benchmark program (optional with --resume: the run dir's "
        "manifest supplies it)",
    )
    tune.add_argument(
        "--resume", default=None, metavar="RUN_DIR",
        help="resume an interrupted traced run: replays RUN_DIR's "
        "wal.jsonl to reconstruct the search state, then continues the "
        "remaining budget; the final history is bit-identical to an "
        "uninterrupted run (search parameters come from the manifest, "
        "overriding conflicting flags)",
    )
    tune.add_argument(
        "--prior-bank", default=None, metavar="FILE",
        help="persistent PassCorrelationPrior bank: warm-start candidate "
        "generation from it and fold this run's trace back in on "
        "successful completion (created on first use; a corrupt bank "
        "degrades to cold start with a warning)",
    )
    tune.add_argument("--tuner", choices=sorted(_TUNERS), default="citroen")
    tune.add_argument("--budget", type=int, default=100)
    tune.add_argument("--platform", choices=["arm-a57", "amd-x86"], default="arm-a57")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--seq-length", type=int, default=32)
    tune.add_argument("--show-sequences", action="store_true")
    tune.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="compile workers forked to enforce --compile-timeout (without "
        "a timeout candidates compile in-line at any setting; proposals "
        "are identical at any setting)",
    )
    _add_fault_flags(tune)
    _add_obs_flags(tune)
    tune.set_defaults(func=_cmd_tune)

    progs = sub.add_parser("programs", help="list benchmark programs")
    progs.set_defaults(func=_cmd_programs)

    passes = sub.add_parser("passes", help="list the pass alphabet")
    passes.set_defaults(func=_cmd_passes)

    motivate = sub.add_parser("motivate", help="print the Table 5.1 motivation")
    motivate.set_defaults(func=_cmd_motivate)

    compare = sub.add_parser("compare", help="compare tuners on one program")
    compare.add_argument("program")
    compare.add_argument("--tuners", default="citroen,random,ga,boca")
    compare.add_argument("--budget", type=int, default=60)
    compare.add_argument("--platform", choices=["arm-a57", "amd-x86"], default="arm-a57")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--jobs", type=_positive_int, default=1)
    _add_fault_flags(compare)
    _add_obs_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    watch = sub.add_parser(
        "watch",
        help="live terminal dashboard over a traced run directory: "
        "iteration progress, incumbent curve, cache/failure/quarantine/"
        "GP counters, ETA; works on running, killed, and resumed runs "
        "(polls the WAL and events.jsonl incrementally)",
    )
    watch.add_argument(
        "run_dir",
        help="a --trace-out directory (may not exist yet; watching starts "
        "when the run's first artifact lands)",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll interval (default 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scriptable status check; "
        "exit code 3 when the run ended interrupted)",
    )
    watch.add_argument(
        "--frames", type=_positive_int, default=None, metavar="N",
        help="stop after N frames even if the run is still going",
    )
    watch.add_argument(
        "--json", action="store_true",
        help="print one machine-readable WatchState snapshot as JSON and "
        "exit (implies --once; exit code 3 when the run ended interrupted)",
    )
    watch.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    watch.set_defaults(func=_cmd_watch)

    analyze = sub.add_parser(
        "analyze",
        help="render a markdown report (spans, calibration, provenance, "
        "convergence) from a recorded run directory",
    )
    analyze.add_argument(
        "run_dir",
        help="a --trace-out directory (tune or compare), or a directory "
        "of runs (the latest by manifest timestamp is selected)",
    )
    analyze.add_argument(
        "--out", default=None, metavar="FILE", help="also write the report to FILE"
    )
    analyze.add_argument(
        "--chrome-trace", default=None, metavar="FILE",
        help="also export the run's spans as Chrome Trace Event JSON "
        "(loads in Perfetto / chrome://tracing)",
    )
    analyze.add_argument(
        "--prometheus", default=None, metavar="FILE",
        help="also export the run's metrics.json as Prometheus text "
        "exposition (labeled with program/tuner/seed)",
    )
    analyze.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    analyze.set_defaults(func=_cmd_analyze)

    explain = sub.add_parser(
        "explain",
        help="attribute a recorded run's speedup to individual passes: "
        "replay the incumbent with per-pass tracing, then measure "
        "leave-one-out and prefix ablations on the deterministic cost "
        "model (writes explain.json into the run dir)",
    )
    explain.add_argument(
        "run_dir",
        help="a --trace-out directory with a result.json (or a directory "
        "of runs; the latest is selected)",
    )
    explain.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the markdown report to FILE",
    )
    explain.add_argument(
        "--chrome-trace", default=None, metavar="FILE",
        help="also export the replay's pass.* spans as Chrome Trace "
        "Event JSON",
    )
    explain.add_argument(
        "--no-prefixes", action="store_true",
        help="skip the prefix-replay curve (faster; leave-one-out "
        "attribution and no-op detection still run)",
    )
    explain.add_argument(
        "--no-json", action="store_true",
        help="do not write explain.json into the run directory",
    )
    explain.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    explain.set_defaults(func=_cmd_explain)

    obs = sub.add_parser(
        "obs",
        help="fleet warehouse: index recorded runs into sqlite, query "
        "cross-revision history",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_index = obs_sub.add_parser(
        "index",
        help="ingest run directories (tune or compare parents) and run "
        "collections; re-indexing a path refreshes its row",
    )
    obs_index.add_argument(
        "paths", nargs="+", metavar="RUNS",
        help="run directories",
    )
    obs_index.add_argument(
        "--db", default="warehouse.sqlite", metavar="FILE",
        help="warehouse sqlite file (created on first use; "
        "default warehouse.sqlite)",
    )
    obs_index.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    obs_index.set_defaults(func=_cmd_obs_index)
    obs_history = obs_sub.add_parser(
        "history",
        help="print the speedup/wall trajectory of indexed runs across "
        "git revisions",
    )
    obs_history.add_argument(
        "--benchmark", default=None, metavar="PROGRAM",
        help="restrict to one benchmark program (default: all)",
    )
    obs_history.add_argument(
        "--passes", action="store_true",
        help="aggregate the fleet's per-pass attribution instead: which "
        "passes appear in winning configurations, how often they change "
        "the IR, and their marginal runtime contribution (fed by "
        "explained runs; see `repro explain`)",
    )
    obs_history.add_argument(
        "--db", default="warehouse.sqlite", metavar="FILE",
        help="warehouse sqlite file (default warehouse.sqlite)",
    )
    obs_history.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    obs_history.set_defaults(func=_cmd_obs_history)

    diff = sub.add_parser(
        "diff",
        help="compare two recorded runs; prints a verdict JSON and exits "
        "non-zero when run B regresses past the thresholds (CI gate)",
    )
    diff.add_argument(
        "run_a",
        help="baseline run directory; with --against, the *candidate* "
        "run judged against the warehouse",
    )
    diff.add_argument(
        "run_b", nargs="?", default=None,
        help="candidate run directory, judged against A (omit when using "
        "--against)",
    )
    diff.add_argument(
        "--against", default=None, metavar="warehouse:last-N",
        help="judge RUN_A against the rolling fleet baseline: the "
        "per-metric median of the warehouse's last N completed runs of "
        "the same program (see `repro obs index`)",
    )
    diff.add_argument(
        "--db", default="warehouse.sqlite", metavar="FILE",
        help="warehouse sqlite file for --against (default warehouse.sqlite)",
    )
    diff.add_argument(
        "--max-runtime-ratio", type=float, default=1.05, metavar="R",
        help="fail if B's best runtime exceeds R x A's (default 1.05)",
    )
    diff.add_argument(
        "--max-wall-ratio", type=float, default=2.0, metavar="R",
        help="fail if B's traced wall time exceeds R x A's (default 2.0)",
    )
    diff.add_argument(
        "--max-cache-hit-drop", type=float, default=0.2, metavar="D",
        help="fail if B's compile-cache hit rate drops more than D below "
        "A's (default 0.2)",
    )
    diff.add_argument(
        "--max-calibration-ratio", type=float, default=1.5, metavar="R",
        help="fail if B's surrogate-calibration RMSE exceeds R x A's "
        "(default 1.5)",
    )
    diff.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="also write the verdict JSON to FILE",
    )
    diff.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info"
    )
    diff.set_defaults(func=_cmd_diff)
    return parser


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    """The observability flag group shared by tune and compare."""
    grp = sub.add_argument_group("observability")
    grp.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="record run artifacts (manifest.json, events.jsonl, "
        "metrics.json, result.json) into DIR and print the per-phase "
        "time breakdown; $REPRO_TRACE is the flag-less equivalent",
    )
    grp.add_argument(
        "--metrics-every", type=int, default=0, metavar="N",
        help="emit a metrics snapshot trace event (and a debug log line) "
        "every N measurements (0 disables)",
    )
    grp.add_argument(
        "--no-diagnostics", action="store_true",
        help="disable CITROEN's per-iteration decision records and "
        "generator provenance counters (histories are bit-identical "
        "either way; this only drops the introspection data)",
    )
    grp.add_argument(
        "--pipeline-trace", choices=["off", "incumbents", "all"],
        default="off",
        help="per-pass compiler observability: after a live measurement, "
        "recompile its modules with a PassTrace and emit pass.* spans "
        "(timing, changed flag, stats delta, IR delta per pass). "
        "'incumbents' traces only best-so-far improvements (bounded "
        "overhead); 'all' traces every live measurement; tuning "
        "histories are bit-identical in every mode (needs --trace-out)",
    )
    grp.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="info",
        help="stdout verbosity; 'info' (default) is byte-compatible with "
        "the historical print() output",
    )


def _add_fault_flags(sub: argparse.ArgumentParser) -> None:
    """The chaos/fault-tolerance flag group shared by tune and compare."""
    grp = sub.add_argument_group("fault tolerance")
    grp.add_argument(
        "--inject-faults", default="none", metavar="KINDS",
        help="comma list of seeded fault classes to inject into candidate "
        "compiles: crash,hang,transient,miscompile (or 'all'/'none')",
    )
    grp.add_argument(
        "--fault-rate", type=float, default=0.05,
        help="per-candidate fault probability in [0,1] (default 0.05)",
    )
    grp.add_argument(
        "--fault-seed", type=int, default=0,
        help="chaos seed: same seed => identical faults, run after run",
    )
    grp.add_argument(
        "--fault-hang-seconds", type=float, default=0.25,
        help="sleep length of the 'hang' fault (default 0.25s)",
    )
    grp.add_argument(
        "--compile-timeout", type=float, default=None, metavar="SECONDS",
        help="per-candidate compile timeout; timed-out candidates are "
        "quarantined (defaults to half the hang delay when hangs are "
        "injected, otherwise off)",
    )
    grp.add_argument(
        "--kill-after-iter", type=_positive_int, default=None, metavar="N",
        help="chaos-test hook: SIGKILL this process immediately after the "
        "Nth live measurement's WAL record is durable (exercised by "
        "tests/chaos_resume.py; tune only)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
