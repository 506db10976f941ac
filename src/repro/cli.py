"""Command-line interface: run the headline experiments without pytest.

Usage::

    python -m repro schemes
    python -m repro bench      --scheme lsh --scheme algorithm1 --scheme linear-scan
    python -m repro build      --scheme algorithm1 --out /tmp/idx [--shards 4]
    python -m repro bench      --index /tmp/idx
    python -m repro bench      --scheme algorithm1 --shards 4
    python -m repro mutate     --index /tmp/idx --insert-random 8 --delete 3 17 --compact
    python -m repro serve      --index /tmp/idx --port 7878
    python -m repro tradeoff   --d 4096 --n 300 --gamma 4 --ks 1 2 3 4
    python -m repro baselines  --d 1024 --n 300
    python -m repro lemma8     --d 1024 --n 200 --rows 64 128 256
    python -m repro ledger     --log2d 1e8 --ks 1 2 3
    python -m repro demo

Every scheme is constructed through the registry
(:mod:`repro.registry`) from an :class:`~repro.api.IndexSpec` — there is
no scheme-specific construction code here.  ``bench`` compares any set
of registered schemes on one workload; ``--set key=value`` overrides a
parameter on every selected scheme that accepts it.

``build`` snapshots an index (optionally sharded) to a directory through
:mod:`repro.persistence`, recording the workload recipe in the manifest;
``bench --index DIR`` loads the snapshot, regenerates that workload, and
evaluates the loaded index — the save/load/serve path exercised by CI.

``serve --index DIR`` loads a snapshot (single or sharded, via
:func:`repro.persistence.load_any`) and serves it over TCP with adaptive
micro-batching — newline-delimited JSON requests, protocol and tuning
guide in ``docs/SERVING.md``.

``mutate --index DIR`` applies streaming inserts/deletes to a snapshot
(``--insert-random M``, ``--delete ID ...``), optionally forces a
compaction (``--compact``), and writes the mutated snapshot back
(tombstones + memtable + generation ride along) — the CI
mutate→compact→save→load→query smoke path.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Dict, List, Mapping, Optional

from repro.analysis.reporting import print_table
from repro.analysis.tradeoff import evaluate_spec, sweep_rounds
from repro.api import IndexSpec
from repro.registry import (
    available_schemes,
    filter_params,
    registry_rows,
    scheme_defaults,
)
from repro.workloads.spec import WorkloadSpec, make_workload

__all__ = ["main"]


def _planted(args: argparse.Namespace):
    return make_workload(
        "planted",
        WorkloadSpec(n=args.n, d=args.d, num_queries=args.queries, seed=args.seed),
        max_flips=max(1, args.d // 16),
    )


def _parse_overrides(pairs: Optional[List[str]]) -> Dict[str, object]:
    """``--set key=value`` pairs; values parsed as Python literals."""
    overrides: Dict[str, object] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw  # bare strings like mode=adaptive
    return overrides


def _spec_for(
    name: str,
    args: argparse.Namespace,
    extra: Optional[Mapping[str, object]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> IndexSpec:
    """A spec for ``name``: CLI geometry + row-specific + ``--set`` params,
    each filtered to the parameters the scheme accepts."""
    params: Dict[str, object] = {}
    geometry = {"gamma": args.gamma, "c1": args.c1, "c2": args.c2}
    for source in (geometry, extra or {}, overrides or {}):
        params.update(filter_params(name, source))
    return IndexSpec(scheme=name, params=params, seed=args.seed)


def _eval_gamma(spec: IndexSpec, args: argparse.Namespace) -> float:
    """The γ to judge success against: the spec's constructed gamma when
    the scheme has one (so ``--set gamma=...`` moves the success threshold
    with it), else the CLI's γ."""
    return float(spec.resolved_params().get("gamma", args.gamma))


def _summary_row(label: str, summary) -> Dict[str, object]:
    return {
        "scheme": label,
        "probes(mean)": round(summary.mean_probes, 1),
        "rounds(max)": summary.max_rounds,
        "success": round(summary.success_rate, 2),
        "cells=n^c": summary.extras.get("cells=n^c"),
    }


def _cmd_schemes(args: argparse.Namespace) -> int:
    print_table("Registered schemes (repro.registry)", registry_rows())
    return 0


def _workload_extras(args: argparse.Namespace) -> Dict[str, object]:
    """The workload recipe a ``build`` manifest records so ``bench
    --index`` can regenerate the exact same planted workload."""
    return {
        "workload": {
            "n": args.n,
            "d": args.d,
            "queries": args.queries,
            "seed": args.seed,
        }
    }


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.index import ANNIndex
    from repro.service.sharded import ShardedANNIndex

    wl = _planted(args)
    overrides = _parse_overrides(args.set)
    spec = _spec_for(args.scheme, args, overrides=overrides).replace(boost=args.boost)
    if args.shards > 1:
        index = ShardedANNIndex.build(
            wl.database, spec, shards=args.shards, warm=not args.cold
        )
        cells = index.size_report().table_cells
    else:
        index = ANNIndex.from_spec(wl.database, spec)
        if not args.cold:
            index.prepare()
        cells = index.size_report().table_cells
    path = index.save(args.out, extras=_workload_extras(args))
    print_table(
        f"Built index → {path}",
        [{
            "scheme": args.scheme,
            "shards": args.shards,
            "n": args.n,
            "d": args.d,
            "seed": index.spec.seed,
            "cells": cells,
        }],
    )
    return 0


def _bench_index(args: argparse.Namespace) -> int:
    """``bench --index DIR``: evaluate a loaded snapshot."""
    from repro.analysis.tradeoff import evaluate_index
    from repro.persistence import load_any, read_manifest

    manifest = read_manifest(args.index)
    recorded = manifest.get("extras", {}).get("workload")
    if recorded:
        for key in ("n", "d", "queries", "seed"):
            setattr(args, key, recorded[key])
    wl = _planted(args)
    index = load_any(args.index)
    parts = getattr(index, "shards", None) or [index]
    if any(p.generation > 0 or p.mutation.dirty_count for p in parts):
        raise SystemExit(
            f"index {args.index} has been mutated (insert/delete/compact), so "
            "the workload recorded at build time no longer matches its live "
            "rows; bench a fresh, unmutated build instead"
        )
    if len(index) != len(wl.database) or index.d != wl.database.d:
        raise SystemExit(
            f"index {args.index} was built for n={len(index)}, d={index.d}; "
            f"the bench workload has n={len(wl.database)}, d={wl.database.d} "
            "(pass matching --n/--d/--seed or rebuild)"
        )
    summary = evaluate_index(index, wl)
    spec = index.spec
    gamma = float(spec.resolved_params().get("gamma", args.gamma)) if spec else args.gamma
    rows = [{**_summary_row(summary.scheme, summary), "γ": gamma}]
    print_table(
        f"Bench (loaded index {args.index}, n={args.n}, d={args.d})", rows
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.index:
        if args.scheme:
            raise SystemExit("--index benches a snapshot; drop --scheme")
        return _bench_index(args)
    if not args.scheme:
        raise SystemExit("bench needs --scheme NAME (repeatable) or --index DIR")
    wl = _planted(args)
    overrides = _parse_overrides(args.set)
    # An override no selected scheme accepts is a typo, not a preference.
    accepted_anywhere = set()
    for name in args.scheme:
        accepted_anywhere.update(scheme_defaults(name))
    unused = sorted(set(overrides) - accepted_anywhere)
    if unused:
        raise SystemExit(
            f"--set key(s) accepted by none of the selected schemes: "
            f"{', '.join(unused)}"
        )
    rows = []
    for name in args.scheme:
        spec = _spec_for(name, args, overrides=overrides)
        gamma = _eval_gamma(spec, args)
        if args.shards > 1:
            from repro.analysis.tradeoff import evaluate_index
            from repro.service.sharded import ShardedANNIndex

            sharded = ShardedANNIndex.build(wl.database, spec, shards=args.shards)
            summary = evaluate_index(sharded, wl, gamma)
            label = summary.scheme
        else:
            summary = evaluate_spec(spec, wl, gamma, batch=args.batch)
            label = name
        # γ is a per-row fact: --set gamma=... moves it for the schemes
        # that accept it, while gamma-less schemes keep the CLI value.
        rows.append({**_summary_row(label, summary), "γ": gamma})
    print_table(f"Bench (n={args.n}, d={args.d}, planted workload)", rows)
    return 0


def _write_ready_file(path, host: str, port: int) -> None:
    """Write a ``host port`` ready file atomically (temp + rename).

    Harnesses poll for this file and read it the moment it appears; a
    bare ``write_text`` can be caught between create and write, handing
    the reader an empty or half-written address.  The rename makes the
    file appear with its full contents or not at all.
    """
    import os
    from pathlib import Path

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{host} {port}\n")
    os.replace(tmp, target)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve --index DIR``: online serving with adaptive micro-batching."""
    import asyncio

    from repro.persistence import load_any
    from repro.service.server import describe_index, serve

    index = load_any(
        args.index, load_mode=args.load_mode, memory_budget=args.memory_budget
    )
    info = describe_index(index)

    def ready(host: str, port: int) -> None:
        budget = (
            f", budget={args.memory_budget}B" if args.memory_budget else ""
        )
        print(
            f"serving {info['scheme']} (n={info['n']}, d={info['d']}, "
            f"load_mode={args.load_mode}{budget}) "
            f"on {host}:{port}  [max_batch={args.max_batch}, "
            f"max_wait_ms={args.max_wait_ms:g}] — send {{\"op\": \"shutdown\"}} "
            "or Ctrl-C to stop",
            flush=True,
        )
        if args.ready_file:
            _write_ready_file(args.ready_file, host, port)

    try:
        asyncio.run(
            serve(
                index,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                ready_cb=ready,
                snapshot_dir=args.index,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    """``shard-serve --index DIR --shard I``: serve one shard's index.

    The snapshot must hold a single :class:`ANNIndex` (e.g. the
    ``shard-0000`` subdirectory of a sharded snapshot).  The replica's
    write sequencer starts at the snapshot's recorded ``write_seq``, so
    a router replays exactly the log tail on catch-up.

    ``--snapshot-dir DIR`` separates the replica's *checkpoints* from
    the shared ``--index`` snapshot: a bare ``snapshot`` request saves
    there, and a restart reloads the checkpoint when one exists (falling
    back to ``--index``).  Give every replica of a shard its own
    directory — without it, siblings serving the same ``--index`` would
    checkpoint over each other's files.
    """
    import asyncio
    from pathlib import Path

    from repro.core.index import ANNIndex
    from repro.persistence import MANIFEST_FILE, snapshot_write_seq
    from repro.service.server import describe_index, serve

    if args.memory_budget:
        print(
            "note: --memory-budget is inert for shard-serve (one shard per "
            "process leaves nothing to evict); use --load-mode mmap to keep "
            "this shard out-of-core",
            file=sys.stderr,
        )
    snapshot_dir = args.snapshot_dir or args.index
    source = args.index
    if args.snapshot_dir and (Path(args.snapshot_dir) / MANIFEST_FILE).is_file():
        # The replica has checkpointed before: its own snapshot is at
        # least as recent as the shared --index one, and the router's
        # WAL may have been truncated to the checkpoint's coverage —
        # restarting from the older snapshot could leave a gap no log
        # entry can fill.
        source = args.snapshot_dir
    index = ANNIndex.load(source, load_mode=args.load_mode)
    initial_seq = snapshot_write_seq(source)
    info = describe_index(index)

    def ready(host: str, port: int) -> None:
        print(
            f"shard {args.shard}: serving {info['scheme']} "
            f"(n={info['n']}, d={info['d']}, write_seq={initial_seq}, "
            f"load_mode={args.load_mode}) "
            f"on {host}:{port}",
            flush=True,
        )
        if args.ready_file:
            _write_ready_file(args.ready_file, host, port)

    try:
        asyncio.run(
            serve(
                index,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                ready_cb=ready,
                shard_id=args.shard,
                initial_seq=initial_seq,
                snapshot_dir=snapshot_dir,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """``route --shard 0=H:P,H:P ...``: run the cluster router.

    ``--log-dir DIR`` makes the write log durable (one WAL segment per
    shard); ``--recover`` replays existing segments at startup so a
    killed router resumes exactly where it died.  ``--supervise
    --index SNAPSHOT`` flips the command into a self-contained launcher:
    it spawns ``--replicas`` shard servers per shard from the sharded
    snapshot, respawns any that die (the health loop catches them up by
    replay), and routes over them — no hand-built ``--shard`` map.
    """
    import asyncio

    from repro.service.cluster import parse_shard_map, serve_router

    if args.recover and not args.log_dir:
        raise SystemExit("--recover needs --log-dir DIR")
    supervisor = None
    fleet = None
    if args.supervise:
        if not args.index:
            raise SystemExit("--supervise needs --index SNAPSHOT_DIR")
        if args.shard:
            raise SystemExit(
                "--supervise spawns its own shard servers; drop the --shard "
                "specs (or drop --supervise to route over external servers)"
            )
        from repro.service.harness import ShardFleet

        fleet = ShardFleet(
            args.index,
            replicas=args.replicas,
            load_mode=args.load_mode,
            kernel=args.kernel,
        )
        shard_map = fleet.start()
        supervisor = fleet.check_respawn
    else:
        if args.index:
            raise SystemExit("--index only applies with --supervise")
        try:
            shard_map = parse_shard_map(args.shard or [])
        except ValueError as exc:
            raise SystemExit(str(exc))

    def ready(host: str, port: int) -> None:
        replicas = sum(len(group) for group in shard_map)
        durability = f", wal={args.log_dir}" if args.log_dir else ""
        print(
            f"routing {len(shard_map)} shard(s) × {replicas} replica(s) "
            f"on {host}:{port}  [timeout={args.timeout:g}s{durability}]",
            flush=True,
        )
        if args.ready_file:
            _write_ready_file(args.ready_file, host, port)

    try:
        asyncio.run(
            serve_router(
                shard_map,
                host=args.host,
                port=args.port,
                timeout=args.timeout,
                health_interval=args.health_interval,
                ready_cb=ready,
                log_dir=args.log_dir,
                recover=args.recover,
                supervisor=supervisor,
                supervise_interval=args.supervise_interval,
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        if fleet is not None:
            fleet.stop()
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    """``mutate --index DIR``: streaming inserts/deletes on a snapshot."""
    import numpy as np

    from repro.hamming.sampling import random_points
    from repro.persistence import load_any, read_manifest

    if not args.insert_random and not args.delete and not args.compact:
        raise SystemExit(
            "mutate needs --insert-random M, --delete ID ..., and/or --compact"
        )
    extras = read_manifest(args.index).get("extras", {})
    index = load_any(args.index)
    # Deletes run first: --delete ids refer to the on-disk snapshot's
    # numbering, and an insert that trips the amortized compaction would
    # renumber the rows out from under them.
    if args.delete:
        index.delete(args.delete)
    inserted = []
    if args.insert_random:
        rng = np.random.default_rng(args.mutate_seed)
        inserted = index.insert(random_points(rng, args.insert_random, index.d))
    if args.compact:
        index.compact()
    path = index.save(args.out or args.index, extras=extras)
    parts = getattr(index, "shards", None) or [index]
    generations = [shard.generation for shard in parts]
    print_table(
        f"Mutated index → {path}",
        [{
            "live": len(index),
            "id_space": index.id_space,
            "inserted": len(inserted),
            "deleted": len(args.delete),
            "generation(s)": ",".join(str(g) for g in generations),
            "tombstones": sum(s.mutation.tombstone_count for s in parts),
            "memtable": sum(len(s.mutation.memtable) for s in parts),
        }],
    )
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    wl = _planted(args)
    contenders = [
        ("lsh", "lsh", {}),
        ("algorithm1 k=1", "algorithm1", {"rounds": 1}),
        ("algorithm1 k=3", "algorithm1", {"rounds": 3}),
        ("fully-adaptive", "fully-adaptive", {}),
        ("linear-scan", "linear-scan", {}),
    ]
    rows = []
    for label, name, extra in contenders:
        summary = evaluate_spec(_spec_for(name, args, extra=extra), wl, args.gamma)
        rows.append(_summary_row(label, summary))
    print_table(f"Baselines (n={args.n}, d={args.d}, γ={args.gamma})", rows)
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    wl = _planted(args)
    drop = ("workload", "queries", "scheme")
    rows = []
    sweeps = [("Alg1", "algorithm1", args.ks)]
    if args.alg2_ks:
        sweeps.append(("Alg2", "algorithm2", args.alg2_ks))
    for label, name, ks in sweeps:
        params = filter_params(
            name, {"gamma": args.gamma, "c1": args.c1, "c2": args.c2}
        )
        for s in sweep_rounds(wl, name, ks, args.gamma, seed=args.seed, params=params):
            rows.append(
                {"scheme": label, **{k: v for k, v in s.row().items() if k not in drop}}
            )
    print_table(f"Tradeoff (n={args.n}, d={args.d}, γ={args.gamma})", rows)
    return 0


def _cmd_lemma8(args: argparse.Namespace) -> int:
    from repro.analysis.sandwich import verify_lemma8
    from repro.sketch.family import SketchFamily
    from repro.utils.intmath import num_levels
    from repro.utils.rng import RngTree
    import math

    wl = _planted(args)
    alpha = math.sqrt(min(4.0, args.gamma))
    levels = num_levels(args.d, alpha)
    rows = []
    for rows_count in args.rows:
        fam = SketchFamily(args.d, alpha, levels, rows_count, rng_tree=RngTree(args.seed))
        report = verify_lemma8(wl.database, fam, wl.queries)
        rows.append({"rows": rows_count,
                     "P[sandwich]": round(report.simultaneous_rate, 3)})
    print_table(f"Lemma 8 sandwich (n={args.n}, d={args.d})", rows)
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.lowerbound.roundelim import RoundEliminationLedger

    rows = []
    for k in args.ks:
        ledger = RoundEliminationLedger(
            gamma=args.gamma, k=k, log2_n=args.log2d**2, log2_d=args.log2d
        )
        t_star, result = ledger.implied_lower_bound()
        rows.append({"k": k, "m": ledger.m, "regime_ok": ledger.regime_ok,
                     "xi": round(result.xi, 3), "t*": round(t_star, 4),
                     "t*/xi": round(t_star / result.xi, 4) if result.xi else None})
    print_table(f"Round-elimination ledger (log2 d = {args.log2d:g})", rows)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import ANNIndex, PackedPoints
    from repro.hamming.sampling import flip_random_bits, random_points

    rng = np.random.default_rng(2016)
    n, d = 300, 1024
    db = PackedPoints(random_points(rng, n, d), d)
    index = ANNIndex.from_spec(db, IndexSpec.preset("paper", seed=7))
    rows = []
    for i in range(8):
        q = flip_random_bits(rng, db.row(int(rng.integers(0, n))), int(rng.integers(0, 40)), d)
        res = index.query_packed(q)
        rows.append({"query": i, "probes": res.probes, "rounds": res.rounds,
                     "ratio": res.ratio(db, q), "path": res.meta.get("path")})
    print_table(f"Demo: preset 'paper' (k=3 rounds), n={n}, d={d}, γ=4", rows)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.devtools import (
        ALL_CHECKERS,
        baseline_payload,
        format_json,
        format_text,
        load_baseline,
        rule_ids,
        run_lint,
    )

    if args.select:
        valid = rule_ids()
        for rule in args.select:
            if rule.upper() not in valid:
                raise SystemExit(
                    f"unknown lint rule {rule!r}; available: {', '.join(valid)}"
                )
    root = Path(args.root) if args.root else Path(repro.__file__).parent
    if not root.is_dir():
        raise SystemExit(f"lint root {root} is not a directory")
    baseline = load_baseline(Path(args.baseline)) if args.baseline else None
    result = run_lint(root, ALL_CHECKERS, select=args.select, baseline=baseline)
    if args.write_baseline:
        import json as _json

        Path(args.write_baseline).write_text(
            _json.dumps(baseline_payload(result), indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result))
    return 0 if result.clean else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Limited-adaptivity ANNS reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=300)
        p.add_argument("--d", type=int, default=1024)
        p.add_argument("--gamma", type=float, default=4.0)
        p.add_argument("--queries", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--c1", type=float, default=8.0)
        # Default matches Algorithm2Params / the registry's c2 default.
        p.add_argument("--c2", type=float, default=6.0)

    def kernel_opt(p: argparse.ArgumentParser) -> None:
        from repro.hamming.kernels import available_kernels

        p.add_argument("--kernel", choices=available_kernels(), default=None,
                       help="popcount/distance kernel backend (default: env "
                            "REPRO_KERNEL, else 'cbits' when it builds, "
                            "else 'reference')")

    p = sub.add_parser("schemes", help="list the scheme registry")
    p.set_defaults(fn=_cmd_schemes)

    p = sub.add_parser("bench", help="compare any registered schemes on one workload")
    common(p)
    p.add_argument("--scheme", action="append",
                   choices=available_schemes(),
                   help="scheme to include (repeatable)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="parameter override applied to every scheme that accepts it")
    p.add_argument("--batch", action="store_true",
                   help="evaluate through the batched engine (same results)")
    p.add_argument("--index", metavar="DIR",
                   help="evaluate a saved index snapshot instead of building")
    p.add_argument("--shards", type=int, default=1,
                   help="serve each scheme through a ShardedANNIndex with S shards")
    kernel_opt(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("build", help="build an index and snapshot it to a directory")
    common(p)
    p.add_argument("--scheme", default="algorithm1", choices=available_schemes())
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="parameter override for the scheme")
    p.add_argument("--boost", type=int, default=1,
                   help="parallel-repetition copies")
    p.add_argument("--shards", type=int, default=1,
                   help="partition into S shards (ShardedANNIndex snapshot)")
    p.add_argument("--cold", action="store_true",
                   help="skip preprocessing warm-up before saving")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="snapshot directory to write")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser(
        "mutate", help="apply streaming inserts/deletes to a saved index"
    )
    p.add_argument("--index", required=True, metavar="DIR",
                   help="snapshot directory to mutate (single or sharded)")
    p.add_argument("--out", metavar="DIR",
                   help="write the mutated snapshot here (default: in place)")
    p.add_argument("--insert-random", type=int, default=0, metavar="M",
                   help="insert M uniform random points")
    p.add_argument("--delete", type=int, nargs="*", default=[], metavar="ID",
                   help="global row ids to delete (applied before any inserts, "
                        "against the snapshot's numbering)")
    p.add_argument("--compact", action="store_true",
                   help="force a compaction (rebuild from the survivors)")
    p.add_argument("--mutate-seed", type=int, default=0,
                   help="RNG seed for --insert-random points")
    p.set_defaults(fn=_cmd_mutate)

    def out_of_core(p: argparse.ArgumentParser, inert: str = "") -> None:
        note = f" ({inert})" if inert else ""
        p.add_argument("--load-mode", choices=("heap", "mmap"), default="heap",
                       help="how snapshot payloads load: heap materializes "
                            "everything, mmap maps format-v3 payloads "
                            f"zero-copy{note}")
        p.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                       help="evict least-recently-queried clean shards once "
                            f"resident bytes exceed this{note}")

    p = sub.add_parser(
        "serve", help="serve a saved index over TCP with adaptive micro-batching"
    )
    p.add_argument("--index", required=True, metavar="DIR",
                   help="snapshot directory to load (single or sharded)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="flush a micro-batch at this many pending queries")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="flush when the oldest pending query has waited this long")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write 'host port' here once listening (for scripts)")
    kernel_opt(p)
    out_of_core(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "shard-serve", help="serve one shard's index as a cluster replica"
    )
    p.add_argument("--index", required=True, metavar="DIR",
                   help="single-index snapshot to serve (e.g. shard-0000/)")
    p.add_argument("--shard", required=True, type=int,
                   help="this replica's shard number in the router's map")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="flush a micro-batch at this many pending queries")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="flush when the oldest pending query has waited this long")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write 'host port' here once listening (for scripts)")
    p.add_argument("--snapshot-dir", metavar="DIR",
                   help="this replica's own checkpoint directory: bare "
                        "'snapshot' requests save here, and a restart "
                        "reloads the checkpoint when one exists (defaults "
                        "to --index; required per replica when siblings "
                        "share an --index snapshot)")
    kernel_opt(p)
    out_of_core(p, inert="inert here: a single shard has nothing to evict")
    p.set_defaults(fn=_cmd_shard_serve)

    p = sub.add_parser(
        "route", help="route queries/writes across replicated shard servers"
    )
    p.add_argument("--shard", action="append",
                   metavar="I=HOST:PORT[,HOST:PORT...]",
                   help="shard I's replica endpoints (repeat per shard; "
                        "not used with --supervise)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-replica request timeout in seconds")
    p.add_argument("--health-interval", type=float, default=0.5,
                   help="seconds between replica health sweeps")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write 'host port' here once listening (for scripts)")
    p.add_argument("--log-dir", metavar="DIR",
                   help="durable write-ahead log directory (one fsync'd "
                        "segment per shard; see docs/DISTRIBUTED.md)")
    p.add_argument("--recover", action="store_true",
                   help="rebuild the write log from --log-dir's segments and "
                        "replay the gap to every replica before serving")
    p.add_argument("--supervise", action="store_true",
                   help="spawn and auto-respawn the shard servers from "
                        "--index instead of routing over external ones")
    p.add_argument("--index", metavar="DIR",
                   help="sharded snapshot --supervise launches shard "
                        "servers from")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas per shard under --supervise")
    p.add_argument("--supervise-interval", type=float, default=1.0,
                   help="seconds between supervisor respawn sweeps")
    kernel_opt(p)
    out_of_core(p, inert="accepted for launch-script symmetry; the router "
                         "holds no index, so both are inert here")
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("tradeoff", help="probes vs rounds k (E1/E2)")
    common(p)
    p.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--alg2-ks", type=int, nargs="*", default=[])
    p.set_defaults(fn=_cmd_tradeoff)

    p = sub.add_parser("baselines", help="LSH / scans / adaptive (E6)")
    common(p)
    p.set_defaults(fn=_cmd_baselines)

    p = sub.add_parser("lemma8", help="sandwich probability vs rows (E4)")
    common(p)
    p.add_argument("--rows", type=int, nargs="+", default=[64, 128, 256])
    p.set_defaults(fn=_cmd_lemma8)

    p = sub.add_parser("ledger", help="round-elimination ledger (E8)")
    p.add_argument("--log2d", type=float, default=1e8)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3])
    p.set_defaults(fn=_cmd_ledger)

    p = sub.add_parser("demo", help="run the quickstart example")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser(
        "lint",
        help="static analysis: check project invariants (see docs/DEVTOOLS.md)",
    )
    p.add_argument(
        "--root",
        default=None,
        help="package tree to lint (default: the installed repro package)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, e.g. --select R002)",
    )
    p.add_argument("--baseline", metavar="FILE",
                   help="JSON baseline of grandfathered findings to ignore")
    p.add_argument("--write-baseline", metavar="FILE",
                   help="write the current findings out as a baseline file")
    p.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # --kernel is applied here, centrally, so command handlers (and every
    # call site below them) stay backend-agnostic — the kernel seam's one
    # runtime switch (repro.hamming.set_kernel).
    kernel = getattr(args, "kernel", None)
    if kernel:
        from repro.hamming.kernels import set_kernel

        set_kernel(kernel)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
