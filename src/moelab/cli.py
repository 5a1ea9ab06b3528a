"""Command-line front end.

Subcommands: ``capacity`` (bound queries and curves), ``verify`` (oracle
suites), ``route-sim`` (routing statistics on sphere tokens), ``train-toy``
(toy MoE training), ``comm-sim`` (cluster communication model).

Artifact contract: CSV files carry a header row and plain ``repr`` floats;
every CSV gets a ``<name>.meta.json`` sidecar and every JSON output embeds
{tool, version, seed, config}, so a rerun with identical flags and seed is
byte-identical.  Existing outputs are never overwritten without --force.
Exit codes: 0 success, 1 verification or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__, capacity, defaults, verify
from .commsim import (
    ClusterTopology,
    ExpertPlacement,
    alltoall_cost,
    build_volume_matrix,
    compare_strategies,
    groupwise_alltoall_cost,
)
from .losses import LossConfig
from .router import (
    apply_capacity,
    build_block_gating,
    gate_scores,
    hash_route,
    route_top1,
    switch_route,
)
from .toymoe import (
    SyntheticCorpusConfig,
    assignment_report,
    entropy,
    make_synthetic_corpus,
    train,
)



class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_errors(where: str = ""):
    """Out-of-range values met while the arguments are resolved (a config
    dataclass rejecting them) are usage errors, not runtime failures."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{where}{exc}") from None


def _meta(seed, config: dict) -> dict:
    return {"tool": "moelab", "version": __version__, "seed": seed, "config": config}


def _check_overwrite(path: Path, force: bool):
    if path.exists() and not force:
        raise UsageError(f"refusing to overwrite {path} (pass --force)")


def _write_json(path: Path | None, payload: dict, force: bool):
    text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    _check_overwrite(path, force)
    path.write_text(text)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, rows, seed, config: dict, force: bool):
    """Write data rows plus the meta sidecar <path>.meta.json."""
    _check_overwrite(path, force)
    meta_path = path.with_name(path.name + ".meta.json")
    _check_overwrite(meta_path, force)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    meta_path.write_text(
        json.dumps(_meta(seed, config), sort_keys=True, indent=2, default=_jsonable) + "\n"
    )


def _read_json(path: str):
    """Parse a JSON input file; malformed JSON is a usage error."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not Path(path).exists():
        raise UsageError(f"config file {path} does not exist")
    return _read_json(path)


def _is_a(value, kind) -> bool:
    """JSON value type check: an int also serves a float, a bool never a number."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _json_fields(path: str, raw, fields: dict, what: str) -> dict:
    """The named fields of a JSON object, each checked against its type."""
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: expected a JSON object of {what} fields, got {type(raw).__name__}")
    for name, kind in fields.items():
        if name not in raw:
            raise UsageError(f"{path}: {what} field {name!r} is missing")
        if not _is_a(raw[name], kind):
            raise UsageError(f"{path}: {what} field {name}={raw[name]!r} is not of type {kind.__name__}")
    return {name: raw[name] for name in fields}


def _resolve_epochs(args, config: dict) -> int:
    epochs = _resolve(args, config, "epochs", defaults.DEFAULT_EPOCHS)
    if epochs < 1:
        raise UsageError(f"epochs must be >= 1, got {epochs}")
    return epochs


def _resolve_seed(args, config: dict) -> int:
    seed = _resolve(args, config, "seed", defaults.DEFAULT_SEED)
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    return seed


def _resolve(args, config: dict, key: str, default):
    """Flag value if given, else config-file value (of the flag's type; an
    int also serves a float flag and is kept as given), else default."""
    dest = key.replace("-", "_")
    value = getattr(args, dest, None)
    if value is None and key in config:
        value, kind = config[key], args.flag_types[dest]
        if not _is_a(value, kind):
            raise UsageError(f"config value {key}={value!r} is not of type {kind.__name__}")
    if value is None:
        return default
    # an infinite concentration is a corpus without jitter; no other flag means anything non-finite
    if isinstance(value, float) and not math.isfinite(value) and (key, value) != ("concentration", math.inf):
        raise UsageError(f"--{key} must be finite, got {value}")
    return value


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid expects START:STOP:COUNT, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --grid {spec!r}: {exc}") from None
    if count < 2 or not 0 < start < stop < 1:
        raise UsageError(f"--grid needs 0 < START < STOP < 1 and COUNT >= 2, got {spec!r}")
    return np.linspace(start, stop, count)


# --- subcommands ------------------------------------------------------------


def cmd_capacity(args) -> int:
    config = _load_config_file(args.config)
    dim = _resolve(args, config, "dim", None)
    experts = _resolve(args, config, "experts", None)
    if dim is None or experts is None:
        raise UsageError("capacity requires --dim and --experts")
    seed = _resolve_seed(args, config)
    out = Path(args.out) if args.out else None

    if args.grid:
        grid = _parse_grid(args.grid)
        if out is None:
            raise UsageError("--grid output is CSV; pass --out")
        resolved = {"dim": dim, "experts": experts, "grid": args.grid, "seed": seed}
        rows = [["delta", "p_delta", "ec_min", "erfc_bound", "exp_bound", "degenerate", "unbounded"]]
        for delta, res in capacity.capacity_curve(dim, experts, grid):
            rows.append([delta, res.p_delta, res.ec_min, res.erfc_bound,
                         res.exp_bound, res.degenerate, res.unbounded])
        _write_csv(out, rows, seed, resolved, args.force)
        return 0

    delta = _resolve(args, config, "delta", None)
    if delta is None:
        raise UsageError("capacity requires --delta (or --grid)")
    resolved = {"delta": delta, "dim": dim, "experts": experts, "seed": seed}
    res = capacity.ec_min(capacity.CapacityTheoryInput(delta, dim, experts))
    result = {
        "p_delta": res.p_delta,
        "ec_min": res.ec_min,
        "erfc_bound": res.erfc_bound,
        "exp_bound": res.exp_bound,
        "degenerate": res.degenerate,
        "unbounded": res.unbounded,
    }
    if args.mc_samples:
        est, stderr = capacity.mc_p_delta(delta, dim, args.mc_samples, seed=seed)
        result["mc_p_delta"] = {
            "estimate": est,
            "std_err": stderr,
            "n_samples": args.mc_samples,
            "z_vs_analytic": abs(est - res.p_delta) / max(stderr, 1e-300),
        }
    payload = _meta(seed, resolved)
    payload["result"] = result
    _write_json(out, payload, args.force)
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args, {})
    results = verify.run_checks(only=args.only, seed=seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def cmd_route_sim(args) -> int:
    config = _load_config_file(args.config)
    router = _resolve(args, config, "router", "block")
    tokens = _resolve(args, config, "tokens", 100_000)
    dim = _resolve(args, config, "dim", 64)
    experts = _resolve(args, config, "experts", 8)
    noise_std = _resolve(args, config, "noise-std", 0.0)
    cap_factor = _resolve(args, config, "capacity-factor", None)
    seed = _resolve_seed(args, config)
    if args.out is None:
        raise UsageError("route-sim requires --out")
    out = Path(args.out)
    resolved = {
        "router": router, "tokens": tokens, "dim": dim, "experts": experts,
        "noise_std": noise_std, "capacity_factor": cap_factor, "seed": seed,
    }

    batch = capacity.sample_unit_sphere(
        capacity.SphereSampleConfig(dim=dim, n_samples=tokens, seed=seed)
    )
    if router == "block":
        with _usage_errors():
            weights = build_block_gating(experts, dim)
        outcome = route_top1(gate_scores(batch.tokens, weights, noise_std, seed=seed))
    elif router == "switch":
        weights = np.random.default_rng(seed).standard_normal((experts, dim)) / np.sqrt(dim)
        outcome = switch_route(batch.tokens, weights)
    elif router == "hash":
        weights = None
        outcome = hash_route(batch.token_ids, experts)
    else:
        raise UsageError(f"unknown router {router!r}")
    if cap_factor is not None:
        cap_tokens = capacity.empirical_capacity(tokens, cap_factor, 1, experts)
        outcome = apply_capacity(outcome, cap_tokens)
        resolved["applied_capacity"] = cap_tokens

    assigned = outcome.assigned_counts()
    served = outcome.served_counts()
    rows = [["expert", "assigned", "served", "dropped", "f", "P"]]
    for i in range(experts):
        rows.append([i, int(assigned[i]), int(served[i]), int(assigned[i] - served[i]),
                     outcome.f[i], outcome.P[i]])
    _write_csv(out, rows, seed, resolved, args.force)

    if args.histograms:
        if weights is None:
            raise UsageError("--histograms needs a weight-based router (block or switch)")
        hist = capacity.cosine_histograms(batch, outcome, weights)
        hrows = [["kind", "expert_i", "expert_j", "bin_lo", "bin_hi", "count"]]
        hrows.extend(list(r) for r in hist.iter_rows())
        _write_csv(out.with_name(out.stem + ".histograms.csv"), hrows, seed, resolved, args.force)
    return 0


def _topology_from_json(path: str | None) -> ClusterTopology:
    if path is None:
        return defaults.DEFAULT_TOPOLOGY
    fields = typing.get_type_hints(ClusterTopology)  # name -> int or float
    values = _json_fields(path, _read_json(path), fields, "topology")
    with _usage_errors(f"{path}: "):
        return ClusterTopology(**values)


def _placement_from_json(path: str | None, n_experts: int, topology: ClusterTopology) -> ExpertPlacement:
    """From {"device_of_expert": [...]} or the bare list of device ids."""
    if path is None:
        with _usage_errors():
            return defaults.default_placement(n_experts, topology)
    raw = _read_json(path)
    if isinstance(raw, list):
        raw = {"device_of_expert": raw}
    devices = _json_fields(path, raw, {"device_of_expert": list}, "placement")["device_of_expert"]
    for d in devices:
        if not _is_a(d, int):
            raise UsageError(f"{path}: placement device id {d!r} is not of type int")
    with _usage_errors(f"{path}: "):
        return ExpertPlacement(tuple(devices))


def cmd_train_toy(args) -> int:
    config = _load_config_file(args.config)
    router = _resolve(args, config, "router", "loc")
    epochs = _resolve_epochs(args, config)
    lr = _resolve(args, config, "lr", defaults.DEFAULT_LR)
    alpha = _resolve(args, config, "alpha", defaults.DEFAULT_TRAIN_LOSSES.alpha)
    mu = _resolve(args, config, "mu", defaults.DEFAULT_TRAIN_LOSSES.mu)
    clusters = _resolve(args, config, "clusters", defaults.DEFAULT_CORPUS.n_clusters)
    dim = _resolve(args, config, "dim", defaults.DEFAULT_CORPUS.dim)
    experts = _resolve(args, config, "experts", defaults.DEFAULT_N_EXPERTS)
    nodes = _resolve(args, config, "nodes", defaults.DEFAULT_TOPOLOGY.n_nodes)
    tokens_per_cluster = _resolve(args, config, "tokens-per-cluster",
                                  defaults.DEFAULT_CORPUS.tokens_per_cluster)
    concentration = _resolve(args, config, "concentration", defaults.DEFAULT_CORPUS.concentration)
    seed = _resolve_seed(args, config)
    if args.out is None:
        raise UsageError("train-toy requires --out")
    out = Path(args.out)

    devices_per_node = _resolve(args, config, "devices-per-node",
                                defaults.DEFAULT_TOPOLOGY.devices_per_node)
    with _usage_errors():
        topology = dataclasses.replace(defaults.DEFAULT_TOPOLOGY, n_nodes=nodes,
                                       devices_per_node=devices_per_node)
        placement = defaults.default_placement(experts, topology)
        corpus_cfg = SyntheticCorpusConfig(
            n_clusters=clusters,
            dim=dim,
            tokens_per_cluster=tokens_per_cluster,
            concentration=concentration,
            seed=seed,
        )
        loss_cfg = LossConfig(alpha=alpha, mu=mu)
        if router == "loc":
            build_block_gating(experts, dim)  # dim must split evenly over the experts
    corpus = make_synthetic_corpus(corpus_cfg)
    resolved = {
        "router": router, "epochs": epochs, "lr": lr, "alpha": alpha, "mu": mu,
        "clusters": clusters, "dim": dim, "experts": experts, "nodes": nodes,
        "devices_per_node": devices_per_node, "tokens_per_cluster": tokens_per_cluster,
        "concentration": concentration, "seed": seed,
        "token_bytes": defaults.DEFAULT_TOKEN_BYTES,
    }
    run = train(
        corpus,
        router,
        experts,
        placement,
        topology,
        epochs=epochs,
        lr=lr,
        loss_cfg=loss_cfg,
        seed=seed,
    )

    n = experts
    header = (
        ["epoch", "step", "router"]
        + [f"count_{i}" for i in range(n)]
        + [f"f_{i}" for i in range(n)]
        + [f"P_{i}" for i in range(n)]
        + ["l_aux", "l_loc", "l_cross", "l_cross_mean", "l_task",
           "locality_fraction", "entropy"]
    )
    rows = [header]
    for rec in run.records:
        rows.append(
            [rec.epoch, rec.step, rec.router_kind]
            + [int(c) for c in rec.counts]
            + [v for v in rec.f]
            + [v for v in rec.P]
            + [rec.l_aux, rec.l_loc, rec.l_cross, rec.l_cross_mean, rec.l_task,
               rec.locality_fraction, entropy(rec.f)]
        )
    _write_csv(out, rows, seed, resolved, args.force)

    report = assignment_report(run.records)
    _write_csv(out.with_name(out.stem + ".report.csv"), report, seed, resolved, args.force)

    volume = build_volume_matrix(
        run.final_outcome, placement, defaults.DEFAULT_TOKEN_BYTES, run.source_device, topology
    )
    vrows = [[f"to_dev_{j}" for j in range(volume.shape[1])]]
    vrows.extend(list(row) for row in volume)
    _write_csv(out.with_name(out.stem + ".volumes.csv"), vrows, seed, resolved, args.force)
    return 0


def cmd_comm_sim(args) -> int:
    config = _load_config_file(args.config)
    seed = _resolve_seed(args, config)
    tp_group = _resolve(args, config, "tp-group", defaults.DEFAULT_TP_GROUP_SIZE)
    if args.out is None:
        raise UsageError("comm-sim requires --out")
    out = Path(args.out)
    topology = _topology_from_json(args.topology)
    with _usage_errors("--tp-group: "):
        topology.check_group_size(tp_group)

    if args.compare_routers:
        return _comm_sim_compare(args, config, topology, out, seed, tp_group)
    if args.volumes is None:
        raise UsageError("comm-sim requires --volumes (CSV path or from-run:PREFIX)")

    volumes_arg = args.volumes
    if volumes_arg.startswith("from-run:"):
        volumes_path = Path(volumes_arg[len("from-run:"):] + ".volumes.csv")
    else:
        volumes_path = Path(volumes_arg)
    if not volumes_path.exists():
        raise UsageError(f"volume matrix {volumes_path} does not exist")
    volume = np.loadtxt(volumes_path, delimiter=",", skiprows=1)
    if volume.ndim == 1:
        volume = volume.reshape(1, -1)

    resolved = {
        "topology": args.topology or "default",
        "volumes": str(volumes_path),
        "tp_group": tp_group,
        "seed": seed,
    }
    plain = alltoall_cost(volume, topology)
    grouped, plan = groupwise_alltoall_cost(volume, topology, tp_group)
    phase_bytes = {p.kind: 0.0 for p in plan.phases}
    for p in plan.phases:
        phase_bytes[p.kind] += p.total_bytes
    rows = [
        ["tp_group", "plain_alltoall_s", "groupwise_total_s",
         "dispatch_bytes", "allgather_bytes", "input_bytes"],
        [tp_group, plain, grouped,
         phase_bytes.get("all_to_all", 0.0), phase_bytes.get("all_gather", 0.0),
         float(volume.sum())],
    ]
    _write_csv(out, rows, seed, resolved, args.force)
    return 0


def _comm_sim_compare(args, config, topology, out, seed, tp_group) -> int:
    """Paired hash/switch/loc training runs compared under the cost model."""
    epochs = _resolve_epochs(args, config)
    experts = _resolve(args, config, "experts", defaults.DEFAULT_N_EXPERTS)
    tokens_per_cluster = _resolve(args, config, "tokens-per-cluster",
                                  defaults.DEFAULT_CORPUS.tokens_per_cluster)
    placement = _placement_from_json(args.placement, experts, topology)
    with _usage_errors():
        corpus_cfg = dataclasses.replace(defaults.DEFAULT_CORPUS,
                                         tokens_per_cluster=tokens_per_cluster, seed=seed)
        build_block_gating(experts, corpus_cfg.dim)  # checked before any run trains
    corpus = make_synthetic_corpus(corpus_cfg)
    resolved = {
        "compare_routers": True, "epochs": epochs, "experts": experts,
        "tokens_per_cluster": tokens_per_cluster, "tp_group": tp_group, "seed": seed,
        "token_bytes": defaults.DEFAULT_TOKEN_BYTES,
    }
    runs = {}
    for kind in ("hash", "switch", "loc"):
        loss_cfg = defaults.DEFAULT_TRAIN_LOSSES if kind == "loc" else LossConfig(alpha=0.0, mu=0.0)
        runs[kind] = train(
            corpus, kind, experts, placement, topology,
            epochs=epochs, lr=defaults.DEFAULT_LR, loss_cfg=loss_cfg, seed=seed,
        )
    report = compare_strategies(
        runs, placement, topology, defaults.DEFAULT_TOKEN_BYTES,
        tp_group_size=tp_group, overlap_ratio=defaults.DEFAULT_OVERLAP_RATIO,
    )
    header = ["router", "entropy", "locality_fraction", "plain_alltoall_s",
              "groupwise_alltoall_s", "modeled_compute_s", "visible_comm_s", "comm_share"]
    rows = [header]
    for row in report:
        kind = row["router"]
        rows.append([
            kind, entropy(runs[kind].records[-1].f), row["locality_fraction"],
            row["plain_alltoall_s"], row["groupwise_alltoall_s"],
            row["modeled_compute_s"], row["visible_comm_s"], row["comm_share"],
        ])
    _write_csv(out, rows, seed, resolved, args.force)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moelab",
        description="Routing, capacity-theory, toy-training and communication-model workbench.",
    )
    parser.add_argument("--version", action="version", version=f"moelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed (recorded in artifacts)")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--force", action="store_true", help="allow overwriting outputs")
    common.add_argument("--config", type=str, default=None, help="JSON config file; flags win")

    p = sub.add_parser("capacity", parents=[common], help="capacity bound queries and curves")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--grid", type=str, default=None, help="delta grid START:STOP:COUNT (CSV output)")
    p.add_argument("--mc-samples", type=int, default=None, help="cross-check with Monte Carlo")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("verify", parents=[seeded], help="run the oracle verification suites")
    p.add_argument("--only", type=str, default=None, help=f"one of: {', '.join(verify.CHECKS)}")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("route-sim", parents=[common], help="route sphere tokens, report statistics")
    p.add_argument("--router", type=str, default=None, choices=("block", "hash", "switch"))
    p.add_argument("--tokens", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--noise-std", type=float, default=None)
    p.add_argument("--capacity-factor", type=float, default=None)
    p.add_argument("--histograms", action="store_true", help="also write cosine histograms")
    p.set_defaults(fn=cmd_route_sim)

    p = sub.add_parser("train-toy", parents=[common], help="train the toy MoE")
    p.add_argument("--router", type=str, default=None, choices=("hash", "switch", "loc"))
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--devices-per-node", type=int, default=None)
    p.add_argument("--tokens-per-cluster", type=int, default=None)
    p.add_argument("--concentration", type=float, default=None)
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("comm-sim", parents=[common], help="evaluate the communication cost model")
    p.add_argument("--topology", type=str, default=None, help="topology JSON file")
    p.add_argument("--placement", type=str, default=None, help="placement JSON file")
    p.add_argument("--volumes", type=str, default=None, help="volume CSV or from-run:PREFIX")
    p.add_argument("--tp-group", type=int, default=None)
    p.add_argument("--compare-routers", action="store_true",
                   help="paired hash/switch/loc runs compared under the model")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--tokens-per-cluster", type=int, default=None)
    p.set_defaults(fn=cmd_comm_sim)

    for p in sub.choices.values():  # what _resolve checks config values against
        p.set_defaults(flag_types={a.dest: a.type for a in p._actions if a.type is not None})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
