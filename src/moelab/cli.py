"""Command-line front end.

Subcommands: ``capacity`` (bound queries and curves), ``verify`` (oracle
suites), ``route-sim`` (routing statistics on sphere tokens), ``train-toy``
(toy MoE training), ``comm-sim`` (cluster communication model).

Artifact contract: a command hands each CSV over as columns (header name to
a list or 1-d array of one type) and it is written a column at a time: a
header row, then cells printed by ``str`` (plain ``repr`` floats); every CSV
gets a ``<name>.meta.json`` sidecar and every JSON output embeds
{tool, version, seed, config}, so a rerun with identical flags and seed is
byte-identical.  A command checks all its output paths, and that their
directories exist, before it computes, and never overwrites one without --force.
Exit codes: 0 success, 1 verification or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
import typing
import warnings
from pathlib import Path

import numpy as np

from . import __version__, capacity, defaults, verify
from .commsim import (
    ClusterTopology,
    ExpertPlacement,
    alltoall_cost,
    build_volume_matrix,
    check_volume,
    compare_strategies,
    groupwise_alltoall_cost,
)
from .losses import LossConfig
from .router import build_block_gating, gate_scores, hash_route, route_top1
from .toymoe import (
    COMPARE_LOSSES,
    SyntheticCorpusConfig,
    compare_routers,
    entropy,
    make_synthetic_corpus,
    train,
)



class UsageError(Exception):
    pass


class _Default(int):
    """An int flag's default; the value given by flag or config file is a plain int."""


@contextlib.contextmanager
def _usage_errors(where: str = ""):
    """Out-of-range values met while a command checks its inputs (a config
    dataclass rejecting them) are usage errors, not runtime failures."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{where}{exc}") from None


def _meta(seed, config: dict) -> dict:
    return {"tool": "moelab", "version": __version__, "seed": seed, "config": config}


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _check_outputs(force: bool, *csv_paths: Path, json_path: Path | None = None):
    """Refuse an output (each CSV, its meta sidecar, the JSON file) whose
    directory is missing or not a directory, and, without --force, one that
    exists.  A command calls this once, before it computes, so a refusal
    writes nothing."""
    paths = [p for path in csv_paths for p in (path, _sidecar(path))]
    if json_path is not None:
        paths.append(json_path)
    for path in paths:
        if not path.parent.is_dir():
            why = "is not a directory" if path.parent.exists() else "does not exist"
            raise UsageError(f"cannot write {path}: {path.parent} {why}")
        if path.exists() and not force:
            raise UsageError(f"refusing to overwrite {path} (pass --force)")


def _write_json(path: Path | None, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    path.write_text(text)


def _write_csv(path: Path, columns: dict, seed, config: dict):
    """Write the column names, then a row per entry, and the sidecar <path>.meta.json.

    A column is a list or 1-d array of one type.  numpy gives it one dtype and
    ``str`` prints each entry (``repr`` for a float), so a list mixing ints and
    floats, or ints past int64, prints as floats, and a string loses any
    trailing NUL.  A table of only bool, int and float columns has no cell
    that needs quoting, so its rows are joined and written at once; any other
    goes through ``csv.writer``, as the header always does."""
    arrays = [np.asarray(col) for col in columns.values()]
    rows = zip(*(map(str, a.tolist()) for a in arrays))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        if all(a.dtype.kind in "biuf" for a in arrays):
            fh.write("".join(",".join(row) + "\n" for row in rows))
        else:
            writer.writerows(rows)
    _sidecar(path).write_text(json.dumps(_meta(seed, config), sort_keys=True, indent=2) + "\n")


def _numbered(prefix: str, matrix: np.ndarray) -> dict:
    """The columns of a matrix as CSV columns named prefix_0, prefix_1, ..."""
    return {f"{prefix}_{j}": col for j, col in enumerate(matrix.T)}


def _read_json(path: str):
    """Parse a JSON input file; an unreadable file or malformed JSON is a usage error."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


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


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values for the command's value-taking flags, by dest.

    A key is a flag name without its dashes; keys that name no such flag are
    ignored.  A value must have its flag's type (an int also serves a float
    flag), is then converted by that type as the flag's value is (an int too
    large for a float is a usage error), and must be one of the flag's
    choices, if it has any.
    """
    config = _read_json(path)
    if not isinstance(config, dict):
        raise UsageError(f"config file {path}: expected a JSON object, got {type(config).__name__}")
    values = {}
    for action in command._actions:
        key = action.dest.replace("_", "-")
        if action.nargs == 0 or key not in config:
            continue
        value = config[key]
        if not _is_a(value, action.type):
            raise UsageError(f"config value {key}={value!r} is not of type {action.type.__name__}")
        try:
            value = action.type(value)
        except OverflowError:
            raise UsageError(f"config value {key} is too large for a {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config value {key}={value!r} is not one of {', '.join(action.choices)}")
        values[action.dest] = value
    return values


def _check_args(args):
    """The checks every command shares, on flag and config-file values alike."""
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "epochs", 1) < 1:
        raise UsageError(f"epochs must be >= 1, got {args.epochs}")
    for dest, value in vars(args).items():
        # an infinite concentration is a corpus without jitter; no other flag means anything non-finite
        if (isinstance(value, float) and not math.isfinite(value)
                and (dest, value) != ("concentration", math.inf)):
            raise UsageError(f"--{dest.replace('_', '-')} must be finite, got {value}")


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
    grid = np.linspace(start, stop, count)
    if not (np.diff(grid) > 0).all():
        raise UsageError(f"--grid {spec!r} does not give strictly increasing values: "
                         "COUNT is too large for STOP - START")
    return grid


# --- subcommands ------------------------------------------------------------


def cmd_capacity(args) -> int:
    if args.dim is None or args.experts is None:
        raise UsageError("capacity requires --dim and --experts")
    grid = _parse_grid(args.grid) if args.grid else None
    out = Path(args.out) if args.out else None
    if grid is not None and out is None:
        raise UsageError("--grid output is CSV; pass --out")
    if grid is None and args.delta is None:
        raise UsageError("capacity requires --delta (or --grid)")
    for flag, value in (("--delta", args.delta), ("--mc-samples", args.mc_samples)):
        if grid is not None and value is not None:
            raise UsageError(f"{flag} does not apply with --grid")
    if args.mc_samples is not None and args.mc_samples < 1:
        raise UsageError(f"--mc-samples must be >= 1, got {args.mc_samples}")
    if args.mc_samples is not None and args.mc_samples > sys.maxsize:
        raise UsageError(f"--mc-samples must be <= {sys.maxsize}, numpy's largest length")

    if grid is not None:
        _check_outputs(args.force, out)
        with _usage_errors():
            res = capacity.ec_min(grid, args.dim, args.experts)
        resolved = {"dim": args.dim, "experts": args.experts, "grid": args.grid, "seed": args.seed}
        _write_csv(out, {"delta": grid, **dataclasses.asdict(res)}, args.seed, resolved)
        return 0

    _check_outputs(args.force, json_path=out)
    with _usage_errors():
        res = capacity.ec_min(args.delta, args.dim, args.experts)
    resolved = {"delta": args.delta, "dim": args.dim, "experts": args.experts, "seed": args.seed}
    result = dataclasses.asdict(res)
    if args.mc_samples is not None:
        est, stderr = capacity.mc_p_delta(args.delta, args.dim, args.mc_samples, seed=args.seed)
        result["mc_p_delta"] = {
            "estimate": est,
            "std_err": stderr,
            "n_samples": args.mc_samples,
            "z_vs_analytic": abs(est - res.p_delta) / max(stderr, 1e-300),
        }
    payload = _meta(args.seed, resolved)
    payload["result"] = result
    _write_json(out, payload)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(only=args.only, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def cmd_route_sim(args) -> int:
    router, tokens, dim, experts, seed = args.router, args.tokens, args.dim, args.experts, args.seed
    if args.out is None:
        raise UsageError("route-sim requires --out")
    if args.histograms and router == "hash":
        raise UsageError("--histograms needs a weight-based router (block or switch)")
    if args.noise_std < 0:
        raise UsageError(f"--noise-std must be >= 0, got {args.noise_std}")
    if args.noise_std and router != "block":
        raise UsageError(f"--noise-std applies only to the block router, not {router}")
    if experts < 1:
        raise UsageError(f"n_experts must be >= 1, got {experts}")
    out = Path(args.out)
    hist_out = out.with_name(out.stem + ".histograms.csv")
    with _usage_errors():
        sphere = capacity.SphereSampleConfig(dim=dim, n_samples=tokens, seed=seed)
        if router == "block":
            weights, noise = build_block_gating(experts, dim), np.random.default_rng(seed)
            route = lambda batch: route_top1(gate_scores(batch.tokens, weights, args.noise_std, seed=noise))
        elif router == "switch":
            weights = np.random.default_rng(seed).standard_normal((experts, dim)) / np.sqrt(dim)
            route = lambda batch: route_top1(batch.tokens @ weights.T)
        else:
            weights, route = None, lambda batch: hash_route(batch.token_ids, experts)
        cap_tokens = (None if args.capacity_factor is None
                      else capacity.empirical_capacity(tokens, args.capacity_factor, 1, experts))
    resolved = {
        "router": router, "tokens": tokens, "dim": dim, "experts": experts,
        "noise_std": args.noise_std, "capacity_factor": args.capacity_factor, "seed": seed,
    }
    _check_outputs(args.force, out, *([hist_out] if args.histograms else []))

    assigned, served, p_mean, hist = capacity.route_sphere(sphere, route, experts, cap_tokens,
                                                           weights if args.histograms else None)
    if cap_tokens is not None:
        resolved["applied_capacity"] = cap_tokens
    _write_csv(out, {"expert": np.arange(experts), "assigned": assigned, "served": served,
                     "dropped": assigned - served, "f": assigned / tokens, "P": p_mean}, seed, resolved)

    if args.histograms:
        # token_pair rows over (i, j, bin), then weight_routed and weight_other over (i, bin)
        i, j, pair_bin = (a.ravel() for a in np.indices(hist.pair_counts.shape))
        w, w_bin, kind = (a.ravel() for a in np.indices((*hist.routed_counts.shape, 2)))
        bins = np.concatenate([pair_bin, w_bin])
        _write_csv(hist_out, {
            "kind": np.concatenate([np.full(i.size, "token_pair"), np.array(["weight_routed", "weight_other"])[kind]]),
            "expert_i": np.concatenate([i, w]),
            "expert_j": np.concatenate([j, w]),
            "bin_lo": hist.bin_edges[bins],
            "bin_hi": hist.bin_edges[bins + 1],
            "count": np.concatenate([hist.pair_counts.ravel(),
                                     np.stack([hist.routed_counts, hist.nonrouted_counts], axis=-1).ravel()]),
        }, seed, resolved)
    return 0


_TOPOLOGY_FIELDS = typing.get_type_hints(ClusterTopology)  # name -> int or float


def _topology_from_json(path: str | None) -> ClusterTopology:
    if path is None:
        return defaults.DEFAULT_TOPOLOGY
    values = _json_fields(path, _read_json(path), _TOPOLOGY_FIELDS, "topology")
    for name, value in values.items():  # JSON's NaN and Infinity parse as floats
        if not math.isfinite(value):
            raise UsageError(f"{path}: topology field {name} must be finite, got {value}")
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
        placement = ExpertPlacement(tuple(devices))
        if placement.n_experts != n_experts:
            raise ValueError(f"placement covers {placement.n_experts} experts, expected {n_experts}")
        placement.expert_nodes(topology)  # every device lies in the topology
    return placement


def cmd_train_toy(args) -> int:
    if args.out is None:
        raise UsageError("train-toy requires --out")
    out = Path(args.out)
    report_out, volumes_out = (out.with_name(out.stem + suffix) for suffix in (".report.csv", ".volumes.csv"))
    _check_outputs(args.force, out, report_out, volumes_out)
    experts, seed = args.experts, args.seed
    with _usage_errors():
        topology = dataclasses.replace(defaults.DEFAULT_TOPOLOGY, n_nodes=args.nodes,
                                       devices_per_node=args.devices_per_node)
        placement = defaults.default_placement(experts, topology)
        corpus_cfg = SyntheticCorpusConfig(
            n_clusters=args.clusters,
            dim=args.dim,
            tokens_per_cluster=args.tokens_per_cluster,
            concentration=args.concentration,
            seed=seed,
        )
        loss_cfg = LossConfig(alpha=args.alpha, mu=args.mu)
        if args.router == "loc":
            build_block_gating(experts, args.dim)  # dim must split evenly over the experts
        corpus = make_synthetic_corpus(corpus_cfg)
    resolved = {
        "router": args.router, "epochs": args.epochs, "lr": args.lr, "alpha": args.alpha,
        "mu": args.mu, "clusters": args.clusters, "dim": args.dim, "experts": experts,
        "nodes": args.nodes, "devices_per_node": args.devices_per_node,
        "tokens_per_cluster": args.tokens_per_cluster, "concentration": args.concentration,
        "seed": seed, "token_bytes": defaults.DEFAULT_TOKEN_BYTES,
    }
    with np.errstate(all="ignore"):  # a diverging run reports itself by its error line alone
        run = train(corpus, args.router, experts, placement, topology,
                    epochs=args.epochs, lr=args.lr, loss_cfg=loss_cfg, seed=seed)

    records = run.records
    counts = np.array([rec.counts for rec in records])
    # run.csv and run.report.csv share each epoch's lead columns; step is always 0,
    # as the toy takes one full-batch step per epoch
    lead = {"epoch": [rec.epoch for rec in records], "step": [0] * len(records),
            "router": [run.router_kind] * len(records), **_numbered("count", counts)}
    ent = [entropy(rec.f) for rec in records]
    locality = [rec.locality_fraction for rec in records]
    l_cross = [rec.l_cross_mean * corpus.n_tokens for rec in records]  # the summed cross-entropy
    _write_csv(out, {
        **lead, **_numbered("f", np.array([rec.f for rec in records])),
        **_numbered("P", np.array([rec.P for rec in records])),
        "l_aux": [rec.l_aux for rec in records], "l_loc": [rec.l_loc for rec in records],
        "l_cross": l_cross, "l_cross_mean": [rec.l_cross_mean for rec in records],
        "l_task": [rec.l_aux + rec.l_loc + total for rec, total in zip(records, l_cross)],
        "locality_fraction": locality, "entropy": ent,
    }, seed, resolved)
    seen = np.logical_or.accumulate(counts > 0)  # experts used in this epoch or an earlier one
    _write_csv(report_out, {**lead, "entropy": ent, "never_used_fraction": (~seen).mean(axis=1),
                            "locality_fraction": locality}, seed, resolved)

    volume = build_volume_matrix(
        run.final_outcome, placement, defaults.DEFAULT_TOKEN_BYTES, run.source_device, topology
    )
    _write_csv(volumes_out, _numbered("to_dev", volume), seed, resolved)
    return 0


def cmd_comm_sim(args) -> int:
    if args.out is None:
        raise UsageError("comm-sim requires --out")
    if args.compare_routers and args.volumes is not None:
        raise UsageError("--volumes does not apply with --compare-routers")
    for dest in ("placement", "epochs", "experts", "tokens_per_cluster"):
        if not args.compare_routers and not isinstance(getattr(args, dest), (type(None), _Default)):
            raise UsageError(f"--{dest.replace('_', '-')} applies only with --compare-routers")
    out = Path(args.out)
    _check_outputs(args.force, out)
    topology = _topology_from_json(args.topology)
    with _usage_errors("--tp-group: "):
        topology.check_group_size(args.tp_group)

    if args.compare_routers:
        return _comm_sim_compare(args, topology, out)
    if args.volumes is None:
        raise UsageError("comm-sim requires --volumes (CSV path or from-run:PREFIX)")

    if args.volumes.startswith("from-run:"):
        volumes_path = Path(args.volumes[len("from-run:"):] + ".volumes.csv")
    else:
        volumes_path = Path(args.volumes)
    try:
        with volumes_path.open() as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # check_volume rejects it
            volume = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read {volumes_path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise UsageError(f"{volumes_path}: {exc}") from None
    with _usage_errors(f"{volumes_path}: "):
        volume = check_volume(volume, topology)

    resolved = {
        "topology": args.topology or "default",
        "volumes": str(volumes_path),
        "tp_group": args.tp_group,
        "seed": args.seed,
    }
    plain = alltoall_cost(volume, topology)
    grouped, plan = groupwise_alltoall_cost(volume, topology, args.tp_group)
    phase_bytes = {p.kind: p.total_bytes for p in plan.phases}  # a plan has at most one phase per kind
    _write_csv(out, {
        "tp_group": [args.tp_group], "plain_alltoall_s": [plain], "groupwise_total_s": [grouped],
        "dispatch_bytes": [phase_bytes.get("all_to_all", 0.0)],
        "allgather_bytes": [phase_bytes.get("all_gather", 0.0)], "input_bytes": [float(volume.sum())],
    }, args.seed, resolved)
    return 0


def _comm_sim_compare(args, topology, out) -> int:
    """Paired hash/switch/loc training runs compared under the cost model."""
    experts, seed = args.experts, args.seed
    placement = _placement_from_json(args.placement, experts, topology)
    with _usage_errors():
        corpus_cfg = dataclasses.replace(defaults.DEFAULT_CORPUS,
                                         tokens_per_cluster=args.tokens_per_cluster, seed=seed)
        build_block_gating(experts, corpus_cfg.dim)  # checked before any run trains
    corpus = make_synthetic_corpus(corpus_cfg)
    resolved = {
        "compare_routers": True, "epochs": args.epochs, "experts": experts,
        "tokens_per_cluster": args.tokens_per_cluster, "tp_group": args.tp_group, "seed": seed,
        "token_bytes": defaults.DEFAULT_TOKEN_BYTES,
        "topology": args.topology or "default", "placement": args.placement or "default",
        "losses": {kind: {"alpha": cfg.alpha, "mu": cfg.mu} for kind, cfg in COMPARE_LOSSES.items()},
    }
    runs = compare_routers(corpus, placement, topology, epochs=args.epochs, seed=seed)
    last = [run.records[-1] for run in runs.values()]  # each run's record of its final outcome
    _write_csv(out, {
        "router": list(runs), "entropy": [entropy(rec.f) for rec in last],
        "locality_fraction": [rec.locality_fraction for rec in last],
        **compare_strategies(runs, placement, topology, defaults.DEFAULT_TOKEN_BYTES,
                             tp_group_size=args.tp_group),
    }, seed, resolved)
    return 0


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The moelab parser, built on the first call and shared by every later
    one; nothing changes it after it is built, not even a --config file."""
    parser = argparse.ArgumentParser(
        prog="moelab",
        description="Routing, capacity-theory, toy-training and communication-model workbench.",
    )
    parser.add_argument("--version", action="version", version=f"moelab {__version__}")
    # each command's --help shows its flags' defaults
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, formatter_class=argparse.ArgumentDefaultsHelpFormatter))
    corpus, losses = defaults.DEFAULT_CORPUS, defaults.DEFAULT_TRAIN_LOSSES

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=defaults.DEFAULT_SEED, help="RNG seed")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--out", type=str, help="output path")
    common.add_argument("--force", action="store_true", help="allow overwriting outputs")
    common.add_argument("--config", type=str, help="JSON object of flag values; flags win")
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--epochs", type=int, default=_Default(defaults.DEFAULT_EPOCHS), help="training epochs")
    training.add_argument("--experts", type=int, default=_Default(defaults.DEFAULT_N_EXPERTS), help="experts n")
    training.add_argument("--tokens-per-cluster", type=int, default=_Default(corpus.tokens_per_cluster),
                          help="corpus tokens per cluster")

    p = sub.add_parser("capacity", parents=[common], help="capacity bound queries and curves")
    p.add_argument("--delta", type=float, help="cosine threshold delta in [0, 1]")
    p.add_argument("--dim", type=int, help="token dimension d >= 2")
    p.add_argument("--experts", type=int, help="experts n")
    p.add_argument("--grid", type=str, help="delta grid START:STOP:COUNT (CSV output)")
    p.add_argument("--mc-samples", type=int, help="cross-check with Monte Carlo")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("verify", parents=[seeded], help="run the oracle verification suites")
    p.add_argument("--only", type=str, choices=tuple(verify.CHECKS), help="run this suite alone")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("route-sim", parents=[common], help="route sphere tokens, report statistics")
    p.add_argument("--router", type=str, default="block", choices=("block", "hash", "switch"),
                   help="routing rule")
    p.add_argument("--tokens", type=int, default=100_000, help="tokens drawn on the sphere")
    p.add_argument("--dim", type=int, default=64, help="token dimension d >= 2")
    p.add_argument("--experts", type=int, default=8, help="experts n")
    p.add_argument("--noise-std", type=float, default=0.0, help="gating noise (block router)")
    p.add_argument("--capacity-factor", type=float, help="enforce this capacity factor")
    p.add_argument("--histograms", action="store_true", help="also write cosine histograms")
    p.set_defaults(fn=cmd_route_sim)

    p = sub.add_parser("train-toy", parents=[common, training], help="train the toy MoE")
    p.add_argument("--router", type=str, default="loc", choices=("hash", "switch", "loc"),
                   help="routing rule")
    p.add_argument("--lr", type=float, default=defaults.DEFAULT_LR, help="learning rate")
    p.add_argument("--alpha", type=float, default=losses.alpha, help="balance-loss weight")
    p.add_argument("--mu", type=float, default=losses.mu, help="locality-loss weight")
    p.add_argument("--clusters", type=int, default=corpus.n_clusters, help="corpus clusters")
    p.add_argument("--dim", type=int, default=corpus.dim, help="token dimension")
    p.add_argument("--nodes", type=int, default=defaults.DEFAULT_TOPOLOGY.n_nodes, help="nodes")
    p.add_argument("--devices-per-node", type=int, default=defaults.DEFAULT_TOPOLOGY.devices_per_node,
                   help="devices per node")
    p.add_argument("--concentration", type=float, default=corpus.concentration, help="inf: no jitter")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("comm-sim", parents=[common, training], help="communication cost model")
    p.add_argument("--topology", type=str, help="topology JSON file")
    p.add_argument("--placement", type=str, help="placement JSON file")
    p.add_argument("--volumes", type=str, help="volume CSV or from-run:PREFIX")
    p.add_argument("--tp-group", type=int, default=defaults.DEFAULT_TP_GROUP_SIZE,
                   help="tensor-parallel group size")
    p.add_argument("--compare-routers", action="store_true", help="paired hash/switch/loc runs compared")
    p.set_defaults(fn=cmd_comm_sim)

    for p in sub.choices.values():  # the parser main reparses a --config command with
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code.

    A --config file's values fill the namespace the command parses its flags
    into again: argparse sets a default only where the namespace has no value,
    and a flag given overwrites one, so flags win and the parser stays as built.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None) is not None:
            config = _config_defaults(args.command_parser, args.config)
            args = args.command_parser.parse_args(argv[argv.index(args.command) + 1:],
                                                  argparse.Namespace(command=args.command, **config))
        _check_args(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the failed allocation; a bare one has none
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
