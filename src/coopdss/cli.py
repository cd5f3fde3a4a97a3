"""Command-line front end.

Subcommands: bounds, table, encode, reconstruct, repair, simulate,
verify-secrecy.  Every path is a thin wrapper over the library; outputs are
deterministic given flags and seed (no timestamps).

Exit codes: 0 success/secure, 1 secrecy violation, 2 usage or parameter
error (in `verify-secrecy` and `simulate` also more eavesdroppers than the
scheme claims secrecy for, |E1| > l1 or |E2| > l2, a failure plan group
that is not t distinct node ids in [1, n], in `verify-secrecy --trace` a
payload that is not beta or beta' symbols, and in `simulate` a config
section or key it does not use, each named), 3 I/O error or a program
fault: in `simulate` a replay mismatch, in `simulate` or
`verify-secrecy --e2` a repair round whose bandwidth is not t*gamma or
whose plan does not rebuild the newcomers' stored rows, in
`verify-secrecy --mode both` a rank verdict that differs from the
brute-force one in leakage or in either lemma flag, and any other exception,
named on one line.  COOPDSS_SEED provides the default seed.

Byte <-> symbol packing (`symbols_to_bytes` / `symbols_from_bytes`): a GF(p)
coordinate takes the fewest little-endian bytes that hold p-1, and values
>= p are rejected; a GF(p^m) symbol is its m coordinates, coordinate 0 first.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import sim as sim_mod
from .codes import SCHEME_CLASSES, make_scheme, nodeio
from .codes.base import RepairTranscript, SchemeParams
from .precode import random_symbols
from .secrecy import InstanceTooLargeError, brute_force_leakage, rank_leakage

SCHEME_CHOICES = tuple(SCHEME_CLASSES)


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    return int(os.environ.get("COOPDSS_SEED", "0"))


def _add_scheme_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--scheme", choices=SCHEME_CHOICES, required=required)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--k", type=int, required=required)
    p.add_argument("--d", type=int, required=required)
    p.add_argument("--t", type=int, required=required)
    p.add_argument("--l1", type=int, default=0)
    p.add_argument("--l2", type=int, default=0)


def _scheme_params(ns) -> SchemeParams:
    return SchemeParams(n=ns.n, k=ns.k, d=ns.d, t=ns.t, l1=ns.l1, l2=ns.l2,
                        scheme=ns.scheme)


def _ids(text: str) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.replace(";", ",").split(",") if x]


def _failure_plan(text: str, params: SchemeParams) -> tuple[frozenset[int], ...]:
    """A failure plan such as '1,2;3,4', one failure set per group, each
    group t distinct node ids in [1, n]: an empty group is refused too."""
    plan = []
    for group in text.split(";"):
        ids = set(int(x) for x in group.split(",") if x.strip().isdecimal())
        if len(ids) != params.t or len(group.split(",")) != params.t or not all(
                1 <= i <= params.n for i in ids):
            raise UsageError(f"failure plan group {group!r}: need t={params.t} distinct "
                             f"node ids in [1, {params.n}]")
        plan.append(frozenset(ids))
    return tuple(plan)


def _payload_symbols(field, text: str, count: int) -> list[int]:
    """The `count` symbols of trace payload text as `sim.trace_to_text`
    writes them, hex with ':' between symbols, by the field's checked codec."""
    width = 2 * field.symbol_bytes
    if (len(text) != max(0, count * (width + 1) - 1) or text[width::width + 1].strip(":")
            or len(data := bytes.fromhex(text.replace(":", ""))) != count * field.symbol_bytes):
        raise ValueError(f"want {count} symbol(s) of {width} hex digits, ':' between symbols")
    return field.symbols_from_bytes(data)


def _pack_bytes_to_symbols(field, data: bytes) -> list[int]:
    width = field.symbol_bytes
    if len(data) % width:
        raise UsageError(
            f"secret length {len(data)} is not a multiple of the {width}-byte symbol width")
    return field.symbols_from_bytes(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(ns) -> int:
    k, d, t, l1, l2 = ns.k, ns.d, ns.t, ns.l1, ns.l2
    if ns.n is not None and not (k < ns.n and d < ns.n and d + t <= ns.n):
        raise UsageError(f"n={ns.n} inconsistent with k={k}, d={d}, t={t}")
    if ns.point == "mbcr":
        point = bounds_mod.mbcr_point(k, d, t)
        ms = bounds_mod.mbcr_secure_bound(k, d, t, l1 + l2)
    else:
        point = bounds_mod.mscr_point(k, d, t)
        ms = bounds_mod.mscr_secure_bound(k, d, t, l1, l2)
    print(f"point={ns.point} k={k} d={d} t={t} l1={l1} l2={l2}")
    print(f"alpha={point.alpha} beta={point.beta} beta_prime={point.beta_prime} "
          f"gamma={point.gamma}")
    print(f"M={point.file_size}")
    print(f"Ms={ms}")
    if ms > 0:
        print(f"NRBW={bounds_mod.render4(Fraction(point.gamma) / ms)}")
    else:
        print("NRBW=inf")
    return 0


def cmd_table(ns) -> int:
    constraint = {"dt-eq-n": "d+t=n", "dt-le-n": "d+t<=n"}[ns.constraint]
    rows = bounds_mod.nrbw_table(ns.max_n, constraint)
    csv = bounds_mod.table_csv(rows)
    if ns.out:
        Path(ns.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_encode(ns) -> int:
    scheme = make_scheme(_scheme_params(ns))
    data = Path(ns.secret).read_bytes()
    u = _pack_bytes_to_symbols(scheme.field, data)
    if len(u) != scheme.secure_size:
        raise UsageError(
            f"secret must pack to exactly Ms={scheme.secure_size} symbols "
            f"({scheme.secure_size * scheme.field.symbol_bytes} bytes), got {len(u)}")
    r = random_symbols(scheme.field, scheme.n_random, ns.seed)
    contents = scheme.encode(u, r)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    for c in contents:
        (out / f"node_{c.node_id:02d}.bin").write_bytes(nodeio.write_nodes(scheme, [c]))
    print(f"wrote {len(contents)} node files to {out} "
          f"(alpha={scheme.alpha} symbols each, M={scheme.file_size}, Ms={scheme.secure_size})")
    return 0


def _load_nodes(paths):
    params = None
    contents = []
    seen: set[int] = set()
    for spec in paths:
        want_id = None
        path = spec
        if ":" in spec and not Path(spec).exists():
            id_text, path = spec.split(":", 1)
            want_id = int(id_text)
        p, cs = nodeio.read_nodes(Path(path).read_bytes())
        if params is None:
            params = p
        elif params != p:
            raise UsageError(f"{path}: parameters differ from the other node files")
        for c in cs:
            if want_id is not None and c.node_id != want_id:
                raise UsageError(f"{path}: holds node {c.node_id}, expected {want_id}")
            if c.node_id in seen:
                raise UsageError(f"{path}: node {c.node_id} is also in another node file")
            seen.add(c.node_id)
            contents.append(c)
    if params is None:
        raise UsageError("no node files given")
    return params, contents


def cmd_reconstruct(ns) -> int:
    params, contents = _load_nodes(ns.nodes)
    scheme = make_scheme(params)
    if len(contents) < params.k:
        raise UsageError(f"need at least k={params.k} distinct nodes")
    u = scheme.reconstruct(contents)
    data = scheme.field.symbols_to_bytes(u)
    if ns.out:
        Path(ns.out).write_bytes(data)
        print(f"wrote {len(data)} bytes to {ns.out}")
    else:
        print(data.hex())
    return 0


def cmd_repair(ns) -> int:
    params, contents = _load_nodes(ns.nodes)
    scheme = make_scheme(params)
    failed = frozenset(_ids(ns.failed))
    survivors = {c.node_id: c for c in contents if c.node_id not in failed}
    if len(survivors) < params.d:
        raise UsageError(f"need at least d={params.d} surviving nodes, have {len(survivors)}")
    tr = scheme.cooperative_repair(failed, survivors)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    for c in tr.results:
        (out / f"node_{c.node_id:02d}.bin").write_bytes(nodeio.write_nodes(scheme, [c]))
    for i in sorted(failed):
        print(f"repaired node {i}: downloaded {tr.downloads(i)} symbols "
              f"(d*beta+(t-1)*beta'={scheme.gamma})")
    return 0


# every section and key a simulate config may hold
CONFIG_KEYS = {
    "scheme": {"scheme", "n", "k", "d", "t", "l1", "l2"},
    "simulate": {"rounds", "seed", "helpers", "plan"},
    "eavesdropper": {"e1", "e2"},
}


def _unknown_config_entries(ini: configparser.ConfigParser) -> list[str]:
    """Each section and key of `ini` outside `CONFIG_KEYS`, named; a key of
    the default section, which every section would inherit, included."""
    defaults = ini.defaults()
    unknown = [f"key {key} in [{ini.default_section}]" for key in defaults]
    for name in ini.sections():
        if name not in CONFIG_KEYS:
            unknown.append(f"section [{name}]")
            continue
        unknown += [f"key {key} in [{name}]" for key in ini[name]
                    if key not in CONFIG_KEYS[name] and key not in defaults]
    return unknown


def _sim_config_from_ini(path: str, ns) -> sim_mod.SimConfig:
    # no interpolation: a '%' in a value is then an ordinary bad value
    ini = configparser.ConfigParser(interpolation=None)
    try:
        found = ini.read(path)
    except configparser.Error as exc:
        raise UsageError(f"config {path}: {exc}") from None
    if not found:
        raise OSError(f"cannot read config file {path}")
    unknown = _unknown_config_entries(ini)
    if unknown:
        raise UsageError(f"config {path}: unknown {', '.join(unknown)}")
    if not ini.has_section("scheme"):
        raise UsageError(f"config {path}: no [scheme] section")
    sch = ini["scheme"]
    missing = [key for key in ("scheme", "n", "k", "d", "t") if key not in sch]
    if missing:
        raise UsageError(f"config {path}: [scheme] lacks {', '.join(missing)}")
    params = SchemeParams(
        n=sch.getint("n"), k=sch.getint("k"), d=sch.getint("d"), t=sch.getint("t"),
        l1=sch.getint("l1", 0), l2=sch.getint("l2", 0), scheme=sch.get("scheme"))
    simc = ini["simulate"] if ini.has_section("simulate") else {}
    rounds = int(simc.get("rounds", "1"))
    if rounds < 0:
        raise UsageError(f"config {path}: rounds must be >= 0, got {rounds}")
    seed = int(simc.get("seed", str(ns.seed)))
    helper_mode = simc.get("helpers", "lowest")
    plan = None
    if "plan" in simc:
        plan = _failure_plan(simc["plan"], params)
        rounds = len(plan)
    eav = ini["eavesdropper"] if ini.has_section("eavesdropper") else {}
    e1 = tuple(_ids(eav.get("e1", "")))
    e2 = tuple(_ids(eav.get("e2", "")))
    return sim_mod.SimConfig(params=params, rounds=rounds, failure_plan=plan,
                             seed=seed, e1=e1, e2=e2, helper_mode=helper_mode)


def cmd_simulate(ns) -> int:
    config = _sim_config_from_ini(ns.config, ns)
    trace = sim_mod.run(config)
    text = sim_mod.trace_to_text(trace)
    if ns.trace_out:
        Path(ns.trace_out).write_text(text)
    else:
        sys.stdout.write(text)
    ok, diffs = sim_mod.replay_check(trace)
    print(f"rounds={config.rounds} total_bandwidth={trace.total_bandwidth} "
          f"replay={'ok' if ok else 'MISMATCH'}", file=sys.stderr)
    if not ok:
        for d in diffs[:5]:
            print(f"  {d}", file=sys.stderr)
        return 3
    if config.e1 or config.e2:
        obs = sim_mod.observation(trace)  # validates the eavesdropped ids
        _check_budget(config.params, config.e1, config.e2)
        verdict = rank_leakage(obs)
        print(f"leakage_qunits={verdict.leakage_qunits}", file=sys.stderr)
        if not verdict.secure:
            return 1
    return 0


def _default_plan(params: SchemeParams, e2: tuple[int, ...]):
    """One deterministic round per E2 node: fail it plus the lowest other ids."""
    plan = []
    for e in e2:
        group = {e}
        cursor = 1
        while len(group) < params.t:
            if cursor != e:
                group.add(cursor)
            cursor += 1
        plan.append(frozenset(group))
    return tuple(plan)


def _check_budget(params: SchemeParams, e1, e2) -> None:
    """Refuse, as a usage error, more eavesdroppers than the budget the
    scheme claims secrecy for (|E1| <= l1 and |E2| <= l2): such a verdict
    would report a leak the scheme never ruled out.  Run on ids already
    validated against [1, n] and for disjointness."""
    n1, n2 = len(set(e1)), len(set(e2))
    if n1 > params.l1 or n2 > params.l2:
        raise UsageError(
            f"|E1|={n1} with l1={params.l1} and |E2|={n2} with l2={params.l2}: "
            f"the scheme claims secrecy only for |E1| <= l1 and |E2| <= l2")


def _verdict_fields(v) -> tuple[int, bool, bool]:
    return v.leakage_qunits, v.lemma_cond_entropy_ok, v.lemma_recoverable_ok


def cmd_verify_secrecy(ns) -> int:
    if ns.trace:
        header, transfers = sim_mod.trace_transfers_from_text(Path(ns.trace).read_text())
        params = SchemeParams(n=header["n"], k=header["k"], d=header["d"],
                              t=header["t"], l1=header["l1"], l2=header["l2"],
                              scheme=header["scheme"])
        scheme = make_scheme(params)
        per = {"live": scheme.beta, "coop": scheme.beta_prime}
        for round_idx, src, dst, kind, payload in transfers:
            try:
                _payload_symbols(scheme.field, payload, per[kind])
            except ValueError as exc:
                raise UsageError(f"trace round {round_idx}: {kind} payload from node {src} "
                                 f"to node {dst}: {exc}") from None
        by_round: dict[int, dict[str, set]] = {}
        for round_idx, src, dst, kind, _ in transfers:
            rec = by_round.setdefault(round_idx, {"failed": set(), "helpers": set()})
            rec["failed"].add(dst)
            if kind == "live":
                rec["helpers"].add(src)
        transcripts = [
            RepairTranscript(failed=frozenset(rec["failed"]),
                             helpers=tuple(sorted(rec["helpers"])),
                             live_transfers={}, coop_transfers={}, results=())
            for _, rec in sorted(by_round.items())
        ]
    else:
        if ns.scheme is None or None in (ns.n, ns.k, ns.d, ns.t):
            raise UsageError("give either --trace or the full scheme flags")
        params = _scheme_params(ns)
        scheme = make_scheme(params)
        transcripts = []
    e1 = tuple(_ids(ns.e1))
    e2 = tuple(_ids(ns.e2))
    plan = None if ns.plan is None else _failure_plan(ns.plan, params)
    if e2 and not transcripts:
        plan = plan or _default_plan(params, e2)
        config = sim_mod.SimConfig(params=params, rounds=len(plan), failure_plan=plan,
                                   seed=ns.seed, e2=e2)
        transcripts = sim_mod.run(config).transcripts
    obs = scheme.observation_matrix(e1, e2, transcripts)  # validates the ids
    _check_budget(params, e1, e2)
    verdicts = []
    if ns.mode in ("rank", "both"):
        verdicts.append(rank_leakage(obs))
    if ns.mode in ("bruteforce", "both"):
        try:
            verdicts.append(brute_force_leakage(scheme, e1, e2, transcripts))
        except InstanceTooLargeError as exc:
            if ns.mode == "bruteforce":
                raise UsageError(str(exc)) from exc
            print(f"bruteforce skipped: {exc}", file=sys.stderr)
    for v in verdicts:
        print(f"method={v.method} leakage_qunits={v.leakage_qunits} "
              f"lemma_entropy_ok={v.lemma_cond_entropy_ok} "
              f"lemma_recoverable_ok={v.lemma_recoverable_ok}")
    if len(verdicts) == 2 and _verdict_fields(verdicts[0]) != _verdict_fields(verdicts[1]):
        # a fault in the program, not a secrecy violation
        print("rank and brute-force verdicts disagree", file=sys.stderr)
        return 3
    return 0 if all(v.secure for v in verdicts) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coopdss",
                                 description="secure cooperative regenerating codes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="trade-off point and secure-size bound")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l1", type=int, default=0)
    p.add_argument("--l2", type=int, default=0)
    p.add_argument("--point", choices=("mbcr", "mscr"), required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="NRBW table as CSV")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--constraint", choices=("dt-eq-n", "dt-le-n"), default="dt-eq-n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("encode", help="encode a secret into n node files")
    _add_scheme_flags(p)
    p.add_argument("--secret", required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="recover the secret from k node files")
    p.add_argument("--nodes", nargs="+", required=True, metavar="[ID:]FILE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("repair", help="cooperatively repair failed nodes")
    p.add_argument("--nodes", nargs="+", required=True, metavar="[ID:]FILE")
    p.add_argument("--failed", required=True, help="comma-separated node ids")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("simulate", help="run a lifetime simulation from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-secrecy", help="leakage verdict for an eavesdropper")
    _add_scheme_flags(p, required=False)
    p.add_argument("--trace", default=None, help="trace file from `simulate`")
    p.add_argument("--e1", default="", help="comma-separated storage-eavesdropped ids")
    p.add_argument("--e2", default="", help="comma-separated download-eavesdropped ids")
    p.add_argument("--plan", default=None, help="failure plan, e.g. '1,2;3,4'")
    p.add_argument("--mode", choices=("rank", "bruteforce", "both"), default="rank")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_verify_secrecy)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except ValueError as exc:  # usage, parameter and linear-system errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except sim_mod.ProtocolError as exc:
        print(f"protocol fault: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a program fault: exit 1 is a secrecy verdict's alone
        detail = str(exc).partition("\n")[0]
        print(f"program fault: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
