"""End-to-end VFL benchmark: WDL training, two-process sparse LR and DLRM
inference, with per-layer self time measured from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wdl-train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Times are reported at nominal host speed: a fixed bigint kernel is timed
between steps and each step time is scaled by the kernel's nominal over
its measured duration (see ``workloads.REF_NOMINAL_S``), so the drift of a
shared host does not swamp the bounds.  The raw times are printed as
``raw.*`` rows and kept in the result file.
``--trace 1`` builds two identically seeded federations that alternate
steps, one with every layer function wrapped, and reports per-layer metrics
from the wrapped one; it also writes a Chrome trace and a folded-stack
table under ``.bench_out/``.
Both print a table for people, an environment stamp, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# name -> unit.  error_rate is always 0 on a healthy run, so it is printed
# in the table and carried by the "attempted"/"failed" fields rather than
# gated as a relative metric.
END_TO_END = {
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "setup_s": "s",
    "cpu_s_per_sample": "s",
    "wire_bytes_per_sample": "B",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = (
    "core.matmul_layer.forward",
    "core.matmul_layer.backward",
    "core.matmul_layer.apply_updates",
    "core.embed_matmul_layer.forward",
    "core.embed_matmul_layer.backward",
    "core.embed_matmul_layer.apply_updates",
    "core.optimizer.step",
    "crypto.crypto_tensor.matmul_plain_cipher",
    "crypto.crypto_tensor.sparse_matmul_cipher",
    "crypto.crypto_tensor.sparse_t_matmul_cipher",
    "crypto.crypto_tensor.matmul_cipher_plain",
    "crypto.crypto_tensor.encrypt",
    "crypto.packing.PackedCryptoTensor.pack",
    "crypto.packing.PackedCryptoTensor.encrypt",
    "crypto.packing.PackedCryptoTensor.decrypt",
    "crypto.secret_sharing.he2ss_split",
    "crypto.secret_sharing.he2ss_receive",
    "crypto.paillier.blinding_factors",
    "comm.codec.encode_message",
    "comm.codec.decode_message",
)
_LINK = ("frames", "envelope_bytes", "retransmits", "naks_sent", "reconnects")

# name -> unit, in report order.
PER_LAYER = {
    **{f"{n}.{s}": u for n in _CALLS_SELF for s, u in (("calls", "count"), ("self_s", "s"))},
    "crypto.paillier.blinding_factors.blinders": "count",
    "comm.codec.encode_message.bytes": "B",
    "comm.codec.decode_message.bytes": "B",
    "comm.channel.send.frames": "count",
    "comm.channel.send.bytes": "B",
    "comm.channel.send.self_s": "s",
    "comm.channel.recv.calls": "count",
    "comm.channel.recv.wait_s": "s",
    **{f"comm.transport.link.{s}": ("B" if s == "envelope_bytes" else "count") for s in _LINK},
    "comm.transport.spawn_connect_s": "s",
    "data.loader.batches.self_s": "s",
    "tensor.top.self_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "obs.unattributed_frac": "ratio",
}

UNATTRIBUTED_LIMIT = 0.05


def reportable_percentiles(n: int) -> list[int]:
    """Step-time percentiles worth reporting for ``n`` samples: the median,
    plus each higher one with at least ten samples beyond it."""
    return [p for p in (50, 90, 99) if p == 50 or n * (100 - p) / 100 >= 10]


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(seed: int, key_bits: int) -> dict:
    from repro.crypto.math_utils import gmpy2_enabled

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "bigint_backend": "gmpy2" if gmpy2_enabled() else "python-int",
        "key_bits": key_bits,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Checks:
    """Output checks; each one attempted feeds ``attempted``/``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _check_pass(checks: Checks, role: str, result: dict) -> None:
    for error in result.get("errors", ()):
        print(f"[{role}] {error}", file=sys.stderr)
    z = result.get("z_error")
    from workloads import Z_TOL

    checks.expect(
        z is not None and z <= Z_TOL,
        f"{role}: source-layer Z differs from plaintext X @ W by {z} (tolerance {Z_TOL})",
    )


# ------------------------------------------------------------------- running


def run_untraced(w, inputs, seed: int, seconds: float):
    """Set up three times, measure the last.  Each set-up comes back as
    ``(seconds, reference pass taken right after it)``."""
    import workloads

    if w.two_process:
        steps = workloads.two_process_steps(seconds)
        runs = [workloads.run_two_process(w, inputs, seed, n, False) for n in (0, 0, steps)]
        setups = [
            (max(r["setup_s"] for r in run["roles"].values()), main_role(run["roles"])["setup_ref"])
            for run in runs
        ]
        roles = {role: r["plain"] for role, r in runs[-1]["roles"].items()}
        return setups, roles, runs[-1]["link_stats"]
    runs = [workloads.run_pass(w, inputs, seed, steps=0) for _ in range(2)]
    runs.append(workloads.run_pass(w, inputs, seed, seconds=seconds))
    return [(r["setup_s"], r["setup_ref"]) for r in runs], {"local": runs[-1]["plain"]}, {}


def main_role(roles: dict) -> dict:
    """The endpoint whose clock times steps: Party B's, where loss lands."""
    return roles.get("host") or roles["local"]


def scaled(times: list[float], refs: list[tuple[float, float]], clock: int = 0) -> list[float]:
    """Step times at the reference kernel's nominal speed: each one times
    ``REF_NOMINAL_S`` over the mean of the reference passes either side of
    it (``clock`` 0 for wall time, 1 for CPU time)."""
    from workloads import REF_NOMINAL_S

    return [
        t * 2 * REF_NOMINAL_S / (refs[i][clock] + refs[i + 1][clock])
        for i, t in enumerate(times)
    ]


def end_to_end(w, setups, roles, checks: Checks) -> tuple[dict, dict, int, int]:
    """End-to-end metrics at nominal host speed, and the same measured raw."""
    from workloads import REF_NOMINAL_S

    ref = main_role(roles)
    if not ref["step_s"]:
        raise SystemExit(f"{w.name}: no step completed; nothing to measure")
    failed_steps = sum(r["failed"] for r in roles.values())
    attempted_steps = sum(len(r["step_s"]) + r["failed"] for r in roles.values())
    samples = len(ref["step_s"]) * w.batch
    if roles.keys() == {"guest", "host"}:
        g, h = roles["guest"], roles["host"]
        checks.expect(
            g["losses"] == h["losses"],
            "guest and host loss trajectories differ",
        )
        checks.expect(
            g["wire_bytes"] == h["wire_bytes"],
            f"endpoint byte ledgers differ: guest {g['wire_bytes']} host {h['wire_bytes']}",
        )
    for role, result in roles.items():
        _check_pass(checks, role, result)
    steps = scaled(ref["step_s"], ref["refs"])
    cpu_s = sum(sum(scaled(r["cpu_s"], r["refs"], clock=1)) for r in roles.values())
    metrics = {
        "samples_per_s": samples / sum(steps),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "setup_s": statistics.median(t * REF_NOMINAL_S / r[0] for t, r in setups),
        "cpu_s_per_sample": cpu_s / samples,
        "wire_bytes_per_sample": ref["wire_bytes"] / samples,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in roles.values()),
    }
    raw = {
        "samples_per_s": samples / sum(ref["step_s"]),
        "step_ms_p50": 1e3 * statistics.median(ref["step_s"]),
        "setup_s": statistics.median(t for t, _ in setups),
        "cpu_s_per_sample": sum(sum(r["cpu_s"]) for r in roles.values()) / samples,
        "host_speed": REF_NOMINAL_S / statistics.median(r[0] for r in ref["refs"]),
    }
    return metrics, raw, attempted_steps, failed_steps


def _link_rows(link_stats: dict) -> dict[str, dict[str, int]]:
    return {
        role: {
            "frames": s["data_sent"],
            "envelope_bytes": s["envelope_bytes"],
            "retransmits": s["retransmits"],
            "naks_sent": s["naks_sent"],
            "reconnects": s["reconnects"],
        }
        for role, s in link_stats.items()
    }


def _warn_link(link_stats: dict) -> None:
    for role, row in _link_rows(link_stats).items():
        noisy = {k: row[k] for k in ("retransmits", "naks_sent", "reconnects") if row[k]}
        if noisy:
            print(f"warning: clean loopback link {role} recovered frames: {noisy}", file=sys.stderr)


def layer_metrics(role_stats: dict, link_stats: dict, spawn_s: float,
                  overhead: float, unattributed_frac: float) -> dict:
    """Per-layer metrics, summed over endpoints (both replay every party)."""
    total: dict[str, float] = {}
    for stats in role_stats.values():
        for name, row in stats.items():
            for stat, value in row.items():
                key = f"{name}.{stat}"
                total[key] = total.get(key, 0) + value
    metrics = {}
    for key in PER_LAYER:
        metrics[key] = total.get(key, 0)
    metrics["comm.channel.send.frames"] = total.get("comm.channel.send.calls", 0)
    metrics["comm.channel.recv.wait_s"] = total.get("comm.channel.recv.self_s", 0.0)
    for row in _link_rows(link_stats).values():
        for stat, value in row.items():
            metrics[f"comm.transport.link.{stat}"] += value
    metrics["comm.transport.spawn_connect_s"] = spawn_s
    metrics["obs.trace_overhead_frac"] = overhead
    metrics["obs.unattributed_frac"] = unattributed_frac
    return metrics


def run_traced(w, inputs, seed: int, seconds: float, checks: Checks, stem: str):
    """Per-layer metrics from a traced federation that alternates steps with
    an untraced twin on the same seed."""
    import spans
    import workloads

    if w.two_process:
        steps = max(workloads.MIN_STEPS, workloads.two_process_steps(seconds) // 2)
        run = workloads.run_two_process(w, inputs, seed, steps, True)
        passes, link_stats = run["roles"], run["link_stats"]
        _warn_link(link_stats)
    else:
        passes = {"local": workloads.run_pass(w, inputs, seed, seconds=seconds, traced=True)}
        link_stats = {}
    plain_roles = {role: p["plain"] for role, p in passes.items()}
    roles = {role: p["traced"] for role, p in passes.items()}

    attempted = failed = 0
    role_stats, events, folded, worst_unattributed = {}, [], [], 0.0
    for pid, (role, result) in enumerate(sorted(roles.items())):
        ref = plain_roles[role]
        for run in (ref, result):
            attempted += len(run["step_s"]) + run["failed"]
            failed += run["failed"]
            _check_pass(checks, role, run)
        checks.expect(
            result["digest"] == ref["digest"] and result["losses"] == ref["losses"],
            f"{role}: traced outputs differ from the untraced run on the same seed",
        )
        stats = spans.fold(result["spans"])
        role_stats[role] = stats
        sent = stats.get("comm.channel.send", {}).get("bytes", 0)
        checks.expect(
            sent == result["wire_bytes"],
            f"{role}: traced send bytes {sent} != channel ledger {result['wire_bytes']}",
        )
        own, total = spans.unattributed(result["spans"])
        worst_unattributed = max(worst_unattributed, own / total)
        print(f"[{role}] unattributed {own:.4f} s of {total:.4f} s step time "
              f"({own / total:.2%})")
        events += spans.chrome_events(result["spans"], pid, role)
        folded += spans.folded_lines(result["spans"], prefix=f"{role};")
    missing = [
        name for name in w.exercised
        if sum(s.get(name, {}).get("calls", 0) for s in role_stats.values()) == 0
    ]
    if missing:
        raise SystemExit(
            f"{w.name}: layer functions declared exercised recorded 0 calls: "
            f"{', '.join(missing)} (renamed or no longer on the step path?)"
        )
    if not w.train:
        for name in ("core.matmul_layer.apply_updates", "core.embed_matmul_layer.apply_updates"):
            calls = sum(s.get(name, {}).get("calls", 0) for s in role_stats.values())
            checks.expect(calls == 0, f"inference ran {name} {calls} times")
    if worst_unattributed > UNATTRIBUTED_LIMIT:
        print(f"warning: {worst_unattributed:.2%} of step time is outside every span",
              file=sys.stderr)

    host_ref, host = main_role(plain_roles), main_role(roles)
    overhead = sum(host["step_s"]) / sum(host_ref["step_s"]) - 1.0
    spawn_s = max(p.get("spawn_connect_s", 0.0) for p in passes.values())
    metrics = layer_metrics(role_stats, link_stats, spawn_s, overhead, worst_unattributed)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.trace.json").write_text(json.dumps({"traceEvents": events}))
    (OUT_DIR / f"{stem}.folded.txt").write_text("\n".join(folded) + "\n")
    per_role = {role: {f"{n}.{k}": v for n, row in s.items() for k, v in row.items()}
                for role, s in role_stats.items()}
    per_role.update({f"{role}.link": row for role, row in _link_rows(link_stats).items()})
    return metrics, attempted, failed, per_role


# ------------------------------------------------------------------- output


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed, workloads.KEY_BITS)
    inputs = workloads.make_inputs(w, args.seed)
    checks = Checks()
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result: dict = {"workload": w.name, "env": env}
    if args.trace:
        metrics, attempted, failed, per_role = run_traced(
            w, inputs, args.seed, args.seconds, checks, stem
        )
        units = PER_LAYER
        result["per_role"] = per_role
    else:
        setups, roles, link_stats = run_untraced(w, inputs, args.seed, args.seconds)
        _warn_link(link_stats)
        metrics, raw, attempted, failed = end_to_end(w, setups, roles, checks)
        units = END_TO_END
        host = main_role(roles)
        steps = scaled(host["step_s"], host["refs"])
        extra = [(f"step_ms_p{p}", 1e3 * percentile(steps, p), "ms")
                 for p in reportable_percentiles(len(steps)) if p != 50]
        plain = workloads.plain_samples_per_s(w, inputs, args.seed)
        result.update(
            steps=len(steps), setups=setups, link=_link_rows(link_stats),
            raw=raw, plain_samples_per_s=plain,
        )
    attempted += checks.attempted
    failed += len(checks.failures)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    print(f"workload {w.name}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    rows = [(k, v, units[k]) for k, v in metrics.items()]
    if not args.trace:
        rows[2:2] = extra
        rows.append(("error_rate", failed / attempted, "ratio"))
        for role, r in roles.items():
            rows.append((f"check.{role}.z_max_abs_error", r["z_error"] or float("nan"), "abs"))
        rows += [(f"raw.{k}", v, END_TO_END.get(k, "x nominal")) for k, v in raw.items()]
        rows.append(("plain.samples_per_s (information)", plain, "1/s"))
        rows.append(("crypto_overhead_x (information)", plain / metrics["samples_per_s"], "x"))
        print(f"{result['steps']} timed steps of batch {w.batch}; "
              f"set-up runs {[t for t, _ in setups]} s raw")
        for role, row in result["link"].items():
            print(f"link {role}: {row}")
    print_table("end-to-end metrics" if not args.trace else "per-layer metrics", rows)

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result.update(summary, failures=checks.failures)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
