"""Per-layer metrics computed from a span file, and what each workload must show.

Metrics cover the spans of the timed ops (op ids 0, 1, ...); the
generator time covers the set-up spans, where the generators run.  Spans
of the output checks carry op id "check" and count nowhere.
"""

from __future__ import annotations

from tracer import PAIR_KERNELS, SpanStats

# (span name, fields); each field is one metric "<span name>.<field>"
CATALOG = (
    ("core.pi_rel_norm", ("calls", "pairs", "self_s")),
    ("core.dinf", ("pairs", "self_s")),
    ("core.w_dinf", ("calls", "pairs", "self_s")),
    ("core.mul", ("self_s",)),
    ("approx.select_m0", ("total_s",)),
    ("approx.heights_on_projection", ("total_s",)),
    ("approx.lipschitz_approximation", ("total_s",)),
    ("approx.truncate", ("total_s",)),
    ("approx.build_mu", ("total_s",)),
    ("approx.corollary_report", ("total_s",)),
    ("approx.sym_diff_measure", ("calls", "total_s")),
    ("approx.check_sandwich", ("total_s",)),
    ("graph.extend_lipschitz", ("calls", "total_s", "self_s", "iterations")),
    ("graph.lipschitz_estimate", ("calls", "total_s")),
    ("graph.phi_ball", ("calls", "total_s")),
    ("graph.intrinsic_gradient", ("calls", "self_s")),
    ("maximal.disk_maximal", ("total_s", "self_s")),
    ("maximal.phi_maximal", ("total_s", "self_s")),
    ("maximal.estimate_ball_constants", ("calls", "total_s")),
    ("maximal.check_disk_lemma", ("total_s",)),
    ("maximal.check_phi_lemma", ("calls", "failed", "ok_ratio")),
    ("optimize.solve", ("total_s", "iterations")),
    ("optimize.energy", ("calls",)),
    ("optimize.energy_gradient", ("calls", "self_s")),
    ("surface.excess_cloud", ("total_s",)),
    ("surface.disk_mask", ("calls",)),
    ("fileio.write_grid", ("total_s", "bytes")),
    ("fileio.read_cloud", ("total_s",)),
    ("fileio.write_report", ("total_s",)),
    ("fileio.report_hash", ("total_s",)),
    ("cli.main", ("calls", "self_s", "nonzero_exit")),
)

FIELDS = {
    "calls": ("count", lambda st, n: st.calls[n]),
    "failed": ("count", lambda st, n: st.raised[n]),
    "pairs": ("count", lambda st, n: st.count[n]),
    "iterations": ("count", lambda st, n: st.count[n]),
    "nonzero_exit": ("count", lambda st, n: st.count[n]),
    "bytes": ("B", lambda st, n: st.count[n]),
    "total_s": ("s", lambda st, n: st.total[n]),
    "self_s": ("s", lambda st, n: st.self_time[n]),
    "ok_ratio": (
        "ratio",
        lambda st, n: (st.calls[n] - st.raised[n]) / st.calls[n] if st.calls[n] else 0.0,
    ),
}

# span names each workload must call; a traced run fails if one never fires
MUST_FIRE = {
    "pipeline_cluster": (
        "core.pi_rel_norm", "core.dinf", "core.w_dinf", "core.mul",
        "approx.select_m0", "approx.heights_on_projection", "approx.lipschitz_approximation",
        "approx.truncate", "approx.build_mu", "approx.corollary_report", "approx.sym_diff_measure",
        "graph.extend_lipschitz", "graph.lipschitz_estimate", "graph.phi_ball",
        "graph.intrinsic_gradient", "maximal.disk_maximal", "maximal.phi_maximal",
        "maximal.estimate_ball_constants", "maximal.check_phi_lemma",
        "surface.excess_cloud", "surface.disk_mask", "fileio.read_cloud",
    ),
    "lemma_battery": (
        "core.pi_rel_norm", "core.dinf", "core.w_dinf", "core.mul", "approx.check_sandwich",
        "graph.lipschitz_estimate", "graph.phi_ball", "graph.intrinsic_gradient",
        "maximal.disk_maximal", "maximal.phi_maximal", "maximal.estimate_ball_constants",
        "maximal.check_disk_lemma", "maximal.check_phi_lemma", "fileio.report_hash", "cli.main",
    ),
    "minimize_h01": (
        "optimize.solve", "optimize.energy", "optimize.energy_gradient",
        "graph.intrinsic_gradient", "fileio.write_grid", "fileio.write_report",
        "fileio.report_hash", "cli.main",
    ),
}
MUST_FIRE["baseline"] = MUST_FIRE["pipeline_cluster"]

# metrics that must read 0: the layers each workload is designed to bypass
MUST_BE_ZERO = {
    "pipeline_cluster": ("optimize.solve.iterations",),
    "lemma_battery": ("approx.select_m0.total_s",),
    "minimize_h01": ("core.pi_rel_norm.pairs", "core.dinf.pairs", "core.w_dinf.pairs"),
}
MUST_BE_ZERO["baseline"] = MUST_BE_ZERO["pipeline_cluster"]

# parents under which pi_rel_norm is the private cone-ratio pass of approx._extend
CONE_PARENTS = ("approx.lipschitz_approximation", "approx.corollary_report")


def split_spans(spans: list[dict]) -> tuple[SpanStats, SpanStats]:
    """Stats of the op spans and of the set-up spans."""
    ops = SpanStats([s for s in spans if s["op"].isdigit()])
    setup = SpanStats([s for s in spans if s["op"] == "setup"])
    return ops, setup


def layer_metrics(spans: list[dict], overhead_s: float) -> dict:
    """Every per-layer metric, as {name: {"value", "unit"}}."""
    ops, setup = split_spans(spans)
    out = {}
    for name, fields in CATALOG:
        for f in fields:
            unit, get = FIELDS[f]
            out[f"{name}.{f}"] = {"value": get(ops, name), "unit": unit}
    pairs = sum(ops.count[k] for k in PAIR_KERNELS)
    kernel_s = sum(ops.total[k] for k in PAIR_KERNELS)
    iters = ops.count["optimize.solve"]
    derived = {
        "core.ns_per_pair": (1e9 * kernel_s / pairs if pairs else 0.0, "ns"),
        "approx.cone_ratio.kernel_s": (
            sum(ops.by_parent[("core.pi_rel_norm", p)] for p in CONE_PARENTS), "s"),
        "optimize.energy.calls_per_iter": (
            ops.calls["optimize.energy"] / iters if iters else 0.0, "ratio"),
        "generators.total_s": (setup.layer_total["generators"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (sum(ops.calls.values()), "count"),
    }
    for name, (value, unit) in derived.items():
        out[name] = {"value": value, "unit": unit}
    return out


def expectation_errors(workload: str, spans: list[dict], metrics: dict) -> list[str]:
    """Broken isolation claims of the workload, as readable messages."""
    ops, setup = split_spans(spans)
    errors = [f"{n} never fired" for n in MUST_FIRE[workload] if ops.calls[n] == 0]
    if workload in ("pipeline_cluster", "baseline") and setup.layer_total["generators"] == 0:
        errors.append("generators never fired during set-up")
    errors += [
        f"{m} reads {metrics[m]['value']}, expected 0"
        for m in MUST_BE_ZERO[workload]
        if metrics[m]["value"] != 0
    ]
    return errors


def baseline_table(spans: list[dict], h: float, nodes: int) -> str:
    """The ROADMAP baseline row (stage columns) regenerated from a span file."""
    ops, _ = split_spans(spans)
    t = ops.total
    # the private cone-ratio pass is the approx body plus the core kernels it calls directly
    cone = ops.self_time["approx.lipschitz_approximation"] + sum(
        v for (name, parent), v in ops.by_parent.items()
        if parent == "approx.lipschitz_approximation" and name.startswith("core.")
    )
    stages = [
        ("approx + truncate", t["approx.lipschitz_approximation"] + t["approx.truncate"]),
        ("select_m0", t["approx.select_m0"]),
        ("cone ratio", cone),
        ("extend (incl. 2nd cone pass)",
         ops.by_parent[("graph.extend_lipschitz", "approx.lipschitz_approximation")]),
        ("truncate", t["approx.truncate"]),
        ("corollary_report", t["approx.corollary_report"]),
    ]
    cols = [("h", f"{h:g}"), ("nodes", f"{nodes:,}")] + [(c, f"{v:.3g} s") for c, v in stages]
    head = "| " + " | ".join(c for c, _ in cols) + " |"
    rule = "| " + " | ".join("---" for _ in cols) + " |"
    row = "| " + " | ".join(v for _, v in cols) + " |"
    return "\n".join((head, rule, row))
