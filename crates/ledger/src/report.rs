//! What one workload run reports, the metric catalogue, and the two
//! renderings of a run: the strict one-line JSON of the benchmark contract
//! and the fuller JSON a `run`/`repeat` parent reads back from its child.

use roia_obs::export::{self as json, JsonValue};
use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Catalogue entry of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether every workload reports it. Only those can be end-to-end
    /// metrics of `BENCHMARK.json`, whose contract wants each one from
    /// every workload; the others are printed by `ledger run` for the
    /// workloads that define them.
    pub universal: bool,
}

/// The six end-to-end metrics. Bounds quote the spreads in README.md.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        universal: true,
    },
    EndToEndDef {
        name: "user_ticks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        universal: true,
    },
    EndToEndDef {
        name: "tick_host_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        universal: true,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        universal: true,
    },
    EndToEndDef {
        name: "input_to_ack_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        universal: false,
    },
    EndToEndDef {
        name: "wire_bytes_per_user_tick",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        universal: false,
    },
];

/// Catalogue entry of a per-layer metric: name (prefixed with the
/// layer's crate directory), unit, improvement direction.
pub type PerLayerDef = (&'static str, &'static str, Better);

/// Every per-layer metric of the traced run, grouped by layer.
pub const PER_LAYER: &[PerLayerDef] = &[
    // rtf — from the hand-built Wall-mode replica group, plus the codec
    // micro-drivers.
    ("rtf.server_tick_us_p50", "us", Lower),
    ("rtf.server_tick_us_p99", "us", Lower),
    ("rtf.task_ua_dser_us", "us", Lower),
    ("rtf.task_ua_us", "us", Lower),
    ("rtf.task_fa_dser_us", "us", Lower),
    ("rtf.task_fa_us", "us", Lower),
    ("rtf.task_npc_us", "us", Lower),
    ("rtf.task_aoi_us", "us", Lower),
    ("rtf.task_su_us", "us", Lower),
    ("rtf.task_mig_ini_us", "us", Lower),
    ("rtf.task_mig_rcv_us", "us", Lower),
    ("rtf.task_other_us", "us", Lower),
    ("rtf.tick_untimed_us", "us", Lower),
    ("rtf.client_tick_ns", "ns", Lower),
    ("rtf.wire_encode_ns", "ns", Lower),
    ("rtf.wire_decode_ns", "ns", Lower),
    ("rtf.inputs_per_tick", "count", Higher),
    ("rtf.updates_per_tick", "count", Higher),
    ("rtf.bytes_out_per_tick", "B", Lower),
    // demo
    ("demo.aoi_grid_rebuild_us", "us", Lower),
    ("demo.aoi_grid_query_ns", "ns", Lower),
    ("demo.aoi_quadratic_us", "us", Lower),
    ("demo.aoi_pairs_checked", "count", Lower),
    ("demo.bot_input_ns", "ns", Lower),
    // net
    ("net.send_ns", "ns", Lower),
    ("net.advance_us_per_tick", "us", Lower),
    ("net.flush_us_per_tick", "us", Lower),
    ("net.drain_ns_per_msg", "ns", Lower),
    ("net.msgs_per_tick", "count", Lower),
    ("net.dropped_msgs", "count", Lower),
    // transport
    ("transport.input_encode_ns", "ns", Lower),
    ("transport.input_decode_ns", "ns", Lower),
    ("transport.snapshot_encode_us", "us", Lower),
    ("transport.snapshot_decode_us", "us", Lower),
    ("transport.server_tick_us_p50", "us", Lower),
    ("transport.server_tick_us_p99", "us", Lower),
    ("transport.client_tick_ns", "ns", Lower),
    ("transport.input_to_ack_us_p50", "us", Lower),
    ("transport.tcp_poll_idle_ns", "ns", Lower),
    ("transport.tcp_frame_roundtrip_us", "us", Lower),
    ("transport.egress_bytes_per_tick", "B", Lower),
    ("transport.delta_entry_ratio", "ratio", Lower),
    ("transport.keyframes_sent", "count", Lower),
    ("transport.snapshot_skips", "count", Lower),
    ("transport.bp_peer_ticks", "count", Lower),
    ("transport.rewind_hit_ratio", "ratio", Higher),
    // sim
    ("sim.step_ms_p50", "ms", Lower),
    ("sim.step_ms_p99", "ms", Lower),
    ("sim.step_ms_max", "ms", Lower),
    ("sim.cluster_overhead_us", "us", Lower),
    ("sim.fanout_speedup", "ratio", Higher),
    ("sim.pool_spawn_us", "us", Lower),
    ("sim.add_user_us", "us", Lower),
    ("sim.remove_user_us", "us", Lower),
    ("sim.migrate_user_us", "us", Lower),
    ("sim.migrations", "count", Lower),
    ("sim.violations", "count", Lower),
    ("sim.unhomed_user_ticks", "count", Lower),
    // rms
    ("rms.control_steady_us", "us", Lower),
    ("rms.control_overload_us", "us", Lower),
    ("rms.admit_join_ns", "ns", Lower),
    ("rms.actions_issued", "count", Lower),
    ("rms.actions_retried", "count", Lower),
    ("rms.actions_failed", "count", Lower),
    // core / fit / autocal
    ("core.tick_ns", "ns", Lower),
    ("core.tick_terms_ns", "ns", Lower),
    ("core.n_max_ns", "ns", Lower),
    ("core.l_max_us", "us", Lower),
    ("core.plan_us", "us", Lower),
    ("fit.lm_quadratic_us", "us", Lower),
    ("fit.lm_iterations", "count", Lower),
    ("autocal.ingest_ns", "ns", Lower),
    ("autocal.end_tick_us", "us", Lower),
    ("autocal.refit_us", "us", Lower),
    ("autocal.refits", "count", Lower),
    // obs
    ("obs.emit_ring_ns", "ns", Lower),
    ("obs.emit_jsonl_ns", "ns", Lower),
    ("obs.emit_hash_ns", "ns", Lower),
    ("obs.event_to_json_ns", "ns", Lower),
    ("obs.event_from_json_ns", "ns", Lower),
    ("obs.hist_record_ns", "ns", Lower),
    ("obs.registry_record_ns", "ns", Lower),
    ("obs.slo_tick_ns", "ns", Lower),
    ("obs.attrib_fold_ns", "ns", Lower),
    ("obs.metrics_to_json_us", "us", Lower),
    ("obs.flight_prepare_dump_us", "us", Lower),
    ("obs.events_per_tick", "count", Lower),
    ("obs.ring_dropped", "count", Lower),
    ("obs.tier_overhead_ratio", "ratio", Lower),
    // harness
    ("harness.trace_overhead_ratio", "ratio", Lower),
    ("harness.generator_share", "ratio", Lower),
];

/// Unit of a catalogued per-layer metric.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value; `None` when the workload has no public entry point
    /// that yields it (reported as absent, never invented).
    pub value: Option<f64>,
    /// Samples behind the value (0 for counts and ratios).
    pub samples: u64,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &str, unit: &str, value: f64, samples: u64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: Some(value),
            samples,
        }
    }

    /// A metric this workload cannot produce.
    pub fn absent(name: &str, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: None,
            samples: 0,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// The `--seed` it ran with.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Ticks (or rounds) in the timed window.
    pub ticks: u64,
    /// Σ host time of the timed ticks, seconds.
    pub window_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Invariant breaches; the run is correct iff this is empty.
    pub breaches: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Counters that must repeat exactly for a seed and a tick count.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    /// No invariant was breached.
    pub fn correct(&self) -> bool {
        self.breaches.is_empty()
    }

    /// Records a breach unless `ok`.
    pub fn check(&mut self, ok: bool, breach: impl FnOnce() -> String) {
        if !ok {
            self.breaches.push(breach());
        }
    }

    /// Records a per-layer metric under its catalogued unit.
    pub fn layer(&mut self, name: &str, value: f64, samples: u64) {
        self.per_layer
            .push(Metric::new(name, per_layer_unit(name), value, samples));
    }

    /// Looks a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every name of `wanted`.
    /// A metric this run has no samples for (the workload does not
    /// execute that layer) reads 0.
    pub fn contract_json(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<(&str, String)> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = self.metric(name).and_then(|m| m.value).unwrap_or(0.0);
                (
                    *name,
                    json::object(&[("value", json::num(value)), ("unit", json::string(unit))]),
                )
            })
            .collect();
        json::object(&[
            ("correct", self.correct().to_string()),
            ("attempted", json::uint(self.attempted.max(1))),
            ("failed", json::uint(self.failed)),
            ("metrics", json::object(&metrics)),
        ])
    }

    /// The full rendering, read back by [`Outcome::from_json`].
    pub fn to_json(&self) -> String {
        let metrics = |list: &[Metric]| {
            json::array(
                &list
                    .iter()
                    .map(|m| {
                        json::object(&[
                            ("name", json::string(&m.name)),
                            ("unit", json::string(&m.unit)),
                            ("value", m.value.map_or("null".to_string(), json::num)),
                            ("samples", json::uint(m.samples)),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
        };
        // Counters travel as decimal strings: digests use all 64 bits and
        // the parser reads numbers as f64.
        let counters: Vec<(&str, String)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), json::string(&v.to_string())))
            .collect();
        json::object(&[
            ("workload", json::string(&self.workload)),
            ("seed", json::string(&self.seed.to_string())),
            ("traced", self.traced.to_string()),
            ("ticks", json::uint(self.ticks)),
            ("window_s", json::num(self.window_s)),
            ("attempted", json::uint(self.attempted)),
            ("failed", json::uint(self.failed)),
            (
                "breaches",
                json::array(
                    &self
                        .breaches
                        .iter()
                        .map(|b| json::string(b))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            ("counters", json::object(&counters)),
        ])
    }

    /// Parses [`Outcome::to_json`] output.
    pub fn from_json(line: &str) -> Option<Self> {
        let map = json::parse_object(line)?;
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            map.get(key)?
                .as_arr()?
                .iter()
                .map(|item| {
                    let m = item.as_obj()?;
                    Some(Metric {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        value: m.get("value")?.as_f64(),
                        samples: m.get("samples")?.as_u64()?,
                    })
                })
                .collect()
        };
        Some(Self {
            workload: map.get("workload")?.as_str()?.to_string(),
            seed: map.get("seed")?.as_str()?.parse().ok()?,
            traced: matches!(map.get("traced")?, JsonValue::Bool(true)),
            ticks: map.get("ticks")?.as_u64()?,
            window_s: map.get("window_s")?.as_f64()?,
            attempted: map.get("attempted")?.as_u64()?,
            failed: map.get("failed")?.as_u64()?,
            breaches: map
                .get("breaches")?
                .as_arr()?
                .iter()
                .map(|b| b.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            counters: map
                .get("counters")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.parse().ok()?)))
                .collect::<Option<_>>()?,
        })
    }
}
