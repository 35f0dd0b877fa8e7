//! The four workloads: what each generates, the service configuration it
//! drives, and the cumulative stacks its ledger measures.

use crate::gen::Shape;
use dpd_core::pipeline::DpdBuilder;
use dpd_core::query::{parse_specs, QuerySpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["replay-deep", "replay-wide", "query-join", "serve-paced"];

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 long-lived streams, 4096-sample records, window 256, inline.
    Deep,
    /// ~50k live of 150k ids, 16-sample records, window 16, eviction,
    /// two shards, resumed from a mid-corpus checkpoint.
    Wide,
    /// ~20k live churning streams, forecasting and all four query kinds.
    QueryJoin,
    /// 10k streams paced over loopback `DpdServer` connections.
    Serve,
}

/// Per-stream standing queries (period-join excluded).
const STREAM_QUERIES: &str = "period-in 4 8\nlock-lost-within 4096\nconfidence-at-least 0.9\n";
/// The cross-stream join, added on query-join only.
const JOIN_QUERY: &str = "period-join 0\n";

fn queries(join: bool) -> Vec<QuerySpec> {
    let text = if join {
        format!("{STREAM_QUERIES}{JOIN_QUERY}")
    } else {
        STREAM_QUERIES.to_string()
    };
    parse_specs(&text).expect("built-in query specs parse")
}

/// One ledger stack: its row name and what it runs.
pub enum Rung {
    /// Decode only.
    Decode,
    /// Bare per-stream detectors.
    Detectors(DpdBuilder),
    /// A `StreamTable` built from the builder.
    Table(DpdBuilder),
    /// The inline `MultiStreamDpd` service the builder describes.
    Service(DpdBuilder),
    /// The same service with worker shards: stages overlap, so its row is
    /// not additive and the attribution self-test leaves it out.
    Sharded(DpdBuilder),
    /// Closed-loop loopback `DpdServer` (parallel like `Sharded`).
    Serve(DpdBuilder),
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "replay-deep" => Kind::Deep,
            "replay-wide" => Kind::Wide,
            "query-join" => Kind::QueryJoin,
            "serve-paced" => Kind::Serve,
            _ => return None,
        })
    }

    /// Salt decorrelating this workload's generator from the others'.
    pub fn salt(self) -> u64 {
        self as u64 + 1
    }

    /// Detector window.
    pub fn window(self) -> usize {
        match self {
            Kind::Deep => 256,
            Kind::Wide => 16,
            Kind::QueryJoin => 32,
            Kind::Serve => 64,
        }
    }

    /// Idle-eviction watermark in global samples (`0`: none). Set well
    /// above the largest gap between two records of one live stream, so
    /// only streams that have ended are evicted.
    fn evict_after(self) -> u64 {
        match self {
            Kind::Wide => 2_000_000,
            Kind::QueryJoin => 800_000,
            Kind::Deep | Kind::Serve => 0,
        }
    }

    /// The generated population.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Deep => Shape {
                live: 64,
                ids: 64,
                rec_len: 4096,
                records: (24, 24),
                periods: (2, 128),
                seg_len: (2048, 12288),
            },
            Kind::Wide => Shape {
                live: 50_000,
                ids: 150_000,
                rec_len: 16,
                records: (2, 4),
                periods: (2, 6),
                // Longer than any stream: one planted segment per stream.
                seg_len: (1 << 20, 1 << 20),
            },
            Kind::QueryJoin => Shape {
                live: 20_000,
                ids: 30_000,
                rec_len: 16,
                records: (6, 12),
                periods: (2, 12),
                seg_len: (80, 120),
            },
            Kind::Serve => Shape {
                live: 10_000,
                ids: 10_000,
                rec_len: 16,
                records: (16, 16),
                periods: (2, 16),
                seg_len: (120, 200),
            },
        }
    }

    /// Detector-only builder (window and eviction, nothing attached).
    /// Idle streams are swept every half watermark, so ended streams
    /// leave the table while new ids keep arriving.
    fn base(self) -> DpdBuilder {
        let b = DpdBuilder::new().window(self.window());
        match self.evict_after() {
            0 => b,
            n => b.evict_after(n).sweep_every(n / 2),
        }
    }

    /// Keyed-table builder with forecasting and the given queries.
    fn table(self, forecast: bool, queries: Vec<QuerySpec>) -> DpdBuilder {
        let mut b = self.base().keyed();
        if forecast {
            b = b.forecast(4);
        }
        if !queries.is_empty() {
            b = b.standing_queries(&queries);
        }
        b
    }

    /// The service configuration the workload measures.
    pub fn builder(self) -> DpdBuilder {
        match self {
            Kind::Deep => self.base().shards(0),
            Kind::Wide => self.base().shards(2),
            Kind::QueryJoin => self.table(true, queries(true)).shards(0),
            Kind::Serve => self.table(true, queries(false)).shards(0),
        }
    }

    /// The cumulative stacks of the ledger, each adding one layer to the
    /// one before; the increments are the layer rows.
    pub fn ladder(self) -> Vec<(&'static str, Rung)> {
        let mut l = vec![
            ("dtb.decode_ns_per_sample", Rung::Decode),
            (
                "streaming.detector_ns_per_sample",
                Rung::Detectors(DpdBuilder::new().window(self.window())),
            ),
            (
                "shard.table_ns_per_sample",
                Rung::Table(self.table(false, vec![])),
            ),
        ];
        match self {
            Kind::Deep => {}
            Kind::Wide => {}
            Kind::QueryJoin => {
                l.push((
                    "predict.ns_per_sample",
                    Rung::Table(self.table(true, vec![])),
                ));
                l.push((
                    "query.stream_ns_per_sample",
                    Rung::Table(self.table(true, queries(false))),
                ));
                l.push((
                    "query.join_ns_per_sample",
                    Rung::Table(self.table(true, queries(true))),
                ));
            }
            Kind::Serve => {
                l.push((
                    "predict.ns_per_sample",
                    Rung::Table(self.table(true, vec![])),
                ));
                l.push((
                    "query.stream_ns_per_sample",
                    Rung::Table(self.table(true, queries(false))),
                ));
            }
        }
        match self {
            Kind::Wide => {
                l.push((
                    "service.overhead_ns_per_sample",
                    Rung::Service(self.base().shards(0)),
                ));
                l.push((
                    "service.shards_ns_per_sample",
                    Rung::Sharded(self.builder()),
                ));
            }
            Kind::Serve => {
                l.push((
                    "service.overhead_ns_per_sample",
                    Rung::Service(self.builder()),
                ));
                l.push(("net.ns_per_sample", Rung::Serve(self.builder())));
            }
            Kind::Deep | Kind::QueryJoin => {
                l.push((
                    "service.overhead_ns_per_sample",
                    Rung::Service(self.builder()),
                ));
            }
        }
        l
    }

    /// The same service with every observer removed: forecasting and
    /// standing queries must not change the detector event log.
    pub fn plain_inline(self) -> DpdBuilder {
        self.base().shards(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_builds() {
        for name in NAMES {
            let k = Kind::parse(name).unwrap();
            k.builder().service_spec().unwrap();
            k.plain_inline().service_spec().unwrap();
            for (_, rung) in k.ladder() {
                match rung {
                    Rung::Decode => {}
                    Rung::Detectors(b) => drop(b.build_detector().unwrap()),
                    Rung::Table(b) => drop(b.build_table().unwrap()),
                    Rung::Service(b) | Rung::Sharded(b) | Rung::Serve(b) => {
                        drop(b.service_spec().unwrap())
                    }
                }
            }
        }
        assert!(Kind::parse("nope").is_none());
    }
}
