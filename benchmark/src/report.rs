//! The metric registry (names and units, mirrored in `BENCHMARK.json`)
//! and the result a run prints.

use std::collections::BTreeMap;

/// Metrics a user of the system would see; reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_heaviest_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers (prefix = crate); reported by traced runs.
/// A metric the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pairing.fp_mul_ns", "ns"),
    ("pairing.miller_loop_us", "us"),
    ("pairing.final_exp_us", "us"),
    ("pairing.multi_pairing4_prepared_us", "us"),
    ("pairing.g2_prepare_us", "us"),
    ("pairing.g1_mul_us", "us"),
    ("pairing.g2_mul_us", "us"),
    ("pairing.g1_fixed_mul_us", "us"),
    ("pairing.g2_fixed_mul_us", "us"),
    ("pairing.hash_to_g1_us", "us"),
    ("pairing.msm_g2_128_ms", "ms"),
    ("pairing.msm_g2_512_ms", "ms"),
    ("parallel.par_map_speedup", "x"),
    ("core.hash_message_us", "us"),
    ("core.share_sign_us", "us"),
    ("core.share_verify_us", "us"),
    ("core.combine_us", "us"),
    ("core.verify_us", "us"),
    ("core.sign_crypto_ms", "ms"),
    ("core.netsign_rounds_per_sign", "count"),
    ("core.netsign_msgs_per_sign", "count"),
    ("core.netsign_bytes_per_sign", "bytes"),
    ("core.netsign_inproc_sign_ms", "ms"),
    ("core.netsign_inproc_ops_s", "1/s"),
    ("core.agg_verify_us", "us"),
    ("core.gateway_flush64_ms", "ms"),
    ("core.gateway_flush1_ms", "ms"),
    ("core.gateway_batch_mean", "count"),
    ("core.gateway_size_flushes", "count"),
    ("core.gateway_deadline_flushes", "count"),
    ("core.gateway_multi_pairings", "count"),
    ("core.gateway_bisections", "count"),
    ("core.gateway_leaf_checks", "count"),
    ("core.gateway_prepared_hit_ratio", "ratio"),
    ("shamir.lagrange_t1_us", "us"),
    ("shamir.lagrange_t15_us", "us"),
    ("shamir.pedersen_deal_n16_ms", "ms"),
    ("shamir.pedersen_deal_n32_ms", "ms"),
    ("shamir.verify_share_us", "us"),
    ("shamir.batch_verify_n16_ms", "ms"),
    ("shamir.batch_verify_n32_ms", "ms"),
    ("dkg.r0_compute_ms", "ms"),
    ("dkg.r1_compute_ms", "ms"),
    ("dkg.r2_compute_ms", "ms"),
    ("dkg.r3_compute_ms", "ms"),
    ("dkg.compute_sum_s", "s"),
    ("dkg.compute_cpu_s", "s"),
    ("dkg.critical_path_s", "s"),
    ("dkg.session_s", "s"),
    ("dkg.lockstep_s", "s"),
    ("dkg.socket_overhead_s", "s"),
    ("dkg.assemble_ms", "ms"),
    ("dkg.rounds", "count"),
    ("dkg.messages", "count"),
    ("dkg.bytes_per_player", "bytes"),
    ("net.encode_deal_n32_us", "us"),
    ("net.decode_deal_n32_us", "us"),
    ("net.encode_partial_us", "us"),
    ("net.decode_partial_us", "us"),
    ("net.round_us_lockstep", "us"),
    ("net.round_us_channel", "us"),
    ("net.round_us_reactor", "us"),
    ("net.frames_per_s", "1/s"),
    ("service.frame_roundtrip_us", "us"),
    ("service.gateway_worker_inproc_ops_s", "1/s"),
    ("service.sign_unloaded_p50_ms", "ms"),
    ("service.verify_unloaded_p50_ms", "ms"),
    ("service.sign_overhead_ms", "ms"),
    ("service.sign_internal_p50_ms", "ms"),
    ("service.verify_internal_p50_ms", "ms"),
    ("service.idle_cpu_frac", "ratio"),
    ("service.cpu_ms_per_sign", "ms"),
    ("service.cpu_ms_per_verify", "ms"),
    ("service.high_water", "count"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.inputs_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.sign_p50_ms", "ms"),
    ("bench.sign_p99_ms", "ms"),
    ("bench.verify_p50_ms", "ms"),
    ("bench.verify_p99_ms", "ms"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` for a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {} is not in the registry",
            name
        );
        assert!(value.is_finite(), "metric {} is not a number", name);
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// One `workload metric value unit` line per recorded metric.
    pub fn lines(&self, workload: &str) -> String {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        self.values
            .iter()
            .map(|(name, value)| format!("{} {} {} {}\n", workload, name, value, unit_of(name)))
            .collect()
    }

    /// The result object: every metric of `registry`, unrecorded ones
    /// as 0 (per-layer metrics the workload does not exercise).
    pub fn result_json(
        &self,
        registry: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> String {
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name,
                    self.get(name).unwrap_or(0.0),
                    unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            attempted,
            failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract the driver reads; the registry
    /// here is what runs print. They must name the same metrics with
    /// the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let contract = include_str!("../../BENCHMARK.json");
        for (section, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = contract.find(&format!("\"{}\"", section)).unwrap();
            let body = &contract[start..];
            let body = &body[..body.find(']').unwrap()];
            assert_eq!(
                body.matches("\"name\"").count(),
                registry.len(),
                "{}",
                section
            );
            for (name, unit) in registry {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", name, unit);
                assert!(body.contains(&entry), "{} lacks {}", section, entry);
            }
        }
    }

    #[test]
    fn result_json_lists_every_registered_metric_once() {
        let mut report = Report::default();
        report.set("setup_s", 0.25);
        let json = report.result_json(END_TO_END, true, 10, 0);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
    }
}
