//! What the benchmark prints: the metric catalogue (names, units,
//! directions, regression bounds — the same list `BENCHMARK.json` carries),
//! the result line the driver reads, the human table, and the `VmHWM`
//! reader behind `peak_rss_mb`.

use std::fmt::Write as _;

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric. `bound` is the share of the baseline's median by
/// which an end-to-end metric may get worse before a change counts as a
/// regression; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in print order. Every workload reports every
/// one; where a metric has no meaning for a workload (README, "n/a
/// pairs") it reads the constant 1.
pub const END_TO_END: &[MetricDef] = &[
    e2e("evals_per_s", "1/s", Higher, 0.15),
    e2e("efficiency", "ratio", Higher, 0.05),
    e2e("hv_ratio", "ratio", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The per-layer metrics of the traced pass, in print order (layer = crate).
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.produce_us", "us", Lower),
    layer("core.consume_us", "us", Lower),
    layer("core.ta_selection_us", "us", Lower),
    layer("core.ta_variation_us", "us", Lower),
    layer("core.ta_archive_us", "us", Lower),
    layer("core.ta_population_us", "us", Lower),
    layer("core.ta_adaptation_us", "us", Lower),
    layer("core.ta_restarts_us", "us", Lower),
    layer("core.archive_add_us", "us", Lower),
    layer("core.archive_len", "count", Higher),
    layer("core.restarts", "count", Lower),
    layer("core.box_probes_per_add", "count", Lower),
    layer("core.arena_reuse_ratio", "ratio", Higher),
    layer("core.allocs_per_eval", "count", Lower),
    layer("problems.evaluate_ns", "ns", Lower),
    layer("metrics.hv_ms", "ms", Lower),
    layer("net.encode_work_ns", "ns", Lower),
    layer("net.decode_work_ns", "ns", Lower),
    layer("net.encode_outcome_ns", "ns", Lower),
    layer("net.decode_outcome_ns", "ns", Lower),
    layer("net.frame_bytes_work", "bytes", Lower),
    layer("net.frame_bytes_outcome", "bytes", Lower),
    layer("net.allocs_per_frame", "count", Lower),
    layer("net.uds_rtt_us.p50", "us", Lower),
    layer("net.uds_rtt_us.p99", "us", Lower),
    layer("net.tcp_rtt_us.p50", "us", Lower),
    layer("net.register_ms", "ms", Lower),
    layer("net.rtt_us.p50", "us", Lower),
    layer("net.rtt_us.p99", "us", Lower),
    layer("net.frames_per_eval", "count", Lower),
    layer("net.bytes_per_eval", "bytes", Lower),
    layer("protocol.handle_ns.w2", "ns", Lower),
    layer("protocol.handle_ns.w1023", "ns", Lower),
    layer("protocol.recovery_quiet_ratio", "ratio", Lower),
    layer("engine.consume_us.p50", "us", Lower),
    layer("engine.dispatch_latency_us.p50", "us", Lower),
    layer("desim.queue_ns_per_event", "ns", Lower),
    layer("parallel.virtual_overhead_us", "us", Lower),
    layer("parallel.threads_evals_per_s", "1/s", Higher),
    layer("parallel.threads_tc_us", "us", Lower),
    layer("models.queueing_ns_per_eval", "ns", Lower),
    layer("models.distfit_ms", "ms", Lower),
    layer("models.sim_err_max", "ratio", Lower),
    layer("models.ana_err_max", "ratio", Lower),
    layer("runner.jobs2_speedup", "ratio", Higher),
    layer("runner.map_jobs_overhead_us", "us", Lower),
    layer("experiments.cell_ms", "ms", Lower),
    layer("obs.recorder_overhead_pct", "%", Lower),
    layer("obs.counter_ns", "ns", Lower),
    layer("obs.observe_ns", "ns", Lower),
    layer("budget.master_us_per_eval", "us", Lower),
    layer("budget.explained_us", "us", Lower),
    layer("budget.unexplained_share", "ratio", Lower),
];

/// Measured values keyed by catalogue name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits `f64` round-trips through. JSON has
/// no NaN or infinity; a measurement that produced one is a bug upstream,
/// reported as `null` so the reader fails loudly instead of misreading.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object the driver reads from the last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Every catalogued metric of `defs` must be present in `values`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(def.name),
            json_number(value),
            json_string(def.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

/// One row of the human table: name, value, unit, direction, bound.
pub fn table_row(def: &MetricDef, value: f64, note: &str) -> String {
    let bound = def
        .bound
        .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
    format!(
        "  {:<34} {:>16} {:<6} {:<7} {:<6} {}",
        def.name,
        format_value(value),
        def.unit,
        def.better.label(),
        bound,
        note
    )
}

/// Header matching [`table_row`].
pub fn table_header() -> String {
    format!(
        "  {:<34} {:>16} {:<6} {:<7} {:<6}",
        "metric", "value", "unit", "better", "bound"
    )
}

/// Four significant digits for the table (the result line keeps them all).
pub fn format_value(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}

/// Peak resident set size of this process in MB: `VmHWM` from
/// `/proc/self/status` (Linux reports it in kB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Extracts the `VmHWM` line's kB value from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_a_status_text() {
        let status = "Name:\tborg\nVmPeak:\t  999 kB\nVmHWM:\t   74512 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(74512));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tmany kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb().expect("VmHWM readable on Linux");
        assert!(mb > 0.5 && mb < 1e6, "{mb}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_keep_all_digits_and_reject_non_finite() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(2.5e-7), "2.5e-7");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = [
            e2e("latency_ms", "ms", Lower, 0.1),
            e2e("setup_s", "s", Lower, 0.25),
        ];
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("latency_ms", 1.2034);
        let line = result_line(true, 1000, 0, &defs, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let defs = [e2e("a", "s", Lower, 0.1)];
        assert!(result_line(true, 1, 0, &defs, &Values::default()).is_err());
        let mut values = Values::default();
        values.set("a", f64::NAN);
        assert!(result_line(true, 1, 0, &defs, &values).is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && ok(def.name, "_.-"), "{}", def.name);
            assert!(
                def.unit.len() <= 16 && ok(def.unit, "_/%.-"),
                "{}",
                def.unit
            );
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_with_the_same_bounds() {
        // BENCHMARK.json sits at the repository root, one level up.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let needle = match def.bound {
                Some(b) => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    def.name,
                    def.unit,
                    def.better.label(),
                    json_number(b)
                ),
                None => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    def.name,
                    def.unit,
                    def.better.label()
                ),
            };
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
