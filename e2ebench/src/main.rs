//! In-process benchmark of genpar's two jobs: answering complex-value
//! algebra queries, and probing a query's tightest genericity class.
//!
//! ```text
//! e2ebench --workload <serial_mix|inline_pool_mix|parallel_mix|genericity_probe>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread (plus the executor's two workers on
//! `parallel_mix`), no sockets: the library's public functions are called
//! directly. With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it interleaves untraced and traced rounds and prints the
//! per-layer ledger and the tracing overhead instead. The last line of
//! standard output is one JSON object. See README.md for the metrics.

mod data;
mod mix;
mod probe;
mod reference;
mod stats;
mod trace;

use std::fmt::Write as _;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The measured loop is cut into this many equal periods of time, and the
/// end-to-end timings are taken over the [`KEPT`] of them with the least
/// steal time, i.e. time the hypervisor gave the machine's virtual CPUs to
/// another guest. On a shared host steal comes in bursts; at `workers = 2`
/// a stolen CPU stalls the whole operation, and a period with 13% steal
/// made a third fewer operations than its neighbours.
pub const PERIODS: usize = 30;

/// Periods the end-to-end timings are taken over.
pub const KEPT: usize = 15;

/// Fold what the program recorded in the global obs registry since the
/// last call into `acc` (kept only by traced runs, which report the
/// program's histograms and counters), then clear the registry and the
/// timeline rings. Called between rounds, off the clock. Left to grow
/// over a long loop, the registry makes every later operation slower
/// (README.md, "End-to-end metrics"); `genpar run` starts each query with
/// an empty one.
pub fn drain_obs(acc: Option<&genpar_obs::Registry>) {
    if let Some(acc) = acc {
        genpar_obs::global().merge_into(acc);
    }
    genpar_obs::reset();
}

/// The untraced operations of one period.
#[derive(Default)]
pub struct Period {
    latencies_us: Vec<f64>,
    ops: u64,
    seconds: f64,
    /// Per-CPU steal ticks when the period began and ended.
    steal: (Vec<u64>, Vec<u64>),
}

impl Period {
    /// Steal time during the period, summed over CPUs, in clock ticks.
    fn steal_ticks(&self) -> u64 {
        self.steal
            .1
            .iter()
            .zip(&self.steal.0)
            .map(|(end, start)| end.saturating_sub(*start))
            .sum()
    }
}

/// Operation timings of the measured loop.
#[derive(Default)]
pub struct Measured {
    periods: Vec<Period>,
    /// Per-CPU steal ticks when the loop started.
    steal_at_start: Vec<u64>,
    current: usize,
    /// Wall time of every untraced operation, µs, per query (and mode).
    per_query_us: std::collections::BTreeMap<String, Vec<f64>>,
    pub untraced_ops: u64,
    pub untraced_s: f64,
    pub traced_ops: u64,
    pub traced_s: f64,
}

impl Measured {
    pub fn new() -> Measured {
        Measured {
            periods: (0..PERIODS).map(|_| Period::default()).collect(),
            steal_at_start: stats::steal_ticks(),
            current: usize::MAX,
            ..Measured::default()
        }
    }

    /// Each CPU's steal time since the loop started, as a share of `seconds`
    /// at 100 clock ticks a second.
    pub fn steal_note(&mut self, seconds: f64) -> String {
        if let Some(last) = self.periods.get_mut(self.current) {
            last.steal.1 = stats::steal_ticks();
        }
        let shares: Vec<String> = stats::steal_ticks()
            .iter()
            .zip(&self.steal_at_start)
            .map(|(now, then)| format!("{:.1}%", now.saturating_sub(*then) as f64 / seconds))
            .collect();
        format!("steal time during the loop, per CPU: {}", shares.join(", "))
    }

    /// Start a round `elapsed` seconds into a loop of `seconds`; returns
    /// the period it belongs to.
    pub fn start_round(&mut self, elapsed: f64, seconds: f64) -> usize {
        let p = ((elapsed / seconds * PERIODS as f64) as usize).min(PERIODS - 1);
        if p != self.current {
            let now = stats::steal_ticks();
            if let Some(prev) = self.periods.get_mut(self.current) {
                prev.steal.1 = now.clone();
            }
            self.periods[p].steal.0 = now;
            self.current = p;
        }
        self.current
    }

    pub fn record(&mut self, query: &str, wall_us: f64) {
        self.periods[self.current].latencies_us.push(wall_us);
        self.per_query_us
            .entry(query.to_string())
            .or_default()
            .push(wall_us);
    }

    pub fn add_round(&mut self, traced: bool, ops: usize, seconds: f64) {
        if traced {
            self.traced_ops += ops as u64;
            self.traced_s += seconds;
        } else {
            self.untraced_ops += ops as u64;
            self.untraced_s += seconds;
            let p = &mut self.periods[self.current];
            p.ops += ops as u64;
            p.seconds += seconds;
        }
    }

    /// Throughput of the untraced and traced rounds of a traced run, and
    /// their ratio.
    pub fn overhead(&self, out: &mut Outcome) {
        let untraced = self.untraced_ops as f64 / self.untraced_s.max(1e-9);
        let traced = self.traced_ops as f64 / self.traced_s.max(1e-9);
        out.layer("untraced.ops_per_s", untraced);
        out.layer("traced.ops_per_s", traced);
        out.layer("tracing_overhead", untraced / traced.max(1e-9));
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Lines describing the run, printed before the metrics.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// The end-to-end metrics of an untraced run, over the [`KEPT`]
    /// periods with the least steal time (see [`PERIODS`]). `tail` is the
    /// percentile `tail_us` reports: fixed per workload, so that it means
    /// the same in every run, and chosen so that the kept periods leave at
    /// least ten samples beyond it.
    pub fn e2e(&mut self, setup: &[f64], m: &Measured, tail: f64) {
        let periods: Vec<(usize, &Period)> = m
            .periods
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ops > 0)
            .collect();
        let mut by_steal = periods.clone();
        by_steal.sort_by_key(|(i, p)| (p.steal_ticks(), *i));
        let kept = &by_steal[..by_steal.len().min(KEPT)];
        for (i, p) in &periods {
            self.notes.push(format!(
                "period {i}: {} operations, {:.1} ops/s, p50 {:.1} us, steal {} ticks{}",
                p.latencies_us.len(),
                p.ops as f64 / p.seconds,
                stats::percentile(&p.latencies_us, 50.0),
                p.steal_ticks(),
                if kept.iter().any(|(k, _)| k == i) {
                    ", kept"
                } else {
                    ""
                }
            ));
        }
        for (q, v) in &m.per_query_us {
            self.notes
                .push(format!("median {:>10.1} us  {q}", stats::median(v)));
        }
        let latencies: Vec<f64> = kept
            .iter()
            .flat_map(|(_, p)| p.latencies_us.iter().copied())
            .collect();
        let ops: u64 = kept.iter().map(|(_, p)| p.ops).sum();
        let seconds: f64 = kept.iter().map(|(_, p)| p.seconds).sum();
        self.notes.push(format!(
            "kept periods: {} of {}, {} operations, {} samples beyond p{tail}",
            kept.len(),
            periods.len(),
            latencies.len(),
            stats::beyond(latencies.len(), tail)
        ));
        self.notes.push(format!("setups timed: {}", setup.len()));
        self.metric("setup_s", stats::median(setup), "s");
        self.metric("ops_per_s", ops as f64 / seconds.max(1e-9), "1/s");
        self.metric("p50_us", stats::percentile(&latencies, 50.0), "us");
        self.metric("tail_us", stats::percentile(&latencies, tail), "us");
        self.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }

    /// A per-layer metric; its unit follows from its name.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.metric(name, value, layer_unit(name));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn render_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        s.push_str("}}");
        s
    }
}

/// Per-layer metrics every workload reports in a traced run; a layer a
/// workload never reaches reads 0.
const PER_LAYER: &[&str] = &[
    "op.wall_us",
    "unattributed_us",
    "parse.us",
    "optimize.us",
    "optimize.rewrites",
    "gate.us",
    "load.table_us",
    "lower.us",
    "exec.serial_us",
    "exec.parallel_us",
    "exec.fixpoint_us",
    "exec.combiner_us",
    "exec.fallback_us",
    "exec.rows_scanned",
    "exec.rows_processed",
    "exec.db_rebuild_us",
    "exec.morsel_us.p50",
    "exec.morsel_us.p95",
    "exec.morsel_us.count",
    "exec.fixpoint_round_us.p50",
    "exec.fixpoint_round_us.p95",
    "exec.fixpoint_round_us.count",
    "exec.degrade_steps",
    "vm.programs",
    "vm.degrade",
    "vm.compile_us",
    "render.us",
    "gate.share_of_exec",
    "lower.share_of_exec",
    "vm.compile.share_of_exec",
    "exec.db_rebuild.share_of_exec",
    "classify.us",
    "typeinfer.us",
    "probe.us",
    "probe.apply_us",
    "probe.apply_calls",
    "probe.mapping_us",
    "check.pairs_verified",
    "check.skipped",
    "check.cache_hit_ratio",
    "untraced.ops_per_s",
    "traced.ops_per_s",
    "tracing_overhead",
];

/// The unit of a per-layer metric, read off its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("us") || name.ends_with(".p50") || name.ends_with(".p95") {
        "us"
    } else if name.ends_with("ops_per_s") {
        "1/s"
    } else if name.contains("share") || name.ends_with("ratio") || name.ends_with("overhead") {
        "ratio"
    } else {
        "count"
    }
}

/// Add a 0 for every per-layer metric the workload did not report.
fn complete_layers(out: &mut Outcome) {
    for name in PER_LAYER {
        if !out.metrics.iter().any(|(n, _, _)| n == name) {
            out.layer(name, 0.0);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serial_mix" => mix::run(&args, 1, mix::Pool::Threads),
        "parallel_mix" => mix::run(&args, 2, mix::Pool::Threads),
        "inline_pool_mix" => mix::run(&args, 2, mix::Pool::Inline),
        "genericity_probe" => probe::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        complete_layers(&mut out);
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# hardware threads: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for n in &out.notes {
        println!("# {n}");
    }
    println!(
        "# operations attempted {}, failed {}, correct {}",
        out.attempted, out.failed, out.correct
    );
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    println!("{}", out.render_json());
}

#[cfg(test)]
mod tests {
    /// `PER_LAYER` names exactly the `per_layer` metrics of the repository's
    /// `BENCHMARK.json`, with the units given there.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        let section = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        let field = |entry: &str, key: &str| -> String {
            let from = entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
            entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
        };
        let mut listed: Vec<(String, String)> = section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect();
        let mut ours: Vec<(String, String)> = super::PER_LAYER
            .iter()
            .map(|n| (n.to_string(), super::layer_unit(n).to_string()))
            .collect();
        listed.sort_unstable();
        ours.sort_unstable();
        assert_eq!(listed, ours);
    }
}
