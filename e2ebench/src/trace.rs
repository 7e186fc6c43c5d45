//! Benchmark-side tracing: spans recorded around calls into the library's
//! public functions, summed into a per-layer ledger and written out as a
//! Chrome trace-event file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count in the ledger.
const MAX_SPANS: usize = 50_000;

struct Span {
    name: &'static str,
    op: u64,
    start: Instant,
    end: Instant,
}

/// The spans and per-layer sums of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    sums: BTreeMap<&'static str, f64>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            next_op: 0,
        }
    }

    /// A fresh id shared by the spans of one operation.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record the span `name` of operation `op` and add its length in
    /// microseconds to the layer sum of the same name.
    pub fn span(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.add(name, us(start, end));
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                op,
                start,
                end,
            });
        }
    }

    /// Add `value` to the layer sum `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// The sum recorded under `name` (0 when never recorded).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The spans as a Chrome trace-event document: complete (`X`) events,
    /// one thread lane, the operation id in `args`. Spans nested inside
    /// an `op` span are its layers.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                us(self.epoch, s.start),
                us(s.start, s.end),
                s.op
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Microseconds from `a` to `b`.
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Write the trace file under the benchmark's `out/` directory, returning
/// its path.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{workload}-{seed}.json");
    std::fs::write(&path, tracer.chrome_json())?;
    Ok(path)
}
