//! `serial_mix` and `parallel_mix`: a closed loop, one client, over a
//! fixed query mix on the seeded catalog. One operation is what
//! `genpar run` does for a query, with the optimizer in the loop:
//! parse → `optimize_costed_parallel_with` → `exec::eval_query` → render.

use crate::data::{self, Inputs};
use crate::reference as rf;
use crate::trace::{us, Tracer};
use crate::{Args, Measured, Outcome};
use genpar_algebra::parse::parse_query;
use genpar_algebra::{vm, Query};
use genpar_core::partition_safety;
use genpar_engine::{lower, Catalog};
use genpar_exec::{db_from_catalog, eval_query, ExecConfig, ExecRoute};
use genpar_optimizer::{optimize_costed_parallel_with, Calibration, Constraints, RuleSet};
use std::hint::black_box;
use std::time::Instant;

/// A catalog build is timed at the start of every this many periods,
/// besides the one the run uses; `setup_s` is their median.
const SETUP_EVERY: usize = 3;

/// One query of the mix with its expected rendering(s).
struct MixQuery {
    text: &'static str,
    expected: Vec<String>,
    /// `map[succ]` on a unary relation: `succ` receives the 1-tuple
    /// `(x)` instead of `x` and the standard signature's ill-typed branch
    /// answers `0`. Its operations are counted as failed until that is
    /// fixed; a wrong answer anywhere else makes the run incorrect.
    known_fault: bool,
}

fn mix(inp: &Inputs) -> Vec<MixQuery> {
    let exact = |text, expected: String| MixQuery {
        text,
        expected: vec![expected],
        known_fault: false,
    };
    let (r, s, t, u, e) = (&inp.r, &inp.s, &inp.t, &inp.u, &inp.e);
    let succ = rf::succ(u);
    let succ_rows: rf::Rel = succ.iter().map(|&x| vec![x]).collect();
    vec![
        exact(
            "pi[$1,$5](select[$5=3](join[$2=$1](R, T)))",
            rf::render_rel(&rf::hash_join_select_project(
                r,
                t,
                (1, 0),
                Some((4, 3)),
                &[0, 4],
            )),
        ),
        exact(
            "select[$1=$2](T)",
            rf::render_rel(&rf::select(t, |x| x[0] == x[1])),
        ),
        exact(
            "select[even($2)](T)",
            rf::render_rel(&rf::select(t, |x| x[1] % 2 == 0)),
        ),
        exact(
            "select[lt($1, $2)](T)",
            rf::render_rel(&rf::select(t, |x| x[0] < x[1])),
        ),
        exact("diff(R, S)", rf::render_rel(&rf::difference(r, s))),
        exact(
            "pi[$1](diff(R, S))",
            rf::render_rel(&rf::project(&rf::difference(r, s), &[0])),
        ),
        exact(
            "pi[$1,$2](union(R, S))",
            rf::render_rel(&rf::project(&rf::union(r, s), &[0, 1])),
        ),
        exact("pi[$2](T)", rf::render_rel(&rf::project(t, &[1]))),
        exact("count(T)", t.len().to_string()),
        exact("sum[$2](T)", rf::sum(t, 1).to_string()),
        exact("nest[$1](T)", rf::render_nested(&rf::nest(t, 0))),
        exact(
            "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
            rf::render_rel(&rf::closure(e)),
        ),
        MixQuery {
            text: "map[succ](U)",
            expected: vec![rf::render_ints(&succ), rf::render_rel(&succ_rows)],
            known_fault: true,
        },
    ]
}

/// Everything one operation needs besides its query.
struct Ctx {
    catalog: Catalog,
    rules: RuleSet,
    cal: Calibration,
    cfg: ExecConfig,
}

impl Ctx {
    fn new(catalog: Catalog, workers: usize) -> Ctx {
        // R and S share the key $1, so π₁ is injective on R ∪ S: the
        // side condition of the key-aware push of π through −
        let rules = RuleSet::with_constraints(
            Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
        );
        Ctx {
            catalog,
            rules,
            cal: Calibration::default(),
            cfg: ExecConfig::serial().with_workers(workers),
        }
    }

    /// One operation, untraced.
    fn op(&self, text: &str) -> Result<String, String> {
        let q = parse_query(text).map_err(|e| e.to_string())?;
        let (chosen, _, _, _) = optimize_costed_parallel_with(
            &q,
            &self.rules,
            &self.catalog,
            self.cfg.workers,
            &self.cal,
        );
        let (v, _, _) = eval_query(&chosen, &self.catalog, &self.cfg).map_err(|e| e.to_string())?;
        Ok(v.to_string())
    }

    /// One operation with a span around each layer call, then separate
    /// timed calls of the layers that run inside `eval_query`.
    fn op_traced(&self, text: &str, tr: &mut Tracer) -> Result<String, String> {
        let id = tr.next_op();
        let t0 = Instant::now();
        let q = parse_query(text).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let (chosen, rewrites, _, _) = optimize_costed_parallel_with(
            &q,
            &self.rules,
            &self.catalog,
            self.cfg.workers,
            &self.cal,
        );
        let t2 = Instant::now();
        let (v, stats, route) =
            eval_query(&chosen, &self.catalog, &self.cfg).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let out = v.to_string();
        let t4 = Instant::now();
        drop((q, v));
        let t5 = Instant::now();
        let path = Path::of(&chosen, &route);
        tr.span("op.wall_us", id, t0, t5);
        tr.span("parse.us", id, t0, t1);
        tr.span("optimize.us", id, t1, t2);
        tr.span(path.exec_layer(), id, t2, t3);
        tr.span("render.us", id, t3, t4);
        tr.add("unattributed_us", us(t0, t5) - us(t0, t4));
        tr.add("optimize.rewrites", rewrites.steps.len() as f64);
        tr.add("exec.rows_scanned", stats.rows_scanned as f64);
        tr.add("exec.rows_processed", stats.rows_processed as f64);
        tr.add("exec.us", us(t2, t3));
        self.inner_layers(&chosen, &path, tr);
        Ok(out)
    }

    /// Time the gate, lowering, VM compilation and the `Db` rebuild on the
    /// same inputs `eval_query` gave them, as many times as the route
    /// made each call.
    fn inner_layers(&self, q: &Query, path: &Path, tr: &mut Tracer) {
        if self.cfg.workers > 1 {
            let t = Instant::now();
            black_box(partition_safety(black_box(q)));
            tr.add("gate.us", us(t, Instant::now()));
        }
        let lowers: Vec<&Query> = match (path, q) {
            (Path::Fallback, _) => vec![],
            (Path::Combiner, Query::Count(i) | Query::Sum(_, i) | Query::Even(i)) => vec![i],
            (Path::Fixpoint { .. }, Query::Fixpoint { init, .. }) => vec![init],
            // the serial route tries to lower first, the interpreter included
            _ => vec![q],
        };
        let t = Instant::now();
        for l in lowers {
            black_box(lower(black_box(l)));
        }
        if let (Path::Fixpoint { rounds }, Query::Fixpoint { var, step, .. }) = (path, q) {
            // the probe substitution plus one bound body per round
            let body = step.substitute_rel(var, &genpar_value::Value::empty_set());
            for _ in 0..=*rounds {
                black_box(lower(black_box(&body)));
            }
        }
        tr.add("lower.us", us(t, Instant::now()));
        if !matches!(path, Path::Engine) {
            let repeats = match path {
                Path::Fixpoint { rounds } => *rounds,
                _ => 1,
            };
            let t = Instant::now();
            for _ in 0..repeats {
                q.visit(&mut |n| match n {
                    Query::Select(p, _) => {
                        let _ = black_box(vm::compile_pred(p));
                    }
                    Query::Map(f, _) => {
                        let _ = black_box(vm::compile_fn(f));
                    }
                    _ => {}
                });
            }
            tr.add("vm.compile_us", us(t, Instant::now()));
        }
        if matches!(path, Path::Interpreter | Path::Fallback) {
            let t = Instant::now();
            black_box(db_from_catalog(&self.catalog));
            tr.add("exec.db_rebuild_us", us(t, Instant::now()));
        }
    }
}

/// Which code `eval_query` ran, from its returned route.
enum Path {
    /// `workers = 1`, the query lowers: `engine::plan::execute`.
    Engine,
    /// `workers = 1`, it does not: the algebra interpreter.
    Interpreter,
    Parallel,
    Fixpoint {
        rounds: u64,
    },
    Combiner,
    Fallback,
}

impl Path {
    fn of(q: &Query, route: &ExecRoute) -> Path {
        match route {
            ExecRoute::Serial if lower(q).is_some() => Path::Engine,
            ExecRoute::Serial => Path::Interpreter,
            ExecRoute::Fallback { .. } => Path::Fallback,
            ExecRoute::Parallel { certificate, .. } => {
                if let Some(r) = certificate.split("rounds: ").nth(1) {
                    Path::Fixpoint {
                        rounds: r.trim().parse().unwrap_or(0),
                    }
                } else if certificate.starts_with("combiner") {
                    Path::Combiner
                } else {
                    Path::Parallel
                }
            }
        }
    }

    fn exec_layer(&self) -> &'static str {
        match self {
            Path::Engine | Path::Interpreter => "exec.serial_us",
            Path::Parallel => "exec.parallel_us",
            Path::Fixpoint { .. } => "exec.fixpoint_us",
            Path::Combiner => "exec.combiner_us",
            Path::Fallback => "exec.fallback_us",
        }
    }
}

/// How the executor's worker threads are provided.
#[derive(Clone, Copy, PartialEq)]
pub enum Pool {
    /// No governor: a parallel route spawns its `workers` threads.
    Threads,
    /// A one-slot worker governor (`exec::pool::install_worker_governor`),
    /// as in a resident server whose pool is lent out: the gate still
    /// picks the parallel, fixpoint or combiner route at `workers = 2`,
    /// and its kernels run inline on the client thread.
    Inline,
}

pub fn run(args: &Args, workers: usize, pool: Pool) -> Result<Outcome, String> {
    if pool == Pool::Inline && !genpar_exec::pool::install_worker_governor(1) {
        return Err("a worker governor was already installed".to_string());
    }
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut setup = Vec::new();
    let mut timed_load = |tracer: &mut Tracer| {
        let t = Instant::now();
        let catalog = data::load_catalog(args.seed, args.trace.then_some(tracer));
        setup.push(t.elapsed().as_secs_f64());
        catalog
    };
    let catalog = timed_load(&mut tracer);
    let inputs = data::inputs(&catalog)?;
    let queries = mix(&inputs);
    let ctx = Ctx::new(catalog, workers);

    // Before the clock starts: both worker counts on every query, against
    // the reference and against each other.
    let other = Ctx::new(
        data::load_catalog(args.seed, None),
        if workers == 1 { 2 } else { 1 },
    );
    for q in queries.iter().filter(|q| !q.known_fault) {
        let mine = ctx.op(q.text)?;
        let theirs = other.op(q.text)?;
        if !q.expected.contains(&mine) {
            return Err(format!(
                "{} at workers={workers}: got {}, expected {}",
                q.text,
                clip(&mine),
                clip(&q.expected[0])
            ));
        }
        if mine != theirs {
            return Err(format!(
                "{}: workers={workers} and workers={} answers differ",
                q.text, other.cfg.workers
            ));
        }
    }
    drop(other);
    let obs = args.trace.then(genpar_obs::Registry::new);
    crate::drain_obs(None);

    let mut m = Measured::new();
    let start = Instant::now();
    let mut round = 0u64;
    let mut period = None;
    while start.elapsed().as_secs_f64() < args.seconds {
        let p = m.start_round(start.elapsed().as_secs_f64(), args.seconds);
        if period != Some(p) {
            period = Some(p);
            if p.is_multiple_of(SETUP_EVERY) {
                drop(timed_load(&mut tracer));
            }
        }
        crate::drain_obs(obs.as_ref());
        // a traced run interleaves untraced and traced rounds, so the
        // tracing overhead is measured under the same conditions
        let traced = args.trace && round % 2 == 1;
        let round_start = Instant::now();
        for q in &queries {
            let t = Instant::now();
            let result = if traced {
                ctx.op_traced(q.text, &mut tracer)
            } else {
                ctx.op(q.text)
            };
            let wall = t.elapsed().as_secs_f64() * 1e6;
            let ok = matches!(&result, Ok(text) if q.expected.contains(text));
            if !ok && !q.known_fault {
                if out.correct {
                    out.notes.push(format!(
                        "first wrong answer: {} -> {}",
                        q.text,
                        clip(&format!("{result:?}"))
                    ));
                }
                out.correct = false;
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if !traced {
                m.record(q.text, wall);
            }
        }
        m.add_round(traced, queries.len(), round_start.elapsed().as_secs_f64());
        round += 1;
    }
    out.notes.push(format!(
        "mix: {} queries per round, {round} rounds; catalog R,S {} rows each",
        queries.len(),
        data::KEYED_ROWS
    ));
    out.notes.push(format!(
        "workers: {workers}{}",
        match pool {
            Pool::Threads => "",
            Pool::Inline => ", one-slot worker governor: parallel routes run inline",
        }
    ));
    out.notes.push(m.steal_note(start.elapsed().as_secs_f64()));
    if let Some(obs) = &obs {
        crate::drain_obs(Some(obs));
        mix_layers(&tracer, &m, &obs.snapshot(), setup.len(), workers, &mut out);
        out.notes.push(format!(
            "trace file: {}",
            crate::trace::write_trace(&tracer, &args.workload, args.seed)
                .map_err(|e| e.to_string())?
        ));
    } else {
        out.e2e(&setup, &m, 95.0);
    }
    Ok(out)
}

/// The per-layer metrics of a traced mix run, as means per traced
/// operation (times in µs), plus the program's own obs figures.
fn mix_layers(
    tr: &Tracer,
    m: &Measured,
    snap: &genpar_obs::Snapshot,
    loads: usize,
    workers: usize,
    out: &mut Outcome,
) {
    let ops = m.traced_ops.max(1) as f64;
    for name in [
        "op.wall_us",
        "parse.us",
        "optimize.us",
        "optimize.rewrites",
        "gate.us",
        "lower.us",
        "exec.serial_us",
        "exec.parallel_us",
        "exec.fixpoint_us",
        "exec.combiner_us",
        "exec.fallback_us",
        "exec.rows_scanned",
        "exec.rows_processed",
        "exec.db_rebuild_us",
        "vm.compile_us",
        "render.us",
        "unattributed_us",
    ] {
        out.layer(name, tr.sum(name) / ops);
    }
    let exec = tr.sum("exec.us").max(f64::MIN_POSITIVE);
    for (share, of) in [
        ("gate.share_of_exec", "gate.us"),
        ("lower.share_of_exec", "lower.us"),
        ("vm.compile.share_of_exec", "vm.compile_us"),
        ("exec.db_rebuild.share_of_exec", "exec.db_rebuild_us"),
    ] {
        out.layer(share, tr.sum(of) / exec);
    }
    out.layer("load.table_us", tr.sum("load.table_us") / loads as f64);
    // the obs registry saw every operation of the loop, traced or not
    let all_ops = out.attempted.max(1) as f64;
    for h in ["exec.morsel_us", "exec.fixpoint_round_us"] {
        let s = snap.histograms.get(h).copied().unwrap_or_default();
        out.layer(&format!("{h}.p50"), s.p50 as f64);
        out.layer(&format!("{h}.p95"), s.p95 as f64);
        out.layer(&format!("{h}.count"), s.count as f64 / all_ops);
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let degrade: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.degrade_step."))
        .map(|(_, v)| *v)
        .sum();
    out.layer("exec.degrade_steps", degrade as f64 / all_ops);
    out.layer("vm.programs", counter("vm.programs") / all_ops);
    out.layer("vm.degrade", counter("vm.degrade") / all_ops);
    out.notes.push(format!(
        "obs histograms and counters (per operation) cover untraced and traced rounds at workers={workers}"
    ));
    m.overhead(out);
}

fn clip(s: &str) -> String {
    if s.len() > 120 {
        format!("{}…", s.chars().take(120).collect::<String>())
    } else {
        s.to_string()
    }
}
