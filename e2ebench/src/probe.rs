//! `genericity_probe`: what `genpar probe` does, for every named query of
//! the paper's catalog in both extension modes: the static classifier
//! (`core::infer_requirements`), then the dynamic checker over the
//! five-rung ladder (`core::probe_tightest`), each rung model-checking
//! Definition 2.9 on thousands of small related inputs.

use crate::trace::{us, Tracer};
use crate::{Args, Measured, Outcome};
use genpar_algebra::parse::parse_query;
use genpar_algebra::types::{infer_type, TypeEnv};
use genpar_algebra::{catalog, Db, Query};
use genpar_core::check::{AlgebraQuery, CheckConfig, CheckOutcome, QueryFn};
use genpar_core::{infer_requirements, probe_tightest, Inferred, ProbeReport, Requirements, Rung};
use genpar_mapping::extend::try_relates;
use genpar_mapping::{ExtBudget, ExtensionMode};
use genpar_value::{BaseType, CvType, DomainId, Value};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups timed at the start of every round; `setup_s` is the median
/// over the run. One set-up takes microseconds, so a median over many,
/// spread over the whole run, is needed for a steady figure.
const SETUPS_PER_ROUND: usize = 16;

/// What the paper states about a query in one mode: rungs whose class
/// the query is generic for (`true`) or provably not (`false`). `None`:
/// the query is not probed in that mode.
type Stated = Option<&'static [(Rung, bool)]>;

use Rung::{AllMappings as ALL, Bijective as BIJ, Functional as FUN, Injective as INJ};

/// The probed queries in the CLI syntax, with the paper's statements per
/// mode (`rel`, `strong`). The first nine are `algebra::catalog::all_named()`;
/// the last two add Prop 3.4's difference and intersection, which none of
/// them uses.
const NAMED: [(&str, &str, Stated, Stated); 11] = [
    // Ex 2.2: Q1 does not commute with the mapping h on r₃
    (
        "Q1 = π13(R ⋈ R)",
        "pi[$1,$4](join[$2=$1](R, R))",
        Some(&[(ALL, false)]),
        Some(&[]),
    ),
    // Ex 2.2: Q2 is "invariant under all mappings"
    (
        "Q2 = R × R",
        "product(R, R)",
        Some(&[(ALL, true)]),
        Some(&[(ALL, true)]),
    ),
    // Def 2.9 / §2.3: Q3 is fully generic in both modes
    (
        "Q3 = π1(R)",
        "pi[$1](R)",
        Some(&[(ALL, true)]),
        Some(&[(ALL, true)]),
    ),
    // Def 2.9 / §2.3: Q4 is not rel-generic w.r.t. all mappings (a
    // functional witness), but is w.r.t. injective ones
    (
        "Q4 = σ(1=2)(R)",
        "select[$1=$2](R)",
        Some(&[(ALL, false), (FUN, false), (INJ, true)]),
        Some(&[(ALL, false)]),
    ),
    // Prop 3.6: σ̂ is strong-fully generic, where σ (Q4) is not
    (
        "Q4^ = σ̂(1=2)(R)",
        "hat[$1=$2](R)",
        Some(&[]),
        Some(&[(ALL, true)]),
    ),
    // §2.4: generic for mappings strictly preserving 7; the ladder's
    // mappings move atoms only, so no rung is stated
    ("Q5 = σ(1=7)(R)", "select[$1=7](R)", Some(&[]), Some(&[])),
    // Prop 3.5: rel-fully generic, not strong-fully generic
    (
        "eq_adom",
        "eqadom(R)",
        Some(&[(ALL, true)]),
        Some(&[(ALL, false)]),
    ),
    // Lemma 2.12: not strictly C-generic for any finite C, in either mode;
    // classically generic. Not probed in strong mode: at this sample size
    // the strong-mode ladder now and then finds no counterexample at the
    // all-mappings rung (one round in about a thousand), so the check
    // would fail on some seeds and not others.
    ("even", "even(R)", Some(&[(ALL, false), (BIJ, true)]), None),
    // Prop 4.16: np is fully generic
    ("np", "np(R)", Some(&[(ALL, true)]), Some(&[(ALL, true)])),
    // Prop 3.4: − and ∩ are not rel-fully generic; Prop 3.6: − is
    // strong-fully generic; the paper states no strong-mode class for ∩.
    // (An odd number of operations per round keeps the median inside one
    // query's latencies.)
    (
        "Prop 3.4: R − π21(R)",
        "diff(R, pi[$2,$1](R))",
        Some(&[(ALL, false)]),
        Some(&[(ALL, true)]),
    ),
    (
        "Prop 3.4: R ∩ π21(R)",
        "intersect(R, pi[$2,$1](R))",
        Some(&[(ALL, false)]),
        Some(&[]),
    ),
];

/// A prepared query: what `genpar probe` builds before checking.
struct Prepared {
    name: &'static str,
    query: Query,
    checked: AlgebraQuery,
    out_ty: CvType,
    stated: [Stated; 2],
}

fn rel_ty() -> CvType {
    CvType::relation(BaseType::Domain(DomainId(0)), 2)
}

/// Parse, type and wrap every named query, checking that the parsed text
/// is the catalog's query. With a tracer, type inference is timed.
fn prepare(mut tr: Option<&mut Tracer>) -> Result<Vec<Prepared>, String> {
    let named = catalog::all_named();
    if let Some((n, _)) = named
        .iter()
        .find(|(n, _)| !NAMED.iter().any(|row| row.0 == *n))
    {
        return Err(format!("catalog query {n} has no row in NAMED"));
    }
    NAMED
        .iter()
        .map(|&(name, text, rel, strong)| {
            let query = parse_query(text).map_err(|e| format!("{name}: {e}"))?;
            // `Query` has no `==`; equal renderings mean equal trees
            if let Some((_, q)) = named.iter().find(|(n, _)| *n == name) {
                if query.to_string() != q.to_string() {
                    return Err(format!("{text} parses to {query}, not {name}"));
                }
            }
            let t = Instant::now();
            let env: TypeEnv = query
                .rel_names()
                .into_iter()
                .map(|n| (n, rel_ty()))
                .collect();
            let out_ty = infer_type(&query, &env).unwrap_or_else(|_| rel_ty());
            if let Some(tr) = tr.as_deref_mut() {
                tr.span("typeinfer.us", 0, t, Instant::now());
            }
            Ok(Prepared {
                name,
                checked: AlgebraQuery::new(query.clone()),
                query,
                out_ty,
                stated: [rel, strong],
            })
        })
        .collect()
}

/// `AlgebraQuery` with every `apply` timed and counted.
struct TimedQuery<'a> {
    inner: &'a AlgebraQuery,
    us: Cell<f64>,
    calls: Cell<u64>,
}

impl QueryFn for TimedQuery<'_> {
    fn apply(&self, input: &Value) -> Option<Value> {
        let t = Instant::now();
        let out = self.inner.apply(input);
        self.us.set(self.us.get() + us(t, Instant::now()));
        self.calls.set(self.calls.get() + 1);
        out
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

const MODES: [ExtensionMode; 2] = [ExtensionMode::Rel, ExtensionMode::Strong];

/// The checker settings, with the sampling seed drawn from the run's seed
/// and the round. `genpar probe` samples 40 families × 30 inputs over 4
/// atoms with collections up to 5; at that size `Q2` alone takes seconds
/// in strong mode, so a round here is scaled down to 20 × 15 over 3 atoms
/// with collections up to 4.
fn config(mode: ExtensionMode, seed: u64, round: u64) -> CheckConfig {
    CheckConfig {
        mode,
        families: 20,
        inputs_per_family: 15,
        n_atoms: 3,
        max_collection: 4,
        seed: splitmix(seed ^ splitmix(round)),
        ..Default::default()
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Does the static classifier's requirement set hold on every family of
/// the rung's class? Only plain structural requirements are compared;
/// constants, interpreted symbols and unclassifiable queries certify
/// nothing here.
fn certifies(req: &Requirements, rung: Rung) -> bool {
    let c = rung.class();
    !req.unknown
        && req.constants.is_empty()
        && req.predicates.is_empty()
        && req.functions.is_empty()
        && (!req.functional || c.functional)
        && (!req.injective || c.injective)
        && (!req.total || c.total)
        && (!req.surjective || c.surjective)
}

/// Check one probe report: the paper's class, the classifier's
/// certificates, and each counterexample re-derived three ways.
fn check_report(
    p: &Prepared,
    mode_ix: usize,
    inferred: &Inferred,
    report: &ProbeReport,
) -> Result<(), String> {
    let mode = MODES[mode_ix];
    let req = inferred.for_mode(mode);
    let budget = ExtBudget::default();
    for (rung, outcome) in &report.rungs {
        let at = || format!("{} ({mode}) at rung {rung}", p.name);
        match outcome {
            CheckOutcome::Aborted(reason) => return Err(format!("{}: aborted: {reason}", at())),
            CheckOutcome::Invariant { .. } => {}
            CheckOutcome::Counterexample(cx) => {
                if certifies(req, *rung) {
                    return Err(format!(
                        "{}: refuted, but the classifier certifies {req}",
                        at()
                    ));
                }
                if try_relates(&cx.family, &rel_ty(), mode, &cx.input1, &cx.input2, budget)
                    != Ok(true)
                {
                    return Err(format!("{}: counterexample inputs are not related", at()));
                }
                for (input, output) in [(&cx.input1, &cx.output1), (&cx.input2, &cx.output2)] {
                    let db = Db::with_standard_int().with("R", input.clone());
                    if genpar_algebra::eval::eval(&p.query, &db).as_ref() != Ok(output) {
                        return Err(format!("{}: eval({input}) does not give {output}", at()));
                    }
                }
                if try_relates(
                    &cx.family,
                    &p.out_ty,
                    mode,
                    &cx.output1,
                    &cx.output2,
                    budget,
                ) != Ok(false)
                {
                    return Err(format!("{}: counterexample outputs are related", at()));
                }
            }
        }
    }
    for &(rung, generic) in p.stated[mode_ix].unwrap_or_default() {
        let found = report
            .rungs
            .iter()
            .find(|(r, _)| *r == rung)
            .is_some_and(|(_, o)| o.is_invariant());
        if found != generic {
            return Err(format!(
                "{} ({mode}) at rung {rung}: probe says {}, the paper says {}",
                p.name,
                if found { "invariant" } else { "refuted" },
                if generic { "generic" } else { "not generic" }
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut setup = Vec::new();
    let mut timed_prepare = |tracer: &mut Tracer| {
        let t = Instant::now();
        let prepared = prepare(args.trace.then_some(tracer));
        setup.push(t.elapsed().as_secs_f64());
        prepared
    };
    let prepared = timed_prepare(&mut tracer)?;
    let obs = args.trace.then(genpar_obs::Registry::new);

    // one operation per probed (query, mode)
    let ops: Vec<(&Prepared, usize)> = prepared
        .iter()
        .flat_map(|p| {
            (0..MODES.len())
                .filter(|&i| p.stated[i].is_some())
                .map(move |i| (p, i))
        })
        .collect();
    let mut m = Measured::new();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        m.start_round(start.elapsed().as_secs_f64(), args.seconds);
        crate::drain_obs(obs.as_ref());
        for _ in 0..SETUPS_PER_ROUND {
            drop(timed_prepare(&mut tracer)?);
        }
        let traced = args.trace && round % 2 == 1;
        let round_start = Instant::now();
        for &(p, mode_ix) in &ops {
            let mode = MODES[mode_ix];
            let cfg = config(mode, args.seed, round);
            let (inferred, report, wall) = if traced {
                probe_traced(p, &cfg, &mut tracer)
            } else {
                let t = Instant::now();
                let inferred = infer_requirements(&p.query);
                let report = probe_tightest(&p.checked, &rel_ty(), &p.out_ty, &cfg);
                (inferred, report, t.elapsed().as_secs_f64() * 1e6)
            };
            out.attempted += 1;
            if let Err(e) = check_report(p, mode_ix, &inferred, &report) {
                if out.correct {
                    out.notes.push(format!("first failure, round {round}: {e}"));
                }
                out.failed += 1;
                out.correct = false;
            }
            if !traced {
                m.record(&format!("{} ({mode})", p.name), wall);
            }
        }
        m.add_round(traced, ops.len(), round_start.elapsed().as_secs_f64());
        round += 1;
    }
    out.notes.push(format!(
        "probe: {} (query, mode) operations per round, {round} rounds; 20 families x 15 inputs per rung",
        ops.len()
    ));
    out.notes.push("workers: 1".to_string());
    out.notes.push(m.steal_note(start.elapsed().as_secs_f64()));
    if let Some(obs) = &obs {
        crate::drain_obs(Some(obs));
        let ops = m.traced_ops.max(1) as f64;
        for name in [
            "op.wall_us",
            "classify.us",
            "probe.us",
            "probe.apply_us",
            "probe.apply_calls",
            "unattributed_us",
        ] {
            out.layer(name, tracer.sum(name) / ops);
        }
        out.layer(
            "probe.mapping_us",
            (tracer.sum("probe.us") - tracer.sum("probe.apply_us")) / ops,
        );
        out.layer(
            "typeinfer.us",
            tracer.sum("typeinfer.us") / (setup.len() * NAMED.len()) as f64,
        );
        let snap = obs.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let all_ops = out.attempted.max(1) as f64;
        out.layer(
            "check.pairs_verified",
            counter("check.pairs_verified") / all_ops,
        );
        out.layer("check.skipped", counter("check.skipped") / all_ops);
        let (hits, misses) = (counter("check.cache_hits"), counter("check.cache_misses"));
        out.layer("check.cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.notes.push(
            "check.* counters are per operation over both untraced and traced rounds".to_string(),
        );
        m.overhead(&mut out);
        out.notes.push(format!(
            "trace file: {}",
            crate::trace::write_trace(&tracer, &args.workload, args.seed)
                .map_err(|e| e.to_string())?
        ));
    } else {
        out.e2e(&setup, &m, 97.0);
    }
    Ok(out)
}

/// One probe operation with spans around the classifier and the ladder,
/// and the ladder's query evaluations timed through [`TimedQuery`].
fn probe_traced(p: &Prepared, cfg: &CheckConfig, tr: &mut Tracer) -> (Inferred, ProbeReport, f64) {
    let id = tr.next_op();
    let timed = TimedQuery {
        inner: &p.checked,
        us: Cell::new(0.0),
        calls: Cell::new(0),
    };
    let t0 = Instant::now();
    let inferred = infer_requirements(black_box(&p.query));
    let t1 = Instant::now();
    let report = probe_tightest(&timed, &rel_ty(), &p.out_ty, cfg);
    let t2 = Instant::now();
    tr.span("op.wall_us", id, t0, t2);
    tr.span("classify.us", id, t0, t1);
    tr.span("probe.us", id, t1, t2);
    tr.add("probe.apply_us", timed.us.get());
    tr.add("probe.apply_calls", timed.calls.get() as f64);
    // nothing in the operation runs outside the two layers above
    tr.add("unattributed_us", 0.0);
    (inferred, report, us(t0, t2))
}
