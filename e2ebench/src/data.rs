//! The seeded catalog both query mixes run on; README.md lists its
//! make-up and sizes.

use crate::reference::Rel;
use crate::trace::Tracer;
use genpar_engine::workload::generate_keyed_pair;
use genpar_engine::{Catalog, Schema, Table};
use genpar_value::{CvType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Rows of each of `R` and `S`.
pub const KEYED_ROWS: usize = 3000;
const T_DRAWS: usize = 3000;
const U_DRAWS: usize = 500;
const E_NODES: usize = 24;

/// The generated rows, as the reference answers read them.
pub struct Inputs {
    pub r: Rel,
    pub s: Rel,
    pub t: Rel,
    pub u: Rel,
    pub e: Rel,
}

/// Generate every relation from `seed` and load it into engine tables:
/// the program-side set-up that `setup_s` times. With a tracer, each
/// table load is a `load.table_us` span.
pub fn load_catalog(seed: u64, mut tracer: Option<&mut Tracer>) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let (r, s) = timed(&mut tracer, || {
        generate_keyed_pair(&mut rng, KEYED_ROWS, 3, 0.5)
    });
    let mut catalog = Catalog::new().with(r).with(s);
    let t_rows: Vec<Vec<i64>> = (0..T_DRAWS)
        .map(|_| vec![rng.gen_range(0..100i64), rng.gen_range(0..10i64)])
        .collect();
    let u_rows: Vec<Vec<i64>> = (0..U_DRAWS)
        .map(|_| vec![rng.gen_range(0..100_000i64)])
        .collect();
    let mut nodes: Vec<i64> = Vec::with_capacity(E_NODES);
    while nodes.len() < E_NODES {
        let id = rng.gen_range(0..100_000i64);
        if !nodes.contains(&id) {
            nodes.push(id);
        }
    }
    let e_rows: Vec<Vec<i64>> = (0..E_NODES - 1)
        .map(|i| vec![nodes[i], nodes[i + 1]])
        .chain(
            (0..E_NODES - 2)
                .step_by(2)
                .map(|i| vec![nodes[i], nodes[i + 2]]),
        )
        .collect();
    for (name, arity, rows) in [("T", 2, t_rows), ("U", 1, u_rows), ("E", 2, e_rows)] {
        catalog.add(timed(&mut tracer, || table(name, arity, &rows)));
    }
    catalog
}

fn timed<T>(tracer: &mut Option<&mut Tracer>, load: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let loaded = load();
    if let Some(tr) = tracer.as_deref_mut() {
        tr.span("load.table_us", 0, t, Instant::now());
    }
    loaded
}

fn table(name: &str, arity: usize, rows: &[Vec<i64>]) -> Table {
    let mut t = Table::new(name, Schema::uniform(CvType::int(), arity));
    for row in rows {
        t.insert(row.iter().map(|&x| Value::Int(x)).collect());
    }
    t
}

/// Read the loaded rows back as plain integers for the reference
/// answers, checking the shape the generators promise.
pub fn inputs(catalog: &Catalog) -> Result<Inputs, String> {
    let rel = |name: &str| -> Result<Rel, String> {
        let t = catalog
            .get(name)
            .ok_or_else(|| format!("table {name} missing"))?;
        t.rows()
            .map(|row| {
                row.iter()
                    .map(|v| v.as_int().ok_or_else(|| format!("{name}: non-int {v}")))
                    .collect()
            })
            .collect()
    };
    let inputs = Inputs {
        r: rel("R")?,
        s: rel("S")?,
        t: rel("T")?,
        u: rel("U")?,
        e: rel("E")?,
    };
    for (name, keyed) in [("R", &inputs.r), ("S", &inputs.s)] {
        let keys: std::collections::BTreeSet<i64> = keyed.iter().map(|row| row[0]).collect();
        if keyed.len() != KEYED_ROWS || keys.len() != KEYED_ROWS {
            return Err(format!(
                "{name}: {} rows with {} distinct keys, expected {KEYED_ROWS} of each",
                keyed.len(),
                keys.len()
            ));
        }
    }
    Ok(inputs)
}
