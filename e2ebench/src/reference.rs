//! Expected answers for the query mix, computed from the generated rows
//! with plain `std` collections and rendered in the program's value
//! syntax. Nothing here calls into genpar, so a fault in the program's
//! evaluators cannot also hide in the expected answer.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A flat relation of integer rows.
pub type Rel = BTreeSet<Vec<i64>>;

/// `π_out(σ_{row[c] = k}(left ⋈_{left[lcol] = right[rcol]} right))`, the
/// selection optional and columns indexing the concatenated row, by
/// building a hash table on `right`.
pub fn hash_join_select_project(
    left: &Rel,
    right: &Rel,
    (lcol, rcol): (usize, usize),
    eq: Option<(usize, i64)>,
    out: &[usize],
) -> Rel {
    let mut index: HashMap<i64, Vec<&Vec<i64>>> = HashMap::new();
    for r in right {
        index.entry(r[rcol]).or_default().push(r);
    }
    let mut result = Rel::new();
    for l in left {
        for r in index.get(&l[lcol]).into_iter().flatten() {
            let row: Vec<i64> = l.iter().chain(r.iter()).copied().collect();
            if eq.is_none_or(|(c, k)| row[c] == k) {
                result.insert(out.iter().map(|&c| row[c]).collect());
            }
        }
    }
    result
}

/// `σ_keep(rel)`.
pub fn select(rel: &Rel, keep: impl Fn(&[i64]) -> bool) -> Rel {
    rel.iter().filter(|r| keep(r)).cloned().collect()
}

/// `π_cols(rel)`.
pub fn project(rel: &Rel, cols: &[usize]) -> Rel {
    rel.iter()
        .map(|r| cols.iter().map(|&c| r[c]).collect())
        .collect()
}

/// `a ∪ b`.
pub fn union(a: &Rel, b: &Rel) -> Rel {
    a.union(b).cloned().collect()
}

/// `a − b`.
pub fn difference(a: &Rel, b: &Rel) -> Rel {
    a.difference(b).cloned().collect()
}

/// `Σ row[col]` over the set.
pub fn sum(rel: &Rel, col: usize) -> i64 {
    rel.iter().map(|r| r[col]).sum()
}

/// `ν_{$key}`: one group per key value, holding the remaining columns.
pub fn nest(rel: &Rel, key: usize) -> BTreeMap<i64, Rel> {
    let mut groups: BTreeMap<i64, Rel> = BTreeMap::new();
    for r in rel {
        let rest = r
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != key)
            .map(|(_, &v)| v)
            .collect();
        groups.entry(r[key]).or_default().insert(rest);
    }
    groups
}

/// The transitive closure of a binary edge relation, by a breadth-first
/// search from every source.
pub fn closure(edges: &Rel) -> Rel {
    let mut succ: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for e in edges {
        succ.entry(e[0]).or_default().push(e[1]);
    }
    let mut result = Rel::new();
    for &src in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<i64> = succ[&src].iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                result.insert(vec![src, n]);
                queue.extend(succ.get(&n).into_iter().flatten().copied());
            }
        }
    }
    result
}

/// `{x + 1 | (x) ∈ rel}` as bare integers.
pub fn succ(rel: &Rel) -> BTreeSet<i64> {
    rel.iter().map(|r| r[0] + 1).collect()
}

/// `{(1, 2), (3, 4)}`: the program's rendering of a set of int tuples.
pub fn render_rel(rel: &Rel) -> String {
    render_set(rel.iter().map(|r| render_row(r)))
}

/// `{(k, {(…), …}), …}`: the rendering of a nested relation.
pub fn render_nested(groups: &BTreeMap<i64, Rel>) -> String {
    render_set(
        groups
            .iter()
            .map(|(k, rest)| format!("({k}, {})", render_rel(rest))),
    )
}

/// `{1, 2}`: the rendering of a set of bare integers.
pub fn render_ints(xs: &BTreeSet<i64>) -> String {
    render_set(xs.iter().map(|x| x.to_string()))
}

fn render_row(r: &[i64]) -> String {
    let cols: Vec<String> = r.iter().map(|x| x.to_string()).collect();
    format!("({})", cols.join(", "))
}

fn render_set(items: impl Iterator<Item = String>) -> String {
    format!("{{{}}}", items.collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[&[i64]]) -> Rel {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    /// Example 2.2's `r₁ = {(e,f), (i,f), (e,j), (i,j), (f,g), (j,g)}`
    /// with the atoms numbered e=5, f=6, g=7, i=9, j=10; the paper gives
    /// `Q₁(r₁) = π_{$1,$3}(r₁ ⋈_{$2=$1} r₁) = {(e, g), (i, g)}`.
    #[test]
    fn example_2_2_q1_on_r1() {
        let (e, f, g, i, j) = (5, 6, 7, 9, 10);
        let r1 = rel(&[&[e, f], &[i, f], &[e, j], &[i, j], &[f, g], &[j, g]]);
        let q1 = hash_join_select_project(&r1, &r1, (1, 0), None, &[0, 3]);
        assert_eq!(q1, rel(&[&[e, g], &[i, g]]));
        assert_eq!(render_rel(&q1), "{(5, 7), (9, 7)}");
        // with a selection on the composed row's last column
        let q1_g = hash_join_select_project(&r1, &r1, (1, 0), Some((3, g)), &[0]);
        assert_eq!(q1_g, rel(&[&[e], &[i]]));
    }
    #[test]
    fn set_operations_by_hand() {
        let r = rel(&[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&[&[1, 10], &[4, 40]]);
        assert_eq!(difference(&r, &s), rel(&[&[2, 20], &[3, 30]]));
        assert_eq!(project(&difference(&r, &s), &[0]), rel(&[&[2], &[3]]));
        assert_eq!(
            render_rel(&project(&union(&r, &s), &[0])),
            "{(1), (2), (3), (4)}"
        );
    }

    #[test]
    fn closure_of_a_chain_with_a_shortcut() {
        let e = rel(&[&[1, 2], &[2, 3], &[3, 4], &[1, 3]]);
        assert_eq!(
            closure(&e),
            rel(&[&[1, 2], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[3, 4]])
        );
        // a cycle reaches itself
        let c = rel(&[&[1, 2], &[2, 1]]);
        assert_eq!(closure(&c), rel(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2]]));
    }

    #[test]
    fn aggregates_nest_and_succ_by_hand() {
        let t = rel(&[&[1, 2], &[1, 3], &[2, 2], &[4, 4]]);
        assert_eq!(t.len(), 4);
        assert_eq!(sum(&t, 1), 11);
        assert_eq!(
            render_nested(&nest(&t, 0)),
            "{(1, {(2), (3)}), (2, {(2)}), (4, {(4)})}"
        );
        assert_eq!(
            select(&t, |r| r[1] % 2 == 0),
            rel(&[&[1, 2], &[2, 2], &[4, 4]])
        );
        assert_eq!(select(&t, |r| r[0] < r[1]), rel(&[&[1, 2], &[1, 3]]));
        assert_eq!(select(&t, |r| r[0] == r[1]), rel(&[&[2, 2], &[4, 4]]));
        let u = rel(&[&[7], &[8], &[9]]);
        assert_eq!(render_ints(&succ(&u)), "{8, 9, 10}");
    }
}
