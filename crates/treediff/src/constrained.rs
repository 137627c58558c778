//! Constrained (isolated-subtree) tree edit distance — Zhang 1996, the
//! efficient algorithm for the *isolated-subtree distance* family the paper
//! cites as Tanaka & Tanaka (§4.1.1, ref. \[18\]).
//!
//! A constrained mapping requires disjoint subtrees to map to disjoint
//! subtrees (no mapping may "split" one subtree's nodes across two separate
//! subtrees of the other side). This completes the crate's coverage of all
//! four constrained families the paper surveys: top-down
//! ([`selkow`](crate::selkow)/[`stm`](mod@crate::stm)), bottom-up
//! ([`bottom_up`](crate::bottom_up)), alignment
//! ([`alignment`](crate::alignment)) and isolated-subtree (here).
//!
//! Runs in `O(|A| · |B| · (deg A + deg B))` with unit costs.

use std::collections::HashMap;
use std::hash::Hash;

use crate::tree::TreeView;

const UNIT: usize = 1;

fn label_cost(a: &str, b: &str) -> usize {
    usize::from(a != b)
}

struct Ctx<'a, A: TreeView, B: TreeView>
where
    A::Node: Hash,
    B::Node: Hash,
{
    a: &'a A,
    b: &'a B,
    tree_memo: HashMap<(A::Node, B::Node), usize>,
    forest_memo: HashMap<(A::Node, B::Node), usize>,
    del_tree: HashMap<A::Node, usize>,
    ins_tree: HashMap<B::Node, usize>,
}

impl<A: TreeView, B: TreeView> Ctx<'_, A, B>
where
    A::Node: Hash,
    B::Node: Hash,
{
    fn del_tree(&mut self, n: A::Node) -> usize {
        if let Some(&c) = self.del_tree.get(&n) {
            return c;
        }
        let c = UNIT + self.del_forest(n);
        self.del_tree.insert(n, c);
        c
    }

    fn del_forest(&mut self, n: A::Node) -> usize {
        self.a.children(n).into_iter().map(|k| self.del_tree(k)).sum()
    }

    fn ins_tree(&mut self, n: B::Node) -> usize {
        if let Some(&c) = self.ins_tree.get(&n) {
            return c;
        }
        let c = UNIT + self.ins_forest(n);
        self.ins_tree.insert(n, c);
        c
    }

    fn ins_forest(&mut self, n: B::Node) -> usize {
        self.b.children(n).into_iter().map(|k| self.ins_tree(k)).sum()
    }

    /// Constrained distance between the trees rooted at `x` and `y`.
    fn tree_dist(&mut self, x: A::Node, y: B::Node) -> usize {
        if let Some(&c) = self.tree_memo.get(&(x, y)) {
            return c;
        }
        // Case 1: y survives, x's tree maps into one subtree of y.
        let mut best = usize::MAX;
        {
            let base = UNIT + self.ins_forest(y);
            for k in self.b.children(y) {
                let alt = base - self.ins_tree(k) + self.tree_dist(x, k);
                best = best.min(alt);
            }
        }
        // Case 2: symmetric.
        {
            let base = UNIT + self.del_forest(x);
            for k in self.a.children(x) {
                let alt = base - self.del_tree(k) + self.tree_dist(k, y);
                best = best.min(alt);
            }
        }
        // Case 3: roots map to each other; forests map constrained.
        let case3 = label_cost(self.a.label(x), self.b.label(y)) + self.forest_dist(x, y);
        best = best.min(case3);

        self.tree_memo.insert((x, y), best);
        best
    }

    /// Constrained distance between the child forests of `x` and `y`.
    fn forest_dist(&mut self, x: A::Node, y: B::Node) -> usize {
        if let Some(&c) = self.forest_memo.get(&(x, y)) {
            return c;
        }
        let ca = self.a.children(x);
        let cb = self.b.children(y);

        // Case 1: all of F(x) maps inside the forest of ONE child of y.
        let mut best = usize::MAX;
        {
            let base = self.ins_forest(y);
            for &k in &cb {
                let sub = self.ins_forest(k);
                let alt =
                    base - self.ins_tree(k) + (UNIT + sub) - sub + self.forest_dist_nodes(x, k);
                // = base − ins_tree(k) + UNIT + forest_dist(x within k)
                best = best.min(alt);
            }
        }
        // Case 2: symmetric.
        {
            let base = self.del_forest(x);
            for &k in &ca {
                let alt = base - self.del_tree(k) + UNIT + self.forest_dist_nodes(k, y);
                best = best.min(alt);
            }
        }
        // Case 3: sequence edit distance over whole subtrees.
        {
            let m = ca.len();
            let n = cb.len();
            let mut table = vec![vec![0usize; n + 1]; m + 1];
            for i in 1..=m {
                table[i][0] = table[i - 1][0] + self.del_tree(ca[i - 1]);
            }
            for j in 1..=n {
                table[0][j] = table[0][j - 1] + self.ins_tree(cb[j - 1]);
            }
            for i in 1..=m {
                for j in 1..=n {
                    let del = table[i - 1][j] + self.del_tree(ca[i - 1]);
                    let ins = table[i][j - 1] + self.ins_tree(cb[j - 1]);
                    let sub = table[i - 1][j - 1] + self.tree_dist(ca[i - 1], cb[j - 1]);
                    table[i][j] = del.min(ins).min(sub);
                }
            }
            best = best.min(table[m][n]);
        }

        self.forest_memo.insert((x, y), best);
        best
    }

    /// `forest_dist` but addressed by arbitrary node pairs (helper for the
    /// splice cases, where one side descends a level).
    fn forest_dist_nodes(&mut self, x: A::Node, y: B::Node) -> usize {
        self.forest_dist(x, y)
    }
}

/// Computes Zhang's constrained (isolated-subtree) edit distance between
/// `a` and `b` with unit costs.
///
/// The constrained distance upper-bounds the general (Zhang–Shasha) edit
/// distance and lower-bounds nothing in particular versus alignment — the
/// two families are incomparable in general — but on DOM-like trees it
/// tracks the general distance closely at a fraction of the cost.
///
/// ```
/// use cp_treediff::{SimpleTree, constrained_distance};
/// let a = SimpleTree::parse("a(b(c,d),e)").unwrap();
/// let b = SimpleTree::parse("a(b(c),e)").unwrap();
/// assert_eq!(constrained_distance(&a, &b), 1);
/// ```
pub fn constrained_distance<A, B>(a: &A, b: &B) -> usize
where
    A: TreeView,
    B: TreeView,
    A::Node: Hash,
    B::Node: Hash,
{
    let mut ctx = Ctx {
        a,
        b,
        tree_memo: HashMap::new(),
        forest_memo: HashMap::new(),
        del_tree: HashMap::new(),
        ins_tree: HashMap::new(),
    };
    match (a.root(), b.root()) {
        (None, None) => 0,
        (Some(r), None) => ctx.del_tree(r),
        (None, Some(r)) => ctx.ins_tree(r),
        (Some(ra), Some(rb)) => ctx.tree_dist(ra, rb),
    }
}

/// Normalized constrained similarity: `1 − dist / (|A| + |B|)`, in `[0, 1]`.
pub fn constrained_sim<A, B>(a: &A, b: &B) -> f64
where
    A: TreeView,
    B: TreeView,
    A::Node: Hash,
    B::Node: Hash,
{
    let total = crate::metrics::tree_size(a) + crate::metrics::tree_size(b);
    if total == 0 {
        return 1.0;
    }
    (1.0 - constrained_distance(a, b) as f64 / total as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SimpleTree;
    use crate::zhang_shasha::zhang_shasha_distance;

    fn t(s: &str) -> SimpleTree {
        SimpleTree::parse(s).unwrap()
    }

    #[test]
    fn identity_relabel_and_leaves() {
        let a = t("a(b,c)");
        assert_eq!(constrained_distance(&a, &a), 0);
        assert_eq!(constrained_distance(&t("a"), &t("b")), 1);
        assert_eq!(constrained_distance(&t("a(b)"), &t("a(b,c)")), 1);
    }

    #[test]
    fn internal_splice() {
        assert_eq!(constrained_distance(&t("a(x(b,c))"), &t("a(b,c)")), 1);
        assert_eq!(constrained_distance(&t("a(b,c)"), &t("a(x(b,c))")), 1);
    }

    #[test]
    fn against_empty() {
        let e = SimpleTree::empty();
        assert_eq!(constrained_distance(&e, &t("a(b,c)")), 3);
        assert_eq!(constrained_distance(&t("a(b,c)"), &e), 3);
        assert_eq!(constrained_distance(&e, &e), 0);
    }

    #[test]
    fn symmetric() {
        let a = t("a(b(c),d,e(f))");
        let b = t("a(d,b(c,f))");
        assert_eq!(constrained_distance(&a, &b), constrained_distance(&b, &a));
    }

    #[test]
    fn upper_bounds_general_edit_distance() {
        let cases = [
            ("a(b(c,d),e)", "a(b(c),e(f))"),
            ("html(body(div(p),div(q)))", "html(body(div(p,q)))"),
            ("r(x(a,b),x(c,d))", "r(x(a),x(b,c),x(d))"),
            ("a(a(a(a)))", "a(a)"),
        ];
        for (x, y) in cases {
            let (tx, ty) = (t(x), t(y));
            let zs = zhang_shasha_distance(&tx, &ty);
            let cd = constrained_distance(&tx, &ty);
            assert!(zs <= cd, "{x} vs {y}: zs={zs} cd={cd}");
        }
    }

    #[test]
    fn distributing_split_is_penalized() {
        // The signature case: T1 has one subtree whose leaves must split
        // across two subtrees of T2 — a constrained mapping forbids it, so
        // the constrained distance exceeds the general one.
        let a = t("r(x(p,q,s))");
        let b = t("r(x(p),x(q,s))");
        let zs = zhang_shasha_distance(&a, &b);
        let cd = constrained_distance(&a, &b);
        assert!(cd >= zs);
        assert!(cd > 0);
    }

    #[test]
    fn sim_bounds() {
        let a = t("a(b(c),d)");
        assert_eq!(constrained_sim(&a, &a), 1.0);
        let s = constrained_sim(&a, &t("z"));
        assert!((0.0..=1.0).contains(&s));
    }
}
