//! Seeded property tests for the tree-matching algorithms: each property
//! holds for every pair (or triple) of random labeled ordered trees drawn
//! from a fixed seed. Labels come from a five-letter alphabet so that
//! collisions, and thus nontrivial matchings, are common.

use std::collections::HashSet;

use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_treediff::{
    alignment_distance, alignment_sim, bottom_up_matching, bottom_up_sim, constrained_distance,
    constrained_sim, countable_nodes, n_tree_sim, rstm, selkow_distance, selkow_sim, stm,
    stm_with_mapping, tree_size, zhang_shasha_distance, zhang_shasha_sim, SimpleTree, TreeView,
};

const CASES: usize = 256;
const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A random tree of at most 40 nodes and 5 levels; each internal node has
/// 1–3 children.
fn tree(rng: &mut StdRng) -> SimpleTree {
    fn grow(t: &mut SimpleTree, node: usize, depth: usize, rng: &mut StdRng) {
        if depth == 5 || t.len() >= 40 || rng.gen_range(0..3u32) == 0 {
            return;
        }
        for _ in 0..rng.gen_range(1..4usize) {
            let child = t.add_child(node, LABELS[rng.gen_range(0..LABELS.len())]);
            grow(t, child, depth + 1, rng);
        }
    }
    let mut t = SimpleTree::new(LABELS[rng.gen_range(0..LABELS.len())]);
    grow(&mut t, 0, 1, rng);
    t
}

/// Runs `check` on `CASES` random pairs of trees and a level in `1..8`.
fn for_pairs(seed: u64, check: impl Fn(&SimpleTree, &SimpleTree, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..CASES {
        let (a, b) = (tree(&mut rng), tree(&mut rng));
        check(&a, &b, rng.gen_range(1..8usize));
    }
}

fn unit(s: f64) -> bool {
    (0.0..=1.0).contains(&s)
}

#[test]
fn stm_is_symmetric_bounded_by_the_smaller_tree_and_full_on_itself() {
    for_pairs(1, |a, b, _| {
        assert_eq!(stm(a, a), tree_size(a));
        assert_eq!(stm(a, b), stm(b, a));
        assert!(stm(a, b) <= tree_size(a).min(tree_size(b)));
    });
}

#[test]
fn rstm_is_monotone_in_level_and_bounded_by_stm() {
    for_pairs(2, |a, b, l| {
        // RSTM counts a subset of what STM counts.
        assert!(rstm(a, b, 5) <= stm(a, b));
        let levels: Vec<usize> = (1..8).map(|l| rstm(a, b, l)).collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]), "not monotone: {levels:?}");
        assert_eq!(rstm(a, a, l), countable_nodes(a, l));
    });
}

#[test]
fn n_tree_sim_is_a_symmetric_unit_score_and_one_on_itself() {
    for_pairs(3, |a, b, l| {
        assert!(unit(n_tree_sim(a, b, l)));
        assert_eq!(n_tree_sim(a, a, l), 1.0);
        assert!((n_tree_sim(a, b, 5) - n_tree_sim(b, a, 5)).abs() < 1e-12);
    });
}

#[test]
fn stm_mapping_pairs_equal_labels_once_each() {
    for_pairs(4, |a, b, _| {
        let (count, pairs) = stm_with_mapping(a, b);
        assert_eq!(count, stm(a, b));
        assert_eq!(count, pairs.len());
        let (mut seen_a, mut seen_b) = (HashSet::new(), HashSet::new());
        for (na, nb) in pairs {
            assert_eq!(a.label(na), b.label(nb));
            assert!(seen_a.insert(na) && seen_b.insert(nb), "a node is mapped twice");
        }
    });
}

#[test]
fn selkow_is_a_symmetric_distance_bounded_by_both_sizes() {
    for_pairs(5, |a, b, _| {
        assert_eq!(selkow_distance(a, a), 0);
        assert_eq!(selkow_distance(a, b), selkow_distance(b, a));
        assert!(selkow_distance(a, b) <= tree_size(a) + tree_size(b));
        assert!(unit(selkow_sim(a, b)));
    });
}

#[test]
fn bottom_up_matching_is_bounded_and_full_on_itself() {
    for_pairs(6, |a, b, _| {
        assert!(bottom_up_matching(a, b) <= tree_size(a).min(tree_size(b)));
        assert!(unit(bottom_up_sim(a, b)));
        assert_eq!(bottom_up_matching(a, a), tree_size(a));
    });
}

#[test]
fn zhang_shasha_is_a_symmetric_distance_within_size_bounds() {
    for_pairs(7, |a, b, _| {
        let d = zhang_shasha_distance(a, b);
        assert_eq!(zhang_shasha_distance(a, a), 0);
        assert_eq!(d, zhang_shasha_distance(b, a));
        let (na, nb) = (tree_size(a), tree_size(b));
        assert!(na.abs_diff(nb) <= d && d <= na + nb);
        // The unrestricted edit distance relaxes the top-down constraint.
        assert!(d <= selkow_distance(a, b));
        assert!(unit(zhang_shasha_sim(a, b)));
    });
}

#[test]
fn zhang_shasha_obeys_the_triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..CASES {
        let (a, b, c) = (tree(&mut rng), tree(&mut rng), tree(&mut rng));
        let (ab, bc, ac) = (
            zhang_shasha_distance(&a, &b),
            zhang_shasha_distance(&b, &c),
            zhang_shasha_distance(&a, &c),
        );
        assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
    }
}

#[test]
fn alignment_lies_between_edit_and_selkow_and_is_a_symmetric_distance() {
    for_pairs(9, |a, b, _| {
        let (zs, al) = (zhang_shasha_distance(a, b), alignment_distance(a, b));
        assert!(zs <= al, "edit {zs} must lower-bound alignment {al}");
        assert!(al <= selkow_distance(a, b), "alignment {al} must lower-bound selkow");
        assert_eq!(alignment_distance(a, a), 0);
        assert_eq!(al, alignment_distance(b, a));
        assert!(unit(alignment_sim(a, b)));
    });
}

#[test]
fn constrained_distance_upper_bounds_edit_and_is_symmetric() {
    for_pairs(10, |a, b, _| {
        let cd = constrained_distance(a, b);
        assert!(zhang_shasha_distance(a, b) <= cd);
        assert_eq!(constrained_distance(a, a), 0);
        assert_eq!(cd, constrained_distance(b, a));
        assert!(unit(constrained_sim(a, b)));
    });
}

#[test]
fn notation_round_trips() {
    for_pairs(11, |t, _, _| {
        let s = t.to_notation();
        let back = SimpleTree::parse(&s).expect("own notation parses");
        assert_eq!(back.to_notation(), s);
        assert_eq!(tree_size(&back), tree_size(t));
    });
}
