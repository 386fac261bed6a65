//! Property-based tests for the alignment algorithms.

use fmsa_align::{
    banded_needleman_wunsch, hirschberg, needleman_wunsch, AlignPlan, Alignment, AlignmentBudget,
    BudgetFallback, ScoringScheme, Step,
};
use proptest::prelude::*;

/// Brute-force optimal global alignment score by exhaustive recursion.
/// Only feasible for tiny sequences; used as the ground-truth oracle.
fn brute_force_score(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    fn go(a: &[u8], b: &[u8], s: &ScoringScheme) -> i64 {
        match (a.split_first(), b.split_first()) {
            (None, None) => 0,
            (Some((_, ra)), None) => s.gap_score + go(ra, b, s),
            (None, Some((_, rb))) => s.gap_score + go(a, rb, s),
            (Some((x, ra)), Some((y, rb))) => {
                let sub = if x == y { s.match_score } else { s.mismatch_score };
                let diag = sub + go(ra, rb, s);
                let up = s.gap_score + go(ra, b, s);
                let left = s.gap_score + go(a, rb, s);
                diag.max(up).max(left)
            }
        }
    }
    go(a, b, scheme)
}

/// The full-matrix Needleman-Wunsch the rolling-row kernel replaced: an
/// `i64` score matrix beside a direction matrix, with a branching cell
/// update. Kept as the reference the production kernel must reproduce
/// step for step, tie-breaks included.
fn reference_nw(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> Alignment {
    #[derive(Clone, Copy)]
    enum Dir {
        Diag,
        Up,
        Left,
    }
    let (n, m) = (a.len(), b.len());
    let w = m + 1;
    let mut score = vec![0i64; (n + 1) * w];
    let mut dir = vec![Dir::Diag; (n + 1) * w];
    for j in 1..=m {
        score[j] = j as i64 * scheme.gap_score;
        dir[j] = Dir::Left;
    }
    for i in 1..=n {
        score[i * w] = i as i64 * scheme.gap_score;
        dir[i * w] = Dir::Up;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = if a[i - 1] == b[j - 1] { scheme.match_score } else { scheme.mismatch_score };
            let diag = score[(i - 1) * w + (j - 1)] + sub;
            let up = score[(i - 1) * w + j] + scheme.gap_score;
            let left = score[i * w + (j - 1)] + scheme.gap_score;
            let (best, d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            score[i * w + j] = best;
            dir[i * w + j] = d;
        }
    }
    let mut steps = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match dir[i * w + j] {
            Dir::Diag if i > 0 && j > 0 => {
                steps.push(Step::Both { i: i - 1, j: j - 1, matched: a[i - 1] == b[j - 1] });
                i -= 1;
                j -= 1;
            }
            Dir::Up | Dir::Diag if i > 0 => {
                steps.push(Step::Left(i - 1));
                i -= 1;
            }
            _ => {
                steps.push(Step::Right(j - 1));
                j -= 1;
            }
        }
    }
    steps.reverse();
    Alignment { steps, score: score[n * w + m] }
}

fn small_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..8)
}

fn medium_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_full_matrix_reference(
        alphabet in 1u8..7,
        a in prop::collection::vec(0u8..6, 0..61),
        b in prop::collection::vec(0u8..6, 0..61),
    ) {
        // Tie-breaks decide merged bodies, so the steps must agree, not
        // just the scores.
        let a: Vec<u8> = a.iter().map(|x| x % alphabet).collect();
        let b: Vec<u8> = b.iter().map(|x| x % alphabet).collect();
        let custom = ScoringScheme { match_score: 3, mismatch_score: -2, gap_score: -1 };
        for scheme in [ScoringScheme::default(), ScoringScheme::unit(), custom] {
            let expect = reference_nw(&a, &b, &scheme);
            prop_assert_eq!(&needleman_wunsch(&a, &b, |x, y| x == y, &scheme), &expect);
            prop_assert_eq!(hirschberg(&a, &b, |x, y| x == y, &scheme).score, expect.score);
        }
    }
}

proptest! {
    #[test]
    fn nw_alignment_is_structurally_valid(a in medium_seq(), b in medium_seq()) {
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &ScoringScheme::default());
        prop_assert!(al.is_valid_for(a.len(), b.len()));
        prop_assert!(al.len() >= a.len().max(b.len()));
        prop_assert!(al.len() <= a.len() + b.len());
    }

    #[test]
    fn nw_reported_score_matches_rescore(a in medium_seq(), b in medium_seq()) {
        let scheme = ScoringScheme::default();
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert_eq!(al.score, al.rescore(&scheme));
    }

    #[test]
    fn nw_score_is_optimal(a in small_seq(), b in small_seq()) {
        let scheme = ScoringScheme::default();
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        let oracle = brute_force_score(&a, &b, &scheme);
        prop_assert_eq!(al.score, oracle);
    }

    #[test]
    fn hirschberg_matches_nw_score(a in medium_seq(), b in medium_seq()) {
        let scheme = ScoringScheme::default();
        let h = hirschberg(&a, &b, |x, y| x == y, &scheme);
        let n = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert_eq!(h.score, n.score);
        prop_assert!(h.is_valid_for(a.len(), b.len()));
    }

    #[test]
    fn identical_inputs_align_all_matches(a in medium_seq()) {
        let al = needleman_wunsch(&a, &a, |x, y| x == y, &ScoringScheme::default());
        prop_assert_eq!(al.match_count(), a.len());
    }

    #[test]
    fn alignment_is_symmetric_in_score(a in medium_seq(), b in medium_seq()) {
        let scheme = ScoringScheme::default();
        let ab = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        let ba = needleman_wunsch(&b, &a, |x, y| x == y, &scheme);
        prop_assert_eq!(ab.score, ba.score);
    }

    #[test]
    fn banded_is_valid_and_bounded_by_nw(
        a in medium_seq(),
        b in medium_seq(),
        band in 0usize..16,
    ) {
        let scheme = ScoringScheme::default();
        let banded = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, band);
        prop_assert!(banded.is_valid_for(a.len(), b.len()));
        prop_assert_eq!(banded.score, banded.rescore(&scheme));
        let full = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert!(banded.score <= full.score, "band restricts the path set");
    }

    #[test]
    fn banded_with_covering_band_equals_nw(a in medium_seq(), b in medium_seq()) {
        // A band covering the whole matrix must reproduce NW exactly,
        // including tie-breaking.
        let scheme = ScoringScheme::default();
        let banded =
            banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, a.len() + b.len());
        let full = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert_eq!(banded.steps, full.steps);
        prop_assert_eq!(banded.score, full.score);
    }

    #[test]
    fn budget_plan_is_total_and_consistent(n in 0usize..10_000, m in 0usize..10_000) {
        // Every length pair gets exactly one plan, and shrinking a budget
        // never upgrades a pair from fallback to full.
        let tight = AlignmentBudget {
            full_matrix_cells: 100_000,
            fallback: BudgetFallback::Banded(8),
            max_len: 5_000,
        };
        let loose = AlignmentBudget { full_matrix_cells: 10_000_000, ..tight };
        let pt = tight.plan(n, m);
        let pl = loose.plan(n, m);
        if pt == AlignPlan::Full {
            prop_assert_eq!(pl, AlignPlan::Full);
        }
        if n > tight.max_len || m > tight.max_len {
            prop_assert_eq!(pt, AlignPlan::Skip);
            prop_assert_eq!(pl, AlignPlan::Skip);
        }
    }
}

#[test]
fn nw_handles_degenerate_equivalence() {
    // Everything equivalent to everything: all columns should be matches.
    let a = [1u8, 2, 3];
    let b = [9u8, 9, 9];
    let al = needleman_wunsch(&a, &b, |_, _| true, &ScoringScheme::default());
    assert_eq!(al.match_count(), 3);
    // Nothing equivalent: score should be max(gap-only, mismatch mix).
    let al: Alignment = needleman_wunsch(&a, &b, |_, _| false, &ScoringScheme::default());
    assert_eq!(al.match_count(), 0);
}
