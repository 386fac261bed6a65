//! Needleman-Wunsch global alignment (full dynamic program).
//!
//! "Our work uses the Needleman-Wunsch algorithm to perform sequence
//! alignment. This algorithm gives an alignment that is guaranteed to be
//! optimal for a given scoring scheme." (§III-C). The algorithm is
//! quadratic in both time and space in the lengths of the sequences —
//! which is exactly why the paper's Fig. 13 shows alignment dominating the
//! compile-time breakdown.
//!
//! Memory: the traceback needs one direction byte per cell of the
//! `(n+1) × (m+1)` matrix; scores live in two rolling rows of `m+1`
//! `i64`s. A full alignment therefore costs `(n+1)(m+1)` bytes plus
//! `O(m)` scores. Every cell goes through [`fill_row`], the one DP inner
//! loop of the crate, which [`crate::hirschberg`] shares.

use crate::{Alignment, ScoringScheme, Step};

/// Traceback direction bytes.
const DIAG: u8 = 0;
/// Consume `a[i]` against a gap.
const UP: u8 = 1;
/// Consume `b[j]` against a gap.
const LEFT: u8 = 2;

/// Computes the optimal global alignment of `a` and `b` under `scheme`,
/// using `eq` as the element-equivalence relation.
///
/// Tie-breaking is deterministic: diagonal moves are preferred over gaps in
/// the first sequence, which are preferred over gaps in the second. This
/// keeps merged-function code generation reproducible run to run.
pub fn needleman_wunsch<T>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
) -> Alignment {
    let (n, m) = (a.len(), b.len());
    let w = m + 1;
    // Direction matrix, row-major, (n+1) x (m+1): row 0 consumes `b`
    // only, column 0 consumes `a` only.
    let mut dir = vec![DIAG; (n + 1) * w];
    dir[1..w].fill(LEFT);
    let mut prev: Vec<i64> = (0..=m).map(|j| j as i64 * scheme.gap_score).collect();
    let mut cur = vec![0i64; w];
    for (i, (ai, row)) in a.iter().zip(dir.chunks_exact_mut(w).skip(1)).enumerate() {
        cur[0] = (i as i64 + 1) * scheme.gap_score;
        row[0] = UP;
        fill_row(ai, b, &eq, scheme, &prev, &mut cur, &mut row[1..]);
        std::mem::swap(&mut prev, &mut cur);
    }
    // Traceback.
    let mut steps = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match dir[i * w + j] {
            DIAG if i > 0 && j > 0 => {
                let matched = eq(&a[i - 1], &b[j - 1]);
                steps.push(Step::Both { i: i - 1, j: j - 1, matched });
                i -= 1;
                j -= 1;
            }
            UP | DIAG if i > 0 => {
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
    Alignment { steps, score: prev[m] }
}

/// One row of the DP: from the previous row's scores `prev` and the
/// row's first score `cur[0]`, fills `cur[1..]` with the scores of `ai`
/// against every prefix of `b`, and `dirs[j]` with the move that reached
/// `cur[j + 1]`. Ties prefer Diag over Up over Left. The update is
/// branch-free and the loop zips its slices, so it runs without bounds
/// checks.
#[inline(always)]
pub(crate) fn fill_row<T>(
    ai: &T,
    b: &[T],
    eq: &impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    prev: &[i64],
    cur: &mut [i64],
    dirs: &mut [u8],
) {
    let ScoringScheme { match_score, mismatch_score, gap_score } = *scheme;
    let mut left = cur[0];
    let cells = cur[1..].iter_mut().zip(dirs.iter_mut()).zip(b).zip(prev.iter().zip(&prev[1..]));
    for (((score, dir), bj), (&diag_prev, &up_prev)) in cells {
        let diag = diag_prev + if eq(ai, bj) { match_score } else { mismatch_score };
        let up = up_prev + gap_score;
        let gap_left = left + gap_score;
        let gap = up.max(gap_left);
        left = diag.max(gap);
        *score = left;
        // DIAG when the diagonal wins (ties included), else UP when the up
        // gap wins its tie with the left gap, else LEFT.
        let gap_dir = LEFT - u8::from(up >= gap_left);
        *dir = u8::from(diag < gap) * gap_dir;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_char(a: &char, b: &char) -> bool {
        a == b
    }

    fn align_str(a: &str, b: &str) -> Alignment {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        needleman_wunsch(&av, &bv, eq_char, &ScoringScheme::default())
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let al = align_str("gattaca", "gattaca");
        assert_eq!(al.match_count(), 7);
        assert_eq!(al.cigar(), "7M");
        assert!(al.is_valid_for(7, 7));
    }

    #[test]
    fn empty_sequences() {
        let al = align_str("", "");
        assert!(al.is_empty());
        assert_eq!(al.score, 0);
        let al = align_str("abc", "");
        assert_eq!(al.cigar(), "3D");
        assert_eq!(al.score, -3);
        let al = align_str("", "ab");
        assert_eq!(al.cigar(), "2I");
    }

    #[test]
    fn classic_gattaca_example() {
        // A standard NW textbook pair.
        let al = align_str("gcatgcg", "gattaca");
        assert!(al.is_valid_for(7, 7));
        assert_eq!(al.score, al.rescore(&ScoringScheme::default()));
    }

    #[test]
    fn insertion_detected() {
        let al = align_str("abcdef", "abcxdef");
        assert_eq!(al.match_count(), 6);
        assert_eq!(al.cigar(), "3M1I3M");
    }

    #[test]
    fn deletion_detected() {
        let al = align_str("abcxdef", "abcdef");
        assert_eq!(al.match_count(), 6);
        assert_eq!(al.cigar(), "3M1D3M");
    }

    #[test]
    fn substitution_prefers_mismatch_column() {
        let al = align_str("abc", "axc");
        assert_eq!(al.cigar(), "1M1X1M");
    }

    #[test]
    fn score_is_optimal_for_simple_cases() {
        let scheme = ScoringScheme::default();
        let al = align_str("aaaa", "aaa");
        // 3 matches + 1 gap.
        assert_eq!(al.score, 3 * scheme.match_score + scheme.gap_score);
    }

    #[test]
    fn deterministic_output() {
        let a = align_str("abacabadabacaba", "abadacabacabaab");
        let b = align_str("abacabadabacaba", "abadacabacabaab");
        assert_eq!(a, b);
    }

    #[test]
    fn custom_equivalence_relation() {
        // Case-insensitive equivalence: a non-trivial relation, like the
        // paper's instruction equivalence.
        let a: Vec<char> = "AbC".chars().collect();
        let b: Vec<char> = "abc".chars().collect();
        let al =
            needleman_wunsch(&a, &b, |x, y| x.eq_ignore_ascii_case(y), &ScoringScheme::default());
        assert_eq!(al.match_count(), 3);
    }
}
