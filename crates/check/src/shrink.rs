//! Delta-debugging shrinker shared by the checkers.
//!
//! One ddmin implementation serves three consumers:
//!
//! * the queue model-check scripts (`tests/queue_model.rs`) shrink a
//!   failing op script to a minimal reproducer,
//! * the conformance checker ([`crate::conform::shrink`]) shrinks a
//!   diverging protocol trace to a minimal sub-trace, and
//! * the exploration scheduler ([`crate::live`]) shrinks a failing
//!   schedule (a list of choice indices) to a minimal interleaving.
//!
//! The algorithm is Zeller's classic ddmin: partition the input into
//! `n` chunks and try deleting one chunk at a time; when a deletion
//! still fails, restart with `n-1` chunks over the smaller input,
//! otherwise refine the granularity (`n *= 2`) until chunks are single
//! elements. The result is 1-minimal-ish: usually minimal, always
//! failing, and always an order-preserving subsequence.

/// Minimize `input` to a smaller subsequence that still satisfies
/// `fails`. `fails(input)` must hold on entry (debug-asserted); the
/// returned subsequence preserves the relative order of the survivors
/// and satisfies `fails`.
pub fn ddmin<T: Clone>(input: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    debug_assert!(fails(input), "ddmin needs a failing input");
    let mut cur = input.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let cand: Vec<T> = cur[..start].iter().chain(&cur[end..]).cloned().collect();
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_to_the_failing_core() {
        // Failure iff both 3 and 7 survive; everything else is noise.
        let input: Vec<u32> = (0..32).collect();
        let out = ddmin(&input, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn preserves_order_for_adjacent_cores() {
        let input: Vec<u32> = (0..16).collect();
        let out = ddmin(&input, |s| s.windows(2).any(|w| w == [5, 6]));
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn single_element_core() {
        let input: Vec<u32> = (0..9).collect();
        let out = ddmin(&input, |s| s.contains(&4));
        assert_eq!(out, vec![4]);
    }
}
