//! Deterministic, order-independent k-means with BIC-style k selection.
//!
//! Everything that usually makes k-means irreproducible is pinned down:
//!
//! * **Init** is farthest-first (maximin), not random: the first center is
//!   the point with the largest norm (ties broken by lexicographic vector
//!   comparison), each subsequent center the point farthest from its
//!   nearest chosen center (same tie-break). Selection compares *values*,
//!   never indices, so reordering the input selects the same centers.
//! * **Assignment** ties go to the lowest center index; center indices are
//!   themselves value-derived (init order, then a final canonical reindex
//!   by lexicographic center order), so they carry no input-order bias.
//! * **Centroid means and SSE** sum members in lexicographic vector order,
//!   making the floating-point reductions bitwise identical under any
//!   permutation of the input.
//!
//! k is chosen over `1..=max_k` with the SimPoint heuristic: compute a
//! BIC-style score per candidate and take the smallest k whose score
//! reaches 90% of the way from the worst to the best score.

use std::cmp::Ordering;

/// Lloyd iteration cap. Farthest-first init converges in a handful of
/// rounds on BBV data; the cap only guards pathological oscillation.
const MAX_ITERS: usize = 64;

/// Result of clustering: `k` centers, one assignment per input point, and
/// the total within-cluster sum of squared distances.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// Number of clusters actually produced (≤ the requested k when the
    /// input has fewer distinct points).
    pub k: usize,
    /// Cluster index per input point, in input order.
    pub assignments: Vec<usize>,
    /// Cluster centroids, in canonical (lexicographic) order.
    pub centers: Vec<Vec<f64>>,
    /// Within-cluster sum of squared distances.
    pub sse: f64,
}

/// Total order on f64 vectors: lexicographic, with `partial_cmp` ties
/// treated as equal (the feature pipeline never produces NaN).
fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y) {
            Some(Ordering::Equal) | None => continue,
            Some(ord) => return ord,
        }
    }
    a.len().cmp(&b.len())
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn norm2(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum()
}

/// Farthest-first (maximin) center selection. Returns at most `k` centers;
/// fewer when the input has fewer distinct points.
fn init_centers(points: &[Vec<f64>], k: usize) -> Vec<Vec<f64>> {
    let first = points
        .iter()
        .max_by(|a, b| {
            norm2(a)
                .partial_cmp(&norm2(b))
                .unwrap_or(Ordering::Equal)
                .then_with(|| lex_cmp(a, b))
        })
        .expect("cluster() requires at least one point");
    let mut centers = vec![first.clone()];
    while centers.len() < k {
        let (best, d) = points
            .iter()
            .map(|p| {
                let d = centers
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min);
                (p, d)
            })
            .max_by(|(p, dp), (q, dq)| {
                dp.partial_cmp(dq)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| lex_cmp(p, q))
            })
            .expect("nonempty");
        if d == 0.0 {
            break; // fewer distinct points than requested centers
        }
        centers.push(best.clone());
    }
    centers
}

/// Mean of `members` (indices into `points`) summed in lexicographic
/// member order, so the reduction is permutation-invariant bitwise.
fn canonical_mean(points: &[Vec<f64>], members: &[usize]) -> Vec<f64> {
    let mut sorted = members.to_vec();
    sorted.sort_by(|a, b| lex_cmp(&points[*a], &points[*b]));
    let dims = points[sorted[0]].len();
    let mut sum = vec![0.0; dims];
    for m in &sorted {
        for (s, x) in sum.iter_mut().zip(&points[*m]) {
            *s += *x;
        }
    }
    let inv = 1.0 / sorted.len() as f64;
    sum.iter_mut().for_each(|s| *s *= inv);
    sum
}

/// Run Lloyd's algorithm from farthest-first centers for a fixed k.
fn lloyd(points: &[Vec<f64>], k: usize) -> Clustering {
    let n = points.len();
    let mut centers = init_centers(points, k);
    let mut assignments = vec![usize::MAX; n];
    for _ in 0..MAX_ITERS {
        // Assign: nearest center, ties to the lowest center index.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut bd = f64::INFINITY;
            for (c, ctr) in centers.iter().enumerate() {
                let d = dist2(p, ctr);
                if d < bd {
                    bd = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Drop centers that lost every member (possible after updates);
        // remaining indices compact downward, preserving relative order.
        let mut counts = vec![0usize; centers.len()];
        assignments.iter().for_each(|a| counts[*a] += 1);
        if counts.contains(&0) {
            let remap: Vec<Option<usize>> = counts
                .iter()
                .scan(0usize, |next, c| {
                    Some(if *c > 0 {
                        let id = *next;
                        *next += 1;
                        Some(id)
                    } else {
                        None
                    })
                })
                .collect();
            centers = centers
                .into_iter()
                .zip(&counts)
                .filter(|(_, c)| **c > 0)
                .map(|(ctr, _)| ctr)
                .collect();
            assignments
                .iter_mut()
                .for_each(|a| *a = remap[*a].expect("nonempty cluster"));
            changed = true;
        }
        if !changed {
            break;
        }
        // Update: canonical-order means.
        for (c, ctr) in centers.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|i| assignments[*i] == c).collect();
            *ctr = canonical_mean(points, &members);
        }
    }
    // Canonical reindex: clusters ordered by center, so the labeling is a
    // pure function of the point multiset.
    let mut order: Vec<usize> = (0..centers.len()).collect();
    order.sort_by(|a, b| lex_cmp(&centers[*a], &centers[*b]));
    let mut rank = vec![0usize; centers.len()];
    for (new, old) in order.iter().enumerate() {
        rank[*old] = new;
    }
    let centers: Vec<Vec<f64>> = order.iter().map(|o| centers[*o].clone()).collect();
    assignments.iter_mut().for_each(|a| *a = rank[*a]);
    // SSE, summed per cluster over lexicographically ordered members.
    let mut sse = 0.0;
    for (c, ctr) in centers.iter().enumerate() {
        let mut members: Vec<usize> = (0..n).filter(|i| assignments[*i] == c).collect();
        members.sort_by(|a, b| lex_cmp(&points[*a], &points[*b]));
        for m in &members {
            sse += dist2(&points[*m], ctr);
        }
    }
    Clustering {
        k: centers.len(),
        assignments,
        centers,
        sse,
    }
}

/// BIC-style score: likelihood term penalized by model size. Higher is
/// better. The `1e-12` floor keeps a perfect fit (sse = 0) finite.
fn bic(n: usize, dims: usize, k: usize, sse: f64) -> f64 {
    let nd = (n * dims) as f64;
    -0.5 * nd * (sse / nd + 1e-12).ln() - 0.5 * ((k * (dims + 1)) as f64) * (n as f64).ln()
}

/// Cluster `points`, choosing k in `1..=max_k` by the BIC heuristic:
/// smallest k whose score reaches 90% of the span from the worst candidate
/// score to the best. Deterministic and order-independent (see module
/// docs); requires a nonempty input.
pub fn cluster(points: &[Vec<f64>], max_k: usize) -> Clustering {
    assert!(!points.is_empty(), "cluster() requires at least one point");
    let n = points.len();
    let dims = points[0].len().max(1);
    let kmax = max_k.clamp(1, n);
    let mut candidates: Vec<Clustering> = (1..=kmax).map(|k| lloyd(points, k)).collect();
    if candidates.len() == 1 {
        return candidates.pop().expect("one candidate");
    }
    let scores: Vec<f64> = candidates
        .iter()
        .map(|c| bic(n, dims, c.k, c.sse))
        .collect();
    let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let threshold = lo + 0.9 * (hi - lo);
    let pick = scores
        .iter()
        .position(|s| *s >= threshold)
        .expect("the max candidate reaches the threshold");
    candidates.swap_remove(pick)
}

/// The member of cluster `c` closest to its centroid (ties broken by
/// lexicographic vector comparison, then first input index). This is the
/// interval that gets simulated on the cluster's behalf.
pub fn representative(points: &[Vec<f64>], clustering: &Clustering, c: usize) -> usize {
    let ctr = &clustering.centers[c];
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.iter().enumerate() {
        if clustering.assignments[i] != c {
            continue;
        }
        let d = dist2(p, ctr);
        let better = match best {
            None => true,
            Some((bi, bd)) => d < bd || (d == bd && lex_cmp(p, &points[bi]) == Ordering::Less),
        };
        if better {
            best = Some((i, d));
        }
    }
    best.expect("cluster is nonempty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs far apart, one straggler in each.
    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.05, 10.05],
        ]
    }

    #[test]
    fn seeded_runs_are_bitwise_identical() {
        let pts = blobs();
        let a = cluster(&pts, 4);
        let b = cluster(&pts, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn separated_blobs_find_two_clusters() {
        let c = cluster(&blobs(), 5);
        assert_eq!(c.k, 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_eq!(c.assignments[3], c.assignments[5]);
        assert_ne!(c.assignments[0], c.assignments[3]);
        // Representatives are members of their own clusters.
        for k in 0..c.k {
            let r = representative(&blobs(), &c, k);
            assert_eq!(c.assignments[r], k);
        }
    }

    #[test]
    fn assignments_are_stable_under_reordering() {
        let pts = blobs();
        let perm = [5, 2, 0, 4, 1, 3];
        let shuffled: Vec<Vec<f64>> = perm.iter().map(|i| pts[*i].clone()).collect();
        let a = cluster(&pts, 4);
        let b = cluster(&shuffled, 4);
        assert_eq!(a.k, b.k);
        assert_eq!(a.centers, b.centers, "canonical centers are bitwise equal");
        assert_eq!(a.sse, b.sse, "canonical-order SSE is bitwise equal");
        for (pos, orig) in perm.iter().enumerate() {
            assert_eq!(b.assignments[pos], a.assignments[*orig]);
        }
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        let pts = vec![vec![1.0, 2.0]; 7];
        let c = cluster(&pts, 5);
        assert_eq!(c.k, 1);
        assert!(c.assignments.iter().all(|a| *a == 0));
        assert_eq!(c.sse, 0.0);
        assert_eq!(representative(&pts, &c, 0), 0);
    }

    #[test]
    fn single_point_and_k_capped_by_population() {
        let pts = vec![vec![3.0]];
        let c = cluster(&pts, 10);
        assert_eq!(c.k, 1);
        assert_eq!(c.assignments, vec![0]);
        // More distinct points than k: every requested k is honored.
        let pts: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64 * 100.0]).collect();
        let c = lloyd(&pts, 4);
        assert_eq!(c.k, 4);
        assert_eq!(c.sse, 0.0);
    }
}
