//! Immediate global deadlock detection.
//!
//! The paper (§4.2): "both global and local deadlock detection is
//! immediate, that is, a deadlock is detected as soon as a lock
//! conflict occurs and a cycle is formed. The youngest transaction in
//! the cycle is restarted to resolve the deadlock."
//!
//! The reference detection runs over the *live* wait-for relation:
//! whenever a lock request blocks, the cycle search starts at the
//! blocked transaction and expands edges on demand by querying every
//! site's lock table ([`crate::LockManager::blockers_of`]) and mapping
//! lock owners (cohorts) to their transactions. Because edges are
//! derived from current state rather than cached, there are no stale
//! edges and therefore no phantom deadlocks. Choosing the victim is
//! the caller's job: the simulator restarts the cycle member born
//! last, ties broken by transaction id.
//!
//! [`find_cycle`] is the reference search. The simulator's release
//! builds do not call it: they record each blocked request's blockers
//! ([`crate::LockManager::for_each_blocker`]) once, when it blocks,
//! decide whether a cycle exists with an allocation-free search from
//! both ends of those records, and then list the cycle with a walk
//! that reproduces `find_cycle` step for step. A recorded edge that
//! has gone stale is a dead end for both, so they find what
//! `find_cycle` finds. Debug builds check both the verdict and the
//! cycle against `find_cycle` over [`crate::LockManager::blockers_of`],
//! and perfbench's lock probe times it.

use std::collections::HashMap;
use std::hash::Hash;

/// Depth-first search for a cycle through `start` in the wait-for
/// graph, where `waits_for(t)` yields the transactions `t` currently
/// waits for.
///
/// Returns the nodes of the first cycle found **through `start`**, in
/// wait order starting at `start`, or `None` if no such cycle exists.
/// Only cycles containing `start` matter: under immediate detection any
/// other cycle would already have been caught when its last edge
/// appeared.
pub fn find_cycle<T, F, I>(start: T, mut waits_for: F) -> Option<Vec<T>>
where
    T: Copy + Eq + Hash,
    F: FnMut(T) -> I,
    I: IntoIterator<Item = T>,
{
    // Iterative DFS with an explicit stack of (node, unvisited successors).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        OnStack,
        Done,
    }
    let mut color: HashMap<T, Color> = HashMap::new();
    let mut path: Vec<T> = Vec::new();
    let mut iters: Vec<Vec<T>> = Vec::new();

    color.insert(start, Color::OnStack);
    path.push(start);
    iters.push(waits_for(start).into_iter().collect());

    while let Some(succs) = iters.last_mut() {
        match succs.pop() {
            Some(next) => {
                if next == start {
                    // Found a cycle back to the origin.
                    return Some(path.clone());
                }
                match color.get(&next) {
                    Some(Color::OnStack) => {
                        // A cycle not through `start`; under immediate
                        // detection this cannot contain the new edge, so
                        // skip it (it will be reported, if real, from its
                        // own blocking event).
                        continue;
                    }
                    Some(Color::Done) => continue,
                    None => {
                        color.insert(next, Color::OnStack);
                        path.push(next);
                        iters.push(waits_for(next).into_iter().collect());
                    }
                }
            }
            None => {
                let done = path.pop().expect("path tracks iters");
                color.insert(done, Color::Done);
                iters.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn graph(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
        let mut g: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(a, b) in edges {
            g.entry(a).or_default().push(b);
        }
        g
    }

    fn expand(g: &HashMap<u32, Vec<u32>>) -> impl Fn(u32) -> Vec<u32> + '_ {
        move |t| g.get(&t).cloned().unwrap_or_default()
    }

    #[test]
    fn no_edges_no_cycle() {
        let g = graph(&[]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn self_loop() {
        let g = graph(&[(1, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1]));
    }

    #[test]
    fn two_cycle() {
        let g = graph(&[(1, 2), (2, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2]));
    }

    #[test]
    fn chain_is_not_a_cycle() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn long_cycle_found_through_start() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn cycle_not_through_start_is_ignored() {
        // 1 -> 2 -> 3 -> 2 : the 2-3 cycle does not involve 1.
        let g = graph(&[(1, 2), (2, 3), (3, 2)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn branches_are_explored() {
        // 1 waits for 2 and 3; only the 3-branch loops back.
        let g = graph(&[(1, 2), (1, 3), (2, 9), (3, 4), (4, 1)]);
        let cycle = find_cycle(1, expand(&g)).unwrap();
        assert_eq!(cycle.first(), Some(&1));
        assert!(cycle.contains(&3) && cycle.contains(&4));
        assert!(!cycle.contains(&2));
    }

    #[test]
    fn diamond_without_cycle() {
        let g = graph(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn multi_edges_are_harmless() {
        let g = graph(&[(1, 2), (1, 2), (2, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2]));
    }
}

// Seeded-loop generative test (former proptest suite, rewritten as a
// deterministic randomized loop over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use simkernel::SimRng;
    use std::collections::{HashMap, HashSet};

    /// Brute-force reference: does any directed cycle through `start` exist?
    fn has_cycle_through(start: u32, g: &HashMap<u32, Vec<u32>>) -> bool {
        // BFS from each successor of start back to start.
        let mut frontier: Vec<u32> = g.get(&start).cloned().unwrap_or_default();
        let mut seen: HashSet<u32> = HashSet::new();
        while let Some(n) = frontier.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                frontier.extend(g.get(&n).cloned().unwrap_or_default());
            }
        }
        false
    }

    #[test]
    fn matches_brute_force() {
        let mut r = SimRng::new(0xDEAD_10CC);
        for _ in 0..400 {
            let n_edges = r.uniform_usize(0, 39);
            let mut g: HashMap<u32, Vec<u32>> = HashMap::new();
            for _ in 0..n_edges {
                let a = r.uniform_u64(0, 11) as u32;
                let b = r.uniform_u64(0, 11) as u32;
                g.entry(a).or_default().push(b);
            }
            let start = r.uniform_u64(0, 11) as u32;
            let found = find_cycle(start, |t| g.get(&t).cloned().unwrap_or_default());
            assert_eq!(found.is_some(), has_cycle_through(start, &g));
            // And any reported cycle is a real cycle through start.
            if let Some(cycle) = found {
                assert_eq!(cycle[0], start);
                for w in cycle.windows(2) {
                    assert!(g[&w[0]].contains(&w[1]));
                }
                assert!(g[cycle.last().unwrap()].contains(&start));
            }
        }
    }
}
