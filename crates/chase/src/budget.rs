//! Resource budgets for chase saturation.

/// Limits on how much of the (generally infinite) guarded chase forest a
/// [`crate::condensed::ChaseSegment`] materializes.
///
/// The paper's Proposition 12 guarantees exact query answers at depth
/// `n·δ` (see [`crate::delta`]); that bound exists to prove decidability and
/// is astronomically large, so practical use picks a budget and checks the
/// segment's [`crate::condensed::ChaseSegment::complete`] flag (or uses the
/// stabilization strategy in `wfdl-wfs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Atoms at this forest depth are materialized but not expanded.
    pub max_depth: u32,
    /// Hard cap on the number of distinct atoms in the segment.
    pub max_atoms: usize,
    /// Hard cap on the number of distinct rule instances in the segment.
    pub max_instances: usize,
}

impl ChaseBudget {
    /// A budget that only limits depth.
    pub fn depth(max_depth: u32) -> Self {
        ChaseBudget {
            max_depth,
            max_atoms: usize::MAX,
            max_instances: usize::MAX,
        }
    }

    /// No limits: only safe when the chase terminates (e.g. programs
    /// without existential variables).
    pub fn unbounded() -> Self {
        ChaseBudget {
            max_depth: u32::MAX,
            max_atoms: usize::MAX,
            max_instances: usize::MAX,
        }
    }

    /// Returns a copy with a different atom cap.
    pub fn with_max_atoms(mut self, n: usize) -> Self {
        self.max_atoms = n;
        self
    }

    /// Returns a copy with a different instance cap.
    pub fn with_max_instances(mut self, n: usize) -> Self {
        self.max_instances = n;
        self
    }

    /// Returns `self` unchanged: kept only for `perfbench/`; solves are
    /// serial.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

impl Default for ChaseBudget {
    /// Depth 16, one million atoms, four million instances: deep enough for
    /// every example in the paper while keeping worst-case memory bounded.
    fn default() -> Self {
        ChaseBudget {
            max_depth: 16,
            max_atoms: 1_000_000,
            max_instances: 4_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let b = ChaseBudget::depth(3);
        assert_eq!(b.max_depth, 3);
        assert_eq!(b.max_atoms, usize::MAX);
        let u = ChaseBudget::unbounded();
        assert_eq!(u.max_depth, u32::MAX);
        let c = ChaseBudget::default()
            .with_max_atoms(10)
            .with_max_instances(20);
        assert_eq!(c.max_atoms, 10);
        assert_eq!(c.max_instances, 20);
    }
}
