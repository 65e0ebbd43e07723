//! Extension points (§5.4 of the paper).
//!
//! "In the presence of a new antipattern, one first comes up with its formal
//! definition … Based on the definition, one provides a detection rule and,
//! if possible, a solving solution." Detection rules implement
//! [`crate::detect::Detector`]; solving solutions implement [`Solver`]; the
//! [`ExtensionRegistry`] carries both into the pipeline.

use crate::detect::{AntipatternClass, AntipatternInstance, DetectCtx, Detector};

/// A solving rule: turns one instance into replacement statements.
///
/// Returning `None` declares the instance unsolvable (it is then kept in the
/// clean log untouched, like CTH candidates).
///
/// **Contract:** [`Solver::solve`] must be a pure function of the instance
/// and the context: the same answer on any thread, in any order, however
/// often it is called. The solver pass calls it from several threads at
/// once, and calls it for every solvable instance before the first-wins
/// overlap check, so it also runs for instances that are then skipped
/// because an earlier instance consumed one of their queries; those
/// answers are discarded. Interior caches are fine as long as they never
/// change an answer.
pub trait Solver: Sync {
    /// Human-readable solver name.
    fn name(&self) -> &str;
    /// Produces the replacement statements for an instance.
    fn solve(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>>;
}

/// The set of solvers active in a pipeline run.
pub struct SolverSet<'a> {
    stifle: crate::solve::stifle::StifleSolver,
    snc: crate::solve::snc::SncSolver,
    custom: Vec<(String, &'a dyn Solver)>,
}

impl<'a> SolverSet<'a> {
    /// Only the built-in solvers.
    pub fn builtin() -> Self {
        SolverSet {
            stifle: crate::solve::stifle::StifleSolver::default(),
            snc: crate::solve::snc::SncSolver,
            custom: Vec::new(),
        }
    }

    /// Registers a solver for a custom antipattern class.
    pub fn with_custom(mut self, class_name: impl Into<String>, solver: &'a dyn Solver) -> Self {
        self.custom.push((class_name.into(), solver));
        self
    }

    /// The solver responsible for a class, if any.
    pub fn for_class(&self, class: &AntipatternClass) -> Option<&dyn Solver> {
        match class {
            AntipatternClass::DwStifle
            | AntipatternClass::DsStifle
            | AntipatternClass::DfStifle => Some(&self.stifle),
            AntipatternClass::Snc => Some(&self.snc),
            AntipatternClass::CthCandidate => None,
            AntipatternClass::Custom(name) => {
                self.custom.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
            }
        }
    }
}

/// A bundle of extension detectors and solvers.
#[derive(Default)]
pub struct ExtensionRegistry<'a> {
    /// Extra detectors, run after the built-in ones.
    pub detectors: Vec<&'a dyn Detector>,
    /// Extra solvers, keyed by the custom class name they handle.
    pub solvers: Vec<(String, &'a dyn Solver)>,
}

impl<'a> ExtensionRegistry<'a> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a detector.
    pub fn with_detector(mut self, detector: &'a dyn Detector) -> Self {
        self.detectors.push(detector);
        self
    }

    /// Adds a solver for a custom class.
    pub fn with_solver(mut self, class_name: impl Into<String>, solver: &'a dyn Solver) -> Self {
        self.solvers.push((class_name.into(), solver));
        self
    }

    /// Builds the full solver set (built-ins + extensions).
    pub fn solver_set(&self) -> SolverSet<'a> {
        let mut set = SolverSet::builtin();
        for (name, solver) in &self.solvers {
            set = set.with_custom(name.clone(), *solver);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopSolver;
    impl Solver for NopSolver {
        fn name(&self) -> &str {
            "nop"
        }
        fn solve(&self, _: &AntipatternInstance, _: &DetectCtx<'_>) -> Option<Vec<String>> {
            None
        }
    }

    #[test]
    fn builtin_routing() {
        let set = SolverSet::builtin();
        assert!(set.for_class(&AntipatternClass::DwStifle).is_some());
        assert!(set.for_class(&AntipatternClass::DsStifle).is_some());
        assert!(set.for_class(&AntipatternClass::DfStifle).is_some());
        assert!(set.for_class(&AntipatternClass::Snc).is_some());
        assert!(set.for_class(&AntipatternClass::CthCandidate).is_none());
        assert!(set
            .for_class(&AntipatternClass::Custom("x".into()))
            .is_none());
    }

    #[test]
    fn custom_solver_routing() {
        let nop = NopSolver;
        let set = SolverSet::builtin().with_custom("x", &nop);
        assert_eq!(
            set.for_class(&AntipatternClass::Custom("x".into()))
                .unwrap()
                .name(),
            "nop"
        );
    }

    #[test]
    fn registry_builds_solver_set() {
        let nop = NopSolver;
        let reg = ExtensionRegistry::new().with_solver("x", &nop);
        let set = reg.solver_set();
        assert!(set
            .for_class(&AntipatternClass::Custom("x".into()))
            .is_some());
    }
}
