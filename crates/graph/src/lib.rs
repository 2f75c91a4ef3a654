//! # orianna-graph
//!
//! The ORIANNA **factor-graph library** (paper Sec. 5.1).
//!
//! Robotic application designers build their optimization problems by
//! adding *variable nodes* (robot poses, landmarks, trajectory states,
//! control inputs) and *factor nodes* (sensor measurements and constraints)
//! to an initially-empty [`FactorGraph`] — the programming model shown in
//! the paper's localization example:
//!
//! ```text
//! graph.add(CameraFactor(x1, y1, m1))
//! graph.add(IMUFactor(x1, x2, m4))
//! graph.add(PriorFactor(x1, p1))
//! graph.optimize()
//! ```
//!
//! The factor taxonomy follows Tbl. 2:
//!
//! | Factor type  | Factors                                          | Algorithms |
//! |--------------|--------------------------------------------------|------------|
//! | Measurement  | LiDAR, Camera, GPS, IMU, Prior                   | Localization |
//! | Constraint   | Smooth, Collision-free, Kinematics, Dynamics     | Planning, Control |
//!
//! Users can also define **custom factors** by supplying an error function
//! (Sec. 5.1, "Customized factors") — see [`factors::CustomFactor`].
//!
//! Mathematical details (coefficient matrix and RHS construction) are hidden
//! from users: [`Factor::linearize_into`] writes whitened Jacobian blocks
//! and the negated whitened error into a reusable [`LinearFactor`] that
//! downstream crates consume — `orianna-solver` for the
//! software Gauss-Newton path and `orianna-compiler` for instruction
//! generation.
//!
//! ## Example
//!
//! ```
//! use orianna_graph::{FactorGraph, PriorFactor, BetweenFactor};
//! use orianna_lie::Pose2;
//!
//! let mut graph = FactorGraph::new();
//! let x1 = graph.add_pose2(Pose2::identity());
//! let x2 = graph.add_pose2(Pose2::new(0.0, 0.9, 0.1));
//! graph.add_factor(PriorFactor::pose2(x1, Pose2::identity(), 0.1));
//! graph.add_factor(BetweenFactor::pose2(x1, x2, Pose2::new(0.0, 1.0, 0.0), 0.1));
//! assert_eq!(graph.num_variables(), 2);
//! assert_eq!(graph.num_factors(), 2);
//! ```

pub mod dot;
pub mod factor;
pub mod factors;
pub mod graph;
pub mod linear;
pub mod ordering;
pub mod values;
pub mod variable;

pub use factor::{check_jacobians, Factor, FactorKind};
pub use factors::{
    BetweenFactor, CameraFactor, CameraModel, CollisionFactor, CustomFactor, DynamicsFactor,
    GpsFactor, ImuFactor, KinematicsFactor, LidarFactor, LinearContainerFactor, Loss, PriorFactor,
    RobustFactor, SmoothFactor, VectorPriorFactor,
};
pub use graph::{FactorGraph, GraphError};
pub use linear::{LinearFactor, LinearSystem};
pub use ordering::{
    extract_cliques, min_degree_ordering, natural_ordering, EliminationSchedule, Ordering,
    ScheduleStep, SymbolicClique, UnconstrainedVariable,
};
pub use values::Values;
pub use variable::{VarId, Variable};
