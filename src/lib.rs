//! # guttag-adt — algebraic specification of abstract data types
//!
//! A full Rust reproduction of John Guttag, *Abstract Data Types and the
//! Development of Data Structures*, CACM 20(6):396–404, June 1977.
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`core`] — sorts, signatures, terms, substitution, matching,
//!   unification, axioms, specifications.
//! * [`rewrite`] — the term-rewriting engine (innermost normalization with
//!   strict `error`), rewrite traces, critical pairs, and the symbolic
//!   interpreter.
//! * [`check`] — mechanical sufficient-completeness and consistency
//!   checking.
//! * [`dsl`] — the textual specification language (`.adt` files).
//! * [`verify`] — bounded model checking of axioms against Rust
//!   implementations, abstraction-function (Φ) checking, conditional
//!   correctness, and generator induction.
//! * [`structures`] — every data structure of the paper, at both the
//!   specification level and as efficient verified Rust implementations.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! # Example (through the façade)
//!
//! ```
//! use guttag_adt::{check, core::Session, dsl, rewrite};
//!
//! let spec = dsl::parse(
//!     "type N\nops\n Z: -> N ctor\n S: N -> N ctor\n P: N -> N\nvars\n n: N\n\
//!      axioms\n [p1] P(Z) = error\n [p2] P(S(n)) = n\nend",
//! )
//! .map_err(|e| e.to_string())?;
//! let session = Session::new(spec.clone());
//! let report = check::check_completeness_session(&session, &check::CheckConfig::default());
//! assert!(report.is_sufficiently_complete());
//! let rw = rewrite::Rewriter::new(&spec);
//! let two = spec.sig().apply("S", vec![spec.sig().apply("Z", vec![])?])?;
//! let one = rw.normalize(&spec.sig().apply("P", vec![two])?)?;
//! assert_eq!(one, spec.sig().apply("Z", vec![])?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adt_check as check;
pub use adt_core as core;
pub use adt_dsl as dsl;
pub use adt_rewrite as rewrite;
pub use adt_structures as structures;
pub use adt_verify as verify;
