//! The process-wide `Parallelism` is the one thread control: library entry
//! points run under whatever the caller installed and never re-install it.
//!
//! This is its own test binary, so no concurrently running test moves the
//! process-wide setting while these assertions read it.

use par_core::fixtures::{figure1_instance, MB};
use par_exec::Parallelism;
use phocus::Phocus;
use std::time::Duration;

#[test]
fn default_solver_runs_under_the_installed_thread_count() {
    // A count no machine default can produce, so a solver that clears or
    // replaces the caller's setting is caught on any core count.
    let threads = par_exec::available_threads() + 1;
    Parallelism::with_threads(threads).install_global();
    let report = Phocus::default().solve_instance(&figure1_instance(4 * MB), Duration::ZERO);
    assert_eq!(report.threads, threads);
}
