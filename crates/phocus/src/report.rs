//! Human-readable reports for PHOcus runs.

use crate::solver::PhocusReport;
use crate::suite::SuiteResult;
use par_core::photo::format_bytes;
use par_core::Instance;

/// Renders a solver report as a multi-line text block.
pub fn render_report(inst: &Instance, report: &PhocusReport) -> String {
    let mut out = String::new();
    out.push_str("PHOcus run report\n");
    out.push_str("=================\n");
    out.push_str(&format!(
        "photos: {}   subsets: {}   budget: {}\n",
        inst.num_photos(),
        inst.num_subsets(),
        format_bytes(inst.budget())
    ));
    out.push_str(&format!(
        "retained: {} photos, {} ({:.1}% of archive)\n",
        report.selected.len(),
        format_bytes(report.cost),
        100.0 * report.cost as f64 / inst.total_cost().max(1) as f64,
    ));
    out.push_str(&format!(
        "quality: {:.3} of max {:.3} ({:.1}%)\n",
        report.score,
        inst.max_score(),
        100.0 * report.score / inst.max_score().max(f64::MIN_POSITIVE),
    ));
    out.push_str(&format!(
        "winning rule: {:?}   gain evals: {}   lazy accepts: {}\n",
        report.winner, report.stats.gain_evals, report.stats.lazy_accepts,
    ));
    out.push_str(&format!(
        "online bound: OPT ≤ {:.3} ⇒ achieved ratio ≥ {:.3}\n",
        report.online.upper_bound, report.online.ratio,
    ));
    if let Some(cert) = &report.sparsification {
        out.push_str(&format!(
            "sparsification τ={:.2}: α={:.3}, guaranteed factor {:.3}\n",
            cert.tau, cert.alpha, cert.factor,
        ));
    }
    out.push_str(&format!(
        "stored similarity pairs: {}\n",
        report.stored_pairs
    ));
    out.push_str(&format!(
        "time: represent {:.1?}, solve {:.1?}\n",
        report.represent_time, report.solve_time,
    ));
    out
}

/// Renders a suite comparison as an aligned text table.
pub fn render_suite(result: &SuiteResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "budget {}   max quality {:.2}\n",
        format_bytes(result.budget),
        result.max_score
    ));
    out.push_str(&format!(
        "{:<12} {:>10} {:>8} {:>9} {:>12} {:>12}\n",
        "algorithm", "quality", "%max", "retained", "repr time", "solve time"
    ));
    for e in &result.entries {
        out.push_str(&format!(
            "{:<12} {:>10.2} {:>7.1}% {:>9} {:>12.1?} {:>12.1?}\n",
            e.algo.name(),
            e.quality,
            100.0 * e.quality / result.max_score.max(f64::MIN_POSITIVE),
            e.retained,
            e.represent_time,
            e.solve_time,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::{represent, RepresentationConfig};
    use crate::solver::Phocus;
    use crate::suite::{run_suite, SuiteConfig};
    use par_datasets::{generate_openimages, OpenImagesConfig};

    #[test]
    fn report_mentions_key_figures() {
        let u = generate_openimages(&OpenImagesConfig {
            photos: 80,
            target_subsets: 15,
            seed: 8,
            ..Default::default()
        });
        let budget = u.total_cost() / 3;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let report = Phocus::default().solve_instance(&inst, std::time::Duration::ZERO);
        let text = render_report(&inst, &report);
        assert!(text.contains("PHOcus run report"));
        assert!(text.contains("online bound"));
        assert!(text.contains("retained"));
    }

    #[test]
    fn suite_table_lists_algorithms() {
        let u = generate_openimages(&OpenImagesConfig {
            photos: 80,
            target_subsets: 15,
            seed: 9,
            ..Default::default()
        });
        let res = run_suite(&u, u.total_cost() / 4, &SuiteConfig::default()).unwrap();
        let text = render_suite(&res);
        assert!(text.contains("PHOcus"));
        assert!(text.contains("Greedy-NR"));
        assert!(text.contains("RAND-A"));
    }

    #[test]
    fn bytes_formatting() {
        // Reports use the decimal megabyte that `--budget-mb` reads.
        let inst = par_core::fixtures::figure1_instance(3 * par_core::fixtures::MB);
        let report = Phocus::default().solve_instance(&inst, std::time::Duration::ZERO);
        let text = render_report(&inst, &report);
        assert!(text.contains("budget: 3.00 MB\n"), "{text}");
        let retained = format!("retained: {} photos, {} (", report.selected.len(), format_bytes(report.cost));
        assert!(text.contains(&retained), "{text}");
        assert_eq!(format_bytes(100), "100 B");
        assert_eq!(format_bytes(2_000), "2.00 kB");
    }
}
