//! Fig 2: SRAM design-margin impact of variation, NBTI and RTN across
//! technology nodes (synthetic reproduction of the Renesas data —
//! see DESIGN.md §3).
//!
//! Run with `cargo run --release -p samurai-bench --bin fig2_margins`.

use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::ensemble::{run_ensemble_resilient_observed, ExecutionPolicy, IndexedResults};
use samurai_core::CoreError;
use samurai_sram::margin::{MarginModel, MarginRow};
use samurai_trap::Technology;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "fig2_margins",
        "regenerates Fig. 2: design-margin impact of variation, NBTI and RTN across nodes",
        &[Flag::Threads, Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let model = MarginModel::default();
    let parallelism = args.parallelism();
    let mut session = BenchSession::from_args("fig2", &args);
    let nodes = Technology::all_nodes();
    println!(
        "evaluating {} nodes on {} workers (--threads N)",
        nodes.len(),
        parallelism.workers()
    );
    let rows: Vec<MarginRow> =
        run_ensemble_resilient_observed::<IndexedResults<MarginRow>, _, CoreError>(
            nodes.len(),
            parallelism,
            &ExecutionPolicy::default(),
            session.recorder_mut(),
            IndexedResults::new,
            |i, _rung, _probe| Ok(model.row(&nodes[i], i)),
        )
        .expect("margin model evaluation is total")
        .acc
        .into_vec();

    banner("Fig 2: stacked minimum-V_dd contributions per node");
    println!(
        "{:>6} | {:>6} {:>9} {:>6} {:>6} | {:>6} vs {:>6} | {:>9} | {:>10}",
        "node", "static", "variation", "nbti", "rtn", "total", "vdd", "rtn share", "corr total"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        let status = if row.total() > row.vdd_scaling {
            "FAILS"
        } else {
            "ok"
        };
        println!(
            "{:>6} | {:>6.3} {:>9.3} {:>6.3} {:>6.3} | {:>6.3} vs {:>6.3} | {:>8.1}% | {:>7.3} {}",
            row.node,
            row.static_noise,
            row.variation,
            row.nbti,
            row.rtn,
            row.total(),
            row.vdd_scaling,
            100.0 * row.rtn_share(),
            row.total_with_correlation(0.5),
            status,
        );
        csv_rows.push((
            row.node.clone(),
            vec![
                row.vdd_scaling,
                row.static_noise,
                row.variation,
                row.nbti,
                row.rtn,
                row.total(),
                row.total_with_correlation(0.5),
            ],
        ));
    }
    let path = write_tagged_csv(
        "fig2_margins.csv",
        "node,vdd_scaling,static,variation,nbti,rtn,total,total_corr_0.5",
        &csv_rows,
    );

    banner("Fig 2 verdict");
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let shape = first.total() < first.vdd_scaling
        && last.total() > last.vdd_scaling
        && last.total() - last.rtn < last.vdd_scaling
        && rows.windows(2).all(|w| w[1].rtn_share() > w[0].rtn_share());
    println!(
        "verdict: {}",
        if shape {
            "MATCH — RTN's growing increment is what exhausts the margin under scaling"
        } else {
            "MISMATCH — model coefficients need retuning"
        }
    );
    println!(
        "exploiting the RTN-NBTI correlation (rho = 0.5) recovers {:.0} mV at the deepest node",
        (last.total() - last.total_with_correlation(0.5)) * 1e3
    );
    println!("csv: {}", path.display());
    session.finish(rows.len());
}
