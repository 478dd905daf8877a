//! Championship-trace-style validation (paper Figs. 17-18): run the
//! CBP-5-like and IPC-1-like synthetic suites and summarize how Thermometer
//! compares with GHRP and SRRIP across the trace distribution.
//!
//! ```text
//! cargo run --release -p thermometer --example trace_suites
//! ```

use btb_model::policies::{Ghrp, Lru, Srrip};
use btb_workloads::{cbp5_suite, ipc1_suite, SuiteParams};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::ThermometerPolicy;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::default());

    println!("== CBP-5-style suite: Thermometer vs GHRP (miss reduction %) ==");
    let traces = cbp5_suite(SuiteParams::new(16, 60_000));
    let mut wins = 0;
    let mut ties = 0;
    let mut losses = 0;
    for trace in &traces {
        let ghrp = pipeline.run(trace, Ghrp::default(), None);
        let hints = pipeline.profile_to_hints(trace);
        let therm = pipeline.run(trace, ThermometerPolicy::new(), Some(&hints));
        let reduction = therm.miss_reduction_over(&ghrp);
        match reduction {
            r if r > 0.01 => wins += 1,
            r if r < -0.01 => losses += 1,
            _ => ties += 1,
        }
        println!(
            "{:12} BTB MPKI {:6.2}  reduction {:+6.2}%",
            trace.name(),
            ghrp.btb_mpki(),
            reduction
        );
    }
    println!("thermometer wins {wins}, ties {ties} (compulsory-miss-only traces), loses {losses}");

    println!("\n== IPC-1-style suite: IPC speedup over LRU ==");
    let traces = ipc1_suite(SuiteParams::new(10, 60_000));
    let mut srrip_sum = 0.0;
    let mut therm_sum = 0.0;
    for trace in &traces {
        let lru = pipeline.run(trace, Lru::new(), None);
        let hints = pipeline.profile_to_hints(trace);
        let srrip = pipeline.run(trace, Srrip::new(), None).speedup_over(&lru);
        let therm = pipeline
            .run(trace, ThermometerPolicy::new(), Some(&hints))
            .speedup_over(&lru);
        srrip_sum += srrip;
        therm_sum += therm;
        println!(
            "{:20} SRRIP {srrip:+6.2}%   Thermometer {therm:+6.2}%",
            trace.name()
        );
    }
    let n = traces.len() as f64;
    println!(
        "means: SRRIP {:+.2}%  Thermometer {:+.2}%",
        srrip_sum / n,
        therm_sum / n
    );
}
