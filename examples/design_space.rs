//! Architectural design-space exploration with the library: sweep BTB
//! geometry and hint precision for one application, in the spirit of the
//! paper's sensitivity studies (Figs. 19-20).
//!
//! ```text
//! cargo run --release -p thermometer --example design_space
//! ```

use btb_model::policies::{BeladyOpt, Lru};
use btb_model::BtbConfig;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{TemperatureConfig, ThermometerPolicy};
use uarch_sim::FrontendConfig;

const TRACE_LEN: usize = 800_000;

fn main() {
    let spec = AppSpec::by_name("tomcat").expect("built-in app");
    let train = spec.generate(InputConfig::input(0), TRACE_LEN);
    let test = spec.generate(InputConfig::input(1), TRACE_LEN);

    println!("== BTB size sweep (4-way, paper thresholds) ==");
    println!("entries   LRU MPKI   Therm MPKI   OPT MPKI   Therm speedup");
    for entries in [1024usize, 2048, 4096, 8192, 16384] {
        let pipeline =
            Pipeline::new(PipelineConfig::default()).with_btb(BtbConfig::new(entries, 4));
        let hints = pipeline.profile_to_hints(&train);
        let lru = pipeline.run(&test, Lru::new(), None);
        let therm = pipeline.run(&test, ThermometerPolicy::new(), Some(&hints));
        let opt = pipeline.run(&test, BeladyOpt::new(), None);
        println!(
            "{entries:7}   {:8.3}   {:10.3}   {:8.3}   {:+12.2}%",
            lru.btb_mpki(),
            therm.btb_mpki(),
            opt.btb_mpki(),
            therm.speedup_over(&lru)
        );
    }

    println!("\n== Hint precision sweep (8K-entry BTB) ==");
    println!("categories   bits   hinted hot%   Therm speedup");
    for categories in [2usize, 3, 4, 8, 16] {
        let temperature = if categories == 3 {
            TemperatureConfig::paper_default()
        } else {
            TemperatureConfig::uniform(categories)
        };
        let bits = temperature.hint_bits();
        let pipeline = Pipeline::new(PipelineConfig {
            frontend: FrontendConfig::table1(),
            temperature,
        });
        let hints = pipeline.profile_to_hints(&train);
        let hist = hints.category_histogram();
        let hottest = *hist.last().expect("non-empty histogram") as f64; // hottest category
        let total: usize = hist.iter().sum();
        let lru = pipeline.run(&test, Lru::new(), None);
        let therm = pipeline.run(&test, ThermometerPolicy::new(), Some(&hints));
        println!(
            "{categories:10}   {bits:4}   {:10.1}%   {:+12.2}%",
            hottest / total as f64 * 100.0,
            therm.speedup_over(&lru)
        );
    }

    println!("\n== Iso-storage check: 2 hint bits traded for 213 entries ==");
    for config in [BtbConfig::table1(), BtbConfig::iso_storage_7979()] {
        let pipeline = Pipeline::new(PipelineConfig::default()).with_btb(config);
        let hints = pipeline.profile_to_hints(&train);
        let lru = Pipeline::new(PipelineConfig::default()).run(&test, Lru::new(), None);
        let therm = pipeline.run(&test, ThermometerPolicy::new(), Some(&hints));
        println!(
            "{:5}-entry Thermometer vs 8192-entry LRU: {:+.2}%",
            config.entries(),
            therm.speedup_over(&lru)
        );
    }
}
