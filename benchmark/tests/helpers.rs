//! Statistics, span and memory helpers.

use chamulteon_benchmark::rss::{self, parse_vm_hwm_kib};
use chamulteon_benchmark::spans::{self, Span};
use chamulteon_benchmark::stats;

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&samples, 90.0), Some(90.0)); // 10 beyond
    assert_eq!(stats::percentile(&samples, 95.0), None); // 5 beyond
    assert_eq!(stats::percentile(&samples, 99.0), None);
    let many: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(stats::percentile(&many, 99.0), Some(990.0));
    assert_eq!(stats::percentile(&[], 50.0), None);
    assert_eq!(stats::percentile(&samples, 100.0), None);
}

#[test]
fn summary_reports_median_quartiles_and_extremes() {
    let s = stats::summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
    assert_eq!(
        (s.n, s.median, s.p25, s.p75, s.min, s.max),
        (5, 3.0, 2.0, 4.0, 1.0, 5.0)
    );
    assert_eq!(stats::median(&[1.0, 2.0]), 1.5);
    assert!(stats::summarize(&[]).is_none());
}

fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_owned(),
        cycle: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_counts_nested_and_overlapping_children_once() {
    let spans = [
        span(0, None, "pass", 0, 100),
        span(1, Some(0), "setup:a", 10, 30),
        span(2, Some(1), "sim.advance", 12, 15), // grandchild of the pass
        span(3, Some(0), "setup:b", 20, 50),     // overlaps span 1
        span(4, Some(0), "late", 90, 120),       // runs past its parent
    ];
    let self_ns = spans::self_times(&spans);
    // The pass loses [10, 50) and [90, 100): 100 - 40 - 10.
    assert_eq!(self_ns, vec![50, 17, 3, 30, 30]);

    let layers = spans::layer_times(&spans);
    let setup = layers.iter().find(|l| l.name == "setup").expect("grouped");
    assert_eq!((setup.self_ns, setup.count), (47, 2));
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tracer = spans::Tracer::disabled();
    tracer.begin_cycle();
    tracer.enter("sim.advance");
    tracer.exit();
    tracer.end_cycle();
    assert!(tracer.spans().is_empty());
}

#[test]
fn cycle_spans_share_their_cycle_id() {
    let mut tracer = spans::Tracer::enabled();
    tracer.enter("pass");
    for _ in 0..2 {
        tracer.begin_cycle();
        tracer.enter("controller.tick");
        tracer.exit();
        tracer.end_cycle();
    }
    tracer.exit();
    let cycles: Vec<(String, u64, Option<usize>)> = tracer
        .spans()
        .iter()
        .map(|s| (s.name.clone(), s.cycle, s.parent))
        .collect();
    assert_eq!(
        cycles,
        vec![
            ("pass".to_owned(), 0, None),
            ("cycle".to_owned(), 1, Some(0)),
            ("controller.tick".to_owned(), 1, Some(1)),
            ("cycle".to_owned(), 2, Some(0)),
            ("controller.tick".to_owned(), 2, Some(3)),
        ]
    );
    let jsonl = spans::to_jsonl(tracer.spans());
    assert_eq!(jsonl.lines().count(), 5);
    assert!(jsonl.starts_with("{\"id\":0,\"parent\":null,\"name\":\"pass\",\"cycle\":0,"));
}

#[test]
fn vm_hwm_parser_reads_the_status_format() {
    let status = "Name:\tchamulteon\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(12_345));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
}

#[cfg(target_os = "linux")]
#[test]
fn vm_hwm_of_this_process_is_read_from_proc() {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM present");
    assert!(kib > 0);
    let mib = rss::peak_rss_mib().expect("readable");
    assert!(mib >= kib as f64 / 1024.0, "the peak only grows");
}
