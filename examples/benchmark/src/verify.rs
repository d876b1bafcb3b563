//! Output verification: every served modeled number must equal an
//! in-process reference build of the same request.

use std::collections::BTreeMap;

use gsuite_core::pipeline::PipelineRun;
use gsuite_scenarios::BenchOpts;
use gsuite_serve::ServeRequest;

/// `device_ms`, `e2e_ms` and `kernels` as the server formats them.
pub type Modeled = (String, String, String);

/// The reference numbers of one request line: `ServeRequest::parse_line`,
/// `PipelineRun::build`, then `profile` on the backend the server uses
/// (quick-mode measurement options, the serve default).
fn reference(line: &str) -> Result<Modeled, String> {
    let request = ServeRequest::parse_line(line)?;
    let graph = request.config.load_graph();
    let run = PipelineRun::build(&graph, &request.config).map_err(|e| e.to_string())?;
    let profiler = request
        .gpu
        .profiler(&BenchOpts::quick(), request.config.dataset);
    let profile = run.profile(profiler.as_ref());
    Ok((
        format!("{:.4}", profile.device_time_ms()),
        format!("{:.4}", profile.total_time_ms()),
        profile.kernels.len().to_string(),
    ))
}

/// References for `lines` (deduplicated), computed on `threads` threads.
pub fn references(lines: &[&str], threads: usize) -> BTreeMap<String, Result<Modeled, String>> {
    let mut distinct: Vec<&str> = lines.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&line| (line.to_string(), reference(line)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}
