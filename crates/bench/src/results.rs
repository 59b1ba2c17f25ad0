//! Machine-readable experiment output.
//!
//! Every bench binary prints its human-readable table to stdout and, via
//! [`write_json`], drops the same data as validated JSON into `results/`
//! so plots and CI checks never scrape the tables. Setting
//! `FTR_TRACE_DIR` additionally makes every simulation the harness runs
//! leave an FTB capture behind (see [`Capture`]), so any sweep, campaign
//! or fleet can be replayed through `ftr-trace` after the fact.

use ftr_obs::{json, BinSink, FtbHeader, TeeSink, TraceSink};
use ftr_sim::NetworkBuilder;
use std::path::PathBuf;
use std::sync::Arc;

/// Directory experiment outputs land in, overridable through the
/// `FTR_RESULTS_DIR` environment variable (used by CI to keep smoke runs
/// out of the tree).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FTR_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// One run's trace attachment: the caller's in-process sinks plus, when
/// the `FTR_TRACE_DIR` environment variable is set, an FTB capture of
/// the same stream in `<FTR_TRACE_DIR>/<label>.ftb`.
pub struct Capture {
    file: Option<Arc<BinSink<std::fs::File>>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Capture {
    /// Opens the capture for the run named `label` (sanitised to
    /// `[A-Za-z0-9._-]`, so algorithm names like `rule:xy` pass
    /// verbatim). `header` is what the caller knows about the run
    /// (`seed`, `geometry`, …); `label` is added to it, so the file says
    /// which run produced it without a manifest. `sinks` are teed with
    /// the file. With capture off and no `sinks` nothing is attached at
    /// all — the run constructs no event.
    pub fn open(label: &str, header: FtbHeader, mut sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        let file = std::env::var_os("FTR_TRACE_DIR").map(|dir| {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
            let clean =
                label.replace(|c: char| !(c.is_ascii_alphanumeric() || "._-".contains(c)), "-");
            let path = dir.join(format!("{clean}.ftb"));
            let sink = BinSink::create(&path, header.with("label", label))
                .unwrap_or_else(|e| panic!("cannot create {path:?}: {e}"));
            Arc::new(sink)
        });
        sinks.extend(file.clone().map(|f| f as Arc<dyn TraceSink>));
        let sink = match sinks.len() {
            0 | 1 => sinks.pop(),
            _ => Some(Arc::new(TeeSink::new(sinks)) as Arc<dyn TraceSink>),
        };
        Capture { file, sink }
    }

    /// Hands the run's sink (if any) to the network under construction.
    pub fn attach(&self, b: NetworkBuilder) -> NetworkBuilder {
        match &self.sink {
            Some(s) => b.trace(s.clone()),
            None => b,
        }
    }

    /// Ends the capture: writes the END marker, insists that no event
    /// was lost on the way to disk, and returns the events written (0
    /// with capture off).
    pub fn finish(self) -> u64 {
        let Some(f) = self.file else { return 0 };
        f.finalize().expect("finalize trace capture");
        assert_eq!(f.write_errors(), 0, "trace capture lost events");
        f.written()
    }
}

/// Validates `payload` as JSON and writes it to `results/<name>.json`
/// (creating the directory). Panics on malformed JSON — an exporter bug
/// must fail the run, not poison downstream tooling.
pub fn write_json(name: &str, payload: &str) -> std::io::Result<PathBuf> {
    if let Err(e) = json::validate(payload) {
        panic!("refusing to write malformed JSON for {name}: {e}");
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, payload)?;
    Ok(path)
}

/// Renders a [`crate::LoadPoint`] as a JSON object.
pub fn load_point_json(p: &crate::LoadPoint) -> String {
    let mut o = json::Obj::new();
    o.float("offered", p.offered)
        .float("latency", p.latency)
        .float("throughput", p.throughput)
        .float("delivery_ratio", p.delivery_ratio)
        .bool("deadlock", p.deadlock);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_point_renders_valid_json() {
        let p = crate::LoadPoint {
            offered: 0.1,
            latency: 12.5,
            throughput: 0.099,
            delivery_ratio: 1.0,
            deadlock: false,
        };
        let j = load_point_json(&p);
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"deadlock\":false"));
    }

    #[test]
    #[should_panic(expected = "malformed JSON")]
    fn write_json_rejects_garbage() {
        let _ = write_json("nope", "{not json");
    }
}
