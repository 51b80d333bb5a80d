//! In-memory spans around the calls the benchmark makes into each crate.
//!
//! A [`Recorder`] belongs to one thread. Spans nest: a span entered while
//! another is open becomes its child, and a layer's self time is its
//! span's duration minus the durations of its direct children. Spans stay
//! in memory until the run ends, when [`Trace::write_tsv`] writes them out.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers the benchmark times, each named `<crate>.<function group>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ce_grid::GridDataset::synthesize`.
    GridSynthesize,
    /// `ce_grid::GridDataset::scaled_renewables_into`.
    GridSupplyFill,
    /// `ce_datacenter::DataCenterSite::demand_trace`.
    DemandTrace,
    /// `ce_core::CarbonExplorer::new`.
    ExplorerNew,
    /// One supply group of a sweep: fill, cost order and every sub-point.
    CoreGroup,
    /// One single-point evaluation (the serve path's `evaluate_with`).
    CoreEvaluate,
    /// `ce_scheduler::CostOrder::rebuild_from_deficit_slices`.
    CostOrder,
    /// `ce_scheduler::GreedyScheduler::schedule_with_order`.
    Schedule,
    /// `ce_scheduler::combined_dispatch_stats`.
    Combined,
    /// `ce_battery::simulate_dispatch_stats`.
    Dispatch,
    /// `ce_timeseries::kernels::deficit_stats_dot_slices`.
    DeficitStats,
    /// `ce_serve::request_manifest` + `manifest_json` (ce-manifest).
    ManifestBuild,
    /// `ce_serve::http::find_head_end` + `parse_head`.
    HeadParse,
    /// `ce_serve::Json::parse`.
    JsonParse,
    /// `ce_serve::ComputeRequest::parse` + `canonical_key`.
    RequestParse,
    /// `ce_serve::ExplorerCache::get_or_build`, with the build on a miss.
    ExplorerLookup,
    /// `ce_serve` response assembly around the evaluation.
    Execute,
    /// `ce_serve::Json::encode`.
    Encode,
    /// Raw-request memo and response-cache reads.
    CacheRead,
    /// Raw-request memo and response-cache writes.
    CacheWrite,
    /// `ce_serve::http::write_response`.
    Write,
    /// One replayed request: its self time is the routing between the
    /// calls above, on the event loop's side.
    Request,
}

impl Layer {
    pub const ALL: [Layer; 22] = [
        Layer::GridSynthesize,
        Layer::GridSupplyFill,
        Layer::DemandTrace,
        Layer::ExplorerNew,
        Layer::CoreGroup,
        Layer::CoreEvaluate,
        Layer::CostOrder,
        Layer::Schedule,
        Layer::Combined,
        Layer::Dispatch,
        Layer::DeficitStats,
        Layer::ManifestBuild,
        Layer::HeadParse,
        Layer::JsonParse,
        Layer::RequestParse,
        Layer::ExplorerLookup,
        Layer::Execute,
        Layer::Encode,
        Layer::CacheRead,
        Layer::CacheWrite,
        Layer::Write,
        Layer::Request,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::GridSynthesize => "grid.synthesize",
            Layer::GridSupplyFill => "grid.supply_fill",
            Layer::DemandTrace => "datacenter.demand_trace",
            Layer::ExplorerNew => "core.explorer_new",
            Layer::CoreGroup => "core.group",
            Layer::CoreEvaluate => "core.evaluate",
            Layer::CostOrder => "scheduler.cost_order",
            Layer::Schedule => "scheduler.schedule",
            Layer::Combined => "scheduler.combined",
            Layer::Dispatch => "battery.dispatch",
            Layer::DeficitStats => "timeseries.deficit_stats",
            Layer::ManifestBuild => "manifest.build",
            Layer::HeadParse => "serve.head_parse",
            Layer::JsonParse => "serve.json_parse",
            Layer::RequestParse => "serve.request_parse",
            Layer::ExplorerLookup => "serve.explorer_lookup",
            Layer::Execute => "serve.execute",
            Layer::Encode => "serve.encode",
            Layer::CacheRead => "serve.cache_read",
            Layer::CacheWrite => "serve.cache_write",
            Layer::Write => "serve.write",
            Layer::Request => "serve.dispatch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    /// Shared by the spans of one request or one sweep query.
    id: u32,
    thread: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span log. A disabled recorder records nothing, so the
/// same replay code runs untraced for the overhead comparison.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u16,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: u16) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it becomes the parent of spans entered before the
    /// matching [`Recorder::exit`].
    pub fn enter(&mut self, layer: Layer, id: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            id,
            thread: self.thread,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, layer: Layer, id: u32, f: impl FnOnce() -> R) -> R {
        self.enter(layer, id);
        let out = f();
        self.exit();
        out
    }
}

/// Per-layer totals derived from a set of spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    pub self_ns: [u64; Layer::ALL.len()],
    pub calls: [u64; Layer::ALL.len()],
}

impl LayerTotals {
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e3
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Mean self time per call in µs, 0 for a layer never called.
    pub fn mean_us(&self, layer: Layer) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            n => self.self_us(layer) / n as f64,
        }
    }

    /// Σ self time of every layer, µs.
    pub fn total_self_us(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e3
    }
}

/// Every recorder's spans, merged at the end of a traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a recorder's spans, renumbering parents into this trace.
    pub fn absorb(&mut self, recorder: Recorder) {
        assert!(recorder.open.is_empty(), "every span closed before merging");
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(recorder.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time and call count per layer.
    pub fn totals(&self) -> LayerTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = LayerTotals::default();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let i = span.layer.index();
            totals.self_ns[i] += (span.end_ns - span.start_ns).saturating_sub(*children);
            totals.calls[i] += 1;
        }
        totals
    }

    /// Writes one line per span: layer, id, thread, parent, start, end.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("layer\tid\tthread\tparent\tstart_ns\tend_ns\n");
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}\t{}",
                span.layer.name(),
                span.id,
                span.thread,
                span.start_ns,
                span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch, 0);
        rec.enter(Layer::CoreGroup, 1);
        rec.time(Layer::Dispatch, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit();
        let mut trace = Trace::default();
        trace.absorb(rec);
        let totals = trace.totals();
        assert_eq!(totals.calls(Layer::CoreGroup), 1);
        assert_eq!(totals.calls(Layer::Dispatch), 1);
        assert!(totals.self_us(Layer::Dispatch) >= 2000.0);
        assert!(totals.self_us(Layer::CoreGroup) < totals.self_us(Layer::Dispatch));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        rec.time(Layer::Encode, 0, || ());
        let mut trace = Trace::default();
        trace.absorb(rec);
        assert_eq!(trace.totals().calls(Layer::Encode), 0);
    }
}
