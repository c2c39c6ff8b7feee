//! The [`Recorder`] and [`TraceSink`] traits, the zero-cost
//! [`NoopRecorder`], and the scoped [`Span`] guard that feeds both sinks.

use crate::Layer;
use std::time::Instant;

/// The span tree of the one request traced through a recorder. [`Span`]
/// guards drive it; instrumented code never calls it directly.
pub trait TraceSink {
    /// Opens a span nested in whatever span is open.
    fn open(&self, name: &'static str);

    /// Closes the innermost open span.
    fn close(&self);

    /// Attaches an attribute to the innermost open span, or to the request
    /// when none is open.
    fn attr(&self, key: &'static str, value: f64);
}

/// A sink for instrumentation data.
///
/// All methods take `&self` so a single recorder can be threaded through a
/// call tree without mutable aliasing; implementations provide their own
/// interior mutability where needed. Instrumented code should be written
/// against `R: Recorder` generics so the no-op implementation inlines away.
pub trait Recorder {
    /// Whether this recorder retains anything. Instrumented code may use
    /// this to skip *computing* expensive diagnostics (never to change
    /// results), and [`Span`] uses it to skip clock reads.
    fn is_enabled(&self) -> bool;

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);

    /// Sets the named gauge to its most recent value.
    fn gauge(&self, name: &str, value: f64);

    /// Records one sample into the named histogram.
    fn observe(&self, name: &str, value: f64);

    /// Records one completed span of `seconds` wall time. Usually called by
    /// the [`Span`] guard rather than directly.
    fn record_span(&self, name: &str, seconds: f64);

    /// Records a structured event (e.g. a hardware/ideal winner mismatch
    /// with its DOM margin).
    fn event(&self, name: &str, fields: &[(&str, f64)]);

    /// The span tree this recorder also reports into: `Some` only while a
    /// sampled request is traced through it.
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        None
    }

    /// Attaches a trace attribute to the open span (or the request), if any.
    fn trace_attr(&self, key: &'static str, value: f64) {
        if let Some(sink) = self.trace_sink() {
            sink.attr(key, value);
        }
    }

    /// Starts the scoped guard of one `layer`: it times the layer's series
    /// when this recorder is enabled and, while a request is traced, keeps
    /// the layer's trace span open until it drops.
    fn span(&self, layer: Layer) -> Span<'_, Self>
    where
        Self: Sized,
    {
        let timed = layer
            .series()
            .filter(|_| self.is_enabled())
            .map(|series| (series, Instant::now()));
        let trace = layer.trace_name().and_then(|name| {
            let sink = self.trace_sink()?;
            sink.open(name);
            Some(sink)
        });
        Span {
            recorder: self,
            timed,
            trace,
        }
    }
}

/// The default recorder: enabled-check is a constant `false` and every sink
/// is an empty body, so instrumented code specialised on it carries no
/// overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn counter(&self, _name: &str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &str, _value: f64) {}

    #[inline(always)]
    fn observe(&self, _name: &str, _value: f64) {}

    #[inline(always)]
    fn record_span(&self, _name: &str, _seconds: f64) {}

    #[inline(always)]
    fn event(&self, _name: &str, _fields: &[(&str, f64)]) {}
}

/// Forwarding impl so instrumented entry points can hand `&recorder` down
/// a level without re-parameterising everything.
impl<R: Recorder + ?Sized> Recorder for &R {
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline]
    fn counter(&self, name: &str, delta: u64) {
        (**self).counter(name, delta);
    }

    #[inline]
    fn gauge(&self, name: &str, value: f64) {
        (**self).gauge(name, value);
    }

    #[inline]
    fn observe(&self, name: &str, value: f64) {
        (**self).observe(name, value);
    }

    #[inline]
    fn record_span(&self, name: &str, seconds: f64) {
        (**self).record_span(name, seconds);
    }

    #[inline]
    fn event(&self, name: &str, fields: &[(&str, f64)]) {
        (**self).event(name, fields);
    }

    #[inline]
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        (**self).trace_sink()
    }
}

/// Forwarding impl so long-lived services (e.g. a recall engine) can share
/// one recorder across worker threads behind
/// `Arc<dyn Recorder + Send + Sync>` while instrumented code stays generic.
impl<R: Recorder + ?Sized> Recorder for std::sync::Arc<R> {
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline]
    fn counter(&self, name: &str, delta: u64) {
        (**self).counter(name, delta);
    }

    #[inline]
    fn gauge(&self, name: &str, value: f64) {
        (**self).gauge(name, value);
    }

    #[inline]
    fn observe(&self, name: &str, value: f64) {
        (**self).observe(name, value);
    }

    #[inline]
    fn record_span(&self, name: &str, seconds: f64) {
        (**self).record_span(name, seconds);
    }

    #[inline]
    fn event(&self, name: &str, fields: &[(&str, f64)]) {
        (**self).event(name, fields);
    }

    #[inline]
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        (**self).trace_sink()
    }
}

/// RAII guard of one [`Layer`], from [`Recorder::span`]: on drop it closes
/// the trace span it opened, if any, and reports its wall time via
/// [`Recorder::record_span`]. A disabled recorder reads no clock at all.
#[must_use = "a span reports its timing when dropped; binding it to _ ends it immediately"]
pub struct Span<'a, R: Recorder> {
    recorder: &'a R,
    timed: Option<(&'static str, Instant)>,
    trace: Option<&'a dyn TraceSink>,
}

impl<R: Recorder> Span<'_, R> {
    /// Attaches an attribute to this guard's trace span; a no-op when the
    /// span is not traced.
    pub fn attr(&self, key: &'static str, value: f64) {
        if let Some(sink) = self.trace {
            sink.attr(key, value);
        }
    }
}

impl<R: Recorder> Drop for Span<'_, R> {
    fn drop(&mut self) {
        if let Some(sink) = self.trace {
            sink.close();
        }
        if let Some((series, start)) = self.timed {
            self.recorder
                .record_span(series, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn noop_is_disabled_and_absorbs_everything() {
        let r = NoopRecorder;
        assert!(!r.is_enabled());
        r.counter("a", 1);
        r.gauge("b", 2.0);
        r.observe("c", 3.0);
        r.event("d", &[("x", 1.0)]);
        let _span = r.span(Layer::SETTLE);
    }

    #[test]
    fn reference_forwarding_reaches_the_sink() {
        let r = MemoryRecorder::default();
        let by_ref: &MemoryRecorder = &r;
        assert!(by_ref.is_enabled());
        by_ref.counter("n", 2);
        {
            let _span = by_ref.span(Layer::SETTLE);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), 2);
        assert_eq!(snap.span_stats("recall.settle").unwrap().count, 1);
    }

    #[test]
    fn arc_forwarding_reaches_the_sink() {
        use std::sync::Arc;
        let r = Arc::new(MemoryRecorder::default());
        let shared: Arc<dyn Recorder + Send + Sync> = r.clone();
        assert!(shared.is_enabled());
        shared.counter("n", 3);
        shared.gauge("g", 1.5);
        shared.observe("h", 0.25);
        shared.event("e", &[("x", 1.0)]);
        {
            let _span = shared.span(Layer::SETTLE);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), 3);
        assert_eq!(snap.span_stats("recall.settle").unwrap().count, 1);
        assert_eq!(snap.histogram_stats("h").unwrap().count, 1);
    }

    #[test]
    fn nested_spans_record_independently() {
        let r = MemoryRecorder::default();
        {
            let _outer = r.span(Layer::RECALL);
            for _ in 0..3 {
                let _inner = r.span(Layer::SETTLE);
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.span_stats("recall.total").unwrap().count, 1);
        assert_eq!(snap.span_stats("recall.settle").unwrap().count, 3);
        assert!(snap.span_stats("recall.total").unwrap().sum >= 0.0);
    }
}
