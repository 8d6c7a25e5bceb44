//! In-memory tracing for the traced run: spans around calls into the
//! workspace crates' public functions, and a transparent timing wrapper
//! for RSE modules.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! Nothing here is compiled into the simulator: every span sits in the
//! benchmark's own code, around a public call.

use rse_core::{ChkDispatch, Module, ModuleCtx, Verdict};
use rse_isa::ModuleId;
use rse_pipeline::{DispatchInfo, ExecuteInfo, RobId};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `inject.run`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Spans nest through [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's duration in nanoseconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Runs `f` under a span named `name` when a tracer is given, and
/// returns its result with its host nanoseconds either way.
pub fn timed<R>(tr: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
    match tr {
        Some(tr) => tr.span(name, |_| f()),
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_nanos() as u64)
        }
    }
}

/// [`timed`], appending the host nanoseconds of `f` to `units` as well.
pub fn unit<R>(
    tr: Option<&mut Tracer>,
    units: &mut Vec<u64>,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let (r, ns) = timed(tr, name, f);
    units.push(ns);
    (r, ns)
}

/// Host time and hook-call count accumulated by a [`TimedModule`],
/// shared with the caller that installed it.
#[derive(Debug, Default)]
pub struct ModuleClock {
    /// Nanoseconds spent inside the wrapped module's hooks.
    pub self_ns: Cell<u64>,
    /// Hook calls forwarded.
    pub calls: Cell<u64>,
}

/// A transparent timing wrapper for an RSE [`Module`]: forwards every
/// trait method to the inner module and adds the time spent in it to a
/// shared [`ModuleClock`]. `as_any`/`as_any_mut` return the inner
/// module, so `Engine::module_ref::<Icm>()` still downcasts.
pub struct TimedModule {
    inner: Box<dyn Module>,
    clock: Rc<ModuleClock>,
}

impl TimedModule {
    /// Wraps `inner`; returns the wrapper and the clock it reports to.
    pub fn wrap(inner: Box<dyn Module>) -> (Box<dyn Module>, Rc<ModuleClock>) {
        let clock = Rc::new(ModuleClock::default());
        let wrapped = TimedModule {
            inner,
            clock: Rc::clone(&clock),
        };
        (Box::new(wrapped), clock)
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Module) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.self_ns.set(self.clock.self_ns.get() + ns);
        self.clock.calls.set(self.clock.calls.get() + 1);
        r
    }
}

impl Module for TimedModule {
    fn id(&self) -> ModuleId {
        self.inner.id()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.on_chk(chk, ctx));
    }

    fn on_dispatch(&mut self, info: &DispatchInfo, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.on_dispatch(info, ctx));
    }

    fn on_execute(&mut self, info: &ExecuteInfo, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.on_execute(info, ctx));
    }

    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.on_commit(rob, ctx));
    }

    fn on_squash(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.on_squash(rob, ctx));
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.timed(|m| m.tick(ctx));
    }

    fn self_test(&mut self) -> Verdict {
        self.timed(|m| m.self_test())
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        self.timed(|m| m.corrupt_state(seed))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
