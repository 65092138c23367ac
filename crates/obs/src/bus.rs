//! The pluggable event bus: subscribers receive every published event.

use crate::event::{Event, RingBuffer};
use std::io::Write;

/// A subscriber attached to an [`EventBus`].
pub trait EventSink {
    /// Receive one published event.
    fn receive(&mut self, event: &Event);

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Fan-out of events to any number of boxed sinks.
///
/// The bus is the *streaming* half of the observability layer: attach
/// writers (or custom closures) and publish, either live or by replaying a
/// [`crate::Recorder`]'s retained history.
#[derive(Default)]
pub struct EventBus {
    sinks: Vec<Box<dyn EventSink>>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Attach a subscriber.
    pub fn subscribe(&mut self, sink: impl EventSink + 'static) -> &mut Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Number of attached subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.sinks.len()
    }

    /// Deliver one event to every subscriber, in subscription order.
    pub fn publish(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.receive(event);
        }
    }

    /// Flush every subscriber.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// Every closure over `&Event` is a sink.
impl<F: FnMut(&Event)> EventSink for F {
    fn receive(&mut self, event: &Event) {
        self(event);
    }
}

/// Sink retaining the last `cap` events in memory.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    ring: RingBuffer,
}

impl RingBufferSink {
    /// A ring-buffer sink retaining at most `cap` events.
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            ring: RingBuffer::new(cap),
        }
    }

    /// The underlying ring buffer.
    pub fn ring(&self) -> &RingBuffer {
        &self.ring
    }
}

impl EventSink for RingBufferSink {
    fn receive(&mut self, event: &Event) {
        self.ring.push(event.clone());
    }
}

/// Sink writing one human-readable line per event.
pub struct TextSink<W: Write> {
    writer: W,
}

impl<W: Write> TextSink<W> {
    /// A text sink over any writer (stdout, a file, a `Vec<u8>`).
    pub fn new(writer: W) -> Self {
        TextSink { writer }
    }

    /// Consume the sink and recover the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for TextSink<W> {
    fn receive(&mut self, event: &Event) {
        // Sink I/O failures must not abort a simulation; drop the line.
        let _ = writeln!(self.writer, "{event}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Sink writing one JSON object per line (JSON Lines).
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// A JSONL sink over any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Consume the sink and recover the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn receive(&mut self, event: &Event) {
        let _ = writeln!(self.writer, "{}", event.to_json());
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagrid_simnet::time::SimTime;

    fn sample(i: u64) -> Event {
        Event::new(SimTime::from_nanos(i * 1_000), "test", "tick").with("i", i)
    }

    #[test]
    fn bus_fans_out_to_all_sinks() {
        use std::cell::Cell;
        use std::rc::Rc;

        let counter = Rc::new(Cell::new(0u32));
        let seen = counter.clone();
        let mut bus = EventBus::new();
        bus.subscribe(TextSink::new(Vec::new()));
        bus.subscribe(move |_e: &Event| seen.set(seen.get() + 1));
        for i in 0..3 {
            bus.publish(&sample(i));
        }
        assert_eq!(counter.get(), 3);
        assert_eq!(bus.subscriber_count(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.receive(&sample(1));
        sink.receive(&sample(2));
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with("{\"t_ns\":")));
    }
}
