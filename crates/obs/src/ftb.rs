//! FTB — the on-disk trace format.
//!
//! At campaign-fleet scale (10⁴+ runs, each emitting 10⁴–10⁶ events) a
//! capture has to be cheap enough to keep for every run, so the one
//! format traces are stored in is dense: one opcode byte per event,
//! every integer as a LEB128 varint, and cycle stamps delta-encoded
//! against the previous event (zigzag, wrapping — any cycle sequence
//! encodes, monotone or not). A typical event is 4–10 bytes and encoding
//! is a few stores into a scratch buffer. The readable rendering of an
//! event ([`TraceEvent::to_json`]) is a view over a decoded capture
//! (`ftr-trace --to-jsonl`), never a second thing to write or parse.
//!
//! A stream is:
//!
//! ```text
//! "FTB1" | varint schema_version | varint n_meta | n_meta × (key, value)
//! event* | END opcode (0x00)
//! ```
//!
//! where `key`/`value` are length-prefixed UTF-8 strings. The header
//! makes a trace self-describing: [`FtbHeader`] carries free-form
//! metadata pairs with conventional keys (`geometry`, `seed`, `label`)
//! so a reader can tell which run produced a file without consulting a
//! manifest. The explicit END marker makes truncation detectable: a
//! stream that hits EOF without it was cut mid-write (crash, full disk)
//! and [`FtbReader`] reports it instead of silently ending.
//!
//! [`BinSink`] is the writing half (a [`TraceSink`] with buffered writes
//! and an explicit [`BinSink::finalize`]); [`FtbReader`] is a streaming
//! iterator that decodes one event at a time through a `BufRead` and
//! never materializes the file. The encode/decode pair is proven
//! lossless over every [`EventKind`] variant in `tests/ftb_roundtrip.rs`
//! and event-for-event equal to the live in-memory stream on full
//! campaign runs in `crates/bench/tests/ftb_diff.rs`.

use crate::event::{EventKind, RouteOutcome, TraceEvent};
use crate::sink::TraceSink;
use ftr_topo::{NodeId, PortId, VcId};
use parking_lot::Mutex;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

/// File magic: the first four bytes of every FTB stream.
pub const FTB_MAGIC: [u8; 4] = *b"FTB1";

/// Schema version written by this encoder. Readers reject versions they
/// do not know rather than guessing at opcode layouts.
pub const FTB_SCHEMA_VERSION: u64 = 1;

/// End-of-stream opcode (a finalized trace's last byte).
const OP_END: u8 = 0x00;

/// Why reading a trace stopped.
#[derive(Clone, Debug)]
pub enum ReadError {
    /// The underlying reader failed (I/O, not content).
    Io(String),
    /// The content is not a valid trace: no `FTB1` magic, a bad opcode
    /// or field, a stream cut before its END marker, bytes after it.
    Malformed(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(m) | ReadError::Malformed(m) => f.write_str(m),
        }
    }
}

/// Running out of bytes is a property of the content (the stream was
/// cut); every other read failure is the device's.
impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ReadError::Malformed("FTB stream truncated (unexpected end of input)".into())
        } else {
            ReadError::Io(format!("read error: {e}"))
        }
    }
}

impl From<String> for ReadError {
    fn from(m: String) -> Self {
        ReadError::Malformed(m)
    }
}

// ---------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (7 bits per byte, high bit = more).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed delta so small magnitudes of either sign stay
/// short (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one LEB128 varint. At most 10 bytes (ceil(64/7)); anything
/// longer is a malformed stream, not a bigger number.
fn read_varint<R: Read + ?Sized>(r: &mut R) -> Result<u64, ReadError> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let byte = read_u8(r)?;
        v |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            // the 10th byte may only carry the single remaining bit
            if shift == 9 && byte > 1 {
                return Err(ReadError::Malformed("varint overflows u64".into()));
            }
            return Ok(v);
        }
    }
    Err(ReadError::Malformed("varint longer than 10 bytes".into()))
}

fn read_u8<R: Read + ?Sized>(r: &mut R) -> Result<u8, ReadError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_exact<R: Read + ?Sized>(r: &mut R, n: usize) -> Result<Vec<u8>, ReadError> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str<R: Read + ?Sized>(r: &mut R) -> Result<String, ReadError> {
    let len = read_varint(r)?;
    if len > 1 << 20 {
        return Err(format!("header string of {len} bytes is implausible").into());
    }
    Ok(String::from_utf8(read_exact(r, len as usize)?).map_err(|e| format!("bad UTF-8: {e}"))?)
}

// ---------------------------------------------------------------------
// header
// ---------------------------------------------------------------------

/// The self-describing stream header: schema version plus free-form
/// metadata pairs identifying the producing run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FtbHeader {
    /// Format schema version (see [`FTB_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Metadata pairs, in written order. Conventional keys: `geometry`
    /// (e.g. `mesh:6x6`), `seed`, `label`, `algorithm`.
    pub meta: Vec<(String, String)>,
}

impl FtbHeader {
    /// An empty current-schema header.
    pub fn new() -> Self {
        FtbHeader { schema: FTB_SCHEMA_VERSION, meta: Vec::new() }
    }

    /// Adds a metadata pair (builder style).
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// First value recorded for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The `seed` metadata entry parsed as an integer, if present.
    pub fn seed(&self) -> Option<u64> {
        self.get("seed")?.parse().ok()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FTB_MAGIC);
        put_varint(out, self.schema);
        put_varint(out, self.meta.len() as u64);
        for (k, v) in &self.meta {
            put_str(out, k);
            put_str(out, v);
        }
    }

    fn decode(r: &mut impl Read) -> Result<Self, ReadError> {
        // a stream too short to hold the magic (an empty one included)
        // is as much "not FTB" as one that opens with other bytes
        match read_exact(r, 4) {
            Ok(magic) if magic == FTB_MAGIC => {}
            Err(io @ ReadError::Io(_)) => return Err(io),
            _ => return Err(ReadError::Malformed("not an FTB stream (no `FTB1` magic)".into())),
        }
        let schema = read_varint(r)?;
        if schema != FTB_SCHEMA_VERSION {
            return Err(format!(
                "unsupported FTB schema version {schema} (reader speaks {FTB_SCHEMA_VERSION})"
            )
            .into());
        }
        let n = read_varint(r)?;
        if n > 4096 {
            return Err(format!("{n} header entries is implausible").into());
        }
        let mut meta = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let k = read_str(r)?;
            let v = read_str(r)?;
            meta.push((k, v));
        }
        Ok(FtbHeader { schema, meta })
    }
}

// ---------------------------------------------------------------------
// event codec
// ---------------------------------------------------------------------

fn opcode(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Inject { .. } => 1,
        EventKind::RouteDecision { .. } => 2,
        EventKind::VcStall { .. } => 3,
        EventKind::VcAcquire { .. } => 4,
        EventKind::VcRelease { .. } => 5,
        EventKind::RouteWait { .. } => 6,
        EventKind::Deliver { .. } => 7,
        EventKind::Kill { .. } => 8,
        EventKind::Unroutable { .. } => 9,
        EventKind::LinkFault { .. } => 10,
        EventKind::NodeFault { .. } => 11,
        EventKind::LinkRepair { .. } => 12,
        EventKind::NodeRepair { .. } => 13,
        EventKind::Retry { .. } => 14,
        EventKind::SendRejected { .. } => 15,
        EventKind::ControlSend { .. } => 16,
        EventKind::ControlSettled { .. } => 17,
        EventKind::Heartbeat { .. } => 18,
        EventKind::Suspect { .. } => 19,
        EventKind::Alarm { .. } => 20,
        EventKind::ControlDrop { .. } => 21,
    }
}

/// Encodes `ev` into `out` as `opcode, zigzag(cycle − prev_cycle),
/// fields…`. Wrapping subtraction means every (prev, cycle) pair is
/// representable, including a jump of nearly `u64::MAX` in either
/// direction.
fn encode_event(ev: &TraceEvent, prev_cycle: u64, out: &mut Vec<u8>) {
    out.push(opcode(&ev.kind));
    put_varint(out, zigzag(ev.cycle.wrapping_sub(prev_cycle) as i64));
    let node = |out: &mut Vec<u8>, n: NodeId| put_varint(out, u64::from(n.0));
    match &ev.kind {
        EventKind::Inject { msg, src, dst, len_flits } => {
            put_varint(out, *msg);
            node(out, *src);
            node(out, *dst);
            put_varint(out, u64::from(*len_flits));
        }
        EventKind::RouteDecision { node: n, msg, in_port, in_vc, outcome, steps, misrouted } => {
            node(out, *n);
            put_varint(out, *msg);
            match in_port {
                Some(p) => {
                    out.push(1);
                    out.push(p.0);
                }
                None => out.push(0),
            }
            out.push(in_vc.0);
            match outcome {
                RouteOutcome::Routed(p, v) => {
                    out.push(0);
                    out.push(p.0);
                    out.push(v.0);
                }
                RouteOutcome::Wait => out.push(1),
                RouteOutcome::Deliver => out.push(2),
                RouteOutcome::Unroutable => out.push(3),
            }
            put_varint(out, u64::from(*steps));
            out.push(u8::from(*misrouted));
        }
        EventKind::VcStall { node: n, msg, port, vc }
        | EventKind::VcAcquire { node: n, msg, port, vc }
        | EventKind::VcRelease { node: n, msg, port, vc } => {
            node(out, *n);
            put_varint(out, *msg);
            out.push(port.0);
            out.push(vc.0);
        }
        EventKind::RouteWait { node: n, msg, wants } => {
            node(out, *n);
            put_varint(out, *msg);
            put_varint(out, wants.len() as u64);
            for (p, v) in wants {
                out.push(p.0);
                out.push(v.0);
            }
        }
        EventKind::Deliver { node: n, msg } => {
            node(out, *n);
            put_varint(out, *msg);
        }
        EventKind::Kill { msg } | EventKind::Unroutable { msg } => put_varint(out, *msg),
        EventKind::LinkFault { node: n, port } | EventKind::LinkRepair { node: n, port } => {
            node(out, *n);
            out.push(port.0);
        }
        EventKind::NodeFault { node: n } | EventKind::NodeRepair { node: n } => node(out, *n),
        EventKind::Retry { msg, attempt } => {
            put_varint(out, *msg);
            put_varint(out, u64::from(*attempt));
        }
        EventKind::SendRejected { src, dst } => {
            node(out, *src);
            node(out, *dst);
        }
        EventKind::ControlSend { from, to } => {
            node(out, *from);
            node(out, *to);
        }
        EventKind::ControlSettled { cycles } => put_varint(out, *cycles),
        EventKind::Heartbeat { node: n, port, pong } => {
            node(out, *n);
            out.push(port.0);
            out.push(u8::from(*pong));
        }
        EventKind::Suspect { node: n, port, misses } => {
            node(out, *n);
            out.push(port.0);
            put_varint(out, u64::from(*misses));
        }
        EventKind::Alarm { node: n, port } | EventKind::ControlDrop { node: n, port } => {
            node(out, *n);
            out.push(port.0);
        }
    }
}

/// Decodes the event that follows an already-consumed opcode byte.
fn decode_event(op: u8, prev_cycle: u64, r: &mut impl Read) -> Result<TraceEvent, ReadError> {
    let cycle = prev_cycle.wrapping_add(unzigzag(read_varint(r)?) as u64);
    let node = |r: &mut dyn Read| -> Result<NodeId, ReadError> {
        let v = read_varint(r)?;
        Ok(NodeId(u32::try_from(v).map_err(|_| format!("node id {v} out of range"))?))
    };
    let port = |r: &mut dyn Read| -> Result<PortId, ReadError> { Ok(PortId(read_u8(r)?)) };
    let vc = |r: &mut dyn Read| -> Result<VcId, ReadError> { Ok(VcId(read_u8(r)?)) };
    let small = |v: u64| -> Result<u32, ReadError> {
        Ok(u32::try_from(v).map_err(|_| format!("field {v} out of u32 range"))?)
    };
    let kind = match op {
        1 => EventKind::Inject {
            msg: read_varint(r)?,
            src: node(r)?,
            dst: node(r)?,
            len_flits: small(read_varint(r)?)?,
        },
        2 => {
            let n = node(r)?;
            let msg = read_varint(r)?;
            let in_port = match read_u8(r)? {
                0 => None,
                1 => Some(port(r)?),
                other => return Err(format!("bad in_port presence byte {other}").into()),
            };
            let in_vc = vc(r)?;
            let outcome = match read_u8(r)? {
                0 => RouteOutcome::Routed(port(r)?, vc(r)?),
                1 => RouteOutcome::Wait,
                2 => RouteOutcome::Deliver,
                3 => RouteOutcome::Unroutable,
                other => return Err(format!("bad route outcome byte {other}").into()),
            };
            let steps = small(read_varint(r)?)?;
            let misrouted = match read_u8(r)? {
                0 => false,
                1 => true,
                other => return Err(format!("bad misrouted byte {other}").into()),
            };
            EventKind::RouteDecision { node: n, msg, in_port, in_vc, outcome, steps, misrouted }
        }
        3..=5 => {
            let n = node(r)?;
            let msg = read_varint(r)?;
            let p = port(r)?;
            let v = vc(r)?;
            match op {
                3 => EventKind::VcStall { node: n, msg, port: p, vc: v },
                4 => EventKind::VcAcquire { node: n, msg, port: p, vc: v },
                _ => EventKind::VcRelease { node: n, msg, port: p, vc: v },
            }
        }
        6 => {
            let n = node(r)?;
            let msg = read_varint(r)?;
            let len = read_varint(r)?;
            if len > 1 << 16 {
                return Err(format!("wants list of {len} entries is implausible").into());
            }
            let mut wants = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let p = port(r)?;
                let v = vc(r)?;
                wants.push((p, v));
            }
            EventKind::RouteWait { node: n, msg, wants }
        }
        7 => EventKind::Deliver { node: node(r)?, msg: read_varint(r)? },
        8 => EventKind::Kill { msg: read_varint(r)? },
        9 => EventKind::Unroutable { msg: read_varint(r)? },
        10 => EventKind::LinkFault { node: node(r)?, port: port(r)? },
        11 => EventKind::NodeFault { node: node(r)? },
        12 => EventKind::LinkRepair { node: node(r)?, port: port(r)? },
        13 => EventKind::NodeRepair { node: node(r)? },
        14 => EventKind::Retry { msg: read_varint(r)?, attempt: small(read_varint(r)?)? },
        15 => EventKind::SendRejected { src: node(r)?, dst: node(r)? },
        16 => EventKind::ControlSend { from: node(r)?, to: node(r)? },
        17 => EventKind::ControlSettled { cycles: read_varint(r)? },
        18 => {
            let n = node(r)?;
            let p = port(r)?;
            let pong = match read_u8(r)? {
                0 => false,
                1 => true,
                other => return Err(format!("bad pong byte {other}").into()),
            };
            EventKind::Heartbeat { node: n, port: p, pong }
        }
        19 => {
            EventKind::Suspect { node: node(r)?, port: port(r)?, misses: small(read_varint(r)?)? }
        }
        20 => EventKind::Alarm { node: node(r)?, port: port(r)? },
        21 => EventKind::ControlDrop { node: node(r)?, port: port(r)? },
        other => return Err(format!("unknown FTB opcode {other:#04x}").into()),
    };
    Ok(TraceEvent { cycle, kind })
}

// ---------------------------------------------------------------------
// sink
// ---------------------------------------------------------------------

struct BinInner<W: Write> {
    out: BufWriter<W>,
    scratch: Vec<u8>,
    last_cycle: u64,
    written: u64,
    write_errors: u64,
    bytes: u64,
    finalized: bool,
}

/// A [`TraceSink`] streaming events in FTB through a buffered writer.
///
/// The header is written eagerly on construction. Call
/// [`BinSink::finalize`] when the run is over — it appends the END
/// marker and flushes, turning the file into a complete, truncation-
/// detectable trace. Dropping an unfinalized sink finalizes it best-
/// effort; write failures never panic the simulation but are counted in
/// [`BinSink::write_errors`], and a trace with a non-zero count is
/// incomplete and must not be treated as ground truth.
pub struct BinSink<W: Write + Send> {
    inner: Mutex<BinInner<W>>,
}

impl BinSink<std::fs::File> {
    /// Creates (truncating) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>, header: FtbHeader) -> std::io::Result<Self> {
        BinSink::new(std::fs::File::create(path)?, header)
    }
}

impl<W: Write + Send> BinSink<W> {
    /// Wraps an arbitrary writer; writes the stream header immediately
    /// (a header that cannot be written is a hard error — nothing useful
    /// can follow it).
    pub fn new(w: W, header: FtbHeader) -> std::io::Result<Self> {
        let mut head = Vec::with_capacity(64);
        header.encode(&mut head);
        let mut out = BufWriter::new(w);
        out.write_all(&head)?;
        Ok(BinSink {
            inner: Mutex::new(BinInner {
                out,
                scratch: Vec::with_capacity(64),
                last_cycle: 0,
                written: 0,
                write_errors: 0,
                bytes: head.len() as u64,
                finalized: false,
            }),
        })
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.inner.lock().written
    }

    /// Events (or flushes) lost to write failures — a trace with
    /// `write_errors() > 0` is incomplete.
    pub fn write_errors(&self) -> u64 {
        self.inner.lock().write_errors
    }

    /// Total bytes handed to the writer, header and END marker included.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Writes the END marker and flushes. Idempotent; events recorded
    /// after finalization are counted as write errors rather than
    /// corrupting the terminated stream.
    pub fn finalize(&self) -> std::io::Result<()> {
        let mut g = self.inner.lock();
        if g.finalized {
            return Ok(());
        }
        g.finalized = true;
        let res = g.out.write_all(&[OP_END]).and_then(|()| g.out.flush());
        match res {
            Ok(()) => {
                g.bytes += 1;
                Ok(())
            }
            Err(e) => {
                g.write_errors += 1;
                Err(e)
            }
        }
    }
}

impl<W: Write + Send> TraceSink for BinSink<W> {
    fn record(&self, ev: &TraceEvent) {
        let g = &mut *self.inner.lock();
        if g.finalized {
            g.write_errors += 1;
            return;
        }
        g.scratch.clear();
        encode_event(ev, g.last_cycle, &mut g.scratch);
        match g.out.write_all(&g.scratch) {
            Ok(()) => {
                g.written += 1;
                g.bytes += g.scratch.len() as u64;
                g.last_cycle = ev.cycle;
            }
            Err(_) => g.write_errors += 1,
        }
    }

    fn flush(&self) {
        let g = &mut *self.inner.lock();
        if g.out.flush().is_err() {
            g.write_errors += 1;
        }
    }
}

impl<W: Write + Send> Drop for BinSink<W> {
    fn drop(&mut self) {
        let _ = self.finalize();
    }
}

// ---------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------

/// Streaming FTB decoder: an iterator of events that reads one event at
/// a time and never materializes the stream (O(1) memory in the trace
/// length; the only allocation proportional to anything is a
/// `RouteWait` wants list).
///
/// The iterator yields `Err` once and then ends on a malformed or
/// truncated stream — a trace without the END marker was cut mid-write
/// and is reported, not silently accepted, and so is one with bytes
/// after it (two captures concatenated). Every event before the error
/// has been yielded, so a consumer still holds the prefix.
pub struct FtbReader<R: BufRead> {
    r: R,
    header: FtbHeader,
    last_cycle: u64,
    /// Events decoded so far.
    decoded: u64,
    done: bool,
    /// Set when the END marker closed the stream (clean end).
    finalized: bool,
}

impl<R: BufRead> FtbReader<R> {
    /// Wraps a buffered reader and parses the header.
    pub fn from_reader(mut r: R) -> Result<Self, ReadError> {
        let header = FtbHeader::decode(&mut r)?;
        Ok(FtbReader { r, header, last_cycle: 0, decoded: 0, done: false, finalized: false })
    }

    /// The stream header.
    pub fn header(&self) -> &FtbHeader {
        &self.header
    }

    /// True once the END marker was consumed with nothing after it —
    /// the stream is complete.
    pub fn finalized(&self) -> bool {
        self.finalized
    }

    /// Decodes the next record; `Ok(None)` is the clean end of stream.
    fn next_event(&mut self) -> Result<Option<TraceEvent>, ReadError> {
        let mut op = [0u8; 1];
        match self.r.read_exact(&mut op) {
            // EOF where an opcode belongs: only END may end a stream
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(ReadError::Malformed(format!(
                    "FTB stream truncated after {} events (missing END marker)",
                    self.decoded
                )));
            }
            other => other?,
        }
        let op = op[0];
        if op == OP_END {
            if !self.r.fill_buf()?.is_empty() {
                return Err(ReadError::Malformed(format!(
                    "trailing bytes after END ({} events before it)",
                    self.decoded
                )));
            }
            self.finalized = true;
            return Ok(None);
        }
        let ev = decode_event(op, self.last_cycle, &mut self.r).map_err(|e| match e {
            ReadError::Malformed(m) => {
                ReadError::Malformed(format!("malformed event {}: {m}", self.decoded + 1))
            }
            io => io,
        })?;
        self.last_cycle = ev.cycle;
        self.decoded += 1;
        Ok(Some(ev))
    }
}

impl<R: BufRead> Iterator for FtbReader<R> {
    type Item = Result<TraceEvent, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_event().transpose();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(0, EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(35), len_flits: 16 }),
            ev(
                3,
                EventKind::RouteDecision {
                    node: NodeId(0),
                    msg: 1,
                    in_port: None,
                    in_vc: VcId(0),
                    outcome: RouteOutcome::Routed(PortId(1), VcId(1)),
                    steps: 4,
                    misrouted: false,
                },
            ),
            ev(3, EventKind::VcAcquire { node: NodeId(0), msg: 1, port: PortId(1), vc: VcId(1) }),
            ev(
                9,
                EventKind::RouteWait {
                    node: NodeId(7),
                    msg: 1,
                    wants: vec![(PortId(0), VcId(0)), (PortId(3), VcId(1))],
                },
            ),
            ev(42, EventKind::Deliver { node: NodeId(35), msg: 1 }),
        ]
    }

    /// `events` as an FTB stream, with or without its END marker.
    fn stream(header: FtbHeader, events: &[TraceEvent], finalize: bool) -> Vec<u8> {
        let sink = BinSink::new(Vec::new(), header).unwrap();
        events.iter().for_each(|e| sink.record(e));
        if finalize {
            sink.finalize().unwrap();
        } else {
            sink.flush();
        }
        let bytes = sink.inner.lock().out.get_ref().clone();
        bytes
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let got = read_varint(&mut &buf[..]).unwrap();
            assert_eq!(got, v);
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn stream_round_trips_and_finalizes() {
        let header = FtbHeader::new().with("geometry", "mesh:6x6").with("seed", 7u64);
        let sink = BinSink::new(Vec::new(), header.clone()).unwrap();
        let events = sample_events();
        for e in &events {
            sink.record(e);
        }
        sink.finalize().unwrap();
        assert_eq!(sink.written(), events.len() as u64);
        assert_eq!(sink.write_errors(), 0);
        let bytes = {
            let g = sink.inner.lock();
            g.out.get_ref().clone()
        };
        assert_eq!(bytes.len() as u64, sink.bytes_written());

        let mut reader = FtbReader::from_reader(&bytes[..]).unwrap();
        assert_eq!(reader.header().get("geometry"), Some("mesh:6x6"));
        assert_eq!(reader.header().seed(), Some(7));
        let back: Vec<TraceEvent> = (&mut reader).map(|r| r.unwrap()).collect();
        assert_eq!(back, events);
        assert!(reader.finalized());
    }

    #[test]
    fn truncated_stream_is_reported_not_swallowed() {
        // no END marker; also chop one more byte off the tail
        let bytes = stream(FtbHeader::new(), &sample_events(), false);
        for cut in [bytes.len(), bytes.len() - 1] {
            let reader = FtbReader::from_reader(&bytes[..cut]).unwrap();
            let items: Vec<_> = reader.collect();
            let last = items.last().expect("yields something");
            assert!(
                matches!(last, Err(ReadError::Malformed(m)) if m.contains("truncated")),
                "truncation must surface as malformed input: {last:?}"
            );
        }
    }

    #[test]
    fn bytes_after_end_are_reported_not_ignored() {
        // `cat a.ftb a.ftb` must not replay as `a` alone
        let both = stream(FtbHeader::new(), &sample_events(), true).repeat(2);
        let mut reader = FtbReader::from_reader(&both[..]).unwrap();
        let items: Vec<_> = (&mut reader).collect();
        assert_eq!(items.len(), sample_events().len() + 1, "every event of `a`, then the error");
        assert!(
            matches!(items.last(), Some(Err(ReadError::Malformed(m))) if m.contains("trailing bytes after END"))
        );
        assert!(!reader.finalized());
    }

    /// Serves `data`, then fails with a non-EOF error — a dying disk or
    /// pipe, as opposed to a stream that simply ends.
    struct DiesAfter<'a>(&'a [u8]);

    impl Read for DiesAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("device gone"));
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn device_failures_are_io_errors_not_malformed_input() {
        let bytes = stream(FtbHeader::new(), &sample_events(), true);
        // inside the header, between two events, inside an event
        for n in [2, bytes.len() - 1, bytes.len() - 3] {
            let r = std::io::BufReader::new(DiesAfter(&bytes[..n]));
            let last = match FtbReader::from_reader(r) {
                Ok(reader) => reader.last().expect("yields the error"),
                Err(e) => Err(e),
            };
            assert!(
                matches!(&last, Err(ReadError::Io(m)) if m.contains("device gone")),
                "cut at {n}: {last:?}"
            );
        }
    }

    #[test]
    fn record_after_finalize_is_a_counted_error() {
        let sink = BinSink::new(Vec::new(), FtbHeader::new()).unwrap();
        sink.finalize().unwrap();
        sink.record(&ev(1, EventKind::Kill { msg: 1 }));
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.write_errors(), 1);
    }

    #[test]
    fn wrapping_cycle_deltas_encode_any_sequence() {
        let cycles = [0u64, u64::MAX, 0, 1, u64::MAX / 2, u64::MAX, 5];
        let events: Vec<TraceEvent> =
            cycles.iter().map(|&c| ev(c, EventKind::Kill { msg: 9 })).collect();
        let bytes = stream(FtbHeader::new(), &events, true);
        let got: Vec<u64> =
            FtbReader::from_reader(&bytes[..]).unwrap().map(|r| r.unwrap().cycle).collect();
        assert_eq!(got, cycles);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = stream(FtbHeader::new().with("label", "empty"), &[], true);
        let mut reader = FtbReader::from_reader(&bytes[..]).unwrap();
        assert!(reader.next().is_none());
        assert!(reader.finalized());
    }

    #[test]
    fn rejects_bad_magic_and_future_schema() {
        assert!(FtbReader::from_reader(&b"NOPE"[..]).is_err());
        let mut bytes = Vec::new();
        FtbHeader { schema: FTB_SCHEMA_VERSION + 1, meta: vec![] }.encode(&mut bytes);
        let err = FtbReader::from_reader(&bytes[..]).err().expect("future schema rejected");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn failed_writes_are_counted() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("full"))
            }
        }
        // header fits in the BufWriter, so construction succeeds; the
        // failure surfaces when event bytes force a flush
        let sink = BinSink {
            inner: Mutex::new(BinInner {
                out: BufWriter::with_capacity(1, Failing),
                scratch: Vec::new(),
                last_cycle: 0,
                written: 0,
                write_errors: 0,
                bytes: 0,
                finalized: false,
            }),
        };
        for i in 0..4 {
            sink.record(&ev(i, EventKind::Kill { msg: i }));
        }
        assert_eq!(sink.written() + sink.write_errors(), 4);
        assert!(sink.write_errors() > 0);
        assert!(sink.finalize().is_err());
    }
}
