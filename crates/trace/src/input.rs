//! Trace input: a streaming reader over an FTB capture, and the loop
//! that folds it.
//!
//! Every consumer in this crate folds [`TraceEvent`]s. [`EventReader`]
//! turns a capture — a file or stdin, as written by `ftr_obs::BinSink` —
//! back into them one at a time, never materializing the trace, so a
//! multi-gigabyte fleet capture replays in O(1) memory. FTB is the only
//! format it decodes: a stream that does not open with the `FTB1` magic
//! (an empty one included) is [`ReadError::Malformed`].
//!
//! [`replay`] is the canonical consumption loop — feed every event to a
//! [`JourneyBook`] and (optionally) a [`DiagnoserSink`] — shared by the
//! `ftr-trace` CLI and the differential tests.

use crate::diagnose::DiagnoserSink;
use crate::journey::JourneyBook;
use ftr_obs::ftb::{FtbHeader, FtbReader};
pub use ftr_obs::ReadError;
use ftr_obs::{TraceEvent, TraceSink};
use std::io::{BufReader, Read};
use std::path::Path;

/// A streaming reader over an FTB capture.
pub struct EventReader {
    inner: FtbReader<BufReader<Box<dyn Read>>>,
}

impl EventReader {
    /// Opens the capture at `path` and parses its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ReadError> {
        let f = std::fs::File::open(&path)
            .map_err(|e| ReadError::Io(format!("cannot open {}: {e}", path.as_ref().display())))?;
        EventReader::from_reader(f)
    }

    /// Wraps any byte stream (e.g. stdin) and parses the header.
    pub fn from_reader(r: impl Read + 'static) -> Result<Self, ReadError> {
        let r: Box<dyn Read> = Box::new(r);
        Ok(EventReader { inner: FtbReader::from_reader(BufReader::new(r))? })
    }

    /// The capture's self-describing header.
    pub fn header(&self) -> &FtbHeader {
        self.inner.header()
    }
}

impl Iterator for EventReader {
    type Item = Result<TraceEvent, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// Folds every event of `reader` into `book` and, when given, the
/// online diagnoser. Returns the number of events consumed; stops at
/// the first malformed event. Either way `book` holds every event
/// decoded up to that point and the diagnoser's final scan period is
/// closed out, so a caller can still report on the prefix of a
/// crash-cut capture.
pub fn replay(
    reader: EventReader,
    book: &mut JourneyBook,
    diag: Option<&DiagnoserSink>,
) -> Result<u64, ReadError> {
    let mut n = 0u64;
    let mut end = Ok(());
    for ev in reader {
        match ev {
            Ok(ev) => {
                book.fold(&ev);
                if let Some(d) = diag {
                    d.record(&ev);
                }
                n += 1;
            }
            Err(e) => {
                end = Err(e);
                break;
            }
        }
    }
    if let Some(d) = diag {
        // the trace may end inside a scan period; close it out
        d.scan_now();
    }
    end.map(|()| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_obs::ftb::BinSink;
    use ftr_obs::EventKind;
    use ftr_topo::NodeId;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 0,
                kind: EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(3), len_flits: 4 },
            },
            TraceEvent { cycle: 9, kind: EventKind::Deliver { node: NodeId(3), msg: 1 } },
        ]
    }

    /// `events()` as a finalized capture.
    fn capture(header: FtbHeader) -> Vec<u8> {
        let mut bytes = Vec::new();
        let s = BinSink::new(&mut bytes, header).unwrap();
        events().iter().for_each(|e| s.record(e));
        s.finalize().unwrap();
        drop(s);
        bytes
    }

    #[test]
    fn replay_folds_both_formats_identically() {
        let mut direct = JourneyBook::new();
        direct.fold_all(&events());

        let dir = std::env::temp_dir().join(format!("ftr-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ftb = dir.join("r.ftb");
        std::fs::write(&ftb, capture(FtbHeader::new().with("seed", 5u64))).unwrap();

        let reader = EventReader::open(&ftb).unwrap();
        assert_eq!(reader.header().seed(), Some(5));
        let mut book = JourneyBook::new();
        let n = replay(reader, &mut book, None).unwrap();
        assert_eq!(n, 2);
        assert_eq!(book.summary(), direct.summary());
    }

    #[test]
    fn malformed_lines_and_truncated_ftb_error_out() {
        // FTB is the only format: a JSON line, an empty stream and a
        // stream shorter than the magic are all malformed input
        for bad in [&b"{\"cycle\":1,\"event\":\"kill\",\"msg\":1}\n"[..], b"", b"FT"] {
            let err = EventReader::from_reader(bad).err().expect("rejected at open");
            assert!(matches!(err, ReadError::Malformed(_)), "{bad:?}: {err:?}");
        }

        // an FTB stream cut before the END marker must not fold cleanly,
        // but the book keeps what was decoded before the cut
        let bytes = capture(FtbHeader::new());
        let cut = bytes[..bytes.len() - 1].to_vec();
        let mut book = JourneyBook::new();
        let diag = DiagnoserSink::default();
        let r = EventReader::from_reader(std::io::Cursor::new(cut)).unwrap();
        let err = replay(r, &mut book, Some(&diag)).unwrap_err();
        assert!(matches!(err, ReadError::Malformed(ref m) if m.contains("truncated")), "{err:?}");
        assert_eq!(book.events_total(), 2, "the prefix stays folded");
    }
}
