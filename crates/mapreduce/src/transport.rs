//! Length-prefixed frame transport for the multi-process engine mode.
//!
//! The distributed engine ([`crate::worker`]) moves round frames down to
//! forked worker processes and map output back up to the coordinator,
//! one Unix pipe each way per worker. Every message is one *frame*:
//!
//! ```text
//! [len: u32 LE][tag: u8][payload: len bytes][crc32c: u32 LE]
//! ```
//!
//! `len` counts the payload only (the 5-byte header and 4-byte trailer
//! are excluded), and is capped at [`MAX_FRAME_BYTES`] so a corrupt
//! header cannot force a huge allocation. The trailer is the CRC32C of
//! header plus payload (the `crc` module); a mismatch surfaces as
//! [`EngineError::CorruptFrame`] instead of silently wrong data. Payloads
//! are encoded with the [`crate::wire::WireCodec`] little-endian
//! encodings — the same byte accounting the paper's §5 experiments
//! declare — so the bytes crossing the pipe *are* the measured
//! communication.
//!
//! `FrameWriter`/`FrameReader` are generic over `io::Write`/`io::Read`
//! and count the physical bytes and frames they move; the Unix process
//! plumbing (fork/pipe/waitpid/poll/kill) lives in the `#[cfg(unix)]`
//! half of this module and is the only unsafe code in the workspace.

use std::io::{self, Read, Write};

use crate::crc::Crc32c;
use crate::wire::WireError;

/// Hard cap on a single frame's payload, chosen far above any chunk the
/// engine writes (pair frames are cut at `PAIR_CHUNK_BYTES`) but small
/// enough that a corrupted length prefix fails fast.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Target payload size for `PAIRS` frames: large enough to amortise the
/// header, small enough to stream (a worker never buffers a whole run).
pub(crate) const PAIR_CHUNK_BYTES: usize = 64 << 10;

/// Frame tags. Down the coordinator → worker pipe goes one `ROUND` per
/// round: the round index, then the round's broadcast bytes. Up the
/// worker → coordinator pipe, per round and in this order: for each task
/// a `TASK_BEGIN`, then per partition run a `RUN_BEGIN` followed by
/// `PAIRS` chunks, then `TASK_END`; one `ROUND_END` closes the round.
pub(crate) mod tag {
    pub const TASK_BEGIN: u8 = 1;
    pub const RUN_BEGIN: u8 = 2;
    pub const PAIRS: u8 = 3;
    pub const TASK_END: u8 = 4;
    pub const ROUND_END: u8 = 5;
    pub const ROUND: u8 = 6;
}

/// Typed failure of a multi-process job. Everything the coordinator can
/// observe going wrong — a missing codec, a dead worker, a short or
/// malformed frame — surfaces as one of these instead of a hang or panic.
#[derive(Debug)]
pub enum EngineError {
    /// The job was asked to run multi-process but its `JobSpec` never
    /// installed a wire codec (`with_wire_codec`).
    MissingWireCodec,
    /// A worker process died before completing its tasks: killed by a
    /// signal, or exited nonzero.
    WorkerDied {
        /// Index of the worker in the coordinator's spawn order.
        worker: usize,
        /// Exit code, when the worker exited.
        exit_code: Option<i32>,
        /// Signal number, when the worker was killed by a signal.
        signal: Option<i32>,
    },
    /// The byte stream from a worker ended in the middle of a frame.
    TruncatedFrame {
        /// Index of the worker whose stream was cut short.
        worker: usize,
    },
    /// A frame header declared a payload larger than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
    },
    /// A frame's CRC32C trailer did not match its header and payload:
    /// the bytes were silently corrupted somewhere between the worker's
    /// encoder and the coordinator's decoder.
    CorruptFrame {
        /// Index of the worker whose frame failed its checksum.
        worker: usize,
    },
    /// No bytes arrived from a worker within the configured read
    /// deadline ([`crate::EngineConfig::read_deadline_ms`]) — the worker
    /// is hung (or starved), and the coordinator refused to block on it
    /// forever.
    WorkerTimeout {
        /// Index of the worker whose stream went quiet.
        worker: usize,
        /// The deadline that elapsed, in milliseconds.
        deadline_ms: u64,
    },
    /// A structurally invalid frame sequence or payload.
    Protocol(&'static str),
    /// Pipe or process-management syscall failure.
    Io(io::Error),
    /// Multi-process mode is only implemented on Unix.
    Unsupported,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingWireCodec => write!(
                f,
                "multi-process mode requires JobSpec::with_wire_codec to install a pair codec"
            ),
            EngineError::WorkerDied {
                worker,
                exit_code,
                signal,
            } => match (exit_code, signal) {
                (_, Some(sig)) => write!(f, "map worker {worker} killed by signal {sig}"),
                (Some(code), _) => write!(f, "map worker {worker} exited with code {code}"),
                (None, None) => write!(f, "map worker {worker} died"),
            },
            EngineError::TruncatedFrame { worker } => {
                write!(f, "map worker {worker} stream ended mid-frame")
            }
            EngineError::FrameTooLarge { declared } => write!(
                f,
                "frame declares {declared} payload bytes (cap {MAX_FRAME_BYTES})"
            ),
            EngineError::CorruptFrame { worker } => {
                write!(f, "map worker {worker} sent a frame failing its CRC32C")
            }
            EngineError::WorkerTimeout {
                worker,
                deadline_ms,
            } => write!(
                f,
                "map worker {worker} sent nothing for {deadline_ms}ms (read deadline)"
            ),
            EngineError::Protocol(what) => write!(f, "worker protocol violation: {what}"),
            EngineError::Io(e) => write!(f, "transport i/o failure: {e}"),
            EngineError::Unsupported => {
                write!(f, "multi-process engine mode is only supported on unix")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => EngineError::Protocol("payload truncated"),
            WireError::Invalid(what) => EngineError::Protocol(what),
        }
    }
}

/// Deterministic stream corruptions a [`FrameWriter`] can be armed with —
/// the writer half of [`crate::FaultPlan`]. `None` everywhere in normal
/// operation; the chaos tests use these to manufacture exactly the wire
/// conditions the coordinator must survive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WriterFaults {
    /// After writing this many whole frames, emit a partial header and
    /// silently swallow every further frame (the stream ends mid-frame
    /// even though the writer "succeeds").
    pub truncate_after: Option<u64>,
    /// Flip a bit in this frame's CRC32C trailer, so the receiver sees a
    /// checksum mismatch on otherwise well-formed bytes.
    pub corrupt_frame: Option<u64>,
}

/// Writes framed messages, counting physical bytes (header and trailer
/// included) and frames. The worker side wraps its pipe end in a
/// `BufWriter` underneath this, so each frame is one buffered copy, not
/// one syscall.
pub(crate) struct FrameWriter<W: Write> {
    inner: W,
    faults: WriterFaults,
    /// Set once an injected truncation fired: all later frames are
    /// swallowed so the stream stays cut exactly where the fault said.
    dead: bool,
    /// Physical bytes written, including the 5-byte headers and 4-byte
    /// CRC trailers.
    pub bytes: u64,
    /// Frames written.
    pub frames: u64,
}

impl<W: Write> FrameWriter<W> {
    /// A writer with no injected faults (tests; production arms
    /// [`Self::with_faults`] with the resolved plan, usually empty).
    #[cfg(test)]
    pub fn new(inner: W) -> Self {
        Self::with_faults(inner, WriterFaults::default())
    }

    pub fn with_faults(inner: W, faults: WriterFaults) -> Self {
        Self {
            inner,
            faults,
            dead: false,
            bytes: 0,
            frames: 0,
        }
    }

    /// Writes one `[len][tag][payload][crc32c]` frame.
    pub fn write_frame(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize);
        if self.dead {
            return Ok(());
        }
        let len = payload.len() as u32;
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4] = tag;
        if self.faults.truncate_after == Some(self.frames) {
            // Injected truncation: leak a partial header, then go quiet.
            self.inner.write_all(&header[..3])?;
            self.inner.flush()?;
            self.dead = true;
            return Ok(());
        }
        let mut crc = Crc32c::new();
        crc.update(&header);
        crc.update(payload);
        let mut crc = crc.finish();
        if self.faults.corrupt_frame == Some(self.frames) {
            crc ^= 1;
        }
        self.inner.write_all(&header)?;
        self.inner.write_all(payload)?;
        self.inner.write_all(&crc.to_le_bytes())?;
        self.bytes += 9 + u64::from(len);
        self.frames += 1;
        Ok(())
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Whether an injected truncation has cut the stream.
    pub fn is_cut(&self) -> bool {
        self.dead
    }

    /// Consumes the writer, returning the underlying sink (used by tests
    /// that frame into a `Vec<u8>` and then decode it back).
    #[cfg(test)]
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads framed messages, counting physical bytes and frames,
/// distinguishing a clean end-of-stream (EOF at a frame boundary) from a
/// truncated one (EOF inside a frame), and verifying each frame's CRC32C
/// trailer.
pub(crate) struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Physical bytes read, including the 5-byte headers and 4-byte CRC
    /// trailers.
    pub bytes: u64,
    /// Frames read.
    pub frames: u64,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            bytes: 0,
            frames: 0,
        }
    }

    /// Reads the next frame. `Ok(None)` is a clean EOF at a frame
    /// boundary; EOF anywhere inside a frame is an
    /// [`EngineError::TruncatedFrame`], and a checksum mismatch an
    /// [`EngineError::CorruptFrame`] (both reported with worker index 0 —
    /// the caller rewrites it with the real index).
    pub fn read_frame(&mut self) -> Result<Option<(u8, &[u8])>, EngineError> {
        let mut header = [0u8; 5];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Partial => return Err(EngineError::TruncatedFrame { worker: 0 }),
            ReadOutcome::Full => {}
        }
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let frame_tag = header[4];
        if len > MAX_FRAME_BYTES {
            return Err(EngineError::FrameTooLarge { declared: len });
        }
        // Payload and trailer are pulled in one read: the pipe is read
        // without intermediate buffering, so saving a syscall per frame
        // matters on the hot shuffle path.
        let len = len as usize;
        self.buf.resize(len + 4, 0);
        match read_exact_or_eof(&mut self.inner, &mut self.buf)? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => {
                return Err(EngineError::TruncatedFrame { worker: 0 })
            }
        }
        let trailer = u32::from_le_bytes(self.buf[len..].try_into().unwrap());
        let mut crc = Crc32c::new();
        crc.update(&header);
        crc.update(&self.buf[..len]);
        if crc.finish() != trailer {
            return Err(EngineError::CorruptFrame { worker: 0 });
        }
        self.bytes += 9 + len as u64;
        self.frames += 1;
        Ok(Some((frame_tag, &self.buf[..len])))
    }
}

enum ReadOutcome {
    /// The whole buffer was filled.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after at least one byte.
    Partial,
}

/// `read_exact`, but reporting *where* EOF happened instead of erasing it
/// into `UnexpectedEof` — the frame reader needs to tell a clean stream
/// end from a mid-frame cut.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Unix process plumbing: `fork`/`pipe`/`waitpid`/`poll`/`kill`/`_exit`
/// via the C library. Going through libc's `fork` (not a raw syscall)
/// runs the `pthread_atfork` handlers, which keeps the child's allocator
/// usable even when the parent has other live threads (as under
/// `cargo test`).
#[cfg(unix)]
pub(crate) mod process {
    use std::fs::File;
    use std::io::{self, Read};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::time::{Duration, Instant};

    /// `nfds_t` of poll(2): `unsigned long` on Linux/glibc/musl,
    /// `unsigned int` on the BSD family.
    #[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd"))]
    #[allow(non_camel_case_types)]
    type nfds_t = u32;
    #[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd")))]
    #[allow(non_camel_case_types)]
    type nfds_t = usize;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn fork() -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: i32) -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
        fn _exit(code: i32) -> !;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    /// `O_NONBLOCK`: 0o4000 on Linux, 0x4 on the BSD family.
    #[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd"))]
    const O_NONBLOCK: i32 = 0x4;
    #[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd")))]
    const O_NONBLOCK: i32 = 0o4000;

    const POLLIN: i16 = 0x1;
    pub(crate) const SIGKILL: i32 = 9;

    /// Worker exit code for "a map task panicked".
    pub const EXIT_PANIC: i32 = 101;
    /// Worker exit code for "the pipe to the coordinator failed" — which
    /// includes the coordinator dropping its read end on early abort.
    pub const EXIT_PIPE: i32 = 102;

    /// `F_SETPIPE_SZ` (Linux): resize a pipe's kernel buffer.
    #[cfg(target_os = "linux")]
    const F_SETPIPE_SZ: i32 = 1024 + 7;

    /// Creates a pipe and returns `(read end, write end)` as `File`s, so
    /// `Read`/`Write` retry `EINTR` and drop closes the fd. On Linux the
    /// pipe buffer is grown from the default 64 KiB to 1 MiB (the
    /// unprivileged `pipe-max-size` default): a worker streaming spill
    /// frames then runs ~16 chunks ahead of the coordinator instead of
    /// one, which on few-core machines cuts the writer/reader context-
    /// switch ping-pong by the same factor. Best-effort — if the fcntl
    /// fails (old kernel, lowered sysctl) the pipe just stays at 64 KiB.
    pub fn pipe_pair() -> io::Result<(File, File)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid pointer to two i32s, which is exactly
        // what pipe(2) writes on success.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        #[cfg(target_os = "linux")]
        // SAFETY: fcntl on a freshly created, owned pipe fd; resizing
        // affects only the pipe object shared by the two fds.
        unsafe {
            fcntl(fds[1], F_SETPIPE_SZ, 1 << 20);
        }
        // SAFETY: on success the two fds are freshly created, open, and
        // owned by nothing else — each File takes sole ownership.
        Ok(unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) })
    }

    /// Forks. Returns `Ok(None)` in the child, `Ok(Some(pid))` in the
    /// parent.
    pub fn fork_worker() -> io::Result<Option<i32>> {
        // SAFETY: libc fork has no preconditions; the child restricts
        // itself to the COW snapshot, its pipe, and _exit (it never
        // returns into the test harness or flushes inherited stdio).
        let pid = unsafe { fork() };
        match pid {
            -1 => Err(io::Error::last_os_error()),
            0 => Ok(None),
            pid => Ok(Some(pid)),
        }
    }

    /// How a reaped worker ended.
    #[derive(Debug, Clone, Copy)]
    pub enum Exit {
        Code(i32),
        Signal(i32),
    }

    /// Blocks until `pid` exits, retrying `EINTR`.
    pub fn wait_for(pid: i32) -> io::Result<Exit> {
        loop {
            let mut status = 0i32;
            // SAFETY: `status` is a valid out-pointer; waitpid only
            // writes through it.
            let r = unsafe { waitpid(pid, &mut status, 0) };
            if r == pid {
                // Decode per wait(2): low 7 bits carry the terminating
                // signal (0 for a normal exit), the next byte the code.
                return Ok(if status & 0x7f != 0 {
                    Exit::Signal(status & 0x7f)
                } else {
                    Exit::Code((status >> 8) & 0xff)
                });
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Terminates the calling process immediately — no atexit handlers,
    /// no stdio flush (the child shares the parent's buffered stdout and
    /// must not flush a copy of it).
    pub fn exit_now(code: i32) -> ! {
        // SAFETY: _exit is async-signal-safe and diverges.
        unsafe { _exit(code) }
    }

    /// Sends `SIGKILL` to `pid`. Returns whether the signal was
    /// delivered — `false` means the process was already gone (or never
    /// ours), which tells the coordinator the child died on its own
    /// rather than by this kill.
    pub fn kill_process(pid: i32) -> bool {
        // SAFETY: kill(2) with a specific positive pid affects only that
        // process; no memory is involved.
        unsafe { kill(pid, SIGKILL) == 0 }
    }

    /// Kills the calling process with `SIGKILL` — the fault-injection
    /// stand-in for a machine crash: no unwinding, no exit code, no
    /// chance to flush buffered frames.
    pub fn die_by_signal() -> ! {
        // SAFETY: signalling our own pid; SIGKILL cannot be handled, so
        // the loop below is never observed to spin.
        unsafe {
            kill(getpid(), SIGKILL);
        }
        loop {
            std::thread::yield_now();
        }
    }

    /// Blocks until `fd` is readable (or at EOF/error, which read(2)
    /// will then report), or until `timeout` elapses —
    /// `io::ErrorKind::TimedOut` in that case. Retries `EINTR` against
    /// the original deadline.
    fn wait_readable(fd: i32, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let ms = remaining.as_millis().min(i32::MAX as u128) as i32;
            let mut p = PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            };
            // SAFETY: `p` is a valid pollfd for the duration of the call;
            // poll(2) only writes `revents`.
            match unsafe { poll(&mut p, 1, ms) } {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "pipe read deadline elapsed",
                    ))
                }
                r if r > 0 => return Ok(()),
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// A pipe read end that refuses to block longer than a deadline: the
    /// fd is switched to non-blocking, reads go straight to read(2), and
    /// only a `EWOULDBLOCK` (empty pipe) falls back to poll(2) with the
    /// deadline — so the common data-available case pays zero extra
    /// syscalls, and a worker that stops producing bytes surfaces as
    /// `io::ErrorKind::TimedOut` (which the coordinator converts to
    /// [`crate::EngineError::WorkerTimeout`]) instead of hanging the
    /// reader thread forever. The deadline is per read — an *idle*
    /// deadline — so a slow-but-alive worker that keeps streaming never
    /// trips it. With no deadline the fd stays blocking and reads pass
    /// through untouched.
    pub struct DeadlineReader {
        inner: File,
        deadline: Option<Duration>,
        /// Whether the fd was successfully switched to non-blocking; if
        /// not (fcntl failure), every deadline-armed read polls first —
        /// slower, but the deadline still holds.
        nonblocking: bool,
    }

    impl DeadlineReader {
        pub fn new(inner: File, deadline: Option<Duration>) -> Self {
            let nonblocking = deadline.is_some() && {
                // SAFETY: fcntl on an owned, open fd; F_SETFL with
                // O_NONBLOCK changes only the file status flags.
                let fd = inner.as_raw_fd();
                let flags = unsafe { fcntl(fd, F_GETFL, 0) };
                flags >= 0 && unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } >= 0
            };
            Self {
                inner,
                deadline,
                nonblocking,
            }
        }
    }

    impl Read for DeadlineReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(d) = self.deadline else {
                return self.inner.read(buf);
            };
            if !self.nonblocking {
                wait_readable(self.inner.as_raw_fd(), d)?;
                return self.inner.read(buf);
            }
            loop {
                match self.inner.read(buf) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        wait_readable(self.inner.as_raw_fd(), d)?;
                    }
                    other => return other,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(frames: &[(u8, &[u8])]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new());
        for (t, p) in frames {
            w.write_frame(*t, p).unwrap();
        }
        w.inner
    }

    #[test]
    fn frames_roundtrip_with_counters() {
        let payloads: [(u8, &[u8]); 3] = [(1, b"hello"), (3, &[]), (7, &[0xff; 300])];
        let bytes = frame_bytes(&payloads);
        let mut r = FrameReader::new(bytes.as_slice());
        for (want_tag, want_payload) in payloads {
            let (got_tag, got_payload) = r.read_frame().unwrap().unwrap();
            assert_eq!(got_tag, want_tag);
            assert_eq!(got_payload, want_payload);
        }
        assert!(r.read_frame().unwrap().is_none(), "clean EOF");
        assert_eq!(r.frames, 3);
        assert_eq!(r.bytes, (9 + 5) + 9 + (9 + 300));
    }

    #[test]
    fn writer_counts_physical_bytes() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_frame(tag::PAIRS, &[1, 2, 3]).unwrap();
        // 5-byte header + 3-byte payload + 4-byte CRC trailer.
        assert_eq!(w.bytes, 12);
        assert_eq!(w.frames, 1);
        assert_eq!(w.inner.len(), 12);
    }

    #[test]
    fn flipped_payload_bit_is_a_corrupt_frame() {
        let mut bytes = frame_bytes(&[(tag::PAIRS, b"payload bytes")]);
        bytes[7] ^= 0x40;
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::CorruptFrame { worker: 0 })
        ));
    }

    #[test]
    fn flipped_trailer_bit_is_a_corrupt_frame() {
        let mut bytes = frame_bytes(&[(tag::ROUND_END, &[])]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn eof_inside_trailer_is_truncated() {
        let bytes = frame_bytes(&[(2, b"abcdef")]);
        // Cut inside the 4-byte CRC trailer.
        let mut r = FrameReader::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn frame_exactly_at_cap_roundtrips() {
        // A payload of exactly MAX_FRAME_BYTES is legal — the cap is
        // inclusive — and must survive the checksum round trip.
        let payload = vec![0xa5u8; MAX_FRAME_BYTES as usize];
        let mut w = FrameWriter::new(Vec::new());
        w.write_frame(tag::PAIRS, &payload).unwrap();
        assert_eq!(w.bytes, 9 + u64::from(MAX_FRAME_BYTES));
        let mut r = FrameReader::new(w.inner.as_slice());
        let (t, p) = r.read_frame().unwrap().unwrap();
        assert_eq!(t, tag::PAIRS);
        assert_eq!(p.len(), payload.len());
        assert!(p == payload.as_slice());
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn injected_truncation_cuts_the_stream_mid_frame() {
        let mut w = FrameWriter::with_faults(
            Vec::new(),
            WriterFaults {
                truncate_after: Some(1),
                corrupt_frame: None,
            },
        );
        w.write_frame(tag::TASK_BEGIN, b"ok").unwrap();
        w.write_frame(tag::TASK_END, &[]).unwrap();
        w.write_frame(tag::ROUND_END, &[9]).unwrap();
        // One whole frame, then 3 bytes of a header, then silence.
        assert_eq!(w.frames, 1);
        let mut r = FrameReader::new(w.inner.as_slice());
        assert!(r.read_frame().unwrap().is_some());
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn injected_corruption_flips_one_trailer() {
        let mut w = FrameWriter::with_faults(
            Vec::new(),
            WriterFaults {
                truncate_after: None,
                corrupt_frame: Some(1),
            },
        );
        w.write_frame(tag::TASK_BEGIN, b"fine").unwrap();
        w.write_frame(tag::PAIRS, b"poisoned").unwrap();
        let mut r = FrameReader::new(w.inner.as_slice());
        assert!(r.read_frame().unwrap().is_some());
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::CorruptFrame { .. })
        ));
    }

    #[cfg(unix)]
    #[test]
    fn deadline_reader_times_out_on_a_silent_pipe() {
        use std::time::{Duration, Instant};
        let (read_end, _write_end) = process::pipe_pair().unwrap();
        let mut reader = process::DeadlineReader::new(read_end, Some(Duration::from_millis(50)));
        let start = Instant::now();
        let err = std::io::Read::read(&mut reader, &mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[cfg(unix)]
    #[test]
    fn deadline_reader_passes_bytes_and_eof_through() {
        use std::io::Write;
        use std::time::Duration;
        let (read_end, mut write_end) = process::pipe_pair().unwrap();
        write_end.write_all(b"abc").unwrap();
        drop(write_end);
        let mut reader = process::DeadlineReader::new(read_end, Some(Duration::from_millis(200)));
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut buf).unwrap();
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn eof_inside_header_is_truncated() {
        let bytes = frame_bytes(&[(2, b"abcdef")]);
        let mut r = FrameReader::new(&bytes[..3]);
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn eof_inside_payload_is_truncated() {
        let bytes = frame_bytes(&[(2, b"abcdef")]);
        let mut r = FrameReader::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn oversized_header_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        bytes.push(tag::PAIRS);
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            r.read_frame(),
            Err(EngineError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn empty_payload_frames_work() {
        let bytes = frame_bytes(&[(tag::ROUND_END, &[])]);
        let mut r = FrameReader::new(bytes.as_slice());
        let (t, p) = r.read_frame().unwrap().unwrap();
        assert_eq!(t, tag::ROUND_END);
        assert!(p.is_empty());
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn errors_render_usefully() {
        let e = EngineError::WorkerDied {
            worker: 2,
            exit_code: None,
            signal: Some(6),
        };
        assert!(e.to_string().contains("signal 6"));
        let e = EngineError::WorkerDied {
            worker: 1,
            exit_code: Some(101),
            signal: None,
        };
        assert!(e.to_string().contains("code 101"));
        assert!(EngineError::MissingWireCodec
            .to_string()
            .contains("with_wire_codec"));
        assert!(EngineError::CorruptFrame { worker: 3 }
            .to_string()
            .contains("CRC32C"));
        let e = EngineError::WorkerTimeout {
            worker: 0,
            deadline_ms: 250,
        };
        assert!(e.to_string().contains("250ms"));
    }
}
