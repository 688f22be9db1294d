//! The closed-loop client: drives one `clr-served` process over its
//! stdin/stdout pipes from a single thread, waiting on both pipes with
//! `poll(2)` so it never blocks on one while the daemon waits on the
//! other.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use clr_obs::TelemetrySnapshot;
use clr_serve::wire::{Frame, WIRE_HEADER_LEN};
use clr_serve::LineageSnapshot;
use clr_store::{MemoryBackend, Store};

use crate::check::frame_len;
use crate::gen::{Inputs, Item};
use crate::stats::percentile;
use crate::sysinfo::process_kib;

/// Requests in flight: four of the daemon's default 256-frame admission
/// batches, so the daemon always finds a full batch waiting.
pub const WINDOW: usize = 1_024;

/// Requests per measurement chunk. Throughput and request latency are
/// taken per chunk of consecutive requests and reported as medians over
/// every chunk of a run, so a stall or a slow spell of a shared machine
/// moves a few chunks rather than the result.
pub const CHUNK: usize = 10_000;

/// Frame kind byte of a stats response.
const STATS_RESPONSE: u8 = 6;

/// How long the client waits for the daemon to take or answer a frame
/// before it gives the session up.
const STALL_MS: i32 = 60_000;

/// What one daemon session measured.
#[derive(Debug, Clone)]
pub struct Session {
    /// Spawn → response to the first frame, in seconds.
    pub setup_s: f64,
    /// Requests ÷ (last response read − first request written).
    pub events_per_s: f64,
    /// Per chunk of [`CHUNK`] requests: completions ÷ the time between
    /// its first and last response read.
    pub chunk_rate: Vec<f64>,
    /// Per chunk: median write → response-read latency, µs.
    pub chunk_p50_us: Vec<f64>,
    /// Per chunk: 99th-percentile write → response-read latency, µs.
    pub chunk_p99_us: Vec<f64>,
    /// Stats query write → snapshot decoded, µs.
    pub stats_us: Vec<f64>,
    /// Delta pull start → `SwapDbResponse` read, ms.
    pub rollout_ms: Vec<f64>,
    /// The daemon's `VmHWM`, KiB.
    pub peak_rss_kib: u64,
    /// The daemon's `VmRSS` once seated, KiB.
    pub seated_rss_kib: u64,
    /// The daemon's `VmRSS` once the last request is answered, KiB.
    pub served_rss_kib: u64,
    /// Every response frame, in order.
    pub responses: Vec<u8>,
}

/// Fresh replicas holding generation 0 of every origin.
fn replicas(inputs: &Inputs) -> Result<Vec<Store<MemoryBackend>>, String> {
    inputs
        .origins
        .iter()
        .map(|o| {
            let mut store = Store::in_memory();
            let genesis = LineageSnapshot::from_bytes(&o.exports[0]).map_err(|e| e.to_string())?;
            store.merge(&genesis).map_err(|e| e.to_string())?;
            Ok(store)
        })
        .collect()
}

/// Pulls one rollout's generation into its replica and exports it: the
/// client-side half of a rollout.
///
/// # Errors
///
/// A store failure, or an export that differs from the publisher's.
pub fn pull(
    inputs: &Inputs,
    replicas: &mut [Store<MemoryBackend>],
    rollout: usize,
) -> Result<(), String> {
    let r = &inputs.rollouts[rollout];
    let origin = &inputs.origins[r.origin];
    let cs = origin
        .store
        .changeset(r.from, r.to)
        .map_err(|e| e.to_string())?;
    let replica = &mut replicas[r.origin];
    replica.merge_changeset(&cs).map_err(|e| e.to_string())?;
    let bytes = replica.get(r.to).map_err(|e| e.to_string())?.to_bytes();
    let expected = usize::try_from(r.to)
        .ok()
        .and_then(|g| origin.exports.get(g));
    if expected != Some(&bytes) {
        return Err(format!(
            "pulled generation {} of {} differs from the published one",
            r.to, r.tenant
        ));
    }
    std::fs::write(&r.path, &bytes).map_err(|e| format!("cannot write {}: {e}", r.path))
}

/// Reads one whole frame; `None` at end of stream.
fn read_frame(r: &mut impl Read, out: &mut Vec<u8>) -> Result<Option<u8>, String> {
    let start = out.len();
    out.resize(start + WIRE_HEADER_LEN, 0);
    if let Err(e) = r.read_exact(&mut out[start..]) {
        out.truncate(start);
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Ok(None)
        } else {
            Err(e.to_string())
        };
    }
    let kind = out[start + 10];
    let len = frame_len(&out[start..]).ok_or("bad frame header")?;
    out.resize(start + len, 0);
    r.read_exact(&mut out[start + WIRE_HEADER_LEN..])
        .map_err(|e| format!("truncated response frame: {e}"))?;
    Ok(Some(kind))
}

fn spawn(bin: &Path, inputs: &Inputs, learn_dir: Option<&Path>) -> Result<Child, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("--threads").arg(inputs.threads.to_string());
    for t in &inputs.tenant_flags {
        cmd.arg("--tenant").arg(t);
    }
    if let Some(dir) = learn_dir {
        cmd.arg("--learn-dir").arg(dir);
    }
    let log = std::fs::File::create(inputs.dir.join("served.stderr"))
        .map_err(|e| format!("cannot create the daemon log: {e}"))?;
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))
}

/// Runs one daemon session over the whole stream.
///
/// # Errors
///
/// A failed spawn, pull, pipe or exit.
pub fn run_session(
    bin: &Path,
    inputs: &Inputs,
    learn_dir: Option<&Path>,
) -> Result<Session, String> {
    let mut reps = replicas(inputs)?;
    let base = Instant::now();
    let mut child = spawn(bin, inputs, learn_dir)?;
    let pid = child.id();
    let result = drive(&mut child, inputs, &mut reps, base, pid);
    // Whatever happened, close stdin so the daemon drains, and reap it;
    // after a failure it is stopped outright.
    drop(child.stdin.take());
    if result.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let session = result?;
    if !status.success() {
        return Err(format!("clr-served exited with {status}"));
    }
    Ok(session)
}

fn ns(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn drive(
    child: &mut Child,
    inputs: &Inputs,
    reps: &mut [Store<MemoryBackend>],
    base: Instant,
    pid: u32,
) -> Result<Session, String> {
    let stream = &inputs.stream;
    let frames = stream.len();
    let mut stdin = child.stdin.take().ok_or("no stdin pipe")?;
    let stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let mut reader = BufReader::with_capacity(1 << 16, stdout);

    // Frame 0 is a tenant-filtered stats query: its response marks the
    // daemon seated.
    let mut responses = Vec::with_capacity(stream.bytes.len() * 2);
    stdin
        .write_all(stream.frame(0))
        .map_err(|e| e.to_string())?;
    read_frame(&mut reader, &mut responses)?.ok_or("daemon closed before seating")?;
    let setup_ns = ns(base);
    let seated_rss_kib = process_kib(pid, "VmRSS").unwrap_or(0);

    let (sent, read, served_rss_kib) = exchange(
        inputs,
        reps,
        &mut stdin,
        &mut reader,
        &mut responses,
        base,
        pid,
    )?;
    let peak_rss_kib = process_kib(pid, "VmHWM").unwrap_or(0);

    let mut stats_us = Vec::new();
    let mut rollout_ms = Vec::new();
    let mut requests = Vec::new();
    for i in 1..frames {
        let d = read[i].saturating_sub(sent[i]) as f64;
        match stream.items[i] {
            Item::Request => requests.push(i),
            Item::Stats => stats_us.push(d / 1e3),
            Item::Swap(_) => rollout_ms.push(d / 1e6),
            Item::Promote => {}
        }
    }
    let (mut chunk_rate, mut chunk_p50_us, mut chunk_p99_us) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in requests.chunks_exact(CHUNK) {
        let span = read[chunk[CHUNK - 1]].saturating_sub(read[chunk[0]]).max(1) as f64 / 1e9;
        chunk_rate.push((CHUNK - 1) as f64 / span);
        let latency: Vec<f64> = chunk
            .iter()
            .map(|&i| read[i].saturating_sub(sent[i]) as f64 / 1e3)
            .collect();
        chunk_p50_us.push(percentile(&latency, 0.50)?);
        chunk_p99_us.push(percentile(&latency, 0.99)?);
    }
    let (first, last) = match (requests.first(), requests.last()) {
        (Some(&f), Some(&l)) => (f, l),
        _ => return Err("the stream holds no requests".into()),
    };
    let span = read[last].saturating_sub(sent[first]).max(1) as f64 / 1e9;
    Ok(Session {
        setup_s: setup_ns as f64 / 1e9,
        events_per_s: requests.len() as f64 / span,
        chunk_rate,
        chunk_p50_us,
        chunk_p99_us,
        stats_us,
        rollout_ms,
        peak_rss_kib,
        seated_rss_kib,
        served_rss_kib,
        responses,
    })
}

/// The closed loop over frames `1..`: queue frames while fewer than
/// [`WINDOW`] requests are unanswered, write what the request pipe takes
/// without blocking, and read every response that has arrived. Returns
/// each frame's queue time (the pull start for a rollout), each
/// response's read time (a stats response once its snapshot is
/// decoded), and the daemon's `VmRSS` once the last request is answered,
/// before any rollout after it can grow the heap.
fn exchange(
    inputs: &Inputs,
    reps: &mut [Store<MemoryBackend>],
    stdin: &mut ChildStdin,
    reader: &mut BufReader<ChildStdout>,
    responses: &mut Vec<u8>,
    base: Instant,
    pid: u32,
) -> Result<(Vec<u64>, Vec<u64>, u64), String> {
    let stream = &inputs.stream;
    let items = &stream.items;
    let frames = stream.len();
    let last_request = items.iter().rposition(|i| *i == Item::Request);
    let io = |e: std::io::Error| format!("request pipe: {e}");
    sys::set_nonblocking(stdin.as_raw_fd()).map_err(io)?;
    let mut sent = vec![0u64; frames];
    let mut read = vec![0u64; frames];
    let mut served_rss_kib = 0;
    // Queued bytes not yet taken by the request pipe start at `off`.
    let (mut pending, mut off) = (Vec::new(), 0);
    let (mut next, mut done) = (1, 1);
    while done < frames {
        while next < frames {
            // Back-to-back rollouts go one at a time: each pull starts
            // once the previous swap is answered.
            let window = if matches!(items[next - 1], Item::Swap(_)) {
                1
            } else {
                WINDOW
            };
            if next - done >= window {
                break;
            }
            if let Item::Swap(r) = items[next] {
                // Everything before the rollout reaches the daemon first.
                if off < pending.len() {
                    break;
                }
                sent[next] = ns(base);
                pull(inputs, reps, r)?;
            } else {
                sent[next] = ns(base);
            }
            pending.extend_from_slice(stream.frame(next));
            next += 1;
        }
        while off < pending.len() {
            match stdin.write(&pending[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        if off == pending.len() {
            pending.clear();
            off = 0;
        }
        let wants_write = off < pending.len();
        if reader.buffer().is_empty()
            && !sys::wait_readable(reader.get_ref(), wants_write.then_some(&*stdin)).map_err(io)?
        {
            continue;
        }
        // Read the response that has arrived, then every one already
        // buffered.
        loop {
            let start = responses.len();
            let kind = read_frame(reader, responses)?
                .ok_or_else(|| format!("daemon closed with {} responses missing", frames - done))?;
            if kind == STATS_RESPONSE {
                let (frame, _) =
                    Frame::from_bytes(&responses[start..]).map_err(|e| e.to_string())?;
                if let Frame::StatsResponse(s) = frame {
                    TelemetrySnapshot::from_json(&s.snapshot)?;
                }
            }
            read[done] = ns(base);
            if Some(done) == last_request {
                served_rss_kib = process_kib(pid, "VmRSS").unwrap_or(0);
            }
            done += 1;
            if done == next || reader.buffer().is_empty() {
                break;
            }
        }
    }
    Ok((sent, read, served_rss_kib))
}

/// The two system calls `std` does not offer: a non-blocking request
/// pipe, and one wait on both pipes.
mod sys {
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Makes writes to `fd` return `WouldBlock` instead of waiting.
    pub fn set_nonblocking(fd: c_int) -> io::Result<()> {
        // SAFETY: fcntl on a descriptor this process owns, with integer
        // arguments only.
        let flags = unsafe { fcntl(fd, F_GETFL) };
        // SAFETY: as above.
        if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits until `read` has bytes (or is closed) or `write`, when
    /// given, has room; true when `read` is ready. Fails after
    /// [`super::STALL_MS`] with neither.
    pub fn wait_readable(read: &impl AsRawFd, write: Option<&impl AsRawFd>) -> io::Result<bool> {
        let mut fds = [
            PollFd {
                fd: read.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: write.map_or(-1, AsRawFd::as_raw_fd),
                events: POLLOUT,
                revents: 0,
            },
        ];
        loop {
            // SAFETY: `fds` is a live array of two pollfd records; a
            // negative descriptor is ignored by poll.
            let n = unsafe { poll(fds.as_mut_ptr(), 2, super::STALL_MS) };
            if n > 0 {
                return Ok(fds[0].revents != 0);
            }
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "the daemon neither took nor answered a frame",
                ));
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}
