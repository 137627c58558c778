//! The machine's own speed while a run measures.
//!
//! On a shared virtual machine the same work takes a different time from
//! minute to minute: the servers' CPU time per request moved by 60%
//! between consecutive runs of unchanged code, and every latency with it.
//! Most of a request's cost here is the kernel's loopback TCP path —
//! syscalls, socket buffers, wakeups across CPUs — so a run times
//! loopback round trips between two of its own threads, pinned to two
//! different CPUs, before every load segment, and the end-to-end timings
//! are scaled to the speed at which one round trip takes
//! [`REFERENCE_RTT_NS`]. A change to the program moves them; a change in
//! the machine's speed largely does not. Pinned, the gauge measures the
//! same path in every sample; left to the scheduler, its two threads
//! sometimes shared a CPU, which halves a round trip.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round-trip time, ns, of the reference speed the end-to-end timings are
/// scaled to.
pub const REFERENCE_RTT_NS: f64 = 20_000.0;

/// Round trips per sample; the sample is their median, so a preemption
/// inside a few of them does not count as a slow machine.
const ROUND_TRIPS: usize = 1_000;
/// Bytes per message: a small request.
const MESSAGE: usize = 64;

/// A loopback TCP connection to an echo thread, kept for the whole run.
pub struct Gauge {
    stream: Option<TcpStream>,
    echo: Option<JoinHandle<()>>,
    /// The CPU samples are taken from: the last one the process may use,
    /// while the echo thread runs on the first.
    cpu: usize,
}

impl Gauge {
    /// Connects to a fresh echo thread on `127.0.0.1`.
    pub fn start() -> io::Result<Gauge> {
        let allowed = affinity::current()?;
        let first = affinity::cpus(&allowed).next().ok_or_else(|| io::Error::other("no CPU"))?;
        let last = affinity::cpus(&allowed).last().unwrap_or(first);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let port = listener.local_addr()?.port();
        let echo = std::thread::spawn(move || {
            let _ = affinity::set(&affinity::only(first));
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; MESSAGE];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Gauge { stream: Some(stream), echo: Some(echo), cpu: last })
    }

    /// One speed sample: the median of [`ROUND_TRIPS`] round trips, ns,
    /// taken with the calling thread pinned to the gauge's CPU (its own
    /// affinity is restored before returning).
    pub fn sample(&mut self) -> io::Result<u64> {
        let before = affinity::current()?;
        affinity::set(&affinity::only(self.cpu))?;
        let sample = self.round_trips();
        affinity::set(&before)?;
        sample
    }

    fn round_trips(&mut self) -> io::Result<u64> {
        let stream = self.stream.as_mut().expect("open until drop");
        let mut buf = [0u8; MESSAGE];
        let mut rtts = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let started = Instant::now();
            stream.write_all(&buf)?;
            stream.read_exact(&mut buf)?;
            rtts.push(started.elapsed().as_nanos() as u64);
        }
        rtts.sort_unstable();
        Ok(rtts[rtts.len() / 2])
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        // Closing the connection ends the echo thread's read loop.
        drop(self.stream.take());
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// How much slower than the reference the machine ran: the median sample
/// over [`REFERENCE_RTT_NS`]. A duration divided by it, or a rate
/// multiplied by it, is what the reference machine would have measured.
pub fn slowdown(samples: &[u64]) -> f64 {
    let ns: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    match crate::stats::median(&ns) {
        m if m > 0.0 => m / REFERENCE_RTT_NS,
        _ => 1.0,
    }
}

/// Thread CPU affinity (`sched_getaffinity`/`sched_setaffinity` on the
/// calling thread).
mod affinity {
    use std::io;

    /// `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's allowed CPUs.
    pub fn current() -> io::Result<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(mask)
    }

    /// Restricts the calling thread to `mask`.
    pub fn set(mask: &Mask) -> io::Result<()> {
        // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The mask holding `cpu` alone.
    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }

    /// The CPUs in `mask`, ascending.
    pub fn cpus(mask: &Mask) -> impl Iterator<Item = usize> + '_ {
        (0..mask.len() * 64).filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_round_trips_and_restores_affinity() {
        let before = affinity::current().unwrap();
        let mut gauge = Gauge::start().unwrap();
        assert!(gauge.sample().unwrap() > 0);
        assert!(gauge.sample().unwrap() > 0, "the connection serves many samples");
        assert_eq!(affinity::current().unwrap(), before);
        drop(gauge);
    }

    #[test]
    fn affinity_masks_list_their_cpus() {
        let mask = affinity::only(65);
        assert_eq!(affinity::cpus(&mask).collect::<Vec<_>>(), vec![65]);
        assert!(affinity::cpus(&affinity::current().unwrap()).next().is_some());
    }

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let r = REFERENCE_RTT_NS as u64;
        assert_eq!(slowdown(&[r, 2 * r, 3 * r]), 2.0);
        assert_eq!(slowdown(&[r / 2, r / 2, 9 * r]), 0.5, "one slow sample is outvoted");
        assert_eq!(slowdown(&[]), 1.0);
    }
}
