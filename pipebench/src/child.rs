//! Running one `dbs` invocation as a child process and reading its resource
//! usage through `wait4(2)` — the only way to get a child's own peak RSS
//! and CPU time (`getrusage(RUSAGE_CHILDREN)` reports the maximum over all
//! children ever reaped). The workspace has no libc crate, so the system
//! calls are declared here.
//!
//! A child's `ru_maxrss` is at least the peak RSS of the process that
//! spawned it: Linux folds the spawner's high-water mark into the child's
//! when the child calls `exec`. The benchmark's own process holds the
//! generated dataset, so it spawns `dbs` through a [`Spawner`]: a small
//! helper process, started before any data exists, that runs each child
//! and reports its usage.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn waitid(idtype: i32, id: u32, infop: *mut [u64; 16], options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

/// What one finished child cost and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    /// Wall time from spawn until the child exited, in seconds.
    pub wall_s: f64,
    /// User plus system CPU time of the child, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size of the child, in bytes.
    pub peak_rss_bytes: u64,
    /// Exit code; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// Whether the child was killed for exceeding its time limit.
    pub timed_out: bool,
}

impl ChildRun {
    pub fn succeeded(&self) -> bool {
        self.exit_code == Some(0) && !self.timed_out
    }
}

fn secs(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// Retries a system call interrupted by a signal.
fn retry(mut call: impl FnMut() -> i32) -> i32 {
    loop {
        let ret = call();
        if ret >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return ret;
        }
    }
}

/// Spawns `cmd`, waits for it (killing it after `timeout`), and returns its
/// wall time and `wait4` resource usage.
///
/// A helper thread blocks until the child exits without reaping it
/// (`waitid` with `WNOWAIT`), reports, and reaps only when this thread says
/// so — after any kill — so the pid a kill targets can never have been
/// recycled. The helper is always joined: no child outlives this call.
pub fn run(cmd: &mut Command, timeout: Duration) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let (exited_tx, exited_rx) = mpsc::channel();
    let (reap_tx, reap_rx) = mpsc::channel::<()>();
    let reaper = std::thread::spawn(move || {
        let mut info = [0u64; 16];
        // SAFETY: `info` is a valid, exclusively borrowed 128-byte buffer,
        // the size of `siginfo_t`; `pid` is our own unreaped child.
        retry(|| unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) });
        let wall_s = start.elapsed().as_secs_f64();
        // The receiver lives until this thread is joined.
        let _ = exited_tx.send(());
        let _ = reap_rx.recv();
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the sizes `wait4` writes (see `Rusage`).
        let ret = retry(|| unsafe { wait4(pid, &mut status, 0, &mut usage) });
        (ret == pid).then_some((status, usage, wall_s))
    });
    let timed_out = exited_rx.recv_timeout(timeout).is_err();
    if timed_out {
        // SAFETY: a plain system call. The child is unreaped (the reaper
        // waits for `reap_tx` below), so `pid` still names it.
        unsafe { kill(pid, SIGKILL) };
    }
    let _ = reap_tx.send(());
    let reaped = reaper.join().expect("reaper thread does not panic");
    // `child` was reaped through `wait4`; dropping the handle neither waits
    // nor kills.
    drop(child);
    let (status, usage, wall_s) =
        reaped.ok_or_else(|| std::io::Error::other(format!("wait4 failed for child {pid}")))?;
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(usage.ru_utime) + secs(usage.ru_stime),
        peak_rss_bytes: u64::try_from(usage.ru_maxrss).unwrap_or(0) * 1024,
        exit_code,
        timed_out,
    })
}

/// A helper process that runs children on request, so that their peak RSS
/// is their own (see the module docs). Dropping it ends the helper and
/// waits for it.
pub struct Spawner {
    helper: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper: `helper` must run [`serve`].
    pub fn start(mut helper: Command) -> std::io::Result<Spawner> {
        let mut helper = helper
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = helper.stdin.take();
        let replies = BufReader::new(helper.stdout.take().expect("stdout is piped"));
        Ok(Spawner {
            helper,
            requests,
            replies,
        })
    }

    /// Runs `program args` with its stdout written to `stdout`, as [`run`]
    /// does, inside the helper.
    pub fn run(
        &mut self,
        program: &Path,
        args: &[String],
        stdout: &Path,
        timeout: Duration,
    ) -> std::io::Result<ChildRun> {
        let fields: Vec<String> = [
            timeout.as_secs_f64().to_string(),
            stdout.to_string_lossy().into_owned(),
            program.to_string_lossy().into_owned(),
        ]
        .into_iter()
        .chain(args.iter().cloned())
        .collect();
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(std::io::Error::other(
                "arguments may not contain tabs or newlines",
            ));
        }
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "{}", fields.join("\t"))?;
        requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        parse_reply(reply.trim_end())
            .ok_or_else(|| std::io::Error::other(format!("spawner: {reply:?}")))
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // End of input tells the helper to exit.
        drop(self.requests.take());
        let _ = self.helper.wait();
    }
}

fn parse_reply(reply: &str) -> Option<ChildRun> {
    let f: Vec<&str> = reply.split('\t').collect();
    let [wall, cpu, rss, code, timed_out] = f.as_slice() else {
        return None;
    };
    let code: i32 = code.parse().ok()?;
    Some(ChildRun {
        wall_s: wall.parse().ok()?,
        cpu_s: cpu.parse().ok()?,
        peak_rss_bytes: rss.parse().ok()?,
        exit_code: (code >= 0).then_some(code),
        timed_out: *timed_out == "1",
    })
}

/// The helper's side of [`Spawner`]: serves requests from stdin until it
/// closes, one reply line per request.
pub fn serve() -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let f: Vec<&str> = line.split('\t').collect();
        let reply = match f.as_slice() {
            [timeout, stdout, program, args @ ..] => (|| {
                let timeout = timeout.parse::<f64>().map_err(std::io::Error::other)?;
                let file = std::fs::File::create(stdout)?;
                run(
                    Command::new(program)
                        .args(args)
                        .stdin(Stdio::null())
                        .stdout(file),
                    Duration::from_secs_f64(timeout),
                )
            })(),
            _ => Err(std::io::Error::other("malformed request")),
        };
        match reply {
            Ok(r) => writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                r.wall_s,
                r.cpu_s,
                r.peak_rss_bytes,
                r.exit_code.unwrap_or(-1),
                u8::from(r.timed_out)
            )?,
            Err(e) => writeln!(out, "error: {}", e.to_string().replace(['\t', '\n'], " "))?,
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_codes_and_usage() {
        let ok = run(&mut Command::new("true"), Duration::from_secs(10)).unwrap();
        assert!(ok.succeeded(), "{ok:?}");
        assert!(ok.peak_rss_bytes > 0 && ok.wall_s > 0.0);
        let bad = run(&mut Command::new("false"), Duration::from_secs(10)).unwrap();
        assert_eq!(bad.exit_code, Some(1));
    }

    #[test]
    fn reply_lines_round_trip() {
        let r = parse_reply("0.25\t0.5\t4096\t0\t0").unwrap();
        assert!(r.succeeded() && r.peak_rss_bytes == 4096 && r.cpu_s == 0.5);
        let killed = parse_reply("1\t1\t1\t-1\t1").unwrap();
        assert_eq!((killed.exit_code, killed.timed_out), (None, true));
        assert!(parse_reply("error: no such file").is_none());
    }

    #[test]
    fn kills_a_child_past_its_time_limit() {
        let slow = run(Command::new("sleep").arg("5"), Duration::from_millis(100)).unwrap();
        assert!(slow.timed_out && !slow.succeeded(), "{slow:?}");
        assert!(slow.wall_s < 4.0);
    }
}
