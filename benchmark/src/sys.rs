//! Process resource readings from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// fixed at 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 11 and 12
    // counted from the state field.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU time");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs had work (`steal` in `/proc/stat`), summed over CPUs.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok());
    steal.unwrap_or(0.0) / USER_HZ
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the kernel, so the next
/// operation starts from the heap a fresh process would have, not from
/// whatever earlier operations left behind. Call it only while the
/// program is idle: between operations that run one after another.
pub fn release_free_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds as free; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets this process's RSS high-water mark to its current RSS
/// (`clear_refs` 5), so the next [`peak_rss_mib`] covers only what runs
/// in between. It only rewrites the mark. Where the kernel refuses the
/// reset, the mark keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
