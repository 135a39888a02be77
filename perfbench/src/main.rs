//! Command-line entry: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the host facts and run notes as JSON lines, then, as the last
//! line, the result object. Exits 1, after printing, when an output check
//! failed, and 2, without a result, on a usage or set-up error.

use texid_perfbench::{host_facts, json_strings, run, Outcome, Scale, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: texid-perfbench --workload <identify|gallery|ingest> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

/// glibc gives each allocating thread its own malloc arena and keeps freed
/// memory in it, so the peak RSS of identical runs varied by about 15 %.
/// With one arena `rss_peak_mb` tracks the memory the program holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only changes allocator tuning; it runs before any
    // other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage("--workload must be identify, gallery or ingest"));
    let seed: u64 = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed must be an integer"));
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds must be positive"));
    let traced = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let scale = Scale::full(workload);
    let result = if traced {
        texid_perfbench::layers::run_traced(workload, &scale, seed, seconds)
    } else {
        run::run_untraced(workload, &scale, seed, seconds)
    };
    let outcome: Outcome = result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("{{\"host\": {}}}", json_strings(&host_facts()));
    println!("{{\"notes\": {}}}", json_strings(&outcome.notes));
    println!("{}", outcome.result_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
